"""Tests for the rollback-journal baseline (pre-WAL SQLite)."""

import pytest

from repro import Database, System, nexus5, tuna
from repro.errors import PowerFailure
from repro.hw import stats as statnames
from repro.wal.journal import RollbackJournalBackend
from tests.conftest import make_nvwal_db


def make_journal_db(system, name="test.db"):
    return Database(
        system,
        wal=RollbackJournalBackend(system),
        name=name,
    )


@pytest.fixture
def system():
    return System(nexus5(), seed=0)


class TestBasics:
    def test_commit_and_read(self, system):
        db = make_journal_db(system)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'x')")
        assert db.query("SELECT v FROM t WHERE k = 1") == [("x",)]

    def test_journal_file_created(self, system):
        make_journal_db(system)
        assert system.fs.exists("test.db-journal")

    def test_data_lands_in_db_file_immediately(self, system):
        db = make_journal_db(system)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'x')")
        # no checkpoint needed — journal mode writes the db file in place
        assert db.wal.db_file.size > 0
        assert db.wal.frame_count() == 0

    def test_journal_truncated_after_commit(self, system):
        db = make_journal_db(system)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        assert db.wal.journal_file.size == 0

    def test_needs_more_fsyncs_than_wal(self):
        """The paper's Section 1 motivation for WAL, measured."""
        counts = {}
        for mode in ("journal", "wal"):
            system = System(nexus5(), seed=0)
            if mode == "journal":
                db = make_journal_db(system)
            else:
                from tests.conftest import make_file_db

                db = make_file_db(system, optimized=False)
            db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
            before = system.stats.snapshot()
            for i in range(10):
                db.execute("INSERT INTO t VALUES (?, 'x')", (i,))
            delta = system.stats.delta_since(before)
            counts[mode] = delta.get_count(statnames.BLOCK_FLUSHES)
        assert counts["journal"] > counts["wal"]


class TestRecovery:
    def test_committed_data_survives_crash(self, system):
        db = make_journal_db(system)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        for i in range(8):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}"))
        system.power_fail()
        system.reboot()
        db2 = make_journal_db(system)
        assert db2.dump_table("t") == [(i, f"v{i}") for i in range(8)]

    def test_hot_journal_rolls_back(self, system):
        """Crash between the db-file write and journal invalidation: the
        journal is hot, so recovery must undo the in-place writes."""
        db = make_journal_db(system)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'committed')")
        # crash after several block writes of the *next* transaction
        system.crash.arm(
            after_ops=1, op_filter=lambda op: op == "cache_line_flush"
        )
        # block-level crash: arm on store ops won't hit file I/O, so use
        # the device directly — cut power right after the db-file fsync.
        system.crash.disarm()
        wal = db.wal

        original_truncate = wal.journal_file.truncate

        def explode(_size):
            system.crash.power_fail()

        wal.journal_file.truncate = explode
        with pytest.raises(PowerFailure):
            db.execute("INSERT INTO t VALUES (2, 'torn')")
        wal.journal_file.truncate = original_truncate
        system.reboot()
        db2 = make_journal_db(system)
        assert db2.dump_table("t") == [(1, "committed")]

    def test_crash_sweep_over_commit(self):
        """Crash at every 5th primitive op through a committing journal
        transaction: always the committed prefix."""
        for crash_at in range(1, 60, 5):
            system = System(nexus5(), seed=21)
            db = make_journal_db(system)
            db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
            db.execute("INSERT INTO t VALUES (1, 'keep')")
            system.crash.arm(after_ops=crash_at)
            try:
                with db.transaction():
                    for i in range(2, 30):
                        db.execute("INSERT INTO t VALUES (?, 'maybe')", (i,))
                system.crash.disarm()
                committed = True
            except PowerFailure:
                committed = False
            system.power_fail()
            system.reboot()
            db2 = make_journal_db(system)
            rows = db2.dump_table("t")
            if committed:
                assert len(rows) == 29
            else:
                assert rows == [(1, "keep")], f"crash at {crash_at}: {rows}"

    def test_equivalent_to_nvwal_contents(self):
        dumps = []
        for maker in (make_journal_db, make_nvwal_db):
            system = System(tuna(), seed=2)
            db = maker(system)
            db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
            for i in range(25):
                db.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}"))
            db.execute("DELETE FROM t WHERE k < 5")
            dumps.append(db.dump_table("t"))
        assert dumps[0] == dumps[1]
