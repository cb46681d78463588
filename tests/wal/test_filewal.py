"""Tests for the file WAL baselines (stock and optimized)."""

import pytest

from repro import System, nexus5
from repro.hw import stats as statnames
from repro.storage.trace import BlockTrace
from tests.conftest import make_file_db


@pytest.fixture
def system():
    return System(nexus5(), seed=0)


@pytest.fixture(params=[False, True], ids=["stock", "optimized"])
def optimized(request):
    return request.param


class TestBasics:
    def test_commit_and_read(self, system, optimized):
        db = make_file_db(system, optimized)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'x')")
        assert db.query("SELECT v FROM t WHERE k = 1") == [("x",)]

    def test_wal_file_created(self, system, optimized):
        make_file_db(system, optimized)
        assert system.fs.exists("test.db-wal")

    def test_commit_fsyncs_once(self, system, optimized):
        db = make_file_db(system, optimized)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        before = system.stats.snapshot()
        db.execute("INSERT INTO t VALUES (1, 'x')")
        delta = system.stats.delta_since(before)
        # data flush + journal flush = one fsync cycle
        assert delta.get_count(statnames.BLOCK_FLUSHES) <= 2

    def test_frame_count(self, system, optimized):
        db = make_file_db(system, optimized)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        before = db.wal.frame_count()
        db.execute("INSERT INTO t VALUES (1, 'x')")
        assert db.wal.frame_count() == before + 1


class TestAlignment:
    def test_stock_frames_misaligned(self, system):
        """Stock WAL: 24-byte header + full page -> one frame dirties two
        filesystem blocks (Section 5.4's misalignment problem)."""
        db = make_file_db(system, optimized=False)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'x')")
        trace = system.blockdev.trace = BlockTrace()
        before = system.stats.snapshot()
        db.execute("INSERT INTO t VALUES (2, 'x')")
        writes = [
            e for e in trace.writes() if e.tag == "file:test.db-wal"
        ]
        assert len(writes) == 2

    def test_optimized_frames_aligned(self, system):
        """Optimized WAL: early split merges header + page into one block."""
        db = make_file_db(system, optimized=True)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        for i in range(1, 4):
            db.execute("INSERT INTO t VALUES (?, 'x')", (i,))
        trace = system.blockdev.trace = BlockTrace()
        db.execute("INSERT INTO t VALUES (9, 'x')")
        writes = [
            e for e in trace.writes() if e.tag == "file:test.db-wal"
        ]
        assert len(writes) == 1

    def test_optimized_journal_traffic_lower(self):
        totals = {}
        for optimized in (False, True):
            system = System(nexus5(), seed=0)
            db = make_file_db(system, optimized)
            db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
            trace = system.blockdev.trace = BlockTrace()
            for i in range(10):
                db.execute("INSERT INTO t VALUES (?, ?)", (i, "x" * 100))
            totals[optimized] = sum(
                e.length for e in trace.writes("journal")
            )
        assert totals[True] < totals[False]

    def test_preallocation_doubles(self, system):
        db = make_file_db(system, optimized=True)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        wal_file = db.wal.wal_file
        first = wal_file.allocated_pages()
        assert first >= 8
        for i in range(40):
            db.execute("INSERT INTO t VALUES (?, 'x')", (i,))
        assert wal_file.allocated_pages() >= 16


class TestRecovery:
    def test_committed_data_survives_crash(self, system, optimized):
        db = make_file_db(system, optimized)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        for i in range(8):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}"))
        system.power_fail()
        system.reboot()
        db2 = make_file_db(system, optimized)
        assert db2.dump_table("t") == [(i, f"v{i}") for i in range(8)]

    def test_checkpoint_then_crash(self, system, optimized):
        db = make_file_db(system, optimized)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        for i in range(8):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}"))
        db.checkpoint()
        assert db.wal.frame_count() == 0
        system.power_fail()
        system.reboot()
        db2 = make_file_db(system, optimized)
        assert db2.row_count("t") == 8

    def test_salt_invalidates_stale_frames(self, system, optimized):
        db = make_file_db(system, optimized)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'old')")
        db.checkpoint()
        db.execute("UPDATE t SET v = 'new' WHERE k = 1")
        system.power_fail()
        system.reboot()
        db2 = make_file_db(system, optimized)
        assert db2.query("SELECT v FROM t WHERE k = 1") == [("new",)]

    def test_repeated_crash_recover_cycles(self, optimized):
        system = System(nexus5(), seed=4)
        db = make_file_db(system, optimized)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        for cycle in range(4):
            db.execute("INSERT INTO t VALUES (?, ?)", (cycle, f"c{cycle}"))
            system.power_fail()
            system.reboot()
            db = make_file_db(system, optimized)
            assert db.row_count("t") == cycle + 1
