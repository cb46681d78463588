"""Group commit (epoch batching): durability, atomicity, cost, recovery.

The epoch contract across every scheme (E, LS, CS):

* transactions joining an open epoch are NOT durable until the epoch
  closes — a power cut with an open epoch loses the whole epoch;
* a closed epoch is durable in its entirety — recovery replays the
  longest valid prefix of whole epochs;
* the close pays ONE flush + persist-barrier sequence for the batch,
  which is the entire point of grouping.
"""

import pytest

from repro import System, tuna
from repro.errors import TransactionError
from repro.hw import stats as statnames
from repro.wal.base import SyncMode
from repro.wal.nvwal import NvwalScheme
from tests.conftest import make_file_db, make_nvwal_db

GROUP_SCHEMES = [
    NvwalScheme.eager(),
    NvwalScheme.ls(),
    NvwalScheme(sync=SyncMode.CHECKSUM),
]


def _insert_grouped(db, keys):
    for k in keys:
        db.begin()
        db.execute("INSERT INTO t VALUES (?, ?)", (k, f"v{k}"))
        db.group_commit()


@pytest.fixture
def system():
    return System(tuna(), seed=0)


class TestEpochDurability:
    @pytest.mark.parametrize("scheme", GROUP_SCHEMES, ids=lambda s: s.name)
    def test_closed_epoch_survives_power_cut(self, system, scheme):
        db = make_nvwal_db(system, scheme)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        _insert_grouped(db, range(5))
        assert db.flush_group() == 5
        system.power_fail()
        system.reboot()
        db2 = make_nvwal_db(system, scheme)
        rows = sorted(k for k, _v in db2.query("SELECT * FROM t"))
        if scheme.sync is SyncMode.CHECKSUM:
            # CS never flushes log entries: even a closed epoch is only
            # asynchronously durable and may shed at the power cut — but
            # what survives is a whole-epoch prefix, never a partial one.
            assert rows in ([], list(range(5)))
        else:
            assert rows == list(range(5))

    @pytest.mark.parametrize("scheme", GROUP_SCHEMES, ids=lambda s: s.name)
    def test_open_epoch_is_lost_whole(self, system, scheme):
        db = make_nvwal_db(system, scheme)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        _insert_grouped(db, range(3))
        db.flush_group()
        _insert_grouped(db, range(10, 14))  # second epoch, never closed
        system.power_fail()
        system.reboot()
        db2 = make_nvwal_db(system, scheme)
        rows = sorted(k for k, _v in db2.query("SELECT * FROM t"))
        # CS may legitimately shed further (asynchronous commit), but the
        # synchronous schemes must keep exactly the closed epoch.
        if scheme.sync is SyncMode.CHECKSUM:
            assert set(rows) <= {0, 1, 2}
        else:
            assert rows == [0, 1, 2]

    def test_flush_group_without_epoch_is_a_noop(self, system):
        db = make_nvwal_db(system)
        assert db.flush_group() == 0

    def test_close_on_empty_epoch_commits_nothing(self, system):
        db = make_nvwal_db(system)
        db.wal.group_begin()
        assert db.wal.group_close() == 0
        assert not db.wal.group_open


class TestEpochExclusion:
    def test_per_txn_write_rejected_while_epoch_open(self, system):
        db = make_nvwal_db(system)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        db.wal.group_begin()
        with pytest.raises(TransactionError):
            db.execute("INSERT INTO t VALUES (1, 'x')")
        db.wal.group_close()

    def test_autocommit_select_rejected_while_epoch_open(self, system):
        """NVWAL refuses every standalone transaction while an epoch is
        open, a read-only autocommit's empty one included, and the refused
        statement rolls back like any failed autocommit: the session is
        free for the next transaction once the epoch closes."""
        db = make_nvwal_db(system)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        _insert_grouped(db, [1])
        with pytest.raises(TransactionError, match="group-commit epoch is open"):
            db.execute("SELECT v FROM t WHERE k = 1")
        assert db.wal.group_open
        assert not db.in_transaction
        db.flush_group()
        db.begin()
        db.commit()
        assert db.query("SELECT v FROM t WHERE k = 1") == [("v1",)]

    def test_checkpoint_rejected_while_epoch_open(self, system):
        db = make_nvwal_db(system)
        db.wal.group_begin()
        with pytest.raises(TransactionError):
            db.wal.checkpoint()
        db.wal.group_close()

    def test_nested_group_begin_rejected(self, system):
        db = make_nvwal_db(system)
        db.wal.group_begin()
        with pytest.raises(TransactionError):
            db.wal.group_begin()
        db.wal.group_close()


class TestEpochCost:
    def test_one_barrier_sequence_per_epoch(self):
        """UH+LS+Diff grouped: N transactions share one flush + barrier
        sequence instead of paying one each — the group-commit speedup.
        (Updates, so differential frames stay within one log block and
        block chaining does not add allocation barriers of its own.)"""
        n = 8

        def run(grouped):
            system = System(tuna(), seed=0)
            db = make_nvwal_db(system, NvwalScheme.uh_ls_diff())
            db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
            for k in range(n):
                db.execute("INSERT INTO t VALUES (?, ?)", (k, "seed"))
            before = system.stats.snapshot()
            for k in range(n):
                if grouped:
                    db.begin()
                    db.execute("UPDATE t SET v = ? WHERE k = ?", (f"v{k}", k))
                    db.group_commit()
                else:
                    db.execute("UPDATE t SET v = ? WHERE k = ?", (f"v{k}", k))
            if grouped:
                db.flush_group()
            return system.stats.delta_since(before)

        grouped, per_txn = run(True), run(False)
        assert grouped.get_count(statnames.PERSIST_BARRIERS) <= 3
        assert per_txn.get_count(statnames.PERSIST_BARRIERS) >= n
        assert grouped.get_count(statnames.DMBS) < per_txn.get_count(statnames.DMBS)

    def test_grouped_state_matches_per_txn_state(self, system):
        db = make_nvwal_db(system, NvwalScheme.ls())
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        _insert_grouped(db, range(6))
        db.flush_group()

        sys2 = System(tuna(), seed=0)
        db2 = make_nvwal_db(sys2, NvwalScheme.ls())
        db2.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        for k in range(6):
            db2.execute("INSERT INTO t VALUES (?, ?)", (k, f"v{k}"))
        assert sorted(db.query("SELECT * FROM t")) == sorted(
            db2.query("SELECT * FROM t")
        )


class TestVerifyAndCheckpoint:
    @pytest.mark.parametrize("scheme", GROUP_SCHEMES, ids=lambda s: s.name)
    def test_verify_log_accepts_closed_epochs(self, system, scheme):
        db = make_nvwal_db(system, scheme)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        _insert_grouped(db, range(4))
        db.flush_group()
        report = db.wal.verify_log()
        assert not report.corruption_detected
        assert report.frames_dropped == 0

    def test_checkpoint_after_flush_group_drains_the_log(self, system):
        db = make_nvwal_db(system)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        _insert_grouped(db, range(4))
        db.flush_group()
        assert db.wal.checkpoint() > 0
        assert db.wal.frame_count() == 0


class TestFileWalParity:
    def test_grouped_commits_durable_after_close(self, system):
        db = make_file_db(system)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        _insert_grouped(db, range(4))
        assert db.flush_group() == 4
        system.power_fail()
        system.reboot()
        db2 = make_file_db(system)
        assert len(db2.query("SELECT * FROM t")) == 4

    def test_autocommit_select_while_epoch_open(self, system):
        """The file WAL's epoch is bookkeeping only: reads go on."""
        db = make_file_db(system)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        _insert_grouped(db, [1])
        assert db.execute("SELECT v FROM t WHERE k = 1") == [("v1",)]
        assert db.flush_group() == 1
