"""Tests for the NVWAL backend: Algorithm 1, recovery, checkpointing."""

import pytest

from repro import System, tuna
from repro.hw import stats as statnames
from repro.wal.nvwal import NvwalBackend, NvwalScheme
from tests.conftest import make_nvwal_db


@pytest.fixture
def system():
    return System(tuna(), seed=0)


ALL_SCHEMES = NvwalScheme.all_figure7() + [NvwalScheme.eager()]


class TestSchemeNames:
    def test_paper_labels(self):
        assert NvwalScheme.ls().name == "NVWAL LS"
        assert NvwalScheme.ls_diff().name == "NVWAL LS+Diff"
        assert NvwalScheme.cs_diff().name == "NVWAL CS+Diff"
        assert NvwalScheme.uh_ls().name == "NVWAL UH+LS"
        assert NvwalScheme.uh_ls_diff().name == "NVWAL UH+LS+Diff"
        assert NvwalScheme.uh_cs_diff().name == "NVWAL UH+CS+Diff"
        assert NvwalScheme.eager().name == "NVWAL E"

    def test_figure7_matrix_has_six(self):
        assert len(NvwalScheme.all_figure7()) == 6


class TestWritePath:
    def test_commit_is_durable_without_checkpoint(self, system):
        db = make_nvwal_db(system)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'durable')")
        system.power_fail()
        system.reboot()
        db2 = make_nvwal_db(system)
        assert db2.query("SELECT v FROM t WHERE k = 1") == [("durable",)]

    def test_empty_transaction_writes_nothing(self, system):
        db = make_nvwal_db(system)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        before = db.wal.frame_count()
        with db.transaction():
            pass
        assert db.wal.frame_count() == before

    def test_frame_count_grows_per_dirty_page(self, system):
        db = make_nvwal_db(system)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        before = db.wal.frame_count()
        db.execute("INSERT INTO t VALUES (1, 'x')")
        assert db.wal.frame_count() == before + 1

    def test_diff_scheme_writes_fewer_bytes(self, system):
        results = {}
        for diff in (False, True):
            sys2 = System(tuna(), seed=0)
            scheme = NvwalScheme.uh_ls_diff() if diff else NvwalScheme.uh_ls()
            db = make_nvwal_db(sys2, scheme)
            db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
            before = sys2.stats.get_count("memcpy_bytes")
            for i in range(20):
                db.execute("INSERT INTO t VALUES (?, ?)", (i, "x" * 100))
            results[diff] = sys2.stats.get_count("memcpy_bytes") - before
        assert results[True] < results[False] / 3

    def test_lazy_flushes_batched_per_txn(self, system):
        db = make_nvwal_db(system, NvwalScheme.ls())
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        before = system.stats.snapshot()
        db.execute("INSERT INTO t VALUES (1, 'x')")
        delta = system.stats.delta_since(before)
        # Algorithm 1: dmb twice around the batch, once after commit flush,
        # once before it -> at most a handful, not one per line.
        assert delta.get_count(statnames.DMBS) <= 8
        assert delta.get_count(statnames.PERSIST_BARRIERS) <= 3

    def test_eager_barriers_per_frame(self, system):
        eager = System(tuna(), seed=0)
        db = make_nvwal_db(eager, NvwalScheme.eager())
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        before = eager.stats.snapshot()
        with db.transaction():
            for i in range(200):
                db.execute("INSERT INTO t VALUES (?, ?)", (i, "y" * 100))
        delta = eager.stats.delta_since(before)
        frames = delta.get_count(statnames.FLUSH_CALLS)
        assert delta.get_count(statnames.PERSIST_BARRIERS) >= 5

    def test_checksum_scheme_skips_payload_flushes(self, system):
        db = make_nvwal_db(system, NvwalScheme.uh_cs_diff())
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        before = system.stats.snapshot()
        db.execute("INSERT INTO t VALUES (1, 'x')")
        delta = system.stats.delta_since(before)
        # only the commit frame header is flushed: one syscall, 1 line
        assert delta.get_count(statnames.FLUSH_CALLS) == 1
        assert delta.get_count(statnames.FLUSHES) <= 2


class TestUserHeap:
    def test_uh_reduces_kernel_calls(self):
        counts = {}
        for user_heap in (False, True):
            sys2 = System(tuna(), seed=0)
            scheme = (
                NvwalScheme.uh_ls_diff() if user_heap else NvwalScheme.ls_diff()
            )
            db = make_nvwal_db(sys2, scheme)
            db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
            before = sys2.stats.snapshot()
            for i in range(50):
                db.execute("INSERT INTO t VALUES (?, ?)", (i, "x" * 100))
            delta = sys2.stats.delta_since(before)
            counts[user_heap] = delta.get_count(
                statnames.NVMALLOC_CALLS
            ) + delta.get_count(statnames.PRE_MALLOC_CALLS)
        assert counts[True] < counts[False] / 5

    def test_two_full_frames_per_block(self, system):
        """Paper: an 8 KB block stores two (full-page) WAL frames."""
        db = make_nvwal_db(system, NvwalScheme.uh_ls())
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        db.checkpoint()
        for i in range(20):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, "x" * 100))
        assert db.wal.frames_per_block() >= 2

    def test_many_frames_per_block_with_diff(self, system):
        """Paper: 4.9 frames per 8 KB block with differential logging."""
        db = make_nvwal_db(system, NvwalScheme.uh_ls_diff())
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        db.checkpoint()
        for i in range(60):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, "x" * 100))
        assert db.wal.frames_per_block() >= 4


class TestCheckpoint:
    def test_checkpoint_writes_db_file_and_truncates(self, system):
        db = make_nvwal_db(system)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        for i in range(10):
            db.execute("INSERT INTO t VALUES (?, 'v')", (i,))
        assert db.wal.frame_count() > 0
        pages = db.checkpoint()
        assert pages > 0
        assert db.wal.frame_count() == 0
        assert db.wal.db_file.size > 0

    def test_checkpoint_frees_all_blocks(self, system):
        db = make_nvwal_db(system)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        for i in range(10):
            db.execute("INSERT INTO t VALUES (?, 'v')", (i,))
        db.checkpoint()
        names = [a.name for a in system.heapo.live_allocations()]
        assert names == ["nvwal-root"]

    def test_auto_checkpoint_at_threshold(self, system):
        db = make_nvwal_db(system, checkpoint_threshold=20)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        for i in range(40):
            db.execute("INSERT INTO t VALUES (?, 'v')", (i,))
        assert db.wal.frame_count() < 20

    def test_data_survives_checkpoint_boundary(self, system):
        db = make_nvwal_db(system, checkpoint_threshold=10)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        for i in range(35):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}"))
        system.power_fail()
        system.reboot()
        db2 = make_nvwal_db(system)
        assert db2.row_count("t") == 35
        assert db2.query("SELECT v FROM t WHERE k = 34") == [("v34",)]

    def test_checkpoint_id_invalidates_stale_frames(self, system):
        """Frames from a previous log generation are never replayed."""
        db = make_nvwal_db(system)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'gen1')")
        db.checkpoint()
        db.execute("UPDATE t SET v = 'gen2' WHERE k = 1")
        system.power_fail()
        system.reboot()
        db2 = make_nvwal_db(system)
        assert db2.query("SELECT v FROM t WHERE k = 1") == [("gen2",)]


class TestRecoveryBasics:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
    def test_all_schemes_recover_committed_data(self, scheme):
        """Synchronous schemes recover everything committed; asynchronous
        (CS) schemes may lose a committed suffix — the checksum detects the
        unpersisted transactions and recovery yields a clean prefix, which
        is exactly the durability the paper's Section 4.2 trades away."""
        system = System(tuna(), seed=3)
        db = make_nvwal_db(system, scheme)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        for i in range(15):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, f"val{i}"))
        system.power_fail()
        system.reboot()
        db2 = make_nvwal_db(system, scheme)
        recovered = db2.dump_table("t") if db2.table_exists("t") else []
        expected = [(i, f"val{i}") for i in range(15)]
        if scheme.sync.value == "checksum":
            assert recovered == expected[: len(recovered)]
        else:
            assert recovered == expected

    def test_recovery_is_idempotent(self, system):
        db = make_nvwal_db(system)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'x')")
        for _ in range(3):
            system.power_fail()
            system.reboot()
            db = make_nvwal_db(system)
            assert db.dump_table("t") == [(1, "x")]

    def test_write_after_recovery_overwrites_garbage(self, system):
        db = make_nvwal_db(system)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'one')")
        # leave an uncommitted transaction's frames in the log
        from repro.errors import PowerFailure

        # crash after the frame memcpy, during the flush batch, so the
        # uncommitted frame's bytes are (partially) in the log
        system.crash.arm(after_ops=3, op_filter=lambda op: op == "dccmvac")
        with pytest.raises(PowerFailure):
            with db.transaction():
                for i in range(2, 60):
                    db.execute("INSERT INTO t VALUES (?, 'junk')", (i,))
        system.reboot()
        db2 = make_nvwal_db(system)
        db2.execute("INSERT INTO t VALUES (99, 'after')")
        system.power_fail()
        system.reboot()
        db3 = make_nvwal_db(system)
        assert db3.dump_table("t") == [(1, "one"), (99, "after")]

    def test_no_nvram_leak_across_many_cycles(self, system):
        for cycle in range(5):
            db = make_nvwal_db(system)
            db.execute(
                "CREATE TABLE IF NOT EXISTS t (k INTEGER PRIMARY KEY, v TEXT)"
            )
            db.execute("INSERT INTO t VALUES (?, 'x')", (cycle,))
            system.power_fail()
            system.reboot()
        db = make_nvwal_db(system)
        db.checkpoint()
        blocks = [
            a for a in system.heapo.live_allocations() if a.name == "nvwal-blk"
        ]
        assert blocks == []
