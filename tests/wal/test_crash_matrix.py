"""Crash injection at every step of Algorithm 1 (Section 4.3).

The paper argues recovery correctness case by case because it cannot run
power-off tests on real hardware.  The simulator can: these tests cut power
at *every* primitive CPU operation inside a committing transaction and
assert that recovery always yields the committed-prefix database state and
never leaks NVRAM blocks.
"""

from __future__ import annotations

import pytest

from repro import System, tuna
from repro.errors import PowerFailure
from repro.nvram.heapo import BlockState
from repro.wal.nvwal import NvwalScheme
from tests.conftest import make_nvwal_db

SCHEMES = [
    NvwalScheme.uh_ls_diff(),
    NvwalScheme.ls(),
    NvwalScheme.eager(),
]


def committed_prefix_run(scheme: NvwalScheme, crash_at: int, seed: int):
    """Run 3 committed txns, then crash at op ``crash_at`` of txn 4.

    Returns (crashed, recovered_rows).
    """
    system = System(tuna(), seed=seed)
    db = make_nvwal_db(system, scheme)
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
    for i in range(3):
        db.execute("INSERT INTO t VALUES (?, ?)", (i, f"committed{i}"))
    crashed = False
    system.crash.arm(after_ops=crash_at)
    try:
        with db.transaction():
            for i in range(3, 40):
                db.execute("INSERT INTO t VALUES (?, 'uncommitted')", (i,))
    except PowerFailure:
        crashed = True
    finally:
        system.crash.disarm()
    system.power_fail()  # idempotent if already crashed
    system.reboot()
    db2 = make_nvwal_db(system, scheme)
    rows = db2.dump_table("t") if db2.table_exists("t") else []
    # NVRAM hygiene: after recovery + checkpoint nothing but the root stays
    db2.checkpoint()
    leaked = [
        a
        for a in system.heapo.live_allocations()
        if a.name == "nvwal-blk"
    ]
    return crashed, rows, leaked


def count_txn_ops(scheme: NvwalScheme) -> int:
    """How many primitive CPU ops one commit of the probe txn performs."""
    system = System(tuna(), seed=0)
    db = make_nvwal_db(system, scheme)
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
    for i in range(3):
        db.execute("INSERT INTO t VALUES (?, ?)", (i, f"committed{i}"))

    def txn():
        with db.transaction():
            for i in range(3, 40):
                db.execute("INSERT INTO t VALUES (?, 'uncommitted')", (i,))

    return system.crash.count_ops(txn)


@pytest.mark.slow
@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
def test_crash_at_every_step_preserves_committed_prefix(scheme):
    """Sweep the power failure over every op of the committing transaction."""
    expected = [(i, f"committed{i}") for i in range(3)]
    total_ops = count_txn_ops(scheme)
    assert total_ops > 0
    for crash_at in range(1, total_ops + 1):
        crashed, rows, leaked = committed_prefix_run(scheme, crash_at, seed=11)
        assert crashed, f"crash point {crash_at} did not fire"
        assert rows == expected, (
            f"{scheme.name} crash at op {crash_at}/{total_ops}: "
            f"recovered {rows!r}"
        )
        assert leaked == [], f"crash at op {crash_at} leaked NVRAM blocks"


def test_crash_past_the_commit_keeps_the_transaction():
    """Crashing after the commit's persist barrier keeps all 40 rows."""
    scheme = NvwalScheme.uh_ls_diff()
    total_ops = count_txn_ops(scheme)
    crashed, rows, leaked = committed_prefix_run(
        scheme, total_ops + 1000, seed=11
    )
    assert not crashed
    assert len(rows) == 40
    assert leaked == []


class TestSection43Cases:
    """The individual failure cases enumerated in Section 4.3."""

    def test_crash_while_allocating_block_reclaims_pending(self):
        """Case 1: system fails during nv_pre_malloc — the pending block is
        reclaimed by heap recovery, preventing a leak."""
        system = System(tuna(), seed=5)
        db = make_nvwal_db(system)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        # allocate a pending block by hand, simulating a crash right after
        block = system.heapo.nv_pre_malloc(8192, name="nvwal-blk")
        assert system.heapo.state_of(block.addr) is BlockState.PENDING
        system.power_fail()
        reclaimed = system.reboot()
        assert block.addr in reclaimed
        db2 = make_nvwal_db(system)
        assert db2.table_exists("t")

    def test_crash_between_link_and_set_used_drops_reference(self):
        """Case 2: the reference was stored but the block is still pending;
        heap recovery frees it and WAL recovery drops the dangling link."""
        system = System(tuna(), seed=6)
        db = make_nvwal_db(system)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'keep')")
        wal = db.wal
        # forge the dangling state: a pending block linked from the tail
        import struct

        block = system.heapo.nv_pre_malloc(8192, name="nvwal-blk")
        wal._store_durable_u64(wal._link_addr, block.addr)
        system.power_fail()
        system.reboot()
        db2 = make_nvwal_db(system)
        assert db2.dump_table("t") == [(1, "keep")]
        # A normal end of the chain, not corruption: no salvage checkpoint.
        assert not db2.wal.last_recovery.corruption_detected
        assert db2.wal._checkpoint_id == wal._checkpoint_id

    def test_crash_during_memcpy_aborts_transaction(self):
        """Case 3: a torn frame memcpy means no commit mark — aborted."""
        system = System(tuna(), seed=7)
        db = make_nvwal_db(system)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'keep')")
        system.crash.arm(after_ops=1, op_filter=lambda op: op == "memcpy")
        with pytest.raises(PowerFailure):
            db.execute("INSERT INTO t VALUES (2, 'torn')")
        system.reboot()
        db2 = make_nvwal_db(system)
        assert db2.dump_table("t") == [(1, "keep")]

    def test_crash_during_checkpoint_replays_log(self):
        """Case 4: checkpointing failure — the log is still intact, so
        recovery simply replays it."""
        system = System(tuna(), seed=8)
        db = make_nvwal_db(system)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        for i in range(10):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}"))
        # crash in the middle of the checkpoint's db-file writes
        system.crash.arm(after_ops=1, op_filter=lambda op: op == "store")
        try:
            db.checkpoint()
        except PowerFailure:
            pass
        system.power_fail()
        system.reboot()
        db2 = make_nvwal_db(system)
        assert db2.dump_table("t") == [(i, f"v{i}") for i in range(10)]

    def test_crash_between_checkpoint_invalidate_and_free(self):
        """A crash after the log is invalidated but before blocks are freed
        must not lose data and must not leak the orphaned blocks."""
        system = System(tuna(), seed=9)
        db = make_nvwal_db(system)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        for i in range(10):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}"))
        # fire on the checkpoint's persist barrier (the invalidation step),
        # before userheap.free_all runs
        system.crash.arm(
            after_ops=1, op_filter=lambda op: op == "persist_barrier"
        )
        with pytest.raises(PowerFailure):
            db.checkpoint()
        system.reboot()
        db2 = make_nvwal_db(system)
        assert db2.dump_table("t") == [(i, f"v{i}") for i in range(10)]
        db2.checkpoint()
        leaked = [
            a for a in system.heapo.live_allocations() if a.name == "nvwal-blk"
        ]
        assert leaked == []
