"""Crashes *inside* checkpoint() and inside recovery itself.

The commit path's crash matrix lives in test_crash_matrix.py.  These
tests cover the other two durable code paths: a power failure at any
primitive operation of a checkpoint, or of a recovery already underway
(the "crash during recovery" re-entrancy case), must leave a state from
which the next boot still recovers the full committed prefix without
leaking NVRAM blocks.
"""

from __future__ import annotations

import pytest

from repro import System, tuna
from repro.errors import PowerFailure
from repro.wal.nvwal import NvwalScheme
from tests.conftest import make_nvwal_db

SCHEMES = {
    "uh_ls_diff": NvwalScheme.uh_ls_diff,
    "ls": NvwalScheme.ls,
    "eager": NvwalScheme.eager,
}
ROWS = 8
EXPECTED = [(i, f"v{i}") for i in range(ROWS)]


def build(scheme_name, seed=21):
    system = System(tuna(), seed=seed)
    db = make_nvwal_db(system, SCHEMES[scheme_name]())
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
    for i in range(ROWS):
        db.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}"))
    return system, db


def assert_no_leaks(system, db):
    db.checkpoint()
    leaked = [
        a for a in system.heapo.live_allocations() if a.name == "nvwal-blk"
    ]
    assert leaked == []


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_crash_at_every_op_of_checkpoint(scheme):
    """Sweep the power failure over every primitive op of checkpoint()."""
    system, db = build(scheme)
    total = system.crash.count_ops(db.checkpoint)
    assert total > 0
    for k in range(1, total + 1):
        system, db = build(scheme)
        system.crash.arm(after_ops=k)
        with pytest.raises(PowerFailure):
            db.checkpoint()
        system.power_fail()
        system.reboot()
        db2 = make_nvwal_db(system, SCHEMES[scheme]())
        assert db2.dump_table("t") == EXPECTED, (
            f"{scheme} checkpoint crash at op {k}/{total}"
        )
        assert_no_leaks(system, db2)


def _big_txn(db):
    """A transaction large enough that its frames spill into fresh log
    blocks in every scheme — so recovery after a crash mid-transaction
    has durable work to do (chain truncation past the committed tail)."""
    with db.transaction():
        for i in range(100, 160):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, "x" * 200))


def _crashed_state(scheme, crash_at):
    """A powered-off system that crashed ``crash_at`` ops into the big
    uncommitted transaction."""
    system, db = build(scheme)
    system.crash.arm(after_ops=crash_at)
    with pytest.raises(PowerFailure):
        _big_txn(db)
    system.power_fail()
    return system


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_crash_at_every_op_of_recovery(scheme):
    """Crash the recovery itself at every primitive op; the *second*
    recovery must still produce the committed prefix."""
    system, db = build(scheme)
    txn_ops = system.crash.count_ops(lambda: _big_txn(db))
    crash_at = txn_ops - 10  # late in the txn, before its commit mark

    system = _crashed_state(scheme, crash_at)
    system.reboot()
    total = system.crash.count_ops(
        lambda: make_nvwal_db(system, SCHEMES[scheme]())
    )
    assert total > 0, "forged crash state has no durable recovery work"

    for r in range(1, total + 1):
        system = _crashed_state(scheme, crash_at)
        try:
            system.crash.arm(r)
            system.reboot()
            db2 = make_nvwal_db(system, SCHEMES[scheme]())
            system.crash.disarm()
        except PowerFailure:
            system.power_fail()
            system.reboot()
            db2 = make_nvwal_db(system, SCHEMES[scheme]())
        assert db2.dump_table("t") == EXPECTED, (
            f"{scheme} recovery crash at op {r}/{total}"
        )
        assert_no_leaks(system, db2)
