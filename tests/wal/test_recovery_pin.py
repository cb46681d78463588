"""What one power cycle costs in simulated time, and what it recovers, is
pinned.

``cost_matrix.json`` pins the commit path; this pins the other half: one
seeded workload per cell, cut by a power failure, then ``reboot()`` and the
reopening ``Database`` — the window nvbench times as ``sim_recovery_us``.
Each cell records the final clock (exact ``repr``), every ``Stats`` counter
and time bucket, the WAL's :class:`~repro.wal.base.RecoveryReport`, a hash
of the page images recovery handed the database, the live heap allocations
and the NVRAM media.  A host-side rewrite of the reboot or recovery path must
leave every cell of ``recovery_pins.json`` as it is.

Cells: every NVWAL scheme under the explicit persistency model, committing
solo (the cut lands inside a transaction) or in epochs of four (the cut
leaves an epoch open), and the file tier: the stock and the optimized file
WAL, a rollback journal left hot by the cut, and a stock file WAL whose log
ends in a frame spanning three pages (``filewal_span3``).  The file WAL's
commit path issues no ``cpu.store``, so the solo cut armed in ``filewal``
and ``filewal_opt`` cannot fire: those two cells pin a clean power-off
after 111 committed statements (:data:`UNCUT`) until a cut can land
inside the file WAL's block commands.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict
from pathlib import Path

import pytest

from repro import System, tuna
from repro.db.database import Database
from repro.errors import PowerFailure
from repro.storage.ext4 import Ext4FileSystem
from repro.wal.filewal import FileWalBackend
from repro.wal.journal import RollbackJournalBackend
from repro.wal.nvwal import SCHEMES, NvwalBackend

RECOVERY_PINS = Path(__file__).with_name("recovery_pins.json")

#: Transactions per epoch in the grouped cells; 0 commits solo.
EPOCH = 4
#: Rows the transactions cut by the power failure insert.
CUT_ROWS = [(1000 + i, "z" * 300) for i in range(2)]


def _at_store(op: str) -> bool:
    """Solo cells lose power at the last transaction's first ``cpu.store``:
    after its frames are copied (and, but under CS, flushed), before its
    commit mark is stored."""
    return op == "store"

#: Cells whose armed solo cut cannot fire (no ``cpu.store`` on their commit
#: path); every other solo cut must raise :class:`PowerFailure`.
UNCUT = ("filewal", "filewal_opt")

#: The file tier's backends, by cell name.
FILE_TIER = {
    "filewal": lambda system: FileWalBackend(system, optimized=False),
    "filewal_opt": lambda system: FileWalBackend(system, optimized=True),
    "journal": RollbackJournalBackend,
    "filewal_span3": lambda system: FileWalBackend(system, optimized=False),
}
#: Frames in ``filewal_span3``'s log: a stock frame is 4120 bytes after a
#: 32-byte header, so frame 169 starts 8 bytes before a page boundary and
#: ends 16 bytes past the next one.
SPAN3_FRAMES = 170

RECOVERY_CELLS = [(name, epoch) for name in sorted(SCHEMES) for epoch in (0, EPOCH)]
RECOVERY_CELLS += [(name, 0) for name in FILE_TIER]


def cell_id(name: str, epoch: int) -> str:
    return f"{name}/{'epoch%d' % epoch if epoch else 'solo'}"


def _backend(system: System, name: str):
    if name in FILE_TIER:
        return FILE_TIER[name](system)
    return NvwalBackend(system, SCHEMES[name](), checkpoint_threshold=40)


def _statement(rng: random.Random, i: int) -> tuple[str, tuple]:
    if i < 70:
        return "INSERT INTO t VALUES (?, ?)", (i, "x" * rng.randrange(20, 600))
    return "UPDATE t SET v = ? WHERE k = ?", ("y" * rng.randrange(20, 600), rng.randrange(70))


def run_to_cut(name: str, epoch: int) -> System:
    """Run the pinned workload in one cell and cut power.

    110 seeded single-statement transactions (NVWAL: against a 40-frame
    checkpoint threshold, so the surviving log is a later generation over
    blocks an earlier one used), then the cut: inside one more solo
    transaction, or with an epoch of two transactions left open.
    ``filewal_span3`` instead adds single-row inserts up to
    :data:`SPAN3_FRAMES` frames and is cut between transactions.  The
    rollback journal is cut at its commit point, the journal truncate, so
    the journal is hot and the database file holds the torn transaction.
    """
    system = System(tuna(), seed=7)
    db = Database(system, wal=_backend(system, name))
    rng = random.Random(2016)
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
    for i in range(110):
        sql, params = _statement(rng, i)
        if epoch:
            db.begin()
            db.execute(sql, params)
            db.group_commit()
            if i % epoch == epoch - 1:
                db.flush_group()
        else:
            db.execute(sql, params)
    db.flush_group()
    if name == "filewal_span3":
        k = 2000
        while db.wal.frame_count() < SPAN3_FRAMES:
            db.execute("INSERT INTO t VALUES (?, ?)", (k, "s" * 40))
            k += 1
    elif epoch:
        for row in CUT_ROWS:
            db.begin()
            db.execute("INSERT INTO t VALUES (?, ?)", row)
            db.group_commit()
    else:
        if name == "journal":
            def commit_point(_size: int) -> None:
                system.crash.power_fail()

            db.wal.journal_file.truncate = commit_point
        else:
            system.crash.arm(1, _at_store)
        try:
            db.execute("INSERT INTO t VALUES (?, ?)", CUT_ROWS[0])
        except PowerFailure:
            pass
        else:
            assert name in UNCUT, f"{name}: the armed cut never fired"
        finally:
            system.crash.disarm()
    system.power_fail()
    return system


def recovery_fingerprint(name: str, epoch: int) -> dict:
    """Run one cell to its cut (:func:`run_to_cut`), recover, and
    fingerprint the recovery."""
    system = run_to_cut(name, epoch)
    cut_ns = system.clock.now_ns

    system.reboot()
    wal = _backend(system, name)
    recovered = {}
    recover = wal.recover
    wal.recover = lambda: recovered.setdefault("images", recover())
    db = Database(system, wal=wal)
    images = hashlib.sha256()
    for pno, image in sorted(recovered["images"].items()):
        images.update(pno.to_bytes(4, "little") + image)
    stats = system.stats
    return {
        "cut_ns": repr(cut_ns),
        "now_ns": repr(system.clock.now_ns),
        "counters": dict(sorted(stats.counters.items())),
        "time_ns": {k: repr(v) for k, v in sorted(stats.time_ns.items())},
        "report": {k: list(v) if isinstance(v, tuple) else v
                   for k, v in asdict(wal.last_recovery).items()},
        "images_sha256": images.hexdigest(),
        "rows": len(db.query("SELECT k FROM t")),
        "heap": [list(a.__dict__.values()) for a in system.heapo.live_allocations()],
        "nvram_sha256": hashlib.sha256(system.nvram.durable_image()).hexdigest(),
    }


@pytest.mark.parametrize(
    "name, epoch", RECOVERY_CELLS, ids=[cell_id(*cell) for cell in RECOVERY_CELLS]
)
def test_recovery_cost_is_pinned(name, epoch):
    pinned = json.loads(RECOVERY_PINS.read_text())[cell_id(name, epoch)]
    if name not in FILE_TIER:
        assert pinned["report"]["frames_replayed"] > 0
        counters = pinned["counters"]
        chained = counters["nvmalloc_calls"] + counters.get("nv_pre_malloc_calls", 0)
        assert chained >= 5  # the log spans several blocks
    assert recovery_fingerprint(name, epoch) == pinned


def test_file_tier_cells_reach_what_they_pin():
    """The journal cell's journal is hot at the cut; ``filewal_span3``'s
    mount replays journaled metadata and its log ends in the frame that
    spans three pages."""
    system = run_to_cut("journal", 0)
    assert Ext4FileSystem(system.blockdev)._replay_journal()
    system.reboot()
    journal = system.fs.open("test.db-journal")
    assert journal.size > 0

    system = run_to_cut("filewal_span3", 0)
    assert Ext4FileSystem(system.blockdev)._replay_journal()
    system.reboot()
    wal = FileWalBackend(system, optimized=False)
    Database(system, wal=wal)
    assert wal.last_recovery.frames_replayed == SPAN3_FRAMES
    page_size = system.page_size
    start = wal._frame_offset(SPAN3_FRAMES - 1)
    end = start + wal._frame_stride()
    assert end // page_size - start // page_size == 2  # three pages
    assert end == wal.wal_file.size


def regenerate() -> None:
    """Rewrite ``recovery_pins.json`` — only for a change meant to move
    recovery's simulated cost or results."""
    pins = {cell_id(*cell): recovery_fingerprint(*cell) for cell in RECOVERY_CELLS}
    RECOVERY_PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
