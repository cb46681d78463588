"""Ablation A4: recovery time vs log size.

Not measured in the paper (it had no way to power-cycle), but implied by
its recovery algorithm: NVWAL recovery scans the NVRAM log and rebuilds
page images, so recovery cost grows with the un-checkpointed log.  This
ablation crashes after N transactions and measures simulated recovery
time for NVWAL and the file WAL.

The first NVWAL row recovers over an empty database file, the second over
a preloaded, checkpointed table that the N transactions insert into at
random points — the case every nvbench recovery cycle measures.  There
each logged page has a copy in the database file, which NVWAL recovery
need not read: the page's first frame in the log is its whole image.
"""

from __future__ import annotations

import random

from repro.bench.harness import BackendSpec, make_database
from repro.bench.report import Report, Table
from repro.config import tuna
from repro.wal.filewal import FileWalBackend
from repro.wal.nvwal import NvwalBackend, NvwalScheme

LOG_SIZES = (10, 100, 500, 1000)
#: Rows (even keys) in the preloaded table; the N logged inserts take odd
#: keys, so they land on leaves all over the tree.
PRELOAD_ROWS = 2000

INSERT = "INSERT INTO t VALUES (?, ?)"


def _recover(backend_kind: str, txns: int, preload: int = 0):
    """Crash after ``txns`` inserts and recover; the recovery's simulated
    milliseconds and its report."""
    if backend_kind == "nvwal":
        backend = BackendSpec.nvwal(NvwalScheme.uh_ls_diff(), threshold=10**9)
    else:
        backend = BackendSpec.file(optimized=True, threshold=10**9)
    db = make_database(tuna(), backend)
    system = db.system
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
    keys = range(txns)
    if preload:
        with db.transaction():
            for i in range(preload):
                db.execute(INSERT, (2 * i, "x" * 100))
        db.checkpoint()
        keys = random.Random(txns).sample(range(1, 2 * preload, 2), txns)
    for key in keys:
        db.execute(INSERT, (key, "x" * 100))
    system.power_fail()
    system.reboot()
    start = system.clock.now_ns
    if backend_kind == "nvwal":
        wal = NvwalBackend(system, NvwalScheme.uh_ls_diff())
    else:
        wal = FileWalBackend(system, optimized=True)
    wal.bind(system.fs, "test.db")
    wal.recover()
    return (system.clock.now_ns - start) / 1e6, wal.last_recovery


def run(quick: bool = False) -> Report:
    """Measure recovery latency as the log grows."""
    sizes = LOG_SIZES[:2] if quick else LOG_SIZES
    headers = ["txns in log"] + [str(n) for n in sizes]
    rows = []
    base_reads = []
    for kind, label, preload in (
        ("nvwal", "NVWAL UH+LS+Diff", 0),
        ("nvwal", f"NVWAL UH+LS+Diff, {PRELOAD_ROWS}-row db", PRELOAD_ROWS),
        ("file", "Optimized WAL", 0),
    ):
        row: list[object] = [label + " recovery (ms)"]
        for txns in sizes:
            ms, report = _recover(kind, txns, preload)
            row.append(round(ms, 2))
            if preload:
                base_reads.append(report.base_pages_read)
        rows.append(row)
    return Report(
        "Ablation A4",
        "Recovery time vs un-checkpointed log size",
        tables=[Table(headers, rows)],
        notes=[
            "Tuna profile; crash after N committed insert transactions,",
            "checkpointing disabled so the whole history must be replayed.",
            f"The {PRELOAD_ROWS}-row db is preloaded and checkpointed first;",
            "database pages its NVWAL recovery read as a base, per size: "
            + ", ".join(map(str, base_reads)) + ".",
        ],
    )
