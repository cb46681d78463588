"""Experiment plumbing: build systems/databases, run workloads, sweep knobs.

Every :func:`run_workload` is a self-contained, seeded simulation — it
builds its own :class:`System` and never touches global state — so a sweep
over latencies, schemes, or operations is embarrassingly parallel.
:func:`run_tasks` exploits that with a ``ProcessPoolExecutor``: results come
back in task order and are bit-identical to a sequential run (guarded by the
cross-process determinism test), so ``jobs`` only changes wall-clock time,
never output.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.bench.mobibench import Mobibench, RunResult, WorkloadSpec
from repro.config import SystemConfig
from repro.db.database import Database
from repro.system import System
from repro.wal.filewal import FileWalBackend
from repro.wal.journal import RollbackJournalBackend
from repro.wal.nvwal import NvwalBackend, NvwalScheme

#: SQLite's default checkpoint threshold, used unless an experiment says
#: otherwise (Section 5.4 sets it to 1000 dirty WAL frames explicitly).
CHECKPOINT_THRESHOLD = 1000


@dataclass(frozen=True)
class BackendSpec:
    """How to build a WAL backend for one run."""

    kind: str  # "nvwal" | "file" | "journal"
    scheme: NvwalScheme | None = None
    optimized: bool = False
    checkpoint_threshold: int = CHECKPOINT_THRESHOLD

    @property
    def label(self) -> str:
        """Paper-style series label."""
        if self.kind == "nvwal":
            return self.scheme.name
        if self.kind == "journal":
            return "Rollback journal on eMMC"
        return "Optimized WAL on eMMC" if self.optimized else "WAL on eMMC"

    @classmethod
    def nvwal(cls, scheme: NvwalScheme, threshold: int = CHECKPOINT_THRESHOLD):
        """An NVWAL backend with the given scheme."""
        return cls("nvwal", scheme=scheme, checkpoint_threshold=threshold)

    @classmethod
    def file(cls, optimized: bool, threshold: int = CHECKPOINT_THRESHOLD):
        """A file-WAL backend (stock or optimized)."""
        return cls("file", optimized=optimized, checkpoint_threshold=threshold)

    @classmethod
    def journal(cls):
        """The rollback-journal baseline (pre-WAL SQLite)."""
        return cls("journal")


def make_database(
    config: SystemConfig, backend: BackendSpec, seed: int = 0
) -> Database:
    """Fresh system + database wired to the requested WAL backend."""
    system = System(config, seed=seed)
    if backend.kind == "nvwal":
        wal = NvwalBackend(
            system, backend.scheme, checkpoint_threshold=backend.checkpoint_threshold
        )
    elif backend.kind == "journal":
        wal = RollbackJournalBackend(system)
    else:
        wal = FileWalBackend(
            system,
            optimized=backend.optimized,
            checkpoint_threshold=backend.checkpoint_threshold,
        )
    return Database(system, wal=wal)


def run_workload(
    config: SystemConfig,
    backend: BackendSpec,
    spec: WorkloadSpec,
    seed: int = 0,
    setup: Callable[[Database], None] | None = None,
) -> RunResult:
    """Build a fresh database, prepare the workload, run it measured."""
    db = make_database(config, backend, seed=seed)
    bench = Mobibench(db, spec)
    bench.prepare()
    if setup is not None:
        setup(db)
    return bench.run()


@dataclass(frozen=True)
class RunTask:
    """One independent simulation: everything :func:`run_workload` needs.

    Frozen and built from picklable parts (frozen dataclasses, enums,
    ints), so tasks can cross a process boundary.  Note the ``setup``
    callback of :func:`run_workload` is deliberately absent: closures do
    not pickle, and no sweep uses it.
    """

    config: SystemConfig
    backend: BackendSpec
    spec: WorkloadSpec
    seed: int = 0


def _run_task(task: RunTask) -> RunResult:
    """Module-level worker so ``ProcessPoolExecutor`` can pickle it."""
    return run_workload(task.config, task.backend, task.spec, seed=task.seed)


def default_jobs() -> int:
    """Worker count when the caller asks for "parallel" without a number."""
    return max(1, (os.cpu_count() or 1) - 1)


def parallel_map(fn: Callable, items: Sequence | Iterable, jobs: int = 1) -> list:
    """Apply a picklable, module-level ``fn`` to every item, ``jobs`` at a
    time, results in input order.

    ``jobs <= 1`` runs inline (no subprocess overhead, easier debugging);
    anything higher fans out over a process pool.  Callers guarantee ``fn``
    is deterministic per item, so results are identical either way — only
    host wall-clock time changes.  Shared by the benchmark sweeps and the
    torture harness's seed fan-out.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        # Executor.map preserves input order regardless of completion order.
        return list(pool.map(fn, items))


def run_tasks(
    tasks: Sequence[RunTask] | Iterable[RunTask], jobs: int = 1
) -> list[RunResult]:
    """Run every task, ``jobs`` at a time, results in task order."""
    return parallel_map(_run_task, tasks, jobs=jobs)


def sweep_latency(
    base_config: SystemConfig,
    backend: BackendSpec,
    spec: WorkloadSpec,
    latencies_ns: list[int],
    include_checkpoint: bool = False,
    jobs: int = 1,
) -> list[tuple[int, float]]:
    """Throughput at each NVRAM write latency — the Figure 7/9 x-axis.

    With ``jobs > 1`` the latency points run concurrently; the returned
    points are in ``latencies_ns`` order either way.
    """
    tasks = [
        RunTask(base_config.with_nvram_write_latency(latency), backend, spec)
        for latency in latencies_ns
    ]
    results = run_tasks(tasks, jobs=jobs)
    return [
        (latency, result.throughput(include_checkpoint))
        for latency, result in zip(latencies_ns, results)
    ]
