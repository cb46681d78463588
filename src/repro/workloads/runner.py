"""Run one workload end to end on a simulated system and check it.

Every run is a deterministic function of its :class:`RunConfig` (and so
picklable across ``parallel_map`` workers): build the simulated system,
execute the seeded transaction script with inline read checks against
the fold model, then close with the full correctness gauntlet —

* final rows must equal the model fold;
* :meth:`Database.check_integrity` must pass: B-tree invariants,
  secondary-index/table agreement, and exact page accounting (header +
  tree pages + overflow chains + freelist partition ``1..n_pages``);
* a power cycle must recover to the same rows, and integrity must hold
  again on the recovered image;
* for the queue workload, delivered + recovered-pending message ids
  must partition the enqueued ids (exactly-once accounting).

Latency per transaction is simulated time (the system clock), so the
reported throughput and p95 are device-model numbers, not host noise.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import tuna
from repro.db.database import Database
from repro.errors import DatabaseError
from repro.system import System
from repro.wal.nvwal import SCHEMES, NvwalBackend
from repro.workloads.core import (
    Workload,
    apply_txn,
    apply_txn_grouped,
    db_state,
)
from repro.workloads.mobi import MobiWorkload
from repro.workloads.queue import QueueWorkload
from repro.workloads.timeseries import TimeSeriesWorkload
from repro.workloads.ycsb import YcsbWorkload

#: Checkpoint threshold for workload runs: small enough that every run
#: crosses several checkpoints.
DEFAULT_WORKLOAD_THRESHOLD = 24

WORKLOADS = (
    "ycsb-a",
    "ycsb-b",
    "ycsb-c",
    "ycsb-d",
    "ycsb-e",
    "ycsb-f",
    "timeseries",
    "queue",
)


def make_workload(name: str, txn_size: int = 3) -> Workload:
    """Instantiate a workload by its registry name: one of the
    :data:`WORKLOADS` suite, or ``mobi`` (the crash sweep's default mix,
    not part of the suite ``workloads run`` and the bench iterate)."""
    if name.startswith("ycsb-"):
        return YcsbWorkload(mix=name.split("-", 1)[1], txn_size=txn_size)
    if name == "timeseries":
        return TimeSeriesWorkload(txn_size)
    if name == "queue":
        return QueueWorkload(txn_size)
    if name == "mobi":
        return MobiWorkload(txn_size)
    raise ValueError(
        f"unknown workload {name!r}; pick from {('mobi', *WORKLOADS)}"
    )


@dataclass(frozen=True)
class RunConfig:
    """One reproducible workload run (picklable for parallel_map)."""

    workload: str
    seed: int
    ops: int
    scheme: str
    group_epoch: int = 0
    checkpoint_threshold: int = DEFAULT_WORKLOAD_THRESHOLD


def _build_db(system: System, config: RunConfig) -> Database:
    wal = NvwalBackend(
        system,
        SCHEMES[config.scheme](),
        checkpoint_threshold=config.checkpoint_threshold,
    )
    return Database(system, wal=wal, name=f"{config.workload}.db")


def _percentile(sorted_values: list[int], fraction: float) -> int:
    if not sorted_values:
        return 0
    return sorted_values[int(fraction * (len(sorted_values) - 1))]


def run_one(config: RunConfig) -> dict:
    """Execute one configured run; returns a JSON-able result record."""
    if config.scheme not in SCHEMES:
        raise ValueError(
            f"unknown scheme {config.scheme!r}; pick from {sorted(SCHEMES)}"
        )
    workload = make_workload(config.workload)
    txns = workload.generate_txns(config.seed, config.ops)
    system = System(tuna(), seed=config.seed)
    db = _build_db(system, config)
    violations: list[str] = []

    for sql in workload.setup_sql():
        db.execute(sql)

    model = workload.initial_model()
    latencies: list[int] = []
    txn_hist = system.telemetry.histogram("workload.txn_ns")
    reads = 0
    start_ns = system.clock.now_ns
    for i, txn in enumerate(txns):
        txn_start = system.clock.now_ns
        if config.group_epoch > 0:
            violations.extend(apply_txn_grouped(workload, db, txn, model))
            if (i + 1) % config.group_epoch == 0:
                db.flush_group()
        else:
            violations.extend(apply_txn(workload, db, txn, model))
        latencies.append(system.clock.now_ns - txn_start)
        txn_hist.observe(int(system.clock.now_ns - txn_start))
        reads += sum(
            1 for op in txn if workload.expected_read(model, op) is not None
        )
    if config.group_epoch > 0:
        db.flush_group()
    elapsed_ns = system.clock.now_ns - start_ns

    expected_rows = workload.model_rows(model)
    if workload.db_rows(db) != expected_rows:
        violations.append(
            f"state: final rows do not match the {workload.name} model fold"
        )
    try:
        db.check_integrity()
    except DatabaseError as exc:
        violations.append(f"integrity: {exc}")

    # Recoverability: the run's final state must survive a power cycle,
    # and the recovered image must pass the same integrity gauntlet.
    # Checkpoint first: checksum-committed schemes may legitimately shed
    # the asynchronous WAL tail on power loss, but never checkpointed
    # pages — after an explicit checkpoint, exact recovery is required
    # of every scheme.  (The torture sweep covers the un-checkpointed
    # crash matrix with its boundary oracle.)
    db.checkpoint()
    system.power_fail()
    system.reboot()
    db = _build_db(system, config)
    if db_state(workload, db) != ("rows", expected_rows):
        violations.append(
            "recovery: rows after a clean-run power cycle do not match "
            "the committed state"
        )
    try:
        db.check_integrity()
    except DatabaseError as exc:
        violations.append(f"integrity after recovery: {exc}")

    if isinstance(workload, QueueWorkload):
        violations.extend(_check_queue_accounting(workload, db, model, txns))

    op_count = sum(len(txn) for txn in txns)
    latencies.sort()
    return {
        "workload": config.workload,
        "seed": config.seed,
        "scheme": config.scheme,
        "group_epoch": config.group_epoch,
        "txns": len(txns),
        "ops": op_count,
        "reads_checked": reads,
        "rows_final": len(expected_rows),
        "sim_time_ms": elapsed_ns // 1_000_000,
        "txns_per_sec": (
            round(len(txns) / (elapsed_ns / 1e9), 1) if elapsed_ns else 0.0
        ),
        "p50_us": _percentile(latencies, 0.50) // 1_000,
        "p95_us": _percentile(latencies, 0.95) // 1_000,
        "violations": violations,
    }


def _check_queue_accounting(
    workload: QueueWorkload, db, model: dict, txns
) -> list[str]:
    """Exactly-once accounting: delivered + still-pending must partition
    the enqueued ids, with no overlap and nothing unaccounted for."""
    enqueued = {
        op[1] for txn in txns for op in txn if op[0] == "enq"
    }
    delivered = {i for i, _item in model["delivered"]}
    pending = {row[0] for row in workload.db_rows(db)}
    violations = []
    if delivered & pending:
        violations.append(
            f"queue: id(s) {sorted(delivered & pending)} both delivered "
            "and still pending (double delivery)"
        )
    unaccounted = enqueued - delivered - pending
    if unaccounted:
        violations.append(
            f"queue: id(s) {sorted(unaccounted)} enqueued but neither "
            "delivered nor pending (lost message)"
        )
    phantom = (delivered | pending) - enqueued
    if phantom:
        violations.append(
            f"queue: id(s) {sorted(phantom)} appeared without being "
            "enqueued"
        )
    return violations
