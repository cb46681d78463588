"""Replication lag and failover time per durability mode.

Not a paper figure: NVWAL itself is single-node.  This experiment
measures what the log-shipping layer (:mod:`repro.replication`) costs
and promises on top of it, per durability mode:

* **replication lag** — seal-to-apply delay of each shipped epoch on
  each follower (mean / p95 / max, microseconds of simulated time);
* **failover time** — primary power cut to promoted-follower ready,
  plus the delay until the first post-failover acknowledgement;
* **cold-store probes** — how many follower reseeds the archived
  segments on disk served, how much the archive GC reclaimed, and the
  in-memory shipping-log high-water mark the archive keeps bounded.

Every cell runs the full replication-consistency oracle under channel
storms (drop/duplicate/reorder/corrupt) with a scripted writer kill —
a nonzero violation count fails the experiment.  ``run()`` snapshots
the results to ``BENCH_replication.json``; ``report(doc)`` builds the
table from such a document, the CLI's and the docs' alike.
"""

from __future__ import annotations

from repro.bench.harness import parallel_map
from repro.bench.report import Report, Table, write_snapshot
from repro.replication.chaos import ReplicationTask
from repro.replication.ship import MODES
from repro.service.chaos import run_task

SEEDS = (0, 1, 2, 3)
QUICK_SEEDS = (0, 1)

def _aggregate(results) -> dict:
    acked = sum(r["acked"] for r in results)
    samples = sum(r["lag_samples"] for r in results)
    weighted = sum(r["lag_mean_us"] * r["lag_samples"] for r in results)
    failovers = [r["failover_ms"] for r in results if r["failover_ms"]]
    first_acks = [
        r["first_ack_after_failover_ms"]
        for r in results
        if r["first_ack_after_failover_ms"]
    ]
    return {
        "acked": acked,
        "sealed": sum(r["sealed"] for r in results),
        "promotions": sum(r["promotions"] for r in results),
        "ship_faults": sum(
            sum(r["ship_faults"].values()) for r in results
        ),
        "lag_samples": samples,
        "lag_mean_us": round(weighted / samples, 1) if samples else 0.0,
        "lag_p95_us": round(max(r["lag_p95_us"] for r in results), 1),
        "lag_max_us": round(max(r["lag_max_us"] for r in results), 1),
        "failover_ms": round(max(failovers), 3) if failovers else 0.0,
        "first_ack_after_failover_ms": round(max(first_acks), 3)
        if first_acks
        else 0.0,
        "violations": sum(len(r["violations"]) for r in results),
    } | _archive_probes(results)


def _archive_probes(results) -> dict:
    """Cold-store aggregates across one mode's seeds."""
    archives = [r["archive"] for r in results]
    return {
        "reseeds_from_archive": sum(
            a["reseeds_from_archive"] for a in archives
        ),
        "archive_gc_segments": sum(a["gc_segments"] for a in archives),
        "archive_gc_bytes": sum(a["gc_bytes"] for a in archives),
        "archive_bytes": sum(a["bytes"] for a in archives),
        "archive_io_faults": sum(a["io_faults"] for a in archives),
        "peak_log_entries": max(
            (a["peak_log_entries"] for a in archives), default=0
        ),
    }


def run(quick: bool = False, jobs: int = 1) -> Report:
    """Measure every durability mode, snapshot, and report."""
    seeds = QUICK_SEEDS if quick else SEEDS
    txns = 24 if quick else 48
    sessions = 3 if quick else 4
    snapshot = {}
    for mode in MODES:
        tasks = [
            ReplicationTask(
                seed=seed,
                sessions=sessions,
                txns=txns,
                scheme="uh_ls_diff",
                mode=mode,
                writer_kill=True,
                follower_kills=1,
            )
            for seed in seeds
        ]
        snapshot[mode] = _aggregate(parallel_map(run_task, tasks, jobs=jobs))
    doc = {
        "experiment": "replication",
        "quick": quick,
        "seeds": list(seeds),
        "sessions": sessions,
        "txns_per_seed": txns,
        "modes": snapshot,
    }
    out_file = write_snapshot("replication", doc)
    result = report(doc)
    result.notes.append(f"Snapshot written to {out_file}.")
    return result


def report(doc: dict) -> Report:
    """Replication lag + failover probes per durability mode, from a
    ``BENCH_replication.json`` document."""
    rows = []
    for mode in MODES:
        agg = doc["modes"][mode]
        rows.append([
            mode, agg["acked"], agg["promotions"], agg["ship_faults"],
            agg["lag_mean_us"], agg["lag_p95_us"], agg["failover_ms"],
            agg["first_ack_after_failover_ms"],
            agg["reseeds_from_archive"],
            agg["archive_gc_segments"], agg["peak_log_entries"],
            agg["violations"],
        ])
    return Report(
        "replication",
        "Log-shipping replication lag and failover time per durability mode",
        tables=[
            Table(
                ["mode", "acked", "promotions", "ship faults",
                 "lag mean (us)", "lag p95 (us)", "failover (ms)",
                 "first ack after failover (ms)", "reseeds from disk",
                 "gc segs", "log peak", "violations"],
                rows,
            )
        ],
        notes=[
            f"Tuna profile; {doc['sessions']} sessions x {len(doc['seeds'])} "
            f"seeds, {doc['txns_per_seed']} txns/seed, NVWAL UH+LS+Diff, "
            "2 followers.",
            "Channel storm (drop/dup/reorder/corrupt) + cold-store I/O",
            "faults + writer kill + one follower kill in every cell; the",
            "replication oracle must report 0 violations.",
            "Reseeds from disk: follower resets served from the archived",
            "floor snapshot + segment files.",
        ],
    )
