"""Service throughput under fault storms.

Not a paper figure: the paper benchmarks one connection at a time.  This
experiment measures what the NVWAL design claims to enable (Section 4's
persist-ordering argument): a single-writer/multi-reader service keeping
its acknowledgement rate up while transient IO errors, NVRAM decay
storms, and power cycles land mid-flight.  Throughput is simulated-time
transactions per second; the robustness columns count what the service
had to absorb to get there.  Every cell is a deterministic function of
the seed list, and the oracle runs in every cell — a nonzero violation
count fails the experiment.

``run()`` measures and snapshots the results to ``BENCH_service.json``
(a committed trajectory file); ``report(doc)`` builds the table from such
a document, so the CLI and the docs rendered from the tracked file
(:mod:`repro.bench.docs`) show the same table.
"""

from __future__ import annotations

from repro.bench.harness import parallel_map
from repro.bench.report import Report, Table, write_snapshot
from repro.service.chaos import ChaosTask, run_task
from repro.telemetry.metrics import Histogram

SEEDS = (0, 1, 2, 3)
QUICK_SEEDS = (0, 1)

#: (label, faults, storms, power_cycles)
CONFIGS = (
    ("clean", ("power",), 0, 0),
    ("power cycles", ("power",), 0, 2),
    ("media storms", ("power", "media"), 2, 1),
    ("full storm", ("power", "media", "io"), 2, 1),
)

def _merge_metrics(results) -> dict:
    """Fold per-seed telemetry snapshots into one metrics section.

    Counters add, gauges keep the per-seed maximum (they are point-in-time
    occupancy readings), and histograms merge bucket-by-bucket — the merge
    is associative, so the result is independent of seed order.
    """
    counters: dict = {}
    gauges: dict = {}
    hists: dict = {}
    for r in results:
        telemetry = r.get("telemetry") or {}
        if not telemetry.get("enabled"):
            continue
        for name, value in telemetry["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name, value in telemetry["gauges"].items():
            gauges[name] = max(gauges.get(name, 0), value)
        for name, snap in telemetry["histograms"].items():
            merged = Histogram.from_snapshot(name, snap)
            if name in hists:
                hists[name].merge_from(merged)
            else:
                hists[name] = merged
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": {
            name: {
                "count": h.total,
                "max": h.max,
                "p50": h.quantile(50),
                "p95": h.quantile(95),
                "p99": h.quantile(99),
            }
            for name, h in sorted(hists.items())
        },
    }


def _aggregate(results) -> dict:
    acked = sum(r["acked"] for r in results)
    sim_ns = sum(r["sim_time_ms"] for r in results) * 1_000_000
    stats_keys = (
        "busy_waits", "busy_timeouts", "deadline_misses", "io_retries",
        "demotions", "promotions", "reads_served",
    )
    agg = {k: sum(r["stats"].get(k, 0) for r in results) for k in stats_keys}
    agg["acked"] = acked
    agg["crashes"] = sum(r["crashes"] for r in results)
    agg["violations"] = sum(len(r["violations"]) for r in results)
    agg["txns_per_sec"] = round(acked / (sim_ns / 1e9), 1) if sim_ns else 0.0
    agg["metrics"] = _merge_metrics(results)
    return agg


def run(quick: bool = False, jobs: int = 1) -> Report:
    """Measure every fault configuration, snapshot, and report."""
    seeds = QUICK_SEEDS if quick else SEEDS
    txns = 60 if quick else 160
    sessions = 4 if quick else 8
    snapshot = {}
    for label, faults, storms, cycles in CONFIGS:
        tasks = [
            ChaosTask(
                seed=seed, sessions=sessions, txns=txns, scheme="uh_ls_diff",
                faults=faults, storms=storms, power_cycles=cycles,
            )
            for seed in seeds
        ]
        snapshot[label] = _aggregate(parallel_map(run_task, tasks, jobs=jobs))
    doc = {
        "experiment": "service_storm",
        "quick": quick,
        "seeds": list(seeds),
        "sessions": sessions,
        "txns_per_seed": txns,
        "configs": snapshot,
    }
    out_file = write_snapshot("service", doc)
    result = report(doc)
    result.notes.append(f"Snapshot written to {out_file}.")
    return result


def report(doc: dict) -> Report:
    """Throughput + robustness counters per fault configuration, from a
    ``BENCH_service.json`` document."""
    rows = []
    for label, *_ in CONFIGS:
        agg = doc["configs"][label]
        rows.append([
            # txns/s as the snapshot rounds it, not to the integer
            label, f"{agg['txns_per_sec']:.1f}", agg["acked"], agg["crashes"],
            agg["busy_waits"], agg["deadline_misses"],
            agg["demotions"], agg["promotions"], agg["violations"],
        ])
    return Report(
        "service_storm",
        "Concurrent service throughput under fault storms",
        tables=[
            Table(
                ["faults", "txns/s (sim)", "acked", "crashes", "busy waits",
                 "deadline misses", "demotions", "promotions", "violations"],
                rows,
            )
        ],
        notes=[
            f"Tuna profile; {doc['sessions']} sessions x {len(doc['seeds'])} "
            f"seeds, {doc['txns_per_seed']} txns/seed, NVWAL UH+LS+Diff.",
            "Violations must be 0: the chaos oracle (ack durability,",
            "read freshness, liveness) runs inside every cell.",
        ],
    )
