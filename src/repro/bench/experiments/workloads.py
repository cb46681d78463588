"""Workload-suite throughput: mix x scheme x group commit.

Not a paper figure: the paper benchmarks a mobile-app insert trace one
connection at a time.  This experiment runs the workload suite — YCSB
mixes A–F over an indexed table, time-series append+retention, and the
durable queue — across three representative NVWAL schemes with and
without epoch-batched group commit, reporting simulated throughput and
p95 transaction latency per cell.  Every cell runs the full workload
oracle (fold-model read checks, final-state match, page-accounting
integrity, recovery check), so a nonzero violation count fails the
experiment.

``run()`` snapshots the results to ``BENCH_workloads.json`` (a committed
trajectory file like ``BENCH_service.json``); ``report(doc)`` builds the
table from such a document, the CLI's and the docs' alike.
"""

from __future__ import annotations

from repro.bench.harness import parallel_map
from repro.bench.report import Report, Table, write_snapshot
from repro.workloads.runner import WORKLOADS, RunConfig, run_one

SEEDS = (0, 1, 2)
QUICK_SEEDS = (0,)

#: (label, scheme) — the paper's eager baseline plus the two headline
#: NVWAL variants (byte-granularity lazy sync and asynchronous checksum
#: commit, both on the user-level heap with differential logging).
SCHEMES_UNDER_TEST = (
    ("E", "eager"),
    ("LS", "uh_ls_diff"),
    ("CS", "uh_cs_diff"),
)

#: (label, group_epoch) — per-transaction durability vs the coalescer.
GROUP_MODES = (("off", 0), ("on", 4))

def _aggregate(results) -> dict:
    txns = sum(r["txns"] for r in results)
    sim_ns = sum(r["sim_time_ms"] for r in results) * 1_000_000
    return {
        "txns": txns,
        "reads_checked": sum(r["reads_checked"] for r in results),
        "txns_per_sec": round(txns / (sim_ns / 1e9), 1) if sim_ns else 0.0,
        "p95_us": max(r["p95_us"] for r in results),
        "violations": sum(len(r["violations"]) for r in results),
    }


def run(quick: bool = False, jobs: int = 1) -> Report:
    """Throughput + p95 per workload mix x scheme x group commit."""
    seeds = QUICK_SEEDS if quick else SEEDS
    ops = 60 if quick else 140
    cells = [
        (mix, scheme_label, scheme, group_label, epoch)
        for mix in WORKLOADS
        for scheme_label, scheme in SCHEMES_UNDER_TEST
        for group_label, epoch in GROUP_MODES
    ]
    tasks = [
        RunConfig(
            workload=mix, seed=seed, ops=ops, scheme=scheme, group_epoch=epoch
        )
        for (mix, _sl, scheme, _gl, epoch) in cells
        for seed in seeds
    ]
    results = parallel_map(run_one, tasks, jobs=jobs)
    by_cell: dict[tuple, list] = {}
    for r in results:
        by_cell.setdefault(
            (r["workload"], r["scheme"], r["group_epoch"]), []
        ).append(r)

    snapshot: dict = {}
    for mix in WORKLOADS:
        snapshot[mix] = {
            scheme_label: {
                f"group_{group_label}": _aggregate(by_cell[(mix, scheme, epoch)])
                for group_label, epoch in GROUP_MODES
            }
            for scheme_label, scheme in SCHEMES_UNDER_TEST
        }

    doc = {
        "experiment": "workloads",
        "quick": quick,
        "seeds": list(seeds),
        "ops_per_run": ops,
        "group_epoch": dict(GROUP_MODES)["on"],
        "probes": snapshot,
    }
    out_file = write_snapshot("workloads", doc)
    result = report(doc)
    result.notes.append(f"Snapshot written to {out_file}.")
    return result


def report(doc: dict) -> Report:
    """Throughput + p95 per workload mix x scheme x group commit, from a
    ``BENCH_workloads.json`` document."""
    rows = []
    for mix in WORKLOADS:
        for scheme_label, _scheme in SCHEMES_UNDER_TEST:
            cell = doc["probes"][mix][scheme_label]
            off, on = cell["group_off"], cell["group_on"]
            rows.append([
                mix,
                scheme_label,
                off["txns_per_sec"],
                off["p95_us"],
                on["txns_per_sec"],
                on["p95_us"],
                off["violations"] + on["violations"],
            ])
    return Report(
        "workloads",
        "Workload suite: mix x scheme x group commit",
        tables=[
            Table(
                ["mix", "scheme", "txns/s (solo)", "p95 us (solo)",
                 "txns/s (group)", "p95 us (group)", "violations"],
                rows,
            )
        ],
        notes=[
            f"Tuna profile; {len(doc['seeds'])} seed(s) x {doc['ops_per_run']} "
            "ops per run; E = eager, LS = UH+LS+Diff, CS = UH+CS+Diff.",
            f"Group commit closes the shared epoch every {doc['group_epoch']} "
            "transactions.",
            "Violations must be 0: every cell runs fold-model read checks,",
            "page-accounting integrity, and a post-run recovery check.",
        ],
    )
