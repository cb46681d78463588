"""CLI for the workload suite.

Examples::

    # every workload on the default scheme rotation, 4 seeds each
    python -m repro.workloads run --seeds 4 --jobs 4

    # one YCSB mix under group commit on the checksum scheme
    python -m repro.workloads run --workload ycsb-a --scheme uh_cs_diff \
        --group-epoch 4

Exit status: 0 for a clean sweep, 1 when any oracle was violated.  The
digest line is a SHA-256 over canonical JSON results and is
bit-identical for any ``--jobs`` value.  The crash-point sweep of these
workloads is ``python -m repro.torture --workload NAME``.
"""

from __future__ import annotations

import argparse
import sys

from repro import harness
from repro.bench.harness import parallel_map
from repro.workloads.runner import (
    DEFAULT_WORKLOAD_THRESHOLD,
    WORKLOADS,
    RunConfig,
    run_one,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads",
        description="Seeded workload suite (YCSB mixes, time-series, "
        "durable queue) over the NVWAL database, with fold-model read "
        "checks and page-accounting integrity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute workloads and check oracles")
    run_p.add_argument(
        "--workload",
        default="all",
        choices=["all", *WORKLOADS],
        help="workload name (default: all)",
    )
    run_p.add_argument("--seeds", type=int, default=4, help="seeds 0..N-1")
    run_p.add_argument("--ops", type=int, default=120, help="ops per run")
    harness.add_scheme_flag(run_p)
    run_p.add_argument(
        "--group-epoch",
        type=int,
        default=0,
        help="commit through the group-commit epoch, closing it every N "
        "transactions (0 = per-transaction durability)",
    )
    harness.add_checkpoint_flag(run_p, DEFAULT_WORKLOAD_THRESHOLD)
    run_p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    return parser


def _cmd_run(args) -> int:
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    tasks = [
        RunConfig(
            workload=name,
            seed=seed,
            ops=args.ops,
            scheme=harness.rotated(args.scheme, seed),
            group_epoch=args.group_epoch,
            checkpoint_threshold=args.checkpoint_threshold,
        )
        for name in names
        for seed in range(args.seeds)
    ]
    print(
        f"workloads: {len(names)} workload(s) x {args.seeds} seed(s), "
        f"{args.ops} ops, scheme={args.scheme}, "
        f"group_epoch={args.group_epoch}, jobs={args.jobs}"
    )
    results = parallel_map(run_one, tasks, jobs=args.jobs)
    bad = 0
    for r in results:
        bad += len(r["violations"])
        print(
            f"{r['workload']} seed {r['seed']} [{r['scheme']}]: "
            f"{r['txns']} txn(s), {r['reads_checked']} read(s) checked, "
            f"{r['txns_per_sec']} txns/s sim, p95 {r['p95_us']} us, "
            f"{len(r['violations'])} violation(s)"
        )
        for violation in r["violations"]:
            print(f"  {violation}")
    print(f"result digest: sha256:{harness.digest(results)}")
    return 1 if bad else 0


def main(argv=None) -> int:
    return _cmd_run(_build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
