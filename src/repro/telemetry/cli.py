"""``python -m repro.telemetry`` — run a seeded storm, render reports.

Subcommands:

``run``
    Run the all-layer telemetry storm for a seed and write the canonical
    export artifact (prints its digest).  Two runs of the same seed
    write byte-identical files.

``report``
    Validate an export artifact and print the plain-text dashboard
    (counters, gauges, histogram quantiles, spans, events, ASCII
    time-series charts).  Exits non-zero when validation fails.
"""

from __future__ import annotations

import argparse
import sys

from repro.harness import add_sessions_flag
from repro.telemetry.export import (
    export_digest,
    load_export,
    validate_export,
    write_export,
)
from repro.telemetry.report import render_report

DEFAULT_ARTIFACT = "telemetry-run.json"


def _cmd_run(args) -> int:
    from repro.telemetry.storm import run_storm

    doc = run_storm(
        seed=args.seed,
        sessions=args.sessions,
        txns_per_session=args.txns,
        followers=args.followers,
        mode=args.mode,
    )
    problems = validate_export(doc)
    if problems:
        for problem in problems:
            print(f"invalid export: {problem}", file=sys.stderr)
        return 1
    write_export(doc, args.out)
    meta = doc["meta"]
    print(
        f"seed={args.seed} acked={meta['acked']} head_seq={meta['head_seq']} "
        f"sim_time_ms={meta['sim_time_ms']}"
    )
    print(f"digest={export_digest(doc)}")
    print(f"wrote {args.out}")
    return 0


def _cmd_report(args) -> int:
    try:
        doc = load_export(args.artifact)
    except (OSError, ValueError) as exc:
        print(f"cannot load {args.artifact}: {exc}", file=sys.stderr)
        return 1
    problems = validate_export(doc)
    if problems:
        for problem in problems:
            print(f"invalid export: {problem}", file=sys.stderr)
        return 1
    try:
        print(render_report(doc))
    except BrokenPipeError:  # report piped into head/less and cut short
        sys.stderr.close()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Deterministic telemetry: seeded storm runs + reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the all-layer storm, write artifact")
    run_p.add_argument("--seed", type=int, default=0)
    add_sessions_flag(run_p, 3)
    run_p.add_argument("--txns", type=int, default=12, help="txns per session")
    run_p.add_argument("--followers", type=int, default=2)
    run_p.add_argument(
        "--mode", default="semisync", choices=("async", "semisync", "sync")
    )
    run_p.add_argument("--out", default=DEFAULT_ARTIFACT)
    run_p.set_defaults(func=_cmd_run)

    report_p = sub.add_parser("report", help="validate + render an artifact")
    report_p.add_argument("artifact", nargs="?", default=DEFAULT_ARTIFACT)
    report_p.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
