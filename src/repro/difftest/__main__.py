"""CLI for the differential SQL fuzzer.

Examples::

    # sweep 20 seeds of 100 statements across all four executors
    python -m repro.difftest --seeds 20 --stmts 100 --jobs 4

    # prove the harness catches a planted wrong-result bug
    python -m repro.difftest --seeds 4 --stmts 60 --sabotage

    # replay a recorded failing stream
    python -m repro.difftest --replay difftest-repros/minimized-3.json

Sweep, digest, traces, minimization and exit status are
:mod:`repro.harness`'s; this module declares what is the fuzzer's own.
Its trace documents keep the committed corpus's ``{"statements", "meta"}``
shape, a replay takes its run parameters from the command line, and the
sabotage self-test also has to minimize to at most 5 statements.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from repro import harness
from repro.difftest.grammar import (
    StreamGenerator,
    stream_from_dict,
    stream_to_dict,
)
from repro.difftest.runner import (
    DEFAULT_CHECKPOINT_THRESHOLD,
    STREAM_PASSES,
    Stream,
    run_stream,
)

#: The sabotage self-test must shrink its repro at least this far.
_SABOTAGE_MAX_STMTS = 5


@dataclass(frozen=True)
class DiffTask:
    """One seed's work unit (picklable for the process pool)."""

    seed: int
    stmts: int
    tables: int
    checkpoint_threshold: int
    integrity_every: int
    sabotage: bool


def run_diff_seed(task: DiffTask) -> dict:
    """Generate and run one seed's stream; JSON-safe result for digests."""
    stmts = StreamGenerator(task.seed, max_tables=task.tables).stream(task.stmts)
    findings = run_stream(
        stmts,
        checkpoint_threshold=task.checkpoint_threshold,
        sabotage=task.sabotage,
        integrity_every=task.integrity_every,
    )
    return {
        "seed": task.seed,
        "statements": len(stmts),
        "findings": [
            {
                "kind": f.kind,
                "stmt_index": f.stmt_index,
                "executor": f.executor,
                "detail": f.detail,
            }
            for f in findings
        ],
    }


class DiffHarness(harness.Harness):
    prog = "python -m repro.difftest"
    description = (
        "Differential SQL fuzzer: run generated statement streams through "
        "real SQLite and the repro engine on every WAL backend, in lockstep."
    )
    trace_dir = "difftest-repros"
    sabotage_help = (
        "plant a wrong-result bug in the NVWAL executor's access path; the "
        f"repro must also minimize to <= {_SABOTAGE_MAX_STMTS} statements"
    )
    task_type = DiffTask
    run_task = staticmethod(run_diff_seed)
    passes = STREAM_PASSES

    def __init__(self, args: argparse.Namespace | None = None) -> None:
        #: The invocation's flags: run parameters are not part of a repro
        #: file, so a replay takes them from the command line too.
        self.args = args

    def add_arguments(self, parser) -> None:
        parser.add_argument(
            "--stmts", type=int, default=60, help="statements per stream"
        )
        parser.add_argument(
            "--tables", type=int, default=3, help="max tables per stream"
        )
        parser.add_argument(
            "--checkpoint-threshold",
            type=int,
            default=DEFAULT_CHECKPOINT_THRESHOLD,
            help="WAL frames per checkpoint (small = frequent checkpoints)",
        )
        parser.add_argument(
            "--integrity-every",
            type=int,
            default=8,
            help="statements between structural integrity checks",
        )
        parser.add_argument(
            "--out-dir",
            dest="trace_dir",
            default=argparse.SUPPRESS,
            help="same as --trace-dir",
        )

    def failures(self, result: dict) -> list[dict]:
        if not result["findings"]:
            return []
        args = self.args
        stmts = StreamGenerator(result["seed"], max_tables=args.tables).stream(args.stmts)
        meta = {
            "seed": result["seed"],
            "sabotage": args.sabotage,
            "findings": result["findings"],
        }
        return [stream_to_dict(stmts, meta=meta)]

    def format_result(self, result: dict) -> str:
        lines = [
            f"seed {result['seed']}: {result['statements']} statement(s), "
            f"{len(result['findings'])} finding(s)"
        ]
        for f in result["findings"][:4]:
            where = "end" if f["stmt_index"] is None else f["stmt_index"]
            lines.append(f"  {f['kind']} @ {where} [{f['executor']}]: {f['detail']}")
        return "\n".join(lines)

    def run(self, stream: Stream) -> list[str]:
        findings = run_stream(
            list(stream.stmts),
            checkpoint_threshold=self.args.checkpoint_threshold,
            sabotage=stream.sabotage,
            integrity_every=self.args.integrity_every,
        )
        return [finding.format() for finding in findings]

    def dump(self, stream: Stream, violations: list[str]) -> dict:
        meta = {"seed": stream.seed, "sabotage": stream.sabotage, "findings": violations}
        return stream_to_dict(stream.stmts, meta=meta)

    def load(self, document: dict) -> Stream:
        meta = document.get("meta", {})
        return Stream(
            seed=meta.get("seed", 0),
            stmts=tuple(stream_from_dict(document)),
            sabotage=bool(meta.get("sabotage")) or self.args.sabotage,
        )

    def minimize_and_verify(self, stream: Stream, trace_dir: str):
        small = super().minimize_and_verify(stream, trace_dir)
        if small is None:
            return None
        print(f"minimized: {len(stream.stmts)} -> {len(small.stmts)} statement(s)")
        for stmt in small.stmts:
            print(f"  {stmt.sql}" + (f"  -- params {stmt.params!r}" if stmt.params else ""))
        if stream.sabotage and len(small.stmts) > _SABOTAGE_MAX_STMTS:
            print(f"sabotage self-test FAILED: more than {_SABOTAGE_MAX_STMTS} statements")
            return None
        return small


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog=DiffHarness.prog, description=DiffHarness.description
    )
    harness.add_arguments(DiffHarness(), parser)
    args = parser.parse_args(argv)
    return harness.run(DiffHarness(args), args)


if __name__ == "__main__":
    sys.exit(main())
