"""CLI for the differential SQL fuzzer.

Examples::

    # sweep 20 seeds of 100 statements across all four executors
    python -m repro.difftest --seeds 20 --stmts 100 --jobs 4

    # prove the harness catches a planted wrong-result bug
    python -m repro.difftest --seeds 4 --stmts 60 --sabotage drop-residual-where

    # replay a recorded failing stream
    python -m repro.difftest --replay difftest-repros/minimized-3.json

Sweep, digest, traces, minimization and exit status are
:mod:`repro.harness`'s; this module declares what is the fuzzer's own.
A trace's scenario is a :class:`~repro.difftest.runner.Stream`: the
statements plus the checkpoint threshold, integrity cadence and planted
bug they ran under, so a replay takes nothing from the command line.
The sabotage self-test also has to minimize to at most 5 statements.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass

from repro import harness
from repro.difftest.grammar import StreamGenerator
from repro.difftest.runner import (
    DEFAULT_CHECKPOINT_THRESHOLD,
    STREAM_PASSES,
    Finding,
    Stream,
    stream_from_json,
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
    sabotage: str

    def stream(self) -> Stream:
        """The seed's generated stream, with the run's parameters."""
        stmts = StreamGenerator(self.seed, max_tables=self.tables).stream(self.stmts)
        return Stream(
            self.seed, tuple(stmts), self.sabotage, self.checkpoint_threshold,
            self.integrity_every,
        )


def run_diff_seed(task: DiffTask) -> dict:
    """Generate and run one seed's stream; JSON-safe result for digests."""
    stream = task.stream()
    return {
        "seed": task.seed,
        "statements": len(stream.stmts),
        "findings": [asdict(finding) for finding in stream.findings()],
    }


class DiffHarness(harness.Harness):
    prog = "python -m repro.difftest"
    description = (
        "Differential SQL fuzzer: run generated statement streams through "
        "real SQLite and the repro engine on every WAL backend, in lockstep."
    )
    trace_dir = "difftest-repros"
    sabotage = {
        "drop-residual-where": "the NVWAL executor's key range replaces the "
        "residual WHERE filter; the repro must also minimize to <= "
        f"{_SABOTAGE_MAX_STMTS} statements",
    }
    task_type = DiffTask
    run_task = staticmethod(run_diff_seed)
    from_json = staticmethod(stream_from_json)
    passes = STREAM_PASSES

    def add_arguments(self, parser) -> None:
        parser.add_argument(
            "--stmts", type=int, default=60, help="statements per stream"
        )
        parser.add_argument(
            "--tables", type=int, default=3, help="max tables per stream"
        )
        harness.add_checkpoint_flag(parser, DEFAULT_CHECKPOINT_THRESHOLD)
        parser.add_argument(
            "--integrity-every",
            type=int,
            default=8,
            help="statements between structural integrity checks",
        )

    def failures(self, task: DiffTask, result: dict) -> list[dict]:
        if not result["findings"]:
            return []
        scenario = harness.to_json(task.stream())
        violations = [Finding(**f).format() for f in result["findings"]]
        return [{"scenario": scenario, "violations": violations}]

    def format_result(self, result: dict) -> str:
        lines = [
            f"seed {result['seed']}: {result['statements']} statement(s), "
            f"{len(result['findings'])} finding(s)"
        ]
        lines += [f"  {Finding(**f).format()}" for f in result["findings"][:4]]
        return "\n".join(lines)

    def run(self, stream: Stream) -> list[str]:
        return [finding.format() for finding in stream.findings()]

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


HARNESS = DiffHarness()


def main(argv=None) -> int:
    return harness.main(HARNESS, argv)


if __name__ == "__main__":
    sys.exit(main())
