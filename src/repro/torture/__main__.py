"""CLI for the crash-consistency torture harness.

Examples::

    # sweep 20 seeds, 30 ops each, media decay on top of power loss
    python -m repro.torture --seeds 20 --ops 30 --faults media,power --jobs 4

    # prove the harness catches a real bug (persist barrier removed)
    python -m repro.torture --seeds 4 --ops 12 --sabotage unflushed-mark

    # crash-point sweep of the durable queue (exactly-once oracle), or of
    # the default mix plus all eight suite workloads
    python -m repro.torture --workload queue --seeds 2 --stride 3
    python -m repro.torture --workload all --seeds 2 --ops 14 --stride 5

    # replay a recorded failing trace
    python -m repro.torture --replay torture-traces/minimized-3.json

Sweep, digest, traces, minimization and exit status are
:mod:`repro.harness`'s; this module declares what is torture's own.
"""

from __future__ import annotations

import sys
from dataclasses import replace

from repro import harness
from repro.faults import MediaFaultSpec
from repro.torture.driver import (
    DEFAULT_TORTURE_THRESHOLD,
    FAULT_KINDS,
    SeedTask,
    TortureScenario,
    run_scenario,
    run_seed,
    scenario_from_dict,
)
from repro.workloads.runner import WORKLOADS

#: What ``--workload all`` sweeps: the default mix plus the suite.
SWEPT = ("mobi", *WORKLOADS)


def _earlier_crash(scenario: TortureScenario):
    """Prefer no crash at all, otherwise the earliest failing op index."""
    if scenario.crash_point > 0:
        yield replace(scenario, crash_point=0, recovery_crash_point=None)
        for k in range(1, scenario.crash_point):
            yield replace(scenario, crash_point=k)


def _earlier_recovery_crash(scenario: TortureScenario):
    if scenario.recovery_crash_point:
        yield replace(scenario, recovery_crash_point=None)
        for r in range(1, scenario.recovery_crash_point):
            yield replace(scenario, recovery_crash_point=r)


def _one_fault_class(scenario: TortureScenario):
    if scenario.plan is not None:
        yield replace(scenario, plan=replace(scenario.plan, io=None))
        yield replace(scenario, plan=replace(scenario.plan, media=None))


def _without_media_fault(field: str):
    def candidates(scenario: TortureScenario):
        plan = scenario.plan
        if plan is None or plan.media is None:
            return
        media = replace(plan.media, **{field: 0})
        # Dropping the last media fault is _one_fault_class's candidate.
        if media != MediaFaultSpec():
            yield replace(scenario, plan=replace(plan, media=media))

    return candidates


class TortureHarness(harness.Harness):
    prog = "python -m repro.torture"
    description = (
        "Crash-consistency torture harness: sweep every crash point, layer "
        "media/IO faults, and check recovery invariants."
    )
    trace_dir = "torture-traces"
    sabotage = {"unflushed-mark": "a backend whose commit mark is never flushed"}
    task_type = SeedTask
    run_task = staticmethod(run_seed)
    from_json = staticmethod(scenario_from_dict)
    #: Shrink in the order that preserves the most meaning: operations,
    #: then the crash points, then the fault set (the whole plan, a whole
    #: fault class, individual fault counts).
    passes = (
        harness.nested_lens("txns", (0, 1)),
        harness.structural(_earlier_crash),
        harness.structural(_earlier_recovery_crash),
        harness.without(plan=None),
        harness.structural(_one_fault_class),
        *(
            harness.structural(_without_media_fault(field))
            for field in ("bit_flips", "stuck_units", "poison_units")
        ),
    )

    def add_arguments(self, parser) -> None:
        parser.add_argument(
            "--workload",
            default="mobi",
            choices=["all", *SWEPT],
            help="workload to sweep (default: mobi, the insert/update/delete "
            "mix; 'all' = mobi plus the eight-workload suite)",
        )
        parser.add_argument(
            "--ops", type=int, default=30, help="workload operations per seed"
        )
        harness.add_txn_size_flag(parser)
        harness.add_faults_flag(parser, "power", FAULT_KINDS)
        harness.add_scheme_flag(parser)
        parser.add_argument(
            "--stride", type=int, default=1, help="crash-point stride (1 = every op)"
        )
        parser.add_argument(
            "--recovery-points",
            type=int,
            default=2,
            help="commit boundaries whose recovery is swept op by op",
        )
        harness.add_checkpoint_flag(parser, DEFAULT_TORTURE_THRESHOLD)
        parser.add_argument(
            "--group-epoch",
            type=int,
            default=0,
            metavar="N",
            help="commit through the WAL group-commit path, closing the "
            "shared epoch every N transactions (0 = per-transaction "
            "durability); the state oracle then only accepts whole-epoch "
            "boundaries",
        )

    def tasks(self, args) -> list:
        names = SWEPT if args.workload == "all" else (args.workload,)
        per_seed = super().tasks(args)
        return [replace(task, workload=name) for name in names for task in per_seed]

    def failures(self, task, result: dict) -> list[dict]:
        return result["failures"]

    def format_result(self, result: dict) -> str:
        return (
            f"{result['workload']} seed {result['seed']} [{result['scheme']}]: "
            f"{result['runs']} crash-point runs, {result['recovery_runs']} "
            f"recovery-crash runs, {result['checkpoints']} checkpoint(s), "
            f"{len(result['failures'])} violation(s)"
        )

    def run(self, scenario: TortureScenario):
        return run_scenario(scenario).violations


HARNESS = TortureHarness()


def main(argv=None) -> int:
    return harness.main(HARNESS, argv)


if __name__ == "__main__":
    sys.exit(main())
