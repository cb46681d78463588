"""CLI for the concurrent chaos harness.

Examples::

    # 8 seeds, 6 sessions each, media decay storms + transient IO errors
    python -m repro.service.chaos --seeds 8 --sessions 6 \
        --faults media,io,power --storms 3 --jobs 4

    # prove the oracle catches ack-before-commit (harness self-test)
    python -m repro.service.chaos --seeds 4 --sabotage ack-early

    # replay a recorded failing trace
    python -m repro.service.chaos --replay chaos-traces/minimized-2.json

Sweep, digest, traces, minimization and exit status are
:mod:`repro.harness`'s; this module declares what is the chaos harness's
own.
"""

from __future__ import annotations

import sys

from repro import harness
from repro.service.chaos import (
    CHAOS_WORKLOADS,
    DEFAULT_CHAOS_THRESHOLD,
    FAULT_KINDS,
    ChaosScenario,
    ChaosTask,
    run_chaos,
    run_task,
    scenario_from_dict,
)


class ChaosHarness(harness.Harness):
    prog = "python -m repro.service.chaos"
    description = (
        "Concurrent-service chaos harness: N cooperative client sessions "
        "against one NVWAL database under fault storms, scripted power "
        "cuts, deadlines, and degraded modes, checked against an "
        "acked-transaction oracle."
    )
    trace_dir = "chaos-traces"
    sabotage = {
        "ack-early": "acknowledge clients before the commit is durable "
        "(with --group-commit, before the epoch barrier)",
    }
    task_type = ChaosTask
    run_task = staticmethod(run_task)
    from_json = staticmethod(scenario_from_dict)
    #: Whole dimensions first, one pass each, then fewer power cuts,
    #: then the workload: sessions, then transactions, then operations.
    passes = (
        harness.without(read_every=0),
        harness.without(final_power_cycle=False),
        harness.without(power_cycles=()),
        harness.without(storms=0),
        harness.without(plan=None, storms=0),
        harness.field_lens("power_cycles", min_size=1),
        harness.nested_lens("streams", (1, 0, 1)),
    )

    def add_arguments(self, parser) -> None:
        harness.add_session_flags(parser, txns=40)
        harness.add_scheme_flag(parser)
        harness.add_faults_flag(parser, "power", FAULT_KINDS)
        parser.add_argument(
            "--storms",
            type=int,
            default=0,
            help="runtime NVRAM decay events injected mid-run with no power "
            "loss (requires media faults); each storm re-rolls the media plan",
        )
        parser.add_argument(
            "--power-cycles",
            type=int,
            default=1,
            help="mid-flight power cuts per seed (0 = only the final one)",
        )
        harness.add_checkpoint_flag(parser, DEFAULT_CHAOS_THRESHOLD)
        parser.add_argument(
            "--workload",
            default="mobi",
            choices=list(CHAOS_WORKLOADS),
            help="session stream generator: 'mobi' (free-key insert/update/"
            "delete mix), 'ycsb' (zipfian-skewed hot-key read-write mix), or "
            "'queue' (FIFO enqueue/dequeue streams)",
        )
        parser.add_argument(
            "--group-commit",
            action="store_true",
            help="enable the commit coalescer: writers park in a shared WAL "
            "epoch and a batcher daemon closes it on size/age thresholds; "
            "acks are released only after the epoch barrier",
        )

    def tasks(self, args) -> list:
        if args.storms and "media" not in args.faults:
            raise ValueError(
                "--storms requires media faults (add --faults media,...)"
            )
        return super().tasks(args)

    def format_result(self, result: dict) -> str:
        return (
            f"seed {result['seed']} [{result['scheme']}]: "
            f"{result.get('acked', 0)} acked, {result.get('crashes', 0)} "
            f"crash(es), {result.get('storms', 0)} storm(s), "
            f"{result.get('shed_acked', 0)} shed, "
            f"{len(result.get('violations', []))} violation(s)"
        )

    def run(self, scenario: ChaosScenario):
        return run_chaos(scenario).violations


HARNESS = ChaosHarness()


def main(argv=None) -> int:
    return harness.main(HARNESS, argv)


if __name__ == "__main__":
    sys.exit(main())
