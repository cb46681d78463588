"""CLI for the replication chaos harness.

Examples::

    # 6 seeds, rotating scheme x durability mode, channel storms + failover
    python -m repro.replication --seeds 6 --writer-kill --jobs 4

    # follower churn without failover, sync mode only
    python -m repro.replication --seeds 4 --mode sync --follower-kills 2

    # prove the oracle catches a torn segment past the integrity check
    python -m repro.replication --seeds 3 --sabotage torn

    # prove the GC oracle catches a cold store trimming live segments
    python -m repro.replication --seeds 3 --sabotage gc --writer-kill

    # replay a recorded failing trace
    python -m repro.replication --replay replication-traces/minimized-1.json

Sweep, digest, traces, minimization and exit status are
:mod:`repro.harness`'s; this module declares what is the replication
harness's own.
"""

from __future__ import annotations

import sys
from dataclasses import replace

from repro import harness
from repro.replication.chaos import (
    FAULT_KINDS,
    MODE_ROTATION,
    ROTATION,
    ReplicationScenario,
    ReplicationTask,
    run_replication_chaos,
    scenario_from_dict,
)
from repro.replication.ship import MODES
from repro.service.chaos import run_task


def _one_follower(scenario: ReplicationScenario):
    # A scripted kill names its follower by index; only a kill-free
    # scenario can lose a follower without rewriting the script.
    if scenario.followers > 1 and not scenario.follower_kills:
        yield replace(scenario, followers=1)


class ReplicationHarness(harness.Harness):
    prog = "python -m repro.replication"
    description = (
        "Replication chaos harness: a primary service ships sealed WAL "
        "epochs to follower machines over a fault-injected channel, with "
        "scripted writer/follower power cuts, failover promotion, and a "
        "replication-consistency oracle."
    )
    trace_dir = "replication-traces"
    seeds = 6
    sabotage = {
        "torn": "ship one deliberately torn segment past unverifying followers",
        "gc": "trim the archive past the follower fleet's durable cursor, so "
        "a reseed after failover comes up short",
    }
    task_type = ReplicationTask
    run_task = staticmethod(run_task)
    from_json = staticmethod(scenario_from_dict)
    #: Whole dimensions first, one pass each, then fewer scripted kills,
    #: then the workload: sessions, then transactions, then operations.
    #: The fault plan goes last of the dimensions: a torn-segment failure
    #: keeps failing without it, but with it (and unverifying followers)
    #: the workload below can shrink all the way to zero operations.
    passes = (
        harness.without(group_commit=False),
        harness.without(writer_kill_ns=0),
        harness.without(follower_kills=()),
        harness.structural(_one_follower),
        harness.without(plan=None),
        harness.field_lens("follower_kills", min_size=1),
        harness.nested_lens("streams", (1, 0, 1)),
    )

    def add_arguments(self, parser) -> None:
        harness.add_session_flags(parser, txns=36)
        harness.add_scheme_flag(parser, ROTATION)
        parser.add_argument(
            "--mode",
            default="rotate",
            choices=["rotate", *MODES],
            help="replication durability mode; 'rotate' cycles %s by seed"
            % (MODE_ROTATION,),
        )
        parser.add_argument(
            "--followers", type=int, default=2, help="follower machines"
        )
        harness.add_faults_flag(parser, ",".join(FAULT_KINDS), FAULT_KINDS)
        parser.add_argument(
            "--writer-kill",
            action="store_true",
            help="power-fail the primary mid-run and fail over to the "
            "longest-prefix follower",
        )
        parser.add_argument(
            "--follower-kills",
            type=int,
            default=0,
            help="scripted follower power cuts (most restart mid-run)",
        )
        parser.add_argument(
            "--no-group-commit",
            dest="group_commit",
            action="store_false",
            help="ship per-transaction instead of per group-commit epoch",
        )

    def format_result(self, result: dict) -> str:
        failover = result.get("failover_ms")
        return (
            f"seed {result['seed']} [{result['scheme']}/{result['mode']}]: "
            f"{result.get('acked', 0)} acked, "
            f"{result.get('sealed', 0)} sealed, "
            f"{result.get('follower_reads', 0)} replica read(s), "
            f"{result.get('promotions', 0)} promotion(s)"
            + (f", failover {failover:.2f} ms" if failover else "")
            + f", {len(result.get('violations', []))} violation(s)"
        )

    def run(self, scenario: ReplicationScenario):
        return run_replication_chaos(scenario).violations


HARNESS = ReplicationHarness()


def main(argv=None) -> int:
    return harness.main(HARNESS, argv)


if __name__ == "__main__":
    sys.exit(main())
