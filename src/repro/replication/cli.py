"""CLI for the replication chaos harness.

Examples::

    # 6 seeds, rotating scheme x durability mode, channel storms + failover
    python -m repro.replication --seeds 6 --writer-kill --jobs 4

    # follower churn without failover, sync mode only
    python -m repro.replication --seeds 4 --mode sync --follower-kills 2

    # prove the oracle catches a torn segment past the integrity check
    python -m repro.replication --seeds 3 --sabotage

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
    MODE_ROTATION,
    ROTATION,
    SABOTAGE_KINDS,
    ReplicationScenario,
    ReplicationTask,
    run_replication_chaos,
    scenario_from_dict,
)
from repro.replication.ship import MODES
from repro.service.chaos import run_task
from repro.torture.driver import add_scheme_flag, comma_list


def _one_dimension_less(scenario: ReplicationScenario):
    """The scenario as recorded minus one whole dimension; first hit wins.

    The fault plan goes last: a torn-segment failure keeps failing
    without it, but with it (and unverifying followers) the workload
    below can shrink all the way to zero operations.
    """
    yield replace(scenario, group_commit=False)
    # A scripted kill names its follower by index; only a kill-free
    # scenario can lose a follower without rewriting the script.
    if scenario.followers > 1 and not scenario.follower_kills:
        yield replace(scenario, followers=1)
    yield replace(scenario, writer_kill_ns=0)
    yield replace(scenario, follower_kills=())
    yield replace(scenario, plan=None)


def _fault_kinds(flag: str) -> tuple:
    """``--faults``: a comma list, or ``none`` for a clean run."""
    return tuple(k for k in comma_list(flag) if k != "none")


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
    task_type = ReplicationTask
    run_task = staticmethod(run_task)
    from_json = staticmethod(scenario_from_dict)
    #: One whole dimension first, then fewer scripted kills, then the
    #: workload: sessions, then transactions, then operations.
    passes = (
        harness.structural(_one_dimension_less),
        harness.field_lens("follower_kills", min_size=1),
        harness.nested_lens("streams", (1, 0, 1)),
    )

    def add_arguments(self, parser) -> None:
        parser.add_argument(
            "--sessions", type=int, default=4, help="concurrent client sessions"
        )
        parser.add_argument(
            "--txns", type=int, default=36, help="total transactions across sessions"
        )
        parser.add_argument(
            "--txn-size", type=int, default=3, help="max ops per transaction"
        )
        add_scheme_flag(parser, ROTATION)
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
        parser.add_argument(
            "--faults",
            type=_fault_kinds,
            default="drop,dup,reorder,corrupt,archive",
            help="comma list of faults: drop,dup,reorder,corrupt on the "
            "shipping channel, 'archive' for transient I/O errors on the "
            "cold-store volume ('none' for a clean run)",
        )
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
        kinds = SABOTAGE_KINDS[1:]
        parser.add_argument(
            "--sabotage",
            nargs="?",
            const=kinds[0],
            default="",
            choices=kinds,
            help="self-test: 'torn' (the bare-flag default) ships one "
            "deliberately torn segment past unverifying followers; 'gc' makes "
            "the archive trim past the follower fleet's durable cursor, so "
            "a reseed after failover comes up short; the sweep must find, "
            "minimize, and deterministically replay the planted bug",
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
