"""The settable surface of the serving stack, pinned.

Every independently settable value doubles what the harnesses and nvbench
would have to cover, so each one here has a caller that sets it.  Adding
a knob must show up as a deliberate edit of this file; cadences nobody
turns are module constants beside their class.
"""

from __future__ import annotations

import dataclasses
import inspect
from functools import partial

from repro import Database, System, tuna
from repro.archive import ArchiveConfig
from repro.bench.mobibench import WorkloadSpec
from repro.db.pager import EARLY_SPLIT_RESERVE
from repro.faults import ShipFaultSpec
from repro.replication import ReplicationConfig, Replicator
from repro.replication.chaos import ReplicationScenario
from repro.retry import call_with_retry
from repro.service import ClientSession, DatabaseService, ServiceConfig
from repro.service.chaos import ChaosScenario
from repro.telemetry.report import render_report
from repro.telemetry.storm import run_storm
from repro.wal.base import WalBackend
from repro.wal.filewal import FileWalBackend
from repro.wal.journal import RollbackJournalBackend
from repro.wal.nvwal import SCHEMES, NvwalBackend
from repro.workloads.core import HotspotSampler, ZipfianSampler
from repro.workloads.ycsb import YcsbWorkload


def fields(config_class) -> list[str]:
    return [f.name for f in dataclasses.fields(config_class)]


def parameters(fn) -> list[str]:
    return [name for name in inspect.signature(fn).parameters if name != "self"]


def test_config_fields_are_exactly_the_ones_with_a_setter():
    assert fields(ServiceConfig) == [
        "group_commit", "breaker_threshold", "breaker_cooldown_ns",
    ]
    assert fields(ReplicationConfig) == [
        "followers", "mode", "scheme", "checkpoint_threshold", "archive",
    ]
    assert fields(ArchiveConfig) == [
        "epochs_per_file", "sync_every", "snapshot_every", "gc_every",
    ]
    assert fields(WorkloadSpec) == [
        "op", "txns", "ops_per_txn", "value_size", "seed", "group_epoch",
    ]


def test_harness_scenarios_carry_only_what_a_sweep_varies():
    """A scenario field is a dimension of a sweep or of its minimizer;
    a cadence every scenario shares is a constant of the driver."""
    assert fields(ChaosScenario) == [
        "seed", "scheme", "streams", "plan", "storms", "power_cycles",
        "checkpoint_threshold", "sabotage", "final_power_cycle",
        "read_every", "group_commit", "workload",
    ]
    assert fields(ReplicationScenario) == [
        "seed", "scheme", "mode", "streams", "followers", "plan",
        "writer_kill_ns", "follower_kills", "sabotage", "group_commit",
    ]
    assert fields(ShipFaultSpec) == [
        "drop_rate", "duplicate_rate", "reorder_rate", "corrupt_rate",
    ]


def test_each_harness_has_one_cli_name():
    """``python -m repro.torture`` is the crash-point sweep; the workload
    suite's CLI only runs workloads."""
    from repro.workloads.__main__ import _build_parser

    [subcommands] = [
        action.choices
        for action in _build_parser()._actions
        if action.dest == "command"
    ]
    assert list(subcommands) == ["run"]


def test_entry_point_parameters_are_exactly_the_ones_with_a_caller():
    assert parameters(run_storm) == [
        "seed", "sessions", "txns_per_session", "followers", "mode",
    ]
    assert parameters(ClientSession.__init__) == [
        "service", "session_id", "deadline_budget_ns",
    ]
    assert parameters(DatabaseService.__init__) == [
        "db", "config", "seed", "on_ack", "on_apply",
    ]
    assert parameters(Replicator.__init__) == [
        "clock", "shiplog", "followers", "mode", "archive", "term",
        "ship_spec", "ship_seed", "on_release", "telemetry",
    ]
    assert parameters(call_with_retry) == ["fn", "rng", "clock", "deadline_ns"]
    assert parameters(YcsbWorkload.__init__) == ["mix", "txn_size"]
    assert parameters(ZipfianSampler.__init__) == ["n"]
    assert parameters(HotspotSampler.__init__) == ["n"]
    assert parameters(render_report) == ["doc"]


def test_archive_cadences_reach_the_cold_store_unrepacked():
    from repro.replication import Cluster

    cadences = ArchiveConfig(epochs_per_file=2, snapshot_every=4, gc_every=2)
    cluster = Cluster(ReplicationConfig(followers=0, archive=cadences), seed=1)
    assert cluster.archive.config is cadences
    assert Cluster(ReplicationConfig(followers=0), seed=1).archive.config == (
        ArchiveConfig()
    )


def test_the_wal_backend_owns_its_files_and_its_page_reserve():
    assert parameters(Database.__init__) == [
        "system", "wal", "name", "auto_checkpoint",
    ]
    assert parameters(WalBackend.bind) == ["fs", "name"]


def test_the_backend_decides_the_early_split_reserve():
    """NVWAL and the optimized file WAL keep Section 5.4's reserve; the
    stock file WAL and the rollback journal log whole pages."""
    table = [
        (name, lambda system, make=make: NvwalBackend(system, make()), EARLY_SPLIT_RESERVE)
        for name, make in SCHEMES.items()
    ] + [
        ("optimized WAL", partial(FileWalBackend, optimized=True), EARLY_SPLIT_RESERVE),
        ("stock WAL", FileWalBackend, 0),
        ("rollback journal", RollbackJournalBackend, 0),
    ]
    for label, make, reserve in table:
        system = System(tuna(), seed=0)
        pager = Database(system, wal=make(system)).pager
        assert pager.usable_size == system.page_size - reserve, label
