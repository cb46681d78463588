"""Each instrumented layer actually populates its instruments."""

from __future__ import annotations

from repro.config import tuna
from repro.db.database import Database
from repro.replication.cluster import Cluster, ReplicationConfig
from repro.service.sched import Scheduler
from repro.service.server import DatabaseService, ServiceConfig
from repro.system import System
from repro.telemetry.export import validate_export
from repro.telemetry.report import render_report
from repro.telemetry.storm import run_storm
from repro.wal.nvwal import SCHEMES, NvwalBackend
from repro.workloads.mobi import TABLE
from repro.workloads.runner import RunConfig, run_one


def _service_system(group_commit: bool = True):
    system = System(tuna(), seed=0)
    wal = NvwalBackend(
        system, SCHEMES["uh_ls_diff"](), checkpoint_threshold=16
    )
    db = Database(system, wal=wal, name="svc.db")
    db.execute(f"CREATE TABLE {TABLE} (k INTEGER PRIMARY KEY, v TEXT)")
    service = DatabaseService(
        db, ServiceConfig(group_commit=group_commit), seed=0
    )
    return system, service


def _drive(service, system, txns):
    scheduler = Scheduler(system.clock)
    for i, ops in enumerate(txns):
        scheduler.spawn(f"c{i}", service.submit_txn(f"c{i}", ops))
    if service.config.group_commit:
        scheduler.spawn("batcher", service.commit_batcher(), daemon=True)
    scheduler.run()


def test_service_layer_metrics_populate():
    system, service = _service_system()
    _drive(
        service,
        system,
        [[("insert", i, f"v{i}")] for i in range(6)],
    )
    snap = system.telemetry.snapshot()
    assert snap["counters"]["service.txns_acked"] == 6
    hists = snap["histograms"]
    assert hists["service.commit_latency_ns"]["count"] == 6
    assert hists["service.admission_wait_ns"]["count"] == 6
    assert hists["service.epoch_txns"]["count"] >= 1
    assert hists["service.barrier_wait_ns"]["count"] == 6
    # Spans: one txn root + admission + commit per transaction.
    spans = system.telemetry.tracer.snapshot()
    assert spans["by_name"]["txn"]["count"] == 6
    assert spans["by_name"]["admission"]["count"] == 6
    assert spans["by_name"]["commit"]["count"] == 6


def test_wal_layer_metrics_populate():
    system, service = _service_system(group_commit=False)
    _drive(
        service,
        system,
        [[("insert", i, "x" * 40)] for i in range(8)],
    )
    service.checkpoint_now()
    snap = system.telemetry.snapshot()
    assert snap["counters"]["wal.checkpoints"] >= 1
    assert snap["histograms"]["wal.checkpoint_ns"]["count"] >= 1
    assert "wal.frames" in snap["gauges"]
    assert "wal.log_bytes" in snap["gauges"]
    # After the explicit checkpoint the log occupancy gauge reads empty.
    assert snap["gauges"]["wal.frames"] == 0


def test_occupancy_gauges_follow_the_log_and_appear_on_first_commit():
    """``wal.log_bytes`` is the running block total (equal to the sum over
    the block list through commits, a checkpoint and a recovery); a backend
    that never commits registers no gauge, and one that does not count log
    bytes registers only ``wal.frames``."""
    from repro.wal.filewal import FileWalBackend

    system = System(tuna(), seed=0)
    wal = NvwalBackend(system, SCHEMES["ls"](), checkpoint_threshold=1000)
    db = Database(system, wal=wal, name="occ.db")
    assert system.telemetry.snapshot()["gauges"] == {}

    def held():
        return sum(alloc.size for alloc in wal.userheap.blocks)

    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
    for i in range(12):
        db.execute("INSERT INTO t VALUES (?, ?)", (i, "x" * 300))
        gauges = system.telemetry.snapshot()["gauges"]
        assert gauges["wal.log_bytes"] == held() > 0
        assert gauges["wal.frames"] == wal.frame_count()
    wal.recover()
    assert wal.log_bytes_in_use() == held() > 0
    db.checkpoint()
    assert system.telemetry.snapshot()["gauges"]["wal.log_bytes"] == held() == 0

    other = System(tuna(), seed=0)
    file_db = Database(other, wal=FileWalBackend(other), name="occ.db")
    file_db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
    assert set(other.telemetry.snapshot()["gauges"]) == {"wal.frames"}


def test_replication_layer_metrics_populate():
    cluster = Cluster(
        ReplicationConfig(followers=2, mode="semisync"), seed=0
    )
    service = cluster.start_service(ServiceConfig(), seed=0)
    scheduler = Scheduler(cluster.clock)
    for i in range(4):
        scheduler.spawn(
            f"c{i}", service.submit_txn(f"c{i}", [("insert", i, f"v{i}")])
        )
    scheduler.spawn("repl", cluster.replicator.daemon(), daemon=True)
    scheduler.run()
    snap = cluster.primary_system.telemetry.snapshot()
    assert snap["counters"]["repl.sends"] > 0
    assert snap["histograms"]["repl.lag_ns"]["count"] > 0
    assert snap["histograms"]["repl.ack_gate_wait_ns"]["count"] == 4
    assert snap["gauges"]["repl.released_seq"] == cluster.head_seq


def test_workload_layer_metrics_populate():
    # run_one builds its own System; default-enabled telemetry applies.
    from repro.telemetry.metrics import default_enabled

    assert default_enabled()
    result = run_one(
        RunConfig(workload="ycsb-a", seed=2, ops=25, scheme="uh_ls_diff")
    )
    assert result["violations"] == []


def test_storm_export_covers_all_layers_and_renders():
    doc = run_storm(seed=3, sessions=2, txns_per_session=5, followers=1)
    assert validate_export(doc) == []
    names = set(doc["metrics"]["counters"]) | set(
        doc["metrics"]["histograms"]
    ) | set(doc["metrics"]["gauges"])
    for prefix in ("service.", "wal.", "repl."):
        assert any(n.startswith(prefix) for n in names), prefix
    assert doc["metrics"]["histograms"]["service.epoch_txns"]["count"] > 0
    report = render_report(doc)
    for needle in (
        "counters",
        "service.txns_acked",
        "wal.frames over simulated time",
        "p95",
        "spans",
    ):
        assert needle in report
