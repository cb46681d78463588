"""One round of one workload, run inside its own child process.

A round is: *setup* (imports, input generation, build, preload) ->
*measured phase* (fixed op count, auto-checkpoint on, closed loop) ->
*recovery phase* (power-fail / reboot / reopen cycles, or a failover on
``serve-repl``).  The program is driven through its public surface only
(``Database.execute``, ``DatabaseService.submit_txn`` / ``submit_read``,
``Cluster``, ``System.power_fail`` / ``reboot``) and every result is
checked against the model built in :mod:`nvbench.inputs`.

The round returns one JSON-able dict: ``sim`` (simulated clock; must
repeat exactly for a seed), ``counts`` (program counters read from public
state; must repeat exactly), ``host`` (wall clock and memory; noisy), and
the failure tally.
"""

from __future__ import annotations

import contextlib
import gc
import math
import resource
import statistics
import time

from repro import Database, System, nexus5, tuna
from repro.config import FILE_FRAME_HEADER_SIZE, NV_FRAME_HEADER_SIZE, PAGE_SIZE
from repro.db.sql.parser import parse as parse_sql
from repro.errors import ReproError
from repro.hw import stats as statnames
from repro.hw.stats import Stats
from repro.replication import Cluster, ReplicationConfig
from repro.replication.cluster import TABLE as SERVE_TABLE
from repro.service import Scheduler, ServiceConfig
from repro.telemetry import telemetry_disabled
from repro.wal import FileWalBackend, NvwalBackend, NvwalScheme

from nvbench import inputs
from nvbench.spec import (
    BLOCK_BYTES,
    KEY_BYTES,
    SERVE_READ_THINK_NS,
    SIM_BUCKETS,
    Workload,
)
from nvbench.trace import Tracer, layer_table

PRELOAD_BATCH = 200
#: serve-repl clients resubmit a refused (rolled back) transaction after
#: this pause, this many times at most — ClientSession's policy.
CLIENT_BACKOFF_NS = 1_000_000
CLIENT_ATTEMPTS = 50
#: One reference_work() call per this many ops: ~1% of the phase.
REFERENCE_EVERY = 8
_FILE_FRAME_BYTES = FILE_FRAME_HEADER_SIZE + PAGE_SIZE
_HEAPO_COUNTERS = (statnames.NVMALLOC_CALLS, statnames.PRE_MALLOC_CALLS,
                   statnames.SET_USED_CALLS, statnames.NVFREE_CALLS)


def monotonic_ns() -> int:
    """System-wide monotonic clock, comparable between parent and child."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Tally:
    """Attempted and failed checks of one round, with the first reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, reason: str, n: int = 1) -> None:
        self.failed += n
        if len(self.reasons) < 10:
            self.reasons.append(reason)

    def expect(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(reason)

    def check_rows(self, where: str, rows, model: dict) -> None:
        """Every model row present with its value, and no row extra."""
        self.attempted += 1
        got = dict(rows)
        wrong = sum(1 for key, value in model.items() if got.get(key) != value)
        extra = len(got.keys() - model.keys())
        if wrong or extra:
            self.fail(f"{where}: {wrong} rows missing or stale, {extra} extra",
                      wrong + extra)


def percentile(ordered: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _latency_metrics(latencies_ns: list) -> dict:
    ordered = sorted(latencies_ns)
    # A checkpoint stalls about one op in a thousand (threshold 1000
    # frames, ~1 frame per txn), so p99.9 itself sits on the cliff between
    # a stalled and an ordinary op; the mean of the slowest 0.1% does not.
    slowest = ordered[-max(1, math.ceil(len(ordered) / 1000)):]
    return {
        "sim_op_p50_us": percentile(ordered, 0.50) / 1e3,
        "sim_op_p99_us": percentile(ordered, 0.99) / 1e3,
        "sim_op_tail_us": sum(slowest) / len(slowest) / 1e3,
    }


def _sum_stats(stats_list) -> Stats:
    total = Stats()
    for stats in stats_list:
        total.counters.update(stats.counters)
        total.time_ns.update(stats.time_ns)
    return total


def _hw_counts(delta: Stats, sim_ns: float, txns: int) -> dict:
    """Per-layer counts that come straight from ``System.stats``."""
    count = delta.counters
    out = {
        "hw.flushes_per_txn": count[statnames.FLUSHES] / txns,
        "hw.dmb_per_txn": count[statnames.DMBS] / txns,
        "hw.persist_barriers_per_txn": count[statnames.PERSIST_BARRIERS] / txns,
        "hw.nvram_bytes_per_txn": count[statnames.NVRAM_BYTES_WRITTEN] / txns,
        "hw.cache_evictions_per_txn": count["cache_evictions"] / txns,
        "nvram.heapo_calls_per_txn": sum(count[c] for c in _HEAPO_COUNTERS) / txns,
        "storage.block_writes_per_txn": count[statnames.BLOCK_WRITES] / txns,
        "storage.block_reads_per_txn": count[statnames.BLOCK_READS] / txns,
        "storage.block_flushes_per_txn": count[statnames.BLOCK_FLUSHES] / txns,
    }
    for bucket in SIM_BUCKETS:
        out[f"sim.share.{bucket}"] = delta.time_ns[bucket] / sim_ns
    out["sim.share.unattributed"] = 1.0 - sum(
        delta.time_ns[bucket] for bucket in SIM_BUCKETS) / sim_ns
    return out


def reference_work() -> int:
    """A fixed piece of pure-Python work (~6 us), the host's yardstick."""
    total, table = 0, {}
    for i in range(60):
        table[i & 15] = total
        total += (i * i) % 7
    return total


class HostTimer:
    """Host ns of every op of the measured phase, in completion order,
    and of a :func:`reference_work` call after every few ops.

    The reference calls sample how fast the host runs *while* the phase
    runs; the parent uses them to take the host's slow minutes out of
    ``host_ops_per_s`` (run.py, ``host_figures``).  Their time is not
    part of any op's.
    """

    def __init__(self) -> None:
        self.op_ns: list[int] = []
        self.ref_ns: list[int] = []
        self.mark = 0

    def start(self) -> None:
        self.mark = time.perf_counter_ns()

    def op_done(self) -> None:
        now = time.perf_counter_ns
        done = now()
        self.op_ns.append(done - self.mark)
        if len(self.op_ns) % REFERENCE_EVERY:
            self.mark = done
        else:
            reference_work()
            self.mark = now()
            self.ref_ns.append(self.mark - done)

    def host(self, setup_s: float, recovery_ms: list) -> dict:
        phase_s = sum(self.op_ns) / 1e9
        return {"setup_s": setup_s, "measured_s": phase_s,
                "host_ops_per_s": len(self.op_ns) / phase_s,
                "host_recovery_ms": recovery_ms,
                "op_ns": self.op_ns, "ref_ns": self.ref_ns}


def _checkpoint_totals(histogram) -> tuple[int, int]:
    # A disabled registry hands out an instrument without sum/max.
    return histogram.total, getattr(histogram, "sum", 0)


def _parse_miss_share(before) -> float:
    now = parse_sql.cache_info()
    misses = now.misses - before.misses
    return misses / (misses + now.hits - before.hits)


def _write_amp(delta: Stats, payload: int) -> float:
    count = delta.counters
    return (count[statnames.NVRAM_BYTES_WRITTEN]
            + BLOCK_BYTES * count[statnames.BLOCK_WRITES]) / payload


# ---------------------------------------------------------------------------
# the four single-connection workloads
# ---------------------------------------------------------------------------


def _profile(workload: Workload):
    return nexus5() if workload.profile == "nexus5" else tuna(500)


def _wal(workload: Workload, system: System):
    if workload.wal == "filewal":
        return FileWalBackend(system, optimized=False)
    scheme = NvwalScheme.eager() if workload.wal == "eager" else NvwalScheme.uh_ls_diff()
    return NvwalBackend(system, scheme, checkpoint_threshold=1000)


def fetch_rows(db: Database) -> list[tuple]:
    """Every row the database serves (the oracle's view of it)."""
    return db.query(inputs.SELECT_ALL)


def _single_round(workload: Workload, seed: int, recovery_ops: int,
                  tracer: Tracer | None, started) -> dict:
    data = inputs.single_inputs(seed, workload.mix, workload.ops,
                                workload.preload_rows, recovery_ops)
    system = System(_profile(workload), seed=seed)
    db = Database(system, wal=_wal(workload, system))
    db.execute(inputs.DDL)
    for at in range(0, len(data.preload), PRELOAD_BATCH):
        db.executemany(inputs.INSERT, data.preload[at:at + PRELOAD_BATCH])
    tally = Tally()
    clock, stats, wal = system.clock, system.stats, db.wal
    checkpoints = system.telemetry.histogram("wal.checkpoint_ns")
    # The inputs are a few hundred thousand live tuples; keep the cycle
    # collector from rescanning them during the timed loop.
    gc.collect()
    gc.freeze()
    setup_s = started()

    # -- measured phase ---------------------------------------------------
    ops = data.measured
    execute, frame_count, timer = db.execute, wal.frame_count, HostTimer()
    latencies: list = []
    frames = frame_txns = 0
    stats0, sim0 = stats.snapshot(), clock.now_ns
    parse0 = parse_sql.cache_info()
    ckpt0 = _checkpoint_totals(checkpoints)
    if tracer is not None:
        tracer.reset()
    timer.start()
    for op, (sql, params, expect, _payload) in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(op)
        frames0 = frame_count()
        at = clock.now_ns
        try:
            got = execute(sql, params)
        except Exception as exc:  # noqa: BLE001 - a failed op is a counted result
            tally.fail(f"op {op} raised {type(exc).__name__}: {exc}")
            continue
        latencies.append(clock.now_ns - at)
        if got != expect:
            tally.fail(f"op {op} returned {str(got)[:60]}, model says {str(expect)[:60]}")
        grown = frame_count() - frames0
        if grown > 0:  # negative: the op's commit also checkpointed
            frames += grown
            frame_txns += 1
        timer.op_done()
    if tracer is not None:
        tracer.begin_op(-1)
        traced = _trace_summary(tracer, timer)
    sim_ns = clock.now_ns - sim0
    delta = stats.delta_since(stats0)
    ckpt1 = _checkpoint_totals(checkpoints)
    tally.attempted += len(ops)

    txns = sum(1 for op in ops if op[3])
    payload = sum(op[3] for op in ops)
    sim = {"sim_ops_per_s": len(ops) / (sim_ns / 1e9),
           **_latency_metrics(latencies),
           "sim_write_amp": _write_amp(delta, payload)}
    counts = _hw_counts(delta, sim_ns, txns)
    # Frames are sampled around each op, which misses the few commits
    # that also checkpointed (the count restarts at 0 there).
    frames_per_txn = frames / frame_txns
    log_bytes_per_txn = (frames_per_txn * _FILE_FRAME_BYTES
                         if workload.wal == "filewal"
                         else delta.counters["memcpy_bytes"] / txns)
    counts.update({
        "latency_samples": len(latencies),
        "write_txns": txns,
        "db.sql.parse_miss_share": _parse_miss_share(parse0),
        "wal.frames_per_txn": frames_per_txn,
        "wal.log_bytes_per_txn": log_bytes_per_txn,
        "wal.diff.logged_bytes_per_dirty_page": log_bytes_per_txn / frames_per_txn,
        "wal.checkpoints": ckpt1[0] - ckpt0[0],
        "wal.checkpoint_sim_share": (ckpt1[1] - ckpt0[1]) / sim_ns,
        "wal.checkpoint_sim_us_max": checkpoints.max / 1e3,
        "nvram.frames_per_block": (wal.frames_per_block()
                                   if isinstance(wal, NvwalBackend) else 0.0),
    })
    tally.check_rows("after the measured phase", fetch_rows(db), data.after_measured)
    counts["db.btree.depth"] = db.table_tree(db.table(inputs.TABLE)).depth()

    # -- recovery phase ---------------------------------------------------
    sim_recovery, host_recovery, frames_at_crash = [], [], []
    db.auto_checkpoint = False
    for cycle, (cycle_ops, model) in enumerate(data.cycles):
        db.checkpoint()  # every cycle recovers the same amount of log
        for sql, params, expect, _payload in cycle_ops:
            tally.attempted += 1
            try:
                if db.execute(sql, params) != expect:
                    tally.fail(f"cycle {cycle}: write disagrees with the model")
            except Exception as exc:  # noqa: BLE001 - counted, see above
                tally.fail(f"cycle {cycle}: write raised {type(exc).__name__}: {exc}")
        frames_at_crash.append(db.wal.frame_count())
        system.power_fail()
        wall0 = time.perf_counter_ns()
        system.reboot()
        sim0 = clock.now_ns
        db = Database(system, wal=_wal(workload, system), auto_checkpoint=False)
        sim_recovery.append((clock.now_ns - sim0) / 1e3)
        host_recovery.append((time.perf_counter_ns() - wall0) / 1e6)
        try:
            db.check_integrity()
            broken = ""
        except Exception as exc:  # noqa: BLE001 - counted, see above
            broken = str(exc) or type(exc).__name__
        tally.expect(not broken, f"cycle {cycle}: integrity check: {broken}")
        tally.check_rows(f"after recovery {cycle}", fetch_rows(db), model)
    sim["sim_recovery_us"] = statistics.median(sim_recovery)
    counts["wal.frames_at_crash"] = statistics.median(frames_at_crash)
    counts["sim_recovery_us_cycles"] = sim_recovery
    out = {
        "sim": sim, "counts": counts,
        "host": timer.host(setup_s, host_recovery),
        "tally": tally,
    }
    if tracer is not None:
        out["traced"] = traced
    return out


# ---------------------------------------------------------------------------
# serve-repl
# ---------------------------------------------------------------------------


class _Sessions:
    """The benchmark's own clients: cooperative generators on the
    simulated clock, all in one OS thread."""

    def __init__(self, data: inputs.ServeInputs, tally: Tally) -> None:
        self.service = None
        self.clock = None
        self.data = data
        self.tally = tally
        self.tracer: Tracer | None = None
        self.model = {}
        #: Per writer: key -> value (None = deleted) of its un-acked txn.
        self.inflight: list[dict] = [{} for _ in data.writers]
        self.latencies: list = []
        self.timer = HostTimer()
        self.payload = 0
        self.next_op = 0
        self.resubmits = 0
        self.sealed_txns = self.sealed_frames = self.sealed_bytes = 0

    def start_measuring(self, tracer: Tracer | None) -> None:
        """The preload is over: forget its samples, keep its model."""
        self.tracer = tracer
        self.latencies, self.timer = [], HostTimer()
        self.payload = self.next_op = self.resubmits = 0
        self.sealed_txns = self.sealed_frames = self.sealed_bytes = 0

    def _begin_op(self) -> None:
        if self.tracer is not None:
            self.tracer.begin_op(self.next_op)
        self.next_op += 1

    def on_seal(self, entry) -> None:
        """Cluster hook: one sealed epoch (its frames and transactions)."""
        self.sealed_txns += len(entry.metas)
        self.sealed_frames += len(entry.frames)
        self.sealed_bytes += sum(
            NV_FRAME_HEADER_SIZE + len(frame.payload) for frame in entry.frames)

    def writer(self, index: int, txns):
        sid, clock, inflight = f"writer-{index}", self.clock, self.inflight[index]
        for ops in txns:
            for _kind, key, value in ops:
                inflight[key] = value
            self._begin_op()
            at = clock.now_ns
            self.tally.attempted += 1
            for attempt in range(CLIENT_ATTEMPTS):
                try:
                    applied = yield from self.service.submit_txn(sid, ops)
                    break
                except ReproError as exc:
                    # A refused request was rolled back; like the repo's
                    # ClientSession, back off and submit it again.
                    if not exc.retryable or attempt == CLIENT_ATTEMPTS - 1:
                        self.tally.fail(f"{sid} txn refused: {type(exc).__name__}: {exc}")
                        applied = None
                        break
                    self.resubmits += 1
                    yield CLIENT_BACKOFF_NS
            self.latencies.append(clock.now_ns - at)
            self.timer.op_done()
            if applied is None:
                inflight.clear()
                continue
            if applied != len(ops):
                self.tally.fail(f"{sid} txn applied {applied} of {len(ops)} ops")
            for kind, key, value in ops:
                if kind == "delete":
                    self.model.pop(key, None)
                    self.payload += KEY_BYTES
                else:
                    self.model[key] = value
                    self.payload += len(value) + (KEY_BYTES if kind == "insert" else 0)
            inflight.clear()

    def reader(self, keys):
        sql = f"SELECT v FROM {SERVE_TABLE} WHERE k = ?"
        clock, owner = self.clock, self.data.owner
        for key in keys:
            self._begin_op()
            at = clock.now_ns
            self.tally.attempted += 1
            try:
                rows = yield from self.service.submit_read("reader", sql, (key,))
            except ReproError as exc:
                self.tally.fail(f"read refused: {type(exc).__name__}: {exc}")
                continue
            self.latencies.append(clock.now_ns - at)
            self.timer.op_done()
            # A read sees the last commit: the acknowledged value, or the
            # owner's in-flight one once it passed its commit point.
            allowed = [self.model.get(key)]
            pending = self.inflight[owner[key]]
            if key in pending:
                allowed.append(pending[key])
            got = rows[0][0] if rows else None
            if got not in allowed:
                self.tally.fail(f"read of key {key} disagrees with the model")
            yield SERVE_READ_THINK_NS


def _quiesce(cluster: Cluster, scheduler: Scheduler) -> bool:
    """Run the daemons until every live follower and the cold store hold
    the head, then fsync the store.

    The failover that follows is the clean one: with epochs still in the
    store's page cache the power cut tears its tail at random, and
    ``promote()`` then takes a fallback-snapshot path three times as
    long on some seeds and not on others.
    """
    def wait():
        for _ in range(2000):
            if cluster.archive.head >= cluster.head_seq and all(
                f.durable_seq >= cluster.head_seq for f in cluster.live_followers()
            ):
                return True
            yield 200_000
        return False

    job = scheduler.spawn("quiesce", wait())
    scheduler.run()
    cluster.archive.sync()
    return bool(job.result)


def _cluster_stats(cluster: Cluster, systems) -> Stats:
    return _sum_stats([s.stats for s in systems] + [cluster.archive_device.stats])


def _serve_round(workload: Workload, seed: int, tracer: Tracer | None, started) -> dict:
    data = inputs.serve_inputs(seed, workload.ops, workload.preload_rows)
    tally = Tally()
    sessions = _Sessions(data, tally)
    cluster = Cluster(ReplicationConfig(followers=2, mode="semisync"), seed=seed,
                      on_seal=sessions.on_seal)
    service = cluster.start_service(ServiceConfig(group_commit=True), seed=seed)
    sessions.service, sessions.clock = service, cluster.clock
    scheduler = Scheduler(cluster.clock)
    scheduler.spawn("maintenance", service.maintenance(), daemon=True)
    scheduler.spawn("batcher", service.commit_batcher(), daemon=True)
    scheduler.spawn("replicator", cluster.replicator.daemon(), daemon=True)
    for index, txns in enumerate(data.preload):
        scheduler.spawn(f"load-{index}", sessions.writer(index, txns))
    scheduler.run()
    systems = [cluster.primary_system] + [f.system for f in cluster.followers]
    clock = cluster.clock
    registry = cluster.primary_system.telemetry
    checkpoints = registry.histogram("wal.checkpoint_ns")
    resends = registry.counter("repl.resends")
    gc.collect()
    gc.freeze()
    setup_s = started()

    # -- measured phase ---------------------------------------------------
    preload_failed = tally.failed
    sessions.start_measuring(tracer)
    parse0 = parse_sql.cache_info()
    acked0, epochs0 = service.stats.txns_acked, service.stats.epochs_flushed
    busy0, lag0 = service.stats.busy_waits, len(cluster.lag_samples())
    stats0, sim0 = _cluster_stats(cluster, systems), clock.now_ns
    archive0 = cluster.archive_device.stats.snapshot()
    ckpt0, resends0 = _checkpoint_totals(checkpoints), resends.value
    attempted0 = tally.attempted
    if tracer is not None:
        tracer.reset()
    for index, txns in enumerate(data.writers):
        scheduler.spawn(f"writer-{index}", sessions.writer(index, txns))
    scheduler.spawn("reader", sessions.reader(data.reads))
    sessions.timer.start()
    scheduler.run()
    # The failover's epilogue below runs sessions too; it gets its own timer.
    timer, sessions.timer = sessions.timer, HostTimer()
    n_ops = tally.attempted - attempted0
    if tracer is not None:
        tracer.begin_op(-1)
        traced = _trace_summary(tracer, timer)
    sim_ns = clock.now_ns - sim0
    delta = _cluster_stats(cluster, systems).delta_since(stats0)
    ckpt1 = _checkpoint_totals(checkpoints)
    archive_delta = cluster.archive_device.stats.delta_since(archive0)
    for job in scheduler.failed_jobs():
        tally.fail(f"job {job.name} died: {job.error}")
    txns = service.stats.txns_acked - acked0
    epochs = service.stats.epochs_flushed - epochs0
    lags = sorted(cluster.lag_samples()[lag0:])

    sim = {"sim_ops_per_s": n_ops / (sim_ns / 1e9),
           **_latency_metrics(sessions.latencies),
           "sim_write_amp": _write_amp(delta, sessions.payload)}
    counts = _hw_counts(delta, sim_ns, txns)
    counts.update({
        "latency_samples": len(sessions.latencies),
        "write_txns": txns,
        "preload_failed": preload_failed,
        "db.sql.parse_miss_share": _parse_miss_share(parse0),
        "wal.frames_per_txn": sessions.sealed_frames / sessions.sealed_txns,
        "wal.log_bytes_per_txn": sessions.sealed_bytes / sessions.sealed_txns,
        "wal.diff.logged_bytes_per_dirty_page":
            sessions.sealed_bytes / sessions.sealed_frames,
        "wal.checkpoints": ckpt1[0] - ckpt0[0],
        "wal.checkpoint_sim_share": (ckpt1[1] - ckpt0[1]) / sim_ns,
        "wal.checkpoint_sim_us_max": getattr(checkpoints, "max", 0) / 1e3,
        "nvram.frames_per_block": cluster.db.wal.frames_per_block(),
        "service.epoch_txns_mean": txns / epochs,
        "service.busy_waits_per_txn": (service.stats.busy_waits - busy0) / txns,
        "service.client_resubmits": sessions.resubmits,
        "replication.lag_sim_us_p95": percentile(lags, 0.95) / 1e3 if lags else 0.0,
        "replication.resends": resends.value - resends0,
        "archive.bytes_per_txn":
            BLOCK_BYTES * archive_delta.counters[statnames.BLOCK_WRITES] / txns,
        "archive.gc_segments": cluster.archive.gc_segments,
        "db.btree.depth": cluster.db.table_tree(cluster.db.table(SERVE_TABLE)).depth(),
    })

    # -- recovery phase: failover -------------------------------------------
    # Like a single-connection cycle: checkpoint, a fixed burst of writes,
    # power cut.  What the measured phase left in the followers' logs is
    # anywhere between 0 and the cluster's 48-frame threshold.
    tally.expect(_quiesce(cluster, scheduler),
                 "followers and archive did not reach the head before the failover")
    for follower in cluster.live_followers():
        follower.db.checkpoint()
    scheduler.spawn("epilogue", sessions.writer(0, data.epilogue))
    scheduler.run()
    tally.expect(_quiesce(cluster, scheduler), "the epilogue did not reach the followers")
    counts["wal.frames_at_crash"] = max(
        f.db.wal.frame_count() for f in cluster.live_followers())
    wall0 = time.perf_counter_ns()
    cluster.kill_primary()
    sim0 = clock.now_ns
    promoted = cluster.promote()
    sim["sim_recovery_us"] = (clock.now_ns - sim0) / 1e3
    host_recovery = (time.perf_counter_ns() - wall0) / 1e6
    select_all = f"SELECT k, v FROM {SERVE_TABLE}"
    tally.expect(promoted is not None, "no follower could be promoted")
    if promoted is not None:
        rows = cluster.db.query(select_all)
        tally.check_rows("promoted primary", rows, sessions.model)
        # The old scheduler's daemons drive the retired replicator.
        scheduler = Scheduler(clock)
        scheduler.spawn("replicator", cluster.replicator.daemon(), daemon=True)
        tally.expect(_quiesce(cluster, scheduler), "surviving follower did not converge")
        for follower in cluster.live_followers():
            tally.check_rows(f"follower {follower.node_id}",
                             follower.db.query(select_all), dict(rows))
    out = {
        "sim": sim, "counts": counts,
        "host": timer.host(setup_s, [host_recovery]),
        "tally": tally,
    }
    if tracer is not None:
        out["traced"] = traced
    return out


# ---------------------------------------------------------------------------
# the round
# ---------------------------------------------------------------------------


def _trace_summary(tracer: Tracer, timer: HostTimer) -> dict:
    layers = tracer.by_layer()
    phase_ns = sum(timer.op_ns)
    return {
        "ops": len(timer.op_ns),
        "layers": layers,
        "covered_share": sum(row["self_ns"] for row in layers.values()) / phase_ns,
        "page_visits": tracer.calls_of("Pager.get_page"),
        "counters": dict(tracer.counters),
        "functions": {f"{layer}:{name}": list(agg)
                      for (layer, name), agg in sorted(tracer.functions.items())
                      if agg[0]},
        "spans": tracer.span_records(timer.mark - phase_ns - sum(timer.ref_ns)),
    }


def run_round(workload: Workload, seed: int, recovery_ops: int, mode: str,
              spawned_ns: int, span_ops: int = 0) -> dict:
    """Run one round; ``mode`` is "plain", "traced" or "telemetry-off"."""

    def started() -> float:
        return (monotonic_ns() - spawned_ns) / 1e9

    tracer = None
    if mode == "traced":
        tracer = Tracer(span_ops)
        tracer.install(layer_table())
    try:
        if workload.kind == "serve":
            with (telemetry_disabled() if mode == "telemetry-off"
                  else contextlib.nullcontext()):
                out = _serve_round(workload, seed, tracer, started)
        else:
            out = _single_round(workload, seed, recovery_ops, tracer, started)
    finally:
        if tracer is not None:
            tracer.restore()
    tally = out.pop("tally")
    out["host"]["host_peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    out.update(workload=workload.name, seed=seed, mode=mode,
               attempted=tally.attempted, failed=tally.failed,
               reasons=tally.reasons)
    return out
