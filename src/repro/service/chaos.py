"""Chaos harness: concurrent clients + fault storms + power cycles.

One :class:`ChaosScenario` is a fully reproducible concurrent-service
experiment: seeded per-session transaction streams, an NVWAL scheme, a
:class:`~repro.faults.plan.FaultPlan`, runtime NVRAM decay *storms*
(media faults injected mid-run with no power loss — modeling cells that
decay while the machine is up), mid-flight power failures at scripted
primitive-op counts, and an optional final power cycle so every run ends
by proving recoverability.

Oracles (generalizing the torture driver's single-session checks):

* **ack durability** — after every recovery, the database must match the
  fold of the acknowledged-transaction log at an *allowed* boundary: the
  full log (plus at most one unacknowledged in-flight transaction whose
  commit landed) under power faults alone; down to the last completed
  checkpoint when media decay, storms, or an asynchronous-commit scheme
  may legitimately shed the WAL tail.  A violation means a request was
  acknowledged and rolled back — exactly the bug the ``--sabotage
  ack-early`` self-test plants.
* **read freshness** — every read a client completes must equal the fold
  of the ack log at that moment: an in-flight writer must be invisible,
  and degraded read-only mode must never serve stale-beyond-snapshot
  rows.
* **liveness** — no client may exhaust its resubmission budget, and the
  maintenance daemon must never die.

Results are JSON-able and digested (sha256 over canonical JSON), and the
digest is identical for any ``--jobs`` value.  Failing scenarios shrink
through :mod:`repro.harness` into replayable JSON traces.

Run ``python -m repro.service.chaos --help`` (or ``python -m
repro.service``) for the CLI.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field, replace
from functools import partial

from repro import harness
from repro.config import tuna
from repro.db.database import Database
from repro.errors import IoError, PowerFailure
from repro.faults import FaultPlan, IoFaultSpec, MediaFaultSpec
from repro.harness import rotated, session_stream
from repro.retry import retry_io
from repro.service.sched import Scheduler
from repro.service.server import DatabaseService, ServiceConfig
from repro.service.session import ClientSession
from repro.system import System
from repro.telemetry.collector import Collector
from repro.telemetry.export import build_export, canonical_json, export_digest
from repro.wal.base import SyncMode
from repro.wal.nvwal import SCHEMES, NvwalBackend
from repro.workloads.core import group_ops
from repro.workloads.mobi import DDL, TABLE, MobiWorkload, generate_txns

DB_NAME = "chaos.db"

#: Checkpoint threshold for chaos runs: small enough that multi-hundred-
#: transaction runs cross many checkpoints (the relaxed oracle's floor).
DEFAULT_CHAOS_THRESHOLD = 48

#: Attempts at rebooting + recovering before recovery counts as dead.
_RECOVERY_ATTEMPTS = 10

#: Simulated time between NVRAM decay storms.
_STORM_INTERVAL_NS = 4_000_000

READ_SQL = f"SELECT k, v FROM {TABLE}"


@dataclass(frozen=True)
class ChaosScenario:
    """One reproducible concurrent chaos experiment (JSON round-trips)."""

    seed: int
    scheme: str
    #: per-session transaction streams; streams[s] is a tuple of txns,
    #: each a tuple of ("insert"|"update"|"delete", key, value) ops.
    streams: tuple
    plan: FaultPlan | None = None
    #: runtime NVRAM decay events (requires plan.media); each storm
    #: re-applies the media spec to the durable image mid-run.
    storms: int = 0
    #: primitive-op counts (per power-on epoch) at which power is cut.
    power_cycles: tuple = ()
    checkpoint_threshold: int = DEFAULT_CHAOS_THRESHOLD
    #: a planted bug by name (:data:`SERVICES`; harness self-test).
    #: ``"ack-early"`` acks before the commit is durable; with
    #: ``group_commit`` it acks parked writers before the epoch
    #: barrier — the ack-before-epoch-barrier bug class.
    sabotage: str = ""
    #: cut power after the clean drain and prove recovery one last time.
    final_power_cycle: bool = True
    #: issue a freshness-checked read after every Nth acked txn.
    read_every: int = 2
    #: run the service with the commit coalescer (epoch-batched WAL).
    group_commit: bool = False
    #: stream generator: "mobi" (the original free-key insert/update/
    #: delete mix), "ycsb" (zipfian-skewed hot-key read-write mix), or
    #: "queue" (FIFO enqueue/dequeue — durable-queue delivery under
    #: chaos).  All emit the same (kind, key, value) op language, so the
    #: service, fold model, and oracles are workload-agnostic.
    workload: str = "mobi"


# ----------------------------------------------------------------------
# scenario construction
# ----------------------------------------------------------------------


def _ycsb_stream(stream_seed: int, op_count: int, txn_size: int):
    """Zipfian-skewed mixed stream: most writes land on a few hot keys,
    the YCSB access pattern the original free-key mix never produces."""
    from repro.workloads.core import ZipfianSampler, workload_rng

    rng = workload_rng(stream_seed, salt=11)
    sampler = ZipfianSampler(0)
    live: list[int] = []
    next_key = 1
    ops = []
    for i in range(op_count):
        roll = rng.random()
        if not live or roll < 0.40:
            key, kind = next_key, "insert"
            live.append(next_key)
            next_key += 1
        elif roll < 0.82:
            sampler.resize(len(live))
            key, kind = live[sampler.sample(rng)], "update"
        else:
            sampler.resize(len(live))
            key, kind = live.pop(sampler.sample(rng)), "delete"
        value = None if kind == "delete" else f"y{i}." + "x" * rng.randint(4, 20)
        ops.append((kind, key, value))
    return group_ops(rng, ops, txn_size)


def _queue_stream(stream_seed: int, op_count: int, txn_size: int):
    """FIFO enqueue/dequeue: inserts with monotone ids, deletes always
    of the oldest live id — the durable-queue pattern under chaos."""
    from repro.workloads.core import workload_rng

    rng = workload_rng(stream_seed, salt=13)
    live: list[int] = []
    next_id = 1
    ops = []
    for i in range(op_count):
        if not live or rng.random() < 0.55:
            ops.append(("insert", next_id, f"m{i}." + "x" * rng.randint(4, 16)))
            live.append(next_id)
            next_id += 1
        else:
            ops.append(("delete", live.pop(0), None))
    return group_ops(rng, ops, txn_size)


#: Stream generators selectable via ``ChaosScenario.workload``, each a
#: ``generate(stream_seed, op_count, txn_size)`` for
#: :func:`repro.harness.session_stream`.
STREAM_GENERATORS = {
    "mobi": generate_txns,
    "ycsb": _ycsb_stream,
    "queue": _queue_stream,
}
CHAOS_WORKLOADS = tuple(STREAM_GENERATORS)

#: ``--faults`` kinds (see :func:`build_fault_plan`).
FAULT_KINDS = ("power", "media", "io")


def build_fault_plan(seed: int, faults) -> FaultPlan | None:
    """The standard chaos fault plan.

    IO error rates are mild but ``max_consecutive`` *exceeds* the
    filesystem's bounded retry budget, so transient IoErrors genuinely
    escape to the service layer and exercise its backoff machinery —
    unlike the torture plan, which stays below the budget.
    """
    faults = set(faults)
    unknown = faults - set(FAULT_KINDS)
    if unknown:
        raise ValueError(f"unknown fault kinds: {sorted(unknown)}")
    media = None
    io = None
    if "media" in faults:
        media = MediaFaultSpec(bit_flips=1, stuck_units=1, poison_units=2)
    if "io" in faults:
        # The filesystem absorbs up to four consecutive failures, so an
        # IoError reaches the service only after a streak of 4+ — rates
        # must be high for that to happen at all (0.45^4 ~ 4% per op).
        io = IoFaultSpec(
            read_error_rate=0.35, write_error_rate=0.45, max_consecutive=8
        )
    if media is None and io is None:
        return None
    return FaultPlan(seed=seed, media=media, io=io)


def make_scenario(
    seed: int,
    sessions: int = 4,
    txns: int = 40,
    txn_size: int = 3,
    scheme: str = "uh_ls_diff",
    faults=("power",),
    storms: int = 0,
    power_cycles: int = 0,
    checkpoint_threshold: int = DEFAULT_CHAOS_THRESHOLD,
    sabotage: str = "",
    group_commit: bool = False,
    workload: str = "mobi",
) -> ChaosScenario:
    """Build a scenario; crash points are placed by profiling.

    ``txns`` is the total across all sessions, and a ``scheme`` of
    ``rotate`` cycles the torture rotation by seed.  When ``power_cycles`` is
    positive, the scenario is first run uncrashed (same seed, same
    storms) to measure its primitive-op count, and the cycles are placed
    at seeded fractions of it — deterministic, and dense enough across
    seeds to land inside commit windows.
    """
    scheme = rotated(scheme, seed)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; pick from {sorted(SCHEMES)}")
    if workload not in STREAM_GENERATORS:
        raise ValueError(
            f"unknown chaos workload {workload!r}; pick from {CHAOS_WORKLOADS}"
        )
    scenario = ChaosScenario(
        seed=seed,
        scheme=scheme,
        streams=session_streams(
            STREAM_GENERATORS[workload], seed, sessions, txns, txn_size
        ),
        plan=build_fault_plan(seed, faults),
        storms=storms,
        checkpoint_threshold=checkpoint_threshold,
        sabotage=sabotage,
        group_commit=group_commit,
        workload=workload,
    )
    if power_cycles > 0:
        total = _measure_ops(scenario)
        rng = placement_rng(seed)
        cycles = sorted(
            max(1, int(total * (0.10 + 0.80 * rng.random())))
            for _ in range(power_cycles)
        )
        scenario = replace(scenario, power_cycles=tuple(cycles))
    return scenario


def _measure_ops(scenario: ChaosScenario) -> int:
    """Primitive-op count of the uncrashed run (crash-point space)."""
    probe = replace(scenario, power_cycles=(), final_power_cycle=False)
    driver = _Driver(probe)
    crash = driver.system.crash
    with crash.counting():
        driver.run()
    return crash.ops_counted


# ----------------------------------------------------------------------
# driver helpers (shared with the replication chaos driver)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    """What one scenario run produced (JSON-able)."""

    violations: tuple
    summary: dict = field(default_factory=dict)


def session_streams(generate, seed: int, sessions: int, txns: int, txn_size: int):
    """``txns`` transactions dealt out as ``sessions`` seeded streams."""
    per_session = max(1, txns // sessions)
    return tuple(
        session_stream(generate, seed, s, sessions, per_session, txn_size)
        for s in range(sessions)
    )


def placement_rng(seed: int) -> random.Random:
    """The seeded RNG that places a scenario's scripted power cuts."""
    return random.Random((seed * 0x2545F491 + 0x3C6EF35F) & 0xFFFFFFFF)


_fold_op = MobiWorkload().fold_op


def fold(base: dict, ops) -> dict:
    """``base`` with ``ops`` folded on top, by the mobi workload's model —
    which follows the service's SQL: ``insert`` upserts, ``update`` /
    ``delete`` of a missing key are no-ops (after a legitimate WAL shed a
    client's later transactions update keys whose inserts were shed)."""
    out = dict(base)
    for op in ops:
        _fold_op(out, op)
    return out


def make_clients(streams) -> list[ClientSession]:
    """One client per stream, its transactions queued; the service is
    attached per power-on epoch."""
    clients = [
        ClientSession(
            service=None,
            session_id=f"c{s}",
            # A third of the clients run tight per-attempt deadlines,
            # exercising DeadlineExceeded + resubmission under load.
            deadline_budget_ns=4_000_000 if s % 3 == 2 else 60_000_000,
        )
        for s in range(len(streams))
    ]
    for client, stream in zip(clients, streams):
        for txn in stream:
            client.enqueue(txn)
    return clients


def starved_clients(clients) -> list[str]:
    """One ``starved:`` violation per client that exhausted its budget."""
    return [
        f"starved: client {client.session_id} gave up with "
        f"{len(client.pending)} txn(s) pending "
        f"(rejections: {client.rejections})"
        for client in clients
        if client.gave_up
    ]


def daemon_failures(scheduler: Scheduler) -> list[str]:
    """One ``error:`` violation per scheduler job that died."""
    return [
        f"error: job {job.name!r} died with "
        f"{type(job.error).__name__}: {job.error}"
        for job in scheduler.failed_jobs()
    ]


@dataclass(frozen=True)
class SessionTask:
    """One seed of a sweep, in picklable form: the parameters of the
    subclass's ``make_scenario``, by name, and its ``driver`` class."""

    seed: int
    sessions: int = 4
    txns: int = 40
    txn_size: int = 3
    scheme: str = "rotate"

    def __post_init__(self) -> None:
        # Raised where ``Harness.tasks`` builds the sweep: exit status 2.
        if self.sessions < 1:
            raise ValueError("--sessions must be at least 1")


def run_task(task: SessionTask) -> dict:
    """Build and run one seed's scenario; JSON-able result for digests."""
    scenario = task.make_scenario(**asdict(task))
    outcome = task.driver.run_scenario(scenario)
    # An escaped exception leaves a summary without the run's findings.
    return {
        **outcome.summary,
        "violations": list(outcome.violations),
        "scenario": harness.to_json(scenario),
    }


class SessionDriver:
    """What both chaos drivers are built on: the fold model of the
    committed rows with its open-epoch tail, the primary read oracle, and
    the client side of one scheduler round."""

    #: A freshness-checked read after every Nth ack of a client (0: none) ...
    read_every = 2
    #: ... and one more once the client's stream has drained.
    final_read = False

    def __init__(self, scenario) -> None:
        self.scenario = scenario
        self.violations: list[str] = []
        self.kv: dict = {}
        #: states[i]: sorted rows after i commit points (acknowledged
        #: transactions for the service, sealed epochs for replication).
        self.states: list = [[]]
        #: group commit: (session_id, ops) applied into the open epoch —
        #: visible to readers, not yet durable or acknowledged.
        self.applied_tail: list = []
        self.stale_reads = 0
        self.crashes = 0
        self.stats_total: dict[str, int] = {}

    @classmethod
    def run_scenario(cls, scenario) -> Outcome:
        """Run one scenario end to end; unexpected escapes become findings."""
        try:
            return cls(scenario).run()
        except Exception as exc:  # noqa: BLE001 - any escape is a finding
            return Outcome(
                violations=(
                    f"error: unhandled {type(exc).__name__} escaped the "
                    f"{cls.__module__} driver: {exc}",
                ),
                summary={
                    key: getattr(scenario, key)
                    for key in ("seed", "scheme", "mode")
                    if hasattr(scenario, key)
                },
            )

    # -- model ---------------------------------------------------------

    @property
    def head(self) -> int:
        """Commit points so far: the index of the newest state."""
        return len(self.states) - 1

    def _on_apply(self, session_id: str, ops) -> None:
        """A transaction joined the open epoch: readers see it already,
        its commit point comes at the epoch barrier."""
        self.applied_tail.append((session_id, ops))

    def _commit_point(self, metas) -> None:
        """The ``(session_id, ops)`` of one commit point leave the open
        epoch (the barrier commits its members in order) for the model."""
        for meta in metas:
            if self.applied_tail and self.applied_tail[0] == meta:
                self.applied_tail.pop(0)
            self.kv = fold(self.kv, meta[1])
        self.states.append(sorted(self.kv.items()))

    def _rows_with(self, metas) -> list:
        """The committed rows with ``metas`` folded on top, sorted."""
        kv = self.kv
        for _sid, ops in metas:
            kv = fold(kv, ops)
        return sorted(kv.items())

    def _check_read(self, rows) -> None:
        """Primary read oracle: the committed rows plus the open epoch's
        members (commit order is fixed the moment they join it)."""
        if sorted(rows) != self._rows_with(self.applied_tail):
            self.stale_reads += 1
            self.violations.append(
                f"stale-read: primary read returned {len(rows)} row(s) not "
                f"matching the history after {self.head} commit point(s)"
            )

    # -- one scheduler round -------------------------------------------

    def _spawn_clients(self, scheduler: Scheduler, service, clients) -> bool:
        """Attach the clients to this round's service and spawn those with
        work left, then the service's daemons; False once all are done."""
        live = False
        for client in clients:
            client.attach(service)
            if client.pending and not client.gave_up:
                live = True
                scheduler.spawn(
                    client.session_id, self._client_job(client, service)
                )
        if live:
            scheduler.spawn("maintenance", service.maintenance(), daemon=True)
            if self.scenario.group_commit:
                scheduler.spawn(
                    "batcher", service.commit_batcher(), daemon=True
                )
        return live

    def _client_job(self, client: ClientSession, service):
        """Client run loop plus freshness-checked reads."""
        read_every = self.read_every
        acked_before = len(client.acked)
        for delay in client.run():
            yield delay
            if read_every and len(client.acked) >= acked_before + read_every:
                acked_before = len(client.acked)
                yield from self._checked_read(client, service)
        # One more check of the snapshot path, degraded mode included.
        if self.final_read and read_every and client.acked:
            yield from self._checked_read(client, service)

    def _checked_read(self, client: ClientSession, service):
        try:
            rows = yield from service.submit_read(client.session_id, READ_SQL)
        except Exception:  # noqa: BLE001 - reads may be refused
            return
        self._check_read(rows)

    def _absorb_stats(self, service) -> None:
        """Add one service incarnation's counters into the run's totals."""
        for key, value in service.stats.as_dict().items():
            self.stats_total[key] = self.stats_total.get(key, 0) + value

    def _power_cut(self, scheduler: Scheduler) -> None:
        """The primary lost power mid-round: its jobs and the open epoch
        are gone (clients resubmit what was never acknowledged)."""
        self.crashes += 1
        scheduler.abandon()
        self.applied_tail.clear()

    def _outcome(self, **own) -> Outcome:
        """The run's findings and its JSON-able summary: what every
        driver reports, plus the driver's ``own`` entries."""
        summary = {
            "seed": self.scenario.seed,
            "scheme": self.scenario.scheme,
            "sessions": len(self.scenario.streams),
            "acked": self.stats_total.get("txns_acked", 0),
            "crashes": self.crashes,
            "stale_reads": self.stale_reads,
            "relaxed": self.relaxed,
            "stats": dict(sorted(self.stats_total.items())),
            "violations": list(self.violations),
            **own,
        }
        return Outcome(violations=tuple(self.violations), summary=summary)


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------


class _AckEarlyService(DatabaseService):
    """The planted bug ``"ack-early"``: the ack goes out before
    the commit is durable — ahead of the commit mark or, under group
    commit, of the epoch barrier.  No replicator is ever attached here."""

    _held_commit: str | None = None  # solo: the commit _ack still owes
    _epoch_acked = False  # group: the epoch in flush was acked up front

    def _commit(self, session_id: str) -> None:
        self._held_commit = session_id  # the ack goes first ...

    def _ack(self, session_id: str, ops) -> None:
        if self._epoch_acked:
            return
        super()._ack(session_id, ops)
        if self._held_commit is not None:
            held, self._held_commit = self._held_commit, None
            super()._commit(held)  # ... the commit mark second

    def _flush_epoch(self) -> None:
        for ticket in self._epoch_queue:
            self._ack(ticket.session_id, ticket.ops)
        self._epoch_acked = True
        try:
            super()._flush_epoch()
        finally:
            self._epoch_acked = False


#: ``ChaosScenario.sabotage`` -> the service that has the bug.
SERVICES = {"": DatabaseService, "ack-early": _AckEarlyService}


class _Driver(SessionDriver):
    """Mutable state of one chaos run: model, oracle, epoch loop."""

    final_read = True

    def __init__(self, scenario: ChaosScenario) -> None:
        super().__init__(scenario)
        self.read_every = scenario.read_every
        # Media decay (at power loss or via storms) can legitimately shed
        # the un-checkpointed WAL tail, and asynchronous (checksum)
        # commit can shed the last commit window; everything else must
        # hold every acknowledged transaction.
        self.relaxed = (
            (scenario.plan is not None and scenario.plan.media is not None)
            or scenario.storms > 0
            or SCHEMES[scenario.scheme]().sync is SyncMode.CHECKSUM
        )
        #: durability floor (index into states) from completed checkpoints.
        self.floor = 0
        self.storms_done = 0
        self.shed_acked = 0
        self.system = System(tuna(), seed=scenario.seed)
        #: Telemetry time series; one sample list spans every power cycle.
        self.collector = Collector(self.system.telemetry)

    # -- model ---------------------------------------------------------

    def _on_ack(self, session_id: str, ops) -> None:
        self._commit_point(((session_id, ops),))

    # -- world building ------------------------------------------------

    def _build_db(self) -> Database:
        wal = NvwalBackend(
            self.system,
            SCHEMES[self.scenario.scheme](),
            checkpoint_threshold=self.scenario.checkpoint_threshold,
        )
        db = Database(self.system, wal=wal, name=DB_NAME)
        inner = wal.checkpoint

        def tracked() -> int:
            written = inner()
            self.floor = self.head  # all acked so far is in the db file
            return written

        wal.checkpoint = tracked
        return db

    def _recover(self) -> tuple[Database, list | None] | None:
        """Reboot until the database comes back and the oracle has read
        its rows (``None`` without the table); bounded IoError retries."""
        for _attempt in range(_RECOVERY_ATTEMPTS):
            try:
                self.system.reboot()
                db = self._build_db()
                if not db.table_exists(TABLE):
                    return db, None
                return db, sorted(db.dump_table(TABLE))
            except IoError:
                self.system.power_fail()
        self.violations.append(
            f"error: recovery did not survive {_RECOVERY_ATTEMPTS} attempts "
            "of transient IO failure"
        )
        return None

    # -- oracle --------------------------------------------------------

    def _check_recovery(self, rows, inflight_heads, epoch_members=()) -> None:
        """Ack-durability oracle over the recovered ``rows`` (``None``: no
        table); truncates the model's history to a legitimate shed."""
        if rows is None:
            self.violations.append(
                "ack-lost: table missing after recovery despite a durable "
                "pre-run checkpoint"
            )
            self._rebase([])
            return
        n = self.head
        floor = min(self.floor, n) if self.relaxed else n
        # Whole-epoch landing (group commit): the epoch's close mark
        # persisted before the lights went out, so *all* of its members
        # are durable — none of them acked.  Adopt them in commit order;
        # the clients' resubmissions are idempotent.
        if rows == self._rows_with(epoch_members) and rows != self.states[n]:
            for sid, ops in epoch_members:
                self._on_ack(sid, ops)
            return
        # In-flight landing: an unacknowledged head-of-queue txn whose
        # commit mark persisted before the lights went out.
        for sid, head in inflight_heads:
            if rows == self._rows_with([(sid, head)]):
                self._on_ack(sid, head)  # adopt: resubmission is idempotent
                return
        for i in range(n, floor - 1, -1):
            if rows == self.states[i]:
                if i < n:
                    # Truncate, do not rebase: the states between the
                    # last checkpoint and i still live only in the log,
                    # so a later cut may legitimately drop back to them.
                    self.shed_acked += n - i
                    self.states = self.states[: i + 1]
                    self.kv = dict(rows)
                return
        self.violations.append(
            f"ack-lost: recovered state ({len(rows)} rows) matches no allowed "
            f"boundary in [{floor}, {n}] — an acknowledged transaction was "
            "lost or rolled back"
        )
        self._rebase(rows)

    def _rebase(self, rows) -> None:
        """Restart the model from ``rows``; the durable image IS the floor."""
        self.kv = dict(rows)
        self.states = [sorted(self.kv.items())]
        self.floor = 0

    # -- jobs ----------------------------------------------------------

    def _storm_job(self):
        nvram = self.system.nvram
        while self.storms_done < self.scenario.storms:
            yield _STORM_INTERVAL_NS
            if nvram.fault_injector is None:
                return
            nvram.fault_injector.on_power_loss(nvram)
            self.storms_done += 1

    # -- main loop -----------------------------------------------------

    def run(self) -> Outcome:
        scenario = self.scenario
        system = self.system
        if scenario.plan is not None:
            system.inject_faults(scenario.plan)
        db = self._build_db()
        db.execute(DDL)
        # The table's existence must be durable before any chaos; the IO
        # injector caps failure streaks, so a bounded retry always lands.
        retry_io(_RECOVERY_ATTEMPTS, db.checkpoint)

        service_cls = SERVICES[scenario.sabotage]
        config = ServiceConfig(group_commit=scenario.group_commit)
        clients = make_clients(scenario.streams)

        epoch = 0
        while True:
            scheduler = Scheduler(system.clock)
            service = service_cls(
                db,
                config,
                seed=scenario.seed,
                on_ack=self._on_ack,
                on_apply=self._on_apply,
            )
            if not self._spawn_clients(scheduler, service, clients):
                break
            if self.storms_done < scenario.storms:
                scheduler.spawn(
                    "storms", self._storm_job(), daemon=True
                )
            # Fresh generator per epoch (abandon() closes the old one);
            # the collector's sample list spans all epochs.
            scheduler.spawn(
                "collector", self.collector.daemon(), daemon=True
            )
            armed = False
            if epoch < len(scenario.power_cycles):
                system.crash.arm(scenario.power_cycles[epoch])
                armed = True
            try:
                scheduler.run()
                if armed:
                    system.crash.disarm()
                self._absorb_stats(service)
                self.violations.extend(daemon_failures(scheduler))
                break
            except PowerFailure:
                inflight = [
                    (c.session_id, c.pending[0])
                    for c in clients
                    if c.pending and not c.gave_up
                ]
                members = service.epoch_members()
                self._power_cut(scheduler)
                self._absorb_stats(service)
                recovered = self._recover()
                if recovered is None:
                    return self._finish()
                db, rows = recovered
                self._check_recovery(rows, inflight, epoch_members=members)
                epoch += 1

        self.violations.extend(starved_clients(clients))

        # Every run ends by proving the final state is recoverable.
        if scenario.final_power_cycle:
            self.crashes += 1
            system.power_fail()
            recovered = self._recover()
            if recovered is None:
                return self._finish()
            db, rows = recovered
            self._check_recovery(rows, inflight_heads=())
        else:
            rows = sorted(db.dump_table(TABLE))
            if rows != self.states[-1]:
                self.violations.append(
                    "ack-lost: final state does not match the ack-log fold"
                )
        return self._finish()

    def _telemetry_summary(self) -> dict:
        """Final telemetry state + the oracle's determinism checks.

        Building the export twice must yield identical canonical JSON
        (any hidden nondeterminism — unsorted iteration, host-dependent
        values — trips here), and collector samples must be monotone in
        simulated time.  Both failures are chaos violations.
        """
        registry = self.system.telemetry
        if not registry.enabled:
            return {"enabled": False}
        doc = build_export(registry, self.collector)
        if canonical_json(doc) != canonical_json(
            build_export(registry, self.collector)
        ):
            self.violations.append("telemetry: export is not deterministic")
        samples = self.collector.samples
        times = [sample["t_ns"] for sample in samples]
        if times != sorted(times):
            self.violations.append(
                "telemetry: collector samples are not monotone in simulated time"
            )
        return {
            "enabled": True,
            "digest": export_digest(doc),
            "samples": len(samples),
            **registry.snapshot(),
        }

    def _finish(self) -> Outcome:
        telemetry = self._telemetry_summary()  # may add violations
        return self._outcome(
            storms=self.storms_done,
            shed_acked=self.shed_acked,
            sim_time_ms=int(self.system.clock.now_ns // 1_000_000),
            telemetry=telemetry,
        )


run_chaos = _Driver.run_scenario


# ----------------------------------------------------------------------
# trace (de)serialization
# ----------------------------------------------------------------------


scenario_to_dict = harness.to_json
scenario_from_dict = partial(
    harness.from_json, ChaosScenario, plan=FaultPlan.from_json
)


# ----------------------------------------------------------------------
# per-seed task (picklable, for parallel_map)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ChaosTask(SessionTask):
    """Everything one seed's chaos run needs, in picklable form."""

    faults: tuple = ("power",)
    storms: int = 0
    power_cycles: int = 1
    checkpoint_threshold: int = DEFAULT_CHAOS_THRESHOLD
    sabotage: str = ""
    group_commit: bool = False
    workload: str = "mobi"

    make_scenario = staticmethod(make_scenario)
    driver = _Driver


if __name__ == "__main__":
    from repro.service.cli import main

    raise SystemExit(main())
