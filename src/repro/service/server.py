"""The database service: admission, deadlines, degradation, maintenance.

One :class:`DatabaseService` fronts one :class:`repro.db.Database` for
many cooperative sessions.  Requests are generators (driven by the
:class:`~repro.service.sched.Scheduler`); the service enforces:

* **single-writer admission** — ``begin(owner=session)`` contention
  surfaces as :class:`BusyError`; the service polls the writer slot on
  the simulated clock until the configured busy timeout, exactly
  SQLite's ``sqlite3_busy_timeout`` behavior.
* **deadlines** — a request carries an absolute simulated-clock
  deadline; the service refuses to sleep past it and raises
  :class:`DeadlineExceeded` with the transaction rolled back.
* **retry/backoff** — transient :class:`IoError`s roll the transaction
  back and retry the whole request with exponential backoff + jitter.
* **degraded read-only mode** — repeated media failures (circuit
  breaker) or Heapo descriptor quarantine demote the service: writes are
  refused fast (:class:`CircuitOpenError` / :class:`ReadOnlyError`),
  reads keep being served from the committed snapshot.  The maintenance
  daemon re-promotes after a clean scrub (salvage-style log re-scan) and
  a successful checkpoint.

Why NVWAL makes this shape viable (paper Section 4): persist ordering is
enforced only between a transaction's logging and its commit mark, so
readers never wait on flush pipelining and writers serialize only at
commit — the admission policy above is the concurrency model the log
design already paid for.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.db.database import Database
from repro.errors import (
    BusyError,
    CircuitOpenError,
    DeadlineExceeded,
    DuplicateKey,
    IoError,
    MediaError,
    PowerFailure,
    ReadOnlyError,
    ReproError,
    SqlError,
)
from repro.service.breaker import CircuitBreaker
from repro.retry import call_with_retry, retry_delay_ns
from repro.telemetry.metrics import COUNT_BOUNDS
from repro.workloads.mobi import TABLE

READ_WRITE = "rw"
READ_ONLY = "ro"


#: How long a writer waits for the writer slot before BusyError.
BUSY_TIMEOUT_NS = 20_000_000  # 20 ms
#: Poll cadence while waiting for the writer slot or a parked commit ticket.
BUSY_POLL_NS = 200_000  # 0.2 ms
#: Quarantined Heapo descriptor slots that force a demotion.
QUARANTINE_LIMIT = 1
#: Maintenance daemon cadence (scrub, breaker probes, re-promotion).
MAINTENANCE_INTERVAL_NS = 2_000_000  # 2 ms
#: Cooperative pause between a transaction's statements.  This is what
#: makes the writer slot *contended*: the writer holds it across scheduler
#: steps, so other sessions really do busy-wait and readers really do
#: overlap an in-flight writer.
TXN_OP_PAUSE_NS = 100_000  # 0.1 ms
#: Group commit closes the epoch as soon as it holds this many txns ...
MAX_EPOCH_TXNS = 8
#: ... or once its first member has waited this long (the batcher daemon
#: enforces the age bound, so a lone writer is never parked much longer).
MAX_EPOCH_DELAY_NS = 400_000  # 0.4 ms
#: Cadence of the batcher daemon's epoch-age check.
BATCHER_POLL_NS = 100_000  # 0.1 ms


@dataclass(frozen=True)
class ServiceConfig:
    """What a deployment chooses; the cadences above and the retry
    backoff schedule (:mod:`repro.retry`) are constants."""

    #: Group commit: committed transactions join a shared WAL epoch and
    #: park until the epoch is closed — one flush + persist-barrier
    #: sequence covers the whole batch, and acks are released only after
    #: that barrier.
    group_commit: bool = False
    #: Consecutive media failures before the breaker trips (demotes).
    breaker_threshold: int = 2
    #: Simulated cooldown before a half-open health probe is allowed.
    breaker_cooldown_ns: int = 5_000_000  # 5 ms


@dataclass
class ServiceStats:
    """Counters the chaos driver and experiments report."""

    txns_acked: int = 0
    reads_served: int = 0
    busy_waits: int = 0
    busy_timeouts: int = 0
    io_retries: int = 0
    deadline_misses: int = 0
    checkpoint_failures: int = 0
    media_failures: int = 0
    demotions: int = 0
    promotions: int = 0
    rejected_read_only: int = 0
    rejected_breaker_open: int = 0
    scrubs: int = 0
    epochs_flushed: int = 0

    def as_dict(self) -> dict:
        return dict(vars(self))


class _CommitTicket:
    """One parked writer's claim on the open group-commit epoch."""

    __slots__ = ("session_id", "ops", "done", "error", "joined_ns")

    def __init__(self, session_id: str, ops) -> None:
        self.session_id = session_id
        self.ops = ops
        self.done = False
        self.error: BaseException | None = None
        #: Simulated time the commit point passed (telemetry: how long
        #: the writer was parked behind the barrier / replication gate).
        self.joined_ns = 0


class DatabaseService:
    """Single-writer/multi-reader service over one database."""

    def __init__(
        self,
        db: Database,
        config: ServiceConfig | None = None,
        seed: int = 0,
        on_ack=None,
        on_apply=None,
    ) -> None:
        self.db = db
        self.system = db.system
        self.clock = db.system.clock
        self.config = config or ServiceConfig()
        self.rng = random.Random((seed * 0xA24BAED4 + 0x9FB21C65) & 0xFFFFFFFF)
        self.breaker = CircuitBreaker(
            self.clock,
            failure_threshold=self.config.breaker_threshold,
            cooldown_ns=self.config.breaker_cooldown_ns,
            on_event=self._on_breaker_event,
        )
        self.mode = READ_WRITE
        self.demotion_reason = ""
        self.stats = ServiceStats()
        #: Called as ``on_ack(session_id, ops)`` the moment a transaction
        #: is acknowledged — the chaos oracle's commit log.
        self.on_ack = on_ack
        #: Called as ``on_apply(session_id, ops)`` when a transaction is
        #: applied into the open epoch (visible to readers, not yet
        #: durable or acknowledged) — the chaos freshness model.
        self.on_apply = on_apply
        self._seen_quarantine = len(self.system.heapo.quarantined_slots())
        #: Parked writers of the open epoch, in commit order.
        self._epoch_queue: list[_CommitTicket] = []
        self._epoch_opened_ns = 0
        #: The batch currently inside _flush_epoch — kept visible so a
        #: power failure mid-flush still exposes the epoch's members to
        #: the crash oracle (the close mark may or may not have landed).
        self._flushing: tuple[_CommitTicket, ...] = ()
        #: Optional :class:`repro.replication.ship.Replicator`.  When
        #: set, commit acknowledgements wait behind the replication gate
        #: (mode-dependent: sync/semisync/async) instead of being sent
        #: the moment the transaction is locally durable.
        self.replicator = None
        #: Mode transitions: (old_mode, new_mode, cause, at_ns).
        self.mode_events: list[tuple[str, str, str, int]] = []
        registry = self.system.telemetry
        self.telemetry = registry
        self._t_admission = registry.histogram("service.admission_wait_ns")
        self._t_commit = registry.histogram("service.commit_latency_ns")
        self._t_retry = registry.histogram("service.retry_backoff_ns")
        self._t_epoch = registry.histogram(
            "service.epoch_txns", bounds=COUNT_BOUNDS
        )
        self._t_barrier = registry.histogram("service.barrier_wait_ns")
        #: The ServiceStats fields that are also telemetry counters.
        self._counters = {
            name: registry.counter(f"service.{name}")
            for name in (
                "txns_acked", "deadline_misses", "media_failures", "demotions",
                "promotions",
            )
        }
        self._c_breaker_trips = registry.counter("service.breaker_trips")

    def _count(self, name: str) -> None:
        """One event with a :class:`ServiceStats` field and a
        ``service.<name>`` counter: both move here, and only here."""
        setattr(self.stats, name, getattr(self.stats, name) + 1)
        self._counters[name].inc()

    def _on_breaker_event(
        self, old: str, new: str, cause: str, at_ns: int
    ) -> None:
        self.telemetry.event("service.breaker", old=old, new=new, cause=cause)
        if old == "closed" and new == "open":
            self._c_breaker_trips.inc()

    def _note_mode(self, old: str, new: str, cause: str) -> None:
        self.mode_events.append((old, new, cause, int(self.clock.now_ns)))
        self.telemetry.event("service.mode", old=old, new=new, cause=cause)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def submit_txn(self, session_id: str, ops, deadline_ns: float | None = None):
        """Generator: run one write transaction for ``session_id``.

        ``ops`` are keyed-table operations (``("insert", k, v)`` /
        ``("update", k, v)`` / ``("delete", k, None)``) applied
        atomically.  Yields simulated sleeps (busy polling, retry
        backoff); returns the number of applied ops once acknowledged.
        Raises the admission/robustness errors documented in the module
        docstring; on any raise the transaction is rolled back and was
        **not** acknowledged.
        """
        attempt = 0
        tracer = self.telemetry.tracer
        request_start = int(self.clock.now_ns)
        root = tracer.start("txn")
        while True:
            self._check_writable()
            self._check_deadline(deadline_ns)
            try:
                admit_start = int(self.clock.now_ns)
                admit_span = tracer.start("admission", parent=root)
                yield from self._acquire_writer(session_id, deadline_ns)
                tracer.finish(admit_span)
                self._t_admission.observe(int(self.clock.now_ns) - admit_start)
                try:
                    applied = yield from self._apply_ops(ops, deadline_ns)
                    commit_span = tracer.start("commit", parent=root)
                    if self.config.group_commit:
                        ticket = self._join_epoch(session_id, ops)
                        yield from self._await_ticket(ticket)
                    elif self.replicator is not None:
                        self._commit(session_id)
                        # Durable locally; the ack waits behind the
                        # replication gate (the replicator calls _ack
                        # and releases the ticket in sequence order).
                        ticket = _CommitTicket(session_id, ops)
                        ticket.joined_ns = int(self.clock.now_ns)
                        self.replicator.gate((ticket,))
                        yield from self._await_ticket(ticket)
                    else:
                        self._commit(session_id)
                        self._ack(session_id, ops)
                    tracer.finish(commit_span)
                    self._t_commit.observe(int(self.clock.now_ns) - request_start)
                    tracer.finish(root)
                    return applied
                except BaseException:
                    # PowerFailure included: rollback only touches
                    # volatile state, and leaving the owner slot held
                    # would wedge every later session.  If the machine
                    # is already dead the rollback itself blows up —
                    # volatile state is gone anyway, so the original
                    # exception is the one that must propagate.
                    if self.db.in_transaction:
                        try:
                            self.db.rollback(owner=session_id)
                        except ReproError:
                            pass
                    raise
            except MediaError:
                self._media_failure()
                raise
            except IoError as exc:
                try:
                    delay = retry_delay_ns(
                        attempt, self.rng, self.clock, deadline_ns, exc
                    )
                except DeadlineExceeded:
                    # The budget granted the retry; the deadline did not.
                    self.stats.io_retries += 1
                    self._count("deadline_misses")
                    raise
                attempt += 1
                self.stats.io_retries += 1
                self._t_retry.observe(int(delay))
                yield delay

    def _acquire_writer(self, session_id: str, deadline_ns: float | None):
        start_ns = self.clock.now_ns
        while True:
            try:
                self.db.begin(owner=session_id)
                return
            except BusyError:
                waited = self.clock.elapsed_since(start_ns)
                if waited + BUSY_POLL_NS > BUSY_TIMEOUT_NS:
                    self.stats.busy_timeouts += 1
                    raise
                self._check_deadline(deadline_ns)
                self.stats.busy_waits += 1
                yield BUSY_POLL_NS

    def _apply_ops(self, ops, deadline_ns: float | None):
        """Generator: apply keyed ops, pausing between statements.

        Inserts act as upserts: after an indeterminate crash the client
        resubmits a transaction that *may* have landed, and replaying
        the same final value must converge instead of raising
        :class:`DuplicateKey`.
        """
        for i, (kind, key, value) in enumerate(ops):
            if i:
                yield TXN_OP_PAUSE_NS
            self._check_deadline(deadline_ns)
            if kind == "insert":
                try:
                    self.db.execute(
                        f"INSERT INTO {TABLE} VALUES (?, ?)", (key, value)
                    )
                except DuplicateKey:
                    self.db.execute(
                        f"UPDATE {TABLE} SET v = ? WHERE k = ?", (value, key)
                    )
            elif kind == "update":
                self.db.execute(
                    f"UPDATE {TABLE} SET v = ? WHERE k = ?", (value, key)
                )
            elif kind == "delete":
                self.db.execute(f"DELETE FROM {TABLE} WHERE k = ?", (key,))
            else:
                raise SqlError(f"unknown service op kind: {kind!r}")
        return len(ops)

    def _commit(self, session_id: str) -> None:
        try:
            self.db.commit(owner=session_id)
        except IoError:
            if self.db.in_transaction:
                raise  # commit itself failed; caller rolls back and retries
            # The transaction is durable; only the auto-checkpoint failed.
            # That is a maintenance problem, not the client's.
            self.stats.checkpoint_failures += 1

    def _ack(self, session_id: str, ops) -> None:
        self._count("txns_acked")
        if self.on_ack is not None:
            self.on_ack(session_id, ops)

    # ------------------------------------------------------------------
    # commit coalescer (group commit)
    # ------------------------------------------------------------------

    def _join_epoch(self, session_id: str, ops) -> _CommitTicket:
        """Commit into the shared epoch and enqueue the durable-ack claim.

        The writer slot is released here; durability (and the ack) comes
        when the epoch is flushed — immediately if this commit reached
        the size threshold, otherwise when the batcher daemon's age bound
        fires.
        """
        self.db.group_commit(owner=session_id)
        ticket = _CommitTicket(session_id, ops)
        ticket.joined_ns = int(self.clock.now_ns)
        self._epoch_queue.append(ticket)
        if len(self._epoch_queue) == 1:
            self._epoch_opened_ns = self.clock.now_ns
        if self.on_apply is not None:
            self.on_apply(session_id, ops)
        if len(self._epoch_queue) >= MAX_EPOCH_TXNS:
            self._flush_epoch()
        return ticket

    def _await_ticket(self, ticket: _CommitTicket):
        """Generator: park until the epoch barrier releases the ticket.

        The transaction's commit point has passed — it *will* be in the
        next closed epoch — so the request deadline no longer applies:
        abandoning the wait could strand a transaction that becomes
        durable without its client ever learning so.
        """
        while not ticket.done:
            yield BUSY_POLL_NS
        if ticket.error is not None:
            raise ticket.error

    def _flush_epoch(self) -> None:
        """Close the epoch: one barrier sequence, then ack every member.

        Acks are emitted in the same scheduler step as the barrier (no
        yield in between), so there is no window where a transaction is
        durable-and-acked for some members but lost for others.
        """
        if not self._epoch_queue:
            if self.db.wal.group_open:
                # Orphan epoch (no parked writers): just land it.
                self.db.flush_group()
            return
        tickets = self._epoch_queue
        self._epoch_queue = []
        self._flushing = tuple(tickets)
        self._t_epoch.observe(len(tickets))
        try:
            self.db.flush_group()
        except PowerFailure:
            raise  # _flushing stays set: the oracle reads the members
        except ReproError as exc:
            if self.db.wal.group_open:
                # The close itself failed: the epoch is not durable.
                # Fail every parked writer; their sessions retry.
                for ticket in tickets:
                    ticket.error = exc
                    ticket.done = True
                self._flushing = ()
                raise
            # Epoch closed durably; only the auto-checkpoint failed.
            self.stats.checkpoint_failures += 1
        if self.replicator is not None:
            # Epoch durable locally; acks and ticket release wait behind
            # the replication gate (mode-dependent).
            self.stats.epochs_flushed += 1
            self._flushing = ()
            self.replicator.gate(tuple(tickets))
            return
        for ticket in tickets:
            self._ack(ticket.session_id, ticket.ops)
        self.stats.epochs_flushed += 1
        barrier_ns = int(self.clock.now_ns)
        for ticket in tickets:
            self._t_barrier.observe(barrier_ns - ticket.joined_ns)
            ticket.done = True
        self._flushing = ()

    def commit_batcher(self):
        """Daemon generator: close the epoch once its age bound expires.

        The size bound is enforced inline by :meth:`_join_epoch`; this
        daemon guarantees progress for partially filled epochs (a lone
        writer is parked for at most ~:data:`MAX_EPOCH_DELAY_NS`)."""
        while True:
            yield BATCHER_POLL_NS
            if not self._epoch_queue:
                continue
            age = self.clock.elapsed_since(self._epoch_opened_ns)
            if age >= MAX_EPOCH_DELAY_NS:
                self._flush_epoch()

    def epoch_members(self) -> list[tuple[str, object]]:
        """Transactions sitting in the open (or mid-flush) epoch.

        After a power failure these are the crash oracle's whole-epoch
        adoption candidates: either the close mark landed and *all* of
        them are durable, or it did not and none is."""
        return [
            (t.session_id, t.ops) for t in (*self._flushing, *self._epoch_queue)
        ]

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def submit_read(
        self, session_id: str, sql: str, params: tuple = (),
        deadline_ns: float | None = None,
    ):
        """Generator: serve one SELECT from the committed snapshot.

        Reads are admitted in both modes — serving reads while degraded
        is the whole point of degrading instead of dying.  An in-flight
        writer is invisible: the pager rewinds dirtied pages to their
        committed images for the duration of the read.
        """
        self._check_deadline(deadline_ns)
        rows = yield from call_with_retry(
            lambda: self.db.snapshot_query(sql, params),
            self.rng,
            self.clock,
            deadline_ns=deadline_ns,
        )
        self.stats.reads_served += 1
        return rows

    # ------------------------------------------------------------------
    # degradation / promotion
    # ------------------------------------------------------------------

    def _check_writable(self) -> None:
        self._check_quarantine()
        if self.mode == READ_ONLY:
            if self.demotion_reason == "breaker":
                self.stats.rejected_breaker_open += 1
                raise CircuitOpenError(
                    "media circuit breaker is open; writes refused"
                )
            self.stats.rejected_read_only += 1
            raise ReadOnlyError(
                f"service degraded to read-only ({self.demotion_reason})"
            )

    def _check_deadline(self, deadline_ns: float | None) -> None:
        if deadline_ns is not None and self.clock.now_ns > deadline_ns:
            self._count("deadline_misses")
            raise DeadlineExceeded(
                f"request deadline passed at t={self.clock.now_ns:.0f}ns"
            )

    def _check_quarantine(self) -> None:
        slots = len(self.system.heapo.quarantined_slots())
        if slots > self._seen_quarantine:
            self._seen_quarantine = slots
            if slots >= QUARANTINE_LIMIT:
                self._demote("quarantine")

    def _demote(self, reason: str) -> None:
        if self.mode == READ_ONLY:
            return
        self.mode = READ_ONLY
        self.demotion_reason = reason
        self._count("demotions")
        self._note_mode(READ_WRITE, READ_ONLY, reason)

    def _promote(self) -> None:
        old = self.mode
        self.mode = READ_WRITE
        self.demotion_reason = ""
        self.breaker.record_success()
        self._count("promotions")
        if old != READ_WRITE:
            self._note_mode(old, READ_WRITE, "maintenance_repair")

    def _media_failure(self) -> None:
        """A request or a scrub hit bad media: feed the breaker, which
        demotes the service once it trips."""
        self._count("media_failures")
        self.breaker.record_failure()
        if self.breaker.state != "closed":
            self._demote("breaker")

    # ------------------------------------------------------------------
    # maintenance daemon
    # ------------------------------------------------------------------

    def maintenance(self):
        """Daemon generator: scrub, probe the breaker, re-promote.

        Every tick while healthy, a cheap quarantine check runs.  While
        degraded, the daemon attempts the re-promotion sequence once the
        breaker allows a probe: scrub the log (read-only salvage-style
        re-scan), checkpoint the committed images out of NVRAM into the
        database file (which frees the decayed log blocks), then scrub
        again — clean means the hardware serves reads correctly and the
        durable state has been rebuilt, so read-write mode is safe.
        """
        while True:
            yield MAINTENANCE_INTERVAL_NS
            self._check_quarantine()
            if self.mode == READ_WRITE:
                # Background health check: a corrupt scrub while healthy
                # feeds the breaker exactly like a request-path failure.
                report = self._scrub()
                if report is not None and report.corruption_detected:
                    self._media_failure()
                continue
            if not self.breaker.allow_probe():
                continue  # still cooling down
            if self.db.in_transaction:
                continue  # a pre-demotion writer is still unwinding
            if self._epoch_queue or self.db.wal.group_open:
                # A pre-demotion epoch is still open; the repair
                # checkpoint cannot run until it lands.
                try:
                    self._flush_epoch()
                except ReproError:
                    continue
            if self._repair():
                self._promote()

    def _scrub(self):
        """One read-only log scrub; None when the probe itself blew up."""
        self.stats.scrubs += 1
        try:
            return self.db.wal.verify_log()
        except PowerFailure:
            raise  # power loss is never a probe failure to absorb
        except Exception:  # noqa: BLE001 - a probe must never kill the daemon
            return None

    def _repair(self) -> bool:
        """The re-promotion sequence; True when the service is healthy."""
        report = self._scrub()
        if report is None:
            self.breaker.record_failure()
            return False
        try:
            # Checkpoint writes the committed DRAM images to the database
            # file and frees every NVRAM log block — including decayed
            # ones — so it doubles as the salvage step.
            self.db.checkpoint()
        except IoError:
            self.stats.checkpoint_failures += 1
            return False
        after = self._scrub()
        if after is None or after.corruption_detected:
            self.breaker.record_failure()
            return False
        return True

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def checkpoint_now(self):
        """Foreground checkpoint (demo / shutdown path)."""
        self._flush_epoch()  # an open epoch must land first
        return self.db.checkpoint()
