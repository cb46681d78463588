"""Log shipping: the primary's sealed-epoch archive, the fault-injectable
channel, and the replicator that gates commit acknowledgements.

**ShippingLog** taps ``wal.on_commit`` to capture the frames of every
committed transaction the moment they are durable on the primary, and
seals them — one sealed *entry* per group-commit epoch (or per standalone
commit without group commit).  Entries get dense sequence numbers
starting above ``base_seq`` (0 for the original primary; the promotion
watermark for a promoted one).  Entries are archived **decoded**: the
wire blob is produced at send time so it always carries the *current*
term, fencing followers against stale pre-failover traffic.

**Channel** is a simulated one-way link with fixed latency and an
optional :class:`repro.faults.ShipFaultInjector` that drops, duplicates,
reorders, and bit-flips batches in flight.

**Replicator** is the cluster daemon: it pumps sends (window-limited,
resent on timeout), delivers due batches into followers, samples
replication lag, and releases parked commit tickets once the configured
durability mode is satisfied:

* ``sync`` — every *live* follower has the epoch durable;
* ``semisync`` — at least one live follower does;
* ``async`` — released immediately (local durability only).

With no live follower at all, every mode degrades to local durability —
blocking writes forever on a dead fleet would turn a replication outage
into a total outage.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, replace

from repro.faults.inject import ShipFaultInjector
from repro.replication.segment import FLAG_SNAPSHOT, Segment, encode_segment

MODES = ("sync", "semisync", "async")

LINK_LATENCY_NS = 300_000  # one-way, primary→follower
POLL_NS = 150_000  # cadence of the replicator daemon's pump
RESEND_NS = 1_500_000  # a batch unacknowledged this long is sent again
SEND_WINDOW = 4  # epochs per catch-up send


@dataclass(frozen=True)
class LogEntry:
    """One sealed epoch: its frames plus the transactions it carried."""

    seq: int
    frames: tuple
    metas: tuple  # ((session_id, ops), ...) in commit order
    sealed_ns: int


class ShippingLog:
    """Capture committed frames from a WAL and seal them into entries.

    Entries are held decoded in memory until :meth:`evict_through`
    releases them — the replicator evicts everything already durable in
    the segment archive, acked, and applied by every live follower, so
    the in-memory tail stays bounded at a few epochs (``peak_entries``
    records the high-water mark).
    """

    def __init__(self, wal, clock, base_seq: int = 0, on_seal=None) -> None:
        self.clock = clock
        self.base_seq = base_seq
        self.entries: list[LogEntry] = []
        self.on_seal = on_seal
        self._pending: list = []
        self._evicted = 0
        self.peak_entries = 0
        wal.on_commit = self._collect

    def _collect(self, txn_frames) -> None:
        for frames in txn_frames:
            self._pending.extend(frames)

    @property
    def head_seq(self) -> int:
        return self.base_seq + self._evicted + len(self.entries)

    def seal(self, metas) -> LogEntry:
        """Seal everything committed since the last seal as one entry."""
        entry = LogEntry(
            seq=self.head_seq + 1,
            frames=tuple(self._pending),
            metas=tuple(metas),
            sealed_ns=self.clock.now_ns,
        )
        self._pending = []
        self.entries.append(entry)
        self.peak_entries = max(self.peak_entries, len(self.entries))
        if self.on_seal is not None:
            self.on_seal(entry)
        return entry

    def entry(self, seq: int) -> LogEntry | None:
        index = seq - self.base_seq - self._evicted - 1
        if 0 <= index < len(self.entries):
            return self.entries[index]
        return None

    def evict_through(self, seq: int) -> int:
        """Drop entries up to ``seq`` from memory (archived elsewhere)."""
        n = min(len(self.entries), seq - self.base_seq - self._evicted)
        if n <= 0:
            return 0
        del self.entries[:n]
        self._evicted += n
        return n


class Channel:
    """One-way primary→follower link with latency and injected faults."""

    def __init__(self, clock, latency_ns: int, injector=None) -> None:
        self.clock = clock
        self.latency_ns = latency_ns
        self.injector = injector
        self._seq = 0
        #: min-heap of (deliver_ns, seq, payload)
        self._inflight: list = []

    def send(self, payload: bytes) -> None:
        fates = (
            self.injector.deliveries(payload)
            if self.injector is not None
            else [(0, payload)]
        )
        for extra_delay_ns, data in fates:
            self._seq += 1
            deliver_ns = self.clock.now_ns + self.latency_ns + extra_delay_ns
            heapq.heappush(self._inflight, (deliver_ns, self._seq, data))

    def poll(self) -> list[bytes]:
        """Pop every batch whose delivery time has arrived."""
        due = []
        while self._inflight and self._inflight[0][0] <= self.clock.now_ns:
            due.append(heapq.heappop(self._inflight)[2])
        return due

    def pending(self) -> int:
        return len(self._inflight)


class Replicator:
    """Ships sealed entries to followers and gates acks on durability."""

    def __init__(
        self,
        clock,
        shiplog: ShippingLog,
        followers,
        mode: str,
        archive,
        term: int = 1,
        ship_spec=None,
        ship_seed: int = 0,
        on_release=None,
        telemetry=None,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown durability mode {mode!r}")
        self.clock = clock
        self.shiplog = shiplog
        self.followers = list(followers)
        self.mode = mode
        self.term = term
        self.on_release = on_release
        #: The service whose tickets this replicator releases (set by the
        #: cluster when the service is built).
        self.service = None
        #: The ext4 cold store (:class:`repro.archive.SegmentArchive`):
        #: reseeds come from disk (floor snapshot + epoch files) and the
        #: in-memory shiplog is evicted behind it.
        self.archive = archive
        self._last_gc_head = archive.durable_head
        self.reseeds_from_archive = 0
        self.channels = {
            node.node_id: Channel(
                clock,
                LINK_LATENCY_NS,
                ShipFaultInjector(ship_spec, (ship_seed * 31 + node.node_id) & 0x7FFFFFFF)
                if ship_spec is not None
                else None,
            )
            for node in self.followers
        }
        self._last_send_ns = {node.node_id: -(10**18) for node in self.followers}
        #: (seq, [tickets]) awaiting the durability criterion, seq order.
        self._waiting: deque = deque()
        #: seq -> delay between seal and follower apply, one per apply.
        self.lag_samples: list[int] = []
        #: seq -> frozenset of follower ids durable at release time.
        self.ack_records: dict[int, frozenset] = {}
        self.released_seq = shiplog.base_seq
        # Standalone replicators (unit tests) run without a registry: a
        # disabled local one hands out shared no-op instruments.
        if telemetry is None:
            from repro.telemetry.metrics import MetricsRegistry

            telemetry = MetricsRegistry(clock, enabled=False)
        self.telemetry = telemetry
        self._t_lag = telemetry.histogram("repl.lag_ns")
        self._t_gate = telemetry.histogram("repl.ack_gate_wait_ns")
        self._c_sends = telemetry.counter("repl.sends")
        self._c_resends = telemetry.counter("repl.resends")
        self._g_released = telemetry.gauge("repl.released_seq")
        self._c_reseed_archive = telemetry.counter("repl.reseed_from_archive")
        self._t_reseed = telemetry.histogram("archive.reseed_ns")

    # -- commit gating ------------------------------------------------------

    def gate(self, tickets) -> LogEntry:
        """Seal one epoch's tickets and park them behind the mode gate."""
        entry = self.shiplog.seal([(t.session_id, t.ops) for t in tickets])
        self._waiting.append((entry.seq, list(tickets)))
        self.tick()
        return entry

    def _live(self):
        return [node for node in self.followers if node.alive]

    def _satisfied(self, seq: int) -> bool:
        live = self._live()
        if self.mode == "async" or not live:
            return True
        if self.mode == "sync":
            return all(node.durable_seq >= seq for node in live)
        return any(node.durable_seq >= seq for node in live)

    def _release_ready(self) -> None:
        while self._waiting and self._satisfied(self._waiting[0][0]):
            seq, tickets = self._waiting.popleft()
            acked_by = frozenset(
                node.node_id
                for node in self.followers
                if node.alive and node.durable_seq >= seq
            )
            self.ack_records[seq] = acked_by
            self.released_seq = seq
            self._g_released.set(seq)
            release_ns = int(self.clock.now_ns)
            for ticket in tickets:
                if self.service is not None:
                    self.service._ack(ticket.session_id, ticket.ops)
                joined = getattr(ticket, "joined_ns", 0)
                if joined:
                    self._t_gate.observe(release_ns - joined)
                ticket.done = True
            if self.on_release is not None:
                self.on_release(seq, acked_by)

    # -- shipping -----------------------------------------------------------

    def _segment(self, entry: LogEntry) -> Segment:
        """``entry`` as a segment of the current term."""
        return Segment(
            seq=entry.seq,
            term=self.term,
            txns=len(entry.metas),
            frames=entry.frames,
        )

    def _encode_entry(self, entry: LogEntry) -> bytes:
        return encode_segment(self._segment(entry))

    def _available(self, seq: int) -> bool:
        """Whether the epoch at ``seq`` can still be served from memory
        or the cold store."""
        if self.shiplog.entry(seq) is not None:
            return True
        return self.archive.segment_at(seq) is not None

    def _entry_blob(self, seq: int) -> bytes | None:
        """Wire blob for one epoch: live entry first, then the archive.

        Archived epochs are re-encoded under the *current* term (same
        fencing rule as live entries), so a follower catching up from
        disk cannot be confused with stale pre-failover traffic.
        """
        entry = self.shiplog.entry(seq)
        if entry is not None:
            return self._encode_entry(entry)
        segment = self.archive.segment_at(seq)
        if segment is None:
            return None
        return encode_segment(replace(segment, term=self.term))

    def _catchup_blob(self, node, head: int, stale: bool) -> bytes | None:
        """Build one send for a behind/stale follower.

        A stale follower (or one whose next epoch was GC'd or evicted) is
        *reset* with the on-disk floor snapshot and then rolled forward
        with archived epochs — the promoted primary never has to hold a
        full state transfer in memory.
        """
        start_ns = self.clock.now_ns
        cursor = node.durable_seq
        parts: list[bytes] = []
        reseeded = False
        if stale or (cursor < head and not self._available(cursor + 1)):
            floor = self.archive.floor_segment()
            if floor is None:
                # The floor snapshot was destroyed: nothing to reset the
                # follower with until promotion's ``ensure_floor`` rebuilds it.
                return None
            parts.append(
                encode_segment(
                    replace(floor, term=self.term, txns=0, flags=FLAG_SNAPSHOT)
                )
            )
            cursor = floor.seq
            reseeded = True
            self._c_reseed_archive.inc()
            self.reseeds_from_archive += 1
        hi = min(head, cursor + SEND_WINDOW)
        for seq in range(cursor + 1, hi + 1):
            blob = self._entry_blob(seq)
            if blob is None:
                break
            parts.append(blob)
        if reseeded:
            self._t_reseed.observe(int(self.clock.now_ns - start_ns))
        return b"".join(parts)

    def _pump_sends(self, node, channel: Channel, now_ns: int) -> None:
        head = self.shiplog.head_seq
        # A follower whose durable cursor runs *past* the base under an
        # older term holds divergent history and needs a full snapshot.
        # One *below* the base cannot be caught up by in-memory entries
        # (they were truncated at promotion), but the archive serves
        # epochs below the base from disk, so the follower just climbs;
        # flagging it stale here would reset it to the floor on every
        # pump and it could never out-climb the send window.  A follower
        # sitting exactly at the base — including a fresh one at seq 0,
        # term 0 — catches up through ordinary entries, adopting the
        # term as it applies.
        stale = node.term < self.term and node.durable_seq > self.shiplog.base_seq
        if not stale and node.durable_seq >= head:
            return
        idle = channel.pending() == 0
        timed_out = now_ns - self._last_send_ns[node.node_id] >= RESEND_NS
        if not idle and not timed_out:
            return
        blob = self._catchup_blob(node, head, stale)
        if not blob:
            return
        channel.send(blob)
        self._c_sends.inc()
        if not idle:
            self._c_resends.inc()  # timed out with a batch still in flight
        self._last_send_ns[node.node_id] = now_ns

    def tick(self) -> None:
        """One pump: deliver due batches, ingest, send, release."""
        now_ns = self.clock.now_ns
        for node in self.followers:
            channel = self.channels[node.node_id]
            due = channel.poll()
            if not node.alive:
                continue  # link down: due batches are lost on the floor
            for payload in due:
                before = node.durable_seq
                node.ingest(payload)
                for seq in range(before + 1, node.durable_seq + 1):
                    entry = self.shiplog.entry(seq)
                    if entry is not None:
                        self.lag_samples.append(now_ns - entry.sealed_ns)
                        self._t_lag.observe(int(now_ns - entry.sealed_ns))
            self._pump_sends(node, channel, now_ns)
        self._release_ready()

    # -- the cold store -----------------------------------------------------

    def _archive_work(self) -> None:
        """Spill sealed epochs to the cold store, advance the floor, GC,
        and bound the in-memory log.

        Runs from the daemon only, never from the commit-path
        :meth:`tick`: the NVWAL ack path must not wait on disk I/O.
        """
        archive = self.archive
        while archive.head < self.shiplog.head_seq:
            entry = self.shiplog.entry(archive.head + 1)
            if entry is None:
                break  # unreachable while eviction trails the archive
            archive.append(self._segment(entry))
        archive.maybe_advance_floor(self.term)
        if archive.durable_head - self._last_gc_head >= archive.config.gc_every:
            archive.gc(
                min((node.durable_seq for node in self._live()), default=None)
            )
            self._last_gc_head = archive.durable_head
        # Evict what is durable on disk, released to clients, and applied
        # by every live follower — resends and lag sampling for the live
        # fleet stay in memory; dead followers catch up from the archive.
        bound = min(archive.durable_head, self.released_seq)
        for node in self._live():
            bound = min(bound, node.durable_seq)
        self.shiplog.evict_through(bound)

    def daemon(self):
        """Scheduler daemon: tick the pump forever."""
        while True:
            yield POLL_NS
            self.tick()
            self._archive_work()
