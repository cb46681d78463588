"""Replication chaos: storms against the shipped log, and the oracle.

One scenario runs a full replicated deployment — primary service under
concurrent client sessions, N follower machines, a fault-injected
shipping channel — and audits the replication promises:

* **bounded staleness** — a follower's snapshot reads always equal the
  sealed history *at its own durable cursor*: never a torn or unsealed
  write, never rows outside the committed prefix;
* **mode-durability** — a transaction acknowledged under
  ``sync``/``semisync`` survives primary power loss as long as one of
  the followers that held it durable at ack time survives; ``async``
  promises local durability only;
* **failover** — promotion elects the longest durable prefix among live
  followers; everything acknowledged under the mode's promise is still
  there after the new primary takes over, and every surviving follower
  converges to the new history;
* **liveness** — clients never wedge behind the replication gate
  (enforced with the scheduler's deadline watchdog), and followers
  catch up to the head once the storm ends.

The model is keyed to *sealed epochs*: ``states[s]`` is the row set
after the first ``s`` sealed epochs, maintained by the shipping log's
``on_seal`` callback — the exact stream followers replay.  Failover
truncates the model to the promotion watermark; released epochs above
it are checked against the ack records (who held them durable) before
being declared legitimately lost.

The same storms also exercise the segment archive: sealed epochs spill
to ext4 segment files, power cuts land mid-archive-write, GC races slow
followers, and post-failover catch-up reseeds from disk.  Two
archive-specific oracles ride along: every GC'd epoch must be at or
below ``min(live fleet's durable cursor, checkpoint floor)``
(``gc-premature`` otherwise), and a caught-up follower's pages must be
*byte-identical* to the primary's however it caught up.

``sabotage`` names a planted bug the oracle must catch, each a subclass
of the product class it breaks (:data:`SABOTAGED_CLUSTERS`): ``"torn"`` —
followers skip segment verification and the primary ships one
deliberately torn segment; ``"gc"`` — the archive GC ignores follower
cursors and the floor (trimming epochs a follower still needs).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro import harness
from repro.archive import ArchiveConfig, SegmentArchive
from repro.errors import ChecksumError, PowerFailure
from repro.faults import FaultPlan, IoFaultSpec, ShipFaultSpec
from repro.replication.cluster import Cluster, ReplicationConfig
from repro.replication.node import FollowerNode
from repro.replication.segment import decode_stream
from repro.replication.ship import Replicator
from repro.service.chaos import (
    READ_SQL,
    Outcome,
    SessionDriver,
    SessionTask,
    daemon_failures,
    make_clients,
    placement_rng,
    session_streams,
    starved_clients,
)
from repro.service.sched import Scheduler
from repro.service.server import ServiceConfig
from repro.wal.base import SyncMode
from repro.wal.frames import NV_HEADER_SIZE, encode_nv_frame
from repro.wal.nvwal import SCHEMES
from repro.workloads.mobi import TABLE, generate_txns

#: Per-seed scheme rotation: one eager, one lazy-sync, one checksum.
ROTATION = ("uh_ls_diff", "eager", "uh_cs_diff")

#: Per-seed durability-mode rotation.
MODE_ROTATION = ("semisync", "sync", "async")

_GRIM_POLL_NS = 100_000
_SETTLE_POLL_NS = 200_000
#: Cadence of each follower's bounded-staleness read.
_READ_INTERVAL_NS = 600_000
#: Budget for followers to reach the head after the clients drain.
_SETTLE_NS = 60_000_000
#: Absolute sim-time liveness deadline for the client phase.
_DEADLINE_NS = 4_000_000_000
#: Aggressive archive cadences (vs the production defaults) so short storms
#: still roll files, advance the floor, and GC.
_ARCHIVE = ArchiveConfig(epochs_per_file=4, snapshot_every=12, gc_every=4)


@dataclass(frozen=True)
class ReplicationScenario:
    """One reproducible replication chaos experiment (JSON round-trips)."""

    seed: int
    scheme: str
    mode: str
    #: per-session transaction streams (see service chaos).
    streams: tuple
    followers: int = 2
    #: only ``plan.ship`` is used — channel faults, not device faults.
    plan: FaultPlan | None = None
    #: simulated time at which the primary machine power-fails (0 = never).
    writer_kill_ns: int = 0
    #: ((follower_idx, down_ns, up_ns), ...); up_ns 0 = stays down.
    follower_kills: tuple = ()
    #: A planted bug by name (:data:`SABOTAGED_CLUSTERS`); "" for none.
    sabotage: str = ""
    group_commit: bool = True


class _UnverifyingFollower(FollowerNode):
    """``"torn"``, the bug: segments are applied without their integrity
    checks (its own fold loop: swallowing the error per frame is the bug)."""

    def _decode(self, payload: bytes):
        return decode_stream(payload, verify=False)

    def _fold_frames(self, frames, base_for):
        final: dict[int, bytes] = {}
        for frame in frames:
            base = final.get(frame.page_no)
            if base is None:
                base = base_for(frame.page_no)
            try:
                final[frame.page_no] = frame.apply_to(base)
            except ChecksumError:
                pass  # a broken extent list is skipped, divergence and all
        return final


class _TearingReplicator(Replicator):
    """``"torn"``, the trigger: the first frame-bearing, transaction-
    bearing epoch at or above seq 2 goes out torn, however often it is
    sent (a verifying follower would reject it every time)."""

    _torn_seq: int | None = None

    def _encode_entry(self, entry) -> bytes:
        blob = super()._encode_entry(entry)
        if self._torn_seq is None and entry.frames and entry.metas and entry.seq >= 2:
            self._torn_seq = entry.seq
        if entry.seq != self._torn_seq:
            return blob
        # Three bytes spread across the last frame's payload are flipped,
        # so the damage cannot hide entirely in dead page space;
        # checksums and close word stay as encoded.
        last_frame = entry.frames[-1]
        torn = bytearray(blob)
        start = len(blob) - len(encode_nv_frame(last_frame)) + NV_HEADER_SIZE
        span = max(1, len(last_frame.payload))
        for frac in (0, span // 3, 2 * span // 3):
            torn[min(start + frac, len(torn) - 1)] ^= 0x10
        return bytes(torn)


class _PrematureGcArchive(SegmentArchive):
    """``"gc"``: the trim runs up to the archived head, ignoring follower
    cursors and the checkpoint floor."""

    def _gc_limit(self, min_live_cursor):
        return self.head


class _TornCluster(Cluster):
    follower_class = _UnverifyingFollower
    replicator_class = _TearingReplicator


class _GcCluster(Cluster):
    archive_class = _PrematureGcArchive


#: ``ReplicationScenario.sabotage`` value -> the cluster that has the bug.
SABOTAGED_CLUSTERS = {"": Cluster, "torn": _TornCluster, "gc": _GcCluster}

#: ``--faults`` kinds (see :func:`build_ship_plan`).
FAULT_KINDS = ("drop", "dup", "reorder", "corrupt", "archive")


def build_ship_plan(seed: int, faults) -> FaultPlan | None:
    """The standard replication fault plan.

    Channel rates are aggressive — a third of batches suffer
    *something* — but every fault is absorbable: drops are
    consecutive-capped so resends always land, duplicates and reorders
    are no-ops against the seq cursor, and corruption is rejected by
    segment verification.  The ``"archive"`` kind adds transient I/O
    errors on the cold-store device, absorbed by the filesystem's
    bounded retry.
    """
    faults = set(faults)
    unknown = faults - set(FAULT_KINDS)
    if unknown:
        raise ValueError(f"unknown ship fault kinds: {sorted(unknown)}")
    if not faults:
        return None
    spec = ShipFaultSpec(
        drop_rate=0.15 if "drop" in faults else 0.0,
        duplicate_rate=0.15 if "dup" in faults else 0.0,
        reorder_rate=0.20 if "reorder" in faults else 0.0,
        corrupt_rate=0.08 if "corrupt" in faults else 0.0,
    )
    archive_io = (
        IoFaultSpec(read_error_rate=0.04, write_error_rate=0.04)
        if "archive" in faults
        else None
    )
    return FaultPlan(seed=seed, ship=spec, archive_io=archive_io)


def make_scenario(
    seed: int,
    sessions: int = 4,
    txns: int = 36,
    txn_size: int = 3,
    scheme: str = "uh_ls_diff",
    mode: str = "semisync",
    followers: int = 2,
    faults=("drop", "dup", "reorder", "corrupt", "archive"),
    writer_kill: bool = False,
    follower_kills: int = 0,
    sabotage: str = "",
    group_commit: bool = True,
) -> ReplicationScenario:
    """Build a scenario; kill times are placed by a clean profiling run.

    The scenario is first run without any kills to measure its simulated
    duration, and the writer/follower kill times are placed at seeded
    fractions of it — deterministic, and dense enough across seeds to
    land mid-epoch.  A ``scheme`` or ``mode`` of ``rotate`` cycles
    :data:`ROTATION` / :data:`MODE_ROTATION` by seed.
    """
    scheme = harness.rotated(scheme, seed, ROTATION)
    mode = harness.rotated(mode, seed, MODE_ROTATION)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; pick from {sorted(SCHEMES)}")
    if sabotage not in SABOTAGED_CLUSTERS:
        raise ValueError(f"unknown sabotage kind {sabotage!r}")
    scenario = ReplicationScenario(
        seed=seed,
        scheme=scheme,
        mode=mode,
        streams=session_streams(generate_txns, seed, sessions, txns, txn_size),
        followers=followers,
        plan=build_ship_plan(seed, faults),
        sabotage=sabotage,
        group_commit=group_commit,
    )
    if not writer_kill and follower_kills <= 0:
        return scenario
    duration = _measure_duration(scenario)
    rng = placement_rng(seed)
    writer_kill_ns = 0
    if writer_kill:
        writer_kill_ns = max(1, int(duration * (0.30 + 0.40 * rng.random())))
    kills = []
    for _ in range(max(0, follower_kills)):
        idx = rng.randrange(followers)
        down_ns = max(1, int(duration * (0.10 + 0.60 * rng.random())))
        if rng.random() < 0.3:
            up_ns = 0  # stays down
        else:
            up_ns = down_ns + max(1, int(duration * (0.15 + 0.25 * rng.random())))
        kills.append((idx, down_ns, up_ns))
    if writer_kill_ns and kills:
        # Never leave the cluster unrecoverable by construction: if every
        # follower is scheduled to die for good, grant the last kill a
        # restart before the failover would need it.
        doomed = {idx for idx, _down, up in kills if up == 0}
        if doomed >= set(range(followers)):
            idx, down_ns, _up = kills[-1]
            kills[-1] = (idx, down_ns, down_ns + max(1, duration // 5))
    return replace(
        scenario, writer_kill_ns=writer_kill_ns, follower_kills=tuple(kills)
    )


def _measure_duration(scenario: ReplicationScenario) -> int:
    """Simulated duration of the kill-free run (kill-point space)."""
    probe = replace(
        scenario, writer_kill_ns=0, follower_kills=(), sabotage=""
    )
    driver = _Driver(probe)
    driver.run()
    return max(1, int(driver.clock.now_ns - driver.start_ns))


class _Driver(SessionDriver):
    """Mutable state of one replication chaos run."""

    def __init__(self, scenario: ReplicationScenario) -> None:
        super().__init__(scenario)
        #: Checksum (asynchronous) commit may shed the last commit window
        #: of a follower's own WAL at its power loss, legitimately
        #: regressing its durable cursor — the one scheme-sanctioned
        #: excuse for losing a released epoch at failover.
        self.relaxed = SCHEMES[scenario.scheme]().sync is SyncMode.CHECKSUM
        #: commit_log[s]: the (session_id, ops) metas sealed epoch s
        #: carried; states[s] is the row set after it.
        self.commit_log: list = [()]
        #: seq -> frozenset of follower ids durable at release time.
        self.ack_records: dict[int, frozenset] = {}
        self.released = 0
        self.lost_released = 0
        self.follower_crashes = 0
        self.follower_restarts = 0
        self.follower_reads = 0
        self.gc_events = 0
        self.floor_advances = 0
        self.failover_ms: float | None = None
        self.first_ack_after_failover_ms: float | None = None
        self._writer_killed = False
        self._kills_done: set[int] = set()
        self._restarts_done: set[int] = set()
        sc = scenario
        self.cluster = SABOTAGED_CLUSTERS[sc.sabotage](
            ReplicationConfig(
                followers=sc.followers,
                mode=sc.mode,
                scheme=sc.scheme,
                archive=_ARCHIVE,
            ),
            seed=sc.seed,
            ship_spec=sc.plan.ship if sc.plan is not None else None,
            on_seal=self._on_seal,
            on_release=self._on_release,
            archive_io_spec=sc.plan.archive_io if sc.plan is not None else None,
            on_gc=self._on_gc,
            on_snapshot=self._on_snapshot,
        )
        self.clock = self.cluster.clock
        #: Machine boots advanced the shared clock; every scenario time is
        #: relative to this reading.
        self.start_ns = self.clock.now_ns

    # -- model hooks ---------------------------------------------------

    def _on_seal(self, entry) -> None:
        self._commit_point(entry.metas)
        self.commit_log.append(entry.metas)
        if entry.seq != self.head:
            self.violations.append(
                f"error: sealed epoch {entry.seq} does not extend the model "
                f"head {self.head}"
            )

    def _on_release(self, seq: int, acked_by: frozenset) -> None:
        self.ack_records[seq] = acked_by
        self.released = max(self.released, seq)
        if (
            self._writer_killed
            and self.first_ack_after_failover_ms is None
            and self.cluster.kill_ns is not None
        ):
            self.first_ack_after_failover_ms = (
                self.clock.now_ns - self.cluster.kill_ns
            ) / 1e6

    def _on_snapshot(self, seq: int) -> None:
        self.floor_advances += 1

    def _on_gc(self, deleted_seqs, snap_seqs, limit) -> None:
        """GC oracle: nothing a live follower needs — and nothing above
        the checkpoint floor — is ever deleted."""
        self.gc_events += 1
        if not deleted_seqs:
            return
        min_cursor = min(
            (f.durable_seq for f in self.cluster.live_followers()), default=None
        )
        floor = self.cluster.archive.floor
        worst = max(deleted_seqs)
        if min_cursor is not None and worst > min_cursor:
            self.violations.append(
                f"gc-premature: archived epoch {worst} deleted while a "
                f"live follower's durable cursor is {min_cursor}"
            )
        elif worst > floor:
            self.violations.append(
                f"gc-premature: archived epoch {worst} deleted above the "
                f"checkpoint floor {floor}"
            )

    # -- follower read oracle ------------------------------------------

    def _follower_reader(self, node):
        """Daemon: bounded-staleness checked reads against one follower."""
        while True:
            yield _READ_INTERVAL_NS
            if not node.alive or node.role != "follower":
                continue
            if node.term != self.cluster.term:
                continue  # awaiting post-failover state transfer
            seq = node.durable_seq
            if seq > self.head:
                self.violations.append(
                    f"replica-divergence: follower {node.node_id} cursor "
                    f"{seq} is beyond the sealed history "
                    f"({self.head})"
                )
                continue
            try:
                rows = node.db.snapshot_query(READ_SQL)
            except Exception:  # noqa: BLE001 - cursor 0 / no table yet
                continue
            if sorted(rows) != self.states[seq]:
                self.stale_reads += 1
                self.violations.append(
                    f"replica-divergence: follower {node.node_id} at seq "
                    f"{seq} served rows outside the sealed history"
                )
            else:
                self.follower_reads += 1

    # -- kills ---------------------------------------------------------

    def _grim_job(self):
        """Daemon: scripted follower kills/restarts and the writer kill."""
        sc = self.scenario
        while True:
            yield _GRIM_POLL_NS
            now = self.clock.now_ns - self.start_ns
            for i, (idx, down_ns, up_ns) in enumerate(sc.follower_kills):
                node = self.cluster.followers[idx]
                if i not in self._kills_done and now >= down_ns:
                    self._kills_done.add(i)
                    if node.alive and node.role == "follower":
                        node.kill()
                        self.follower_crashes += 1
                elif (
                    i in self._kills_done
                    and i not in self._restarts_done
                    and up_ns
                    and now >= up_ns
                ):
                    self._restarts_done.add(i)
                    if not node.alive:
                        node.restart()
                        self.follower_restarts += 1
            if (
                sc.writer_kill_ns
                and not self._writer_killed
                and now >= sc.writer_kill_ns
            ):
                self._writer_killed = True
                self.cluster.kill_primary()
                raise PowerFailure("replication chaos: primary power cut")

    # -- failover ------------------------------------------------------

    def _failover(self) -> bool:
        cluster = self.cluster
        if not cluster.live_followers():
            # Everyone is down with the primary; if a restart is
            # scheduled, advance to it — a cold follower boot is the
            # last line of the failover protocol.
            pending = [
                (up_ns, i, idx)
                for i, (idx, _down, up_ns) in enumerate(
                    self.scenario.follower_kills
                )
                if up_ns
                and i not in self._restarts_done
                and not cluster.followers[idx].alive
            ]
            if not pending:
                self.violations.append(
                    "failover-lost: the primary died with every follower "
                    "down and none scheduled to return — unrecoverable"
                )
                return False
            up_ns, i, idx = min(pending)
            if self.start_ns + up_ns > self.clock.now_ns:
                self.clock.advance_to(self.start_ns + up_ns)
            self._restarts_done.add(i)
            cluster.followers[idx].restart()
            self.follower_restarts += 1
        watermark = max(f.durable_seq for f in cluster.live_followers())
        self._truncate_model(watermark)
        _node, promoted_watermark, _scrub = cluster.promote()
        if promoted_watermark != watermark:
            self.violations.append(
                f"error: promotion watermark {promoted_watermark} != the "
                f"longest live durable prefix {watermark}"
            )
        if self.failover_ms is None and cluster.kill_ns is not None:
            self.failover_ms = (self.clock.now_ns - cluster.kill_ns) / 1e6
        return True

    def _truncate_model(self, watermark: int) -> None:
        """Epochs above the watermark died with the primary; audit them."""
        for seq in range(watermark + 1, self.head + 1):
            acked_by = self.ack_records.get(seq)
            if acked_by is None:
                continue  # never released: clients will resubmit
            self.lost_released += len(self.commit_log[seq])
            holders_alive = sorted(
                node_id
                for node_id in acked_by
                if self.cluster.followers[node_id].alive
            )
            if holders_alive and not self.relaxed:
                self.violations.append(
                    f"failover-lost: released epoch {seq} vanished at "
                    f"failover although follower(s) {holders_alive} that "
                    "held it durable are still alive"
                )
        del self.states[watermark + 1 :]
        del self.commit_log[watermark + 1 :]
        self.kv = dict(self.states[watermark])
        self.applied_tail = []
        self.ack_records = {
            seq: who for seq, who in self.ack_records.items() if seq <= watermark
        }
        self.released = min(self.released, watermark)

    # -- settle + audit ------------------------------------------------

    def _lagging(self) -> list:
        """Live followers not yet at the sealed head in the current term."""
        return [
            node
            for node in self.cluster.live_followers()
            if node.term != self.cluster.term or node.durable_seq != self.head
        ]

    def _settle(self) -> None:
        """Drain the channel until every live follower reaches the head."""
        while True:
            scheduler = Scheduler(self.clock)

            def waiter():
                deadline = self.clock.now_ns + _SETTLE_NS
                while self.clock.now_ns < deadline:
                    if not self._lagging():
                        return
                    yield _SETTLE_POLL_NS

            scheduler.spawn("settle", waiter())
            scheduler.spawn(
                "replicator", self.cluster.replicator.daemon(), daemon=True
            )
            if self._grim_pending():
                scheduler.spawn("grim", self._grim_job(), daemon=True)
            try:
                scheduler.run()
            except PowerFailure:
                # The scripted writer kill landed after the clients
                # drained; fail over and settle onto the new primary.
                self._power_cut(scheduler)
                if not self._failover():
                    return
                continue
            break
        for node in self._lagging():
            self.violations.append(
                f"replication-stalled: follower {node.node_id} stuck at seq "
                f"{node.durable_seq} term {node.term} (head "
                f"{self.head} term {self.cluster.term}) after the "
                "settle budget"
            )

    def _grim_pending(self) -> bool:
        sc = self.scenario
        if sc.writer_kill_ns and not self._writer_killed:
            return True
        return any(
            i not in self._restarts_done and up_ns
            for i, (_idx, _down, up_ns) in enumerate(sc.follower_kills)
        ) or any(
            i not in self._kills_done
            for i in range(len(sc.follower_kills))
        )

    def _final_audit(self) -> None:
        head = self.head
        expected = self.states[head]
        try:
            rows = sorted(self.cluster.db.dump_table(TABLE))
        except Exception as exc:  # noqa: BLE001 - a broken dump is a finding
            self.violations.append(
                f"ack-lost: primary final dump failed: {type(exc).__name__}"
            )
            rows = None
        if rows is not None and rows != expected:
            self.violations.append(
                f"ack-lost: primary final state ({len(rows)} rows) does not "
                f"match the sealed history at seq {head} "
                f"({len(expected)} rows)"
            )
        lagging = self._lagging()  # already reported by _settle
        for node in self.cluster.live_followers():
            if node in lagging:
                continue
            try:
                frows = sorted(node.db.dump_table(TABLE))
            except Exception as exc:  # noqa: BLE001
                self.violations.append(
                    f"replica-divergence: follower {node.node_id} final "
                    f"dump failed: {type(exc).__name__}"
                )
                continue
            if frows != expected:
                self.violations.append(
                    f"replica-divergence: follower {node.node_id} final "
                    f"state ({len(frows)} rows) != sealed history at seq "
                    f"{head} ({len(expected)} rows)"
                )
                continue
            # Byte-identity: however this follower got here — live
            # entries, archived epochs, or floor snapshot + roll-forward
            # — its pages must equal the primary's bit for bit.
            primary_pager = self.cluster.db.pager
            pager = node.db.pager
            if pager.n_pages != primary_pager.n_pages:
                self.violations.append(
                    f"replica-divergence: follower {node.node_id} has "
                    f"{pager.n_pages} pages, primary has "
                    f"{primary_pager.n_pages}"
                )
                continue
            torn_pages = [
                pno
                for pno in range(1, primary_pager.n_pages + 1)
                if bytes(pager.page_image(pno))
                != bytes(primary_pager.page_image(pno))
            ]
            if torn_pages:
                self.violations.append(
                    f"replica-divergence: follower {node.node_id} pages "
                    f"{torn_pages[:8]} are not byte-identical to the "
                    "primary's"
                )

    # -- main loop -----------------------------------------------------

    def run(self) -> Outcome:
        sc = self.scenario
        cluster = self.cluster
        service_config = ServiceConfig(group_commit=sc.group_commit)
        clients = make_clients(sc.streams)

        stalled = False
        while True:
            scheduler = Scheduler(self.clock)
            service = cluster.start_service(
                service_config, seed=sc.seed, on_apply=self._on_apply
            )
            if not self._spawn_clients(scheduler, service, clients):
                break
            scheduler.spawn(
                "replicator", cluster.replicator.daemon(), daemon=True
            )
            for node in cluster.followers:
                scheduler.spawn(
                    f"reader{node.node_id}",
                    self._follower_reader(node),
                    daemon=True,
                )
            if sc.writer_kill_ns or sc.follower_kills:
                scheduler.spawn("grim", self._grim_job(), daemon=True)
            try:
                scheduler.run(deadline_ns=self.start_ns + _DEADLINE_NS)
                self._absorb_stats(service)
                if any(not j.done and not j.daemon for j in scheduler.jobs):
                    stalled = True
                    self.violations.append(
                        "replication-stalled: client(s) still blocked at "
                        f"the {_DEADLINE_NS // 1_000_000} ms liveness "
                        "deadline"
                    )
                    scheduler.abandon()
                    break
                self.violations.extend(daemon_failures(scheduler))
                break
            except PowerFailure:
                self._power_cut(scheduler)
                self._absorb_stats(service)
                if not self._failover():
                    return self._finish()

        self.violations.extend(starved_clients(clients))

        if not stalled:
            self._settle()
            self._final_audit()
        return self._finish()

    def _ship_fault_counts(self) -> dict:
        counts = dict.fromkeys(("dropped", "duplicated", "reordered", "corrupted"), 0)
        cluster = self.cluster
        for replicator in (*cluster.retired_replicators, cluster.replicator):
            for channel in replicator.channels.values():
                if channel.injector is not None:
                    for kind in counts:
                        counts[kind] += getattr(channel.injector, kind)
        return counts

    def _archive_summary(self) -> dict:
        cluster = self.cluster
        archive = cluster.archive
        injector = cluster.archive_device.fault_injector
        return {
            "files": archive.files_count,
            "bytes": archive.bytes_total,
            "head": archive.head,
            "min_seq": archive.min_seq,
            "floor": archive.floor,
            "gc_events": self.gc_events,
            "gc_segments": archive.gc_segments,
            "gc_bytes": archive.gc_bytes,
            "snapshots": archive.snapshots_written,
            "floor_fallbacks": archive.floor_fallbacks,
            "floor_advances": self.floor_advances,
            "io_faults": injector.injected if injector is not None else 0,
            "reseeds_from_archive": cluster.reseeds_from_archive(),
            "peak_log_entries": cluster.log_peak(),
        }

    def _finish(self) -> Outcome:
        lag = sorted(self.cluster.lag_samples())
        return self._outcome(
            mode=self.scenario.mode,
            followers=self.scenario.followers,
            sealed=self.head,
            released=self.released,
            follower_crashes=self.follower_crashes,
            follower_restarts=self.follower_restarts,
            promotions=self.cluster.promotions,
            lost_released=self.lost_released,
            follower_reads=self.follower_reads,
            ship_faults=self._ship_fault_counts(),
            lag_samples=len(lag),
            lag_mean_us=(sum(lag) / len(lag) / 1e3) if lag else 0.0,
            lag_p95_us=(lag[int(len(lag) * 0.95) - 1] / 1e3) if lag else 0.0,
            lag_max_us=(lag[-1] / 1e3) if lag else 0.0,
            failover_ms=self.failover_ms,
            first_ack_after_failover_ms=self.first_ack_after_failover_ms,
            archive=self._archive_summary(),
            sim_time_ms=int((self.clock.now_ns - self.start_ns) // 1_000_000),
        )


run_replication_chaos = _Driver.run_scenario


# ----------------------------------------------------------------------
# trace (de)serialization
# ----------------------------------------------------------------------


scenario_to_dict = harness.to_json


def scenario_from_dict(data: dict) -> ReplicationScenario:
    # Traces are outside input: one recorded in a mode this code no longer
    # has must be refused, not silently replayed in a different mode.
    if data.get("archive", True) is not True:
        raise ValueError(
            "trace field 'archive': the memory-resident (archive-off) mode "
            "was removed; this trace cannot be replayed"
        )
    return harness.from_json(
        ReplicationScenario, data, plan=FaultPlan.from_json
    )


# ----------------------------------------------------------------------
# parallel sweep tasks
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ReplicationTask(SessionTask):
    """Picklable work item for one chaos run (parallel_map-able)."""

    txns: int = 36
    mode: str = "rotate"
    followers: int = 2
    faults: tuple = ("drop", "dup", "reorder", "corrupt", "archive")
    writer_kill: bool = False
    follower_kills: int = 0
    sabotage: str = ""
    group_commit: bool = True

    make_scenario = staticmethod(make_scenario)
    driver = _Driver

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.followers < 1 and (self.writer_kill or self.follower_kills):
            raise ValueError(
                "--writer-kill and --follower-kills need at least one "
                "follower (--followers)"
            )
