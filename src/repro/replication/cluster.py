"""A replicated deployment: one primary, N followers, one shipping fleet.

The cluster owns the shared simulated clock (every machine — primary and
followers — advances on one timeline), builds the primary's database and
shipping log, wires the replicator into the commit path of a
:class:`~repro.service.server.DatabaseService`, and runs the failover
protocol:

1. the primary machine power-fails (``kill_primary``);
2. ``promote`` elects the live follower with the *longest durable
   prefix* (highest shipped seq; ties broken toward the lowest node id),
   scrubs its WAL with ``verify_log`` as a sanity check, and bumps the
   replication term — fencing any segment the dead primary still had in
   flight;
3. the promoted node becomes an ordinary primary: a fresh shipping log
   (based at the promotion watermark) taps its WAL, the cold store is
   recovered and fenced at the watermark, and surviving followers that
   hold divergent history are reset from the on-disk floor snapshot and
   climb archived epochs (followers already at the watermark just adopt
   the new term).

Epochs past the watermark are *lost* — they were durable only on the
dead primary.  Whether any of them was promised to a client is exactly
what the replication oracle audits (see
:mod:`repro.replication.chaos`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.config import tuna
from repro.db.database import Database
from repro.faults.inject import BlockIoFaultInjector
from repro.hw.clock import SimClock
from repro.hw.stats import Stats
from repro.replication.node import FollowerNode, pager_frames
from repro.replication.ship import Replicator, ShippingLog
from repro.service.server import DatabaseService
from repro.storage.blockdev import BlockDevice
from repro.storage.ext4 import Ext4FileSystem
from repro.system import System
from repro.wal.nvwal import SCHEMES, NvwalBackend
from repro.workloads.mobi import DDL, TABLE

if TYPE_CHECKING:  # repro.archive decodes shipped segments: it imports this package
    from repro.archive import ArchiveConfig


@dataclass(frozen=True)
class ReplicationConfig:
    """Shape of one replicated deployment."""

    followers: int = 2
    mode: str = "semisync"
    scheme: str = "uh_ls_diff"
    checkpoint_threshold: int = 48
    #: Cadences of the ext4 cold store (:class:`repro.archive.ArchiveConfig`;
    #: None: its defaults): sealed epochs spill to segment files, reseeds
    #: come from disk, and the in-memory shipping log stays bounded.
    archive: ArchiveConfig | None = None


class Cluster:
    """One primary + followers sharing a clock and a shipping fleet."""

    #: The classes the cluster builds its machines from.  ``archive_class``
    #: None means :class:`repro.archive.SegmentArchive`, resolved at
    #: construction: repro.archive decodes the shipped-segment wire
    #: format, so it imports this package.
    follower_class = FollowerNode
    replicator_class = Replicator
    archive_class = None

    def __init__(
        self,
        config: ReplicationConfig,
        seed: int = 0,
        ship_spec=None,
        on_seal=None,
        on_release=None,
        archive_io_spec=None,
        on_gc=None,
        on_snapshot=None,
    ) -> None:
        self.config = config
        self.seed = seed
        self.ship_spec = ship_spec
        self.on_seal = on_seal
        self.on_release = on_release
        self.clock = SimClock()
        self.term = 1
        self.promotions = 0
        self.kill_ns: int | None = None
        #: High-water mark of in-memory shiplog entries across the
        #: cluster's lifetime (bounded-archive probe).
        self.peak_log_entries = 0

        system = System(tuna(), seed=seed, clock=self.clock)
        wal = NvwalBackend(
            system,
            SCHEMES[config.scheme](),
            checkpoint_threshold=config.checkpoint_threshold,
        )
        db = Database(system, wal=wal, name="primary.db")
        # The cold store is its own ext4 volume on its own (seeded)
        # device: archive I/O shares the timeline but never the WAL
        # device's bandwidth or fault plan.
        from repro.archive import SegmentArchive

        self.archive_device = BlockDevice(
            tuna().blockdev,
            self.clock,
            Stats(),
            seed=(seed * 977 + 61) & 0x7FFFFFFF,
        )
        if archive_io_spec is not None:
            self.archive_device.fault_injector = BlockIoFaultInjector(
                archive_io_spec, (seed * 53 + 11) & 0x7FFFFFFF
            )
        archive_fs = Ext4FileSystem(self.archive_device)
        archive_fs.format()
        self.archive = (self.archive_class or SegmentArchive)(
            archive_fs,
            self.clock,
            config=config.archive,
            telemetry=system.telemetry,
            on_gc=on_gc,
            on_snapshot=on_snapshot,
        )
        # The seq-0 floor: the pristine pre-schema database, so any
        # follower — however far behind — can be reseeded from disk.
        self.archive.bootstrap(pager_frames(db), term=self.term)
        # The shipping log taps the WAL *before* the schema exists, so
        # followers build their entire state — schema included — from
        # the stream alone.
        self.shiplog = ShippingLog(wal, self.clock, on_seal=on_seal)
        db.execute(DDL)
        self.shiplog.seal(())  # seq 1: the bootstrap (schema) epoch

        self.primary_system = system
        self.db = db
        #: The promoted FollowerNode once a failover happened (None while
        #: the original primary is alive).
        self.primary_node: FollowerNode | None = None
        self.followers = [
            self.follower_class(
                node_id,
                self.clock,
                seed,
                scheme=config.scheme,
                checkpoint_threshold=config.checkpoint_threshold,
            )
            for node_id in range(config.followers)
        ]
        self.replicator = self._make_replicator(self.followers)
        self.service: DatabaseService | None = None
        #: Replicators retired by promotion (their lag samples count).
        self.retired_replicators: list[Replicator] = []

    def _make_replicator(self, followers) -> Replicator:
        return self.replicator_class(
            self.clock,
            self.shiplog,
            followers,
            self.config.mode,
            self.archive,
            term=self.term,
            ship_spec=self.ship_spec,
            ship_seed=self.seed,
            on_release=self.on_release,
            # The *current* primary machine's registry: after a promotion
            # this is the promoted follower's, not the dead machine's.
            telemetry=self.db.system.telemetry,
        )

    # -- service wiring -----------------------------------------------------

    def start_service(
        self,
        service_config=None,
        seed: int = 0,
        on_ack=None,
        on_apply=None,
    ) -> DatabaseService:
        """Build a service over the current primary, gated on shipping."""
        service = DatabaseService(
            self.db,
            service_config,
            seed=seed,
            on_ack=on_ack,
            on_apply=on_apply,
        )
        service.replicator = self.replicator
        self.replicator.service = service
        self.service = service
        return service

    # -- failover -----------------------------------------------------------

    def live_followers(self) -> list[FollowerNode]:
        return [f for f in self.followers if f.alive and f.role == "follower"]

    def kill_primary(self) -> None:
        """Power-fail the current primary machine (and the cold store).

        The archive volume loses its OS page cache and gambles its device
        cache like any other disk at power loss — buffered epoch appends
        may tear mid-segment, which is exactly what
        :meth:`SegmentArchive.recover` must salvage at promotion.
        """
        self.kill_ns = self.clock.now_ns
        self.db.system.power_fail()
        self.archive.power_fail()

    def promote(self):
        """Elect and promote the longest-prefix live follower.

        Returns ``(node, watermark, scrub_report)`` or ``None`` when no
        live follower exists.  Epochs above the watermark are gone; the
        caller (driver/oracle) decides whether any of them had been
        promised.
        """
        candidates = self.live_followers()
        if not candidates:
            return None
        best = max(candidates, key=lambda f: (f.durable_seq, -f.node_id))
        scrub = best.wal.verify_log()
        watermark = best.durable_seq
        self.term += 1
        self.promotions += 1
        best.become_primary(self.term)
        # Recover the cold store (journal replay + torn-tail salvage),
        # fence epochs past the watermark, and make sure a reseed chain
        # through the watermark exists on disk — falling back to a
        # snapshot of the promoted node's live pages only when the crash
        # broke the archived chain.
        self.archive.recover()
        self.archive.truncate_above(watermark)
        self.archive.ensure_floor(watermark, self.term, best.snapshot_frames)
        self.peak_log_entries = max(self.peak_log_entries, self.shiplog.peak_entries)
        self.shiplog = ShippingLog(
            best.wal, self.clock, base_seq=watermark, on_seal=self.on_seal
        )
        self.db = best.db
        self.primary_node = best
        self.retired_replicators.append(self.replicator)
        survivors = [f for f in self.followers if f is not best]
        self.replicator = self._make_replicator(survivors)
        self.service = None
        if not best.db.table_exists(TABLE):
            # Total-loss corner: the cluster died before the bootstrap
            # epoch ever shipped.  Re-create the schema so the promoted
            # primary can serve resubmitted transactions.
            best.db.execute(DDL)
            self.shiplog.seal(())
        return best, watermark, scrub

    # -- probes -------------------------------------------------------------

    @property
    def head_seq(self) -> int:
        return self.shiplog.head_seq

    def lag_samples(self) -> list[int]:
        samples: list[int] = []
        for replicator in (*self.retired_replicators, self.replicator):
            samples.extend(replicator.lag_samples)
        return samples

    def log_peak(self) -> int:
        """Lifetime high-water mark of in-memory shiplog entries."""
        return max(self.peak_log_entries, self.shiplog.peak_entries)

    def reseeds_from_archive(self) -> int:
        """Follower resets served from the on-disk floor snapshot."""
        return sum(
            replicator.reseeds_from_archive
            for replicator in (*self.retired_replicators, self.replicator)
        )

