"""Follower nodes: replayed state, durable shipping cursor, promotion.

A follower is a full simulated machine (its own NVRAM, eMMC, and
filesystem) sharing the cluster's clock.  It replays shipped segments
into its *own* NVWAL — one ``write_transaction`` per epoch — so its
durability is governed by the same scheme (E/LS/CS) as the primary's,
and serves bounded-staleness snapshot reads from its pager.

**Durable cursor.**  The applied sequence number must survive the
follower's own power failures atomically with the applied state.  Rather
than invent a side structure, the cursor rides *inside* the WAL: every
applied epoch logs one extra pseudo-page (:data:`PSEUDO_PAGE`, far above
any real page) whose image packs ``(magic, seq, term)``.  WAL recovery
then yields state and cursor from the same committed prefix — if salvage
sheds a torn tail, the cursor regresses with it, and the follower simply
re-requests those epochs.  :class:`ReplicaWalBackend` keeps the pseudo
page out of the database file (popping it around checkpoints and
re-logging it afterwards) so the on-disk image stays a plain database.

**Promotion.**  ``become_primary`` flips the node into ordinary primary
operation: the watermark stops being logged, and a fresh shipping log
can tap the node's WAL exactly as on the original primary.
"""

from __future__ import annotations

import struct

from repro.config import tuna
from repro.db.database import Database
from repro.replication.segment import decode_stream
from repro.system import System
from repro.wal.frames import NvFrame, fold_frames
from repro.wal.nvwal import SCHEMES, NvwalBackend

#: Pseudo page carrying the replication watermark inside the WAL.  Far
#: above any page number a real database reaches in simulation.
PSEUDO_PAGE = 0x7FFF_FFF0

_WM_FMT = "<QQQ"
_WM_MAGIC = 0x5245_504C_5F57_4D31  # "REPL_WM1"


def watermark_image(page_size: int, seq: int, term: int) -> bytes:
    packed = struct.pack(_WM_FMT, _WM_MAGIC, seq, term)
    return packed + bytes(page_size - len(packed))


def parse_watermark(image: bytes | None) -> tuple[int, int] | None:
    """(seq, term) from a watermark page image, or None."""
    if image is None or len(image) < struct.calcsize(_WM_FMT):
        return None
    magic, seq, term = struct.unpack_from(_WM_FMT, image, 0)
    if magic != _WM_MAGIC:
        return None
    return seq, term


def pager_frames(db) -> tuple:
    """Full page images of a database's current state (state transfer)."""
    pager = db.pager
    return tuple(
        NvFrame(pno, 0, bytes(pager.page_image(pno)), 0, commit=False)
        for pno in range(1, pager.n_pages + 1)
    )


class ReplicaWalBackend(NvwalBackend):
    """NVWAL that carries the replication watermark as a pseudo page.

    The pseudo page must never reach the database file (its page number
    maps to an absurd file offset), so :meth:`checkpoint` pops it from
    the logged images before the superclass writes pages out, then
    re-logs it as a fresh committed transaction — the cursor survives
    checkpoint truncation.  On a promoted primary (``primary_mode``) the
    re-log is skipped: the node no longer tracks a shipping cursor, and
    its own shipping log must not see watermark frames.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: (seq, term) recovered from the WAL at the last :meth:`recover`.
        self.recovered_watermark: tuple[int, int] | None = None
        self.primary_mode = False

    def recover(self) -> dict[int, bytes]:
        images = super().recover()
        self.recovered_watermark = parse_watermark(images.pop(PSEUDO_PAGE, None))
        return images

    def checkpoint(self) -> int:
        watermark = self._logged_images.pop(PSEUDO_PAGE, None)
        written = super().checkpoint()
        if watermark is not None and not self.primary_mode:
            self.write_transaction({PSEUDO_PAGE: watermark})
        return written


class FollowerNode:
    """One replica machine: ingests segments, serves snapshot reads."""

    def __init__(
        self,
        node_id: int,
        clock,
        seed: int,
        scheme: str = "uh_ls_diff",
        checkpoint_threshold: int = 48,
    ) -> None:
        self.node_id = node_id
        self.clock = clock
        self.seed = seed
        self.scheme = scheme
        self.checkpoint_threshold = checkpoint_threshold
        self.role = "follower"
        self.term = 0
        self.durable_seq = 0
        self.system = System(
            tuna(),
            seed=(seed * 131 + node_id * 17 + 5) & 0x7FFFFFFF,
            clock=clock,
        )
        self.segments_applied = 0
        self.snapshots_applied = 0
        self._open()

    def _open(self) -> None:
        self.wal = ReplicaWalBackend(
            self.system,
            SCHEMES[self.scheme](),
            checkpoint_threshold=self.checkpoint_threshold,
        )
        self.db = Database(
            self.system, wal=self.wal, name=f"replica{self.node_id}.db"
        )
        watermark = self.wal.recovered_watermark
        self.durable_seq, self.term = watermark if watermark else (0, 0)

    # -- ingest -------------------------------------------------------------

    def ingest(self, payload: bytes) -> int:
        """Apply every acceptable segment in one received batch.

        Acceptance: incremental epochs must extend the cursor exactly
        (``seq == durable_seq + 1``) and carry a current-or-newer term;
        duplicates, stale reorders, and old-term traffic are no-ops.
        Snapshots reset the whole node when they carry a newer term (the
        follower's history may have diverged) or a farther seq.
        """
        applied = 0
        for segment in self._decode(payload).segments:
            if segment.snapshot:
                if segment.term > self.term or (
                    segment.term == self.term and segment.seq > self.durable_seq
                ):
                    self._apply_snapshot(segment)
                    applied += 1
                continue
            if segment.term < self.term:
                continue
            if segment.seq != self.durable_seq + 1:
                continue
            self._apply(segment)
            applied += 1
        return applied

    def _decode(self, payload: bytes):
        """The verified segments of one received batch."""
        return decode_stream(payload)

    def _fold_frames(self, frames, base_for):
        return fold_frames(frames, base_for)

    def _apply(self, segment) -> None:
        final = self._fold_frames(
            segment.frames,
            lambda pno: bytes(self.db.pager.get_page(pno)),
        )
        self._install(final, segment.seq, segment.term)
        self.segments_applied += 1

    def _apply_snapshot(self, segment) -> None:
        page_size = self.system.page_size
        final = self._fold_frames(segment.frames, lambda pno: bytes(page_size))
        self._install(final, segment.seq, segment.term)
        # The snapshot replaced this node's history: truncate the
        # old-term WAL underneath it so recovery cannot resurrect
        # pre-failover epochs, and drop catalog caches that may point
        # into the replaced state.
        self.wal.checkpoint()
        self.db._tables_cookie = -1
        self.snapshots_applied += 1

    def _install(self, final: dict[int, bytes], seq: int, term: int) -> None:
        txn = dict(final)
        txn[PSEUDO_PAGE] = watermark_image(self.system.page_size, seq, term)
        self.wal.write_transaction(txn)
        for pno, image in final.items():
            self.db.pager.install_page(pno, image)
        self.durable_seq = seq
        if term > self.term:
            self.term = term
        if self.wal.should_checkpoint():
            self.wal.checkpoint()

    # -- lifecycle ----------------------------------------------------------

    @property
    def alive(self) -> bool:
        """Whether this node's machine has power."""
        return not self.system.crash.powered_off

    def kill(self) -> None:
        """Power-fail this machine; in-flight channel traffic is lost."""
        self.system.power_fail()

    def restart(self) -> None:
        """Reboot and recover state + cursor from the node's own NVWAL."""
        self.system.reboot()
        self._open()

    # -- promotion ----------------------------------------------------------

    def become_primary(self, term: int) -> None:
        self.role = "primary"
        self.term = term
        self.wal.primary_mode = True

    def snapshot_frames(self) -> tuple:
        """Full page images of the current state, for state transfer."""
        return pager_frames(self.db)
