"""The segment archive: sealed WAL epochs on an ext4 cold store.

One :class:`SegmentArchive` owns a directory on a (simulated) ext4
filesystem and persists the replication stream as two kinds of files,
both in the shipped-segment wire format (:mod:`repro.replication.segment`)
so one decoder covers the wire, the follower WAL, and the disk tier:

* ``epochs-<seq>.seg`` — a run of consecutive sealed epochs, appended as
  they seal and rolled to a fresh file every ``epochs_per_file`` epochs.
  Appends are buffered (OS page cache) and fsynced every ``sync_every``
  epochs: the NVWAL ack path never waits on the disk tier, so a power
  cut can tear the newest file mid-segment.  Recovery salvages the
  longest valid closed-epoch prefix and truncates the torn tail — the
  same discipline the NVWAL media scan applies.
* ``snap-<seq>.seg`` — one full-state snapshot (``FLAG_SNAPSHOT``), the
  *checkpoint floor*.  The newest durable snapshot plus the epoch run
  above it is the reseed chain for any follower, however far behind or
  divergent.  Floors advance by *folding on disk*: the previous floor's
  page images plus the archived epoch diffs produce the next snapshot
  without touching the live database.

GC unlinks whole epoch files strictly behind ``min(fleet's minimum
durable cursor, checkpoint floor)`` — never an epoch a live follower
still needs, never past the floor — and retires superseded snapshots.
Every delete batch is journaled immediately so a power cut mid-GC lands
on one side of the unlink, not half-way.

All device I/O goes through the filesystem's bounded retry-with-backoff
(:data:`repro.storage.ext4._IO_RETRIES`), absorbing transient
:class:`~repro.errors.IoError` bursts from an installed
:class:`~repro.faults.BlockIoFaultInjector` up to its
``max_consecutive`` budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.replication.node import PSEUDO_PAGE
from repro.replication.segment import (
    FLAG_SNAPSHOT,
    Segment,
    StreamReport,
    decode_stream,
    encode_segment,
    walk_stream,
)
from repro.wal.frames import NvFrame, fold_frames

_EPOCH_PREFIX = "epochs-"
_SNAP_PREFIX = "snap-"
_SUFFIX = ".seg"


def _epoch_name(seq: int) -> str:
    return f"{_EPOCH_PREFIX}{seq:010d}{_SUFFIX}"


def _snap_name(seq: int) -> str:
    return f"{_SNAP_PREFIX}{seq:010d}{_SUFFIX}"


def _name_seq(name: str, prefix: str) -> int:
    return int(name[len(prefix) : -len(_SUFFIX)])


@dataclass(frozen=True)
class ArchiveConfig:
    """Cold-store tunables.

    ``sync_every`` bounds how many sealed epochs can be torn off the
    newest file by a power cut (they remain durable on the primary's
    NVRAM and on followers; the archive merely re-salvages a shorter
    prefix).  ``snapshot_every`` paces floor advancement: a new floor is
    folded once that many epochs are durable above the current one.
    ``gc_every`` paces the cursor-driven file trim.
    """

    epochs_per_file: int = 8
    sync_every: int = 4
    snapshot_every: int = 24
    gc_every: int = 8


class _EpochFile:
    """Bookkeeping for one on-disk epoch run."""

    __slots__ = ("name", "first_seq", "last_seq", "size")

    def __init__(self, name: str, first_seq: int, last_seq: int, size: int) -> None:
        self.name = name
        self.first_seq = first_seq
        self.last_seq = last_seq
        self.size = size

    @property
    def epochs(self) -> int:
        return self.last_seq - self.first_seq + 1


class SegmentArchive:
    """Sealed-epoch cold store over one ext4 filesystem."""

    def __init__(
        self,
        fs,
        clock,
        config: ArchiveConfig | None = None,
        telemetry=None,
        on_gc=None,
        on_snapshot=None,
    ) -> None:
        self.fs = fs
        self.clock = clock
        self.config = config or ArchiveConfig()
        #: Called after every GC batch with
        #: ``(deleted_epoch_seqs, deleted_snapshot_seqs, limit)`` — the
        #: chaos oracle audits each delete against the fleet's cursors.
        self.on_gc = on_gc
        #: Called with the new floor seq after every snapshot write.
        self.on_snapshot = on_snapshot
        #: Epoch runs on disk, ordered and contiguous: ``files[i+1]``
        #: starts at ``files[i].last_seq + 1``.
        self._files: list[_EpochFile] = []
        #: snapshot seq -> (file name, byte size)
        self._snapshots: dict[int, tuple[str, int]] = {}
        #: Newest durable snapshot seq (the checkpoint floor), if any.
        self.floor: int | None = None
        #: Last appended epoch seq (buffered writes included).
        self.head = 0
        #: Last epoch seq known durable on disk (fsynced).
        self.durable_head = 0
        self._unsynced = 0
        #: file name -> (size when decoded, {seq: Segment})
        self._cache: dict[str, tuple[int, dict[int, Segment]]] = {}
        self._snap_cache: dict[int, Segment] = {}
        # Plain-attribute probes (summaries read these even when the
        # telemetry registry is a disabled no-op).
        self.gc_segments = 0
        self.gc_bytes = 0
        self.snapshots_written = 0
        self.floor_fallbacks = 0
        if telemetry is None:
            from repro.telemetry.metrics import MetricsRegistry

            telemetry = MetricsRegistry(clock, enabled=False)
        self.telemetry = telemetry
        self._g_bytes = telemetry.gauge("archive.bytes")
        self._g_files = telemetry.gauge("archive.files")
        self._c_gc_segments = telemetry.counter("archive.gc_segments")
        self._c_gc_bytes = telemetry.counter("archive.gc_bytes")
        self._c_snapshots = telemetry.counter("archive.snapshots")
        self._c_fallbacks = telemetry.counter("archive.floor_fallbacks")
        self._t_write = telemetry.histogram("archive.write_ns")

    # -- probes -------------------------------------------------------------

    @property
    def min_seq(self) -> int:
        """First epoch seq still on disk (``head + 1`` when none are)."""
        return self._files[0].first_seq if self._files else self.head + 1

    @property
    def bytes_total(self) -> int:
        return sum(rec.size for rec in self._files) + sum(
            size for _, size in self._snapshots.values()
        )

    @property
    def files_count(self) -> int:
        return len(self._files) + len(self._snapshots)

    def _update_gauges(self) -> None:
        self._g_bytes.set(self.bytes_total)
        self._g_files.set(self.files_count)

    # -- the append path ----------------------------------------------------

    def bootstrap(self, frames, term: int = 1) -> None:
        """Write the seq-0 floor: the pristine database before any epoch."""
        self.write_snapshot(0, term, frames)

    def append(self, segment: Segment) -> None:
        """Persist one sealed epoch; buffered, fsynced per ``sync_every``."""
        if segment.seq != self.head + 1:
            raise ValueError(
                f"archive append out of order: got seq {segment.seq}, "
                f"head is {self.head}"
            )
        start_ns = self.clock.now_ns
        blob = encode_segment(segment)
        rec = self._files[-1] if self._files else None
        if rec is None or rec.epochs >= self.config.epochs_per_file:
            if self._unsynced:
                self.sync()  # the finished run goes durable before rolling
            name = _epoch_name(segment.seq)
            self.fs.create(name)
            rec = _EpochFile(name, segment.seq, segment.seq - 1, 0)
            self._files.append(rec)
        handle = self.fs.open(rec.name)
        handle.write(rec.size, blob)
        rec.size += len(blob)
        rec.last_seq = segment.seq
        self.head = segment.seq
        self._unsynced += 1
        if self._unsynced >= self.config.sync_every:
            self.sync()
        self._t_write.observe(int(self.clock.now_ns - start_ns))
        self._update_gauges()

    def sync(self) -> None:
        """fsync buffered epochs; advances ``durable_head`` to ``head``."""
        if self._unsynced and self._files:
            # A full fsync (not fdatasync): the inode size must be
            # journaled, or a remount would forget the appended tail.
            self.fs.open(self._files[-1].name).fsync()
        self._unsynced = 0
        self.durable_head = self.head

    # -- snapshots (the checkpoint floor) -----------------------------------

    def write_snapshot(self, seq: int, term: int, frames) -> None:
        """Write a full-state snapshot at ``seq`` and make it the floor."""
        blob = encode_segment(
            Segment(seq=seq, term=term, txns=0, frames=tuple(frames), flags=FLAG_SNAPSHOT)
        )
        name = _snap_name(seq)
        if self.fs.exists(name):
            self.fs.unlink(name)  # re-promotion at the same watermark
        handle = self.fs.create(name)
        handle.write(0, blob)
        handle.fsync()  # durable before it may retire its predecessor
        self._snapshots[seq] = (name, len(blob))
        self._snap_cache.pop(seq, None)
        self.floor = max(self._snapshots)
        self.snapshots_written += 1
        self._c_snapshots.inc()
        self._update_gauges()
        if self.on_snapshot is not None:
            self.on_snapshot(seq)

    def floor_segment(self) -> Segment | None:
        """Decode the floor snapshot (None when there is no floor)."""
        if self.floor is None:
            return None
        return self._snapshot_segment(self.floor)

    def _snapshot_segment(self, seq: int) -> Segment | None:
        cached = self._snap_cache.get(seq)
        if cached is not None:
            return cached
        name, size = self._snapshots[seq]
        report = decode_stream(self._read(name, size))
        if not report.clean or len(report.segments) != 1:
            return None
        self._snap_cache[seq] = report.segments[0]
        return report.segments[0]

    def maybe_advance_floor(self, term: int) -> bool:
        """Fold a new floor once ``snapshot_every`` epochs are durable."""
        if self.floor is None or self.durable_head - self.floor < self.config.snapshot_every:
            return False
        if self.min_seq > self.floor + 1:
            return False  # chain to the floor is broken; cannot fold
        frames = self._fold(self.floor, self.durable_head)
        if frames is None:
            return False
        self.write_snapshot(self.durable_head, term, frames)
        return True

    def _fold(self, floor_seq: int, target_seq: int):
        """Fold floor page images + archived epoch diffs up to target."""
        base = self._snapshot_segment(floor_seq) if floor_seq in self._snapshots else None
        if base is None and floor_seq != 0:
            return None
        state: dict[int, bytes] = (
            {frame.page_no: bytes(frame.payload) for frame in base.frames}
            if base is not None
            else {}
        )
        frames = []
        for seq in range(floor_seq + 1, target_seq + 1):
            segment = self.segment_at(seq)
            if segment is None:
                return None
            # The watermark pseudo page is bookkeeping, not database state.
            frames += [f for f in segment.frames if f.page_no != PSEUDO_PAGE]
        blank = bytes(self.fs.page_size)
        state.update(fold_frames(frames, lambda page_no: state.get(page_no, blank)))
        return tuple(
            NvFrame(page_no, 0, state[page_no], 0, commit=False)
            for page_no in sorted(state)
        )

    # -- reads --------------------------------------------------------------

    def segment_at(self, seq: int) -> Segment | None:
        """Decode one archived epoch (None when trimmed or never written)."""
        rec = self._file_for(seq)
        if rec is None:
            return None
        cached = self._cache.get(rec.name)
        if cached is None or cached[0] != rec.size:
            report = decode_stream(self._read(rec.name, rec.size))
            cached = (rec.size, {s.seq: s for s in report.segments})
            self._cache[rec.name] = cached
        return cached[1].get(seq)

    def _read(self, name: str, size: int) -> memoryview:
        """The first ``size`` bytes of file ``name``, one ``File.read``
        through the page cache: each page read once in page order, a miss
        charged once, the bytes copied once."""
        return memoryview(self.fs.open(name).read(0, size))

    def _run(
        self, name: str, size: int, seq: int, snapshot: bool
    ) -> tuple[int, int, bool]:
        """Check file ``name`` in place for the run of whole segments at its
        start that are snapshots (or epochs, with ``snapshot`` False) with
        consecutive seqs from ``seq``.  Returns the run's length, where in
        the file it ends, and whether it is all the file holds."""
        report = StreamReport()
        count = 0
        for seg_seq, _term, flags, _txns, _frames in walk_stream(
            self._read(name, size), report
        ):
            if bool(flags & FLAG_SNAPSHOT) != snapshot or seg_seq != seq + count:
                return count, report.ends[count - 1] if count else 0, False
            count += 1
        return count, report.consumed, report.clean

    def _file_for(self, seq: int) -> _EpochFile | None:
        for rec in self._files:
            if rec.first_seq <= seq <= rec.last_seq:
                return rec
        return None

    # -- GC -----------------------------------------------------------------

    def _gc_limit(self, min_live_cursor: int | None) -> int | None:
        """Highest epoch GC may delete; None — delete nothing — while no
        floor snapshot or no live follower's cursor bounds the trim."""
        if self.floor is None or min_live_cursor is None:
            return None
        return min(min_live_cursor, self.floor)

    def gc(self, min_live_cursor: int | None) -> int:
        """Trim files strictly behind ``min(min_live_cursor, floor)``.

        ``min_live_cursor`` is the lowest durable cursor of the live
        follower fleet (None when no follower is alive).  Only whole
        epoch files whose entire run is at or below the limit are
        unlinked — a partially-needed run stays.  Snapshots strictly
        below the limit are retired, except the floor itself.
        """
        limit = self._gc_limit(min_live_cursor)
        if limit is None:
            return 0
        deleted: list[int] = []
        freed = 0
        while self._files and self._files[0].last_seq <= limit:
            rec = self._files.pop(0)
            self.fs.unlink(rec.name)
            self._cache.pop(rec.name, None)
            deleted.extend(range(rec.first_seq, rec.last_seq + 1))
            freed += rec.size
        snaps_deleted: list[int] = []
        for seq in sorted(self._snapshots):
            if seq < limit and seq != self.floor:
                name, size = self._snapshots.pop(seq)
                self.fs.unlink(name)
                self._snap_cache.pop(seq, None)
                snaps_deleted.append(seq)
                freed += size
        if deleted or snaps_deleted:
            # Journal the unlinks now: a power cut lands before or after
            # the whole batch, never on a half-freed directory.
            self.fs.sync_all()
            self.gc_segments += len(deleted)
            self.gc_bytes += freed
            self._c_gc_segments.inc(len(deleted))
            self._c_gc_bytes.inc(freed)
            self._update_gauges()
            if self.on_gc is not None:
                self.on_gc(tuple(deleted), tuple(snaps_deleted), limit)
        return len(deleted)

    # -- crash / promotion choreography -------------------------------------

    def power_fail(self) -> None:
        """Cut power to the cold store (OS cache lost, device gambles)."""
        self.fs.power_fail()

    def recover(self) -> None:
        """Remount and salvage: longest valid prefix, torn tail truncated.

        Snapshot files that fail to decode (a power cut mid-snapshot
        write) are dropped; the floor falls back to the previous durable
        snapshot.  Epoch files are validated in order — the first torn,
        corrupt, or discontiguous point ends the salvaged run and every
        later file is discarded.
        """
        self.fs.mount()
        names = self.fs.list_names()
        self._snapshots = {}
        self._snap_cache = {}
        self._cache = {}
        for name in names:
            if not name.startswith(_SNAP_PREFIX):
                continue
            size = self.fs.open(name).size
            seq = _name_seq(name, _SNAP_PREFIX)
            if self._run(name, size, seq, snapshot=True) == (1, size, True):
                self._snapshots[seq] = (name, size)
            else:
                self.fs.unlink(name)
        self.floor = max(self._snapshots) if self._snapshots else None

        recs: list[_EpochFile] = []
        torn = False
        expected: int | None = None
        for name in sorted(n for n in names if n.startswith(_EPOCH_PREFIX)):
            if torn:
                self.fs.unlink(name)
                continue
            name_seq = _name_seq(name, _EPOCH_PREFIX)
            if expected is not None and name_seq != expected:
                torn = True
                self.fs.unlink(name)
                continue
            handle = self.fs.open(name)
            kept, offset, whole = self._run(name, handle.size, name_seq, snapshot=False)
            if not whole:
                torn = True  # this file ends the salvaged run
            if not kept:
                self.fs.unlink(name)
                torn = True
                continue
            if offset < handle.size:
                handle.truncate(offset)
                handle.fsync()
            recs.append(_EpochFile(name, name_seq, name_seq + kept - 1, offset))
            expected = name_seq + kept
        self._files = recs
        self.head = recs[-1].last_seq if recs else (self.floor or 0)
        self.durable_head = self.head
        self._unsynced = 0
        self.fs.sync_all()
        self._update_gauges()

    def truncate_above(self, seq: int) -> None:
        """Discard every epoch and snapshot above ``seq`` (term fencing).

        Promotion calls this with the election watermark: epochs past it
        were durable only on the dead primary and must never reseed
        anyone.
        """
        keep: list[_EpochFile] = []
        for rec in self._files:
            if rec.last_seq <= seq:
                keep.append(rec)
                continue
            self._cache.pop(rec.name, None)
            if rec.first_seq > seq:
                self.fs.unlink(rec.name)
                continue
            report = StreamReport()
            offset = 0
            last = rec.first_seq - 1
            for seg_seq, *_ in walk_stream(self._read(rec.name, rec.size), report):
                if seg_seq > seq:
                    break
                offset = report.consumed
                last = seg_seq
            if offset == 0:
                self.fs.unlink(rec.name)
                continue
            handle = self.fs.open(rec.name)
            handle.truncate(offset)
            handle.fsync()
            rec.size = offset
            rec.last_seq = last
            keep.append(rec)
        self._files = keep
        self.head = keep[-1].last_seq if keep else min(self.head, seq)
        for snap_seq in [s for s in self._snapshots if s > seq]:
            name, _ = self._snapshots.pop(snap_seq)
            self.fs.unlink(name)
            self._snap_cache.pop(snap_seq, None)
        self.floor = max(self._snapshots) if self._snapshots else None
        self.fs.sync_all()
        self.durable_head = self.head
        self._unsynced = 0
        self._update_gauges()

    def ensure_floor(self, seq: int, term: int, frames_fn) -> bool:
        """Guarantee a reseed chain ending at ``seq`` exists on disk.

        Normally the chain survives promotion intact (floor snapshot +
        contiguous epochs through the watermark) and this is a no-op.
        When the crash tore it — epochs above the salvaged prefix lost,
        or the floor itself torn — a fallback snapshot at ``seq`` is
        written from ``frames_fn()`` (the promoted node's live pages)
        and counted in ``floor_fallbacks``.
        """
        if self.head < seq:
            # Epochs below the watermark are gone; nothing on disk can
            # connect to it.  Resume the epoch log at the watermark.
            for rec in self._files:
                self.fs.unlink(rec.name)
                self._cache.pop(rec.name, None)
            self._files = []
            self.head = self.durable_head = seq
            self._write_fallback(seq, term, frames_fn)
            return True
        chain_ok = (
            self.floor is not None
            and self.floor <= seq
            and (self.floor == seq or self.min_seq <= self.floor + 1)
        )
        if chain_ok:
            return False
        self._write_fallback(seq, term, frames_fn)
        return True

    def _write_fallback(self, seq: int, term: int, frames_fn) -> None:
        self.write_snapshot(seq, term, tuple(frames_fn()))
        self.floor_fallbacks += 1
        self._c_fallbacks.inc()
