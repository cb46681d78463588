"""The cold store's salvage loops as they were before they were tuned for
the host.

:class:`ReferenceArchive` recovers and fences with the straightforward code
the product replaced: every file is read whole with ``File.read`` and
decoded into :class:`~repro.replication.segment.Segment` objects, and the
length of each kept segment is learned by encoding it again.
``test_archive_equivalence.py`` holds the product to it: the same file
table, snapshots, floor, heads, file system, clock, stats and block trace.
"""

from __future__ import annotations

from repro.archive import SegmentArchive
from repro.archive.store import _EPOCH_PREFIX, _SNAP_PREFIX, _EpochFile, _name_seq
from repro.replication.segment import Segment, decode_stream, encode_segment


class ReferenceArchive(SegmentArchive):
    """The segment archive with the reference ``recover`` and
    ``truncate_above``."""

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
            handle = self.fs.open(name)
            report = decode_stream(handle.read(0, handle.size))
            seg = report.segments[0] if report.segments else None
            if (
                report.clean
                and len(report.segments) == 1
                and seg.snapshot
                and seg.seq == _name_seq(name, _SNAP_PREFIX)
            ):
                self._snapshots[seg.seq] = (name, handle.size)
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
            report = decode_stream(handle.read(0, handle.size))
            kept: list[Segment] = []
            offset = 0
            seq_expect = name_seq
            for seg in report.segments:
                if seg.snapshot or seg.seq != seq_expect:
                    break
                kept.append(seg)
                offset += len(encode_segment(seg))
                seq_expect += 1
            if not report.clean or len(kept) < len(report.segments):
                torn = True  # this file ends the salvaged run
            if not kept:
                self.fs.unlink(name)
                torn = True
                continue
            if offset < handle.size:
                handle.truncate(offset)
                handle.fsync()
            recs.append(_EpochFile(name, kept[0].seq, kept[-1].seq, offset))
            expected = seq_expect
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
            handle = self.fs.open(rec.name)
            report = decode_stream(handle.read(0, rec.size))
            offset = 0
            last = rec.first_seq - 1
            for seg in report.segments:
                if seg.seq > seq:
                    break
                offset += len(encode_segment(seg))
                last = seg.seq
            if offset == 0:
                self.fs.unlink(rec.name)
                continue
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
