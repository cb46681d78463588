"""Segment archive: append/roll, floor folding, GC rules, fencing."""

from __future__ import annotations

import json

import pytest

from repro.archive import ArchiveConfig, SegmentArchive
from repro.config import tuna
from repro.faults.inject import BlockIoFaultInjector
from repro.faults.plan import FaultPlan, IoFaultSpec
from repro.hw.clock import SimClock
from repro.hw.stats import Stats
from repro.replication.chaos import _PrematureGcArchive
from repro.replication.segment import Segment
from repro.storage.blockdev import BlockDevice
from repro.storage.ext4 import Ext4FileSystem
from repro.wal.frames import NvFrame


def make_archive(seed=7, io_spec=None, archive_cls=SegmentArchive, **cfg):
    clock = SimClock()
    device = BlockDevice(tuna().blockdev, clock, Stats(), seed=seed)
    if io_spec is not None:
        device.fault_injector = BlockIoFaultInjector(io_spec, seed)
    fs = Ext4FileSystem(device)
    fs.format()
    cfg.setdefault("epochs_per_file", 3)
    cfg.setdefault("sync_every", 2)
    cfg.setdefault("snapshot_every", 6)
    cfg.setdefault("gc_every", 2)
    return archive_cls(fs, clock, config=ArchiveConfig(**cfg))


def page(pno, fill, size=256):
    return NvFrame(pno, 0, bytes([fill]) * size, 0, commit=False)


def epoch(seq, term=1, frames=None):
    if frames is None:
        frames = (page(2, seq & 0xFF),)
    return Segment(seq=seq, term=term, txns=1, frames=tuple(frames))


def fill(archive, through, start=1, term=1):
    for seq in range(start, through + 1):
        archive.append(epoch(seq, term=term))


class TestAppend:
    def test_rolls_files_and_reads_back(self):
        archive = make_archive(epochs_per_file=3)
        fill(archive, 7)
        archive.sync()
        names = archive.fs.list_names()
        assert [n for n in names if n.startswith("epochs-")] == [
            "epochs-0000000001.seg",
            "epochs-0000000004.seg",
            "epochs-0000000007.seg",
        ]
        assert (archive.head, archive.durable_head, archive.min_seq) == (7, 7, 1)
        for seq in range(1, 8):
            seg = archive.segment_at(seq)
            assert seg is not None and seg.seq == seq
            assert seg.frames[0].payload == bytes([seq]) * 256
        assert archive.segment_at(8) is None

    def test_out_of_order_append_rejected(self):
        archive = make_archive()
        fill(archive, 2)
        with pytest.raises(ValueError):
            archive.append(epoch(5))

    def test_sync_every_bounds_buffered_tail(self):
        archive = make_archive(sync_every=4, epochs_per_file=8)
        fill(archive, 3)
        assert archive.durable_head == 0  # still buffered
        archive.append(epoch(4))
        assert archive.durable_head == 4  # sync_every hit


class TestFloor:
    def test_fold_on_disk_matches_replayed_state(self):
        archive = make_archive(snapshot_every=4, epochs_per_file=2)
        base = (page(1, 0xAA), page(2, 0xBB))
        archive.bootstrap(base)
        # Epochs rewrite page 2 and introduce page 3.
        for seq in range(1, 5):
            archive.append(
                epoch(seq, frames=(page(2, seq), page(3, 0x30 + seq)))
            )
        archive.sync()
        assert archive.maybe_advance_floor(term=1)
        assert archive.floor == 4
        floor = archive.floor_segment()
        assert floor.snapshot and floor.seq == 4
        page_size = archive.fs.page_size
        images = {f.page_no: f.payload for f in floor.frames}
        assert set(images) == {1, 2, 3}
        # Page 1 untouched by epochs: the bootstrap image, page-extended.
        assert images[1][:256] == bytes([0xAA]) * 256
        # Pages 2/3: last writer (epoch 4) wins.
        assert images[2][:256] == bytes([4]) * 256
        assert images[3][:256] == bytes([0x34]) * 256
        # A page first materialized by an epoch folds onto a zero page;
        # pages from the bootstrap keep the bootstrap image's length.
        assert len(images[2]) == 256 and len(images[3]) == page_size

    def test_floor_does_not_advance_below_cadence(self):
        archive = make_archive(snapshot_every=6)
        archive.bootstrap((page(1, 0x11),))
        fill(archive, 5)
        archive.sync()
        assert not archive.maybe_advance_floor(term=1)
        assert archive.floor == 0

    def test_ensure_floor_noop_when_chain_intact(self):
        archive = make_archive()
        archive.bootstrap((page(1, 0x11),))
        fill(archive, 4)
        archive.sync()
        assert not archive.ensure_floor(4, 2, lambda: (page(1, 0x99),))
        assert archive.floor_fallbacks == 0

    def test_ensure_floor_falls_back_when_chain_broken(self):
        archive = make_archive(epochs_per_file=2, archive_cls=_PrematureGcArchive)
        archive.bootstrap((page(1, 0x11),))
        fill(archive, 2)
        archive.sync()
        # The planted GC bug loses the prefix: the first epoch run goes, so
        # nothing connects the seq-0 floor to the watermark.
        archive.gc(0)
        fill(archive, 6, start=3)
        archive.sync()
        assert archive.min_seq == 3
        assert archive.ensure_floor(6, 2, lambda: (page(1, 0x99),))
        assert archive.floor == 6 and archive.floor_fallbacks == 1
        floor = archive.floor_segment()
        assert floor.term == 2 and floor.frames[0].payload[:1] == b"\x99"


class TestGc:
    def test_trims_behind_cursor_and_floor(self):
        archive = make_archive(epochs_per_file=2, snapshot_every=4)
        archive.bootstrap((page(1, 0x11),))
        fill(archive, 8)
        archive.sync()
        assert archive.maybe_advance_floor(term=1)  # floor -> 8
        calls = []
        archive.on_gc = lambda dels, snaps, limit: calls.append(
            (dels, snaps, limit)
        )
        # Fleet cursor at 5: only whole files entirely <= 5 go (1-2, 3-4);
        # the 5-6 file survives because epoch 6 is above the limit.
        assert archive.gc(5) == 4
        assert archive.min_seq == 5
        # The superseded seq-0 snapshot went with the batch; the floor
        # itself is never a GC candidate.
        assert calls == [((1, 2, 3, 4), (0,), 5)]
        # Cursor past the head: the limit clamps at the floor.
        archive.gc(99)
        assert archive.min_seq == 9  # every epoch file at/below floor 8
        assert archive.floor == 8 and 0 not in archive._snapshots
        assert archive.gc_segments == 8 and archive.gc_bytes > 0

    def test_never_deletes_without_a_floor(self):
        archive = make_archive()
        fill(archive, 4)
        archive.sync()
        assert archive.gc(99) == 0
        assert archive.min_seq == 1

    def test_no_live_cursor_deletes_nothing(self):
        archive = make_archive(epochs_per_file=2, snapshot_every=4)
        archive.bootstrap((page(1, 0x11),))
        fill(archive, 8)
        archive.sync()
        assert archive.maybe_advance_floor(term=1)
        assert archive.gc(None) == 0
        assert archive.min_seq == 1

    def test_premature_gc_archive_models_the_planted_bug(self):
        """The chaos harness's ``"gc"`` bug: trim to the archived head."""
        archive = make_archive(epochs_per_file=2, archive_cls=_PrematureGcArchive)
        archive.bootstrap((page(1, 0x11),))
        fill(archive, 4)
        archive.sync()
        deleted = []
        archive.on_gc = lambda dels, snaps, limit: deleted.extend(dels)
        archive.gc(1)  # past the fleet cursor AND the floor
        assert deleted == [1, 2, 3, 4]
        assert archive.segment_at(2) is None


class TestTruncateAbove:
    def test_straddling_file_is_rewritten_in_place(self):
        archive = make_archive(epochs_per_file=4)
        fill(archive, 7)
        archive.sync()
        archive.truncate_above(6)  # epoch 7 straddles file epochs-5..7
        assert (archive.head, archive.durable_head) == (6, 6)
        assert archive.segment_at(6) is not None
        assert archive.segment_at(7) is None
        # The surviving prefix still decodes cleanly from disk.
        archive.recover()
        assert archive.head == 6

    def test_snapshots_above_watermark_are_fenced(self):
        archive = make_archive(snapshot_every=4, epochs_per_file=2)
        archive.bootstrap((page(1, 0x11),))
        fill(archive, 4)
        archive.sync()
        archive.maybe_advance_floor(term=1)  # floor -> 4
        archive.truncate_above(2)
        assert archive.floor == 0  # the seq-4 snapshot died with the fence
        assert archive.head == 2


class TestIoFaults:
    def test_transient_io_errors_are_absorbed(self):
        spec = IoFaultSpec(read_error_rate=0.05, write_error_rate=0.05)
        archive = make_archive(io_spec=spec, epochs_per_file=3)
        archive.bootstrap((page(1, 0x11),))
        fill(archive, 12)
        archive.sync()
        for seq in range(1, 13):
            assert archive.segment_at(seq) is not None
        assert archive.fs.device.fault_injector.injected > 0


class TestFaultPlanRoundTrip:
    def test_archive_io_survives_json(self):
        plan = FaultPlan(
            seed=3,
            archive_io=IoFaultSpec(read_error_rate=0.04, write_error_rate=0.02),
        )
        data = json.loads(json.dumps(plan.to_json()))
        back = FaultPlan.from_json(data)
        assert back.archive_io == plan.archive_io
        assert back == plan

    def test_absent_archive_io_stays_none(self):
        plan = FaultPlan(seed=3)
        assert FaultPlan.from_json(plan.to_json()).archive_io is None
