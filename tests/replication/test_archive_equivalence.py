"""The cold store's salvage must do exactly what the reference loops did.

``reference_archive.ReferenceArchive`` keeps ``recover`` and
``truncate_above`` as they were before they were tuned for the host, and
reads every file with ``File.read``.  Each case builds one archive twice —
a seeded history of epochs (some empty) and snapshots on ext4, damaged on
disk — then recovers and fences one copy with the product and the other
with the reference.  The file table, snapshots, floor and heads, every
file's size, blocks and cached pages, the device, the clock, the stats,
the block trace, and every segment read back must be identical.

The segment decoder's reported ends are held to the encoder: each is the
running sum of ``len(encode_segment(seg))``.
"""

from __future__ import annotations

import hashlib
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.archive import ArchiveConfig, SegmentArchive
from repro.config import tuna
from repro.faults.inject import BlockIoFaultInjector
from repro.faults.plan import IoFaultSpec
from repro.hw.clock import SimClock
from repro.hw.stats import Stats
from repro.replication.segment import (
    CHECKPOINT_ID,
    EPOCH_HEADER_SIZE,
    FLAG_SNAPSHOT,
    Segment,
    decode_stream,
    encode_segment,
)
from repro.storage.blockdev import BlockDevice
from repro.storage.ext4 import Ext4FileSystem
from repro.storage.trace import BlockTrace
from repro.wal.frames import NV_HEADER_SIZE, NvFrame
from tests.replication.reference_archive import ReferenceArchive

# ---------------------------------------------------------------------------
# the decoder's segment ends
# ---------------------------------------------------------------------------

_frames = st.lists(
    st.tuples(
        st.integers(1, 40),
        st.sampled_from((0, 8, 100)),
        st.binary(max_size=300),
        st.integers(0, 3),
    ),
    max_size=4,
)
_segments = st.lists(
    st.tuples(st.integers(1, 3), st.booleans(), st.integers(0, 5), _frames),
    min_size=1,
    max_size=5,
)


def _build(specs) -> list[Segment]:
    return [
        Segment(
            seq=seq,
            term=term,
            txns=txns,
            frames=tuple(NvFrame(p, o, data, c, commit=False) for p, o, data, c in frames),
            flags=FLAG_SNAPSHOT if snapshot else 0,
        )
        for seq, (term, snapshot, txns, frames) in enumerate(specs, start=1)
    ]


@settings(max_examples=60, deadline=None)
@given(_segments)
def test_reported_ends_are_the_encoded_lengths(specs):
    """Snapshots and empty epochs among them; and a cut at every byte of
    the last segment leaves the ends of the whole ones."""
    segments = _build(specs)
    blobs = [encode_segment(seg) for seg in segments]
    ends = list(accumulate(map(len, blobs)))
    stream = b"".join(blobs)
    report = decode_stream(stream)
    assert report.clean and report.ends == ends and report.consumed == ends[-1]
    assert report.segments == [
        Segment(s.seq, s.term, s.txns, _closed(s.frames), s.flags) for s in segments
    ]
    start = ends[-1] - len(blobs[-1])
    for cut in range(start, len(stream)):
        report = decode_stream(stream[:cut])
        assert report.ends == ends[:-1]
        assert report.consumed == start
        assert len(report.segments) == len(ends) - 1
        assert report.clean == (cut == start)


def _closed(frames) -> tuple:
    """``frames`` as decoded: the last one carries the epoch close, and
    each one the checkpoint id the encoder writes, whatever its own."""
    return tuple(
        NvFrame(f.page_no, f.offset, f.payload, CHECKPOINT_ID, i == len(frames) - 1)
        for i, f in enumerate(frames)
    )


# ---------------------------------------------------------------------------
# product against reference, on damaged archives
# ---------------------------------------------------------------------------

EPOCHS = 13


def _epoch(seq: int) -> Segment:
    if seq % 4 == 0:
        return Segment(seq=seq, term=1, txns=0)  # an empty group-commit round
    frames = tuple(
        NvFrame(2 + i, 8 * i, bytes([seq + i]) * (60 + 37 * seq), 0, commit=False)
        for i in range(seq % 3 + 1)
    )
    return Segment(seq=seq, term=1, txns=len(frames), frames=frames)


def build(cls, device_mode: str = "plain"):
    """An archive with three snapshots written (the first retired by GC,
    each over five pages) and three epoch files, all fsynced."""
    clock = SimClock()
    device = BlockDevice(tuna().blockdev, clock, Stats(), seed=3)
    if device_mode == "io":
        device.fault_injector = BlockIoFaultInjector(
            IoFaultSpec(read_error_rate=0.4, write_error_rate=0.1), 3
        )
    elif device_mode == "trace":
        device.trace = BlockTrace()
    fs = Ext4FileSystem(device)
    fs.format()
    archive = cls(
        fs,
        clock,
        config=ArchiveConfig(epochs_per_file=4, sync_every=3, snapshot_every=5, gc_every=4),
    )
    archive.bootstrap(
        [NvFrame(pno, 0, bytes([pno]) * fs.page_size, 0, commit=False) for pno in range(1, 6)]
    )
    for seq in range(1, EPOCHS + 1):
        archive.append(_epoch(seq))
        archive.maybe_advance_floor(term=1)
        if seq == 9:
            archive.gc(min_live_cursor=seq)
    archive.sync()
    return archive


def _rewrite(archive, name: str, at: int, data: bytes) -> None:
    handle = archive.fs.open(name)
    handle.write(at, data)
    handle.fsync()


def _epoch_files(archive) -> list[str]:
    return [n for n in archive.fs.list_names() if n.startswith("epochs-")]


def _flip(archive, name: str, at: int) -> None:
    byte = archive.fs.open(name).read(at, 1)[0]
    _rewrite(archive, name, at, bytes([byte ^ 0x20]))


def damage(archive, how: str) -> None:
    """Damage the archive's files on disk as named; then cut the power."""
    files = _epoch_files(archive)
    middle = files[1]
    second = len(encode_segment(_epoch(_first_seq(middle))))
    if how.startswith("cut-"):
        handle = archive.fs.open(files[-1])
        handle.truncate(int(how[4:]))
        handle.fsync()
    elif how == "flip-payload":
        _flip(archive, middle, second + EPOCH_HEADER_SIZE + NV_HEADER_SIZE + 3)
    elif how == "flip-frame-header":
        _flip(archive, middle, second + EPOCH_HEADER_SIZE + 5)
    elif how == "bad-header":
        _flip(archive, middle, second + 9)  # the seq field: the header CRC fails
    elif how == "bad-magic":
        _flip(archive, middle, second)
    elif how == "discontiguous":
        archive.fs.unlink(middle)
        archive.fs.sync_all()
    elif how == "wrong-seq":
        size = archive.fs.open(middle).size
        _rewrite(archive, middle, size, encode_segment(_epoch(50)))
    elif how == "stray-byte":
        _rewrite(archive, middle, archive.fs.open(middle).size, b"\x45")
    elif how == "snapshot-in-run":
        size = archive.fs.open(middle).size
        snapshot = Segment(seq=_first_seq(files[2]), term=1, txns=0, flags=FLAG_SNAPSHOT)
        _rewrite(archive, middle, size, encode_segment(snapshot))
    elif how == "torn-floor":
        name, size = archive._snapshots[archive.floor]
        handle = archive.fs.open(name)
        handle.truncate(size - 7)
        handle.fsync()
    elif how == "torn-tail":
        # Epoch 17 rolls to a new file that only the page cache holds; the
        # floor's fsync journals its size, and the cut leaves it zeros.
        for seq in range(EPOCHS + 1, EPOCHS + 5):
            archive.append(_epoch(seq))
        archive.fs.open(archive._snapshots[archive.floor][0]).fsync()
    elif how == "wrong-floor-name":
        name, size = archive._snapshots[archive.floor]
        blob = archive.fs.open(name).read(0, size)
        archive.fs.create("snap-0000000099.seg").write(0, blob)
        archive.fs.sync_all()
    archive.power_fail()


def _first_seq(name: str) -> int:
    return int(name[len("epochs-") : -len(".seg")])


def observe(archive) -> dict:
    fs = archive.fs
    device = fs.device
    files = {}
    for name in fs.list_names():
        inode = fs._inodes[fs._dir[name]]
        files[name] = (
            inode.size,
            list(inode.page_blocks),
            {idx: bytes(page) for idx, page in inode.pages.items()},
            sorted(inode.dirty_pages),
        )
    media = hashlib.sha256()
    for pages in (device._durable, device._cache):
        for pno in sorted(pages):
            media.update(pno.to_bytes(4, "little") + pages[pno])
    injector = device.fault_injector
    return {
        "table": [(r.name, r.first_seq, r.last_seq, r.size) for r in archive._files],
        "snapshots": dict(archive._snapshots),
        "marks": (archive.floor, archive.head, archive.durable_head, archive._unsynced),
        "caches": (sorted(archive._cache), sorted(archive._snap_cache)),
        "fs": files,
        "device": media.hexdigest(),
        "now_ns": repr(device.clock.now_ns),
        "counters": dict(device.stats.counters),
        "time_ns": {k: repr(v) for k, v in device.stats.time_ns.items()},
        "trace": list(device.trace.events) if device.trace is not None else None,
        "injected": injector.injected if injector is not None else None,
    }


def run(cls, how: str, device_mode: str, fence: int | None) -> list:
    """Build, damage, recover, fence at ``fence``, read everything back;
    observe after each step."""
    archive = build(cls, device_mode)
    damage(archive, how)
    archive.recover()
    seen = [observe(archive)]
    if fence is not None:
        archive.truncate_above(fence)
        seen.append(observe(archive))
    seen.append(
        [archive.segment_at(seq) for seq in range(archive.min_seq, archive.head + 1)]
        + [archive.floor_segment()]
    )
    seen.append(observe(archive))
    return seen


DAMAGES = (
    "none",
    "flip-payload",
    "flip-frame-header",
    "bad-header",
    "bad-magic",
    "discontiguous",
    "wrong-seq",
    "stray-byte",
    "snapshot-in-run",
    "torn-floor",
    "wrong-floor-name",
    "torn-tail",
)
CASES = (
    [(how, "plain", 10) for how in DAMAGES]
    + [(how, mode, 10) for how in ("none", "flip-payload", "torn-floor") for mode in ("io", "trace")]
    + [("none", "plain", fence) for fence in (0, 1, 4, 5, 8, 9, 12, 13)]
    + [("bad-header", "io", 6), ("discontiguous", "trace", 3)]
)


@pytest.mark.parametrize(
    "how, device_mode, fence", CASES, ids=["-".join(map(str, c)) for c in CASES]
)
def test_archive_equals_the_reference(how, device_mode, fence):
    assert run(SegmentArchive, how, device_mode, fence) == run(
        ReferenceArchive, how, device_mode, fence
    )


def test_every_cut_of_the_newest_file():
    """Cuts through the newest file (one segment): at every byte of the
    segment header and the first frame header, then every seventh."""
    archive = build(SegmentArchive)
    size = archive.fs.open(_epoch_files(archive)[-1]).size
    headers = EPOCH_HEADER_SIZE + NV_HEADER_SIZE
    for cut in [*range(headers), *range(headers, size, 7), size]:
        how = f"cut-{cut}"
        assert run(SegmentArchive, how, "plain", None) == run(
            ReferenceArchive, how, "plain", None
        ), how


def test_cases_reach_what_they_are_named_for():
    """The history has what the damage aims at, and each damage ends the
    salvaged run where it sits."""
    archive = build(SegmentArchive)
    assert _epoch_files(archive) == [_name(5), _name(9), _name(13)]
    assert archive.floor == 12 and sorted(archive._snapshots) == [7, 12]
    assert archive._snapshots[12][1] > 5 * archive.fs.page_size
    heads = {}
    for how in DAMAGES:
        archive = build(SegmentArchive)
        damage(archive, how)
        archive.recover()
        heads[how] = (archive.head, archive.floor)
    assert heads == {
        "none": (13, 12),
        # epochs-9 keeps its first segment; epochs-13 goes with the rest
        "flip-payload": (9, 12),
        "flip-frame-header": (9, 12),
        "bad-header": (9, 12),
        "bad-magic": (9, 12),
        "discontiguous": (8, 12),
        "wrong-seq": (12, 12),
        "stray-byte": (12, 12),
        "snapshot-in-run": (12, 12),
        "torn-floor": (13, 7),
        "wrong-floor-name": (13, 12),
        "torn-tail": (16, 12),
    }


def _name(seq: int) -> str:
    return f"epochs-{seq:010d}.seg"
