"""The salvage property (``tests/salvage_property.py``) on the segment
stream and the segment archive.

The stream is what a follower receives: it keeps the prefix the decoder
accepted and appends what arrives next.  The archive holds the same
segments in epoch files on ext4, three to a file, so a damaged unit may
sit mid-file, first in a file, or in the newest file, with whole files
after it; its recovery runs across a power cut.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.archive import ArchiveConfig, SegmentArchive
from repro.config import tuna
from repro.hw.clock import SimClock
from repro.hw.stats import Stats
from repro.replication.segment import (
    EPOCH_HEADER_SIZE,
    Segment,
    decode_stream,
    encode_segment,
)
from repro.storage.blockdev import BlockDevice
from repro.storage.ext4 import Ext4FileSystem
from repro.wal.frames import NV_HEADER_SIZE, NvFrame
from tests.salvage_property import DAMAGE_KINDS, SalvageFormat, check_salvage


def segment_unit(j: int) -> Segment:
    """Epoch ``j + 1``: empty every fifth, else one to three frames, the
    last of which carries the close."""
    seq = j + 1
    count = 0 if j % 5 == 4 else j % 3 + 1
    frames = tuple(
        NvFrame(2 + f, 16 * f, bytes([seq * 7 + f]) * (40 + 29 * j), 0, f == count - 1)
        for f in range(count)
    )
    return Segment(seq=seq, term=1, txns=count, frames=frames)


def _damage_at(blob: bytes, kind: str) -> tuple[int, int | None]:
    """Where in a unit's bytes the damage goes: ``(offset, xor)``, or
    ``(offset, None)`` for a log that ends at ``offset``.  A unit without
    a payload takes a flip in its header."""
    if kind == "torn":
        return len(blob) // 2, None
    if kind == "flip" and len(blob) > EPOCH_HEADER_SIZE:
        return EPOCH_HEADER_SIZE + NV_HEADER_SIZE + 1, 0x08
    return 9, 0x01  # the seq field: the header CRC no longer matches


# -- the segment stream ------------------------------------------------------


def _stream_append(log: bytearray, units: list) -> None:
    for unit in units:
        log += encode_segment(unit)


def _stream_damage(log: bytearray, j: int, kind: str) -> None:
    start = sum(len(encode_segment(segment_unit(u))) for u in range(j))
    offset, xor = _damage_at(encode_segment(segment_unit(j)), kind)
    if xor is None:
        del log[start + offset :]
    else:
        log[start + offset] ^= xor


def _stream_recover(log: bytearray) -> list:
    report = decode_stream(bytes(log))
    del log[report.consumed :]  # what a receiver keeps
    return report.segments


SEGMENT_STREAM = SalvageFormat(
    "segment stream",
    segment_unit,
    bytearray,
    _stream_append,
    _stream_damage,
    _stream_recover,
)


# -- the segment archive -----------------------------------------------------


def _fresh_archive() -> SegmentArchive:
    clock = SimClock()
    fs = Ext4FileSystem(BlockDevice(tuna().blockdev, clock, Stats(), seed=5))
    fs.format()
    archive = SegmentArchive(
        fs, clock, config=ArchiveConfig(epochs_per_file=3, sync_every=1)
    )
    archive.bootstrap(())
    return archive


def _archive_append(archive: SegmentArchive, units: list) -> None:
    for unit in units:
        archive.append(unit)
    archive.sync()


def _archive_damage(archive: SegmentArchive, j: int, kind: str) -> None:
    seq = j + 1
    rec = next(r for r in archive._files if r.first_seq <= seq <= r.last_seq)
    start = sum(
        len(encode_segment(segment_unit(s - 1))) for s in range(rec.first_seq, seq)
    )
    offset, xor = _damage_at(encode_segment(segment_unit(j)), kind)
    handle = archive.fs.open(rec.name)
    if xor is None:
        handle.truncate(start + offset)
    else:
        byte = handle.read(start + offset, 1)[0]
        handle.write(start + offset, bytes([byte ^ xor]))
    handle.fsync()
    archive.power_fail()


def _archive_recover(archive: SegmentArchive) -> list:
    archive.recover()
    assert archive.segment_at(archive.head + 1) is None
    return [archive.segment_at(seq) for seq in range(1, archive.head + 1)]


SEGMENT_ARCHIVE = SalvageFormat(
    "segment archive",
    segment_unit,
    _fresh_archive,
    _archive_append,
    _archive_damage,
    _archive_recover,
)

FORMATS = (SEGMENT_STREAM, SEGMENT_ARCHIVE)


@st.composite
def _cases(draw):
    n = draw(st.integers(1, 8))
    i = draw(st.integers(0, n - 1))
    return (
        draw(st.sampled_from(FORMATS)),
        n,
        i,
        draw(st.sampled_from(DAMAGE_KINDS)),
        draw(st.integers(0, n - i)),
    )


@settings(max_examples=80, deadline=None)
@given(_cases())
def test_salvage_keeps_the_prefix_and_nothing_past_it(case):
    check_salvage(*case)


def test_every_unit_of_every_format():
    """Each damage at each of seven units, with every lost unit
    resubmitted: the cases the property's search may not draw."""
    for fmt in FORMATS:
        for kind in DAMAGE_KINDS:
            for i in range(7):
                check_salvage(fmt, 7, i, kind, 7 - i)
