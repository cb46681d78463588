"""Wire format for shipped WAL segments.

One *segment* carries one sealed group-commit epoch: a fixed header
followed by the epoch's NVWAL frames.  This module frames the epoch
header around them; the frames themselves are written and parsed by the
one codec in :mod:`repro.wal.frames`.  The encoding deliberately reuses
the NVWAL on-media commit discipline so a follower applies exactly the
WAL's longest-valid-prefix salvage rules to the byte stream it received:

* every frame's payload checksum must match;
* every frame but the last carries commit word ``0`` (pending);
* the last frame carries the *epoch close* word derived from its
  checksum — a torn or bit-flipped segment cannot end in a valid close
  word, so :func:`decode_stream` stops at the last fully closed epoch,
  mirroring ``NvwalBackend._scan_frames``.

The header binds the segment to a replication *term* (bumped at every
failover promotion, fencing stale primaries) and a dense epoch sequence
number.  A header CRC over the first seven fields rejects headers that
were themselves torn or corrupted in flight.

Snapshot segments (``FLAG_SNAPSHOT``) carry full page images — the state
transfer used to reseed a follower whose history diverged (it restarted
with epochs the new primary never had) or that fell behind the shipping
log's base.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field, replace

from repro.errors import FrameFormatError
from repro.wal.frames import (
    decode_nv_frame,
    encode_nv_frame,
    epoch_close_value,
    pending_value,
)

#: "EPCH" — segment header magic.
EPOCH_MAGIC = 0x45_50_43_48

#: magic u32 | term u32 | seq u64 | flags u32 | txn_count u32 |
#: frame_count u32 | byte_len u32 | header_crc u32
EPOCH_HEADER_FMT = "<IIQIIIII"
EPOCH_HEADER_SIZE = struct.calcsize(EPOCH_HEADER_FMT)
assert EPOCH_HEADER_SIZE == 36

#: Segment carries a full-state snapshot, not an incremental epoch.
FLAG_SNAPSHOT = 1


@dataclass(frozen=True)
class Segment:
    """One decoded shipped segment (epoch or snapshot)."""

    seq: int
    term: int
    txns: int
    frames: tuple = ()
    flags: int = 0

    @property
    def snapshot(self) -> bool:
        return bool(self.flags & FLAG_SNAPSHOT)


def _pack_header(
    term: int, seq: int, flags: int, txns: int, frame_count: int, byte_len: int
) -> bytes:
    head = struct.pack(
        "<IIQIII", EPOCH_MAGIC, term, seq, flags, txns, frame_count
    ) + struct.pack("<I", byte_len)
    return head + struct.pack("<I", zlib.crc32(head))


def encode_segment(segment: Segment) -> bytes:
    """Serialize a segment: header, then frames with the close discipline.

    All frames get commit word ``0`` except the last, which gets the
    epoch-close word — the same marking :meth:`NvwalBackend.group_close`
    leaves in NVRAM, so a decoder can tell a whole epoch landed.  An
    empty epoch (group commit round that logged no bytes) is legal and
    encodes as a bare header.
    """
    frames = segment.frames
    body = bytearray()
    for index, frame in enumerate(frames):
        closing = index == len(frames) - 1
        body += encode_nv_frame(
            frame, word_of=epoch_close_value if closing else pending_value
        )
    header = _pack_header(
        segment.term,
        segment.seq,
        segment.flags,
        segment.txns,
        len(frames),
        len(body),
    )
    return header + bytes(body)


@dataclass
class StreamReport:
    """What :func:`decode_stream` salvaged from one received byte run."""

    segments: list = field(default_factory=list)
    consumed: int = 0
    reason: str = ""

    @property
    def clean(self) -> bool:
        return not self.reason


def decode_stream(data: bytes, verify: bool = True) -> StreamReport:
    """Decode the longest valid closed-epoch prefix of ``data``.

    Structural damage (bad magic, torn header, body shorter than
    ``byte_len``) always stops the scan.  With ``verify`` (the default)
    payload checksums and the final close word are checked too, so a
    single flipped payload bit rejects the whole segment — the follower
    keeps its cursor and waits for a resend.  ``verify=False`` models a
    follower whose integrity check was sabotaged away: structurally
    parseable segments are accepted with whatever bytes arrived.
    """
    report = StreamReport()
    pos = 0
    while pos < len(data):
        if pos + EPOCH_HEADER_SIZE > len(data):
            report.reason = "torn segment header"
            return report
        magic, term, seq, flags, txns, frame_count, byte_len, crc = (
            struct.unpack_from(EPOCH_HEADER_FMT, data, pos)
        )
        if magic != EPOCH_MAGIC:
            report.reason = "bad segment magic"
            return report
        if zlib.crc32(data[pos : pos + EPOCH_HEADER_SIZE - 4]) != crc:
            report.reason = "segment header corrupt"
            return report
        body_end = pos + EPOCH_HEADER_SIZE + byte_len
        if body_end > len(data):
            report.reason = "torn segment body"
            return report
        frames = []
        fpos = pos + EPOCH_HEADER_SIZE
        for index in range(frame_count):
            try:
                frame, checksum, word, intact, fpos = decode_nv_frame(
                    data, fpos, body_end
                )
            except FrameFormatError as exc:
                report.reason = str(exc)
                return report
            closing = index == frame_count - 1
            if verify:
                if not intact:
                    report.reason = "frame checksum mismatch"
                    return report
                word_of = epoch_close_value if closing else pending_value
                if word != word_of(checksum):
                    report.reason = "missing epoch close word"
                    return report
            elif frame.commit != closing:  # unverified: a stray word got in
                frame = replace(frame, commit=closing)
            frames.append(frame)
        if fpos != body_end:
            report.reason = "segment length mismatch"
            return report
        report.segments.append(
            Segment(seq=seq, term=term, txns=txns, frames=tuple(frames), flags=flags)
        )
        pos = body_end
        report.consumed = pos
    return report
