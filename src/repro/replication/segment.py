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
  mirroring ``NvwalBackend._scan_frames``;
* every frame's checkpoint-id field and payload padding are zero.  No
  checksum covers them, and no receiver reads the id (a follower re-logs
  the frames under its own), so the encoder writes a fixed
  :data:`CHECKPOINT_ID` and the decoder checks the bytes for it.

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
from dataclasses import dataclass, field

from repro.wal.frames import (
    NV_HEADER_SIZE,
    NvFrame,
    encode_nv_frame,
    epoch_close_value,
    nv_frame_at,
    payload_checksum,
    pending_value,
)

#: "EPCH" — segment header magic.
EPOCH_MAGIC = 0x45_50_43_48

#: magic u32 | term u32 | seq u64 | flags u32 | txn_count u32 |
#: frame_count u32 | byte_len u32 | header_crc u32
EPOCH_HEADER_FMT = "<IIQIIIII"
_EPOCH_HEADER = struct.Struct(EPOCH_HEADER_FMT)
EPOCH_HEADER_SIZE = _EPOCH_HEADER.size
assert EPOCH_HEADER_SIZE == 36

#: Segment carries a full-state snapshot, not an incremental epoch.
FLAG_SNAPSHOT = 1

#: The checkpoint id every shipped frame carries.
CHECKPOINT_ID = 0


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
    leaves in NVRAM, so a decoder can tell a whole epoch landed — and
    checkpoint id :data:`CHECKPOINT_ID`, whatever the frame's own.  An
    empty epoch (group commit round that logged no bytes) is legal and
    encodes as a bare header.
    """
    frames = segment.frames
    body = bytearray()
    for index, frame in enumerate(frames):
        closing = index == len(frames) - 1
        body += encode_nv_frame(
            frame,
            word_of=epoch_close_value if closing else pending_value,
            checkpoint_id=CHECKPOINT_ID,
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
    """What :func:`decode_stream` salvaged from one received byte run.

    ``ends[i]`` is the stream offset just past the ``i``-th whole segment
    the walk accepted (``consumed`` is the last of them): the length a
    file must keep to hold the first ``i + 1``.
    """

    segments: list = field(default_factory=list)
    consumed: int = 0
    reason: str = ""
    ends: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.reason


def walk_stream(data, report: StreamReport, verify: bool = True):
    """Walk the longest valid closed-epoch prefix of ``data``, checking
    every frame in place: the one loop over the segment stream.

    Yields ``(seq, term, flags, txns, frames)`` for each whole segment, in
    stream order, where ``frames`` lists ``(page_no, offset, start, size,
    checkpoint_id)`` — the payload is ``data[start:start + size]``.  Before
    a segment is yielded its end is appended to ``report.ends`` and made
    ``report.consumed``; when the walk stops short of the end of ``data``
    the reason is in ``report.reason``.  Builds no frame and copies no
    payload, so a caller after segment boundaries alone pays for neither.

    Structural damage (bad magic, torn header, body shorter than
    ``byte_len``) always stops the walk.  With ``verify`` (the default)
    payload checksums, the final close word and the zero checkpoint ids
    and padding are checked too, so a single flipped bit anywhere in a
    frame rejects the whole segment.  ``verify=False`` accepts
    structurally parseable segments with whatever bytes arrived.
    """
    view = memoryview(data)
    size = len(view)
    unpack = _EPOCH_HEADER.unpack_from
    crc32 = zlib.crc32
    pos = 0
    while pos < size:
        if pos + EPOCH_HEADER_SIZE > size:
            report.reason = "torn segment header"
            return
        magic, term, seq, flags, txns, frame_count, byte_len, crc = unpack(view, pos)
        if magic != EPOCH_MAGIC:
            report.reason = "bad segment magic"
            return
        if crc32(view[pos : pos + EPOCH_HEADER_SIZE - 4]) != crc:
            report.reason = "segment header corrupt"
            return
        body_end = pos + EPOCH_HEADER_SIZE + byte_len
        if body_end > size:
            report.reason = "torn segment body"
            return
        frames = []
        fpos = pos + EPOCH_HEADER_SIZE
        last = frame_count - 1
        for index in range(frame_count):
            found = nv_frame_at(view, fpos, body_end)
            if isinstance(found, str):
                report.reason = found
                return
            page_no, offset, length, checksum, word, ckpt, end = found
            start = fpos + NV_HEADER_SIZE
            if verify:
                payload = view[start : start + length]
                if checksum != payload_checksum(payload, page_no, offset):
                    report.reason = "frame checksum mismatch"
                    return
                if word != (epoch_close_value(checksum) if index == last else 0):
                    report.reason = "missing epoch close word"
                    return
                if ckpt != CHECKPOINT_ID or any(view[start + length : end]):
                    report.reason = "frame checkpoint id or padding not zero"
                    return
            frames.append((page_no, offset, start, length, ckpt))
            fpos = end
        if fpos != body_end:
            report.reason = "segment length mismatch"
            return
        report.ends.append(body_end)
        report.consumed = body_end
        yield seq, term, flags, txns, frames
        pos = body_end


def decode_stream(data: bytes, verify: bool = True) -> StreamReport:
    """Decode the longest valid closed-epoch prefix of ``data`` into
    :class:`Segment` objects (:func:`walk_stream` says what is valid).

    A follower decodes what it received with ``verify`` on, so a single
    flipped payload bit rejects the whole segment and the follower keeps
    its cursor and waits for a resend.  ``verify=False`` models a follower
    whose integrity check was sabotaged away.  Every frame but a
    segment's last is pending; the last carries the epoch close.
    """
    report = StreamReport()
    segments = report.segments
    view = memoryview(data)
    for seq, term, flags, txns, found in walk_stream(view, report, verify):
        last = len(found) - 1
        frames = tuple(
            NvFrame(
                page_no, offset, bytes(view[start : start + length]), ckpt, index == last
            )
            for index, (page_no, offset, start, length, ckpt) in enumerate(found)
        )
        segments.append(
            Segment(seq=seq, term=term, txns=txns, frames=frames, flags=flags)
        )
    return report
