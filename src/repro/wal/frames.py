"""WAL frame formats and checksums.

Only this module knows the NVWAL header layout, the 8-byte payload padding
and the checksum binding: the NVRAM log and the shipped-segment wire format
both go through :func:`encode_nv_frame` and :func:`decode_nv_frame`.

Two frame shapes exist in the paper:

* the stock SQLite **file** frame: a 24-byte header (page number, db-size/
  commit field, salts, checksums) followed by a full 4 KB page image
  (Section 5.4);
* the **NVWAL** frame: a 32-byte header (page number, in-page offset, frame
  size, checkpointing id, commit flag, checksum) followed by an
  arbitrary-sized payload produced by differential logging (Section 3.2).

Checksums use CRC-32 (folded into the 64-bit field for NVRAM frames).  The
checksum never covers the commit flag, because the commit flag is written
*after* the rest of the frame (Algorithm 1 lines 29-35) — covering it would
invalidate the checksum the moment the transaction commits.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.config import FILE_FRAME_HEADER_SIZE, NV_FRAME_HEADER_SIZE
from repro.errors import ChecksumError, FrameFormatError

if TYPE_CHECKING:
    from repro.wal.base import LogPages

NV_FRAME_MAGIC = 0x4E_56_46_52  # "NVFR"
# magic u32 | page_no u32 | offset u32 | size u32 | checksum u64 |
# commit u32 | ckpt_id u32  — exactly 32 bytes (Section 3.2).
# The commit field sits at byte 24, 8-byte aligned, and shares its atomic
# 8-byte persist unit with the checkpoint id (known and unchanged), so the
# commit-mark write is one atomic store that cannot touch the checksum —
# the paper's "commit mark ... flushed to NVRAM with 8 bytes padding"
# (Section 4.1).
NV_HEADER_FMT = "<IIIIQII"
_NV_HEADER = struct.Struct(NV_HEADER_FMT)
NV_HEADER_SIZE = _NV_HEADER.size
assert NV_HEADER_SIZE == NV_FRAME_HEADER_SIZE
_NV_COMMIT_OFFSET = 24  # byte offset of the commit field within the header

FILE_HEADER_FMT = "<IIIIII"  # page_no, commit_db_size, salt1, salt2, chk1, chk2
FILE_HEADER_SIZE = struct.calcsize(FILE_HEADER_FMT)
assert FILE_HEADER_SIZE == FILE_FRAME_HEADER_SIZE

#: Number of low bits of the checksum actually stored.  64 keeps the full
#: (doubled) CRC; tests shrink it to make the asynchronous-commit
#: corruption window observable (Section 4.2).
FULL_CHECKSUM_BITS = 64


def payload_checksum(payload: bytes, page_no: int, offset: int, bits: int = FULL_CHECKSUM_BITS) -> int:
    """Checksum of a frame payload, bound to its page and offset."""
    crc1 = zlib.crc32(payload)
    crc2 = zlib.crc32(struct.pack("<II", page_no, offset), crc1)
    value = (crc2 << 32) | crc1
    if bits >= 64:
        return value
    return value & ((1 << bits) - 1)


#: Sentinel in the header's offset field: the payload is an extent list
#: (several dirty byte ranges of one page packed into a single frame, so
#: differential logging never changes the frame count per transaction).
EXTENT_LIST = 0xFFFF_FFFF

_EXTENT_HEADER = struct.Struct("<HH")  # in-page offset, length


@dataclass(frozen=True)
class NvFrame:
    """One decoded NVWAL frame.

    ``offset`` is the in-page offset of a contiguous payload, or
    :data:`EXTENT_LIST` when the payload packs multiple dirty extents.
    """

    page_no: int
    offset: int
    payload: bytes
    checkpoint_id: int
    commit: bool

    @classmethod
    def from_extents(
        cls,
        page_no: int,
        extents: list[tuple[int, bytes]],
        checkpoint_id: int,
    ) -> "NvFrame":
        """Build one frame covering all dirty extents of a page."""
        if len(extents) == 1:
            offset, data = extents[0]
            return cls(page_no, offset, data, checkpoint_id, commit=False)
        payload = b"".join(
            _EXTENT_HEADER.pack(offset, len(data)) + data
            for offset, data in extents
        )
        return cls(page_no, EXTENT_LIST, payload, checkpoint_id, commit=False)

    def extent_list(self) -> list[tuple[int, bytes]]:
        """The dirty extents this frame carries."""
        return [
            (offset, bytes(data)) for offset, data in extents(self.offset, self.payload)
        ]

    def apply_to(self, base: bytes) -> bytes:
        """Apply this frame's extents to a base page image."""
        image = bytearray(base)
        patch_page(image, self.page_no, self.offset, self.payload)
        return bytes(image)


def extents(offset: int, payload) -> list[tuple[int, bytes]]:
    """The ``(in-page offset, bytes)`` extents of a frame whose header
    offset field is ``offset``; slices of ``payload``, so a memoryview
    payload yields views."""
    if offset != EXTENT_LIST:
        return [(offset, payload)]
    out = []
    pos = 0
    last = len(payload) - _EXTENT_HEADER.size  # where the last header can start
    unpack = _EXTENT_HEADER.unpack_from
    while pos <= last:
        at, length = unpack(payload, pos)
        pos += _EXTENT_HEADER.size
        out.append((at, payload[pos : pos + length]))
        pos += length
    return out


def patch_page(image: bytearray, page_no: int, offset: int, payload) -> None:
    """Write one frame's extents into the page ``image`` in place.

    Raises :class:`ChecksumError`, with ``image`` untouched, if any extent
    runs past the page."""
    parts = extents(offset, payload)
    size = len(image)
    for at, data in parts:
        if at + len(data) > size:
            raise ChecksumError(f"frame for page {page_no}: extent out of bounds")
    for at, data in parts:
        image[at : at + len(data)] = data


def fold_frames(frames, base_for: Callable[[int], bytes]) -> dict[int, bytes]:
    """Apply ``frames`` in order onto page images; ``base_for(page_no)``
    supplies a page's image the first time a frame touches it.  Returns
    the final image of every touched page, in first-touch order."""
    final: dict[int, bytes] = {}
    for frame in frames:
        base = final.get(frame.page_no)
        if base is None:
            base = base_for(frame.page_no)
        final[frame.page_no] = frame.apply_to(base)
    return final


def encode_nv_frame(
    frame: NvFrame,
    checksum_bits: int = FULL_CHECKSUM_BITS,
    word_of: Callable[[int], int] | None = None,
    checkpoint_id: int | None = None,
) -> bytes:
    """Serialize a frame: header, payload, zero padding to 8 bytes.

    The commit field holds ``word_of(checksum)`` — by default the
    standalone commit word for a frame flagged ``commit`` and
    :func:`pending_value` otherwise (NVWAL stores the word later, with
    the commit mark).  ``checkpoint_id``, when given, is written instead
    of the frame's own.
    """
    if word_of is None:
        word_of = commit_mark_value if frame.commit else pending_value
    checksum = payload_checksum(
        frame.payload, frame.page_no, frame.offset, checksum_bits
    )
    header = struct.pack(
        NV_HEADER_FMT,
        NV_FRAME_MAGIC,
        frame.page_no,
        frame.offset,
        len(frame.payload),
        checksum,
        word_of(checksum),
        frame.checkpoint_id if checkpoint_id is None else checkpoint_id,
    )
    padded = frame.payload + bytes(_align8(len(frame.payload)) - len(frame.payload))
    return header + padded


def pending_value(checksum: int) -> int:
    """Commit word of a frame that marks no boundary (yet): zero."""
    return 0


def commit_mark_value(checksum: int) -> int:
    """The non-zero 32-bit commit word for a frame with ``checksum``.

    The commit word is derived from the frame's stored checksum (folded to
    32 bits, low bit forced so it can never be zero) rather than being a
    constant 1.  A constant flag is one random bit flip away from a
    *phantom commit* — media decay could mint a committed transaction out
    of an aborted one.  Binding the word to the checksum means a corrupted
    commit field is recognizably invalid (neither zero nor the expected
    word) and recovery salvages up to it instead of replaying garbage.
    """
    return ((checksum ^ (checksum >> 32)) & 0xFFFF_FFFF) | 1


#: How an epoch word differs from the standalone commit word (XOR): a
#: non-zero commit word ``w`` of a frame with checksum ``c`` is valid iff
#: ``w ^ commit_mark_value(c)`` is 0 (commit), :data:`EPOCH_MEMBER` or
#: :data:`EPOCH_CLOSE`.
EPOCH_MEMBER = 2
EPOCH_CLOSE = 4


def epoch_member_value(checksum: int) -> int:
    """Commit word stamped on a transaction's last frame inside an *open*
    group-commit epoch.

    It is the standalone commit word with bit 1 flipped, so it is equally
    checksum-bound (a decayed word is recognizably invalid) but recovery
    can tell it apart: a member mark records a transaction boundary without
    committing anything — the frames stay pending until an epoch-close
    word lands, which is how a power failure inside an open epoch loses
    the whole epoch and never a partial one.
    """
    return commit_mark_value(checksum) ^ EPOCH_MEMBER


def epoch_close_value(checksum: int) -> int:
    """Commit word that closes a group-commit epoch.

    The standalone commit word with bit 2 flipped.  One atomic 8-byte
    store of this word commits every pending frame of the epoch at once;
    like the other words it is derived from the carrying frame's checksum
    so corruption cannot mint a phantom epoch.
    """
    return commit_mark_value(checksum) ^ EPOCH_CLOSE


def commit_mark_bytes(
    checkpoint_id: int, checksum: int, word: int | None = None
) -> tuple[int, bytes]:
    """(offset within the frame header, 8-byte commit-mark store).

    The commit mark is one word, but NVRAM guarantees 8-byte atomic writes,
    so it is stored padded to 8 bytes (Section 4.1).  The header layout
    places the commit field on an 8-byte-aligned offset whose atomic unit
    also holds the (unchanged) checkpoint id, so the store stays inside the
    frame header and rewrites nothing else.  ``checksum`` is the frame's
    *stored* (bit-masked) checksum; see :func:`commit_mark_value`.  ``word``
    overrides the stored commit word for the epoch member/close variants.
    """
    if word is None:
        word = commit_mark_value(checksum)
    return _NV_COMMIT_OFFSET, struct.pack("<II", word, checkpoint_id)


def decode_nv_frame_header(
    raw: bytes, offset: int = 0
) -> tuple[int, int, int, int, int, int, int]:
    """Unpack a frame header; returns
    (magic, page_no, payload_offset, size, checksum, ckpt_id, commit)."""
    magic, page_no, off, size, checksum, commit, ckpt = _NV_HEADER.unpack_from(
        raw, offset
    )
    return magic, page_no, off, size, checksum, ckpt, commit


def nv_frame_at(
    raw: bytes, pos: int, limit: int
) -> tuple[int, int, int, int, int, int, int] | str:
    """Locate the frame at ``raw[pos:limit]`` without copying or checking
    its payload: ``(page_no, offset, size, checksum, word, ckpt_id,
    end)`` — its header fields and the position of the next frame (past
    the padding); the payload is the ``size`` bytes after the header —
    or, when no whole frame is there, the stop reason.

    The one frame decoder: :func:`decode_nv_frame` wraps it, and a scan
    that expects to run off the end of a block calls it directly instead
    of raising and catching a :class:`FrameFormatError` per block.
    """
    if pos + NV_HEADER_SIZE > limit:
        return "torn frame header"
    magic, page_no, offset, size, checksum, word, ckpt = _NV_HEADER.unpack_from(
        raw, pos
    )
    if magic != NV_FRAME_MAGIC:
        return "bad frame magic"
    if pos + NV_HEADER_SIZE + size > limit:
        return "torn frame payload"
    end = pos + NV_HEADER_SIZE + _align8(size)
    return page_no, offset, size, checksum, word, ckpt, end


def decode_nv_frame(
    raw: bytes, pos: int, limit: int, checksum_bits: int = FULL_CHECKSUM_BITS
) -> tuple[NvFrame, int, int, bool, int]:
    """Decode the frame at ``raw[pos:limit]``.

    Returns ``(frame, checksum, word, intact, end)``: the frame (flagged
    ``commit`` if it carries any word), its stored checksum and commit
    word — which words are legal where is the caller's epoch discipline —
    whether the payload matches that checksum, and the position of the
    next frame (past the padding).

    Raises :class:`FrameFormatError`, whose message is the stop reason,
    when no whole frame is there.  A checksum mismatch is reported, not
    raised: a stale frame of an earlier log generation is the normal end
    of an NVRAM block, and only the caller knows its generation.
    """
    found = nv_frame_at(raw, pos, limit)
    if isinstance(found, str):
        raise FrameFormatError(found)
    page_no, offset, size, checksum, word, ckpt, end = found
    start = pos + NV_HEADER_SIZE
    payload = bytes(raw[start : start + size])
    frame = NvFrame(page_no, offset, payload, ckpt, commit=bool(word))
    intact = checksum == payload_checksum(payload, page_no, offset, checksum_bits)
    return frame, checksum, word, intact, end


# ---------------------------------------------------------------------------
# file WAL frames
# ---------------------------------------------------------------------------


#: Stop reason for a frame with the live salt whose own checksum fails:
#: corruption, where any other stop is the end of the log.
FRAME_CORRUPT = "frame checksum mismatch"

_FILE_SALT_MASK = 0xDEADBEEF
_FILE_HEADER = struct.Struct(FILE_HEADER_FMT)
#: The header fields a frame's own checksum covers before its page.
_FILE_FIELDS = struct.Struct("<III")  # page_no, commit_db_size, salt


def file_chain_seed(salt: int) -> int:
    """Chain checksum the first frame of a log generation with ``salt``
    chains from."""
    return zlib.crc32(struct.pack("<I", salt))


def encode_file_frame(
    page_no: int, page_image: bytes, commit_db_size: int, salt: int, seed: int
) -> tuple[bytes, int]:
    """Serialize a stock SQLite-style WAL frame (24-byte header + page).

    Returns the frame and its chain checksum, the ``seed`` of the next
    frame.  The frame's own checksum covers its header fields and page;
    the chain checksum folds the own checksum into ``seed`` — the
    previous frame's chain checksum, :func:`file_chain_seed` for the
    first — as SQLite's cumulative checksum does, so a frame left over
    from an earlier history of the log does not chain after a new one.
    """
    own = zlib.crc32(
        page_image, zlib.crc32(_FILE_FIELDS.pack(page_no, commit_db_size, salt))
    )
    chain = zlib.crc32(own.to_bytes(4, "little"), seed)
    header = _FILE_HEADER.pack(
        page_no, commit_db_size, salt, salt ^ _FILE_SALT_MASK, chain, own
    )
    return header + page_image, chain


def scan_file_frames(
    log: LogPages, pos: int, content_size: int, salt: int, seed: int
) -> tuple[list[tuple[int, int, int]], str]:
    """Check the file frames of ``log`` from byte ``pos`` on, in place
    (a :class:`~repro.wal.base.LogPages`), up to the first that is not
    valid; each frame's pages are read just before it is checked.

    Returns every valid frame as ``(page_no, commit_db_size, chain
    checksum)`` — frame ``i``'s page image is the ``content_size`` bytes
    after its header, ``i`` strides past ``pos`` — and the reason the scan
    stopped: a torn frame (the file ends inside it), a frame of another
    log generation (wrong salt) or one that does not chain from the frame
    before it (from ``seed``, for the first) ends the log; a frame with
    the live salt that fails its own checksum is :data:`FRAME_CORRUPT`.
    The one file frame decoder.
    """
    frames = []
    page_size = log.page_size
    pages = log.pages
    reach = log.reach
    stride = FILE_HEADER_SIZE + content_size
    salt2_expected = salt ^ _FILE_SALT_MASK
    unpack = _FILE_HEADER.unpack_from
    crc32 = zlib.crc32
    index, at = divmod(pos, page_size)  # the frame's page, and where in it
    while True:
        stop = pos + stride
        if reach(stop) < stop:
            return frames, "torn frame"
        page = pages[index]
        if at + FILE_HEADER_SIZE <= page_size:
            header, header_at = page, at
        else:  # the header straddles two pages
            header, header_at = log.read(pos, pos + FILE_HEADER_SIZE), 0
            index += 1
            at -= page_size
            page = pages[index]
        page_no, commit_db_size, salt1, salt2, chain, own = unpack(header, header_at)
        if salt1 != salt:
            return frames, "stale frame"
        # The own checksum covers page_no, commit_db_size and salt, then
        # the page image, which runs on into the next page or two.  The
        # slices copy (see LogPages).
        crc = crc32(header[header_at : header_at + 12])
        at += FILE_HEADER_SIZE
        left = content_size
        while at + left > page_size:
            crc = crc32(page[at:], crc)
            left -= page_size - at
            index += 1
            at = 0
            page = pages[index]
        crc = crc32(page[at : at + left], crc)
        at += left
        if at == page_size:
            index += 1
            at = 0
        if salt2 != salt2_expected or page_no == 0 or own != crc:
            return frames, FRAME_CORRUPT
        if chain != crc32(own.to_bytes(4, "little"), seed):
            return frames, "stale frame"
        frames.append((page_no, commit_db_size, chain))
        seed = chain
        pos = stop


def _align8(value: int) -> int:
    return (value + 7) & ~7
