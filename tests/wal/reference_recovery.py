"""The NVWAL recovery loops as they were before they were tuned for the host.

:class:`ReferenceNvwal` recovers with the straightforward code the product
replaced: the chain walk asks the heap twice per block (``is_live``, then
``allocation_at``), the scan decodes every frame into an :class:`NvFrame`
and ends each block by catching :class:`FrameFormatError`, checks a commit
word against the three words derived separately, the replay copies a page
image per frame, and the orphan reclaim builds an allocation for every
live slot.  ``test_recovery_equivalence.py`` holds the product to it: the
same images, report, heap, media, clock and stats on the same logs.
"""

from __future__ import annotations

import struct

from repro.errors import ChecksumError, FrameFormatError, MediaError
from repro.wal.base import RecoveryReport
from repro.wal.frames import (
    EXTENT_LIST,
    NvFrame,
    commit_mark_value,
    decode_nv_frame,
    epoch_close_value,
    epoch_member_value,
)
from repro.wal.nvwal import (
    _BLOCK_HEADER_SIZE,
    _BLOCK_NAME,
    _ROOT_FIRST_BLOCK_OFFSET,
    NvwalBackend,
)


class ReferenceNvwal(NvwalBackend):
    """NVWAL with the reference walk, scan, replay and orphan reclaim."""

    def _walk_chain(self, report: RecoveryReport):
        try:
            raw = self.cpu.load_free(self._root.addr + _ROOT_FIRST_BLOCK_OFFSET, 8)
            addr = struct.unpack("<Q", raw)[0]
        except MediaError:
            report.corruption_detected = True
            report.reason = "root block pointer unreadable"
            return [], None
        chain = []
        while addr:
            alloc = None
            if self.heapo.is_live(addr):
                alloc = self.heapo.allocation_at(addr)
            if alloc is None or alloc.name != _BLOCK_NAME:
                break
            try:
                header = self.cpu.load(addr, _BLOCK_HEADER_SIZE)
            except MediaError:
                report.corruption_detected = True
                report.reason = report.reason or "block header unreadable"
                break
            next_addr, _size, chain_index = struct.unpack_from("<QII", header, 0)
            if chain_index != len(chain):
                report.corruption_detected = True
                report.reason = report.reason or "chain position mismatch"
                break
            chain.append(alloc)
            addr = next_addr
        return chain, None  # no block is read ahead of the scan

    def _scan_frames(self, chain, _blocks, report: RecoveryReport):
        committed: list[NvFrame] = []
        pending: list[NvFrame] = []
        tail = None
        boundaries: list[int] = []

        def finish(stop=None):
            report.commit_boundaries = tuple(boundaries)
            report.epochs_replayed = len(boundaries)
            return committed, tail, stop

        def salvage(reason, stop):
            report.corruption_detected = True
            report.reason = report.reason or reason
            report.frames_dropped += len(pending)
            return finish(stop)

        for block_index, alloc in enumerate(chain):
            pos = _BLOCK_HEADER_SIZE
            try:
                block_bytes = self.cpu.load(alloc.addr, alloc.size)
            except MediaError:
                return salvage("log block unreadable", (block_index, None))
            while True:
                try:
                    frame, checksum, word, intact, end = decode_nv_frame(
                        block_bytes, pos, alloc.size, self.checksum_bits
                    )
                except FrameFormatError:
                    break
                if frame.checkpoint_id != self._checkpoint_id:
                    break
                if not intact:
                    return salvage("frame checksum mismatch", (block_index, end))
                member_word = epoch_member_value(checksum)
                if word and word not in (
                    commit_mark_value(checksum),
                    member_word,
                    epoch_close_value(checksum),
                ):
                    return salvage("invalid commit word", (block_index, end))
                pending.append(frame)
                pos = end
                if word and word != member_word:
                    committed.extend(pending)
                    pending.clear()
                    tail = (block_index, pos)
                    boundaries.append(len(committed))
        report.frames_dropped += len(pending)
        return finish()

    def _replay(self, committed: list[NvFrame], report: RecoveryReport):
        images: dict[int, bytes] = {}
        applied = 0
        for frame in committed:
            base = images.get(frame.page_no)
            if base is None:
                base = self._first_base(
                    frame.page_no, frame.offset, frame.payload, report
                )
            try:
                images[frame.page_no] = _apply(frame, base)
            except ChecksumError:
                report.corruption_detected = True
                report.reason = report.reason or "frame application failed"
                report.frames_dropped += len(committed) - applied
                break
            applied += 1
        return images, applied

    def _reclaim_orphan_blocks(self, reachable: set[int]) -> None:
        for alloc in self.heapo.live_allocations():
            if alloc.name == _BLOCK_NAME and alloc.addr not in reachable:
                if self.heapo.is_live(alloc.addr):
                    self.heapo.nvfree(alloc)


def _apply(frame: NvFrame, base: bytes) -> bytes:
    """``NvFrame.apply_to`` as it was: one copy of the page per frame."""
    image = bytearray(base)
    for offset, data in _extent_list(frame):
        if offset + len(data) > len(image):
            raise ChecksumError(f"frame for page {frame.page_no}: extent out of bounds")
        image[offset : offset + len(data)] = data
    return bytes(image)


def _extent_list(frame: NvFrame) -> list[tuple[int, bytes]]:
    if frame.offset != EXTENT_LIST:
        return [(frame.offset, frame.payload)]
    extents = []
    pos = 0
    while pos + 4 <= len(frame.payload):
        offset, length = struct.unpack_from("<HH", frame.payload, pos)
        pos += 4
        extents.append((offset, bytes(frame.payload[pos : pos + length])))
        pos += length
    return extents
