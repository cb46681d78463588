"""The file tier's recovery loops as they were before they read the log in
place.

:class:`ReferenceFileWal` recovers the file WAL with the straightforward
loop the product replaced: one :meth:`File.read` per frame (a fresh buffer
per call, pages copied into it) and :func:`decode_file_frame`, which slices
and copies the page image again.  :class:`ReferenceJournal` reads the
rollback journal one :meth:`File.read` per record.  The product checks each
frame or record where it lies in the page cache
(:class:`repro.wal.base.LogPages`); ``test_file_recovery_equivalence.py``
holds it to these loops: the same images, report, cursor, chain seed, page
cache, clock, stats and block trace on the same logs.
"""

from __future__ import annotations

import struct
import zlib

from repro.wal.base import RecoveryReport
from repro.wal.filewal import (
    _WAL_HEADER_FMT,
    _WAL_HEADER_SIZE,
    _WAL_MAGIC,
    FileWalBackend,
)
from repro.wal.frames import (
    FILE_HEADER_FMT,
    FILE_HEADER_SIZE,
    FRAME_CORRUPT,
    file_chain_seed,
)
from repro.wal.journal import (
    _HEADER_FMT,
    _HEADER_SIZE,
    _JOURNAL_MAGIC,
    RollbackJournalBackend,
)


def decode_file_frame(
    raw: bytes, page_size: int, salt: int, seed: int
) -> tuple[int, int, bytes, int] | str:
    """Decode and validate one file frame.

    Returns (page_no, commit_db_size, page_image, chain checksum), or the
    reason recovery stops there: a torn frame, a frame of another log
    generation (wrong salt) or one that does not chain from ``seed`` ends
    the log; a frame with the live salt that fails its own checksum is
    :data:`FRAME_CORRUPT`.
    """
    if len(raw) < FILE_HEADER_SIZE + page_size:
        return "torn frame"
    page_no, commit_db_size, salt1, salt2, chain, own = struct.unpack_from(
        FILE_HEADER_FMT, raw, 0
    )
    if salt1 != salt:
        return "stale frame"
    image = raw[FILE_HEADER_SIZE : FILE_HEADER_SIZE + page_size]
    expect = zlib.crc32(
        image, zlib.crc32(struct.pack("<III", page_no, commit_db_size, salt))
    )
    if salt2 != (salt ^ 0xDEADBEEF) or page_no == 0 or own != expect:
        return FRAME_CORRUPT
    if chain != zlib.crc32(struct.pack("<I", own), seed):
        return "stale frame"
    return page_no, commit_db_size, bytes(image), chain


class ReferenceFileWal(FileWalBackend):
    """The file WAL with the frame-at-a-time reference recovery."""

    def recover(self) -> dict[int, bytes]:
        report = RecoveryReport()
        self.last_recovery = report
        self._logged_images.clear()
        self._frame_index = 0
        allocated = self.wal_file.allocated_pages()
        self._prealloc_pages = allocated if self.optimized and allocated > 1 else 0
        raw_header = self.wal_file.read(0, _WAL_HEADER_SIZE)
        if len(raw_header) < _WAL_HEADER_SIZE:
            self._write_wal_header()
            self.wal_file.fsync()
            return {}
        magic, salt, page_size, _flags = struct.unpack_from(
            _WAL_HEADER_FMT, raw_header, 0
        )
        if magic != _WAL_MAGIC or page_size != self.system.page_size:
            self._salt += 1
            self._write_wal_header()
            self.wal_file.fsync()
            report.corruption_detected = True
            report.reason = "log header invalid"
            return {}
        self._salt = salt
        chain = committed_chain = file_chain_seed(salt)
        content_size = self._content_size()
        stride = self._frame_stride()
        committed: dict[int, bytes] = {}
        pending: dict[int, bytes] = {}
        index = 0
        committed_index = 0
        while True:
            offset = self._frame_offset(index)
            raw = self.wal_file.read(offset, stride)
            decoded = decode_file_frame(raw, content_size, self._salt, chain)
            if isinstance(decoded, str):
                if decoded == FRAME_CORRUPT:
                    report.corruption_detected = True
                    report.reason = decoded
                break
            pno, commit_flag, content, chain = decoded
            image = content.ljust(self.system.page_size, b"\x00")
            pending[pno] = image
            index += 1
            if commit_flag:
                committed.update(pending)
                pending.clear()
                committed_index = index
                committed_chain = chain
        self._frame_index = committed_index
        self._chain = committed_chain
        self._logged_images = dict(committed)
        report.frames_replayed = committed_index
        report.frames_dropped = index - committed_index
        if report.corruption_detected:
            report.frames_salvaged = committed_index
            self.checkpoint()
        return dict(committed)


class ReferenceJournal(RollbackJournalBackend):
    """The rollback journal with the record-at-a-time reference recovery."""

    def recover(self) -> dict[int, bytes]:
        report = RecoveryReport()
        self.last_recovery = report
        page_size = self.system.page_size
        raw = self.journal_file.read(0, _HEADER_SIZE)
        if len(raw) < _HEADER_SIZE:
            return {}
        magic, journal_page_size, count, _nonce = struct.unpack_from(
            _HEADER_FMT, raw, 0
        )
        if magic != _JOURNAL_MAGIC or journal_page_size != page_size:
            return {}
        restored: dict[int, bytes] = {}
        offset = _HEADER_SIZE
        record_size = struct.calcsize("<III") + page_size
        for i in range(count):
            record = self.journal_file.read(offset, record_size)
            if len(record) < record_size:
                report.frames_dropped = count - i
                break
            pno, checksum, _pad = struct.unpack_from("<III", record, 0)
            image = record[struct.calcsize("<III") :]
            if zlib.crc32(image) != checksum or pno == 0:
                report.corruption_detected = True
                report.reason = "journal record checksum mismatch"
                report.frames_dropped = count - i
                break
            restored[pno] = image
            offset += record_size
        report.frames_replayed = len(restored)
        if report.corruption_detected:
            report.frames_salvaged = len(restored)
        for pno, image in restored.items():
            self.db_file.write((pno - 1) * page_size, image)
        if restored:
            self.db_file.fsync()
        self.journal_file.truncate(0)
        self.journal_file.fsync()
        return restored
