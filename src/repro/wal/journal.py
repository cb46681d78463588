"""SQLite rollback-journal mode — the pre-WAL baseline.

Sections 1–2 of the paper motivate WAL by contrast with rollback journal
modes: journaling "modifies two files" (the rollback journal *and* the
database file) and therefore needs more ``fsync()`` calls per transaction.
This backend reproduces SQLite's DELETE-mode journal so that claim is
measurable:

commit protocol (per transaction):

1. write the *pre-images* of every page about to change into
   ``<db>-journal`` (header + records), then ``fsync`` the journal —
   undo information must be durable before the database is touched;
2. write the new page images into the database file in place, ``fsync``;
3. invalidate the journal (truncate to zero) and ``fsync`` again —
   this is the commit point.

Recovery: a non-empty journal with valid records is "hot" — the
transaction it belongs to did not reach its commit point, so the original
pages are rolled back into the database file.
"""

from __future__ import annotations

import struct
import zlib

from repro.hw.stats import TimeBucket
from repro.storage.ext4 import Ext4FileSystem, File
from repro.system import System
from repro.wal.base import (
    DEFAULT_CHECKPOINT_THRESHOLD,
    LogPages,
    RecoveryReport,
    WalBackend,
)

_JOURNAL_MAGIC = 0x524A_4E4C  # "RJNL"
_HEADER_FMT = "<IIII"  # magic, page_size, record_count, nonce
_HEADER_SIZE = 32
_RECORD_HEADER = struct.Struct("<III")  # page_no, checksum, pad


class RollbackJournalBackend(WalBackend):
    """DELETE-mode rollback journaling (the paper's status-quo baseline)."""

    #: Journal records carry whole pre-images; stock SQLite reserves nothing.
    early_split = False

    def __init__(self, system: System) -> None:
        super().__init__(system, DEFAULT_CHECKPOINT_THRESHOLD)
        self.journal_file: File | None = None
        self._nonce = 1

    @property
    def name(self) -> str:
        """Series label for benchmarks."""
        return "Rollback journal"

    # ------------------------------------------------------------------
    # binding
    # ------------------------------------------------------------------

    def bind(self, fs: Ext4FileSystem, name: str) -> None:
        """Attach the database file and open or create the ``-journal``
        file beside it."""
        super().bind(fs, name)
        journal_name = name + "-journal"
        if fs.exists(journal_name):
            self.journal_file = fs.open(journal_name)
        else:
            self.journal_file = fs.create(journal_name)

    # ------------------------------------------------------------------
    # commit protocol
    # ------------------------------------------------------------------

    def write_transaction(
        self,
        dirty_pages: dict[int, bytes],
        pre_images: dict[int, bytes] | None = None,
    ) -> None:
        """Journal undo images, update the database in place, invalidate."""
        if self.db_file is None or self.journal_file is None:
            raise RuntimeError("rollback journal is not bound")
        if not dirty_pages:
            return
        if pre_images is None:
            raise RuntimeError(
                "rollback journaling requires the pre-transaction images"
            )
        # 1. undo log first
        self.write_undo_journal(dirty_pages, pre_images)
        # 2. database file in place
        for pno, image in dirty_pages.items():
            self.db_file.write((pno - 1) * self.system.page_size, image)
        self.db_file.fsync()
        # 3. commit point: invalidate the journal
        self.journal_file.truncate(0)
        self.journal_file.fsync()
        self.note_occupancy()

    def write_undo_journal(
        self, dirty_pages: dict[int, bytes], pre_images: dict[int, bytes]
    ) -> None:
        """Step 1 of the commit protocol: make the pages' pre-images
        durable in the journal, which stays hot — recovery rolls them
        back — until step 3 invalidates it."""
        costs = self.system.config.db_costs
        page_size = self.system.page_size
        self._nonce += 1
        header = struct.pack(
            _HEADER_FMT, _JOURNAL_MAGIC, page_size, len(dirty_pages), self._nonce
        ).ljust(_HEADER_SIZE, b"\x00")
        self.journal_file.write(0, header)
        offset = _HEADER_SIZE
        for pno in dirty_pages:
            self.system.cpu.compute(costs.frame_assembly_ns, TimeBucket.CPU)
            original = pre_images[pno]
            record = _RECORD_HEADER.pack(pno, zlib.crc32(original), 0) + original
            self.journal_file.write(offset, record)
            offset += len(record)
        self.journal_file.fsync()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def recover(self) -> dict[int, bytes]:
        """Roll back a hot journal, if any; the database file is then the
        authoritative state (nothing to install in the page cache)."""
        if self.db_file is None or self.journal_file is None:
            raise RuntimeError("rollback journal is not bound")
        report = RecoveryReport()
        self.last_recovery = report
        page_size = self.system.page_size
        log = LogPages(self.journal_file, page_size)
        if log.reach(_HEADER_SIZE) < _HEADER_SIZE:
            return {}
        magic, journal_page_size, count, _nonce = struct.unpack_from(
            _HEADER_FMT, log.pages[0], 0
        )
        if magic != _JOURNAL_MAGIC or journal_page_size != page_size:
            return {}
        # hot journal: restore every valid record, salvaging the longest
        # valid prefix if a record is torn or decayed
        restored: dict[int, bytes] = {}
        offset = _HEADER_SIZE
        for i in range(count):
            start = offset + _RECORD_HEADER.size
            stop = start + page_size
            if log.reach(stop) < stop:
                report.frames_dropped = count - i
                break
            pno, checksum, _pad = _RECORD_HEADER.unpack(log.read(offset, start))
            image = log.read(start, stop)
            if zlib.crc32(image) != checksum or pno == 0:
                # torn journal tail: journaling stopped mid-write
                report.corruption_detected = True
                report.reason = "journal record checksum mismatch"
                report.frames_dropped = count - i
                break
            restored[pno] = image
            offset = stop
        report.frames_replayed = len(restored)
        if report.corruption_detected:
            report.frames_salvaged = len(restored)
        for pno, image in restored.items():
            self.db_file.write((pno - 1) * page_size, image)
        if restored:
            self.db_file.fsync()
        self.journal_file.truncate(0)
        self.journal_file.fsync()
        # Rolled-back pages must replace anything the pager read earlier.
        return restored

    # ------------------------------------------------------------------
    # group commit: rollback journaling has no batched path — each
    # transaction's commit point is its own journal-invalidation fsync,
    # which cannot be shared without merging transactions.  The inherited
    # per-transaction group_* defaults are the parity stub: every
    # group_append is individually durable before group_close returns.
    # ------------------------------------------------------------------

    # ------------------------------------------------------------------
    # checkpointing is meaningless here: data is already in the db file
    # ------------------------------------------------------------------

    def checkpoint(self) -> int:
        """No-op: journal mode has no log to migrate."""
        self._note_checkpoint(self.system.clock.now_ns, 0)
        return 0

    def frame_count(self) -> int:
        """Always zero — nothing accumulates between transactions."""
        return 0
