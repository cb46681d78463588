"""File-based write-ahead logging on EXT4/eMMC — the paper's baselines.

Two variants, matching Section 5.4:

* **stock** SQLite WAL: a 32-byte log-file header followed by frames of
  24-byte header + full 4 KB page.  Frames are misaligned with filesystem
  blocks, so appending one frame dirties *two* device pages; every append
  also grows the file, so each fsync journals the inode, block bitmap, and
  group descriptor — the "at least 16 KBytes of I/O per transaction".
* **optimized** WAL: the backend keeps the early-split reserve
  (:attr:`FileWalBackend.early_split`), so the B-tree leaves the last 24
  bytes of every page free and header + page content fit exactly one
  filesystem block (the log-file header gets a block of its own), and log
  pages are pre-allocated with doubling (WALDIO-style), so most appends are
  metadata-free overwrites.  This is what reduces EXT4 journal traffic by
  ~40% in Figure 8.
"""

from __future__ import annotations

import struct

from repro.db.pager import EARLY_SPLIT_RESERVE
from repro.errors import TransactionError
from repro.hw.stats import TimeBucket
from repro.storage.ext4 import Ext4FileSystem, File
from repro.system import System
from repro.wal.base import (
    DEFAULT_CHECKPOINT_THRESHOLD,
    LogPages,
    RecoveryReport,
    WalBackend,
)
from repro.wal.frames import (
    FILE_HEADER_SIZE,
    FRAME_CORRUPT,
    encode_file_frame,
    file_chain_seed,
    scan_file_frames,
)

_WAL_MAGIC = 0x57_41_4C_31  # "WAL1"
_WAL_HEADER_FMT = "<IIII"  # magic, salt, page_size, flags
_WAL_HEADER_SIZE = 32

#: Initial pre-allocation, in log pages, for the optimized variant; doubled
#: every time the pre-allocated region fills up (Section 5.4).
_INITIAL_PREALLOC_PAGES = 8

class FileWalBackend(WalBackend):
    """SQLite-style WAL in a ``.db-wal`` file."""

    def __init__(
        self,
        system: System,
        optimized: bool = False,
        checkpoint_threshold: int = DEFAULT_CHECKPOINT_THRESHOLD,
    ) -> None:
        super().__init__(system, checkpoint_threshold)
        self.optimized = optimized
        self.wal_file: File | None = None
        self._salt = 1
        #: Chain checksum the next appended frame is seeded with.
        self._chain = file_chain_seed(self._salt)
        self._frame_index = 0
        self._prealloc_pages = 0
        self._logged_images: dict[int, bytes] = {}

    @property
    def name(self) -> str:
        """Paper-style label."""
        return "Optimized WAL" if self.optimized else "WAL"

    @property
    def early_split(self) -> bool:
        """Stock SQLite has no early-split page reservation (Section 5.4
        introduces it as part of the optimized WAL and NVWAL)."""
        return self.optimized

    # -- geometry -----------------------------------------------------------

    def _content_size(self) -> int:
        """Page bytes stored per frame.

        The optimized variant relies on the early-split B-tree leaving the
        last 24 bytes of every page unused, so the stored content plus the
        24-byte frame header is exactly one filesystem block.
        """
        if self.optimized:
            return self.system.page_size - EARLY_SPLIT_RESERVE
        return self.system.page_size

    def _header_span(self) -> int:
        """File bytes reserved for the WAL header (a whole block when
        optimized, to keep frames block-aligned)."""
        return self.system.page_size if self.optimized else _WAL_HEADER_SIZE

    def _frame_stride(self) -> int:
        return FILE_HEADER_SIZE + self._content_size()

    def _frame_offset(self, index: int) -> int:
        return self._header_span() + index * self._frame_stride()

    # -- binding ------------------------------------------------------------

    def bind(self, fs: Ext4FileSystem, name: str) -> None:
        """Attach the database file and the ``-wal`` log file beside it
        (creating the log file, with its header, if needed)."""
        super().bind(fs, name)
        wal_name = name + "-wal"
        if fs.exists(wal_name):
            self.wal_file = fs.open(wal_name)
        else:
            self.wal_file = fs.create(wal_name)
            self._write_wal_header()

    def _write_wal_header(self) -> None:
        self._chain = file_chain_seed(self._salt)
        header = struct.pack(
            _WAL_HEADER_FMT, _WAL_MAGIC, self._salt, self.system.page_size, 0
        ).ljust(_WAL_HEADER_SIZE, b"\x00")
        self.wal_file.write(0, header)

    # -- logging ------------------------------------------------------------

    def write_transaction(
        self,
        dirty_pages: dict[int, bytes],
        pre_images: dict[int, bytes] | None = None,
    ) -> None:
        """Append one frame per dirty page; the last carries the commit
        marker; a single fsync makes the transaction durable."""
        if self._append_frames(dirty_pages):
            self.wal_file.fsync()
            self.note_occupancy()

    def _append_frames(self, dirty_pages: dict[int, bytes]) -> bool:
        """Write one transaction's frames, commit marker on the last,
        without syncing them; False when there was nothing to write."""
        if self.wal_file is None:
            raise RuntimeError("file WAL is not bound (call bind)")
        if not dirty_pages:
            return False
        costs = self.system.config.db_costs
        items = list(dirty_pages.items())
        content_size = self._content_size()
        for i, (pno, image) in enumerate(items):
            self.system.cpu.compute(costs.frame_assembly_ns, TimeBucket.CPU)
            self.system.cpu.compute(
                costs.checksum_ns_per_byte * content_size, TimeBucket.CPU
            )
            is_commit = i == len(items) - 1
            frame, self._chain = encode_file_frame(
                pno, image[:content_size], 1 if is_commit else 0, self._salt,
                self._chain,
            )
            offset = self._frame_offset(self._frame_index)
            if self.optimized:
                self._ensure_preallocated(offset + len(frame))
            self.wal_file.write(offset, frame)
            self._frame_index += 1
            self._logged_images[pno] = bytes(image)
        return True

    # -- group commit --------------------------------------------------------

    def group_append(
        self,
        dirty_pages: dict[int, bytes],
        pre_images: dict[int, bytes] | None = None,
    ) -> None:
        """Append one transaction's frames with its commit marker but defer
        the fsync to :meth:`group_close` — the file WAL's natural group
        commit.  A crash inside the epoch may persist a *prefix* of the
        epoch's transactions (each has its own commit frame); that is
        weaker than NVWAL's whole-epoch atomicity but sound, since acks
        are only released after the close fsync."""
        if not self._group_open:
            raise TransactionError("no group-commit epoch is open")
        if self._append_frames(dirty_pages):
            self.note_occupancy()
        self._group_txns += 1

    def group_close(self) -> int:
        """One fsync makes every transaction of the epoch durable."""
        txns = super().group_close()
        if txns and self.wal_file is not None:
            self.wal_file.fsync()
        return txns

    def _ensure_preallocated(self, needed_bytes: int) -> None:
        """WALDIO-style pre-allocation with doubling (Section 5.4)."""
        page_size = self.system.page_size
        needed_pages = (needed_bytes + page_size - 1) // page_size
        if needed_pages <= self._prealloc_pages:
            return
        if self._prealloc_pages == 0:
            target = max(_INITIAL_PREALLOC_PAGES, needed_pages)
        else:
            target = self._prealloc_pages
            while target < needed_pages:
                target *= 2
        self.wal_file.preallocate(target)
        self._prealloc_pages = target

    # -- recovery -----------------------------------------------------------

    def recover(self) -> dict[int, bytes]:
        """Replay committed frames; position appends after the committed
        prefix (the stock SQLite WAL recovery algorithm).  The scan stops
        at the first invalid frame.  A frame that does not chain from the
        one before it is the end of the log; a corrupt frame mid-log
        salvages the committed prefix before it, reported in
        :attr:`last_recovery`, and a checkpoint then retires the salt."""
        if self.wal_file is None:
            raise RuntimeError("file WAL is not bound (call bind)")
        report = RecoveryReport()
        self.last_recovery = report
        self._logged_images.clear()
        self._frame_index = 0
        allocated = self.wal_file.allocated_pages()
        # The header block alone does not count as log pre-allocation.
        self._prealloc_pages = allocated if self.optimized and allocated > 1 else 0
        log = LogPages(self.wal_file, self.system.page_size)
        if log.reach(_WAL_HEADER_SIZE) < _WAL_HEADER_SIZE:
            self._write_wal_header()
            self.wal_file.fsync()
            return {}
        magic, salt, page_size, _flags = struct.unpack_from(
            _WAL_HEADER_FMT, log.pages[0], 0
        )
        if magic != _WAL_MAGIC or page_size != self.system.page_size:
            self._salt += 1
            self._write_wal_header()
            self.wal_file.fsync()
            report.corruption_detected = True
            report.reason = "log header invalid"
            return {}
        self._salt = salt
        seed = file_chain_seed(salt)
        content_size = self._content_size()
        stride = self._frame_stride()
        # Frames are checked where they lie in the page cache; only the
        # final image of each committed page is copied out.
        first = self._header_span()
        frames, stop = scan_file_frames(log, first, content_size, salt, seed)
        if stop == FRAME_CORRUPT:
            report.corruption_detected = True
            report.reason = stop
        committed: dict[int, int] = {}  # page -> where its image starts
        pending: dict[int, int] = {}
        committed_index = 0
        committed_chain = seed
        for index, (pno, commit_flag, chain) in enumerate(frames):
            pending[pno] = first + index * stride + FILE_HEADER_SIZE
            if commit_flag:
                committed.update(pending)
                pending.clear()
                committed_index = index + 1
                committed_chain = chain
        pad = bytes(self.system.page_size - content_size)
        images = {
            pno: log.read(at, at + content_size) + pad
            for pno, at in committed.items()
        }
        self._frame_index = committed_index
        self._chain = committed_chain
        self._logged_images = dict(images)
        report.frames_replayed = committed_index
        report.frames_dropped = len(frames) - committed_index
        if report.corruption_detected:
            report.frames_salvaged = committed_index
            # Frames past the salvage stop still carry the live salt, and
            # a resubmitted transaction logs the very bytes it logged
            # before, so the chain would reach them again.  A checkpoint
            # retires the salt.
            self.checkpoint()
        return images

    # -- checkpoint ----------------------------------------------------------

    def checkpoint(self) -> int:
        """Copy committed pages into the database file, fsync it, then
        truncate and restamp the log (new salt invalidates old frames)."""
        if self.db_file is None or self.wal_file is None:
            raise RuntimeError("file WAL is not bound")
        started_ns = self.system.clock.now_ns
        page_size = self.system.page_size
        pages = sorted(self._logged_images)
        for pno in pages:
            self.db_file.write((pno - 1) * page_size, self._logged_images[pno])
        if pages:
            self.db_file.fsync()
        self._salt += 1
        self.wal_file.truncate(0)
        self._write_wal_header()
        self.wal_file.fsync()
        self._frame_index = 0
        self._prealloc_pages = 0
        self._logged_images.clear()
        self._note_checkpoint(started_ns, len(pages))
        return len(pages)

    def frame_count(self) -> int:
        """Frames appended since the last checkpoint."""
        return self._frame_index
