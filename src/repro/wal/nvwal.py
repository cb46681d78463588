"""NVWAL: the write-ahead log in byte-addressable NVRAM.

This is the paper's Algorithm 1 (``sqliteWriteWalFramesToNVRAM``) plus the
surrounding machinery — the persistent WAL structure of Figures 2(b)/3, the
scheme variants of Section 5.3, checkpointing, and crash recovery
(Section 4.3).

Persistent NVRAM layout::

    root ("nvwal-root", a named Heapo allocation, 24 bytes used)
        0   magic          u64
        8   checkpoint_id  u32  (log generation; bumped by checkpoint)
        12  pad            u32
        16  first_block    u64  (address of the first log block, 0 = none)

    log block (Heapo allocation, named "nvwal-blk")
        0   next_block     u64
        8   block_size     u32
        12  chain_index    u32  (position in the chain, 0-based)
        16  frames...           (32-byte header + 8-byte-aligned payload)

Scheme naming follows the paper: **E/LS/CS** for eager / lazy / checksum
(asynchronous) synchronization, **Diff** for byte-granularity differential
logging, **UH** for the user-level heap.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.errors import (
    ChecksumError,
    FrameFormatError,
    MediaError,
    TransactionError,
)
from repro.hw.stats import TimeBucket
from repro.nvram.heapo import NvAllocation
from repro.nvram.persistency import PersistDomain, PersistencyModel
from repro.nvram.userheap import DEFAULT_BLOCK_SIZE, UserHeap
from repro.system import System
from repro.wal.base import (
    DEFAULT_CHECKPOINT_THRESHOLD,
    RecoveryReport,
    SyncMode,
    WalBackend,
)
from repro.wal.diff import DiffMode, compute_extents
from repro.wal.frames import (
    EPOCH_CLOSE,
    EPOCH_MEMBER,
    FULL_CHECKSUM_BITS,
    NV_HEADER_SIZE,
    NvFrame,
    commit_mark_bytes,
    commit_mark_value,
    decode_nv_frame,
    decode_nv_frame_header,
    encode_nv_frame,
    epoch_close_value,
    epoch_member_value,
    nv_frame_at,
    patch_page,
    payload_checksum,
)

_ROOT_MAGIC = 0x4E56_5741_4C00_0001
_ROOT_NAME = "nvwal-root"
_BLOCK_NAME = "nvwal-blk"
_ROOT_SIZE = 24
_ROOT_CKPT_OFFSET = 8
_ROOT_FIRST_BLOCK_OFFSET = 16
_BLOCK_HEADER = struct.Struct("<QII")  # next_block, block_size, chain_index
_BLOCK_HEADER_SIZE = _BLOCK_HEADER.size


@dataclass(frozen=True)
class NvwalScheme:
    """One point in the paper's scheme matrix (Figure 7)."""

    sync: SyncMode = SyncMode.LAZY
    diff: bool = False
    user_heap: bool = False
    block_size: int = DEFAULT_BLOCK_SIZE
    diff_mode: DiffMode = DiffMode.MULTI_RANGE
    persistency: PersistencyModel = PersistencyModel.EXPLICIT

    @property
    def name(self) -> str:
        """Paper-style label, e.g. ``'NVWAL UH+LS+Diff'``."""
        parts = []
        if self.user_heap:
            parts.append("UH")
        parts.append(
            {"eager": "E", "lazy": "LS", "checksum": "CS"}[self.sync.value]
        )
        if self.diff:
            parts.append("Diff")
        label = "NVWAL " + "+".join(parts)
        if self.persistency is not PersistencyModel.EXPLICIT:
            label += f" [{self.persistency.value}]"
        return label

    def with_persistency(self, model: PersistencyModel) -> "NvwalScheme":
        """Same scheme under different persistency hardware (ablation A2)."""
        return replace(self, persistency=model)

    # -- the six variants evaluated in Figure 7 -------------------------

    @classmethod
    def eager(cls) -> "NvwalScheme":
        """Eager synchronization strawman (Figure 4b / Section 5.1 'E')."""
        return cls(sync=SyncMode.EAGER)

    @classmethod
    def ls(cls) -> "NvwalScheme":
        """NVWAL LS: lazy synchronization only."""
        return cls(sync=SyncMode.LAZY)

    @classmethod
    def ls_diff(cls) -> "NvwalScheme":
        """NVWAL LS+Diff: lazy sync + differential logging."""
        return cls(sync=SyncMode.LAZY, diff=True)

    @classmethod
    def cs_diff(cls) -> "NvwalScheme":
        """NVWAL CS+Diff: asynchronous (checksum) commit + diff."""
        return cls(sync=SyncMode.CHECKSUM, diff=True)

    @classmethod
    def uh_ls(cls) -> "NvwalScheme":
        """NVWAL UH+LS: user-level heap + lazy sync."""
        return cls(sync=SyncMode.LAZY, user_heap=True)

    @classmethod
    def uh_ls_diff(cls) -> "NvwalScheme":
        """NVWAL UH+LS+Diff: the paper's recommended scheme."""
        return cls(sync=SyncMode.LAZY, diff=True, user_heap=True)

    @classmethod
    def uh_cs_diff(cls) -> "NvwalScheme":
        """NVWAL UH+CS+Diff: fastest but probabilistically consistent."""
        return cls(sync=SyncMode.CHECKSUM, diff=True, user_heap=True)

    @classmethod
    def all_figure7(cls) -> list["NvwalScheme"]:
        """The six schemes of Figure 7, paper order."""
        return [
            cls.ls(),
            cls.ls_diff(),
            cls.cs_diff(),
            cls.uh_ls(),
            cls.uh_ls_diff(),
            cls.uh_cs_diff(),
        ]


#: Every scheme by the name configs, CLIs and trace files use for it.
SCHEMES = {
    "eager": NvwalScheme.eager,
    "ls": NvwalScheme.ls,
    "ls_diff": NvwalScheme.ls_diff,
    "cs_diff": NvwalScheme.cs_diff,
    "uh_ls": NvwalScheme.uh_ls,
    "uh_ls_diff": NvwalScheme.uh_ls_diff,
    "uh_cs_diff": NvwalScheme.uh_cs_diff,
}


@dataclass
class _EpochState:
    """Volatile bookkeeping for one open group-commit epoch."""

    #: (addr, encoded length) of every frame appended this epoch, in order.
    frame_ptrs: list[tuple[int, int]] = field(default_factory=list)
    #: Per-transaction frame lists, in append order (empty list for a
    #: frameless no-op) — what the shipping hook exports at close.
    txn_frames: list = field(default_factory=list)
    #: Stored checksum of the epoch's last frame (the last of
    #: ``frame_ptrs``) — the close mark is stamped there.
    last_checksum: int = 0


class NvwalBackend(WalBackend):
    """The NVRAM write-ahead log."""

    def __init__(
        self,
        system: System,
        scheme: NvwalScheme | None = None,
        checkpoint_threshold: int = DEFAULT_CHECKPOINT_THRESHOLD,
        checksum_bits: int = FULL_CHECKSUM_BITS,
    ) -> None:
        super().__init__(system, checkpoint_threshold)
        self.cpu = system.cpu
        self.heapo = system.heapo
        self.scheme = scheme or NvwalScheme.uh_ls_diff()
        self.checksum_bits = checksum_bits
        self.persist_domain = PersistDomain(self.cpu, self.scheme.persistency)
        #: Root and block links are flushed explicitly under *every* model:
        #: Section 4.4's hardware stands in for Algorithm 1's three steps,
        #: so the persistency ablation varies those and nothing else.
        self._metadata = PersistDomain(self.cpu, PersistencyModel.EXPLICIT)
        self.userheap = UserHeap(self.heapo, self.scheme.block_size)
        #: Latest committed image of every page present in the log; the
        #: base for differential logging and the source for checkpointing.
        self._logged_images: dict[int, bytes] = {}
        self._frame_count = 0
        self._root = self._ensure_root()
        self._checkpoint_id = self._read_checkpoint_id()
        #: NVRAM address holding the pointer to the *next* block — the root's
        #: first_block field, or the current tail block's next field.
        self._link_addr = self._root.addr + _ROOT_FIRST_BLOCK_OFFSET
        #: Open group-commit epoch, or None (see :meth:`group_begin`).
        self._epoch: _EpochState | None = None
        #: Optional frame-export hook, called as ``on_commit(txn_frames)``
        #: with a list of per-transaction :class:`NvFrame` lists the
        #: moment those transactions become durable (a standalone commit
        #: mark, or the epoch-close mark covering the whole batch).  The
        #: replication shipping log taps this to stream committed frames.
        self.on_commit = None

    # ------------------------------------------------------------------
    # root management
    # ------------------------------------------------------------------

    def _ensure_root(self) -> NvAllocation:
        root = self.heapo.lookup(_ROOT_NAME)
        if root is not None:
            return root
        root = self.heapo.nvmalloc(_ROOT_SIZE, name=_ROOT_NAME)
        image = struct.pack("<QIIQ", _ROOT_MAGIC, 1, 0, 0)
        self.cpu.memcpy(root.addr, image)
        self._metadata.flush_ranges([(root.addr, _ROOT_SIZE)])
        return root

    def _read_checkpoint_id(self) -> int:
        try:
            raw = self.cpu.load_free(self._root.addr, _ROOT_SIZE)
        except MediaError:
            # Unreadable root: fall back to generation 1.  Every surviving
            # frame carries a different checkpoint id and is ignored, so
            # recovery degrades to the checkpointed database image — a
            # valid (if old) committed prefix.
            return 1
        magic, ckpt_id, _pad, _first = struct.unpack("<QIIQ", raw)
        return ckpt_id if magic == _ROOT_MAGIC else 1

    # ------------------------------------------------------------------
    # Algorithm 1: sqliteWriteWalFramesToNVRAM
    # ------------------------------------------------------------------
    #
    # Three steps — ``_log_frames``, ``PersistDomain.flush_ranges``,
    # ``_mark`` — composed three ways: ``write_transaction`` (solo),
    # ``group_append`` and ``group_close`` (grouped).  DESIGN.md section 4
    # tabulates the cadence each composition gives E, LS and CS.

    def write_transaction(
        self,
        dirty_pages: dict[int, bytes],
        pre_images: dict[int, bytes] | None = None,
    ) -> None:
        """Log one transaction's dirty pages per Algorithm 1."""
        if self._epoch is not None:
            raise TransactionError(
                "cannot log a standalone transaction while a group-commit "
                "epoch is open; close it with group_close() first"
            )
        frames = self._build_frames(dirty_pages)
        if not frames:
            return
        scheme = self.scheme
        ptrs: list[tuple[int, int]] = []
        # Figure 4(b): E synchronizes per log entry — the one cadence that
        # exists only where software issues the flushes.
        checksum = self._log_frames(
            frames,
            ptrs,
            sync_each=scheme.sync is SyncMode.EAGER
            and scheme.persistency is PersistencyModel.EXPLICIT,
        )
        # Figure 4(c): LS flushes every frame, one call each (the syscalls
        # Table 1 counts), behind one barrier.  Nothing is left to flush
        # under E, and CS never flushes log entries (Figure 4d).
        self.persist_domain.flush_ranges(
            ptrs if scheme.sync is SyncMode.LAZY else []
        )
        self._mark(ptrs[-1][0], checksum, commit_mark_value)
        self._note_logged(dirty_pages, frames)
        if self.on_commit is not None:
            self.on_commit([frames])
        self.note_occupancy()

    def _log_frames(
        self,
        frames: list[NvFrame],
        ptrs: list[tuple[int, int]],
        sync_each: bool = False,
    ) -> int:
        """Logging step (Algorithm 1 lines 1-20): copy each frame into
        NVRAM and append its ``(addr, length)`` to ``ptrs``.  Returns the
        last frame's stored checksum, read back from its header, which the
        mark step binds to."""
        costs = self.system.config.db_costs
        for frame in frames:
            self.cpu.compute(costs.frame_assembly_ns, TimeBucket.CPU)
            self.cpu.compute(
                costs.checksum_ns_per_byte * len(frame.payload), TimeBucket.CPU
            )
            encoded = encode_nv_frame(frame, self.checksum_bits)
            if not self.userheap.fits(len(encoded)):
                self._chain_new_block(len(encoded))
            addr = self.userheap.allocate(len(encoded))
            self.cpu.memcpy(addr, encoded)
            self.persist_domain.after_store(addr, len(encoded))
            ptrs.append((addr, len(encoded)))
            if sync_each:
                self.persist_domain.flush_ranges(ptrs[-1:])
        self._frame_count += len(frames)
        return decode_nv_frame_header(encoded)[4]

    def _mark(
        self,
        frame_addr: int,
        checksum: int,
        word_of: Callable[[int], int],
        durable: bool = True,
    ) -> None:
        """Mark step (Algorithm 1 lines 29-36): one atomic 8-byte store of
        ``word_of(checksum)`` into the frame header at ``frame_addr``,
        then — the separate half — make it durable.  Commit, epoch member
        and epoch close differ only in ``word_of``; a member mark is not
        ``durable`` by itself (the close sweep flushes it with the frames).
        """
        mark_offset, mark = commit_mark_bytes(
            self._checkpoint_id, checksum, word=word_of(checksum)
        )
        mark_addr = frame_addr + mark_offset
        self.cpu.store(mark_addr, mark)
        self.persist_domain.after_store(mark_addr, len(mark))
        if not durable:
            return
        if self.scheme.sync is SyncMode.CHECKSUM:
            # Flush the whole frame header so the checksum bytes reach
            # NVRAM along with the mark (Figure 4d).
            self.persist_domain.flush_ranges([(frame_addr, NV_HEADER_SIZE)])
        else:
            self.persist_domain.flush_ranges([(mark_addr, len(mark))])

    def _note_logged(
        self, dirty_pages: dict[int, bytes], frames: list[NvFrame]
    ) -> None:
        """Advance the diff base to the images just logged — after the
        three steps, so a failure in any of them leaves it untouched."""
        for frame in frames:
            self._logged_images[frame.page_no] = bytes(dirty_pages[frame.page_no])

    # ------------------------------------------------------------------
    # group commit: epoch-batched persistence (Section 4.2 extended)
    # ------------------------------------------------------------------

    @property
    def group_open(self) -> bool:
        """True while a group-commit epoch is accepting transactions."""
        return self._epoch is not None

    def group_begin(self) -> None:
        """Open a group-commit epoch.

        Until :meth:`group_close`, transactions appended with
        :meth:`group_append` share the epoch: their frames go to NVRAM
        with no per-transaction flush or barrier, and none of them is
        committed.  One close mark then commits them all at once, so a
        power failure inside the open epoch loses the whole epoch and
        never a prefix of it.
        """
        if self._epoch is not None:
            raise TransactionError("a group-commit epoch is already open")
        self._epoch = _EpochState()

    def group_append(
        self,
        dirty_pages: dict[int, bytes],
        pre_images: dict[int, bytes] | None = None,
    ) -> None:
        """Append one transaction's frames to the open epoch.

        This is Algorithm 1's logging step with the synchronization
        cadence lifted out: no per-entry flush (even under E — grouping
        overrides the per-entry discipline, that is its point) and no
        per-transaction flush/barrier pair.  E/LS stamp an epoch-member
        word on the transaction's last frame so the log records durable,
        checksum-validated transaction boundaries; CS stamps nothing and
        relies on the checksum-validated close mark alone (Figure 4d
        stretched over the epoch).
        """
        if self._epoch is None:
            raise TransactionError("no group-commit epoch is open")
        epoch = self._epoch
        frames = self._build_frames(dirty_pages)
        epoch.txn_frames.append(frames)
        if not frames:
            return
        epoch.last_checksum = self._log_frames(frames, epoch.frame_ptrs)
        if self.scheme.sync is not SyncMode.CHECKSUM:
            self._mark(
                epoch.frame_ptrs[-1][0],
                epoch.last_checksum,
                epoch_member_value,
                durable=False,
            )
        self._note_logged(dirty_pages, frames)

    def group_close(self) -> int:
        """Persist the epoch with one coalesced flush + barrier sequence
        and commit it with a single close mark.  Returns the number of
        transactions the epoch carried.  The acks the service layer
        releases on return are the first moment any of them is durable.
        """
        if self._epoch is None:
            raise TransactionError("no group-commit epoch is open")
        epoch = self._epoch
        self._epoch = None
        if not epoch.frame_ptrs:
            if self.on_commit is not None:
                # All-no-op epoch: nothing to persist, but the shipping
                # log still needs the (empty) transaction boundaries so
                # replica sequence numbers stay aligned.
                self.on_commit(epoch.txn_frames)
            return len(epoch.txn_frames)
        # One sweep for the whole epoch: E and LS flush each contiguous
        # run of frames with one call; CS flushes no log entries.
        self.persist_domain.flush_ranges(
            []
            if self.scheme.sync is SyncMode.CHECKSUM
            else _contiguous_runs(epoch.frame_ptrs)
        )
        self._mark(
            epoch.frame_ptrs[-1][0], epoch.last_checksum, epoch_close_value
        )
        if self.on_commit is not None:
            self.on_commit(epoch.txn_frames)
        self.note_occupancy()
        return len(epoch.txn_frames)

    def _build_frames(self, dirty_pages: dict[int, bytes]) -> list[NvFrame]:
        """Turn dirty page images into WAL frames — exactly one per page.

        The first time a page appears in the current log generation its
        entire image is logged (Figure 3); afterwards only the changed byte
        extents are, packed into a single frame so differential logging
        shrinks frames without multiplying them (Figure 2b)."""
        frames: list[NvFrame] = []
        for pno, image in dirty_pages.items():
            if self.scheme.diff and pno in self._logged_images:
                extents = compute_extents(
                    self._logged_images[pno], image, self.scheme.diff_mode
                )
            else:
                extents = [(0, image)] if image != self._logged_images.get(pno) else []
            if not extents:
                continue
            frames.append(
                NvFrame.from_extents(pno, extents, self._checkpoint_id)
            )
        return frames

    # ------------------------------------------------------------------
    # block chaining (Algorithm 1 lines 4-14)
    # ------------------------------------------------------------------

    def _chain_new_block(self, frame_size: int) -> None:
        """Allocate the next NVRAM log block and link it durably."""
        need = frame_size + _BLOCK_HEADER_SIZE
        if self.scheme.user_heap:
            size = max(self.scheme.block_size, need)
            alloc = self.userheap.pre_allocate_block(size, name=_BLOCK_NAME)
        else:
            # Stock path: one kernel allocation per frame (Section 5.3,
            # "NVWAL LS ... calls Heapo's nvmalloc() for every WAL frame").
            alloc = self.heapo.nvmalloc(need, name=_BLOCK_NAME)
        # Initialize the block header and store the link, then persist both
        # before the block becomes reachable (lines 8-11).  The header's
        # third field records the block's position in the chain; recovery
        # refuses links whose position does not match, so a corrupted
        # pointer can never splice the walk into the middle of the chain.
        self.cpu.memcpy(
            alloc.addr,
            _BLOCK_HEADER.pack(0, alloc.size, len(self.userheap.blocks)),
        )
        self.cpu.store(self._link_addr, struct.pack("<Q", alloc.addr))
        self._metadata.flush_ranges(
            [(alloc.addr, _BLOCK_HEADER_SIZE), (self._link_addr, 8)]
        )
        if self.scheme.user_heap:
            # line 13: mark the in-use flag now that the reference is durable
            self.userheap.commit_block(alloc, reserved=_BLOCK_HEADER_SIZE)
        else:
            self.userheap.adopt(alloc, used=_BLOCK_HEADER_SIZE)
        self._link_addr = alloc.addr  # next-pointer field of the new tail

    # ------------------------------------------------------------------
    # recovery (Section 4.3)
    # ------------------------------------------------------------------

    def recover(self) -> dict[int, bytes]:
        """Walk the NVRAM log, apply committed transactions, reclaim
        orphans, and leave the backend positioned for new appends.

        Salvage semantics: the scan stops at the first frame that fails
        any validity check (checksum, commit word, unreadable media) and
        keeps the longest valid committed prefix instead of raising.
        :attr:`last_recovery` reports what was replayed and dropped.
        """
        report = RecoveryReport()
        self.last_recovery = report
        self._root = self._ensure_root()
        self._checkpoint_id = self._read_checkpoint_id()
        self.userheap.reset()
        self._logged_images.clear()
        self._frame_count = 0
        self._link_addr = self._root.addr + _ROOT_FIRST_BLOCK_OFFSET
        self._epoch = None  # any open epoch died with the crash

        chain, blocks = self._walk_chain(report)
        # A walk cut short by corruption orphans the blocks past the cut,
        # which may hold committed frames of this generation just the same.
        cut = report.corruption_detected
        committed, tail_position, stop = self._scan_frames(chain, blocks, report)
        # Decided before the chain past the tail is freed: its blocks may
        # come back at the same addresses (see the end of this method).
        stale = cut or (stop is not None and self._commits_past(chain, stop))

        # Rebuild volatile allocator state up to the end of committed data.
        reachable = set()
        last_block_index = tail_position[0] if tail_position else -1
        for i, alloc in enumerate(chain):
            if i > last_block_index:
                break
            reachable.add(alloc.addr)
            used = (
                tail_position[1]
                if i == last_block_index
                else alloc.size  # earlier blocks are treated as full
            )
            self.userheap.adopt(alloc, used)
        if self.userheap.blocks:
            self._link_addr = self.userheap.blocks[-1].addr
            # Truncate the durable chain after the last committed frame's
            # block, so stale in-use blocks do not linger.
            self._truncate_chain_after(self.userheap.blocks[-1])
        else:
            self._store_durable_u64(
                self._root.addr + _ROOT_FIRST_BLOCK_OFFSET, 0
            )
        self._reclaim_orphan_blocks(reachable)

        images, replayed = self._replay(committed, report)
        self._logged_images = dict(images)
        self._frame_count = replayed
        report.frames_replayed = replayed
        if replayed < (report.commit_boundaries or (0,))[-1]:
            # Frame application truncated the replayed prefix: drop the
            # commit boundaries past it so cursor and salvage stay agreed.
            report.commit_boundaries = tuple(
                b for b in report.commit_boundaries if b <= replayed
            )
            report.epochs_replayed = len(report.commit_boundaries)
        if report.corruption_detected:
            report.frames_salvaged = replayed
        if stale:
            # Salvage kept a prefix, but committed frames of this log
            # generation lie past it, or may.  An append that ends where
            # one of them begins (resubmitted transactions log identical
            # bytes) would make a later scan replay it as a transaction of
            # the new history.  A checkpoint retires the generation.
            self.checkpoint()
        return images

    def _commits_past(
        self, chain: list[NvAllocation], stop: tuple[int, int | None]
    ) -> bool:
        """Whether the log past a salvage ``stop`` — (block index, offset
        just past the refused frame), offset None if the block was
        unreadable — holds an intact committed frame of the current
        generation, or cannot be read.  Read-only, and charges no time."""
        block_index, pos = stop
        if pos is None:
            return True
        try:
            for alloc in chain[block_index:]:
                raw = self.cpu.load_free(alloc.addr, alloc.size)
                while True:
                    try:
                        frame, _checksum, word, intact, pos = decode_nv_frame(
                            raw, pos, alloc.size, self.checksum_bits
                        )
                    except FrameFormatError:
                        break
                    if intact and word and frame.checkpoint_id == self._checkpoint_id:
                        return True
                pos = _BLOCK_HEADER_SIZE
        except MediaError:
            return True
        return False

    def _walk_chain(
        self, report: RecoveryReport
    ) -> tuple[list[NvAllocation], list[bytes | None]]:
        """Follow the persistent block list, dropping dangling references
        (a crash between linking and set_used_flag leaves the block
        reclaimed by heap recovery — Section 4.3 case 2).  Returns the
        chain and each chained block's bytes, for :meth:`_scan_frames`.

        Hardened against media decay: a link is only followed into a live
        ``nvwal-blk`` allocation whose header carries the expected chain
        position.  A flipped root or next pointer therefore truncates the
        chain instead of splicing the walk into the middle of it (which
        would replay a non-prefix of the log).  Positions strictly increase
        along the walk, so a pointer decayed into a back-edge is refused
        the same way and no cycle can be walked.

        Each block is read once, whole and uncharged; the walk charges the
        load of its header and the scan the load of the block, so the
        clock moves as two loads per block move it.  A block the media
        will not return whole is read as those two loads (its bytes are
        None): the header may still be readable.
        """
        try:
            raw = self.cpu.load_free(
                self._root.addr + _ROOT_FIRST_BLOCK_OFFSET, 8
            )
            addr = struct.unpack("<Q", raw)[0]
        except MediaError:
            report.corruption_detected = True
            report.reason = "root block pointer unreadable"
            return [], []
        chain: list[NvAllocation] = []
        blocks: list[bytes | None] = []
        in_use_at = self.heapo.in_use_at
        cpu = self.cpu
        while addr:
            alloc = in_use_at(addr)
            if alloc is None or alloc.name != _BLOCK_NAME:
                break
            try:
                block = header = cpu.load_free(addr, alloc.size)
            except MediaError:
                block = None
                try:
                    header = cpu.load(addr, _BLOCK_HEADER_SIZE)
                except MediaError:
                    report.corruption_detected = True
                    report.reason = report.reason or "block header unreadable"
                    break
            else:
                cpu.charge_load(addr, _BLOCK_HEADER_SIZE)
            next_addr, _size, chain_index = _BLOCK_HEADER.unpack_from(header, 0)
            if chain_index != len(chain):
                report.corruption_detected = True
                report.reason = report.reason or "chain position mismatch"
                break
            chain.append(alloc)
            blocks.append(block)
            addr = next_addr
        return chain, blocks

    def _scan_frames(
        self,
        chain: list[NvAllocation],
        blocks: list[bytes | None],
        report: RecoveryReport,
    ) -> tuple[list[tuple], tuple[int, int] | None, tuple[int, int | None] | None]:
        """Parse frames block by block (the bytes :meth:`_walk_chain` read,
        or a load of the block where it read none); return the committed
        prefix as ``(page_no, offset, payload)`` triples (payloads are views into the
        loaded blocks), the position (block index, offset) just after the
        last committed frame, and where a salvage stopped the scan (None if
        nothing was refused; see :meth:`_commits_past`).

        The scan stops — keeping what is committed so far — at the first
        frame whose payload checksum or commit word is invalid, or whose
        bytes the media refuses to return.  A zero commit word is a normal
        in-flight frame; any other value must equal one of the three words
        derived from the frame's checksum (standalone commit, epoch
        member, epoch close — see :func:`commit_mark_value`), so decayed
        commit fields cannot mint phantom transactions.

        Epoch semantics: an epoch-member word is a validated transaction
        boundary but keeps its frames *pending*; only a standalone commit
        or an epoch-close word commits everything pending.  A crash inside
        an open epoch therefore drops every one of its transactions —
        recovery replays the longest valid prefix of whole epochs.
        """
        committed: list[tuple] = []
        pending: list[tuple] = []
        tail: tuple[int, int] | None = None
        boundaries: list[int] = []

        def finish(stop=None):
            report.commit_boundaries = tuple(boundaries)
            report.epochs_replayed = len(boundaries)
            return committed, tail, stop

        def salvage(reason: str, stop: tuple[int, int | None]):
            report.corruption_detected = True
            report.reason = report.reason or reason
            report.frames_dropped += len(pending)
            return finish(stop)

        load = self.cpu.load
        charge_load = self.cpu.charge_load
        checkpoint_id = self._checkpoint_id
        checksum_bits = self.checksum_bits
        for block_index, alloc in enumerate(chain):
            block = blocks[block_index]
            if block is None:
                try:
                    block = load(alloc.addr, alloc.size)
                except MediaError:
                    return salvage("log block unreadable", (block_index, None))
            else:
                charge_load(alloc.addr, alloc.size)
            block = memoryview(block)
            pos = _BLOCK_HEADER_SIZE
            while True:
                found = nv_frame_at(block, pos, alloc.size)
                if isinstance(found, str):
                    break  # no further frame in this block
                page_no, offset, size, checksum, word, ckpt, end = found
                if ckpt != checkpoint_id:
                    break  # leftover of an earlier log generation
                start = pos + NV_HEADER_SIZE
                payload = block[start : start + size]
                if checksum != payload_checksum(payload, page_no, offset, checksum_bits):
                    # Torn frame (or the asynchronous-commit window): the
                    # transaction it belongs to is considered aborted.
                    return salvage("frame checksum mismatch", (block_index, end))
                if word:
                    # Which mark the word is: its XOR with the frame's
                    # standalone commit word (0 for that word itself).
                    mark = word ^ commit_mark_value(checksum)
                    if mark and mark != EPOCH_MEMBER and mark != EPOCH_CLOSE:
                        return salvage("invalid commit word", (block_index, end))
                pending.append((page_no, offset, payload))
                pos = end
                if word and mark != EPOCH_MEMBER:
                    committed += pending
                    pending.clear()
                    tail = (block_index, pos)
                    boundaries.append(len(committed))
        report.frames_dropped += len(pending)
        return finish()

    def verify_log(self) -> RecoveryReport:
        """Read-only scrub of the live NVRAM log.

        Re-walks the durable block chain and re-parses every frame with
        the same validity checks recovery applies, without touching the
        allocator, the replay images, or the chain itself.  MediaErrors
        from decayed units are absorbed into the report instead of
        raised, so the service layer can probe NVRAM health (circuit
        breaker half-open checks, degraded-mode re-promotion) between
        requests.
        """
        report = RecoveryReport()
        committed, _tail, _stop = self._scan_frames(*self._walk_chain(report), report)
        report.frames_replayed = len(committed)
        if report.corruption_detected:
            report.frames_salvaged = len(committed)
        return report

    def _truncate_chain_after(self, tail_block: NvAllocation) -> None:
        """Clear ``tail_block``'s next pointer.  The blocks it led to are
        unreachable now, and :meth:`_reclaim_orphan_blocks` frees them —
        following the pointer instead could walk a decayed back-edge into
        the live chain."""
        try:
            header = self.cpu.load_free(tail_block.addr, _BLOCK_HEADER_SIZE)
        except MediaError:
            return
        if struct.unpack_from("<Q", header, 0)[0]:
            self._store_durable_u64(tail_block.addr, 0)

    def _reclaim_orphan_blocks(self, reachable: set[int]) -> None:
        """Free in-use WAL blocks not reachable from the root (e.g. a crash
        between the checkpoint's chain reset and its nvfree calls, or the
        blocks past the committed tail)."""
        for alloc in self.heapo.in_use_named(_BLOCK_NAME, unless_at=reachable):
            self.heapo.nvfree(alloc)

    def _replay(
        self, committed: list[tuple], report: RecoveryReport
    ) -> tuple[dict[int, bytes], int]:
        """Apply the committed frames over each page's first base; return
        the final image of every page they touch (in first-touch order) and
        how many frames were applied.  Each page is folded in one buffer
        and frozen once."""
        pages: dict[int, bytearray] = {}
        applied = 0
        for page_no, offset, payload in committed:
            image = pages.get(page_no)
            try:
                if image is None:
                    base = self._first_base(page_no, offset, payload, report)
                    image = bytearray(base)
                    if base is not payload:  # a whole-page frame is its own image
                        patch_page(image, page_no, offset, payload)
                    pages[page_no] = image
                else:
                    patch_page(image, page_no, offset, payload)
            except ChecksumError:
                # Checksum-valid frames cannot normally fail application;
                # if one does, keep the prefix applied so far.
                report.corruption_detected = True
                report.reason = report.reason or "frame application failed"
                report.frames_dropped += len(committed) - applied
                break
            applied += 1
        return {page_no: bytes(image) for page_no, image in pages.items()}, applied

    def _first_base(
        self, page_no: int, offset: int, payload, report: RecoveryReport
    ) -> bytes:
        """The image a page's first committed frame applies to.  A frame
        that covers the whole page needs none — and the first frame of a
        page in a log generation always does (:meth:`_build_frames`) — so
        only a page whose first frame is partial reads the db file."""
        if offset == 0 and len(payload) == self.system.page_size:
            return payload
        return self._base_page(page_no, report)

    def _base_page(self, pno: int, report: RecoveryReport) -> bytes:
        page_size = self.system.page_size
        if self.db_file is None:
            return bytes(page_size)
        offset = (pno - 1) * page_size
        if offset >= self.db_file.size:
            return bytes(page_size)
        report.base_pages_read += 1
        return self.db_file.read(offset, page_size).ljust(page_size, b"\x00")

    # ------------------------------------------------------------------
    # checkpointing (Section 4.3)
    # ------------------------------------------------------------------

    def checkpoint(self) -> int:
        """Write committed pages to the database file, then invalidate and
        free the NVRAM log."""
        if self.db_file is None:
            raise RuntimeError("NVWAL is not bound to a database file")
        if self._epoch is not None:
            raise TransactionError(
                "cannot checkpoint while a group-commit epoch is open"
            )
        started_ns = self.system.clock.now_ns
        pages = sorted(self._logged_images)
        page_size = self.system.page_size
        for pno in pages:
            self.db_file.write((pno - 1) * page_size, self._logged_images[pno])
        if pages:
            self.db_file.fsync()
        # Invalidate the log *after* the pages are durable: bump the
        # checkpoint id and unlink the chain in one flushed update.
        new_id = self._checkpoint_id + 1
        self.cpu.store(
            self._root.addr + _ROOT_CKPT_OFFSET, struct.pack("<I", new_id)
        )
        self.cpu.store(
            self._root.addr + _ROOT_FIRST_BLOCK_OFFSET, struct.pack("<Q", 0)
        )
        self._metadata.flush_ranges(
            [(self._root.addr + _ROOT_CKPT_OFFSET, _ROOT_SIZE - _ROOT_CKPT_OFFSET)]
        )
        self.userheap.free_all()
        self._checkpoint_id = new_id
        self._logged_images.clear()
        self._frame_count = 0
        self._link_addr = self._root.addr + _ROOT_FIRST_BLOCK_OFFSET
        self._note_checkpoint(started_ns, len(pages))
        return len(pages)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def frame_count(self) -> int:
        """Frames appended since the last checkpoint."""
        return self._frame_count

    def log_bytes_in_use(self) -> int:
        """NVRAM bytes held by log blocks (ablation A1)."""
        return self.userheap.bytes_held

    def frames_per_block(self) -> float:
        """Average frames stored per NVRAM block (paper: 4.9 at 8 KB)."""
        if not self.userheap.blocks:
            return 0.0
        return self._frame_count / len(self.userheap.blocks)

    def _store_durable_u64(self, addr: int, value: int) -> None:
        """Store + flush + barrier one 8-byte pointer (recovery-side)."""
        self.cpu.store(addr, struct.pack("<Q", value))
        self._metadata.flush_ranges([(addr, 8)])


def _contiguous_runs(ptrs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Merge adjacent ``(addr, length)`` ranges.

    Frames are bump-allocated, so an epoch's frames form one run per log
    block touched; each run becomes a single ``dccmvac`` batch instead of
    one flush call per frame."""
    runs = [ptrs[0]]
    for addr, length in ptrs[1:]:
        start, run_length = runs[-1]
        if addr == start + run_length:
            runs[-1] = (start, run_length + length)
        else:
            runs.append((addr, length))
    return runs
