"""Simplified EXT4 filesystem with an ordered-mode metadata journal.

The paper's WAL-on-flash baseline pays "at least 16 KBytes I/O traffic to
underlying storage mainly due to metadata journaling overhead in the EXT4
file system" per logging transaction (Section 1).  This module reproduces
the mechanism behind that number:

* files are page-granular, with inodes holding extent lists;
* ``fsync`` in ordered mode writes the file's dirty *data* pages first,
  flushes the device, then commits a journal transaction containing every
  dirty *metadata* block (inode-table block, block bitmap, group
  descriptor, directory) framed by a descriptor and a commit block, and
  flushes again;
* appending to a file dirties the inode (size + mtime), the bitmap, and the
  group descriptor, so a stock SQLite WAL append journals
  descriptor + inode + bitmap + group-descriptor + commit = 20 KB — the
  paper's "two blocks (16KB, 4KB)... written to the EXT4 journal";
* overwriting pre-allocated pages dirties only the inode (mtime), so the
  WALDIO-style optimization of Section 5.4 journals
  descriptor + inode + commit = 12 KB, the ~40% journal-traffic reduction
  of Figure 8.

Metadata truly round-trips through serialized blocks: ``mount()`` replays
the live chain of committed journal transactions and rebuilds
all in-memory state from the block images, so crash tests exercise real
recovery, not bookkeeping shortcuts.

The inode table and the block bitmap stay resident as *live home-block
images* (one ``bytearray`` per block, loaded by ``mount()``) and are mutated
where the change happens: ``_alloc_block``/``_free_block`` flip one bitmap
bit, ``Inode.append_block``/``pop_block`` keep the extent list in step with
the page list, and a journal commit re-packs only the dirty inodes' slots
before snapshotting the dirty blocks.  ``fsync`` therefore costs
O(dirty pages of the file + dirty metadata blocks), whatever the file's
length or the file system's fill; the bytes written are those a from-scratch
encode of the in-memory state would produce
(``tests/storage/test_ext4_metadata_equivalence.py`` holds that encoder).
"""

from __future__ import annotations

import heapq
import struct
import zlib
from collections.abc import Container, Iterator
from itertools import chain

from repro.errors import (
    FileExists,
    FsConsistencyError,
    NoSuchFile,
    OutOfSpace,
    StorageError,
)
from repro.hw import stats as statnames
from repro.hw.cache import bit_runs
from repro.hw.stats import TimeBucket
from repro.retry import retry_io
from repro.storage.blockdev import BlockDevice

_SUPER_MAGIC = 0x4558_5434_5349_4D31  # "EXT4SIM1"
_SUPER_FMT = "<QIIIIIIIIII"

_INODE_SIZE = 256
_INODE_HEADER_FMT = "<BxH4xQQ"  # used, n_extents, size, mtime
_INODE_HEADER_SIZE = struct.calcsize(_INODE_HEADER_FMT)
_EXTENT_FMT = "<II"
_MAX_EXTENTS = (_INODE_SIZE - _INODE_HEADER_SIZE) // 8

_DIRENT_SIZE = 64
_DIRENT_FMT = "<B3xI56s"

_JMAGIC = 0x4A42_4432  # "JBD2"
#: magic, type, seq, then n_blocks (descriptor) or the transaction's
#: checksum (commit): crc32 over the descriptor and image blocks.
_JDESC_FMT = "<IIQI"
_JDESC = struct.Struct(_JDESC_FMT)
_JMAGIC_BYTES = struct.pack("<I", _JMAGIC)  # how every journal block starts
_JTYPE_DESC = 1
_JTYPE_COMMIT = 2

_BLOCK_IO = TimeBucket.BLOCK_IO._value_  # the Stats.time_ns key of a page read

_NUM_INODES = 128
_DIR_BLOCKS = 2
_JOURNAL_BLOCKS = 256

#: Attempts per page command before a transient IoError is given up on.
#: Must exceed IoFaultSpec.max_consecutive so injected transients always
#: clear within the budget.
_IO_RETRIES = 4


class Inode:
    """In-memory inode: size, mtime, the block of every file page, and the
    file's share of the OS page cache."""

    __slots__ = (
        "used", "size", "mtime", "page_blocks", "extents", "pages", "dirty_pages"
    )

    def __init__(self) -> None:
        self.used = False
        self.size = 0
        self.mtime = 0
        #: Device block number of each file page, in page order.
        self.page_blocks: list[int] = []
        #: The same blocks as maximal ``(start, length)`` runs — what the
        #: on-disk slot stores.  Only :meth:`append_block`,
        #: :meth:`pop_block` and :meth:`reset` change either list.
        self.extents: list[tuple[int, int]] = []
        #: Cached pages by page index (as read, or written: a bytearray),
        #: and which of them fsync must write.
        self.pages: dict[int, bytes | bytearray] = {}
        self.dirty_pages: set[int] = set()

    def append_block(self, bno: int) -> None:
        """Back one more page with ``bno``: extends the last run or opens one."""
        self.page_blocks.append(bno)
        extents = self.extents
        if extents:
            start, length = extents[-1]
            if start + length == bno:
                extents[-1] = (start, length + 1)
                return
        extents.append((bno, 1))

    def pop_block(self) -> int:
        """Drop the last page's block: shrinks the last run or drops it."""
        start, length = self.extents[-1]
        if length == 1:
            self.extents.pop()
        else:
            self.extents[-1] = (start, length - 1)
        return self.page_blocks.pop()

    def reset(self) -> None:
        """Back to an empty file with nothing cached."""
        self.size = 0
        self.page_blocks = []
        self.extents = []
        self.pages = {}
        self.dirty_pages = set()


class File:
    """Handle to one file; the POSIX-ish surface the WAL layer uses."""

    def __init__(self, fs: "Ext4FileSystem", ino: int, name: str) -> None:
        self._fs = fs
        self.ino = ino
        self.name = name

    @property
    def size(self) -> int:
        """Current file size in bytes."""
        return self._fs._inode(self.ino).size

    def write(self, offset: int, data: bytes) -> None:
        """Buffered write (OS page cache); durable only after fsync."""
        self._fs.write_file(self.ino, offset, data)

    def read(self, offset: int, length: int) -> bytes:
        """Read through the page cache: one copy, or none for a whole
        page cached as read (:meth:`Ext4FileSystem.read_file`)."""
        return self._fs.read_file(self.ino, offset, length)

    def pages(self) -> Iterator[bytes]:
        """The file's pages in ascending order through the page cache,
        each read on demand and a miss filled as :meth:`read` fills it:
        the cache's own ``bytes`` (:meth:`Ext4FileSystem.read_pages`)."""
        return self._fs.read_pages(self.ino)

    def fsync(self) -> None:
        """Flush data, then journal *all* dirty metadata (incl. mtime)."""
        self._fs.fsync(self.ino, datasync=False)

    def fdatasync(self) -> None:
        """Flush data; journal metadata only if retrieval depends on it."""
        self._fs.fsync(self.ino, datasync=True)

    def truncate(self, size: int) -> None:
        """Shrink (or logically extend) the file to ``size`` bytes."""
        self._fs.truncate(self.ino, size)

    def preallocate(self, total_pages: int) -> None:
        """Extend the file to ``total_pages`` pages of zeros now, so later
        appends become metadata-free overwrites (the WALDIO optimization)."""
        self._fs.preallocate(self.ino, total_pages)

    def allocated_pages(self) -> int:
        """Number of device pages currently backing the file."""
        return len(self._fs._inode(self.ino).page_blocks)


class Ext4FileSystem:
    """The filesystem over one :class:`BlockDevice`."""

    def __init__(self, device: BlockDevice) -> None:
        self.device = device
        self.page_size = device.page_size
        self._zero_page = bytes(self.page_size)
        self._layout()
        # volatile state, rebuilt by mount()
        self._inodes: list[Inode] = []
        self._dir: dict[str, int] = {}
        #: ``file:<name>`` trace tag of each linked inode (the reverse of
        #: ``_dir``, kept by create/unlink).
        self._tags: dict[int, str] = {}
        # Live home-block images of the inode table and the block bitmap;
        # see the module docstring for who mutates them.
        self._itab: list[bytearray] = []
        self._bitmaps: list[bytearray] = []
        # Free-space tracking is lazy: ``_free_heap`` holds only recycled
        # blocks; everything at or past ``_free_cursor`` that is not in
        # ``_used_set`` is virgin-free.  Allocation still hands out the
        # globally lowest free block (min of heap top and cursor), so the
        # layout is identical to a fully materialized free set — without
        # building a set over the whole data area on every mount.
        self._free_heap: list[int] = []
        self._free_cursor = self.data_start
        self._used_set: set[int] = set()
        self._dirty_inodes: set[int] = set()
        self._dirty_bitmap_blocks: set[int] = set()
        self._dir_dirty = False
        self._gdesc_dirty = False
        self._journal_head = 0
        self._journal_seq = 1
        self._pending_home: dict[int, bytes] = {}
        self._mounted = False

    # ------------------------------------------------------------------
    # device access with bounded retry
    # ------------------------------------------------------------------

    def _dev_write(self, pno: int, data: bytes, tag: str) -> None:
        """``write_page`` with bounded retry-with-backoff on transient
        :class:`IoError`; re-raises once the retry budget is exhausted."""
        device = self.device
        retry_io(
            _IO_RETRIES, device.write_page, pno, data, tag,
            clock=device.clock, backoff_ns=device.config.write_latency_ns,
        )

    def _dev_read(self, pno: int, tag: str) -> bytes:
        """``read_page`` with the same bounded retry-with-backoff.

        With neither a fault injector nor a trace on the device, nothing
        can fail or be recorded, and the charge is :meth:`BlockDevice.
        read_page`'s, made inline: the same additions to the clock, the
        block-I/O time and the read count, in that order."""
        device = self.device
        if device.fault_injector is None and device.trace is None:
            page = device.read_page_silent(pno)
            latency = device.config.read_latency_ns
            device.clock.now_ns += latency
            device.stats.time_ns[_BLOCK_IO] += latency
            device.stats.counters[statnames.BLOCK_READS] += 1
            return page
        return retry_io(
            _IO_RETRIES, device.read_page, pno, tag,
            clock=device.clock, backoff_ns=device.config.read_latency_ns,
        )

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------

    def _layout(self) -> None:
        p = self.page_size
        self.itab_start = 1
        self.itab_blocks = _NUM_INODES * _INODE_SIZE // p
        self.bitmap_start = self.itab_start + self.itab_blocks
        data_guess = self.device.num_pages
        self.bitmap_blocks = (data_guess + p * 8 - 1) // (p * 8)
        self.gdesc_start = self.bitmap_start + self.bitmap_blocks
        self.dir_start = self.gdesc_start + 1
        self.journal_start = self.dir_start + _DIR_BLOCKS
        self.journal_blocks = _JOURNAL_BLOCKS
        self.data_start = self.journal_start + self.journal_blocks

    # ------------------------------------------------------------------
    # format / mount
    # ------------------------------------------------------------------

    def format(self) -> None:
        """Create an empty filesystem (mkfs)."""
        super_block = struct.pack(
            _SUPER_FMT,
            _SUPER_MAGIC,
            _NUM_INODES,
            self.itab_start,
            self.itab_blocks,
            self.bitmap_start,
            self.bitmap_blocks,
            self.gdesc_start,
            self.dir_start,
            _DIR_BLOCKS,
            self.journal_start,
            self.journal_blocks,
        ).ljust(self.page_size, b"\x00")
        self._dev_write(0, super_block, tag="metadata")
        for bno in range(self.itab_start, self.data_start):
            self._dev_write(bno, self._zero_page, tag="metadata")
        self.device.flush()
        self.mount()

    def mount(self) -> None:
        """Replay the journal and rebuild in-memory state from blocks."""
        raw = self.device.read_page_silent(0)
        magic = struct.unpack_from("<Q", raw, 0)[0]
        if magic != _SUPER_MAGIC:
            raise FsConsistencyError("superblock magic mismatch (not formatted?)")
        replayed = self._replay_journal()
        # Real journal recovery writes the journaled blocks to their home
        # locations before the ring can be reused; otherwise the next
        # commit at ring position 0 would overwrite the only durable copy.
        for bno in sorted(replayed):
            self._dev_write(bno, replayed[bno], tag="metadata")
        if replayed:
            self.device.flush()
        self._pending_home = {}

        def block_image(bno: int) -> bytes:
            if bno in replayed:
                return replayed[bno]
            return self.device.read_page_silent(bno)

        # inodes (each decoded Inode starts with an empty page cache)
        self._itab = [
            bytearray(block_image(self.itab_start + i))
            for i in range(self.itab_blocks)
        ]
        # Blocks and inode slots of zeros hold nothing to decode, and a
        # zero slot decodes to a default inode: only the inodes of the
        # files created since mkfs are decoded.  The zero slots share one
        # default inode, which nothing changes: an inode not in use is
        # only read, and create() installs a fresh one.
        zero_block, zero_slot = self._zero_page, bytes(_INODE_SIZE)
        per_block = self.page_size // _INODE_SIZE
        self._inodes = inodes = [Inode()] * _NUM_INODES
        for block, image in enumerate(self._itab):
            if image == zero_block:
                continue
            for offset in range(0, self.page_size, _INODE_SIZE):
                if image[offset : offset + _INODE_SIZE] != zero_slot:
                    ino = block * per_block + offset // _INODE_SIZE
                    inodes[ino] = _decode_inode(image, offset)
        # directory
        self._dir = {}
        self._tags = {}
        for i in range(_DIR_BLOCKS):
            image = block_image(self.dir_start + i)
            if image == zero_block:
                continue
            for used, ino, name_b in struct.iter_unpack(_DIRENT_FMT, image):
                if used:
                    name = name_b.rstrip(b"\x00").decode()
                    self._dir[name] = ino
                    self._tags.setdefault(ino, f"file:{name}")
        # bitmap -> used set; free space is its (lazy) complement over the
        # data area, tracked by cursor + recycle heap instead of a set.
        self._bitmaps = [
            bytearray(block_image(self.bitmap_start + i))
            for i in range(self.bitmap_blocks)
        ]
        self._used_set = used_blocks = set()
        num_pages = self.device.num_pages
        for i, img in enumerate(self._bitmaps):
            if img == zero_block:
                continue
            # Allocation is lowest-first, so the set bits are a few dense
            # runs near the bottom: walk runs.
            base = self.data_start + i * self.page_size * 8
            for low, high in bit_runs(int.from_bytes(img, "little")):
                used_blocks.update(range(base + low, min(base + high, num_pages)))
        self._free_heap = []
        self._free_cursor = self.data_start

        self._dirty_inodes.clear()
        self._dirty_bitmap_blocks.clear()
        self._dir_dirty = False
        self._gdesc_dirty = False
        self._mounted = True

    def unmount(self) -> None:
        """Sync everything and write pending journal metadata home."""
        for ino, inode in enumerate(self._inodes):
            if inode.used:
                self.fsync(ino, datasync=False)
        self._checkpoint_journal()
        self.device.flush()
        self._mounted = False

    def power_fail(self, landed: Container[int] | None = None) -> None:
        """Lose OS caches and the device cache but its ``landed`` pages, and
        unmount: a ``System``'s power cut runs this as ``crash.storage``."""
        self.device.power_fail(landed)
        self._mounted = False

    # ------------------------------------------------------------------
    # directory operations
    # ------------------------------------------------------------------

    def create(self, name: str) -> File:
        """Create an empty file."""
        self._require_mounted()
        if name in self._dir:
            raise FileExists(name)
        if len(name.encode()) > 55:
            raise StorageError(f"file name too long: {name!r}")
        ino = next(
            (i for i in range(1, _NUM_INODES) if not self._inodes[i].used), None
        )
        if ino is None:
            raise OutOfSpace("inode table full")
        self._inodes[ino] = inode = Inode()
        inode.used = True
        inode.mtime = int(self.device.clock.now_ns)
        self._dir[name] = ino
        self._tags[ino] = f"file:{name}"
        self._dir_dirty = True
        self._dirty_inodes.add(ino)
        return File(self, ino, name)

    def open(self, name: str) -> File:
        """Open an existing file."""
        self._require_mounted()
        if name not in self._dir:
            raise NoSuchFile(name)
        return File(self, self._dir[name], name)

    def exists(self, name: str) -> bool:
        """Whether ``name`` exists."""
        return name in self._dir

    def unlink(self, name: str) -> None:
        """Delete a file, freeing its blocks."""
        self._require_mounted()
        if name not in self._dir:
            raise NoSuchFile(name)
        ino = self._dir.pop(name)
        self._tags.pop(ino, None)
        inode = self._inodes[ino]
        for bno in inode.page_blocks:
            self._free_block(bno)
        inode.used = False
        inode.reset()
        self._dir_dirty = True
        self._dirty_inodes.add(ino)

    def list_names(self) -> list[str]:
        """All file names, sorted."""
        return sorted(self._dir)

    # ------------------------------------------------------------------
    # file data path
    # ------------------------------------------------------------------

    def write_file(self, ino: int, offset: int, data: bytes) -> None:
        """Write into the page cache, allocating blocks for new pages."""
        self._require_mounted()
        inode = self._inode(ino)
        end = offset + len(data)
        pos = offset
        while pos < end:
            page_idx = pos // self.page_size
            in_page = pos % self.page_size
            chunk = min(end - pos, self.page_size - in_page)
            self._ensure_page_allocated(ino, inode, page_idx)
            page = self._cached_page(inode, page_idx)
            page[in_page : in_page + chunk] = data[pos - offset : pos - offset + chunk]
            inode.dirty_pages.add(page_idx)
            pos += chunk
        if end > inode.size:
            inode.size = end
        inode.mtime = int(self.device.clock.now_ns)
        self._dirty_inodes.add(ino)

    def read_file(self, ino: int, offset: int, length: int) -> bytes:
        """Read through the page cache (a miss is charged once, by
        :meth:`_read_page`).  The bytes are copied once; a whole page that
        is cached as read is returned as it is cached."""
        self._require_mounted()
        inode = self._inode(ino)
        cached = inode.pages
        page_size = self.page_size
        pos = offset
        end = offset + max(0, min(length, inode.size - offset))
        parts = []
        while pos < end:
            page_idx, in_page = divmod(pos, page_size)
            page = cached.get(page_idx) or self._read_page(ino, inode, page_idx)
            chunk = min(end - pos, page_size - in_page)
            parts.append(
                page if chunk == page_size
                else memoryview(page)[in_page : in_page + chunk]
            )
            pos += chunk
        return b"".join(parts)

    def read_pages(self, ino: int) -> Iterator[bytes]:
        """The file's pages in ascending order, up to the one holding its
        last byte when the iteration starts, through the page cache: each
        page is read when the caller takes it, a miss as :meth:`read_file`
        reads it.  A page is the cache's own ``bytes``, or a copy of one
        written since it was read: no page yielded changes under a later
        write."""
        self._require_mounted()
        inode = self._inode(ino)
        cached = inode.pages
        for page_idx in range(-(-inode.size // self.page_size)):
            yield bytes(cached.get(page_idx) or self._read_page(ino, inode, page_idx))

    def truncate(self, ino: int, size: int) -> None:
        """Set file size; free whole pages beyond the new size."""
        self._require_mounted()
        inode = self._inode(ino)
        # Marked before the first change: a failing free must not leave a
        # shortened inode that no commit will re-pack.
        self._dirty_inodes.add(ino)
        keep_pages = (size + self.page_size - 1) // self.page_size
        while len(inode.page_blocks) > keep_pages:
            self._free_block(inode.pop_block())
            page_idx = len(inode.page_blocks)
            inode.pages.pop(page_idx, None)
            inode.dirty_pages.discard(page_idx)
        tail = size % self.page_size
        if size < inode.size and tail and keep_pages <= len(inode.page_blocks):
            # POSIX: bytes between a shrink point and a later extension
            # read as zeros — scrub the stale tail of the last kept page.
            page = self._cached_page(inode, keep_pages - 1)
            page[tail:] = bytes(self.page_size - tail)
            inode.dirty_pages.add(keep_pages - 1)
        inode.size = size
        inode.mtime = int(self.device.clock.now_ns)

    def preallocate(self, ino: int, total_pages: int) -> None:
        """Grow the file to ``total_pages`` zero pages (WALDIO-style)."""
        self._require_mounted()
        inode = self._inode(ino)
        for page_idx in range(len(inode.page_blocks), total_pages):
            self._ensure_page_allocated(ino, inode, page_idx)
        inode.size = max(inode.size, total_pages * self.page_size)
        inode.mtime = int(self.device.clock.now_ns)
        self._dirty_inodes.add(ino)

    # ------------------------------------------------------------------
    # fsync: the ordered-mode journal
    # ------------------------------------------------------------------

    def fsync(self, ino: int, datasync: bool = False) -> None:
        """Ordered-mode sync of one file.

        1. write the file's dirty data pages in place;
        2. device cache flush (data-before-metadata ordering);
        3. if metadata must be journaled, write a journal transaction
           (descriptor + dirty metadata blocks + commit) and flush again.

        ``datasync=True`` skips the journal when only the mtime changed —
        the fdatasync fast path SQLite relies on.
        """
        self._require_mounted()
        inode = self._inode(ino)
        dirty = inode.dirty_pages
        if dirty:
            tag = self._tag_of(ino)
            for page_idx in sorted(dirty):
                self._dev_write(
                    inode.page_blocks[page_idx], bytes(inode.pages[page_idx]), tag=tag
                )
                dirty.discard(page_idx)
            self.device.flush()

        # fdatasync still journals when allocation or the directory changed.
        structural = bool(self._dirty_bitmap_blocks) or self._dir_dirty
        if structural or (ino in self._dirty_inodes and not datasync):
            self._journal_commit()

    def sync_all(self) -> None:
        """fsync every file plus global metadata (the ``sync`` syscall)."""
        for ino, inode in enumerate(self._inodes):
            if inode.used:
                self.fsync(ino, datasync=False)
        if self._dirty_inodes or self._dirty_bitmap_blocks or self._dir_dirty:
            self._journal_commit()

    # ------------------------------------------------------------------
    # journal machinery
    # ------------------------------------------------------------------

    def _dirty_metadata_blocks(self) -> dict[int, bytes]:
        """Snapshot every dirty metadata block's home image.

        The dirty inodes' slots are re-packed into the live inode-table
        images first — after checking all of them, so a too-fragmented
        file fails the commit with every image untouched.
        """
        images: dict[int, bytes] = {}
        dirty_inodes = sorted(self._dirty_inodes)
        for ino in dirty_inodes:
            n_extents = len(self._inodes[ino].extents)
            if n_extents > _MAX_EXTENTS:
                raise FsConsistencyError(
                    f"file too fragmented: {n_extents} extents (max {_MAX_EXTENTS})"
                )
        per_block = self.page_size // _INODE_SIZE
        for ino in dirty_inodes:
            block, slot = divmod(ino, per_block)
            _pack_inode(self._inodes[ino], self._itab[block], slot * _INODE_SIZE)
        for block in sorted({ino // per_block for ino in dirty_inodes}):
            images[self.itab_start + block] = bytes(self._itab[block])
        for i in sorted(self._dirty_bitmap_blocks):
            images[self.bitmap_start + i] = bytes(self._bitmaps[i])
        if self._dirty_bitmap_blocks or self._gdesc_dirty:
            images[self.gdesc_start] = self._encode_gdesc_block()
        if self._dir_dirty:
            for i in range(_DIR_BLOCKS):
                images[self.dir_start + i] = self._encode_dir_block(i)
        return images

    def _journal_commit(self) -> None:
        """Write one journal transaction for all dirty metadata."""
        images = self._dirty_metadata_blocks()
        if not images:
            return
        needed = len(images) + 2
        if self._journal_head + needed > self.journal_blocks:
            self._checkpoint_journal()
        seq = self._journal_seq
        home_blocks = sorted(images)
        desc = struct.pack(
            _JDESC_FMT, _JMAGIC, _JTYPE_DESC, seq, len(home_blocks)
        ) + struct.pack(f"<{len(home_blocks)}I", *home_blocks)
        jpos = self.journal_start + self._journal_head
        desc = desc.ljust(self.page_size, b"\x00")
        self._dev_write(jpos, desc, tag="journal")
        checksum = zlib.crc32(desc)
        for i, bno in enumerate(home_blocks):
            self._dev_write(jpos + 1 + i, images[bno], tag="journal")
            checksum = zlib.crc32(images[bno], checksum)
        # The commit block lands in the same flush as the blocks it
        # covers, so it may outlive them: its checksum says whether they
        # all landed (JBD2's COMPAT_CHECKSUM).
        commit = struct.pack(_JDESC_FMT, _JMAGIC, _JTYPE_COMMIT, seq, checksum)
        self._dev_write(
            jpos + 1 + len(home_blocks),
            commit.ljust(self.page_size, b"\x00"),
            tag="journal",
        )
        self.device.flush()
        # Only a flushed commit consumes its seq: a write that exhausts
        # its retries leaves the next attempt at the same seq and slot,
        # so replay's sequence-contiguous chain keeps every earlier commit.
        self._journal_seq += 1
        self._journal_head += needed
        self._pending_home.update(images)
        self._dirty_inodes.clear()
        self._dirty_bitmap_blocks.clear()
        self._dir_dirty = False
        self._gdesc_dirty = False

    def _checkpoint_journal(self) -> None:
        """Write journaled metadata to home locations and reset the ring."""
        for bno in sorted(self._pending_home):
            self._dev_write(bno, self._pending_home[bno], tag="metadata")
        if self._pending_home:
            self.device.flush()
        self._pending_home.clear()
        self._journal_head = 0

    def _replay_journal(self) -> dict[int, bytes]:
        """Scan the ring for committed transactions and replay the live
        chain: the sequence-contiguous run ending at the highest committed
        seq, a later transaction's image of a block over an earlier one's.

        The ring restarts at block 0 after every checkpoint and mount, so
        a transaction from an earlier lap can outlive the ones that
        superseded it.  Its seq is then cut off from the newest by a gap
        (the overwritten successors, whose images are already home), and
        replaying it would put a stale image over the newer home copy.

        A transaction whose commit checksum does not match its blocks (a
        power cut landed the commit block but not every image) is not
        replayed.  Only one that can be torn is hashed, newest seq first:
        the newest, and one whose successor sits at ring position 0.  Any
        other had its successor written after its own flush returned, and
        a flushed page stays as it landed.  A torn transaction is always
        one of the two: the next mount restarts the ring at position 0,
        and the next commit takes the next seq.  A refused newest
        transaction still anchors the chain, which must go on at the seq
        below it: a gap there means everything older is home already, and
        an earlier lap left in the ring must not head a chain of its own.
        """
        ring = self.device.read_pages_silent(self.journal_start, self.journal_blocks)
        found: dict[int, tuple[int, int, int]] = {}  # seq -> position, n, checksum
        pos = 0  # ring positions below are inside a transaction found
        # Only a block that starts with the magic can be a descriptor.
        for at in [at for at, raw in enumerate(ring) if raw[:4] == _JMAGIC_BYTES]:
            if at < pos:
                continue
            _magic, jtype, seq, n_blocks = _JDESC.unpack_from(ring[at], 0)
            if jtype != _JTYPE_DESC:
                continue
            end = at + 1 + n_blocks
            if end >= self.journal_blocks:
                break
            cmagic, ctype, cseq, checksum = _JDESC.unpack_from(ring[end], 0)
            if cmagic == _JMAGIC and ctype == _JTYPE_COMMIT and cseq == seq:
                found[seq] = (at, n_blocks, checksum)
                pos = end + 1
        newest = seq = max(found, default=0)
        if found:
            self._journal_seq = max(self._journal_seq, newest + 1)
        # Newest first, so the first image of a home block is the one to
        # replay: no transaction's image map is built.
        replayed: dict[int, bytes] = {}
        anchored = False  # an intact transaction heads the chain
        while seq in found:
            start, n_blocks, checksum = found[seq]
            blocks = ring[start : start + 1 + n_blocks]  # descriptor, images
            hashed = seq == newest or found[seq + 1][0] == 0
            if hashed and _crc32_all(blocks) != checksum:
                if anchored:
                    break
            else:
                anchored = True
                homes = struct.unpack_from(f"<{n_blocks}I", blocks[0], _JDESC.size)
                for bno, image in zip(homes, blocks[1:]):
                    if bno not in replayed:
                        replayed[bno] = image
            seq -= 1
        self._journal_head = 0
        return replayed

    # ------------------------------------------------------------------
    # serialization helpers
    # ------------------------------------------------------------------

    def _encode_gdesc_block(self) -> bytes:
        used = len(self._used_set)
        free = self.device.num_pages - self.data_start - used
        return struct.pack("<QQ", free, used).ljust(self.page_size, b"\x00")

    def _encode_dir_block(self, index: int) -> bytes:
        out = bytearray(self.page_size)
        entries = sorted(self._dir.items())
        per_block = self.page_size // _DIRENT_SIZE
        for slot, (name, ino) in enumerate(entries):
            if index * per_block <= slot < (index + 1) * per_block:
                struct.pack_into(
                    _DIRENT_FMT,
                    out,
                    (slot - index * per_block) * _DIRENT_SIZE,
                    1,
                    ino,
                    name.encode(),
                )
        return bytes(out)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    def _alloc_block(self) -> int:
        used = self._used_set
        heap = self._free_heap
        # Recycled entries may have been overtaken by the cursor and
        # re-allocated; drop stale heads before comparing.
        while heap and heap[0] in used:
            heapq.heappop(heap)
        n = self.device.num_pages
        cursor = self._free_cursor
        while cursor < n and cursor in used:
            cursor += 1
        if heap and (cursor >= n or heap[0] < cursor):
            bno = heapq.heappop(heap)
            self._free_cursor = cursor
        elif cursor < n:
            bno = cursor
            self._free_cursor = cursor + 1
        else:
            raise OutOfSpace("no free data blocks")
        used.add(bno)
        self._set_bitmap_bit(bno, True)
        return bno

    def _is_free(self, bno: int) -> bool:
        return (
            self.data_start <= bno < self.device.num_pages
            and bno not in self._used_set
        )

    def _free_block(self, bno: int) -> None:
        if self._is_free(bno):
            raise FsConsistencyError(f"double free of block {bno}")
        self._used_set.discard(bno)
        heapq.heappush(self._free_heap, bno)
        self._set_bitmap_bit(bno, False)

    def _set_bitmap_bit(self, bno: int, used: bool) -> None:
        """Record ``bno``'s new state in its live bitmap image."""
        index, bit = divmod(bno - self.data_start, self.page_size * 8)
        if used:
            self._bitmaps[index][bit >> 3] |= 1 << (bit & 7)
        else:
            self._bitmaps[index][bit >> 3] &= ~(1 << (bit & 7))
        self._dirty_bitmap_blocks.add(index)
        self._gdesc_dirty = True

    # ------------------------------------------------------------------
    # small internals
    # ------------------------------------------------------------------

    def _inode(self, ino: int) -> Inode:
        inode = self._inodes[ino]
        if not inode.used:
            raise NoSuchFile(f"inode {ino} is not in use")
        return inode

    def _tag_of(self, ino: int) -> str:
        return self._tags.get(ino) or f"file:ino{ino}"

    def _ensure_page_allocated(self, ino: int, inode: Inode, page_idx: int) -> None:
        while len(inode.page_blocks) <= page_idx:
            inode.append_block(self._alloc_block())
            # A recycled block still holds its previous owner's bytes on
            # the device — a fresh allocation must read (and flush) as
            # zeros, so seed the cache instead of faulting the page in.
            idx = len(inode.page_blocks) - 1
            inode.pages[idx] = self._zero_page
            inode.dirty_pages.add(idx)
            self._dirty_inodes.add(ino)

    def _read_page(self, ino: int, inode: Inode, page_idx: int) -> bytes:
        """Fill a page-cache miss of a read: the page's block is read and
        charged once (:meth:`_dev_read`), and the page is cached as the
        bytes the device returned (zeros past the allocated blocks)."""
        blocks = inode.page_blocks
        if page_idx < len(blocks):
            page = self._dev_read(blocks[page_idx], tag=self._tag_of(ino))
        else:
            page = self._zero_page
        inode.pages[page_idx] = page
        return page

    def _cached_page(self, inode: Inode, page_idx: int) -> bytearray:
        """The cached page as a ``bytearray`` a write may change: the one
        place the page cache makes a writable copy."""
        page = inode.pages.get(page_idx)
        if page is None and page_idx < len(inode.page_blocks):
            page = self.device.read_page_silent(inode.page_blocks[page_idx])
        if page.__class__ is not bytearray:
            page = inode.pages[page_idx] = bytearray(page or self._zero_page)
        return page

    def _require_mounted(self) -> None:
        if not self._mounted:
            raise StorageError("filesystem is not mounted")


def _pack_inode(inode: Inode, image: bytearray, offset: int) -> None:
    """Rewrite one inode's slot of a live inode-table image."""
    image[offset : offset + _INODE_SIZE] = bytes(_INODE_SIZE)
    extents = inode.extents
    struct.pack_into(
        _INODE_HEADER_FMT,
        image,
        offset,
        1 if inode.used else 0,
        len(extents),
        inode.size,
        inode.mtime,
    )
    struct.pack_into(
        f"<{2 * len(extents)}I",
        image,
        offset + _INODE_HEADER_SIZE,
        *chain.from_iterable(extents),
    )


def _crc32_all(blocks: list[bytes]) -> int:
    """crc32 over ``blocks`` in order: a journal transaction's checksum."""
    crc = 0
    for block in blocks:
        crc = zlib.crc32(block, crc)
    return crc


def _decode_inode(block: bytes, offset: int) -> Inode:
    used, n_extents, size, mtime = struct.unpack_from(_INODE_HEADER_FMT, block, offset)
    inode = Inode()
    inode.used = bool(used)
    inode.size = size
    inode.mtime = mtime
    for i in range(n_extents):
        start, length = struct.unpack_from(
            _EXTENT_FMT, block, offset + _INODE_HEADER_SIZE + 8 * i
        )
        inode.page_blocks.extend(range(start, start + length))
        inode.extents.append((start, length))
    return inode
