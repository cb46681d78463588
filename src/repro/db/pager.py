"""DRAM page cache with transactional dirty-page tracking.

The pager is the boundary between the volatile database (Figure 1: B-tree
pages are modified in DRAM) and the persistence machinery: a transaction
dirties pages through :meth:`mark_dirty`, and at commit the set of dirty
page images is handed to the WAL backend.

Page 1 is the database header (magic, page count, freelist head, catalog
root, schema cookie).  Header changes go through the same dirty-page path,
so they are logged and recovered like any other page — exactly how SQLite
treats its page 1.

In WAL mode, pages logged but not yet checkpointed exist only in the log
and in this cache, so the cache never evicts a page that is newer than the
database file; recovery rebuilds the cache from the file plus the log.
"""

from __future__ import annotations

import struct

from repro.errors import DatabaseError, PageError
from repro.storage.ext4 import File
from repro.system import System

_HEADER_MAGIC = 0x4E56_5741_4C44_4231  # "NVWALDB1"
# magic, page_size, n_pages, freelist, catalog_root, cookie
_HEADER = struct.Struct("<QIIIII")

#: Bytes reserved at the tail of every page by the early-split optimization
#: so that a 24-byte WAL frame header plus the page fit one filesystem block.
EARLY_SPLIT_RESERVE = 24


class Pager:
    """Page cache over the database file."""

    def __init__(
        self,
        system: System,
        db_file: File,
        early_split: bool = True,
    ) -> None:
        self.system = system
        self.db_file = db_file
        self.page_size = system.page_size
        # get_page runs once per B-tree page visit: resolve its charge once.
        self._compute = system.cpu.compute
        self._page_visit_ns = system.config.db_costs.btree_page_visit_ns
        self.early_split = early_split
        self.usable_size = self.page_size - (
            EARLY_SPLIT_RESERVE if early_split else 0
        )
        self._pages: dict[int, bytearray] = {}
        self._dirty: dict[int, None] = {}  # insertion-ordered set
        self._snapshots: dict[int, bytes | None] = {}
        self._in_txn = False
        # Saved current images while a snapshot view temporarily rewinds
        # dirtied pages to their pre-transaction state (None = no view).
        self._snapshot_saved: dict[int, bytes] | None = None
        if self.db_file.size == 0:
            self._format_header()
        else:
            self._load_header()

    # ------------------------------------------------------------------
    # header (page 1)
    # ------------------------------------------------------------------

    def _format_header(self) -> None:
        page = bytearray(self.page_size)
        _HEADER.pack_into(page, 0, _HEADER_MAGIC, self.page_size, 1, 0, 0, 0)
        self._pages[1] = page

    def _load_header(self) -> None:
        page = self.get_page(1)
        magic, page_size, _n, _f, _c, _k = _HEADER.unpack_from(page, 0)
        if magic != _HEADER_MAGIC:
            raise DatabaseError("not a database file (bad header magic)")
        if page_size != self.page_size:
            raise DatabaseError(
                f"page size mismatch: file has {page_size}, system uses "
                f"{self.page_size}"
            )

    def _header_field(self, index: int) -> int:
        return _HEADER.unpack_from(self.get_page(1), 0)[index]

    def _set_header_field(self, index: int, value: int) -> None:
        self.mark_dirty(1)
        fields = list(_HEADER.unpack_from(self._pages[1], 0))
        fields[index] = value
        _HEADER.pack_into(self._pages[1], 0, *fields)

    @property
    def n_pages(self) -> int:
        """Highest allocated page number."""
        return self._header_field(2)

    @property
    def freelist_head(self) -> int:
        """First free page (0 = empty freelist)."""
        return self._header_field(3)

    @property
    def catalog_root(self) -> int:
        """Root page of the table catalog (0 = not created yet)."""
        return self._header_field(4)

    @catalog_root.setter
    def catalog_root(self, pno: int) -> None:
        self._set_header_field(4, pno)

    @property
    def schema_cookie(self) -> int:
        """Monotonic schema version / table-id counter."""
        return self._header_field(5)

    @schema_cookie.setter
    def schema_cookie(self, value: int) -> None:
        self._set_header_field(5, value)

    # ------------------------------------------------------------------
    # page access
    # ------------------------------------------------------------------

    def get_page(self, pno: int) -> bytearray:
        """Return the DRAM image of page ``pno`` (read intent).

        Charges one B-tree page-visit worth of CPU work, the dominant cost
        of SQLite query processing.
        """
        if pno < 1:
            raise PageError(f"invalid page number {pno}")
        self._compute(self._page_visit_ns)
        page = self._pages.get(pno)
        if page is None:
            page = bytearray(self._read_from_file(pno))
            self._pages[pno] = page
        return page

    def _read_from_file(self, pno: int) -> bytes:
        offset = (pno - 1) * self.page_size
        if offset >= self.db_file.size:
            return bytes(self.page_size)
        raw = self.db_file.read(offset, self.page_size)
        return raw.ljust(self.page_size, b"\x00")

    def install_page(self, pno: int, image: bytes) -> None:
        """Recovery path: place a reconstructed page image in the cache."""
        if len(image) != self.page_size:
            raise PageError("installed page image has wrong size")
        self._pages[pno] = bytearray(image)

    def mark_dirty(self, pno: int) -> None:
        """Declare intent to modify page ``pno`` in the current transaction.

        The first time a page is dirtied in a transaction its pre-image is
        snapshotted for rollback.  Must be called *before* mutating.
        """
        if not self._in_txn:
            raise DatabaseError("page modified outside a transaction")
        if self._snapshot_saved is not None:
            raise DatabaseError("page modified during a snapshot view")
        if pno not in self._dirty:
            page = self.get_page(pno)
            self._snapshots[pno] = bytes(page)
            self._dirty[pno] = None

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    def allocate_page(self) -> int:
        """Allocate a page: reuse the freelist head or extend the database."""
        head = self.freelist_head
        if head:
            page = self.get_page(head)
            next_free = struct.unpack_from("<I", page, 0)[0]
            self._set_header_field(3, next_free)
            self.mark_dirty(head)
            self._pages[head][:] = bytes(self.page_size)
            return head
        pno = self.n_pages + 1
        self._set_header_field(2, pno)
        self._pages[pno] = bytearray(self.page_size)
        self.mark_dirty(pno)
        return pno

    def free_page(self, pno: int) -> None:
        """Push a page onto the freelist."""
        if pno <= 1:
            raise PageError(f"cannot free page {pno}")
        self.mark_dirty(pno)
        page = self._pages[pno]
        page[:] = bytes(self.page_size)
        struct.pack_into("<I", page, 0, self.freelist_head)
        self._set_header_field(3, pno)

    def free_pages(self) -> list[int]:
        """Walk the freelist and return every free page number.

        Raises :class:`PageError` on a cycle or an out-of-range link —
        a corrupt freelist would otherwise loop forever or hand out
        pages the file does not have."""
        seen: set[int] = set()
        order: list[int] = []
        pno = self.freelist_head
        while pno:
            if pno in seen:
                raise PageError(f"freelist cycle at page {pno}")
            if not 1 < pno <= self.n_pages:
                raise PageError(f"freelist links to invalid page {pno}")
            seen.add(pno)
            order.append(pno)
            pno = struct.unpack_from("<I", self.get_page(pno), 0)[0]
        return order

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    def begin(self) -> None:
        """Start tracking dirty pages."""
        if self._in_txn:
            raise DatabaseError("pager already in a transaction")
        self._in_txn = True
        self._dirty.clear()
        self._snapshots.clear()

    def dirty_pages(self) -> dict[int, bytes]:
        """Current images of every page dirtied in this transaction,
        in first-dirtied order."""
        return {pno: bytes(self._pages[pno]) for pno in self._dirty}

    def pre_images(self) -> dict[int, bytes]:
        """Pre-transaction images of the dirtied pages (what a rollback
        journal must persist before the database file is touched)."""
        return {pno: self._snapshots[pno] for pno in self._dirty}

    def commit_finish(self) -> None:
        """The WAL accepted the transaction; forget rollback state."""
        self._require_txn()
        self._dirty.clear()
        self._snapshots.clear()
        self._in_txn = False

    def rollback(self) -> None:
        """Restore every dirtied page to its pre-transaction image."""
        self._require_txn()
        for pno, snapshot in self._snapshots.items():
            self._pages[pno][:] = snapshot
        self._dirty.clear()
        self._snapshots.clear()
        self._in_txn = False

    @property
    def in_transaction(self) -> bool:
        """Whether a pager transaction is open."""
        return self._in_txn

    def _require_txn(self) -> None:
        if not self._in_txn:
            raise DatabaseError("no pager transaction in progress")

    # ------------------------------------------------------------------
    # snapshot views
    # ------------------------------------------------------------------

    def push_snapshot(self) -> None:
        """Temporarily rewind every dirtied page to its pre-transaction
        image so readers observe the last-committed state.

        The in-flight writer's dirty images are stashed and restored by
        :meth:`pop_snapshot`.  Rewinding the header page also hides
        in-flight allocations and schema changes: snapshot readers
        navigate from the committed catalog root, which references only
        committed pages.  Writes are forbidden while the view is active.
        """
        if self._snapshot_saved is not None:
            raise DatabaseError("snapshot view already active")
        saved: dict[int, bytes] = {}
        for pno in self._dirty:
            saved[pno] = bytes(self._pages[pno])
            self._pages[pno][:] = self._snapshots[pno]
        self._snapshot_saved = saved

    def pop_snapshot(self) -> None:
        """Restore the dirty images stashed by :meth:`push_snapshot`."""
        if self._snapshot_saved is None:
            raise DatabaseError("no snapshot view active")
        for pno, image in self._snapshot_saved.items():
            self._pages[pno][:] = image
        self._snapshot_saved = None

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------

    def page_image(self, pno: int) -> bytes:
        """Copy of the current DRAM image (no CPU charge; used by
        checkpointing, which charges block I/O instead)."""
        page = self._pages.get(pno)
        if page is not None:
            return bytes(page)
        return self._read_from_file(pno)

    def drop_cache(self) -> None:
        """Forget all cached pages (crash simulation helper)."""
        if self._in_txn:
            raise DatabaseError("cannot drop cache mid-transaction")
        self._pages.clear()
