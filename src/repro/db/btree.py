"""B+tree over the pager, SQLite-flavoured.

* Fixed root page number (the root never moves; it changes type when the
  tree grows), so catalog entries stay valid — as in SQLite.
* Leaf pages are chained through their ``aux`` pointer for range scans.
* Interior cell ``(key, child)`` routes keys ``<= key`` to ``child``; the
  ``aux`` pointer holds the right-most child.
* Split policy: cells are redistributed by byte count; with ``early_split``
  the usable page size excludes the trailing 24 bytes (Section 5.4).
* No eager merge on underflow (SQLite's lazy balance; empty leaves are
  freed, other underflows persist until vacuum — documented simplification).
"""

from __future__ import annotations

import struct

from repro.db.page import (
    CELL_FLAG_OVERFLOW,
    HEADER_SIZE,
    LEAF_CELL_HEADER_SIZE,
    PAGE_TYPE_LEAF,
    SLOT_SIZE,
    SlottedPage,
    find_cell,
    read_leaf_header,
    read_u16,
    read_u32,
)
from repro.db.pager import Pager
from repro.errors import DuplicateKey, KeyNotFound, PageError

# Overflow page layout: next page u32 | data length u16 | data bytes.
_OVERFLOW_HEADER = struct.Struct("<IH")
_OVERFLOW_STUB = struct.Struct("<II")  # first overflow page, total length

_CHILD_AT = 8  # an interior cell's child follows its key; the header's aux
#: Above every 64-bit key: an open upper bound.
_NO_UPPER_BOUND = 2**63


class BTree:
    """One B+tree (a table or the catalog) identified by its root page."""

    def __init__(self, pager: Pager, root: int) -> None:
        self.pager = pager
        self.root = root

    # ------------------------------------------------------------------
    # creation
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, pager: Pager) -> "BTree":
        """Allocate a new empty tree; returns it with its root page set."""
        root = pager.allocate_page()
        SlottedPage.init_leaf(pager.get_page(root), pager.usable_size)
        return cls(pager, root)

    def _page(self, pno: int) -> SlottedPage:
        return SlottedPage(self.pager.get_page(pno), self.pager.usable_size)

    def max_payload(self) -> int:
        """Largest payload stored inline in a leaf cell (quarter page,
        like SQLite's minimum-fanout rule); bigger values spill into
        overflow page chains."""
        return self.pager.usable_size // 4

    # ------------------------------------------------------------------
    # overflow chains
    # ------------------------------------------------------------------

    def _overflow_capacity(self) -> int:
        return self.pager.usable_size - _OVERFLOW_HEADER.size

    def _write_overflow_chain(self, payload: bytes) -> bytes:
        """Spill ``payload`` into overflow pages; return the 8-byte stub."""
        capacity = self._overflow_capacity()
        chunks = [
            payload[i : i + capacity] for i in range(0, len(payload), capacity)
        ]
        next_pno = 0
        for chunk in reversed(chunks):
            pno = self.pager.allocate_page()
            page = self.pager.get_page(pno)
            _OVERFLOW_HEADER.pack_into(page, 0, next_pno, len(chunk))
            page[
                _OVERFLOW_HEADER.size : _OVERFLOW_HEADER.size + len(chunk)
            ] = chunk
            next_pno = pno
        return _OVERFLOW_STUB.pack(next_pno, len(payload))

    def _read_overflow_chain(self, stub: bytes) -> bytes:
        """Reassemble a spilled payload from its stub."""
        pno, total = _OVERFLOW_STUB.unpack(stub)
        parts = []
        while pno:
            page = self.pager.get_page(pno)
            pno, length = _OVERFLOW_HEADER.unpack_from(page, 0)
            parts.append(
                bytes(page[_OVERFLOW_HEADER.size : _OVERFLOW_HEADER.size + length])
            )
        data = b"".join(parts)
        if len(data) != total:
            raise PageError(
                f"overflow chain length mismatch: {len(data)} != {total}"
            )
        return data

    def _free_overflow_chain(self, stub: bytes) -> None:
        pno, _total = _OVERFLOW_STUB.unpack(stub)
        while pno:
            page = self.pager.get_page(pno)
            next_pno, _length = _OVERFLOW_HEADER.unpack_from(page, 0)
            self.pager.free_page(pno)
            pno = next_pno

    def _release_cell(self, leaf: SlottedPage, index: int) -> None:
        """Free any overflow chain a cell owns (before dropping the cell)."""
        if leaf.leaf_flags(index) & CELL_FLAG_OVERFLOW:
            self._free_overflow_chain(leaf.leaf_payload(index))

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    #
    # Every page visit is one ``Pager.get_page`` call, looked up on the
    # pager at each call (so a wrapper installed at run time sees it), in
    # the order the visits have always had: the descent visits the leaf,
    # and ``get`` / ``scan`` then visit it a second time to read it.

    def get(self, key: int) -> bytes | None:
        """Return the payload stored under ``key``, or None."""
        pno = self._descend_to_leaf(key)
        page = self.pager.get_page(pno)
        _index, offset = find_cell(page, key)
        if offset < 0:
            return None
        _key, length, flags = read_leaf_header(page, offset)
        start = offset + LEAF_CELL_HEADER_SIZE
        payload = bytes(page[start : start + length])
        if flags & CELL_FLAG_OVERFLOW:
            return self._read_overflow_chain(payload)
        return payload

    def _descend_to_leaf(self, key: int) -> int:
        """The leaf ``key`` routes to.  Any type byte but LEAF's is read
        as an interior page, as a ``SlottedPage`` view reads it."""
        get_page = self.pager.get_page
        pno = self.root
        page = get_page(pno)
        while page[0] != PAGE_TYPE_LEAF:
            index, offset = find_cell(page, key)
            if offset < 0:
                # The first cell with a larger key, else the right-most
                # child: offset 0 puts _CHILD_AT on the header's aux.
                offset = (
                    0
                    if index == read_u16(page, 2)[0]
                    else read_u16(page, HEADER_SIZE + SLOT_SIZE * index)[0]
                )
            pno = read_u32(page, offset + _CHILD_AT)[0]
            page = get_page(pno)
        return pno

    def scan(self, lo: int | None = None, hi: int | None = None):
        """Yield (key, payload) for lo <= key <= hi, in key order."""
        start = lo if lo is not None else -(2**63)
        if hi is None:
            hi = _NO_UPPER_BOUND
        pno = self._descend_to_leaf(start)
        get_page = self.pager.get_page
        page = get_page(pno)
        index = find_cell(page, start)[0] if lo is not None else 0
        while True:
            n_cells = read_u16(page, 2)[0]
            if index < n_cells and page[0] != PAGE_TYPE_LEAF:
                raise PageError("operation requires a leaf page")
            for slot in range(
                HEADER_SIZE + SLOT_SIZE * index,
                HEADER_SIZE + SLOT_SIZE * n_cells,
                SLOT_SIZE,
            ):
                offset = read_u16(page, slot)[0]
                key, length, flags = read_leaf_header(page, offset)
                if key > hi:
                    return
                offset += LEAF_CELL_HEADER_SIZE
                payload = bytes(page[offset : offset + length])
                if flags & CELL_FLAG_OVERFLOW:
                    payload = self._read_overflow_chain(payload)
                yield key, payload
            pno = read_u32(page, 8)[0]
            if not pno:
                return
            page = get_page(pno)
            index = 0

    def count(self) -> int:
        """Number of rows in the tree."""
        return sum(1 for _ in self.scan())

    def min_key(self) -> int | None:
        """Smallest key, or None if empty."""
        for key, _payload in self.scan():
            return key
        return None

    def max_key(self) -> int | None:
        """Largest key, or None if empty (walks the right spine)."""
        page = self._page(self.root)
        while not page.is_leaf:
            page = self._page(page.aux)
        # Rightmost leaf may be empty after deletes; fall back to a scan.
        if page.n_cells:
            return page.cell_key(page.n_cells - 1)
        result = None
        for key, _payload in self.scan():
            result = key
        return result

    # ------------------------------------------------------------------
    # insert
    # ------------------------------------------------------------------

    def insert(self, key: int, payload: bytes, replace: bool = False) -> None:
        """Insert ``payload`` under ``key``.

        Payloads beyond the inline limit spill into an overflow page
        chain.  With ``replace`` an existing row is overwritten (UPSERT);
        otherwise a duplicate raises :class:`DuplicateKey`.
        """
        stored, flags = self._spill_if_needed(payload)
        try:
            split = self._insert_rec(self.root, key, stored, replace, flags)
        except DuplicateKey:
            # The chain is written before the duplicate is discovered;
            # reclaim it or the pages leak (visible to page accounting).
            if flags & CELL_FLAG_OVERFLOW:
                self._free_overflow_chain(stored)
            raise
        if split is not None:
            self._grow_root(*split)

    def _spill_if_needed(self, payload: bytes) -> tuple[bytes, int]:
        if len(payload) <= self.max_payload():
            return payload, 0
        return self._write_overflow_chain(payload), CELL_FLAG_OVERFLOW

    def _insert_rec(
        self, pno: int, key: int, payload: bytes, replace: bool, flags: int = 0
    ) -> tuple[int, int] | None:
        """Insert under ``pno``; return (separator, new_right_pno) if the
        page split, else None."""
        page = self._page(pno)
        if page.is_leaf:
            return self._leaf_insert(pno, key, payload, replace, flags)
        index, exact = page.find(key)
        child = page.interior_child(index) if index < page.n_cells else page.aux
        split = self._insert_rec(child, key, payload, replace, flags)
        if split is None:
            return None
        sep, right = split
        # The old reference to ``child`` must now route to ``right``
        # (keys above the separator), and a new cell (sep, child) is added.
        self.pager.mark_dirty(pno)
        if index < page.n_cells:
            page.replace_interior_child(index, right)
        else:
            page.aux = right
        if page.can_fit(12):
            page.insert_interior_cell(sep, child)
            return None
        return self._interior_split_insert(pno, sep, child)

    def _leaf_insert(
        self, pno: int, key: int, payload: bytes, replace: bool, flags: int
    ) -> tuple[int, int] | None:
        leaf = self._page(pno)
        index, exact = leaf.find(key)
        if exact:
            if not replace:
                raise DuplicateKey(f"key {key} already exists")
            self.pager.mark_dirty(pno)
            self._release_cell(leaf, index)
            try:
                leaf.update_leaf_payload(index, payload, flags)
                return None
            except PageError:
                # Does not fit even after dropping the old cell: remove it
                # and fall through to a fresh (possibly splitting) insert.
                leaf.delete_cell(index)
        cell_size = leaf.leaf_cell_size(len(payload))
        if leaf.can_fit(cell_size):
            self.pager.mark_dirty(pno)
            leaf.insert_leaf_cell(key, payload, flags)
            return None
        return self._leaf_split_insert(pno, key, payload, flags)

    def _leaf_split_insert(
        self, pno: int, key: int, payload: bytes, flags: int
    ) -> tuple[int, int]:
        """Split leaf ``pno`` and insert (key, payload) into the proper half."""
        self.pager.mark_dirty(pno)
        left = self._page(pno)
        cells = [left.leaf_cell(i) for i in range(left.n_cells)]
        cells.append((key, payload, flags))
        cells.sort(key=lambda c: c[0])
        split_at = _byte_split_point(
            [left.leaf_cell_size(len(p)) + SLOT_SIZE for _k, p, _f in cells]
        )
        right_pno = self.pager.allocate_page()
        right = SlottedPage.init_leaf(
            self.pager.get_page(right_pno), self.pager.usable_size
        )
        old_next = left.aux
        left_data = self.pager.get_page(pno)
        SlottedPage.init_leaf(left_data, self.pager.usable_size)
        left = SlottedPage(left_data, self.pager.usable_size)
        for k, p, f in cells[:split_at]:
            left.insert_leaf_cell(k, p, f)
        for k, p, f in cells[split_at:]:
            right.insert_leaf_cell(k, p, f)
        right.aux = old_next
        left.aux = right_pno
        separator = left.cell_key(left.n_cells - 1)
        return separator, right_pno

    def _interior_split_insert(
        self, pno: int, pending_key: int, pending_child: int
    ) -> tuple[int, int]:
        """Split interior ``pno`` (which could not fit the pending cell)."""
        self.pager.mark_dirty(pno)
        page = self._page(pno)
        cells = [
            (page.cell_key(i), page.interior_child(i)) for i in range(page.n_cells)
        ]
        cells.append((pending_key, pending_child))
        cells.sort(key=lambda c: c[0])
        old_aux = page.aux
        mid = len(cells) // 2
        sep, sep_child = cells[mid]
        right_pno = self.pager.allocate_page()
        right = SlottedPage.init_interior(
            self.pager.get_page(right_pno), self.pager.usable_size
        )
        page_data = self.pager.get_page(pno)
        SlottedPage.init_interior(page_data, self.pager.usable_size)
        left = SlottedPage(page_data, self.pager.usable_size)
        for k, c in cells[:mid]:
            left.insert_interior_cell(k, c)
        left.aux = sep_child
        for k, c in cells[mid + 1 :]:
            right.insert_interior_cell(k, c)
        right.aux = old_aux
        return sep, right_pno

    def _grow_root(self, sep: int, right: int) -> None:
        """The root split: move its content to a new child, keep root pno."""
        self.pager.mark_dirty(self.root)
        root_data = self.pager.get_page(self.root)
        left_pno = self.pager.allocate_page()
        left_data = self.pager.get_page(left_pno)
        left_data[:] = root_data
        new_root = SlottedPage.init_interior(root_data, self.pager.usable_size)
        new_root.insert_interior_cell(sep, left_pno)
        new_root.aux = right

    # ------------------------------------------------------------------
    # update / delete
    # ------------------------------------------------------------------

    def update(self, key: int, payload: bytes) -> None:
        """Replace the payload under ``key``; raises KeyNotFound."""
        pno = self._descend_to_leaf(key)
        leaf = self._page(pno)
        index, exact = leaf.find(key)
        if not exact:
            raise KeyNotFound(f"key {key} not found")
        self.pager.mark_dirty(pno)
        self._release_cell(leaf, index)
        stored, flags = self._spill_if_needed(payload)
        old_len = len(leaf.leaf_payload(index))
        fits_in_place = (
            len(stored) == old_len
            or leaf.free_space() + leaf.leaf_cell_size(old_len)
            >= leaf.leaf_cell_size(len(stored))
        )
        if fits_in_place:
            leaf.update_leaf_payload(index, stored, flags)
            return
        leaf.delete_cell(index)
        split = self._insert_rec(self.root, key, stored, False, flags)
        if split is not None:
            self._grow_root(*split)

    def delete(self, key: int) -> None:
        """Delete ``key``; raises KeyNotFound if absent.

        An emptied non-root leaf is unlinked from its parent and freed
        (its slot in the leaf chain is bypassed by the scan, which simply
        follows ``aux`` pointers of remaining leaves)."""
        path: list[tuple[int, int]] = []  # (pno, child index or -1 for aux)
        pno = self.root
        page = self._page(pno)
        while not page.is_leaf:
            index, exact = page.find(key)
            if index < page.n_cells:
                path.append((pno, index))
                pno = page.interior_child(index)
            else:
                path.append((pno, -1))
                pno = page.aux
            page = self._page(pno)
        index, exact = page.find(key)
        if not exact:
            raise KeyNotFound(f"key {key} not found")
        self.pager.mark_dirty(pno)
        self._release_cell(page, index)
        page.delete_cell(index)
        if page.n_cells == 0 and pno != self.root and path:
            self._unlink_empty_leaf(pno, path)

    def _unlink_empty_leaf(self, leaf_pno: int, path: list[tuple[int, int]]) -> None:
        """Remove an empty leaf from its parent and repair the leaf chain."""
        parent_pno, child_index = path[-1]
        parent = self._page(parent_pno)
        leaf = self._page(leaf_pno)
        next_leaf = leaf.aux
        prev = self._find_prev_leaf(leaf_pno)
        self.pager.mark_dirty(parent_pno)
        if child_index == -1:
            # Leaf was the right-most child: promote the last cell's child.
            if parent.n_cells == 0:
                return  # degenerate parent; leave the empty leaf in place
            last = parent.n_cells - 1
            parent.aux = parent.interior_child(last)
            parent.delete_cell(last)
        else:
            parent.delete_cell(child_index)
        if prev is not None:
            self.pager.mark_dirty(prev)
            SlottedPage(self.pager.get_page(prev), self.pager.usable_size).aux = (
                next_leaf
            )
        self.pager.free_page(leaf_pno)

    def _find_prev_leaf(self, target: int) -> int | None:
        """Walk the leaf chain from the leftmost leaf to find the
        predecessor of ``target`` (None if target is the first leaf)."""
        pno = self.root
        page = self._page(pno)
        while not page.is_leaf:
            pno = page.interior_child(0) if page.n_cells else page.aux
            page = self._page(pno)
        if pno == target:
            return None
        while pno:
            page = self._page(pno)
            if page.aux == target:
                return pno
            pno = page.aux
        return None

    # ------------------------------------------------------------------
    # whole-tree teardown (DROP TABLE)
    # ------------------------------------------------------------------

    def free_all(self) -> None:
        """Release every page of the tree, overflow chains included."""
        self._free_rec(self.root)

    def _free_rec(self, pno: int) -> None:
        page = self._page(pno)
        if page.is_leaf:
            for i in range(page.n_cells):
                self._release_cell(page, i)
        else:
            for i in range(page.n_cells):
                self._free_rec(page.interior_child(i))
            self._free_rec(page.aux)
        self.pager.free_page(pno)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify ordering and routing invariants; raise PageError on
        violation.  Used heavily by property-based tests."""
        self._check_rec(self.root, None, None)
        keys = [k for k, _ in self.scan()]
        if keys != sorted(keys):
            raise PageError("leaf chain out of order")
        if len(keys) != len(set(keys)):
            raise PageError("duplicate keys in leaf chain")

    def _check_rec(self, pno: int, lo: int | None, hi: int | None) -> None:
        page = self._page(pno)
        keys = page.keys()
        if keys != sorted(keys):
            raise PageError(f"page {pno}: keys out of order")
        for key in keys:
            if lo is not None and key <= lo:
                raise PageError(f"page {pno}: key {key} <= lower bound {lo}")
            if hi is not None and key > hi:
                raise PageError(f"page {pno}: key {key} > upper bound {hi}")
        if page.is_leaf:
            return
        bound = lo
        for i in range(page.n_cells):
            self._check_rec(page.interior_child(i), bound, page.cell_key(i))
            bound = page.cell_key(i)
        self._check_rec(page.aux, bound, hi)

    def pages(self):
        """Yield every page number the tree owns — interior, leaf, and
        overflow-chain pages — each exactly once.  Page-accounting checks
        partition the file into tree pages, freelist pages, and the
        header; anything unclaimed is a leak."""
        yield from self._pages_rec(self.root)

    def _pages_rec(self, pno: int):
        yield pno
        page = self._page(pno)
        if page.is_leaf:
            for i in range(page.n_cells):
                if page.leaf_flags(i) & CELL_FLAG_OVERFLOW:
                    opno, _total = _OVERFLOW_STUB.unpack(page.leaf_payload(i))
                    while opno:
                        yield opno
                        opno, _length = _OVERFLOW_HEADER.unpack_from(
                            self.pager.get_page(opno), 0
                        )
        else:
            for i in range(page.n_cells):
                yield from self._pages_rec(page.interior_child(i))
            yield from self._pages_rec(page.aux)

    def depth(self) -> int:
        """Height of the tree (1 = root is a leaf)."""
        depth = 1
        page = self._page(self.root)
        while not page.is_leaf:
            depth += 1
            pno = page.interior_child(0) if page.n_cells else page.aux
            page = self._page(pno)
        return depth


def _byte_split_point(sizes: list[int]) -> int:
    """Index that splits ``sizes`` into two roughly equal byte halves,
    keeping at least one cell on each side."""
    total = sum(sizes)
    acc = 0
    for i, size in enumerate(sizes):
        acc += size
        if acc >= total // 2:
            return min(max(i + 1, 1), len(sizes) - 1)
    return len(sizes) - 1
