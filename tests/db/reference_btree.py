"""The B-tree read walk as it was before it was tuned for the host.

:class:`ReferenceBTree` looks rows up with the straightforward code the
product replaced: every page visit builds a :class:`SlottedPage` view and
asks it ``is_leaf``, ``n_cells``, ``leaf_cell`` and ``aux`` one call at a
time, and searches it with the binary search and the ``child_for`` routing
``SlottedPage`` had (kept here, so the oracle shares no search code with
the product).  ``test_btree_walk_equivalence.py`` holds the product's
``get`` and ``scan`` to it: the same rows, the same ``Pager.get_page`` page
numbers in the same order, the same exception on a corrupt page.
"""

from __future__ import annotations

import struct

from repro.db.btree import BTree
from repro.db.page import (
    CELL_FLAG_OVERFLOW,
    HEADER_SIZE,
    SLOT_SIZE,
    SlottedPage,
)

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_KEY = struct.Struct("<q")
_INTERIOR_CELL = struct.Struct("<qI")  # key, child page number


def find(page: SlottedPage, key: int) -> tuple[int, bool]:
    """Binary search: (insertion index, exact match?)."""
    data = page.data
    lo, hi = 0, _U16.unpack_from(data, 2)[0]
    while lo < hi:
        mid = (lo + hi) // 2
        mid_key = _KEY.unpack_from(
            data, _U16.unpack_from(data, HEADER_SIZE + SLOT_SIZE * mid)[0]
        )[0]
        if mid_key < key:
            lo = mid + 1
        elif mid_key > key:
            hi = mid
        else:
            return mid, True
    return lo, False


def child_for(page: SlottedPage, key: int) -> int:
    """The child page an interior page routes ``key`` to: the first cell
    with ``key <= cell key``, else the right-most child."""
    page._require_interior()
    index, _exact = find(page, key)
    data = page.data
    if index == _U16.unpack_from(data, 2)[0]:
        return _U32.unpack_from(data, 8)[0]
    offset = _U16.unpack_from(data, HEADER_SIZE + SLOT_SIZE * index)[0]
    return _INTERIOR_CELL.unpack_from(data, offset)[1]


class ReferenceBTree(BTree):
    """A BTree whose ``get`` and ``scan`` walk through ``SlottedPage``."""

    def _resolve(self, leaf: SlottedPage, index: int) -> bytes:
        """Cell payload with overflow indirection resolved."""
        _key, payload, flags = leaf.leaf_cell(index)
        if flags & CELL_FLAG_OVERFLOW:
            return self._read_overflow_chain(payload)
        return payload

    def get(self, key: int) -> bytes | None:
        """Return the payload stored under ``key``, or None."""
        pno = self._reference_descend(key)
        leaf = self._page(pno)
        index, exact = find(leaf, key)
        if exact:
            return self._resolve(leaf, index)
        return None

    def _reference_descend(self, key: int) -> int:
        pno = self.root
        page = self._page(pno)
        while not page.is_leaf:
            pno = child_for(page, key)
            page = self._page(pno)
        return pno

    def scan(self, lo: int | None = None, hi: int | None = None):
        """Yield (key, payload) for lo <= key <= hi, in key order."""
        start = lo if lo is not None else -(2**63)
        pno = self._reference_descend(start)
        while pno:
            leaf = self._page(pno)
            index = find(leaf, start)[0] if lo is not None else 0
            lo = None  # only position within the first leaf
            for i in range(index, leaf.n_cells):
                key, payload, flags = leaf.leaf_cell(i)
                if hi is not None and key > hi:
                    return
                if flags & CELL_FLAG_OVERFLOW:
                    payload = self._read_overflow_chain(payload)
                yield key, payload
            pno = leaf.aux
