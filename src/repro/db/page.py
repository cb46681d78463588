"""Slotted 4 KB B-tree pages, SQLite-style.

Layout (all little-endian)::

    0   page_type   u8    LEAF (13) or INTERIOR (5)
    1   flags       u8    unused
    2   n_cells     u16
    4   content_start u16 lowest offset of cell content
    6   frag_bytes  u16   unused (kept for layout fidelity)
    8   aux         u32   right-most child (interior) / next leaf (leaf)
    12  slot array        u16 cell offsets, one per cell, key-ordered

Cell content grows downward from the end of the usable area; the slot array
grows upward after the header — the same shape as SQLite, which matters for
the differential-logging evaluation:

* an **insert** appends a cell to the content area and a slot pointer, so
  the changed bytes cluster in small regions;
* a **delete** (or size-changing update) compacts the content area to avoid
  fragmentation, shifting every cell below the removed one — the paper's
  explanation for why delete/update gain less from byte-granularity logging
  than insert does (Section 5.2).

The *early-split* reserve keeps the trailing 24 bytes of every page free so
a WAL frame header plus page fits exactly in one filesystem block
(Section 5.4's optimization).  The WAL backend decides it
(``WalBackend.early_split``: NVWAL and the optimized file WAL keep it, the
stock file WAL and the rollback journal do not) and the pager applies it.
"""

from __future__ import annotations

import struct

from repro.errors import PageError

PAGE_TYPE_LEAF = 13
PAGE_TYPE_INTERIOR = 5

HEADER_SIZE = 12
SLOT_SIZE = 2

_LEAF_CELL_HEADER = struct.Struct("<qHB")  # key, payload length, flags
_INTERIOR_CELL = struct.Struct("<qI")  # key, child page number
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
# Readers of a page image, for SlottedPage and for the B-tree's read walk,
# which reads page images without building a view.
read_u16 = _U16.unpack_from
read_u32 = _U32.unpack_from
read_key = struct.Struct("<q").unpack_from
read_leaf_header = _LEAF_CELL_HEADER.unpack_from
LEAF_CELL_HEADER_SIZE = _LEAF_CELL_HEADER.size

#: Leaf-cell flag: the payload is an overflow stub
#: (first overflow page u32 + total length u32), not the value itself.
CELL_FLAG_OVERFLOW = 0x01


def find_cell(data: bytearray, key: int) -> tuple[int, int]:
    """Binary search of a page image: the insertion index of ``key``, and
    the content offset of the cell holding it (-1: none)."""
    # Every probed slot lies in [0, n_cells), so the range check
    # cell_offset() makes for outside callers is not repeated here.
    lo, hi = 0, read_u16(data, 2)[0]
    while lo < hi:
        mid = (lo + hi) // 2
        offset = read_u16(data, HEADER_SIZE + SLOT_SIZE * mid)[0]
        mid_key = read_key(data, offset)[0]
        if mid_key < key:
            lo = mid + 1
        elif mid_key > key:
            hi = mid
        else:
            return mid, offset
    return lo, -1


class SlottedPage:
    """A typed view over one page buffer.

    The buffer is owned by the pager; this class only interprets and
    mutates it.
    """

    __slots__ = ("data", "usable_size")

    def __init__(self, data: bytearray, usable_size: int | None = None):
        if usable_size is None:
            usable_size = len(data)
        if usable_size > len(data):
            raise PageError("usable size exceeds buffer size")
        self.data = data
        self.usable_size = usable_size

    # ------------------------------------------------------------------
    # initialization
    # ------------------------------------------------------------------

    @classmethod
    def init_leaf(cls, data: bytearray, usable_size: int | None = None) -> "SlottedPage":
        """Format ``data`` as an empty leaf page."""
        page = cls(data, usable_size)
        page._format(PAGE_TYPE_LEAF)
        return page

    @classmethod
    def init_interior(
        cls, data: bytearray, usable_size: int | None = None
    ) -> "SlottedPage":
        """Format ``data`` as an empty interior page."""
        page = cls(data, usable_size)
        page._format(PAGE_TYPE_INTERIOR)
        return page

    def _format(self, page_type: int) -> None:
        self.data[0] = page_type
        self.data[1] = 0
        self._set_n_cells(0)
        self._set_content_start(self.usable_size)
        _U16.pack_into(self.data, 6, 0)
        _U32.pack_into(self.data, 8, 0)

    # ------------------------------------------------------------------
    # header accessors
    # ------------------------------------------------------------------

    @property
    def page_type(self) -> int:
        """LEAF or INTERIOR."""
        return self.data[0]

    @property
    def is_leaf(self) -> bool:
        """Whether this is a leaf page."""
        return self.data[0] == PAGE_TYPE_LEAF

    @property
    def n_cells(self) -> int:
        """Number of cells on the page."""
        return read_u16(self.data, 2)[0]

    def _set_n_cells(self, n: int) -> None:
        _U16.pack_into(self.data, 2, n)

    @property
    def content_start(self) -> int:
        """Lowest offset of cell content."""
        return read_u16(self.data, 4)[0]

    def _set_content_start(self, offset: int) -> None:
        _U16.pack_into(self.data, 4, offset)

    @property
    def aux(self) -> int:
        """Right-most child (interior) or next-leaf pointer (leaf)."""
        return read_u32(self.data, 8)[0]

    @aux.setter
    def aux(self, value: int) -> None:
        _U32.pack_into(self.data, 8, value)

    # ------------------------------------------------------------------
    # slots
    # ------------------------------------------------------------------

    def _slot_offset(self, index: int) -> int:
        return HEADER_SIZE + SLOT_SIZE * index

    def cell_offset(self, index: int) -> int:
        """Content offset of cell ``index``."""
        data = self.data
        n = read_u16(data, 2)[0]
        if not 0 <= index < n:
            raise PageError(f"slot index {index} out of range (n={n})")
        return read_u16(data, HEADER_SIZE + SLOT_SIZE * index)[0]

    def free_space(self) -> int:
        """Bytes available for one more cell plus its slot."""
        data = self.data
        return read_u16(data, 4)[0] - (
            HEADER_SIZE + SLOT_SIZE * read_u16(data, 2)[0]
        )

    # ------------------------------------------------------------------
    # cell accessors
    # ------------------------------------------------------------------

    def cell_key(self, index: int) -> int:
        """Key of cell ``index``."""
        return read_key(self.data, self.cell_offset(index))[0]

    def leaf_cell(self, index: int) -> tuple[int, bytes, int]:
        """``(key, payload, flags)`` of leaf cell ``index`` off one header
        decode (the payload is an overflow stub if flagged)."""
        self._require_leaf()
        offset = self.cell_offset(index)
        key, length, flags = read_leaf_header(self.data, offset)
        start = offset + _LEAF_CELL_HEADER.size
        return key, bytes(self.data[start : start + length]), flags

    def leaf_payload(self, index: int) -> bytes:
        """Payload of leaf cell ``index`` (an overflow stub if flagged)."""
        return self.leaf_cell(index)[1]

    def leaf_flags(self, index: int) -> int:
        """Flags byte of leaf cell ``index``."""
        self._require_leaf()
        return read_leaf_header(self.data, self.cell_offset(index))[2]

    def interior_child(self, index: int) -> int:
        """Child page number of interior cell ``index``."""
        self._require_interior()
        offset = self.cell_offset(index)
        _key, child = _INTERIOR_CELL.unpack_from(self.data, offset)
        return child

    def keys(self) -> list[int]:
        """All keys in slot order."""
        return [self.cell_key(i) for i in range(self.n_cells)]

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def find(self, key: int) -> tuple[int, bool]:
        """Binary search: (insertion index, exact match?)."""
        index, offset = find_cell(self.data, key)
        return index, offset >= 0

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def leaf_cell_size(self, payload_len: int) -> int:
        """Bytes one leaf cell of ``payload_len`` occupies (without slot)."""
        return _LEAF_CELL_HEADER.size + payload_len

    def can_fit(self, cell_size: int) -> bool:
        """Whether a cell of ``cell_size`` bytes plus its slot fits."""
        return self.free_space() >= cell_size + SLOT_SIZE

    def insert_leaf_cell(self, key: int, payload: bytes, flags: int = 0) -> None:
        """Insert a (key, payload) cell, keeping slots key-ordered."""
        self._require_leaf()
        cell_size = self.leaf_cell_size(len(payload))
        self._check_fit(cell_size)
        index, exact = self.find(key)
        if exact:
            raise PageError(f"duplicate key {key} on page")
        offset = self.content_start - cell_size
        _LEAF_CELL_HEADER.pack_into(self.data, offset, key, len(payload), flags)
        self.data[
            offset + _LEAF_CELL_HEADER.size : offset + cell_size
        ] = payload
        self._insert_slot(index, offset)
        self._set_content_start(offset)

    def insert_interior_cell(self, key: int, child: int) -> None:
        """Insert a (key, child) routing cell."""
        self._require_interior()
        cell_size = _INTERIOR_CELL.size
        self._check_fit(cell_size)
        index, exact = self.find(key)
        if exact:
            raise PageError(f"duplicate separator key {key}")
        offset = self.content_start - cell_size
        _INTERIOR_CELL.pack_into(self.data, offset, key, child)
        self._insert_slot(index, offset)
        self._set_content_start(offset)

    def delete_cell(self, index: int) -> None:
        """Remove cell ``index`` and compact the content area.

        Compaction shifts every cell stored below the removed one upward —
        deliberately matching SQLite's anti-fragmentation behaviour, which
        is what makes deletes dirty a large portion of the page.
        """
        removed_offset = self.cell_offset(index)
        removed_size = self._cell_size_at(removed_offset)
        # remove the slot
        n = self.n_cells
        slots_start = self._slot_offset(index)
        slots_end = self._slot_offset(n)
        self.data[slots_start : slots_end - SLOT_SIZE] = self.data[
            slots_start + SLOT_SIZE : slots_end
        ]
        self._set_n_cells(n - 1)
        # compact: move [content_start, removed_offset) up by removed_size
        cs = self.content_start
        if removed_offset > cs:
            self.data[cs + removed_size : removed_offset + removed_size] = self.data[
                cs:removed_offset
            ]
        self._set_content_start(cs + removed_size)
        # fix slot offsets of cells that moved
        data = self.data
        for slot in range(HEADER_SIZE, slots_end - SLOT_SIZE, SLOT_SIZE):
            offset = read_u16(data, slot)[0]
            if offset < removed_offset:
                _U16.pack_into(data, slot, offset + removed_size)

    def update_leaf_payload(
        self, index: int, payload: bytes, flags: int = 0
    ) -> None:
        """Replace the payload of leaf cell ``index``.

        Same-size payloads are overwritten in place; size changes go
        through delete + insert (and therefore compaction).
        """
        self._require_leaf()
        offset = self.cell_offset(index)
        key, old_len, _old_flags = _LEAF_CELL_HEADER.unpack_from(self.data, offset)
        if len(payload) == old_len:
            _LEAF_CELL_HEADER.pack_into(
                self.data, offset, key, old_len, flags
            )
            start = offset + _LEAF_CELL_HEADER.size
            self.data[start : start + old_len] = payload
            return
        # Fit check before any mutation: after removing the old cell the
        # free space grows by its size (the slot is reused).
        if self.free_space() + self.leaf_cell_size(old_len) < self.leaf_cell_size(
            len(payload)
        ):
            raise PageError("updated payload does not fit")
        self.delete_cell(index)
        self.insert_leaf_cell(key, payload, flags)

    def replace_interior_child(self, index: int, child: int) -> None:
        """Re-point interior cell ``index`` at a different child."""
        self._require_interior()
        offset = self.cell_offset(index)
        key, _old = _INTERIOR_CELL.unpack_from(self.data, offset)
        _INTERIOR_CELL.pack_into(self.data, offset, key, child)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _insert_slot(self, index: int, offset: int) -> None:
        n = self.n_cells
        slots_start = self._slot_offset(index)
        slots_end = self._slot_offset(n)
        self.data[slots_start + SLOT_SIZE : slots_end + SLOT_SIZE] = self.data[
            slots_start:slots_end
        ]
        _U16.pack_into(self.data, slots_start, offset)
        self._set_n_cells(n + 1)

    def _cell_size_at(self, offset: int) -> int:
        if self.is_leaf:
            _key, length, _flags = _LEAF_CELL_HEADER.unpack_from(
                self.data, offset
            )
            return _LEAF_CELL_HEADER.size + length
        return _INTERIOR_CELL.size

    def _check_fit(self, cell_size: int) -> None:
        if not self.can_fit(cell_size):
            raise PageError(
                f"cell of {cell_size} bytes does not fit "
                f"({self.free_space()} free)"
            )

    def _require_leaf(self) -> None:
        if self.data[0] != PAGE_TYPE_LEAF:
            raise PageError("operation requires a leaf page")

    def _require_interior(self) -> None:
        if self.data[0] == PAGE_TYPE_LEAF:
            raise PageError("operation requires an interior page")

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "interior"
        return f"SlottedPage({kind}, n_cells={self.n_cells}, free={self.free_space()})"
