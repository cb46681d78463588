"""Heapo: the kernel-level NVRAM heap manager.

The paper layers NVWAL on Heapo [16], a heap-based persistent object store,
and extends it with two system calls (Section 3.3):

* ``nv_pre_malloc(size)`` — allocate a block and leave it in **pending**
  state: if the system crashes before the caller links the block into its
  own persistent structure, heap recovery reclaims it, preventing a leak;
* ``nv_malloc_set_used_flag(block)`` — flip pending → **in-use** once the
  caller has durably stored a reference to the block.

Heapo keeps its allocation metadata in a reserved region at the bottom of
the NVRAM device as fixed-size descriptor slots.  Being a kernel service, it
performs its own internal flushes and barriers to keep that metadata
failure-atomic; we model that by writing metadata *directly* to the durable
device and charging the (large) syscall costs from
:class:`repro.config.HeapoCosts` — the very overhead NVWAL's user-level heap
exists to avoid.

Named allocations act as the persistent namespace: after a reboot,
``lookup(name)`` finds the block again (requirement (ii) of Section 3.3).
"""

from __future__ import annotations

import bisect
import enum
import heapq
import re
import struct
from collections.abc import Container
from dataclasses import dataclass

from repro.errors import BadHandle, HeapStateError, MediaError, OutOfNvram
from repro.hw import stats as statnames
from repro.hw.cpu import Cpu
from repro.hw.memory import NvramDevice
from repro.hw.stats import TimeBucket

_MAGIC = 0x4845_4150_4F31_0001  # "HEAPO1"
_SUPERBLOCK_FMT = "<QII"  # magic, num_slots, heap_start
_SUPERBLOCK_SIZE = struct.calcsize(_SUPERBLOCK_FMT)

# state u8, pad 3, size u32, addr u64, name 16s  -> 32 bytes
_DESC_FMT = "<B3xIQ16s"
_DESC = struct.Struct(_DESC_FMT)
_DESC_SIZE = _DESC.size
#: Any non-zero byte: finds the descriptors that are not free by their
#: state byte.
_NONZERO = re.compile(rb"[^\x00]")

_DEFAULT_SLOTS = 4096


class BlockState(enum.IntEnum):
    """Tri-state flag of an NVRAM allocation (Section 3.3)."""

    FREE = 0
    PENDING = 1
    IN_USE = 2


#: The states a non-free descriptor may carry, by state byte.
_LIVE_STATES = {state.value: state for state in (BlockState.PENDING, BlockState.IN_USE)}


@dataclass(frozen=True)
class NvAllocation:
    """A live NVRAM allocation: its address range and descriptor slot."""

    slot: int
    addr: int
    size: int
    name: str = ""


class Heapo:
    """Kernel-level persistent heap over one :class:`NvramDevice`."""

    def __init__(self, cpu: Cpu, nvram: NvramDevice, num_slots: int = _DEFAULT_SLOTS):
        self.cpu = cpu
        self.nvram = nvram
        self.num_slots = num_slots
        self.metadata_size = _SUPERBLOCK_SIZE + num_slots * _DESC_SIZE
        self.heap_start = _align_up(self.metadata_size, 64)
        # Volatile mirror of the descriptor table, rebuilt by attach().
        self._slots: list[tuple[BlockState, int, int, str]] = []
        # Volatile indexes over _slots, kept in sync by _write_slot (the
        # single mutation point) and built wholesale by format()/attach():
        #   _by_addr: block start address -> slot (non-free slots only;
        #             addresses are unique because _find_gap never overlaps)
        #   _by_name: name -> set of non-free slots carrying it
        #   _live:    set of non-free slots
        #   _free_slots: min-heap of free slot indices (lazily deduped)
        #   _holes:   address-ordered maximal free extents (start, end) of
        #             the heap area — what first-fit walks
        self._by_addr: dict[int, int] = {}
        self._by_name: dict[str, set[int]] = {}
        self._live: set[int] = set()
        self._free_slots: list[int] = []
        self._holes: list[tuple[int, int]] = []
        # Whether some occupied extent overlaps another (or the metadata
        # area).  Allocation never produces that; descriptors decayed into
        # a plausible-but-wrong extent can.  Freeing such an extent need
        # not free its bytes, so the hole list is then re-derived instead
        # of patched.
        self._overlapping = False
        # Slots whose durable descriptor is corrupt or unreadable, mapped
        # to the (addr, size) extent they *may* still cover (None when the
        # extent itself is unknown).  Volatile-only: quarantined slots are
        # neither live nor free, and their extents are never handed out
        # again, so a decayed descriptor degrades to a leaked block
        # instead of a crash or silent data overlap.
        self._quarantined: dict[int, tuple[int, int] | None] = {}
        self._attach_or_format()

    # ------------------------------------------------------------------
    # formatting / attach / recovery
    # ------------------------------------------------------------------

    def _attach_or_format(self) -> None:
        try:
            raw = self.nvram.read(0, _SUPERBLOCK_SIZE)
        except MediaError:
            # Unreadable superblock: nothing below it can be trusted either,
            # so reinitialize.  Database state survives in the db file.
            self.format()
            return
        magic, num_slots, heap_start = struct.unpack(_SUPERBLOCK_FMT, raw)
        if magic == _MAGIC and num_slots == self.num_slots:
            self.heap_start = heap_start
            self.attach()
        else:
            self.format()

    def format(self) -> None:
        """Initialize an empty heap (destroys all allocations)."""
        self.nvram.persist(
            0, struct.pack(_SUPERBLOCK_FMT, _MAGIC, self.num_slots, self.heap_start)
        )
        empty = struct.pack(_DESC_FMT, BlockState.FREE, 0, 0, b"")
        self.nvram.persist(_SUPERBLOCK_SIZE, empty * self.num_slots)
        self._slots = [(BlockState.FREE, 0, 0, "")] * self.num_slots
        self._quarantined = {}
        # An all-free table indexes trivially; skip the attach() scan (it
        # dominated fresh-system setup in benchmarks).
        self._by_addr = {}
        self._by_name = {}
        self._live = set()
        self._free_slots = list(range(self.num_slots))
        self._rebuild_holes()

    def attach(self) -> None:
        """Rebuild the volatile allocator state from durable descriptors.

        Called at boot; corresponds to re-mapping the persistent namespace
        into the process address space.

        Media decay can corrupt a descriptor into an invalid tri-state
        value, an out-of-range extent, or an unreadable slot.  Such slots
        are *quarantined* (see ``_quarantined``) rather than crashing the
        boot: the block they covered is unusable, but every other
        allocation attaches normally.
        """
        num_slots = self.num_slots
        free = (BlockState.FREE, 0, 0, "")
        slots = self._slots = [free] * num_slots
        by_addr = self._by_addr = {}
        by_name = self._by_name = {}
        try:
            table = self.nvram.read(_SUPERBLOCK_SIZE, num_slots * _DESC_SIZE)
            unreadable = []
        except MediaError:
            # A poisoned unit somewhere in the table: fall back to
            # per-descriptor reads so one bad slot costs one slot.
            table, unreadable = self._read_table_by_descriptor()
        quarantined = self._quarantined = dict.fromkeys(unreadable)
        # Only slots with a non-zero state byte are decoded (a free slot's
        # payload is ignored): one regex pass over the state bytes finds
        # them, so the cost follows the live slots, not the table size.
        names: dict[bytes, str] = {}
        heap_start, device_size = self.heap_start, self.nvram.size
        for match in _NONZERO.finditer(table[::_DESC_SIZE]):
            i = match.start()
            state_b, size, addr, name_b = _DESC.unpack_from(table, i * _DESC_SIZE)
            state = _LIVE_STATES.get(state_b)
            if (
                state is None
                or size <= 0
                or size % 64
                or addr % 64
                or addr < heap_start
                or addr + size > device_size
                or addr in by_addr
            ):
                # Decayed into an invalid state or extent, or two
                # descriptors claiming one address (at least one is
                # decayed): keep the first, quarantine this.
                quarantined[i] = self._plausible_extent(addr, size)
                continue
            name = names.get(name_b)
            if name is None:
                name = names[name_b] = name_b.rstrip(b"\x00").decode("utf-8", "replace")
            slots[i] = (state, size, addr, name)
            by_addr[addr] = i
            by_name.setdefault(name, set()).add(i)
        self._live = set(by_addr.values())
        # Quarantined slots are neither live nor reusable.  The free slots
        # are the ranges between the taken ones, ascending — already a
        # valid heap.
        free_slots = self._free_slots = []
        low = 0
        for taken in sorted(self._live.union(quarantined)):
            free_slots.extend(range(low, taken))
            low = taken + 1
        free_slots.extend(range(low, num_slots))
        self._rebuild_holes()

    def _read_table_by_descriptor(self) -> tuple[bytearray, list[int]]:
        """The descriptor table read one descriptor at a time, with each
        unreadable descriptor left zero, and the unreadable slots."""
        table = bytearray(self.num_slots * _DESC_SIZE)
        unreadable = []
        for slot in range(self.num_slots):
            at = slot * _DESC_SIZE
            try:
                raw = self.nvram.read(_SUPERBLOCK_SIZE + at, _DESC_SIZE)
                table[at : at + _DESC_SIZE] = raw
            except MediaError:
                unreadable.append(slot)
        return table, unreadable

    def _plausible_extent(self, addr: int, size: int) -> tuple[int, int] | None:
        """The extent a corrupt descriptor may still cover, clamped to the
        device — kept out of the allocator so live data is never overlaid."""
        if 0 <= addr < self.nvram.size and size > 0:
            return (addr, min(size, self.nvram.size - addr))
        return None

    def quarantined_slots(self) -> list[int]:
        """Slots quarantined by the last :meth:`attach` (sorted)."""
        return sorted(self._quarantined)

    def _rebuild_holes(self) -> None:
        """Derive the hole list from the live and quarantined extents."""
        used = sorted(
            [
                (addr, addr + self._slots[slot][1])
                for addr, slot in self._by_addr.items()
            ]
            + [
                (extent[0], extent[0] + extent[1])
                for extent in self._quarantined.values()
                if extent is not None
            ]
        )
        holes = []
        self._overlapping = False
        cursor = self.heap_start
        for start, end in used:
            if start > cursor:
                holes.append((cursor, start))
            elif start < cursor:
                self._overlapping = True
            cursor = max(cursor, end)
        if cursor < self.nvram.size:
            holes.append((cursor, self.nvram.size))
        self._holes = holes

    def recover(self) -> list[int]:
        """Reclaim every **pending** block; return their addresses.

        This is the heap half of crash recovery (Section 4.3): a block left
        pending was allocated but never linked by its owner, so it is
        garbage.
        """
        reclaimed = []
        for slot in sorted(self._live):
            state, _size, addr, _name = self._slots[slot]
            if state is BlockState.PENDING:
                reclaimed.append(addr)
                self._write_slot(slot, BlockState.FREE, 0, 0, "")
        return reclaimed

    # ------------------------------------------------------------------
    # allocation API (the system calls)
    # ------------------------------------------------------------------

    def nvmalloc(self, size: int, name: str = "") -> NvAllocation:
        """Allocate an in-use block (the expensive stock path)."""
        self.cpu.compute(self.cpu.config.heapo.nvmalloc_ns, TimeBucket.HEAP)
        self.cpu.stats.count(statnames.NVMALLOC_CALLS)
        return self._allocate(size, BlockState.IN_USE, name)

    def nv_pre_malloc(self, size: int, name: str = "") -> NvAllocation:
        """Allocate a block in **pending** state (Section 3.3)."""
        self.cpu.compute(self.cpu.config.heapo.nv_pre_malloc_ns, TimeBucket.HEAP)
        self.cpu.stats.count(statnames.PRE_MALLOC_CALLS)
        return self._allocate(size, BlockState.PENDING, name)

    def nv_malloc_set_used_flag(self, alloc: NvAllocation) -> None:
        """Flip a pending block to **in-use** once its reference is durable."""
        self.cpu.compute(self.cpu.config.heapo.set_used_flag_ns, TimeBucket.HEAP)
        self.cpu.stats.count(statnames.SET_USED_CALLS)
        state, size, addr, name = self._slots[alloc.slot]
        if state is not BlockState.PENDING or addr != alloc.addr:
            raise HeapStateError(
                f"slot {alloc.slot} is {state.name}, cannot mark in-use"
            )
        self._write_slot(alloc.slot, BlockState.IN_USE, size, addr, name)

    def nvfree(self, alloc: NvAllocation) -> None:
        """Free a block (any non-free state)."""
        self.cpu.compute(self.cpu.config.heapo.nvfree_ns, TimeBucket.HEAP)
        self.cpu.stats.count(statnames.NVFREE_CALLS)
        state, _size, addr, _name = self._slots[alloc.slot]
        if state is BlockState.FREE or addr != alloc.addr:
            raise BadHandle(f"slot {alloc.slot} does not hold addr {alloc.addr}")
        self._write_slot(alloc.slot, BlockState.FREE, 0, 0, "")

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def lookup(self, name: str) -> NvAllocation | None:
        """Find a named allocation in the persistent namespace.

        Several allocations may share a name (NVWAL's log blocks all carry
        ``"nvwal-blk"``); like the descriptor-table scan this replaces, the
        lowest occupied slot wins.
        """
        slots = self._by_name.get(name)
        if not slots:
            return None
        slot = min(slots)
        _state, size, addr, _name = self._slots[slot]
        return NvAllocation(slot, addr, size, name)

    def allocation_at(self, addr: int) -> NvAllocation | None:
        """The pending or in-use allocation starting at ``addr``, if any."""
        slot = self._by_addr.get(addr)
        if slot is None:
            return None
        _state, size, _addr, name = self._slots[slot]
        return NvAllocation(slot, addr, size, name)

    def in_use_at(self, addr: int) -> NvAllocation | None:
        """The **in-use** allocation starting at ``addr``, if any: what
        :meth:`is_live` asks, answered with the allocation in one lookup."""
        slot = self._by_addr.get(addr)
        if slot is None:
            return None
        state, size, _addr, name = self._slots[slot]
        if state is not BlockState.IN_USE:
            return None
        return NvAllocation(slot, addr, size, name)

    def in_use_named(
        self, name: str, unless_at: Container[int] = ()
    ) -> list[NvAllocation]:
        """The **in-use** allocations carrying ``name``, in slot order, but
        those starting at an address in ``unless_at``."""
        slots = self._slots
        out = []
        for slot in sorted(self._by_name.get(name, ())):
            state, size, addr, _name = slots[slot]
            if state is BlockState.IN_USE and addr not in unless_at:
                out.append(NvAllocation(slot, addr, size, name))
        return out

    def state_of(self, addr: int) -> BlockState:
        """State of the allocation starting at ``addr`` (FREE if none)."""
        slot = self._by_addr.get(addr)
        if slot is None:
            return BlockState.FREE
        return self._slots[slot][0]

    def is_live(self, addr: int) -> bool:
        """Whether ``addr`` starts an **in-use** allocation.

        NVWAL recovery uses this to drop references to blocks the heap
        recovery reclaimed while they were still pending (Section 4.3).
        """
        return self.state_of(addr) is BlockState.IN_USE

    def live_allocations(self) -> list[NvAllocation]:
        """All pending or in-use allocations, in slot order."""
        out = []
        for slot in sorted(self._live):
            _state, size, addr, name = self._slots[slot]
            out.append(NvAllocation(slot, addr, size, name))
        return out

    def bytes_in_use(self) -> int:
        """Total bytes held by pending or in-use allocations."""
        return sum(self._slots[slot][1] for slot in self._live)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _allocate(self, size: int, state: BlockState, name: str) -> NvAllocation:
        if size <= 0:
            raise HeapStateError(f"allocation size must be positive, got {size}")
        size = _align_up(size, 64)
        addr = self._find_gap(size)
        slot = self._find_free_slot()
        self._write_slot(slot, state, size, addr, name)
        return NvAllocation(slot, addr, size, name)

    def _find_free_slot(self) -> int:
        """Lowest free slot, from the free-slot min-heap.

        Entries can go stale (a slot re-occupied through attach() keeps its
        heap entry), so pops are validated against the descriptor table.
        """
        heap = self._free_slots
        while heap:
            slot = heapq.heappop(heap)
            if self._slots[slot][0] is BlockState.FREE:
                return slot
        raise OutOfNvram("heap descriptor table is full")

    def _find_gap(self, size: int) -> int:
        """First-fit search of the heap area for a free extent: the
        lowest-addressed hole that is large enough."""
        for start, end in self._holes:
            if end - start >= size:
                return start
        raise OutOfNvram(f"no free extent of {size} bytes")

    def _occupy(self, addr: int, size: int) -> None:
        """Take [addr, addr+size), which starts a hole, out of the holes."""
        holes = self._holes
        at = bisect.bisect_left(holes, (addr,))
        start, end = holes[at]
        if start != addr or end < addr + size:
            raise HeapStateError(f"extent {addr:#x}+{size} is not free")
        if end == addr + size:
            del holes[at]
        else:
            holes[at] = (addr + size, end)

    def _release(self, addr: int, size: int) -> None:
        """Return [addr, addr+size) to the holes, merging neighbours."""
        holes = self._holes
        start, end = addr, addr + size
        at = bisect.bisect_left(holes, (addr,))
        if at < len(holes) and holes[at][0] == end:
            end = holes.pop(at)[1]
        if at and holes[at - 1][1] == start:
            at -= 1
            start = holes.pop(at)[0]
        holes.insert(at, (start, end))

    def _write_slot(
        self, slot: int, state: BlockState, size: int, addr: int, name: str
    ) -> None:
        """Durably update one descriptor.

        Kernel metadata updates are failure-atomic by construction (the
        kernel runs its own flush/barrier sequence, whose cost is folded
        into the syscall costs), so this writes straight to the device.
        """
        record = struct.pack(
            _DESC_FMT, int(state), size, addr, name.encode("utf-8")[:16]
        )
        self.nvram.persist(_SUPERBLOCK_SIZE + slot * _DESC_SIZE, record)
        old_state, old_size, old_addr, old_name = self._slots[slot]
        if old_state is not BlockState.FREE:
            self._by_addr.pop(old_addr, None)
            holders = self._by_name.get(old_name)
            if holders is not None:
                holders.discard(slot)
                if not holders:
                    del self._by_name[old_name]
            self._live.discard(slot)
        self._slots[slot] = (state, size, addr, name)
        if state is BlockState.FREE:
            heapq.heappush(self._free_slots, slot)
        else:
            self._live.add(slot)
            self._by_addr[addr] = slot
            self._by_name.setdefault(name, set()).add(slot)
        if (old_state is BlockState.FREE) != (state is BlockState.FREE):
            if self._overlapping:
                self._rebuild_holes()
            elif state is BlockState.FREE:
                self._release(old_addr, old_size)
            else:
                self._occupy(addr, size)


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment
