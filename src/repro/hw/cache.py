"""Write-back CPU cache model at cache-line granularity.

Only NVRAM addresses are simulated through the cache: the interesting
question for NVWAL is *which NVRAM bytes are durable when*, and the cache is
the first volatile tier those bytes pass through.  DRAM-resident structures
(B-tree pages, the SQLite page cache) are ordinary Python objects; their
access cost is charged by the CPU cost model instead.

The cache is modelled as an overlay: a resident line holds the current
(volatile) contents of its address range; loads fall back to the durable
device contents for lines that are absent.  ``dccmvac`` snapshots a dirty
line into the flush pipeline and marks it clean — a store issued after the
flush re-dirties the line and is *not* covered by the earlier flush, exactly
the hazard that forces Algorithm 1's ``dmb``/flush/``dmb`` dance around the
commit mark.

Semantics are per line; the representation is per extent.  Resident bytes
live in a sparse arena of :data:`CHUNK`-byte buffers, residency is one
integer bitmask per chunk, and dirty age is a list of line-aligned
``(start, stop)`` extents, oldest first: a list position *is* an age, and
address order inside an extent is the order inside that age.  Log frames are
bump-allocated, so the whole dirty set is one to three extents almost all of
the time and a linear scan of that list is the entire index.  A store is a
slice assignment plus one cut-and-append on the list, and whatever leaves
the cache leaves as a :class:`LineRun` — adjacent lines that travel
together, the unit NVWAL hands the hardware (Section 4.2).
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from repro.config import CacheConfig
from repro.errors import MediaError
from repro.hw.memory import WEAR_REGION, NvramDevice

#: Arena granularity.  A power of two, so a multiple of every supported line
#: size (32 on Tuna, 64 on the Nexus 5); large enough that a 4 KB frame
#: rarely straddles two chunks, small enough that the arena stays sparse.
CHUNK = 1 << 16


class LineRun(NamedTuple):
    """Adjacent whole cache lines that left the cache together.

    ``data`` is a snapshot: ``len(data) // line_size`` lines starting at
    line-aligned ``addr``, in ascending address order.
    """

    addr: int
    data: bytes


def bit_runs(bits: int) -> Iterator[tuple[int, int]]:
    """Maximal runs of set bits in ``bits`` as ``(first, past_last)``."""
    pos = 0
    while bits:
        skip = (bits & -bits).bit_length() - 1
        bits >>= skip
        pos += skip
        ones = (~bits & (bits + 1)).bit_length() - 1
        yield pos, pos + ones
        bits >>= ones
        pos += ones


def by_address(extents: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Disjoint ``(start, stop)`` extents in address order, with extents
    that touch joined into one."""
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted(extents):
        if merged and merged[-1][1] == lo:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


class CacheHierarchy:
    """The (volatile) L1/L2 overlay in front of the NVRAM device."""

    def __init__(self, config: CacheConfig, nvram: NvramDevice) -> None:
        if CHUNK % config.line_size or WEAR_REGION % config.line_size:
            raise ValueError(
                f"line size {config.line_size} must divide the {CHUNK}-byte "
                f"arena chunk and the {WEAR_REGION}-byte wear region"
            )
        self.config = config
        self.nvram = nvram
        self.line_size = config.line_size
        # chunk index -> CHUNK bytes of arena; only resident lines are valid
        self._chunks: dict[int, bytearray] = {}
        # chunk index -> bitmask of resident lines (bit i = i-th line)
        self._resident: dict[int, int] = {}
        # line-aligned (start, stop) extents whose overlay contents differ
        # from what has been handed to the flush pipeline / device: pairwise
        # disjoint, oldest first, so eviction takes from the front
        self._dirty: list[tuple[int, int]] = []
        self._dirty_lines = 0

    # -- geometry -----------------------------------------------------------

    def line_base(self, addr: int) -> int:
        """Base address of the cache line containing ``addr``."""
        return addr - (addr % self.line_size)

    def lines_covering(self, addr: int, length: int) -> range:
        """Base addresses of all lines overlapping [addr, addr+length)."""
        if length <= 0:
            return range(0)
        return range(self.line_base(addr), addr + length, self.line_size)

    @staticmethod
    def _pieces(start: int, end: int) -> Iterator[tuple[int, int, int]]:
        """Split [start, end) at chunk boundaries: ``(chunk index, offset
        in the chunk, byte count)`` per piece."""
        while start < end:
            index, offset = divmod(start, CHUNK)
            take = min(CHUNK - offset, end - start)
            yield index, offset, take
            start += take

    # -- data path -----------------------------------------------------------

    def _write_allocate(self, base: int) -> None:
        """Make the line at ``base`` resident, filling it from NVRAM."""
        index, offset = divmod(base, CHUNK)
        bit = 1 << (offset // self.line_size)
        mask = self._resident.get(index, 0)
        if mask & bit:
            return
        line_size = self.line_size
        try:
            fill = self.nvram.read(base, line_size)
        except MediaError:
            # Write-allocate on a line holding a poisoned unit: the
            # unreadable bytes are garbage either way, and the eventual
            # full-line write-back replaces the unit's codeword, clearing
            # the poison.
            fill = bytes(line_size)
        chunk = self._chunks.get(index)
        if chunk is None:
            chunk = self._chunks[index] = bytearray(CHUNK)
        chunk[offset : offset + line_size] = fill
        self._resident[index] = mask | bit

    def store(self, addr: int, data: bytes) -> None:
        """Write ``data`` at ``addr`` into the cache (volatile).

        The whole range is handled as one extent: the partial head and tail
        lines are write-allocated from the device (lines the store covers
        completely need no fill — their previous contents are overwritten
        anyway), the bytes land in the arena with one slice assignment per
        chunk, and every touched line becomes the youngest dirty line,
        first line first.
        """
        length = len(data)
        end = addr + length
        if addr < 0 or end > self.nvram.config.size:
            self.nvram.check_range(addr, length)
        if length == 0:
            return
        line_size = self.line_size
        first = addr - (addr % line_size)
        stop = end + (-end % line_size)
        chunks = self._chunks
        resident = self._resident
        index, offset = divmod(addr, CHUNK)
        if offset + length <= CHUNK:
            # One chunk (almost every store), which holds the partial head
            # and tail lines too: a resident one needs no fill, and that is
            # one test of the chunk's mask.
            mask = resident.get(index, 0)
            if first != addr and not (mask >> (offset // line_size)) & 1:
                self._write_allocate(first)
            if stop != end and not (mask >> ((offset + length - 1) // line_size)) & 1:
                self._write_allocate(stop - line_size)
            pieces = ((index, offset, length),)
        else:
            if first != addr:
                self._write_allocate(first)
            if stop != end:
                self._write_allocate(stop - line_size)
            pieces = self._pieces(addr, end)

        pos = 0
        for index, offset, take in pieces:
            chunk = chunks.get(index)
            if chunk is None:
                chunk = chunks[index] = bytearray(CHUNK)
            chunk[offset : offset + take] = (
                data if take == length else data[pos : pos + take]
            )
            low = offset // line_size
            high = (offset + take - 1) // line_size
            resident[index] = resident.get(index, 0) | (
                ((1 << (high - low + 1)) - 1) << low
            )
            pos += take

        self.undirty(first, stop)  # re-dirtied lines move to the young end
        dirty = self._dirty
        if dirty and dirty[-1][1] == first:
            # Address successor of the youngest extent: the same age order
            # as one longer extent.  (Adjacent to an *older* extent is not:
            # younger lines sit between the two in age.)
            dirty[-1] = (dirty[-1][0], stop)
        else:
            dirty.append((first, stop))
        self._dirty_lines += (stop - first) // line_size

    def load(self, addr: int, length: int) -> bytes:
        """Read the *volatile view*: cache contents where present, durable
        device contents otherwise.

        A range that is fully resident inside one chunk is one arena slice.
        Anything else is one bulk device read overlaid with the resident
        runs that intersect it — on a cache that holds no line (every read
        of recovery, right after a reboot) just the device read.
        """
        resident = self._resident
        if not resident:
            return self.nvram.read(addr, length)
        self.nvram.check_range(addr, length)
        if length <= 0:
            return b""
        line_size = self.line_size
        end = addr + length
        out = None
        for index, offset, take in self._pieces(addr, end):
            mask = resident.get(index)
            if not mask:
                continue
            low = offset // line_size
            want = (1 << ((offset + take - 1) // line_size - low + 1)) - 1
            have = (mask >> low) & want
            if not have:
                continue
            chunk = memoryview(self._chunks[index])
            if have == want and take == length and not self.nvram.has_poison():
                # A poisoned unit under a resident line still fails the
                # read (the device read below raises), so the shortcut is
                # only taken on healthy media.
                return bytes(chunk[offset : offset + take])
            if out is None:
                out = bytearray(self.nvram.read(addr, length))
            delta = index * CHUNK - addr  # chunk offset -> offset in ``out``
            for run_low, run_high in bit_runs(have):
                lo = max((low + run_low) * line_size, offset)
                hi = min((low + run_high) * line_size, offset + take)
                out[lo + delta : hi + delta] = chunk[lo:hi]
        if out is None:
            return self.nvram.read(addr, length)
        return bytes(out)

    # -- leaving the cache ----------------------------------------------------

    def snapshot(self, start: int, stop: int) -> bytes:
        """Contents of the resident lines [start, stop) (line-aligned)."""
        index, offset = divmod(start, CHUNK)
        end = offset + stop - start
        if end <= CHUNK:
            return bytes(memoryview(self._chunks[index])[offset:end])
        return b"".join(
            memoryview(self._chunks[index])[offset : offset + take]
            for index, offset, take in self._pieces(start, stop)
        )

    def _runs(self, extents: Iterable[tuple[int, int]]) -> list[LineRun]:
        """One snapshot run per extent, in the order given."""
        return [LineRun(lo, self.snapshot(lo, hi)) for lo, hi in extents]

    def undirty(self, first: int, stop: int) -> list[tuple[int, int]]:
        """Cut the lines [first, stop) (line-aligned) out of the dirty set
        and return the pieces that were dirty, oldest first.

        What is left of an overlapped extent stays where it was: a cut in
        the middle leaves both remainders at the old age.
        """
        kept = []
        pieces = []
        removed = 0
        for extent in self._dirty:
            lo, hi = extent
            if hi <= first or stop <= lo:
                kept.append(extent)
                continue
            if lo < first:
                kept.append((lo, first))
                lo = first
            if stop < hi:
                kept.append((stop, hi))
                hi = stop
            pieces.append((lo, hi))
            removed += hi - lo
        if pieces:
            self._dirty = kept
            self._dirty_lines -= removed // self.line_size
        return pieces

    def clean_range(self, addr: int, length: int) -> list[LineRun]:
        """Snapshot the dirty lines overlapping [addr, addr+length), in
        address order, for the flush pipeline and mark them clean.

        A store issued afterwards re-dirties its lines; flushing a clean
        line moves no data (the instruction still costs time).
        """
        if length <= 0:
            return []
        end = addr + length
        stop = end + (-end % self.line_size)
        return self._runs(by_address(self.undirty(self.line_base(addr), stop)))

    def clean_all(self) -> list[LineRun]:
        """Snapshot every dirty line, in address order, and mark it clean."""
        runs = self._runs(by_address(self._dirty))
        self._dirty = []
        self._dirty_lines = 0
        return runs

    def evict_oldest(self, count: int) -> list[LineRun]:
        """Write-back eviction: remove and return the ``count`` oldest
        dirty lines, oldest first — whole extents off the front of the
        list, then the head of the extent the count runs out in.

        Models capacity pressure in L1/L2: lines dirtied long ago migrate
        toward memory on their own, which is what lets lazy synchronization
        mask most of its flush latency behind memcpy (Section 5.1).
        """
        dirty = self._dirty
        line_size = self.line_size
        left = count  # lines still to take
        taken = []
        while left > 0 and dirty:
            lo, hi = dirty[0]
            cut = min(hi, lo + left * line_size)
            if cut < hi:
                dirty[0] = (cut, hi)
            else:
                del dirty[0]
            taken.append((lo, cut))
            left -= (cut - lo) // line_size
        self._dirty_lines -= count - left
        return self._runs(taken)

    def dirty_runs(self) -> list[LineRun]:
        """Snapshot of all dirty lines, oldest first (used by the crash
        controller)."""
        return self._runs(self._dirty)

    def drop_all(self) -> None:
        """Discard the entire overlay — what a power failure does."""
        self._chunks.clear()
        self._resident.clear()
        self._dirty = []
        self._dirty_lines = 0

    def dirty_line_count(self) -> int:
        """Number of currently dirty lines."""
        return self._dirty_lines
