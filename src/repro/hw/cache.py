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
integer bitmask per chunk, and dirty age is an insertion-ordered dict of line
base addresses, so a store is a slice assignment plus bulk set/dict updates
and whatever leaves the cache leaves as a :class:`LineRun` — adjacent lines
that travel together, the unit NVWAL hands the hardware (Section 4.2).
"""

from __future__ import annotations

from itertools import islice
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
        # line base addresses whose overlay contents differ from what has
        # been handed to the flush pipeline / device; dict used as an
        # insertion-ordered set so eviction can pick the oldest dirty line
        self._dirty: dict[int, None] = {}

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
        self.nvram.check_range(addr, length)
        if length == 0:
            return
        line_size = self.line_size
        end = addr + length
        first = addr - (addr % line_size)
        stop = end + (-end % line_size)
        if first != addr:
            self._write_allocate(first)
        if stop != end:
            self._write_allocate(stop - line_size)

        chunks = self._chunks
        resident = self._resident
        pos = 0
        for index, offset, take in self._pieces(addr, end):
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

        dirty = self._dirty
        bases = range(first, stop, line_size)
        if not dirty.keys().isdisjoint(bases):
            for base in bases:  # re-dirtied lines move to the young end
                dirty.pop(base, None)
        dirty.update(dict.fromkeys(bases))

    def load(self, addr: int, length: int) -> bytes:
        """Read the *volatile view*: cache contents where present, durable
        device contents otherwise.

        A range that is fully resident inside one chunk is one arena slice.
        Anything else is one bulk device read overlaid with the resident
        runs that intersect it.
        """
        self.nvram.check_range(addr, length)
        if length <= 0:
            return b""
        line_size = self.line_size
        resident = self._resident
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
        parts = [
            memoryview(self._chunks[index])[offset : offset + take]
            for index, offset, take in self._pieces(start, stop)
        ]
        return bytes(parts[0]) if len(parts) == 1 else b"".join(parts)

    def _snapshot_runs(self, bases: Iterable[int]) -> list[LineRun]:
        """Coalesce ``bases`` into runs, preserving their order: a line
        joins the run before it only when it is also its address
        successor, so the runs flattened line by line spell ``bases``."""
        line_size = self.line_size
        runs = []
        start = stop = -1
        for base in bases:
            if base != stop:
                if start >= 0:
                    runs.append(LineRun(start, self.snapshot(start, stop)))
                start = base
            stop = base + line_size
        if start >= 0:
            runs.append(LineRun(start, self.snapshot(start, stop)))
        return runs

    def clean_range(self, addr: int, length: int) -> list[LineRun]:
        """Snapshot the dirty lines overlapping [addr, addr+length) for the
        flush pipeline and mark them clean.

        A store issued afterwards re-dirties its lines; flushing a clean
        line moves no data (the instruction still costs time).
        """
        dirty = self._dirty
        bases = [base for base in self.lines_covering(addr, length) if base in dirty]
        for base in bases:
            del dirty[base]
        return self._snapshot_runs(bases)

    def clean_all(self) -> list[LineRun]:
        """Snapshot every dirty line, in address order, and mark it clean."""
        bases = sorted(self._dirty)
        self._dirty.clear()
        return self._snapshot_runs(bases)

    def evict_oldest(self, count: int) -> list[LineRun]:
        """Write-back eviction: remove and return the ``count`` oldest
        dirty lines, oldest first.

        Models capacity pressure in L1/L2: lines dirtied long ago migrate
        toward memory on their own, which is what lets lazy synchronization
        mask most of its flush latency behind memcpy (Section 5.1).
        """
        dirty = self._dirty
        bases = list(islice(dirty, count))
        for base in bases:
            del dirty[base]
        return self._snapshot_runs(bases)

    def dirty_runs(self) -> list[LineRun]:
        """Snapshot of all dirty lines, oldest first (used by the crash
        controller)."""
        return self._snapshot_runs(self._dirty)

    def drop_all(self) -> None:
        """Discard the entire overlay — what a power failure does."""
        self._chunks.clear()
        self._resident.clear()
        self._dirty.clear()

    def dirty_line_count(self) -> int:
        """Number of currently dirty lines."""
        return len(self._dirty)
