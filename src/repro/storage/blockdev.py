"""eMMC flash block device model.

Models the SanDisk iNAND eMMC of the Nexus 5 at the level the WAL baseline
cares about: page-granularity programs with a volatile on-device write cache
that only a cache-flush command (what ``fsync`` ultimately issues through
the block layer) makes durable.

A power failure keeps durable pages and lands the cached pages
:func:`repro.hw.crash.landed_units` picks — enough to force the filesystem
journal to do its job in crash tests.
"""

from __future__ import annotations

import random
from collections.abc import Container

from repro.config import BlockDevConfig
from repro.errors import AddressError
from repro.hw import stats as statnames
from repro.hw.clock import SimClock
from repro.hw.crash import landed_units
from repro.hw.stats import Stats, TimeBucket


class BlockDevice:
    """Page-addressable flash device with a volatile write cache."""

    def __init__(
        self,
        config: BlockDevConfig,
        clock: SimClock,
        stats: Stats,
        seed: int | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self.config = config
        self.clock = clock
        self.stats = stats
        self.page_size = config.page_size
        self.num_pages = config.num_pages
        self._durable: dict[int, bytes] = {}
        self._cache: dict[int, bytes] = {}
        # A System passes its crash controller's RNG: one stream, both tiers.
        self._rng = rng if rng is not None else random.Random(seed)
        self._zero_page = bytes(self.page_size)
        # Optional transient-failure injector (repro.faults): timed page
        # commands may raise IoError; read_page_silent is exempt.
        self.fault_injector = None
        # Optional repro.storage.trace.BlockTrace recording every timed
        # command (Figure 8); off by default, as it grows with every op.
        self.trace = None

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------

    def _check(self, pno: int) -> None:
        if not 0 <= pno < self.num_pages:
            raise AddressError(f"page {pno} out of range (device has {self.num_pages})")

    def write_page(self, pno: int, data: bytes, tag: str = "unknown") -> None:
        """Program one page (lands in the device write cache)."""
        self._check(pno)
        if len(data) != self.page_size:
            raise AddressError(
                f"page write must be exactly {self.page_size} bytes, got {len(data)}"
            )
        if self.fault_injector is not None:
            self.fault_injector.before_op("write", pno)
        self._cache[pno] = bytes(data)
        self.clock.advance(self.config.write_latency_ns)
        self.stats.add_time(TimeBucket.BLOCK_IO, self.config.write_latency_ns)
        self.stats.count(statnames.BLOCK_WRITES)
        if self.trace is not None:
            self.trace.record(self.clock.now_ns, "write", pno, self.page_size, tag)

    def read_page(self, pno: int, tag: str = "unknown") -> bytes:
        """Read one page (write cache wins over durable media)."""
        self._check(pno)
        if self.fault_injector is not None:
            self.fault_injector.before_op("read", pno)
        self.clock.advance(self.config.read_latency_ns)
        self.stats.add_time(TimeBucket.BLOCK_IO, self.config.read_latency_ns)
        self.stats.count(statnames.BLOCK_READS)
        if self.trace is not None:
            self.trace.record(self.clock.now_ns, "read", pno, self.page_size, tag)
        page = self._cache.get(pno)
        if page is None:
            page = self._durable.get(pno, self._zero_page)
        return page

    def read_page_silent(self, pno: int) -> bytes:
        """Read without time charge or trace (mount-time bulk scans)."""
        self._check(pno)
        page = self._cache.get(pno)
        if page is None:
            page = self._durable.get(pno, self._zero_page)
        return page

    def read_pages_silent(self, first: int, count: int) -> list[bytes]:
        """:meth:`read_page_silent` of ``count`` pages from ``first`` on."""
        if count > 0:
            self._check(first)
            self._check(first + count - 1)
        cache, durable, zero = self._cache, self._durable, self._zero_page
        return [
            cache[pno] if pno in cache else durable.get(pno, zero)
            for pno in range(first, first + count)
        ]

    def flush(self) -> None:
        """Cache-flush command: make every cached page durable."""
        self.clock.advance(self.config.flush_cmd_ns)
        self.stats.add_time(TimeBucket.BLOCK_IO, self.config.flush_cmd_ns)
        self.stats.count(statnames.BLOCK_FLUSHES)
        if self.trace is not None:
            self.trace.record(self.clock.now_ns, "flush", 0, 0, "barrier")
        self._durable.update(self._cache)
        self._cache.clear()

    # ------------------------------------------------------------------
    # crash semantics
    # ------------------------------------------------------------------

    def power_fail(self, landed: Container[int] | None = None) -> None:
        """Cut power: the cached pages :func:`landed_units` picks land, the
        rest are lost.  Pages are numbered in page-number order."""
        pages = sorted(self._cache)
        for i in landed_units(len(pages), self._rng, landed):
            self._durable[pages[i]] = self._cache[pages[i]]
        self._cache.clear()

    def cached_page_count(self) -> int:
        """Pages currently in the volatile write cache."""
        return len(self._cache)
