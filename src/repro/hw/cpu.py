"""Simulated CPU: stores, loads, memcpy, flush instructions, and barriers.

This module is the moral equivalent of the paper's Algorithms 1 and 2 seen
from below: it provides exactly the primitives NVWAL composes —

* ``store`` / ``memcpy``: volatile writes into the cache overlay;
* ``cache_line_flush(start, end)``: the Algorithm 2 system call that issues
  one non-blocking ``dccmvac`` per covered cache line;
* ``dmb()``: blocks until previously issued flushes complete (reach the
  memory subsystem);
* ``persist_barrier()``: drains the memory-subsystem queue into durable
  NVRAM (the paper emulates this with a 1 usec delay);
* ``compute(ns)``: charges database CPU work on the same clock.

Timing model of the flush unit: ``dccmvac`` is non-blocking, so a flush
issued while the pipeline is busy completes ``write_latency /
pipeline_depth`` after its predecessor, while a flush issued to an idle
pipeline completes a full ``write_latency`` later.  ``dmb`` waits for the
last completion and therefore drains the pipeline — which is precisely why
eager synchronization (flush + barrier per log entry, Figure 4b) is slower
than lazy synchronization (batched flushes, one barrier, Figure 4c).

That model is stated per instruction; the host does the bookkeeping per
range.  A flush call cuts the dirty part of its range out of the cache's
age-ordered extent list in one step and queues it run by run; the only work
left per line is the time arithmetic, whose float additions have to happen
one at a time, in instruction order, to stay bit-exact.

Each primitive charges inline: it adds its cost to ``clock.now_ns``, to its
:class:`TimeBucket` in ``stats.time_ns`` and to its counters itself, with
the same float additions in the same order as ``SimClock.advance`` and
``Stats.add_time`` would make.  The crash hook is the one indirection left:
an armed hook is called at the start of each primitive (and once per
flushed line), with the clock, stats and queue already written back.  The
cost constants are validated when the config is built, which is what lets
these charges skip ``SimClock.advance``'s check.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.hw import stats as statnames
from repro.hw.cache import CacheHierarchy, LineRun, by_address
from repro.hw.clock import SimClock
from repro.hw.memory import NvramDevice
from repro.hw.stats import Stats, TimeBucket

#: Raw Counter keys of the time buckets the primitives charge, hoisted out
#: of them (enum attribute access is measurable at this call volume).
_CPU_KEY = TimeBucket.CPU.value
_MEMCPY_KEY = TimeBucket.MEMCPY.value
_SYSCALL_KEY = TimeBucket.SYSCALL.value
_DCCMVAC_KEY = TimeBucket.DCCMVAC.value
_DMB_KEY = TimeBucket.DMB.value
_PERSIST_BARRIER_KEY = TimeBucket.PERSIST_BARRIER.value


class Cpu:
    """One simulated core plus its cache and flush pipeline."""

    def __init__(
        self,
        config: SystemConfig,
        clock: SimClock,
        cache: CacheHierarchy,
        nvram: NvramDevice,
        stats: Stats,
    ) -> None:
        self.config = config
        self.clock = clock
        self.cache = cache
        self.nvram = nvram
        self.stats = stats
        #: Runs of lines in the memory subsystem awaiting a persist barrier:
        #: they have left the CPU cache (``dccmvac`` issued, or evicted) but
        #: are not durable until a barrier drains them — or a crash happens
        #: to land them.
        self.pending: list[LineRun] = []
        #: Completion time of the most recently issued flush.
        self._pipeline_last_completion = 0.0
        #: Latest completion time of anything in ``pending`` — the only
        #: thing the barriers need to know about the queue's timing.
        self._pending_max_completion = 0.0
        #: Optional crash hook, set by the CrashController; called once per
        #: primitive operation so tests can fire a power failure at any step.
        self.crash_hook = None

    # ------------------------------------------------------------------
    # volatile data path
    # ------------------------------------------------------------------

    def store(self, addr: int, data: bytes) -> None:
        """Plain store: volatile write into the cache, minimal cost."""
        if self.crash_hook is not None:
            self.crash_hook("store")
        cost = self.config.cache.memcpy_ns_per_byte * len(data)
        self.cache.store(addr, data)
        self.clock.now_ns += cost
        self.stats.time_ns[_CPU_KEY] += cost

    def memcpy(self, dst: int, data: bytes) -> None:
        """Copy ``data`` to NVRAM address ``dst`` through the cache.

        Charged at memcpy cost; the bytes are *not* durable afterwards —
        they sit in the cache until flushed and barriered (or evicted, which
        the crash controller models probabilistically).
        """
        if self.crash_hook is not None:
            self.crash_hook("memcpy")
        cache_cfg = self.config.cache
        cost = cache_cfg.memcpy_base_ns + cache_cfg.memcpy_ns_per_byte * len(data)
        self.cache.store(dst, data)
        self.clock.now_ns += cost
        stats = self.stats
        stats.time_ns[_MEMCPY_KEY] += cost
        stats.counters["memcpy_bytes"] += len(data)
        self._evict_excess()

    def _evict_excess(self) -> None:
        """Capacity write-back: lines dirtied long ago migrate to the
        memory subsystem while the CPU keeps copying — their write latency
        hides under the memcpy, so a later dccmvac for them is nearly free
        (lazy synchronization's masking effect, Section 5.1)."""
        excess = (
            self.cache.dirty_line_count() - self.config.cache.eviction_threshold_lines
        )
        if excess <= 0:
            return
        self.pending += self.cache.evict_oldest(excess)
        now = self.clock.now_ns
        if now > self._pending_max_completion:
            self._pending_max_completion = now
        self.stats.counters["cache_evictions"] += excess

    def load(self, addr: int, length: int) -> bytes:
        """Read the volatile view of NVRAM (cache overlay over device),
        charged as :meth:`charge_load` says."""
        self.charge_load(addr, length)
        return self.cache.load(addr, length)

    def charge_load(self, addr: int, length: int) -> None:
        """Charge the time :meth:`load` of ``[addr, addr + length)`` costs,
        without reading: a recovery that reads a range once uncharged
        (:meth:`load_free`) charges each load it stands for.

        Charged per cache line actually touched: a 63-byte read that spans
        two lines costs two line reads (``length // line_size`` would
        undercharge any range that straddles a line boundary).
        """
        line_size = self.config.cache.line_size
        if length <= 0:
            lines = 0
        else:
            first = addr - (addr % line_size)
            last = (addr + length - 1) - ((addr + length - 1) % line_size)
            lines = (last - first) // line_size + 1
        cost = self.config.nvram.read_latency_ns * lines
        self.clock.now_ns += cost
        self.stats.time_ns[_CPU_KEY] += cost

    def load_free(self, addr: int, length: int) -> bytes:
        """Volatile read without a time charge (for assertions in tests and
        for recovery-time bulk scans whose cost is charged separately)."""
        return self.cache.load(addr, length)

    # ------------------------------------------------------------------
    # flush instructions
    # ------------------------------------------------------------------

    def dccmvac(self, addr: int) -> None:
        """Issue one non-blocking cache-line flush (clean to PoC by MVA)
        for the line containing ``addr``.

        Flushing a *clean* line (e.g. one that capacity eviction already
        wrote back during memcpy) costs only the instruction.  Flushing a
        *dirty* line additionally stalls for one pipeline interval: the
        flush unit cannot inject lines faster than the NVRAM write
        bandwidth.  This asymmetry is what makes lazy synchronization's
        flushes "masked by the overhead of memcpy()" while eager
        synchronization, which always flushes cache-hot lines, pays full
        price (Section 5.1, Figure 5).
        """
        base = self.cache.line_base(addr)
        self._dccmvac_lines(base, base + self.config.cache.line_size)

    def cache_line_flush(self, start: int, end: int) -> None:
        """The Algorithm 2 system call: flush every line in [start, end).

        ``dccmvac`` needs privileged register access on ARM, so each call
        crosses the kernel boundary once, no matter how many lines it
        covers — which is why lazy synchronization, batching many lines per
        call, also saves mode switches.
        """
        if self.crash_hook is not None:
            self.crash_hook("cache_line_flush")
        cache_cfg = self.config.cache
        syscall = cache_cfg.syscall_ns
        self.clock.now_ns += syscall
        stats = self.stats
        stats.time_ns[_SYSCALL_KEY] += syscall
        stats.counters[statnames.FLUSH_CALLS] += 1
        if end > start:
            line_size = cache_cfg.line_size
            self._dccmvac_lines(start - start % line_size, end + (-end % line_size))

    def _dccmvac_lines(self, first: int, stop: int) -> None:
        """Issue ``dccmvac`` for the lines [first, stop), line-aligned.

        Every instruction is a crash-injection step, so an armed hook
        drives the range one line at a time: each call below writes the
        clock, stats and pipeline state back and queues what it flushed,
        and a power failure the hook raises therefore sees exactly the
        lines flushed so far.
        """
        hook = self.crash_hook
        if hook is None:
            self._flush_lines(first, stop)
            return
        line_size = self.config.cache.line_size
        for base in range(first, stop, line_size):
            hook("dccmvac")
            self._flush_lines(base, base + line_size)

    def _flush_lines(self, first: int, stop: int) -> None:
        """Charge and queue the flushes of the lines [first, stop).

        The data moves by run: the dirty part of the range is cut out of
        the cache's dirty set in one call and each run of adjacent dirty
        lines enters the memory subsystem as one :class:`LineRun`.  Time
        is charged line by line, clean gap / dirty run / clean gap in
        address order: the pipeline interval need not be an integer, so
        only the same additions in the same order are bit-exact.
        """
        cache_cfg = self.config.cache
        line_size = cache_cfg.line_size
        issue = cache_cfg.flush_issue_ns
        latency = self.config.nvram.write_latency_ns
        interval = latency / cache_cfg.pipeline_depth
        now = self.clock.now_ns
        dccmvac_ns = self.stats.time_ns[_DCCMVAC_KEY]
        last = self._pipeline_last_completion

        runs = self.cache.undirty(first, stop)
        if len(runs) > 1:
            runs = by_address(runs)
        at = first
        for lo, hi in runs:
            for _ in range(at, lo, line_size):
                # Flushing a clean line costs the instruction, moves no data.
                now += issue
                dccmvac_ns += issue
            for _ in range(lo, hi, line_size):
                now += issue
                dccmvac_ns += issue
                now += interval  # injection backpressure
                dccmvac_ns += interval
                if last <= now:
                    last = now + latency
                else:
                    last += interval
            self.pending.append(LineRun(lo, self.cache.snapshot(lo, hi)))
            at = hi
        for _ in range(at, stop, line_size):
            now += issue
            dccmvac_ns += issue

        self.clock.now_ns = now
        stats = self.stats
        stats.time_ns[_DCCMVAC_KEY] = dccmvac_ns
        stats.counters[statnames.FLUSHES] += (stop - first) // line_size
        self._pipeline_last_completion = last
        # Completions only move forward, so the last line flushed is the
        # latest thing in the queue.
        if runs and last > self._pending_max_completion:
            self._pending_max_completion = last

    # ------------------------------------------------------------------
    # barriers
    # ------------------------------------------------------------------

    def dmb(self) -> None:
        """Data memory barrier: wait for issued flushes to complete.

        After ``dmb`` returns, previously flushed lines have reached the
        memory subsystem (tier 2) — they are still *not* durable until a
        persist barrier drains them.
        """
        if self.crash_hook is not None:
            self.crash_hook("dmb")
        start = self.clock.now_ns
        now = start + self.config.cache.dmb_ns
        if self.pending and self._pending_max_completion > now:
            now = self._pending_max_completion
        self.clock.now_ns = now
        stats = self.stats
        stats.time_ns[_DMB_KEY] += now - start
        stats.counters[statnames.DMBS] += 1

    def persist_barrier(self) -> None:
        """Drain the memory-subsystem queue into durable NVRAM.

        The paper emulates this instruction as a 1 usec delay (Section 5.3);
        we additionally wait for any flush still in flight, then commit the
        queued lines to the device.
        """
        if self.crash_hook is not None:
            self.crash_hook("persist_barrier")
        start = now = self.clock.now_ns
        if self.pending and self._pending_max_completion > now:
            now = self._pending_max_completion
        now += self.config.cache.persist_barrier_ns
        self.clock.now_ns = now
        stats = self.stats
        stats.time_ns[_PERSIST_BARRIER_KEY] += now - start
        stats.counters[statnames.PERSIST_BARRIERS] += 1
        if self.drain(self.pending):
            self.pending.clear()
            self._pending_max_completion = 0.0

    def drain(self, runs: list[LineRun]) -> int:
        """Commit ``runs`` to the durable device and account for them —
        the one way lines reach NVRAM short of a crash.  Returns the
        number of lines written."""
        if not runs:
            return 0
        line_size = self.config.cache.line_size
        written = self.nvram.persist_lines(runs, line_size)
        lines = written // line_size
        counters = self.stats.counters
        counters[statnames.NVRAM_LINES_PERSISTED] += lines
        counters[statnames.NVRAM_BYTES_WRITTEN] += written
        return lines

    # ------------------------------------------------------------------
    # CPU work
    # ------------------------------------------------------------------

    def compute(self, ns: float, bucket: TimeBucket = TimeBucket.CPU) -> None:
        """Charge ``ns`` nanoseconds of computation to the clock."""
        if ns <= 0:
            return
        self.clock.now_ns += ns
        self.stats.time_ns[bucket._value_] += ns

    def syscall_overhead(self) -> None:
        """Charge one kernel-mode switch (for non-flush syscalls)."""
        self.clock.advance(self.config.cache.syscall_ns)
        self.stats.add_time(TimeBucket.SYSCALL, self.config.cache.syscall_ns)

    # ------------------------------------------------------------------
    # crash support
    # ------------------------------------------------------------------

    def volatile_state(self) -> tuple[list[LineRun], list[LineRun]]:
        """Expose tiers 1 and 2 to the crash controller: the dirty cache
        lines (oldest first) and the memory-subsystem queue."""
        return self.cache.dirty_runs(), list(self.pending)

    def drop_volatile(self) -> None:
        """Discard tiers 1 and 2 — the power has gone out."""
        self.cache.drop_all()
        self.pending.clear()
        self._pipeline_last_completion = 0.0
        self._pending_max_completion = 0.0
