"""Configuration and cost-model constants for the simulated platforms.

The paper evaluates NVWAL on two machines:

* *Tuna*, an ARM Cortex-A9 NVRAM-emulation board: 32-byte cache lines,
  NVRAM write latency adjustable between 400 ns and 2000 ns, and a persist
  barrier emulated as a 1 usec delay (Section 5).
* *Nexus 5*, a Snapdragon 800 phone: 64-byte cache lines, eMMC flash
  formatted with EXT4, NVRAM emulated as a DRAM range whose write latency is
  varied between 2 usec and 230 usec (Section 5.4).

Every latency knob of the simulation lives here so experiments can sweep them
and so the calibration against the paper's absolute numbers is auditable.
The headline calibration targets are:

* one single-record insert transaction executes in ~424 usec on Tuna, of
  which the ordering-constraint overhead (dccmvac + dmb + kernel mode
  switch) is ~19.3 usec, i.e. 4.6% (Figure 6);
* a 32-insert transaction executes in ~5828 usec with ~46.5 usec of
  ordering overhead, i.e. 0.8% (Figure 6);
* on the Nexus 5 profile, optimized WAL on eMMC sustains ~541 txn/sec while
  NVWAL UH+LS+Diff at 2 usec NVRAM latency sustains ~5812 txn/sec
  (Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

#: Size of a database B-tree page, matching SQLite's default (Section 3.2).
PAGE_SIZE = 4096

#: NVRAM writes are atomic at this granularity (Section 4.1: "we assume that
#: NVRAM devices guarantee atomic writes for 8 bytes").
ATOMIC_UNIT = 8

#: Stock SQLite WAL frame header size in a log *file* (Section 5.4).
FILE_FRAME_HEADER_SIZE = 24

#: NVWAL frame header size in NVRAM (Section 3.2: "a 32 bytes WAL frame
#: header").
NV_FRAME_HEADER_SIZE = 32


def _reject_negative(config: object, names: tuple[str, ...]) -> None:
    """Raise ``ValueError`` if any of the named latencies or costs of
    ``config`` is negative."""
    for name in names:
        value = getattr(config, name)
        if value < 0:
            raise ValueError(
                f"{type(config).__name__}.{name} must be >= 0, got {value}"
            )


@dataclass(frozen=True)
class NvramConfig:
    """The emulated NVRAM DIMM."""

    #: Total capacity of the NVRAM region in bytes.
    size: int = 64 * 1024 * 1024
    #: Time for the device to persist one cache line (the Tuna FPGA knob).
    write_latency_ns: int = 500
    #: Read latency per cache line; NVRAM reads are close to DRAM.
    read_latency_ns: int = 120

    def __post_init__(self) -> None:
        _reject_negative(self, ("write_latency_ns", "read_latency_ns"))


@dataclass(frozen=True)
class CacheConfig:
    """The CPU cache and its flush unit.

    The flush unit is pipelined: a ``dccmvac`` is non-blocking (Section 4),
    so back-to-back flushes overlap.  A flush issued while the pipeline is
    busy completes ``write_latency / pipeline_depth`` after its predecessor;
    a flush issued to an idle pipeline completes one full write latency
    later.  A ``dmb`` between flushes drains the pipeline, which is why
    eager synchronization pays up to ~25% more for the same number of
    flushes (Figure 5).
    """

    #: Cache line size in bytes (32 on Tuna, 64 on the Nexus 5).
    line_size: int = 32
    #: Cost of issuing one dccmvac instruction (decode + L1 lookup).
    #: Calibrated so a full-page flush (128 lines) costs ~13 usec of issue
    #: time, putting the 1-insert ordering overhead near the paper's
    #: 19.3 usec (Section 5.1).
    flush_issue_ns: int = 85
    #: Overlap factor of the flush pipeline.
    pipeline_depth: int = 12
    #: Write-back capacity: when more lines than this are dirty, the oldest
    #: migrate to the memory subsystem on their own, their write latency
    #: hidden under ongoing memcpy work.  This is what makes lazy
    #: synchronization's dccmvac "masked by the overhead of memcpy()"
    #: (Section 5.1) — eager synchronization flushes lines while they are
    #: still cache-hot and pays the full pipeline latency.
    eviction_threshold_lines: int = 192
    #: Fixed cost of a dmb instruction (excluding the wait for completions).
    dmb_ns: int = 60
    #: Cost of the persist barrier; the paper emulates it with a 1 usec
    #: delay of nop instructions (Section 5.3).
    persist_barrier_ns: int = 1000
    #: Kernel-mode switch cost; ``cache_line_flush()`` is a system call on
    #: Android/ARM because dccmvac needs privileged register access
    #: (Algorithm 2).
    syscall_ns: int = 1000
    #: CPU-side cost of copying one byte with memcpy (cache-resident).
    memcpy_ns_per_byte: float = 0.35
    #: Fixed per-call memcpy overhead.
    memcpy_base_ns: int = 90

    def __post_init__(self) -> None:
        # The CPU charges these inline, with no per-call check, so a bad
        # value is refused here rather than moving the clock backwards.
        _reject_negative(self, (
            "flush_issue_ns", "dmb_ns", "persist_barrier_ns", "syscall_ns",
            "memcpy_ns_per_byte", "memcpy_base_ns",
        ))
        if self.pipeline_depth < 1:
            raise ValueError(
                f"CacheConfig.pipeline_depth must be >= 1, got {self.pipeline_depth}"
            )


@dataclass(frozen=True)
class BlockDevConfig:
    """The eMMC flash device of the Nexus 5 baseline."""

    #: Device page (and filesystem block) size.
    page_size: int = 4096
    #: Number of pages on the device.
    num_pages: int = 65536
    #: Program latency of one 4 KB page.  Calibrated so the optimized WAL
    #: baseline sustains ~541 txn/sec (Figure 9).
    write_latency_ns: int = 205_000
    #: Read latency of one 4 KB page.
    read_latency_ns: int = 60_000
    #: Cost of a cache-flush/barrier command (what fsync ultimately issues).
    flush_cmd_ns: int = 270_000


@dataclass(frozen=True)
class DbCosts:
    """CPU cost model of the database engine itself.

    SQLite throughput is dominated by CPU work, not I/O (Section 1: I/O is
    ~30% of query processing even on slow storage).  These constants charge
    that CPU work on the simulated clock so that the ordering-constraint
    overhead lands at the percentages reported in Figure 6.
    """

    #: Per-transaction fixed cost: begin/commit bookkeeping, journal-mode
    #: dispatch, schema lookups.
    txn_base_ns: int = 205_000
    #: Per-statement cost: SQL parse + plan + VDBE-equivalent execution.
    statement_ns: int = 140_000
    #: Per B-tree page visited during a statement (binary search, slot
    #: bookkeeping).
    btree_page_visit_ns: int = 9_000
    #: Per WAL frame assembled (header construction, checksum, bookkeeping).
    frame_assembly_ns: int = 14_000
    #: Checksum computation per byte (used by both file WAL and NVWAL CS).
    checksum_ns_per_byte: float = 0.30


@dataclass(frozen=True)
class HeapoCosts:
    """Cost model of the kernel-level NVRAM heap manager (Heapo).

    Kernel allocation is expensive because it crosses the protection
    boundary and must persist its own allocation metadata failure-atomically
    (Section 3.3).
    """

    #: nvmalloc: syscall + bitmap update + metadata flush + persist barrier.
    nvmalloc_ns: int = 21_000
    #: nvfree: syscall + metadata flush.
    nvfree_ns: int = 9_000
    #: nv_pre_malloc: like nvmalloc but the caller batches one call per
    #: large block, so the per-frame cost is amortized (Section 3.3).
    nv_pre_malloc_ns: int = 21_000
    #: nv_malloc_set_used_flag: syscall + one 8-byte metadata persist.
    set_used_flag_ns: int = 5_000


@dataclass(frozen=True)
class SystemConfig:
    """Aggregate configuration of one simulated platform."""

    name: str = "tuna"
    nvram: NvramConfig = field(default_factory=NvramConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    blockdev: BlockDevConfig = field(default_factory=BlockDevConfig)
    db_costs: DbCosts = field(default_factory=DbCosts)
    heapo: HeapoCosts = field(default_factory=HeapoCosts)
    #: Database page size.
    page_size: int = PAGE_SIZE

    def with_nvram_write_latency(self, latency_ns: int) -> "SystemConfig":
        """Return a copy of this config with a different NVRAM write
        latency — the knob every latency-sweep experiment turns."""
        return replace(self, nvram=replace(self.nvram, write_latency_ns=latency_ns))


def tuna(write_latency_ns: int = 500) -> SystemConfig:
    """The Tuna ARM NVRAM-emulation board profile (Figures 5-7).

    32-byte cache lines, slow in-order core, NVRAM write latency adjustable
    between 400 and 2000 ns.
    """
    return SystemConfig(
        name="tuna",
        nvram=NvramConfig(write_latency_ns=write_latency_ns),
        cache=CacheConfig(line_size=32),
    )


def nexus5(write_latency_ns: int = 2000) -> SystemConfig:
    """The Nexus 5 profile (Figures 8-9).

    The Snapdragon 800 is much faster than Tuna's Cortex-A9, so the CPU cost
    model is scaled down; cache lines are 64 bytes, and the flash baseline
    uses the eMMC device model.  NVWAL on this platform amortizes the
    checkpoint overhead over 1000 transactions (Section 5.4), which the
    harness models by excluding checkpoint time from throughput.
    """
    return SystemConfig(
        name="nexus5",
        nvram=NvramConfig(write_latency_ns=write_latency_ns),
        cache=CacheConfig(
            line_size=64,
            flush_issue_ns=60,
            # The Snapdragon's memory subsystem overlaps emulated-NVRAM
            # writes less aggressively in the paper's nop-insertion scheme
            # (a nop delay follows *each* clflush); a shallow pipeline
            # reproduces the ~47 usec LS-vs-flash crossover of Figure 9.
            pipeline_depth=2,
            # Eviction masking barely applies: with a nop delay per
            # clflush, even aged lines pay the emulated latency when
            # flushed, so the window is one page of 64-byte lines.
            eviction_threshold_lines=64,
            dmb_ns=25,
            syscall_ns=1200,
            persist_barrier_ns=1000,
            memcpy_ns_per_byte=0.12,
            memcpy_base_ns=40,
        ),
        db_costs=DbCosts(
            txn_base_ns=65_000,
            statement_ns=50_000,
            btree_page_visit_ns=3_200,
            frame_assembly_ns=5_000,
            checksum_ns_per_byte=0.10,
        ),
        heapo=HeapoCosts(
            nvmalloc_ns=9_000,
            nvfree_ns=4_000,
            nv_pre_malloc_ns=9_000,
            set_used_flag_ns=2_200,
        ),
    )


#: Registry of named platform profiles, used by the benchmark CLI.
PROFILES = {
    "tuna": tuna,
    "nexus5": nexus5,
}
