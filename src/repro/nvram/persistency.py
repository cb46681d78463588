"""Memory-persistency models (Section 4.4).

Pelley et al. frame NVRAM write ordering as *memory persistency*.  The paper
discusses how NVWAL would look under hardware that implements:

* **strict persistency** — persist order equals volatile memory order.  No
  flush instructions are needed, but every NVRAM store persists in program
  order, serializing on the NVRAM write latency;
* **epoch (relaxed) persistency** — persist barriers divide persists into
  epochs; persists within an epoch proceed concurrently, and no per-line
  flush instructions are needed.

The authors conjecture (but cannot measure, lacking hardware) that epoch
persistency would beat strict persistency for NVWAL.  Our simulator *can*
measure it: these models replace NVWAL's explicit flush/dmb/persist-barrier
sequences with hardware-enforced equivalents, exercised by the
``ablation_persistency`` benchmark.
"""

from __future__ import annotations

import enum

from repro.hw.cpu import Cpu
from repro.hw.stats import TimeBucket


class PersistencyModel(str, enum.Enum):
    """Which ordering hardware the platform provides."""

    #: Software flushes (dccmvac) + dmb + persist barrier: today's ARM, and
    #: what Algorithm 1 is written for.
    EXPLICIT = "explicit"
    #: Persist order == volatile order; persists serialize.
    STRICT = "strict"
    #: Persist barriers delimit epochs; persists within an epoch overlap.
    EPOCH = "epoch"


class PersistDomain:
    """Applies one persistency model's cost and durability semantics.

    NVWAL reports every NVRAM store to :meth:`after_store` and makes data
    durable with :meth:`flush_ranges`, once per flush phase and once per
    durable commit mark; whether that costs explicit flush and barrier
    instructions is decided here and nowhere else.
    """

    def __init__(self, cpu: Cpu, model: PersistencyModel) -> None:
        self.cpu = cpu
        self.model = model

    # ------------------------------------------------------------------
    # hooks used by NVWAL
    # ------------------------------------------------------------------

    def after_store(self, addr: int, length: int) -> None:
        """Called after every NVRAM store NVWAL performs."""
        if self.model is PersistencyModel.STRICT:
            self._persist_now_serialized(addr, length)

    def flush_ranges(self, ranges: list[tuple[int, int]]) -> None:
        """Make ``(addr, length)`` ranges durable and order them before
        the next store: N flushes, one fence.

        Explicit model: ``dmb``, one flush call per range, ``dmb``, persist
        barrier — and nothing for an empty list, since only what software
        flushes is ordered.  The hardware models track every store
        themselves: ranges are free and the barrier is always issued.
        """
        if self.model is PersistencyModel.EXPLICIT:
            if not ranges:
                return
            self.cpu.dmb()
        for addr, length in ranges:
            self.persist_range(addr, length)
        self.commit_barrier()

    def persist_range(self, addr: int, length: int) -> None:
        """Start [addr, addr+length) on its way to NVRAM.

        Under the explicit model this is one ``cache_line_flush`` call.
        Under strict persistency the data is already durable.  Under epoch
        persistency durability arrives at the next epoch barrier, so this is
        free.
        """
        if self.model is PersistencyModel.EXPLICIT:
            self.cpu.cache_line_flush(addr, addr + length)

    def commit_barrier(self) -> None:
        """Order everything flushed so far before the next store."""
        if self.model is PersistencyModel.EXPLICIT:
            self.cpu.dmb()
            self.cpu.persist_barrier()
        elif self.model is PersistencyModel.EPOCH:
            self._epoch_barrier()
        # strict: ordering already guaranteed, nothing to do

    # ------------------------------------------------------------------
    # model internals
    # ------------------------------------------------------------------

    def _persist_now_serialized(self, addr: int, length: int) -> None:
        """Strict persistency: each line persists in order, full latency."""
        cpu = self.cpu
        lines = cpu.drain(cpu.cache.clean_range(addr, length))
        if not lines:
            return
        latency = cpu.config.nvram.write_latency_ns
        for _ in range(lines):  # line by line: float sums are order-bound
            cpu.clock.advance(latency)
            cpu.stats.add_time(TimeBucket.PERSIST_BARRIER, latency)
        cpu.stats.count("strict_persists", lines)

    def _epoch_barrier(self) -> None:
        """Epoch persistency: drain all dirty lines, pipelined, no
        per-line instruction cost (the hardware tracks the epoch)."""
        cpu = self.cpu
        lines = cpu.drain(cpu.cache.clean_all())
        latency = cpu.config.nvram.write_latency_ns
        interval = latency / cpu.config.cache.pipeline_depth
        if lines:
            cost = latency + interval * (lines - 1)
            cpu.clock.advance(cost)
            cpu.stats.add_time(TimeBucket.PERSIST_BARRIER, cost)
        # The barrier itself still costs the persist-barrier latency.
        cpu.clock.advance(cpu.config.cache.persist_barrier_ns)
        cpu.stats.add_time(
            TimeBucket.PERSIST_BARRIER, cpu.config.cache.persist_barrier_ns
        )
        cpu.stats.count("epoch_barriers")
