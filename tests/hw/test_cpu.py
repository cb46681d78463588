"""Tests for the CPU model: flush pipeline, barriers, durability tiers."""

import pytest

from repro import System, tuna
from repro.hw import stats as statnames
from repro.hw.stats import TimeBucket


@pytest.fixture
def system():
    return System(tuna(), seed=0)


def addr_base(system):
    """A scratch NVRAM address well clear of heap metadata."""
    return system.heapo.heap_start + 4096


class TestMemcpy:
    def test_memcpy_visible_through_cache(self, system):
        addr = addr_base(system)
        system.cpu.memcpy(addr, b"payload")
        assert system.cpu.load_free(addr, 7) == b"payload"

    def test_memcpy_not_durable(self, system):
        addr = addr_base(system)
        system.cpu.memcpy(addr, b"payload")
        assert system.nvram.read(addr, 7) == bytes(7)

    def test_memcpy_charges_time(self, system):
        before = system.clock.now_ns
        system.cpu.memcpy(addr_base(system), b"x" * 1000)
        assert system.clock.now_ns > before
        assert system.stats.get_time(TimeBucket.MEMCPY) > 0

    def test_memcpy_counts_bytes(self, system):
        system.cpu.memcpy(addr_base(system), b"x" * 123)
        assert system.stats.get_count("memcpy_bytes") == 123


class TestFlushAndBarriers:
    def test_flush_alone_is_not_durable(self, system):
        addr = addr_base(system)
        system.cpu.memcpy(addr, b"data1234")
        system.cpu.cache_line_flush(addr, addr + 8)
        system.cpu.dmb()
        # still in the memory subsystem (tier 2), not on the device
        assert system.nvram.read(addr, 8) == bytes(8)

    def test_persist_barrier_makes_durable(self, system):
        addr = addr_base(system)
        system.cpu.memcpy(addr, b"data1234")
        system.cpu.cache_line_flush(addr, addr + 8)
        system.cpu.dmb()
        system.cpu.persist_barrier()
        assert system.nvram.read(addr, 8) == b"data1234"

    def test_unflushed_data_survives_only_in_cache(self, system):
        addr = addr_base(system)
        system.cpu.memcpy(addr, b"data1234")
        system.cpu.persist_barrier()  # nothing was flushed
        assert system.nvram.read(addr, 8) == bytes(8)

    def test_store_after_flush_needs_new_flush(self, system):
        addr = addr_base(system)
        system.cpu.memcpy(addr, b"AAAAAAAA")
        system.cpu.cache_line_flush(addr, addr + 8)
        system.cpu.store(addr, b"BBBBBBBB")  # re-dirties after snapshot
        system.cpu.persist_barrier()
        assert system.nvram.read(addr, 8) == b"AAAAAAAA"
        system.cpu.cache_line_flush(addr, addr + 8)
        system.cpu.persist_barrier()
        assert system.nvram.read(addr, 8) == b"BBBBBBBB"

    def test_flush_counts_instructions_per_line(self, system):
        addr = addr_base(system)
        line = system.config.cache.line_size
        system.cpu.memcpy(addr, b"z" * (line * 3))
        system.cpu.cache_line_flush(addr, addr + line * 3)
        assert system.stats.get_count(statnames.FLUSHES) == 3
        assert system.stats.get_count(statnames.FLUSH_CALLS) == 1

    def test_flush_charges_syscall_once_per_call(self, system):
        addr = addr_base(system)
        system.cpu.cache_line_flush(addr, addr + 256)
        assert (
            system.stats.get_time(TimeBucket.SYSCALL)
            == system.config.cache.syscall_ns
        )

    def test_dmb_waits_for_pipeline(self, system):
        addr = addr_base(system)
        line = system.config.cache.line_size
        system.cpu.memcpy(addr, b"q" * line)
        system.cpu.cache_line_flush(addr, addr + line)
        before = system.clock.now_ns
        system.cpu.dmb()
        waited = system.clock.now_ns - before
        # must wait at least most of one NVRAM write latency
        assert waited >= system.config.cache.dmb_ns

    def test_persist_barrier_costs_at_least_1us(self, system):
        before = system.clock.now_ns
        system.cpu.persist_barrier()
        assert system.clock.now_ns - before >= 1000


class TestPipelineTiming:
    def test_batched_flushes_cheaper_than_barriered(self):
        """Lazy's core claim: N flushes + 1 barrier < N * (flush+barrier)."""
        lazy = System(tuna(), seed=0)
        eager = System(tuna(), seed=0)
        line = lazy.config.cache.line_size
        n = 16

        addr = addr_base(lazy)
        for i in range(n):
            lazy.cpu.memcpy(addr + i * line, b"x" * line)
        start = lazy.clock.now_ns
        lazy.cpu.dmb()
        lazy.cpu.cache_line_flush(addr, addr + n * line)
        lazy.cpu.dmb()
        lazy.cpu.persist_barrier()
        lazy_cost = lazy.clock.now_ns - start

        addr = addr_base(eager)
        for i in range(n):
            eager.cpu.memcpy(addr + i * line, b"x" * line)
        start = eager.clock.now_ns
        for i in range(n):
            eager.cpu.dmb()
            eager.cpu.cache_line_flush(addr + i * line, addr + (i + 1) * line)
            eager.cpu.dmb()
            eager.cpu.persist_barrier()
        eager_cost = eager.clock.now_ns - start

        assert lazy_cost < eager_cost

    def test_flushing_clean_line_is_cheaper(self, system):
        addr = addr_base(system)
        line = system.config.cache.line_size
        system.cpu.memcpy(addr, b"x" * line)
        t0 = system.clock.now_ns
        system.cpu.dccmvac(addr)  # dirty: issue + backpressure
        dirty_cost = system.clock.now_ns - t0
        t0 = system.clock.now_ns
        system.cpu.dccmvac(addr)  # now clean: issue only
        clean_cost = system.clock.now_ns - t0
        assert clean_cost < dirty_cost

    def test_dccmvac_cleans_the_line_containing_the_address(self, system):
        """``DC CVAC`` takes any VA inside the line, not only its base."""
        addr = addr_base(system)
        system.cpu.store(addr + 5, b"mark")
        system.cpu.dccmvac(addr + 5)
        system.cpu.dmb()
        system.cpu.persist_barrier()
        assert system.nvram.read(addr + 5, 4) == b"mark"
        assert system.stats.get_count(statnames.FLUSHES) == 1
        assert system.cache.dirty_line_count() == 0


class TestEviction:
    def test_eviction_caps_dirty_lines(self, system):
        addr = addr_base(system)
        line = system.config.cache.line_size
        threshold = system.config.cache.eviction_threshold_lines
        system.cpu.memcpy(addr, b"e" * (line * (threshold + 50)))
        assert system.cache.dirty_line_count() <= threshold
        assert system.stats.get_count("cache_evictions") >= 50

    def test_evicted_lines_persist_at_barrier(self, system):
        addr = addr_base(system)
        line = system.config.cache.line_size
        threshold = system.config.cache.eviction_threshold_lines
        total = line * (threshold + 10)
        system.cpu.memcpy(addr, b"e" * total)
        system.cpu.persist_barrier()
        # the evicted prefix reached the device via the barrier
        assert system.nvram.read(addr, line) == b"e" * line


class TestCompute:
    def test_compute_advances_clock(self, system):
        system.cpu.compute(5000)
        assert system.clock.now_ns >= 5000

    def test_compute_zero_is_noop(self, system):
        before = system.clock.now_ns
        system.cpu.compute(0)
        assert system.clock.now_ns == before

    def test_load_charges_read_latency(self, system):
        before = system.clock.now_ns
        system.cpu.load(addr_base(system), 64)
        assert system.clock.now_ns > before
