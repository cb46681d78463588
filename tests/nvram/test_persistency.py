"""Tests for the strict/epoch persistency models (Section 4.4)."""

import pytest

from repro import System, tuna
from repro.nvram.persistency import PersistDomain, PersistencyModel


@pytest.fixture
def system():
    return System(tuna(), seed=0)


def scratch(system):
    return system.heapo.heap_start + 16384


class TestStrict:
    def test_stores_are_immediately_durable(self, system):
        domain = PersistDomain(system.cpu, PersistencyModel.STRICT)
        addr = scratch(system)
        system.cpu.memcpy(addr, b"strictpersist!!!")
        domain.after_store(addr, 16)
        assert system.nvram.read(addr, 16) == b"strictpersist!!!"

    def test_no_flush_instructions_needed(self, system):
        domain = PersistDomain(system.cpu, PersistencyModel.STRICT)
        addr = scratch(system)
        system.cpu.memcpy(addr, b"x" * 64)
        domain.after_store(addr, 64)
        domain.persist_range(addr, 64)  # no-op under strict
        domain.commit_barrier()  # no-op under strict
        assert system.stats.get_count("cache_line_flush_syscalls") == 0

    def test_persists_serialize_on_latency(self, system):
        domain = PersistDomain(system.cpu, PersistencyModel.STRICT)
        addr = scratch(system)
        line = system.config.cache.line_size
        n = 8
        system.cpu.memcpy(addr, b"y" * (line * n))
        before = system.clock.now_ns
        domain.after_store(addr, line * n)
        elapsed = system.clock.now_ns - before
        assert elapsed >= n * system.config.nvram.write_latency_ns

    def test_strict_persists_count_as_nvram_writes(self, system):
        """Strict drains go through the persist barrier's drain primitive,
        so they show up in the same NVRAM byte/line counters (the §4.4
        ablation used to report zero NVRAM bytes for this model)."""
        domain = PersistDomain(system.cpu, PersistencyModel.STRICT)
        addr = scratch(system)
        line = system.config.cache.line_size
        system.cpu.memcpy(addr + 5, b"y" * (line * 3))  # straddles 4 lines
        domain.after_store(addr + 5, line * 3)
        assert system.stats.get_count("strict_persists") == 4
        assert system.stats.get_count("nvram_lines_persisted") == 4
        assert system.stats.get_count("nvram_bytes_written") == 4 * line
        domain.after_store(addr + 5, line * 3)  # now clean: nothing to write
        assert system.stats.get_count("nvram_lines_persisted") == 4
        assert system.nvram.wear_stats()["max"] >= 1


class TestEpoch:
    def test_durable_only_after_barrier(self, system):
        domain = PersistDomain(system.cpu, PersistencyModel.EPOCH)
        addr = scratch(system)
        system.cpu.memcpy(addr, b"epochdata")
        domain.after_store(addr, 9)
        assert system.nvram.read(addr, 9) == bytes(9)
        domain.commit_barrier()
        assert system.nvram.read(addr, 9) == b"epochdata"

    def test_epoch_cheaper_than_strict(self, system):
        line = system.config.cache.line_size
        n = 16

        strict = System(tuna(), seed=0)
        domain = PersistDomain(strict.cpu, PersistencyModel.STRICT)
        addr = scratch(strict)
        strict.cpu.memcpy(addr, b"z" * (line * n))
        t0 = strict.clock.now_ns
        domain.after_store(addr, line * n)
        strict_cost = strict.clock.now_ns - t0

        epoch = System(tuna(), seed=0)
        domain = PersistDomain(epoch.cpu, PersistencyModel.EPOCH)
        addr = scratch(epoch)
        epoch.cpu.memcpy(addr, b"z" * (line * n))
        t0 = epoch.clock.now_ns
        domain.commit_barrier()
        epoch_cost = epoch.clock.now_ns - t0

        assert epoch_cost < strict_cost

    def test_counts_epoch_barriers(self, system):
        domain = PersistDomain(system.cpu, PersistencyModel.EPOCH)
        addr = scratch(system)
        system.cpu.memcpy(addr, b"q")
        domain.commit_barrier()
        assert system.stats.get_count("epoch_barriers") == 1

    def test_epoch_drain_counts_as_nvram_writes(self, system):
        domain = PersistDomain(system.cpu, PersistencyModel.EPOCH)
        addr = scratch(system)
        line = system.config.cache.line_size
        system.cpu.memcpy(addr, b"q" * (2 * line))
        system.cpu.memcpy(addr + 10 * line, b"r")  # a second, separate run
        domain.commit_barrier()
        assert system.stats.get_count("nvram_lines_persisted") == 3
        assert system.stats.get_count("nvram_bytes_written") == 3 * line
        assert system.cache.dirty_line_count() == 0
        domain.commit_barrier()  # empty epoch: barrier cost only
        assert system.stats.get_count("nvram_lines_persisted") == 3
        assert system.stats.get_count("epoch_barriers") == 2


class TestExplicit:
    def test_persist_range_issues_flush_syscall(self, system):
        domain = PersistDomain(system.cpu, PersistencyModel.EXPLICIT)
        addr = scratch(system)
        system.cpu.memcpy(addr, b"explicit")
        domain.persist_range(addr, 8)
        assert system.stats.get_count("cache_line_flush_syscalls") == 1

    def test_commit_barrier_is_dmb_plus_persist(self, system):
        domain = PersistDomain(system.cpu, PersistencyModel.EXPLICIT)
        domain.commit_barrier()
        assert system.stats.get_count("dmb_instructions") == 1
        assert system.stats.get_count("persist_barriers") == 1

    def test_all_models_write_the_same_nvram_bytes(self):
        """Same stores, same durable lines: the three models differ in when
        and at what cost lines persist, not in how many bytes reach NVRAM."""
        written = {}
        for model in PersistencyModel:
            system = System(tuna(), seed=0)
            domain = PersistDomain(system.cpu, model)
            addr = scratch(system)
            system.cpu.memcpy(addr + 3, b"m" * 500)
            domain.after_store(addr + 3, 500)
            domain.persist_range(addr + 3, 500)
            domain.commit_barrier()
            assert system.nvram.read(addr + 3, 500) == b"m" * 500
            written[model] = (
                system.stats.get_count("nvram_bytes_written"),
                system.stats.get_count("nvram_lines_persisted"),
            )
        assert len(set(written.values())) == 1
        assert written[PersistencyModel.EXPLICIT][0] > 0
