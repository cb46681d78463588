"""Tests for power-failure semantics and crash injection."""

import random

import pytest

from repro import System, tuna
from repro.config import BlockDevConfig
from repro.errors import PowerFailure, StorageError
from repro.faults import FaultPlan, MediaFaultSpec
from repro.hw import crash
from repro.hw.clock import SimClock
from repro.hw.crash import ALL
from repro.hw.stats import Stats
from repro.replication.cluster import Cluster, ReplicationConfig
from repro.storage import blockdev
from repro.storage.blockdev import BlockDevice


def scratch(system):
    return system.heapo.heap_start + 8192


def durable_system():
    return System(tuna(), seed=123)


class TestPowerLoss:
    def test_durable_bytes_survive(self, ):
        system = durable_system()
        addr = scratch(system)
        system.cpu.memcpy(addr, b"keepthis")
        system.cpu.cache_line_flush(addr, addr + 8)
        system.cpu.dmb()
        system.cpu.persist_barrier()
        system.crash.apply_power_loss(landed=())
        assert system.nvram.read(addr, 8) == b"keepthis"

    def test_volatile_bytes_lost_when_none_land(self):
        system = durable_system()
        addr = scratch(system)
        system.cpu.memcpy(addr, b"volatile")
        system.crash.apply_power_loss(landed=())
        assert system.nvram.read(addr, 8) == bytes(8)

    def test_volatile_bytes_land_when_all_land(self):
        system = durable_system()
        addr = scratch(system)
        system.cpu.memcpy(addr, b"landsall")
        system.crash.apply_power_loss(landed=ALL)
        assert system.nvram.read(addr, 8) == b"landsall"

    def test_flushed_unbarriered_bytes_also_gamble(self):
        system = durable_system()
        addr = scratch(system)
        system.cpu.memcpy(addr, b"inflight")
        system.cpu.cache_line_flush(addr, addr + 8)
        system.cpu.dmb()  # reached tier 2, no persist barrier
        system.crash.apply_power_loss(landed=())
        assert system.nvram.read(addr, 8) == bytes(8)

    def test_partial_landing_is_8_byte_atomic(self):
        """Every other unit of a 64-byte line lands: whole 8-byte units
        alternate with untouched zeros, none torn inside."""
        system = durable_system()
        addr = scratch(system)
        pattern = bytes(range(1, 65))
        system.cpu.memcpy(addr, pattern)
        system.crash.apply_power_loss(landed={0, 2, 4, 6})
        want = b"".join(
            pattern[unit : unit + 8] if unit % 16 == 0 else bytes(8)
            for unit in range(0, 64, 8)
        )
        assert system.nvram.read(addr, 64) == want

    def test_power_loss_clears_volatile_state(self):
        system = durable_system()
        addr = scratch(system)
        system.cpu.memcpy(addr, b"x" * 64)
        system.crash.apply_power_loss()
        assert system.cache.dirty_line_count() == 0
        assert not system.cpu.pending

    def test_deterministic_per_seed(self):
        images = []
        for _ in range(2):
            system = System(tuna(), seed=77)
            addr = scratch(system)
            system.cpu.memcpy(addr, bytes(range(200)) + bytes(56))
            system.crash.apply_power_loss()
            images.append(system.nvram.read(addr, 256))
        assert images[0] == images[1]

    def test_power_loss_idempotent_when_already_off(self):
        """Cutting power on a dead machine is a no-op: no volatile state
        can land, and the RNG stream must not be perturbed."""
        system = durable_system()
        addr = scratch(system)
        system.cpu.memcpy(addr, b"y" * 64)
        system.crash.apply_power_loss()
        assert system.crash.powered_off
        image = system.nvram.read(addr, 64)
        rng_state = system.crash.rng.getstate()
        system.crash.apply_power_loss()  # second cut: nothing changes
        assert system.nvram.read(addr, 64) == image
        assert system.crash.rng.getstate() == rng_state

    def test_power_on_rearms_power_loss(self):
        system = durable_system()
        addr = scratch(system)
        system.crash.apply_power_loss(landed=ALL)
        system.crash.power_on()
        assert not system.crash.powered_off
        system.cpu.memcpy(addr, b"afterwrd")
        system.crash.apply_power_loss(landed=ALL)
        assert system.nvram.read(addr, 8) == b"afterwrd"

    def test_system_power_fail_idempotent(self):
        """system.power_fail() twice in a row behaves like once: the
        eMMC landing lottery and media decay are not re-drawn."""
        system = System(tuna(), seed=9)
        system.fs.create("f").write(0, b"payload")
        system.power_fail()
        durable = dict(system.blockdev._durable)
        rng_state = system.crash.rng.getstate()
        system.power_fail()
        assert system.blockdev._durable == durable
        assert system.crash.rng.getstate() == rng_state


class TestOneCut:
    """A power cut is one event: an armed crash firing at op N cuts the
    whole machine, and ``System.power_fail()`` afterwards is a no-op."""

    def test_armed_crash_cuts_the_whole_machine(self):
        system = System(tuna(), seed=9)
        system.inject_faults(
            FaultPlan(seed=4, media=MediaFaultSpec(bit_flips=1, stuck_units=1))
        )
        decay = system.nvram.fault_injector
        addr = scratch(system)
        system.cpu.memcpy(addr, b"durable!" * 8)
        system.cpu.cache_line_flush(addr, addr + 64)
        system.cpu.dmb()
        system.cpu.persist_barrier()
        free_page = system.blockdev.num_pages - 1  # allocation is lowest-first
        system.blockdev.write_page(free_page, b"\xAB" * system.config.page_size)
        assert system.blockdev.cached_page_count() == 1
        system.crash.arm(after_ops=1)
        with pytest.raises(PowerFailure):
            system.cpu.memcpy(addr, b"lost")
        assert system.crash.powered_off
        assert system.blockdev.cached_page_count() == 0
        assert decay.flipped and decay.stuck
        with pytest.raises(StorageError, match="not mounted"):
            system.fs.create("f")

        rng_state = system.crash.rng.getstate()
        decay_state = decay.rng.getstate()
        image = system.nvram.durable_image()
        durable = dict(system.blockdev._durable)
        system.power_fail()
        assert system.crash.rng.getstate() == rng_state
        assert decay.rng.getstate() == decay_state
        assert system.nvram.durable_image() == image
        assert system.blockdev._durable == durable

        system.reboot()
        assert not system.crash.powered_off
        system.fs.create("f")

    def test_killed_primary_node_is_dead_until_restart(self):
        cluster = Cluster(ReplicationConfig(followers=2), seed=5)
        cluster.kill_primary()
        node, _watermark, _scrub = cluster.promote()
        assert node.alive
        cluster.kill_primary()
        assert not node.alive
        node.restart()
        assert node.alive


def recording_lottery(monkeypatch, module):
    """Wrap ``module.landed_units``; returns the list of subsets it picks."""
    picks = []
    lottery = module.landed_units

    def record(n, rng, landed=None):
        picks.append(lottery(n, rng, landed))
        return picks[-1]

    monkeypatch.setattr(module, "landed_units", record)
    return picks


class TestLotteryReplay:
    """The seeded lottery is one landed subset: passing the indexes it
    picked as ``landed`` rebuilds the very same crash state."""

    @staticmethod
    def cpu_image(landed=None):
        system = System(tuna(), seed=31)
        addr = scratch(system)
        system.cpu.memcpy(addr, bytes(range(1, 161)))
        system.cpu.cache_line_flush(addr, addr + 64)
        system.cpu.dmb()  # 8 units queued in tier 2 ...
        system.cpu.memcpy(addr + 512, b"\xEE" * 40)  # ... 20 dirty in tier 1
        system.crash.apply_power_loss(landed)
        return system.nvram.durable_image()

    @staticmethod
    def device_pages(landed=None):
        device = BlockDevice(
            BlockDevConfig(num_pages=64), SimClock(), Stats(), seed=31
        )
        for pno in (9, 2, 40, 5, 17, 33, 1, 60):
            device.write_page(pno, bytes([pno]) * device.page_size)
        device.flush()
        for pno in (7, 2, 50, 3, 41, 12, 29, 8, 63, 20):
            device.write_page(pno, bytes([pno | 0x80]) * device.page_size)
        device.power_fail(landed)
        return dict(device._durable)

    def test_cpu_tier(self, monkeypatch):
        picks = recording_lottery(monkeypatch, crash)
        image = self.cpu_image()
        (landed,) = picks
        assert 0 < len(landed) < 28  # a real mix of the 28 units
        assert self.cpu_image(set(landed)) == image

    def test_block_tier(self, monkeypatch):
        picks = recording_lottery(monkeypatch, blockdev)
        pages = self.device_pages()
        (landed,) = picks
        assert 0 < len(landed) < 10
        assert self.device_pages(set(landed)) == pages


class TestInjection:
    def test_arm_fires_after_n_ops(self):
        system = System(tuna(), seed=0)
        addr = scratch(system)
        system.crash.arm(after_ops=3, op_filter=lambda op: op == "memcpy")
        system.cpu.memcpy(addr, b"1")
        system.cpu.memcpy(addr, b"2")
        with pytest.raises(PowerFailure):
            system.cpu.memcpy(addr, b"3")

    def test_filter_ignores_other_ops(self):
        system = System(tuna(), seed=0)
        addr = scratch(system)
        system.crash.arm(after_ops=1, op_filter=lambda op: op == "persist_barrier")
        system.cpu.memcpy(addr, b"x")
        system.cpu.dmb()
        with pytest.raises(PowerFailure):
            system.cpu.persist_barrier()

    def test_disarm_cancels(self):
        system = System(tuna(), seed=0)
        addr = scratch(system)
        system.crash.arm(after_ops=1)
        system.crash.disarm()
        system.cpu.memcpy(addr, b"safe")  # does not raise

    def test_count_ops_counts_without_crashing(self):
        system = System(tuna(), seed=0)
        addr = scratch(system)

        def work():
            system.cpu.memcpy(addr, b"a")
            system.cpu.dmb()
            system.cpu.memcpy(addr, b"b")

        n = system.crash.count_ops(work, op_filter=lambda op: op == "memcpy")
        assert n == 2

    def test_counting_reports_the_running_count_mid_run(self):
        system = System(tuna(), seed=0)
        addr = scratch(system)
        seen = []
        with system.crash.counting():
            assert system.cpu.crash_hook is not None
            system.cpu.memcpy(addr, b"a")
            seen.append(system.crash.ops_counted)
            system.cpu.dmb()
            system.cpu.persist_barrier()
            seen.append(system.crash.ops_counted)
        assert seen == [1, 3]
        assert system.crash.ops_counted == 3  # still readable afterwards
        # Outside arming / counting no hook is installed (a set hook makes
        # the CPU single-step flush ranges).
        assert system.cpu.crash_hook is None

    def test_counting_restores_a_previously_installed_hook(self):
        system = System(tuna(), seed=0)
        addr = scratch(system)
        foreign_ops = []
        system.cpu.crash_hook = foreign_ops.append
        with pytest.raises(RuntimeError):
            with system.crash.counting():
                system.cpu.memcpy(addr, b"a")
                raise RuntimeError("the counted code blew up")
        assert system.cpu.crash_hook == foreign_ops.append
        system.cpu.dmb()
        assert foreign_ops == ["dmb"]
        assert system.crash.ops_counted == 1

    def test_arm_inside_a_counting_block_fires_at_the_right_op(self):
        system = System(tuna(), seed=0)
        addr = scratch(system)
        with system.crash.counting():
            system.cpu.memcpy(addr, b"1")
            system.crash.arm(after_ops=2, op_filter=lambda op: op == "memcpy")
            system.cpu.dmb()  # counted, but not a step toward the crash
            system.cpu.memcpy(addr, b"2")
            with pytest.raises(PowerFailure):
                system.cpu.memcpy(addr, b"3")
            # Firing disarms, yet the count goes on to the end of the block.
            system.cpu.dmb()
            assert system.crash.ops_counted == 5
        assert system.cpu.crash_hook is None

    def test_injection_armed_before_counting_survives_the_block(self):
        system = System(tuna(), seed=0)
        addr = scratch(system)
        system.crash.arm(after_ops=2)
        with system.crash.counting():
            system.cpu.memcpy(addr, b"1")
        assert system.crash.ops_counted == 1
        with pytest.raises(PowerFailure):
            system.cpu.memcpy(addr, b"2")
        assert system.cpu.crash_hook is None

    def test_reboot_after_power_fail_restores_services(self):
        system = System(tuna(), seed=0)
        system.power_fail()
        system.reboot()
        # filesystem mounted again and heap attached
        assert system.fs.list_names() == []
        assert system.heapo.live_allocations() == []
