"""Tests for the System facade."""

import pytest

from repro import System, nexus5, tuna


def test_wiring():
    system = System(tuna(), seed=0)
    assert system.cpu.cache is system.cache
    assert system.cpu.nvram is system.nvram
    assert system.fs.device is system.blockdev
    assert system.blockdev.trace is None  # block tracing is opt-in


def test_page_size_property():
    assert System(tuna()).page_size == 4096


def test_elapsed_seconds():
    system = System(tuna())
    start = system.elapsed_seconds()
    system.clock.advance(2e9)
    assert system.elapsed_seconds() - start == pytest.approx(2.0)


def test_repr_mentions_profile_and_latency():
    text = repr(System(nexus5(write_latency_ns=47000)))
    assert "nexus5" in text
    assert "47000" in text


def test_power_fail_then_reboot_preserves_durable_state():
    system = System(tuna(), seed=0)
    f = system.fs.create("file")
    f.write(0, b"durable")
    f.fsync()
    system.heapo.nvmalloc(64, name="thing")
    system.power_fail()
    system.reboot()
    assert system.fs.open("file").read(0, 7) == b"durable"
    assert system.heapo.lookup("thing") is not None


def test_reboot_returns_reclaimed_pending_blocks():
    system = System(tuna(), seed=0)
    pending = system.heapo.nv_pre_malloc(128)
    system.power_fail()
    assert system.reboot() == [pending.addr]


def test_clock_continues_across_reboot():
    system = System(tuna(), seed=0)
    system.clock.advance(1000)
    before = system.clock.now_ns
    system.power_fail()
    system.reboot()
    assert system.clock.now_ns >= before
