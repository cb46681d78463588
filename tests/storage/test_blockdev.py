"""Tests for the eMMC block device model."""

import pytest

from repro.config import BlockDevConfig
from repro.errors import AddressError
from repro.hw.clock import SimClock
from repro.hw.crash import ALL
from repro.hw.stats import Stats, TimeBucket
from repro.storage.blockdev import BlockDevice
from repro.storage.trace import BlockTrace


@pytest.fixture
def device():
    return BlockDevice(BlockDevConfig(num_pages=64), SimClock(), Stats(), seed=1)


def page(fill, size=4096):
    return bytes([fill]) * size


class TestDataPath:
    def test_write_read_roundtrip(self, device):
        device.write_page(3, page(0xAB))
        assert device.read_page(3) == page(0xAB)

    def test_unwritten_pages_read_zero(self, device):
        assert device.read_page(5) == bytes(4096)

    def test_write_requires_full_page(self, device):
        with pytest.raises(AddressError):
            device.write_page(0, b"short")

    def test_out_of_range(self, device):
        with pytest.raises(AddressError):
            device.write_page(64, page(1))
        with pytest.raises(AddressError):
            device.read_page(-1)

    def test_write_charges_latency(self, device):
        before = device.clock.now_ns
        device.write_page(0, page(1))
        assert device.clock.now_ns - before == device.config.write_latency_ns

    def test_flush_charges_latency(self, device):
        before = device.clock.now_ns
        device.flush()
        assert device.clock.now_ns - before == device.config.flush_cmd_ns

    def test_io_time_bucketed(self, device):
        device.write_page(0, page(1))
        assert device.stats.get_time(TimeBucket.BLOCK_IO) > 0

    def test_trace_records_writes(self, device):
        device.trace = BlockTrace()
        device.write_page(7, page(2), tag="journal")
        writes = device.trace.writes("journal")
        assert len(writes) == 1
        assert writes[0].block == 7


class TestCrashSemantics:
    def test_cached_writes_lost_without_flush(self, device):
        device.write_page(1, page(0x11))
        device.power_fail(landed=())
        assert device.read_page(1) == bytes(4096)

    def test_flushed_writes_survive(self, device):
        device.write_page(1, page(0x22))
        device.flush()
        device.power_fail(landed=())
        assert device.read_page(1) == page(0x22)

    def test_cached_writes_may_land(self, device):
        device.write_page(1, page(0x33))
        device.power_fail(landed=ALL)
        assert device.read_page(1) == page(0x33)

    def test_cache_counter(self, device):
        device.write_page(1, page(1))
        device.write_page(2, page(2))
        assert device.cached_page_count() == 2
        device.flush()
        assert device.cached_page_count() == 0

    def test_read_sees_cache_before_flush(self, device):
        device.write_page(1, page(0x44))
        assert device.read_page(1) == page(0x44)
