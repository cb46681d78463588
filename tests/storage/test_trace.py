"""Tests for the block I/O trace recorder."""

from repro.config import BlockDevConfig
from repro.hw.clock import SimClock
from repro.hw.stats import Stats
from repro.storage.blockdev import BlockDevice
from repro.storage.trace import BlockTrace


def test_record_and_filter():
    trace = BlockTrace()
    trace.record(100, "write", 5, 4096, "journal")
    trace.record(200, "write", 9, 4096, "file:test.db")
    trace.record(300, "read", 9, 4096, "file:test.db")
    assert len(trace.writes()) == 2
    assert len(trace.writes("journal")) == 1
    assert len(trace.writes("file:")) == 1


def test_bytes_by_tag():
    trace = BlockTrace()
    trace.record(0, "write", 1, 4096, "journal")
    trace.record(0, "write", 2, 4096, "journal")
    trace.record(0, "write", 3, 4096, "file:x")
    totals = trace.bytes_by_tag()
    assert totals["journal"] == 8192
    assert totals["file:x"] == 4096
    assert trace.total_write_bytes() == 12288


def test_reads_excluded_from_write_totals():
    trace = BlockTrace()
    trace.record(0, "read", 1, 4096, "journal")
    assert trace.total_write_bytes() == 0


def test_series_converts_time_to_seconds():
    trace = BlockTrace()
    trace.record(2e9, "write", 42, 4096, "journal")
    series = trace.series()
    assert series["journal"] == [(2.0, 42)]


def test_disabled_trace_records_nothing():
    """Tracing is off until a trace is installed on the device."""
    device = BlockDevice(BlockDevConfig(num_pages=8), SimClock(), Stats(), seed=0)
    assert device.trace is None
    device.write_page(1, bytes(4096), tag="x")
    device.trace = trace = BlockTrace()
    device.write_page(2, bytes(4096), tag="x")
    device.flush()
    assert [(e.op, e.block) for e in trace.events] == [("write", 2), ("flush", 0)]


def test_clear():
    trace = BlockTrace()
    trace.record(0, "write", 1, 4096, "x")
    trace.clear()
    assert trace.events == []
