"""Tests for the write-back cache overlay."""

import pytest

from repro.config import CacheConfig, NvramConfig
from repro.errors import AddressError
from repro.hw.cache import CHUNK, CacheHierarchy
from repro.hw.memory import NvramDevice


@pytest.fixture
def nvram():
    return NvramDevice(NvramConfig(size=1 << 16))


@pytest.fixture
def cache(nvram):
    return CacheHierarchy(CacheConfig(line_size=32), nvram)


def test_store_then_load_roundtrip(cache):
    cache.store(100, b"hello")
    assert cache.load(100, 5) == b"hello"


def test_store_is_volatile(cache, nvram):
    cache.store(100, b"hello")
    assert nvram.read(100, 5) == b"\x00" * 5


def test_load_falls_back_to_device(cache, nvram):
    nvram.persist(200, b"durable")
    assert cache.load(200, 7) == b"durable"


def test_store_spanning_lines(cache):
    data = bytes(range(100))
    cache.store(10, data)
    assert cache.load(10, 100) == data
    assert cache.dirty_line_count() == len(cache.lines_covering(10, 100))


def test_line_base(cache):
    assert cache.line_base(0) == 0
    assert cache.line_base(31) == 0
    assert cache.line_base(32) == 32
    assert cache.line_base(95) == 64


def test_lines_covering(cache):
    assert list(cache.lines_covering(0, 32)) == [0]
    assert list(cache.lines_covering(0, 33)) == [0, 32]
    assert list(cache.lines_covering(30, 4)) == [0, 32]
    assert list(cache.lines_covering(64, 0)) == []


def test_clean_line_returns_contents_once(cache):
    cache.store(0, b"abc")
    [(base, snapshot)] = cache.clean_range(0, 3)
    assert base == 0
    assert snapshot[:3] == b"abc"
    assert cache.clean_range(0, 3) == []  # now clean


def test_store_after_clean_redirties(cache):
    cache.store(0, b"abc")
    cache.clean_range(0, 3)
    assert cache.dirty_line_count() == 0
    cache.store(0, b"xyz")
    assert cache.dirty_line_count() == 1


def test_partial_line_store_fills_from_device(cache, nvram):
    nvram.persist(0, b"AAAAAAAA")
    cache.store(4, b"BB")
    assert cache.load(0, 8) == b"AAAABBAA"


def test_dirty_lines_snapshot(cache):
    cache.store(0, b"a")
    cache.store(64, b"b")
    first, second = cache.dirty_runs()
    assert (first.addr, second.addr) == (0, 64)
    assert first.data[0:1] == b"a"
    assert cache.dirty_line_count() == 2  # a snapshot cleans nothing


def test_drop_all_discards_everything(cache, nvram):
    cache.store(0, b"gone")
    cache.drop_all()
    assert cache.load(0, 4) == b"\x00" * 4
    assert cache.dirty_line_count() == 0


def test_evict_oldest_dirty_order(cache):
    cache.store(0, b"a")
    cache.store(64, b"b")
    cache.store(128, b"c")
    [(base, _data)] = cache.evict_oldest(1)
    assert base == 0
    [(base, _data)] = cache.evict_oldest(1)
    assert base == 64


def test_rewrite_refreshes_age(cache):
    cache.store(0, b"a")
    cache.store(64, b"b")
    cache.store(0, b"a2")  # line 0 becomes youngest again
    [(base, _)] = cache.evict_oldest(1)
    assert base == 64


def test_evict_on_empty_returns_none(cache):
    assert cache.evict_oldest(1) == []


def test_out_of_range_store_raises(cache):
    with pytest.raises(AddressError):
        cache.store((1 << 16) - 2, b"toolong")


def test_adjacent_lines_leave_as_one_run(cache):
    cache.store(32, bytes(range(96)))  # lines 32, 64, 96
    cache.store(0, b"z")  # older neighbour dirtied later: not age-adjacent
    runs = cache.evict_oldest(4)
    assert [(run.addr, len(run.data)) for run in runs] == [(32, 96), (0, 32)]
    assert runs[0].data == bytes(range(96))


def test_runs_and_loads_cross_chunk_boundaries():
    device = NvramDevice(NvramConfig(size=2 * CHUNK))
    device.persist(CHUNK - 64, b"\x11" * 128)
    cache = CacheHierarchy(CacheConfig(line_size=32), device)
    data = bytes(range(80))
    cache.store(CHUNK - 40, data)  # partial head and tail lines
    want = b"\x11" * 24 + data + b"\x11" * 24
    assert cache.load(CHUNK - 64, 128) == want
    [run] = cache.clean_range(CHUNK - 64, 128)
    assert run == (CHUNK - 64, want)


def test_partly_resident_load_overlays_resident_runs(cache, nvram):
    nvram.persist(0, b"d" * 256)
    cache.store(40, b"c" * 50)  # lines 32 and 64 resident
    cache.store(200, b"c")  # line 192 resident
    got = cache.load(10, 230)
    want = bytearray(b"d" * 256)
    want[40:90] = b"c" * 50
    want[200:201] = b"c"
    assert got == bytes(want[10:240])


def test_line_size_must_divide_chunk_and_wear_region(nvram):
    with pytest.raises(ValueError):
        CacheHierarchy(CacheConfig(line_size=48), nvram)
    with pytest.raises(ValueError):
        CacheHierarchy(CacheConfig(line_size=512), nvram)
