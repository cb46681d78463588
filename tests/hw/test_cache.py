"""Tests for the write-back cache overlay."""

import pytest

from repro import System, tuna
from repro.config import CacheConfig, NvramConfig
from repro.errors import AddressError
from repro.hw import stats as statnames
from repro.hw.cache import CHUNK, CacheHierarchy
from repro.hw.memory import NvramDevice
from repro.hw.stats import TimeBucket


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


def evicted_bases(cache, count):
    """Line bases in the order ``evict_oldest(count)`` gives them up."""
    return [
        run.addr + offset
        for run in cache.evict_oldest(count)
        for offset in range(0, len(run.data), cache.line_size)
    ]


def test_redirtying_the_middle_keeps_both_remainders_at_the_old_age(cache):
    cache.store(0, bytes(5 * 32))  # lines 0..128, the oldest extent
    cache.store(320, b"y")  # a younger line elsewhere
    cache.store(64, b"m")  # line 64 again: cut out of the middle
    assert cache.dirty_line_count() == 6
    # both halves of the old extent still leave before the younger lines
    assert evicted_bases(cache, 6) == [0, 32, 96, 128, 320, 64]
    assert cache.dirty_line_count() == 0


def test_evict_oldest_can_end_inside_an_extent(cache):
    cache.store(0, bytes(range(128)))  # lines 0..96
    cache.store(256, bytes(64))  # lines 256, 288
    [run] = cache.evict_oldest(3)
    assert run == (0, bytes(range(96)))
    assert cache.dirty_line_count() == 3
    assert [(r.addr, len(r.data)) for r in cache.dirty_runs()] == [(96, 32), (256, 64)]
    assert evicted_bases(cache, 2) == [96, 256]  # whole extent, then a head
    assert evicted_bases(cache, 5) == [288]  # asking for more than there is
    assert cache.dirty_line_count() == 0


def test_store_joins_only_the_youngest_extent(cache):
    cache.store(0, bytes(64))  # lines 0, 32
    cache.store(64, bytes(32))  # address successor of the youngest: joins
    assert [(r.addr, len(r.data)) for r in cache.dirty_runs()] == [(0, 96)]
    cache.store(512, b"z")  # now (0, 96) is no longer the youngest
    cache.store(96, b"a")  # adjacent to the *older* extent: must not join
    assert [(r.addr, len(r.data)) for r in cache.dirty_runs()] == [
        (0, 96), (512, 32), (96, 32),
    ]
    assert evicted_bases(cache, 5) == [0, 32, 64, 512, 96]


def test_store_before_the_youngest_extent_does_not_join(cache):
    cache.store(64, b"b")
    cache.store(32, b"a")  # address predecessor: younger, so not one extent
    assert evicted_bases(cache, 2) == [64, 32]


def test_undirty_returns_the_pieces_and_leaves_remainders_in_place(cache):
    cache.store(0, bytes(4 * 32))  # (0, 128)
    cache.store(256, bytes(2 * 32))  # (256, 320)
    assert cache.undirty(128, 256) == []  # clean gap: nothing to cut
    assert cache.undirty(96, 288) == [(96, 128), (256, 288)]
    assert cache.dirty_line_count() == 4
    assert cache.undirty(32, 64) == [(32, 64)]
    assert evicted_bases(cache, 4) == [0, 64, 288]


def test_clean_range_and_clean_all_are_address_ordered(cache):
    cache.store(128, bytes(64))  # (128, 192), oldest
    cache.store(64, bytes(64))  # (64, 128), younger but lower
    cache.store(320, b"x")
    runs = cache.clean_range(70, 90)  # lines 64, 96 and 128
    assert [(r.addr, len(r.data)) for r in runs] == [(64, 96)]  # joined
    assert cache.dirty_line_count() == 2
    cache.store(0, b"y")
    assert [(r.addr, len(r.data)) for r in cache.clean_all()] == [
        (0, 32), (160, 32), (320, 32),
    ]
    assert cache.dirty_line_count() == 0 and cache.dirty_runs() == []


# -- the flush walk over the extent list ----------------------------------
#
# Eight lines: clean, two dirtied *last*, clean, two dirtied *first*, two
# clean — so address order and age order disagree.

DIRTY = (1, 2, 4, 5)


@pytest.fixture
def system():
    return System(tuna(), seed=0)


def mixed_range(system):
    line = system.cache.line_size
    base = system.heapo.heap_start + 4096
    system.cpu.store(base + 4 * line, b"o" * (2 * line))  # old
    system.cpu.store(base + 1 * line, b"y" * (2 * line))  # young
    return base, line


def test_flush_over_clean_and_dirty_lines_queues_address_ordered_runs(system):
    base, line = mixed_range(system)
    cfg = system.config
    interval = cfg.nvram.write_latency_ns / cfg.cache.pipeline_depth
    start = system.clock.now_ns
    system.cpu.cache_line_flush(base, base + 8 * line)
    assert system.cpu.pending == [
        (base + 1 * line, b"y" * (2 * line)),
        (base + 4 * line, b"o" * (2 * line)),
    ]
    assert system.cache.dirty_line_count() == 0
    assert system.stats.get_count(statnames.FLUSHES) == 8
    # every line pays the instruction, only the four dirty ones the stall
    want = 8 * cfg.cache.flush_issue_ns + len(DIRTY) * interval
    assert system.stats.get_time(TimeBucket.DCCMVAC) == pytest.approx(want)
    assert system.clock.now_ns - start == pytest.approx(cfg.cache.syscall_ns + want)


@pytest.mark.parametrize("k", range(1, 9))
def test_hook_raising_at_kth_dccmvac_leaves_k_minus_1_lines_retired(system, k):
    base, line = mixed_range(system)
    seen = []

    def hook(op):
        seen.append(op)
        if seen.count("dccmvac") == k:
            raise RuntimeError("cut")

    system.cpu.crash_hook = hook
    with pytest.raises(RuntimeError):
        system.cpu.cache_line_flush(base, base + 8 * line)
    retired = [i for i in DIRTY if i < k - 1]
    assert system.stats.get_count(statnames.FLUSHES) == k - 1
    assert [run.addr for run in system.cpu.pending] == [
        base + i * line for i in retired
    ]
    assert system.cache.dirty_line_count() == len(DIRTY) - len(retired)
    cfg = system.config
    interval = cfg.nvram.write_latency_ns / cfg.cache.pipeline_depth
    assert system.stats.get_time(TimeBucket.DCCMVAC) == pytest.approx(
        (k - 1) * cfg.cache.flush_issue_ns + len(retired) * interval
    )


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
