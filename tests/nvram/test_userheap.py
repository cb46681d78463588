"""Tests for the user-level NVRAM heap."""

import pytest

from repro import System, tuna
from repro.errors import HeapStateError, OutOfNvram
from repro.hw import stats as statnames
from repro.nvram.heapo import BlockState
from repro.nvram.userheap import UserHeap


@pytest.fixture
def system():
    return System(tuna(), seed=0)


@pytest.fixture
def heap(system):
    return UserHeap(system.heapo, block_size=1024)


def chained_block(heap):
    """Run the full pre-allocate -> link -> commit protocol."""
    alloc = heap.pre_allocate_block()
    heap.commit_block(alloc)
    return alloc


class TestBumpAllocation:
    def test_empty_heap_has_no_space(self, heap):
        assert heap.available_space() == 0
        assert not heap.fits(1)

    def test_allocate_without_block_raises(self, heap):
        with pytest.raises(OutOfNvram):
            heap.allocate(16)

    def test_bump_addresses_are_sequential(self, heap):
        block = chained_block(heap)
        a1 = heap.allocate(100)
        a2 = heap.allocate(50)
        assert a1 == block.addr
        assert a2 == a1 + 100

    def test_fits_respects_remaining_space(self, heap):
        chained_block(heap)
        heap.allocate(1000)
        assert heap.fits(24)
        assert not heap.fits(100)

    def test_allocation_needs_no_syscall(self, system, heap):
        chained_block(heap)
        before = system.stats.snapshot()
        heap.allocate(64)
        delta = system.stats.delta_since(before)
        assert delta.get_count(statnames.NVMALLOC_CALLS) == 0
        assert delta.get_count(statnames.PRE_MALLOC_CALLS) == 0

    def test_reserved_bytes_excluded(self, system):
        heap = UserHeap(system.heapo, block_size=1024)
        alloc = heap.pre_allocate_block()
        heap.commit_block(alloc, reserved=16)
        assert heap.available_space() == alloc.size - 16
        assert heap.allocate(8) == alloc.addr + 16


class TestProtocol:
    def test_pre_allocate_is_pending(self, system, heap):
        alloc = heap.pre_allocate_block()
        assert system.heapo.state_of(alloc.addr) is BlockState.PENDING

    def test_commit_makes_in_use(self, system, heap):
        alloc = heap.pre_allocate_block()
        heap.commit_block(alloc)
        assert system.heapo.state_of(alloc.addr) is BlockState.IN_USE

    def test_multiple_blocks_chain(self, heap):
        b1 = chained_block(heap)
        b2 = chained_block(heap)
        assert heap.blocks == [b1, b2]
        # allocation comes from the newest block
        assert heap.allocate(8) == b2.addr

    def test_adopt_rebinds_existing_block(self, system, heap):
        alloc = system.heapo.nvmalloc(1024)
        heap.adopt(alloc, used=100)
        assert heap.available_space() == alloc.size - 100
        assert heap.allocate(8) == alloc.addr + 100

    def test_adopt_validates_offset(self, system, heap):
        alloc = system.heapo.nvmalloc(1024)
        with pytest.raises(HeapStateError):
            heap.adopt(alloc, used=alloc.size + 1)

    def test_free_all_releases_blocks(self, system, heap):
        chained_block(heap)
        chained_block(heap)
        heap.free_all()
        assert heap.blocks == []
        assert heap.available_space() == 0
        live = [
            a for a in system.heapo.live_allocations() if a.name != "nvwal-root"
        ]
        assert live == []

    def test_bytes_held_tracks_the_block_list(self, system, heap):
        """The running total equals the sum over ``blocks`` through every
        way a block enters or leaves the heap."""

        def held():
            return sum(alloc.size for alloc in heap.blocks)

        assert heap.bytes_held == 0
        chained_block(heap)
        big = heap.pre_allocate_block(size=4096)
        heap.commit_block(big)
        assert heap.bytes_held == held() > 4096
        heap.adopt(system.heapo.nvmalloc(1024), used=0)
        assert heap.bytes_held == held()
        heap.free_all()
        assert heap.bytes_held == held() == 0

    def test_reset_forgets_blocks_without_freeing(self, system, heap):
        alloc = chained_block(heap)
        heap.allocate(8)
        heap.reset()
        assert (heap.blocks, heap.used, heap.bytes_held) == ([], 0, 0)
        assert system.heapo.state_of(alloc.addr) is BlockState.IN_USE

    def test_named_blocks(self, system, heap):
        alloc = heap.pre_allocate_block(name="nvwal-blk")
        assert alloc.name == "nvwal-blk"

    def test_custom_block_size(self, system):
        heap = UserHeap(system.heapo, block_size=4096)
        alloc = heap.pre_allocate_block()
        assert alloc.size >= 4096
