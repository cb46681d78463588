"""Heapo placements are first-fit, whatever the allocator's bookkeeping.

The allocator walks an incrementally maintained hole list.  The algorithm it
replaced — gather every live and quarantined extent, sort, sweep for the
first gap — is kept here as the oracle: every allocation in a random
malloc/free/recover/re-attach history (with decayed descriptors producing
overlapping and quarantined extents along the way) must land where the sweep
says, and run out of NVRAM exactly when the sweep does.
"""

from __future__ import annotations

import dataclasses
import random
import struct

import pytest

from repro import System, tuna
from repro.errors import OutOfNvram
from repro.nvram.heapo import _DESC_FMT, _DESC_SIZE, _SUPERBLOCK_SIZE, BlockState


def sweep_first_fit(heapo, size: int) -> int | None:
    """The sort-and-sweep first fit; None when no gap is large enough."""
    size = (size + 63) // 64 * 64
    used = sorted(
        [(a.addr, a.addr + a.size) for a in heapo.live_allocations()]
        + [
            (extent[0], extent[0] + extent[1])
            for extent in heapo._quarantined.values()
            if extent is not None
        ]
    )
    cursor = heapo.heap_start
    for start, end in used:
        if start - cursor >= size:
            return cursor
        cursor = max(cursor, end)
    if heapo.nvram.size - cursor >= size:
        return cursor
    return None


def small_system() -> System:
    config = tuna()
    # 512 KB: small enough that histories fragment and fill the heap
    nvram = dataclasses.replace(config.nvram, size=512 * 1024)
    return System(dataclasses.replace(config, nvram=nvram), seed=0)


def decay_descriptor(system, rng, live) -> None:
    """Rewrite one live descriptor into a plausible-but-wrong extent (may
    overlap neighbours), an implausible one, or a junk state byte."""
    victim = rng.choice(live)
    kind = rng.choice(["shifted", "grown", "junk-state", "out-of-range"])
    state, size, addr = int(BlockState.IN_USE), victim.size, victim.addr
    if kind == "shifted":
        addr += 64 * rng.randrange(1, 8)
    elif kind == "grown":
        size += 64 * rng.randrange(1, 64)
    elif kind == "junk-state":
        state = 7
    else:
        addr = system.nvram.size - 64
    system.nvram.persist(
        _SUPERBLOCK_SIZE + victim.slot * _DESC_SIZE,
        struct.pack(_DESC_FMT, state, size, addr, b"decayed"),
    )


@pytest.mark.parametrize("seed", range(12))
def test_random_history_places_like_the_sweep(seed):
    rng = random.Random(seed)
    system = small_system()
    heapo = system.heapo
    live = []
    placed = failed = 0
    for _ in range(400):
        roll = rng.random()
        if roll < 0.55 or not live:
            size = rng.choice([1, 64, 200, 4096, 8192 + 64, 40_000, 150_000])
            want = sweep_first_fit(heapo, size)
            malloc = rng.choice([heapo.nvmalloc, heapo.nv_pre_malloc])
            if want is None:
                with pytest.raises(OutOfNvram):
                    malloc(size)
                failed += 1
            else:
                alloc = malloc(size, name="blk")
                assert alloc.addr == want
                live.append(alloc)
                placed += 1
        elif roll < 0.9:
            heapo.nvfree(live.pop(rng.randrange(len(live))))
        elif roll < 0.94:
            heapo.recover()  # reclaims every pending block
            live = heapo.live_allocations()
        elif roll < 0.97:
            heapo.attach()  # plain reboot: same extents, rebuilt indexes
            live = heapo.live_allocations()
        else:
            decay_descriptor(system, rng, live)
            heapo.attach()
            live = heapo.live_allocations()
    assert placed > 50
    if seed == 0:
        assert failed > 0  # the histories do exhaust the heap


def test_freeing_under_an_overlapping_extent_frees_only_the_uncovered_part():
    system = small_system()
    heapo = system.heapo
    a = heapo.nvmalloc(4096, name="a")
    b = heapo.nvmalloc(4096, name="b")
    heapo.nvmalloc(4096, name="c")
    # a's descriptor decays to cover the first half of b as well
    system.nvram.persist(
        _SUPERBLOCK_SIZE + a.slot * _DESC_SIZE,
        struct.pack(_DESC_FMT, int(BlockState.IN_USE), 4096 + 2048, a.addr, b"a"),
    )
    heapo.attach()
    heapo.nvfree(heapo.allocation_at(b.addr))
    assert sweep_first_fit(heapo, 2048) == b.addr + 2048
    assert heapo.nvmalloc(2048).addr == b.addr + 2048
    want = sweep_first_fit(heapo, 64)
    assert heapo.nvmalloc(64).addr == want
