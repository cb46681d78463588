"""``Heapo.attach`` must rebuild exactly what the slot-by-slot scan rebuilt.

``attach()`` finds the slots whose state byte is non-zero in one pass over
the table's state bytes and decodes only those.  The scan it replaced —
``unpack_from`` per slot, a validity check on every one, ``BlockState(...)``
and a name decode even for free slots — lives only here, as
:func:`reference_attach`.

The one intended difference: a *free* slot whose payload bytes decayed used
to keep that payload in ``_slots``; it now reads as the shared all-zero
free tuple.  Nothing ever read a free slot's payload ("payload fields of
free slots are ignored"), so the oracle's ``_slots`` are compared with free
payloads blanked.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro import System, tuna
from repro.errors import MediaError
from repro.faults.inject import NvramFaultInjector
from repro.faults.plan import MediaFaultSpec
from repro.nvram.heapo import (
    _DESC_FMT,
    _DESC_SIZE,
    _SUPERBLOCK_SIZE,
    BlockState,
    Heapo,
)

NUM_SLOTS = 256


def reference_attach(heapo: Heapo) -> dict:
    """The pre-rewrite ``attach()`` scan, returning what it would leave."""

    def descriptor_valid(state_b, size, addr):
        if state_b not in (0, 1, 2):
            return False
        if state_b == 0:
            return True  # payload fields of free slots are ignored
        return (
            size > 0
            and size % 64 == 0
            and addr % 64 == 0
            and addr >= heapo.heap_start
            and addr + size <= heapo.nvram.size
        )

    slots, quarantined = [], {}
    base = _SUPERBLOCK_SIZE
    try:
        raw = heapo.nvram.read(base, heapo.num_slots * _DESC_SIZE)
    except MediaError:
        raw = None
    seen_addrs = set()
    for i in range(heapo.num_slots):
        if raw is not None:
            record, offset = raw, i * _DESC_SIZE
        else:
            offset = 0
            try:
                record = heapo.nvram.read(base + i * _DESC_SIZE, _DESC_SIZE)
            except MediaError:
                record = None
        if record is None:
            slots.append((BlockState.FREE, 0, 0, ""))
            quarantined[i] = None
            continue
        state_b, size, addr, name_b = struct.unpack_from(_DESC_FMT, record, offset)
        if not descriptor_valid(state_b, size, addr):
            slots.append((BlockState.FREE, 0, 0, ""))
            quarantined[i] = heapo._plausible_extent(addr, size)
            continue
        if state_b != 0:
            if addr in seen_addrs:
                slots.append((BlockState.FREE, 0, 0, ""))
                quarantined[i] = heapo._plausible_extent(addr, size)
                continue
            seen_addrs.add(addr)
        name = name_b.rstrip(b"\x00").decode("utf-8", "replace")
        slots.append((BlockState(state_b), size, addr, name))

    # The old _rebuild_indexes / _rebuild_holes, from the scan's results.
    by_name = {}
    live = {
        slot: entry
        for slot, entry in enumerate(slots)
        if slot not in quarantined and entry[0] is not BlockState.FREE
    }
    for slot, entry in live.items():
        by_name.setdefault(entry[3], set()).add(slot)
    used = sorted(
        [(addr, addr + size) for _state, size, addr, _name in live.values()]
        + [(e[0], e[0] + e[1]) for e in quarantined.values() if e is not None]
    )
    holes, overlapping, cursor = [], False, heapo.heap_start
    for start, end in used:
        if start > cursor:
            holes.append((cursor, start))
        elif start < cursor:
            overlapping = True
        cursor = max(cursor, end)
    if cursor < heapo.nvram.size:
        holes.append((cursor, heapo.nvram.size))
    return {
        "slots": [
            (state, 0, 0, "") if state is BlockState.FREE else (state, size, addr, name)
            for state, size, addr, name in slots
        ],
        "quarantined": quarantined,
        "free_slots": [
            slot
            for slot, entry in enumerate(slots)
            if slot not in quarantined and entry[0] is BlockState.FREE
        ],
        "holes": holes,
        "overlapping": overlapping,
        "live": set(live),
        "by_addr": {entry[2]: slot for slot, entry in live.items()},
        "by_name": by_name,
    }


def attached_state(heapo: Heapo) -> dict:
    return {
        "slots": heapo._slots,
        "quarantined": heapo._quarantined,
        "free_slots": heapo._free_slots,
        "holes": heapo._holes,
        "overlapping": heapo._overlapping,
        "live": heapo._live,
        "by_addr": heapo._by_addr,
        "by_name": heapo._by_name,
    }


def random_table(rng: random.Random, heapo: Heapo) -> bytes:
    """A descriptor table mixing healthy, decayed and colliding slots."""
    nvram_size, heap_start = heapo.nvram.size, heapo.heap_start
    addrs = [heap_start + 4096 * k for k in range(64)]
    records = []
    for _ in range(heapo.num_slots):
        kind = rng.random()
        state, size, addr = 0, 0, 0
        name = rng.choice([b"", b"nvwal-blk", b"hdr", b"caf\xc3\xa9", b"\xff\xfe"])
        if kind < 0.45:
            name = b""  # plain free slot
        elif kind < 0.55:
            size, addr = rng.randrange(1 << 20), rng.randrange(nvram_size)  # free, decayed payload
        elif kind < 0.80:
            state = rng.choice([1, 2])
            size = 64 * rng.randrange(1, 128)
            addr = rng.choice(addrs)  # few addresses: duplicates and overlaps
        elif kind < 0.86:
            state = rng.choice([3, 7, 0x80, 0xFF])  # corrupt state byte
            size, addr = 64 * rng.randrange(0, 64), rng.choice(addrs + [0, nvram_size])
        elif kind < 0.92:
            state = rng.choice([1, 2])  # misaligned or zero-sized
            size = rng.choice([0, 1, 63, 100, 4097])
            addr = rng.choice(addrs) + rng.choice([0, 1, 32])
        else:
            state = rng.choice([1, 2])  # below the heap or past the device
            size = 64 * rng.randrange(1, 64)
            addr = rng.choice([0, 64, heap_start - 64, nvram_size - 64, nvram_size, 1 << 40])
        records.append(struct.pack(_DESC_FMT, state, size, addr, name))
    return b"".join(records)


@pytest.fixture(scope="module")
def heapo():
    system = System(tuna(), seed=0)
    return Heapo(system.cpu, system.nvram, num_slots=NUM_SLOTS)


@pytest.mark.parametrize("seed", range(40))
def test_attach_matches_the_slot_by_slot_scan(heapo, seed):
    rng = random.Random(seed)
    heapo.nvram.fault_injector = None
    heapo.nvram.persist(_SUPERBLOCK_SIZE, random_table(rng, heapo))
    if seed % 2:
        # A poisoned unit fails the bulk read and forces the
        # per-descriptor fallback, which loses only the slot it sits in.
        injector = NvramFaultInjector(MediaFaultSpec(), seed=0)
        for _ in range(rng.randrange(1, 4)):
            slot = rng.randrange(NUM_SLOTS)
            injector.poisoned.add(_SUPERBLOCK_SIZE + slot * _DESC_SIZE)
        heapo.nvram.fault_injector = injector
    expected = reference_attach(heapo)
    heapo.attach()
    assert attached_state(heapo) == expected
    if seed % 2:
        assert None in heapo._quarantined.values()
    # and the rebuilt allocator still works on top of it
    heapo.nvram.fault_injector = None
    alloc = heapo.nvmalloc(4096, name="after")
    assert heapo.lookup("after") == alloc


def test_all_free_table_attaches_to_the_shared_tuple(heapo):
    heapo.nvram.fault_injector = None
    heapo.format()
    heapo.attach()
    assert attached_state(heapo) == reference_attach(heapo)
    assert len({id(entry) for entry in heapo._slots}) == 1


def _table_of(heapo: Heapo, allocs: int) -> None:
    """A healthy table: ``allocs`` live allocations, then free slots."""
    heapo.nvram.fault_injector = None
    heapo.format()
    for i in range(allocs):
        heapo.nvmalloc(4096, name="nvwal-blk" if i % 2 else "hdr")


@pytest.mark.parametrize("state_byte", [1, 2, 0x41, 0xFF])
def test_free_slot_whose_state_byte_decays_is_quarantined(heapo, state_byte):
    """Decay turns a free slot's state byte non-zero over its all-zero
    payload: the slot is decoded, found invalid (size 0, or no state),
    and quarantined with no extent; the allocations around it attach."""
    _table_of(heapo, 5)
    decayed = 9
    heapo.nvram.persist(_SUPERBLOCK_SIZE + decayed * _DESC_SIZE, bytes([state_byte]))
    expected = reference_attach(heapo)
    heapo.attach()
    assert attached_state(heapo) == expected
    assert heapo._quarantined == {decayed: None}
    assert sorted(heapo._live) == list(range(5))
    assert decayed not in heapo._free_slots


def test_poisoned_table_unit_costs_its_slot_only(heapo):
    """A poisoned unit inside a live descriptor fails the bulk read; the
    per-descriptor fallback quarantines that slot alone, extent unknown."""
    _table_of(heapo, 6)
    live = sorted(heapo._live)
    lost = live[3]
    injector = NvramFaultInjector(MediaFaultSpec(), seed=0)
    injector.poisoned.add(_SUPERBLOCK_SIZE + lost * _DESC_SIZE + 8)
    heapo.nvram.fault_injector = injector
    expected = reference_attach(heapo)
    heapo.attach()
    assert attached_state(heapo) == expected
    assert heapo._quarantined == {lost: None}
    assert sorted(heapo._live) == [slot for slot in live if slot != lost]
    heapo.nvram.fault_injector = None
