"""NVWAL recovery must do exactly what the reference loops did.

``reference_recovery.ReferenceNvwal`` keeps the chain walk, frame scan,
replay and orphan reclaim recovery had before they were tuned for the host.
Each case builds one crashed machine twice — a seeded log under one scheme,
commit cadence and checksum width, cut by a power failure, then optionally
damaged — and recovers one copy with the product and the other with the
reference.  The page images, the :class:`RecoveryReport` (of ``recover`` and
of the read-only ``verify_log``), the backend's append position, the heap,
the NVRAM media, the clock and every ``Stats`` counter and time bucket must
be identical.
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import asdict

import pytest

from repro import System, tuna
from repro.db.database import Database
from repro.faults.inject import NvramFaultInjector
from repro.faults.plan import MediaFaultSpec
from repro.wal.frames import NV_HEADER_SIZE
from repro.wal.nvwal import SCHEMES, NvwalBackend
from tests.wal.reference_recovery import ReferenceNvwal
from tests.wal.test_salvage import nv_frames

DB_NAME = "eq.db"
#: Transactions per group-commit epoch in the grouped cadences.
EPOCH = 3
CADENCES = ("solo", "epoch-closed", "epoch-open")
DAMAGE = ("none", "flip", "torn", "word", "poison", "cut", "back-edge")
#: Poisoned units elsewhere: the walk reads each block whole, and a block
#: the media refuses whole is read as a header load and a block load.
#: In a block's header the walk stops; in the last block's payload the
#: scan stops there, after every earlier block was read whole.
POISON = ("poison-header", "poison-last")


def _build(name: str, cadence: str, bits: int, damage: str) -> System:
    """A powered-off machine holding the seeded log, damaged as asked."""
    system = System(tuna(), seed=4)
    wal = NvwalBackend(system, SCHEMES[name](), checkpoint_threshold=60, checksum_bits=bits)
    db = Database(system, wal=wal, name=DB_NAME)
    rng = random.Random(7)
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
    txns = 42
    for i in range(txns):
        if i < 28:
            sql = "INSERT INTO t VALUES (?, ?)"
            params = (i, "x" * rng.randrange(10, 700))
        else:
            sql = "UPDATE t SET v = ? WHERE k = ?"
            params = ("y" * rng.randrange(10, 700), rng.randrange(28))
        if cadence == "solo":
            db.execute(sql, params)
            continue
        db.begin()
        db.execute(sql, params)
        db.group_commit()
        if i % EPOCH == EPOCH - 1 and (cadence == "epoch-closed" or i < txns - EPOCH):
            db.flush_group()  # "epoch-open" leaves the last epoch open
    system.power_fail()
    _damage(system, wal, damage)
    return system


def _damage(system: System, wal: NvwalBackend, damage: str) -> None:
    nvram = system.nvram
    frames = nv_frames(wal)
    blocks = wal.userheap.blocks
    assert len(blocks) >= 3 and len(frames) >= 12
    addr, size, _commit = frames[len(frames) // 2]
    if damage == "flip":
        at = addr + NV_HEADER_SIZE + size // 2
        nvram.persist(at, bytes([nvram.read(at, 1)[0] ^ 0x10]))
    elif damage == "torn":
        # a frame that landed only up to the middle of its payload, and
        # nothing of the block after it
        block = next(b for b in blocks if b.addr <= addr < b.addr + b.size)
        at = addr + NV_HEADER_SIZE + size // 2
        nvram.persist(at, bytes(block.addr + block.size - at))
    elif damage == "word":
        nvram.persist(addr + 24, struct.pack("<I", 0x5A5A5A5B))
    elif damage in ("poison", "poison-header", "poison-last"):
        injector = NvramFaultInjector(MediaFaultSpec(), seed=0)
        injector.poisoned.add(
            {
                "poison": blocks[2].addr + 64,
                "poison-header": blocks[2].addr,
                "poison-last": blocks[-1].addr + 64,
            }[damage]
        )
        nvram.fault_injector = injector
    elif damage == "cut":
        header = nvram.read(blocks[2].addr, 16)
        index = struct.unpack_from("<I", header, 12)[0]
        nvram.persist(blocks[2].addr + 12, struct.pack("<I", index ^ 0x4))
    elif damage == "back-edge":
        nvram.persist(blocks[1].addr, struct.pack("<Q", blocks[0].addr))


def _recovered(cls, name: str, cadence: str, bits: int, damage: str) -> dict:
    system = _build(name, cadence, bits, damage)
    system.reboot()
    wal = cls(system, SCHEMES[name](), checkpoint_threshold=60, checksum_bits=bits)
    wal.bind(system.fs, DB_NAME)
    verified = asdict(wal.verify_log())
    images = wal.recover()
    heapo = system.heapo
    stats = system.stats
    return {
        "verify_log": verified,
        "report": asdict(wal.last_recovery),
        "images": images,
        "position": (
            wal._checkpoint_id,
            wal._frame_count,
            wal._link_addr,
            [(b.slot, b.addr, b.size) for b in wal.userheap.blocks],
            wal.userheap.used,
            wal._logged_images,
        ),
        "heap": (
            heapo._slots,
            sorted(heapo._free_slots),
            heapo._holes,
            heapo._quarantined,
        ),
        "now_ns": repr(system.clock.now_ns),
        "counters": stats.counters,
        "time_ns": stats.time_ns,
        # the written part of the media (the rest reads as zero)
        "nvram": hashlib.sha256(system.nvram._data).hexdigest(),
    }


CASES = (
    # every damage under the paper's eager, lazy, lazy+diff and checksum
    # schemes, solo and with the last epoch closed or left open
    [
        (name, cadence, 64, damage)
        for name in ("eager", "ls", "ls_diff", "cs_diff", "uh_ls_diff")
        for cadence in CADENCES
        for damage in DAMAGE + POISON
    ]
    # narrow checksums, where torn payloads can pass as intact
    + [
        (name, cadence, bits, damage)
        for name in ("uh_cs_diff", "uh_ls")
        for cadence in ("solo", "epoch-open")
        for bits in (0, 16)
        for damage in ("none", "flip", "torn", "word")
    ]
)


@pytest.mark.parametrize(
    "name, cadence, bits, damage", CASES, ids=["-".join(map(str, c)) for c in CASES]
)
def test_recovery_equals_the_reference(name, cadence, bits, damage):
    product = _recovered(NvwalBackend, name, cadence, bits, damage)
    reference = _recovered(ReferenceNvwal, name, cadence, bits, damage)
    assert product == reference


def test_poisoned_units_stop_where_they_sit():
    """A poisoned header ends the walk; a poisoned payload the scan."""
    header = _recovered(NvwalBackend, "ls_diff", "solo", 64, "poison-header")
    assert header["report"]["reason"] == "block header unreadable"
    last = _recovered(NvwalBackend, "ls_diff", "solo", 64, "poison-last")
    assert last["report"]["reason"] == "log block unreadable"
    assert last["report"]["frames_replayed"] > header["report"]["frames_replayed"]


def test_cases_reach_every_recovery_outcome():
    """The damage does what it is named for: each salvage reason shows up."""
    reasons = {
        _recovered(NvwalBackend, "ls_diff", "solo", 64, damage)["report"]["reason"]
        for damage in DAMAGE
    }
    assert reasons == {
        "",
        "frame checksum mismatch",
        "invalid commit word",
        "log block unreadable",
        "chain position mismatch",
    }
