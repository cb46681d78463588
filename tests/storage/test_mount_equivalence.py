"""``Ext4FileSystem.mount`` replays and decodes what the reference does.

Seeded histories of creates, appends, truncates, unlinks, fsync bursts that
wrap the journal ring, clean remounts, and power cuts inside an fsync's
flushes that land a random subset of the cached pages.  Every mount runs on
an :class:`OracleExt4`, which checks the replayed blocks, the journal
sequence and ring head, and every in-memory inode against
``reference_mount`` on the same device state.  The sweep must meet torn
newest transactions, refused checksums and earlier laps left in the ring.

A history ends at the first step that raises.  Some cuts leave a ring that
both replays get wrong alike: a torn commit at ring position 0 erases the
descriptor of the transaction that was there, or lands images over it so
its checksum fails, and an older lap, whose images are older than the home
blocks, then heads the chain.  The mount may fail to decode the directory,
or a later call finds a freed inode or block; what was compared up to
there stands.
"""

from __future__ import annotations

import random

import pytest

from repro.config import BlockDevConfig
from repro.errors import PowerFailure, StorageError
from repro.hw.clock import SimClock
from repro.hw.stats import Stats
from repro.storage.blockdev import BlockDevice
from tests.storage.reference_mount import OracleExt4, OracleLog

NAMES = ("a.db", "a.db-wal", "b", "c")


def _fs(seed: int, log: OracleLog) -> OracleExt4:
    device = BlockDevice(
        BlockDevConfig(page_size=4096, num_pages=2048), SimClock(), Stats(), seed=seed
    )
    fs = OracleExt4(device)
    fs.log = log
    fs.format()
    return fs


def _cut_inside_fsync(fs: OracleExt4, name: str, rng: random.Random) -> None:
    """fsync ``name``, cutting power at its first or second device flush
    (data, then journal) with a seeded subset of the cached pages landed."""
    device = fs.device
    flush, calls = device.flush, []
    cut_at = rng.choice((1, 2))

    def cutting_flush():
        calls.append(None)
        if len(calls) == cut_at:
            raise PowerFailure("power cut in an fsync flush")
        flush()

    device.flush = cutting_flush
    try:
        fs.open(name).fsync()
    except PowerFailure:
        cached = device.cached_page_count()
        fs.power_fail(landed={i for i in range(cached) if rng.random() < 0.5})
    else:
        fs.power_fail(landed=())
    finally:
        del device.flush
    fs.mount()


def _history(seed: int, log: OracleLog, steps: int = 160) -> None:
    rng = random.Random(seed)
    fs = _fs(seed, log)
    try:
        for _ in range(steps):
            _step(fs, rng)
    except (StorageError, UnicodeDecodeError):  # see the module docstring
        log.ended_early += 1


def _step(fs: OracleExt4, rng: random.Random) -> None:
    name = rng.choice(NAMES)
    kind = rng.randrange(10)
    if not fs.exists(name):
        fs.create(name)
        if kind == 0:
            return
    f = fs.open(name)
    if kind == 1 and rng.random() < 0.3:
        fs.unlink(name)
    elif kind <= 4:
        f.write(rng.randrange(5 * 4096), bytes([rng.randrange(256)]) * rng.randrange(1, 6000))
    elif kind == 5:
        f.truncate(rng.randrange(6 * 4096))
    elif kind == 6:
        for _ in range(rng.randrange(10, 40)):  # wraps the ring
            f.write(f.size, b"x" * 100)
            f.fsync()
    elif kind == 7:
        fs.unmount()
        fs.mount()
    else:
        _cut_inside_fsync(fs, name, rng)


SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
def test_mount_matches_reference(seed):
    _history(seed, OracleLog())


def test_sweep_meets_torn_refused_and_left_behind_rings():
    log = OracleLog()
    for seed in SEEDS:
        _history(seed, log)
    assert log.mounts > 200
    notes = log.notes
    assert any(n.refused and n.chain for n in notes)  # a refused newest, chain below
    assert any(n.refused and not n.chain for n in notes)  # nothing replayed
    assert any(n.lap_left_behind and n.chain for n in notes)
    assert sum(n.chain for n in notes) > 100
