"""The salvage property (``tests/salvage_property.py``) on the segment
stream, the segment archive, the NVWAL log, the stock file WAL and the
ext4 journal.

The stream is what a follower receives: it keeps the prefix the decoder
accepted and appends what arrives next.  The archive holds the same
segments in epoch files on ext4, three to a file, so a damaged unit may
sit mid-file, first in a file, or in the newest file, with whole files
after it; its recovery runs across a power cut.  NVWAL's unit is one
committed transaction (one row inserted by an autocommit statement) in
the user-heap log blocks of ``uh_ls_diff``; its recovery is a power cycle
and a reopen of the database.  The file WAL's unit is the same
transaction, one frame per page it dirtied, in the ``-wal`` file of a
stock (unoptimized) :class:`~repro.wal.filewal.FileWalBackend`.  The ext4
journal's unit is one journaled metadata transaction, a create and an
fsync, and its recovery is a mount; only a cut tears a unit there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, System
from repro.archive import ArchiveConfig, SegmentArchive
from repro.config import tuna
from repro.errors import PowerFailure
from repro.hw.clock import SimClock
from repro.hw.stats import Stats
from repro.replication.segment import (
    EPOCH_HEADER_SIZE,
    Segment,
    decode_stream,
    encode_segment,
)
from repro.storage.blockdev import BlockDevice
from repro.storage.ext4 import Ext4FileSystem
from repro.wal.frames import FILE_HEADER_SIZE, NV_HEADER_SIZE, NvFrame
from tests.conftest import make_file_db, make_nvwal_db
from tests.salvage_property import SalvageFormat, check_salvage
from tests.wal.test_salvage import nv_frames


def segment_unit(j: int) -> Segment:
    """Epoch ``j + 1``: empty every fifth, else one to three frames, the
    last of which carries the close."""
    seq = j + 1
    count = 0 if j % 5 == 4 else j % 3 + 1
    frames = tuple(
        NvFrame(2 + f, 16 * f, bytes([seq * 7 + f]) * (40 + 29 * j), 0, f == count - 1)
        for f in range(count)
    )
    return Segment(seq=seq, term=1, txns=count, frames=frames)


#: Byte offset of the checkpoint-id field in an NVWAL frame header.
_FRAME_CHECKPOINT_ID = 28


def _damage_at(blob: bytes, kind: str) -> tuple[int, int | None]:
    """Where in a unit's bytes the damage goes: ``(offset, xor)``, or
    ``(offset, None)`` for a log that ends at ``offset``.  ``header``
    flips the first frame's checkpoint id, which no checksum covers,
    only the decoder's zero check.  A unit without frames takes either
    flip in its segment header."""
    if kind == "torn":
        return len(blob) // 2, None
    if len(blob) > EPOCH_HEADER_SIZE:
        if kind == "flip":
            return EPOCH_HEADER_SIZE + NV_HEADER_SIZE + 1, 0x08
        return EPOCH_HEADER_SIZE + _FRAME_CHECKPOINT_ID, 0x01
    return 9, 0x01  # the seq field: the header CRC no longer matches


# -- the segment stream ------------------------------------------------------


def _stream_append(log: bytearray, units: list) -> None:
    for unit in units:
        log += encode_segment(unit)


def _stream_damage(log: bytearray, j: int, kind: str) -> None:
    start = sum(len(encode_segment(segment_unit(u))) for u in range(j))
    offset, xor = _damage_at(encode_segment(segment_unit(j)), kind)
    if xor is None:
        del log[start + offset :]
    else:
        log[start + offset] ^= xor


def _stream_recover(log: bytearray) -> list:
    report = decode_stream(bytes(log))
    del log[report.consumed :]  # what a receiver keeps
    return report.segments


SEGMENT_STREAM = SalvageFormat(
    "segment stream",
    segment_unit,
    bytearray,
    _stream_append,
    _stream_damage,
    _stream_recover,
)


# -- the segment archive -----------------------------------------------------


def _fresh_archive() -> SegmentArchive:
    clock = SimClock()
    fs = Ext4FileSystem(BlockDevice(tuna().blockdev, clock, Stats(), seed=5))
    fs.format()
    archive = SegmentArchive(
        fs, clock, config=ArchiveConfig(epochs_per_file=3, sync_every=1)
    )
    archive.bootstrap(())
    return archive


def _archive_append(archive: SegmentArchive, units: list) -> None:
    for unit in units:
        archive.append(unit)
    archive.sync()


def _archive_damage(archive: SegmentArchive, j: int, kind: str) -> None:
    seq = j + 1
    rec = next(r for r in archive._files if r.first_seq <= seq <= r.last_seq)
    start = sum(
        len(encode_segment(segment_unit(s - 1))) for s in range(rec.first_seq, seq)
    )
    offset, xor = _damage_at(encode_segment(segment_unit(j)), kind)
    handle = archive.fs.open(rec.name)
    if xor is None:
        handle.truncate(start + offset)
    else:
        byte = handle.read(start + offset, 1)[0]
        handle.write(start + offset, bytes([byte ^ xor]))
    handle.fsync()
    archive.power_fail()


def _archive_recover(archive: SegmentArchive) -> list:
    archive.recover()
    assert archive.segment_at(archive.head + 1) is None
    return [archive.segment_at(seq) for seq in range(1, archive.head + 1)]


SEGMENT_ARCHIVE = SalvageFormat(
    "segment archive",
    segment_unit,
    _fresh_archive,
    _archive_append,
    _archive_damage,
    _archive_recover,
)

# -- the NVWAL log ------------------------------------------------------------

_NV_DDL = "CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)"
_NV_INSERT = "INSERT INTO t VALUES (?, ?)"


def row_unit(j: int) -> tuple:
    """Row ``j``: a few bytes to most of an inline cell, and every fifth
    an overflow chain, so units split leaves and span several frames."""
    return (j, f"u{j}." * (400 if j % 5 == 4 else 3 + 80 * (j % 4)))


@dataclass
class _NvwalLog:
    """A machine with an NVWAL database, and where each unit last landed."""

    system: System
    db: Database
    #: unit index -> [(frame addr, payload size, committed)] as it was logged
    frames: dict
    #: unit index -> CPU ops its commit issued (the crash points inside it)
    ops: dict


def _fresh_nvwal() -> _NvwalLog:
    system = System(tuna(), seed=3)
    db = make_nvwal_db(system, name="salvage.db", auto_checkpoint=False)
    db.execute(_NV_DDL)
    return _NvwalLog(system, db, {}, {})


def _nvwal_append(log: _NvwalLog, units: list) -> None:
    for unit in units:
        before = len(nv_frames(log.db.wal))
        with log.system.crash.counting():
            log.db.execute(_NV_INSERT, unit)
        log.ops[unit[0]] = log.system.crash.ops_counted
        log.frames[unit[0]] = nv_frames(log.db.wal)[before:]


def _nvwal_damage(log: _NvwalLog, j: int, kind: str) -> None:
    """``torn``: the machine is rebuilt up to unit ``j`` and the power is
    cut halfway through that unit's commit, so no unit after it exists;
    ``flip`` / ``header``: one bit of the payload / of the page-number
    field (which the frame checksum binds) of the unit's first frame,
    with every later unit's frames intact past it."""
    if kind == "torn":
        rebuilt = _fresh_nvwal()
        _nvwal_append(rebuilt, [row_unit(u) for u in range(j)])
        rebuilt.system.crash.arm(log.ops[j] // 2)
        try:
            rebuilt.db.execute(_NV_INSERT, row_unit(j))
        except PowerFailure:
            pass
        else:
            raise AssertionError("the armed cut did not fire")
        log.system, log.db, log.frames = rebuilt.system, rebuilt.db, rebuilt.frames
        return
    addr, size, _commit = log.frames[j][0]
    at = addr + NV_HEADER_SIZE + size // 2 if kind == "flip" else addr + 4
    nvram = log.system.nvram
    nvram.persist(at, bytes([nvram.read(at, 1)[0] ^ 0x01]))
    log.system.power_fail()


def _nvwal_recover(log: _NvwalLog) -> list:
    log.system.power_fail()
    log.system.reboot()
    log.db = make_nvwal_db(log.system, name="salvage.db", auto_checkpoint=False)
    return log.db.query("SELECT k, v FROM t ORDER BY k")


NVWAL_LOG = SalvageFormat(
    "NVWAL log",
    row_unit,
    _fresh_nvwal,
    _nvwal_append,
    _nvwal_damage,
    _nvwal_recover,
)

# -- the file WAL -------------------------------------------------------------


@dataclass
class _FileWalLog:
    """A machine with a stock file-WAL database, and the byte range of the
    ``-wal`` file each unit's frames last took."""

    system: System
    db: Database
    #: unit index -> (first byte, end byte) of its frames
    spans: dict


def _open_filewal(system: System) -> Database:
    return make_file_db(system, name="salvage.db", auto_checkpoint=False)


def _fresh_filewal() -> _FileWalLog:
    system = System(tuna(), seed=3)
    db = _open_filewal(system)
    db.execute(_NV_DDL)
    return _FileWalLog(system, db, {})


def _filewal_append(log: _FileWalLog, units: list) -> None:
    wal = log.db.wal
    for unit in units:
        first = wal._frame_offset(wal.frame_count())
        log.db.execute(_NV_INSERT, unit)
        log.spans[unit[0]] = (first, wal._frame_offset(wal.frame_count()))


def _filewal_damage(log: _FileWalLog, j: int, kind: str) -> None:
    """``torn``: the file ends halfway into the unit's frames; ``flip``:
    one payload byte of its first frame; ``header``: one byte of that
    frame's page-number field, which the frame's own checksum covers."""
    start, end = log.spans[j]
    wal_file = log.db.wal.wal_file
    if kind == "torn":
        wal_file.truncate((start + end) // 2)
    else:
        at = start + FILE_HEADER_SIZE + 100 if kind == "flip" else start
        wal_file.write(at, bytes([wal_file.read(at, 1)[0] ^ 0x01]))
    wal_file.fsync()
    log.system.power_fail()


def _filewal_recover(log: _FileWalLog) -> list:
    log.system.power_fail()
    log.system.reboot()
    log.db = _open_filewal(log.system)
    return log.db.query("SELECT k, v FROM t ORDER BY k")


FILE_WAL = SalvageFormat(
    "file WAL",
    row_unit,
    _fresh_filewal,
    _filewal_append,
    _filewal_damage,
    _filewal_recover,
)

# -- the ext4 journal ---------------------------------------------------------


def file_unit(j: int) -> str:
    """Unit ``j``: the name of a file whose create and fsync are one
    journaled metadata transaction."""
    return f"unit{j:02d}"


@dataclass
class _Ext4Log:
    """A formatted file system; a torn unit replaces it."""

    fs: Ext4FileSystem


def _fresh_ext4() -> _Ext4Log:
    fs = Ext4FileSystem(BlockDevice(tuna().blockdev, SimClock(), Stats(), seed=5))
    fs.format()
    return _Ext4Log(fs)


def _ext4_append(log: _Ext4Log, units: list) -> None:
    for name in units:
        log.fs.create(name).fsync()


def _ext4_damage(log: _Ext4Log, j: int, kind: str) -> None:
    """``torn`` only: the file system is rebuilt up to unit ``j``, and the
    power is cut at the device flush of unit ``j``'s journal transaction
    with a seeded subset of its blocks landed.  One block is always lost,
    by turns the descriptor, the inode-table image and the commit block:
    a lost image of zeros (the second directory block's) would leave the
    ring as written.  The flash model has no decay, so a page that landed
    holds what was written: ``flip`` and ``header`` do not apply."""
    assert kind == "torn"
    rebuilt = _fresh_ext4()
    _ext4_append(rebuilt, [file_unit(u) for u in range(j)])
    fs = log.fs = rebuilt.fs
    device = fs.device

    def cutting_flush():
        raise PowerFailure("power cut in the journal flush")

    device.flush = cutting_flush
    try:
        fs.create(file_unit(j)).fsync()
    except PowerFailure:
        pass
    else:
        raise AssertionError("the journal flush did not run")
    finally:
        del device.flush
    rng = random.Random(j)
    cached = device.cached_page_count()  # in ring order, commit block last
    lost = (0, 1, cached - 1)[j % 3]
    fs.power_fail({p for p in range(cached) if p != lost and rng.random() < 0.5})


def _ext4_recover(log: _Ext4Log) -> list:
    log.fs.power_fail(landed=())
    log.fs.mount()
    return log.fs.list_names()


EXT4_JOURNAL = SalvageFormat(
    "ext4 journal",
    file_unit,
    _fresh_ext4,
    _ext4_append,
    _ext4_damage,
    _ext4_recover,
    kinds=("torn",),
)

FORMATS = (SEGMENT_STREAM, SEGMENT_ARCHIVE, NVWAL_LOG, FILE_WAL, EXT4_JOURNAL)


@st.composite
def _cases(draw):
    fmt = draw(st.sampled_from(FORMATS))
    n = draw(st.integers(1, 8))
    i = draw(st.integers(0, n - 1))
    return (
        fmt,
        n,
        i,
        draw(st.sampled_from(fmt.kinds)),
        draw(st.integers(0, n - i)),
    )


@settings(max_examples=80, deadline=None)
@given(_cases())
def test_salvage_keeps_the_prefix_and_nothing_past_it(case):
    check_salvage(*case)


def test_every_unit_of_every_format():
    """Each damage at each of seven units, with one lost unit resubmitted
    (the stale units past it must stay lost) and with every one: the
    cases the property's search may not draw."""
    for fmt in FORMATS:
        for kind in fmt.kinds:
            for i in range(7):
                for k in {1, 7 - i}:
                    check_salvage(fmt, 7, i, kind, k)
