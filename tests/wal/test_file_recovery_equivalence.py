"""The file tier's recovery checks its log in place and matches the
reference loops.

``FileWalBackend.recover`` and ``RollbackJournalBackend.recover`` read the
log through :class:`repro.wal.base.LogPages` and check each frame or record
where it lies in the page cache.  The loops they replaced, one
:meth:`File.read` per frame or record, live in ``reference_file_recovery``.
Each case here builds the same damaged log twice, recovers it once with
each, and compares everything recovery leaves behind: the images, the
report, the append cursor, the chain seed, the salt, the page cache, the
clock (exact ``repr``), every stats counter and time bucket, the block
trace, and the device.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict

import pytest

from repro import System, tuna
from repro.faults.plan import FaultPlan, IoFaultSpec
from repro.storage.trace import BlockTrace
from repro.wal.filewal import FileWalBackend
from repro.wal.frames import FILE_HEADER_SIZE, encode_file_frame
from repro.wal.journal import RollbackJournalBackend
from tests.conftest import make_file_db
from tests.wal.reference_file_recovery import ReferenceFileWal, ReferenceJournal

DDL = "CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)"


def _cold(system: System) -> None:
    """Power-cycle the machine so recovery starts from a cold page cache."""
    system.power_fail()
    system.reboot()


def _device_sha(system: System) -> str:
    device = system.blockdev
    digest = hashlib.sha256()
    for pages in (device._durable, device._cache):
        for pno in sorted(pages):
            digest.update(pno.to_bytes(4, "little") + pages[pno])
    return digest.hexdigest()


def _cache(system: System, name: str) -> dict:
    if not system.fs.exists(name):
        return {}
    inode = system.fs._inodes[system.fs.open(name).ino]
    return {idx: bytes(page) for idx, page in inode.pages.items()}


def _machine(system: System, names: tuple[str, ...]) -> dict:
    stats = system.stats
    trace = system.blockdev.trace
    return {
        "now_ns": repr(system.clock.now_ns),
        "counters": dict(stats.counters),
        "time_ns": {k: repr(v) for k, v in stats.time_ns.items()},
        "trace": list(trace.events) if trace is not None else None,
        "caches": {name: _cache(system, name) for name in names},
        "device": _device_sha(system),
    }


# ---------------------------------------------------------------------------
# the file WAL
# ---------------------------------------------------------------------------


def _write_next(
    system: System, wal: FileWalBackend, data: bytes, ends_file: bool = False
) -> None:
    """Write ``data`` at the slot after the last committed frame (inside
    the optimized WAL's preallocation), the file ending with it if asked."""
    wal_file = system.fs.open("test.db-wal")
    offset = wal._frame_offset(wal._frame_index)
    wal_file.write(offset, data)
    if ends_file:
        wal_file.truncate(offset + len(data))
    wal_file.fsync()


def _next_frame(wal: FileWalBackend, **fields) -> bytes:
    """A frame for the slot after the last one, with its fields overridden."""
    args = {
        "page_no": 2, "page_image": b"\x5a" * wal._content_size(),
        "commit_db_size": 1, "salt": wal._salt, "seed": wal._chain,
    }
    args.update(fields)
    frame, _ = encode_file_frame(**args)
    return frame


def _flip(system: System, wal: FileWalBackend, frame: int, at: int) -> None:
    wal_file = system.fs.open("test.db-wal")
    offset = wal._frame_offset(frame) + at
    byte = wal_file.read(offset, 1)[0]
    wal_file.write(offset, bytes([byte ^ 0x10]))
    wal_file.fsync()


def _damage_none(system, wal):
    pass


def _damage_torn_tail(system, wal):
    _write_next(system, wal, _next_frame(wal)[:1500], ends_file=True)


def _damage_flipped_payload(system, wal):
    _flip(system, wal, 5, FILE_HEADER_SIZE + 300)


def _damage_flipped_header(system, wal):
    _flip(system, wal, 4, 2)  # the page number


def _damage_stale_salt(system, wal):
    _write_next(system, wal, _next_frame(wal, salt=wal._salt - 1))


def _damage_unchained(system, wal):
    _write_next(system, wal, _next_frame(wal, seed=wal._chain ^ 1))


def _damage_uncommitted(system, wal):
    _write_next(system, wal, _next_frame(wal, commit_db_size=0))


def _damage_short_file(system, wal):
    system.fs.open("test.db-wal").truncate(10)
    system.fs.sync_all()


def _damage_bad_header(system, wal):
    wal_file = system.fs.open("test.db-wal")
    wal_file.write(0, b"\x00" * 4)
    wal_file.fsync()


DAMAGE = {
    "clean": _damage_none,
    "torn_tail": _damage_torn_tail,
    "flipped_payload": _damage_flipped_payload,
    "flipped_header": _damage_flipped_header,
    "stale_salt": _damage_stale_salt,
    "unchained": _damage_unchained,
    "uncommitted": _damage_uncommitted,
    "short_file": _damage_short_file,
    "bad_header": _damage_bad_header,
}


def _file_wal_log(optimized: bool, rows: int, damage: str) -> System:
    """A database of ``rows`` single-row inserts over a file WAL, its log
    damaged one way, power-cycled to a cold page cache."""
    system = System(tuna(), seed=31)
    db = make_file_db(system, optimized)
    db.execute(DDL)
    for k in range(rows):
        db.execute("INSERT INTO t VALUES (?, ?)", (k, f"v{k}" * (k % 7 + 1)))
    _cold(system)
    wal = FileWalBackend(system, optimized)
    wal.bind(system.fs, "test.db")
    wal.recover()  # positions _salt and _chain for the damage helpers
    _cold(system)
    DAMAGE[damage](system, wal)
    _cold(system)
    return system


def _file_wal_outcome(cls, optimized, rows, damage, io=False, trace=False) -> dict:
    system = _file_wal_log(optimized, rows, damage)
    if io:
        system.inject_faults(FaultPlan(seed=5, io=IoFaultSpec(read_error_rate=0.3)))
    if trace:
        system.blockdev.trace = BlockTrace()
    wal = cls(system, optimized)
    wal.bind(system.fs, "test.db")
    images = wal.recover()
    return {
        "images": images,
        "image_order": list(images),
        "report": asdict(wal.last_recovery),
        "frame_index": wal._frame_index,
        "prealloc_pages": wal._prealloc_pages,
        "chain": wal._chain,
        "salt": wal._salt,
        "logged_images": wal._logged_images,
        **_machine(system, ("test.db", "test.db-wal")),
    }


def _file_cases():
    for optimized in (False, True):
        layout = "optimized" if optimized else "stock"
        for damage in DAMAGE:
            yield pytest.param(optimized, 12, damage, False, False, id=f"{layout}-{damage}")
        yield pytest.param(optimized, 12, "clean", True, False, id=f"{layout}-io-retries")
        yield pytest.param(optimized, 12, "flipped_payload", False, True, id=f"{layout}-traced")
    # 175 inserts log more than 170 stock frames: frame 169 starts 8 bytes
    # before a page boundary, its header straddles two pages and its
    # content reaches a third.
    yield pytest.param(False, 175, "torn_tail", False, False, id="stock-three-page-frame")
    yield pytest.param(False, 175, "clean", True, True, id="stock-three-page-frame-io-traced")


@pytest.mark.parametrize("optimized, rows, damage, io, trace", list(_file_cases()))
def test_file_wal_recovery_matches_reference(optimized, rows, damage, io, trace):
    product = _file_wal_outcome(FileWalBackend, optimized, rows, damage, io, trace)
    reference = _file_wal_outcome(ReferenceFileWal, optimized, rows, damage, io, trace)
    assert product == reference


def test_three_page_frame_case_reaches_the_frame():
    outcome = _file_wal_outcome(FileWalBackend, False, 175, "clean")
    replayed = outcome["report"]["frames_replayed"]
    assert replayed > 170
    wal_pages = outcome["caches"]["test.db-wal"]
    assert len(wal_pages) == (32 + replayed * (FILE_HEADER_SIZE + 4096)) // 4096 + 1


def test_io_faults_take_the_retry_path():
    """The injected read errors fire during recovery, so the equivalence
    above covers the retry path, not only the inline charge."""
    clean = _file_wal_outcome(FileWalBackend, False, 12, "clean")
    faulty = _file_wal_outcome(FileWalBackend, False, 12, "clean", io=True)
    assert faulty["images"] == clean["images"]
    assert float(faulty["now_ns"]) > float(clean["now_ns"])  # backoff


# ---------------------------------------------------------------------------
# the rollback journal
# ---------------------------------------------------------------------------


def _journal_log(records: int, damage: str) -> System:
    """A database file of ``records`` pages and a hot journal holding their
    pre-images, damaged one way, power-cycled to a cold page cache."""
    system = System(tuna(), seed=17)
    page_size = system.page_size
    db_file = system.fs.create("j.db")
    originals = {pno: bytes([pno % 251]) * page_size for pno in range(1, records + 1)}
    for pno, image in originals.items():
        db_file.write((pno - 1) * page_size, image)
    db_file.fsync()
    backend = RollbackJournalBackend(system)
    backend.bind(system.fs, "j.db")
    backend.write_undo_journal(
        {pno: b"\xee" * page_size for pno in originals}, pre_images=originals
    )
    journal = backend.journal_file
    record_size = 12 + page_size
    if damage == "flipped":
        at = 32 + (records // 2) * record_size + 12 + 99
        journal.write(at, bytes([journal.read(at, 1)[0] ^ 0x01]))
        journal.fsync()
    elif damage == "short":
        journal.truncate(32 + (records - 1) * record_size + 100)
        journal.fsync()
    elif damage == "empty":
        journal.truncate(0)
        journal.fsync()
    _cold(system)
    return system


def _journal_outcome(cls, records, damage, io=False, trace=False) -> dict:
    system = _journal_log(records, damage)
    if io:
        system.inject_faults(FaultPlan(seed=9, io=IoFaultSpec(read_error_rate=0.3)))
    if trace:
        system.blockdev.trace = BlockTrace()
    backend = cls(system)
    backend.bind(system.fs, "j.db")
    restored = backend.recover()
    return {
        "restored": restored,
        "order": list(restored),
        "report": asdict(backend.last_recovery),
        **_machine(system, ("j.db", "j.db-journal")),
    }


JOURNAL_CASES = [
    pytest.param(5, "clean", False, False, id="clean"),
    pytest.param(5, "flipped", False, False, id="flipped"),
    pytest.param(5, "short", False, False, id="short"),
    pytest.param(5, "empty", False, False, id="empty"),
    pytest.param(5, "clean", True, False, id="io-retries"),
    pytest.param(5, "flipped", False, True, id="traced"),
    # Record 338 starts 8 bytes before a page boundary: its header
    # straddles two pages.
    pytest.param(340, "clean", False, False, id="straddling-record-header"),
]


@pytest.mark.parametrize("records, damage, io, trace", JOURNAL_CASES)
def test_journal_recovery_matches_reference(records, damage, io, trace):
    product = _journal_outcome(RollbackJournalBackend, records, damage, io, trace)
    reference = _journal_outcome(ReferenceJournal, records, damage, io, trace)
    assert product == reference
