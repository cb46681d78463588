"""NVWAL recovery reads a page's base from the database file only when the
page's first committed frame is partial.

The first frame of a page in a log generation is its whole image
(``NvwalBackend._build_frames``), so reading the file's copy under it reads
bytes that are overwritten unread.  :class:`AlwaysReadNvwal` keeps the
apply loop recovery had before: every page's first frame is applied over
the file's copy.  Recovering the same post-crash machine with both must
give the same page images, report, allocator state and NVRAM media; only
the reads, and the simulated time they take, differ.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace

import pytest

from repro import System, tuna
from repro.errors import PowerFailure
from repro.wal.base import SyncMode
from repro.wal.nvwal import SCHEMES, NvwalBackend
from tests.conftest import make_file_db, make_nvwal_db
from tests.wal.test_journal import make_journal_db


class AlwaysReadNvwal(NvwalBackend):
    """The reference: the apply loop that read every page's base."""

    def _first_base(self, page_no, offset, payload, report):
        return self._base_page(page_no, report)


# ----------------------------------------------------------------------
# a short seeded script straight against the backend
# ----------------------------------------------------------------------

DB_NAME = "t.db"
#: Small pages keep the crash-point count (one per flushed line) small.
CONFIG = replace(tuna(), page_size=512)
PAGE_SIZE = CONFIG.page_size
#: Pages 1-3 are in the database file, pages 4 and 5 past its end.
FILE_PAGES = 3


def _script(seed=2016):
    """The file's pages and six transactions of one or two dirty pages,
    each image its page's previous one with a few bytes rewritten."""
    rng = random.Random(seed)
    pages = {
        pno: rng.randbytes(PAGE_SIZE) if pno <= FILE_PAGES else bytes(PAGE_SIZE)
        for pno in range(1, FILE_PAGES + 3)
    }
    base = {pno: pages[pno] for pno in range(1, FILE_PAGES + 1)}
    txns = []
    for _ in range(6):
        dirty = {}
        for pno in rng.sample(sorted(pages), rng.randint(1, 2)):
            image = bytearray(pages[pno])
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(PAGE_SIZE - 16)
                image[at : at + 16] = rng.randbytes(16)
            pages[pno] = dirty[pno] = bytes(image)
        txns.append(dirty)
    return base, txns


BASE, TXNS = _script()


def _machine() -> System:
    system = System(CONFIG, seed=3)
    db_file = system.fs.create(DB_NAME)
    for pno, image in BASE.items():
        db_file.write((pno - 1) * PAGE_SIZE, image)
    db_file.fsync()
    return system


def _run_script(system: System, name: str, epoch: int) -> None:
    """The transactions solo or in epochs of ``epoch``, with a checkpoint
    after the first three, so the log holds a second generation."""
    wal = NvwalBackend(system, SCHEMES[name]())
    wal.bind(system.fs, DB_NAME)
    for i, dirty in enumerate(TXNS):
        if i == 3:
            wal.checkpoint()
        if not epoch:
            wal.write_transaction(dirty)
            continue
        if i % epoch == 0:
            wal.group_begin()
        wal.group_append(dirty)
        if i % epoch == epoch - 1:
            wal.group_close()


def _crashed_machine(name: str, epoch: int, crash_at: int) -> System:
    system = _machine()
    system.crash.arm(crash_at)
    try:
        _run_script(system, name, epoch)
    except PowerFailure:
        pass
    finally:
        system.crash.disarm()
    system.power_fail()
    system.reboot()
    return system


def _recover(cls, system: System, name: str):
    """Recover with ``cls``; what recovery leaves behind, and its cost."""
    wal = cls(system, SCHEMES[name]())
    wal.bind(system.fs, DB_NAME)
    started = system.clock.now_ns
    images = wal.recover()
    state = (
        images,
        replace(wal.last_recovery, base_pages_read=0),
        wal._logged_images,
        wal._frame_count,
        wal._checkpoint_id,
        wal._link_addr,
        [(a.addr, a.size) for a in wal.userheap.blocks],
        wal.userheap.used,
        sorted((a.addr, a.size, a.name) for a in system.heapo.live_allocations()),
        hashlib.sha256(system.nvram._data).hexdigest(),  # the written prefix
    )
    return state, wal.last_recovery.base_pages_read, system.clock.now_ns - started


@pytest.mark.parametrize("epoch", [0, 3], ids=["solo", "epoch3"])
@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_recovery_equals_the_always_read_reference_at_every_crash_point(
    name, epoch
):
    probe = _machine()
    total = probe.crash.count_ops(lambda: _run_script(probe, name, epoch))
    replayed = 0
    for crash_at in range(1, total + 2):
        state, reads, cost_ns = _recover(
            NvwalBackend, _crashed_machine(name, epoch, crash_at), name
        )
        ref_state, ref_reads, ref_cost_ns = _recover(
            AlwaysReadNvwal, _crashed_machine(name, epoch, crash_at), name
        )
        where = f"{name} epoch={epoch} crash at op {crash_at}/{total}"
        assert state == ref_state, where
        # Every first frame the script logs is a whole page.
        assert reads == 0, where
        assert cost_ns <= ref_cost_ns, where
        replayed += bool(state[1].frames_replayed)
        if any(pno <= FILE_PAGES for pno in state[0]):
            assert ref_reads > 0, where
    # CS flushes no log entry, and this little data never leaves the cache.
    assert replayed > 0 or SCHEMES[name]().sync is SyncMode.CHECKSUM


# ----------------------------------------------------------------------
# what base_pages_read counts
# ----------------------------------------------------------------------


def test_a_partial_first_frame_reads_exactly_one_base():
    system = _machine()
    wal = NvwalBackend(system, SCHEMES["uh_ls_diff"]())
    wal.bind(system.fs, DB_NAME)
    # Seed the diff base with the file's copy of page 2, so the log's only
    # frame for it carries just the rewritten bytes.
    wal._logged_images[2] = BASE[2]
    image = bytearray(BASE[2])
    image[100:108] = b"partial!"
    wal.write_transaction({2: bytes(image), 4: bytes(range(256)) * 2})
    system.power_fail()
    system.reboot()
    wal = NvwalBackend(system, SCHEMES["uh_ls_diff"]())
    wal.bind(system.fs, DB_NAME)
    images = wal.recover()
    assert images[2] == bytes(image)
    assert wal.last_recovery.frames_replayed == 2
    assert wal.last_recovery.base_pages_read == 1


def _populated_then_crashed(make_db):
    system = System(tuna(), seed=9)
    db = make_db(system)
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
    for i in range(300):
        db.execute("INSERT INTO t VALUES (?, ?)", (i, "x" * 60))
    db.checkpoint()
    for i in range(0, 300, 7):
        db.execute("UPDATE t SET v = ? WHERE k = ?", ("y" * 60, i))
    db.execute("INSERT INTO t VALUES (1000, 'tail')")
    system.power_fail()
    system.reboot()
    return make_db(system)


@pytest.mark.parametrize(
    "make_db",
    [make_nvwal_db, make_file_db, make_journal_db],
    ids=["nvwal", "filewal", "journal"],
)
def test_recovery_over_a_populated_checkpointed_database_reads_no_base(make_db):
    db = _populated_then_crashed(make_db)
    assert db.query("SELECT COUNT(*) FROM t") == [(301,)]
    assert db.wal.last_recovery.base_pages_read == 0
    if make_db is make_nvwal_db:
        assert db.wal.last_recovery.frames_replayed > 0
