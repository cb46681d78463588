"""Tests for the simplified EXT4 filesystem and its ordered-mode journal."""

import struct

import pytest

from repro.config import BlockDevConfig
from repro.errors import FileExists, IoError, NoSuchFile, PowerFailure, StorageError
from repro.hw.clock import SimClock
from repro.hw.stats import Stats
from repro.hw import stats as statnames
from repro.storage.blockdev import BlockDevice
from repro.storage import ext4
from repro.storage.ext4 import Ext4FileSystem
from repro.storage.trace import BlockTrace


def make_fs(seed=1, num_pages=2048):
    device = BlockDevice(
        BlockDevConfig(num_pages=num_pages), SimClock(), Stats(), seed=seed
    )
    device.trace = BlockTrace()
    fs = Ext4FileSystem(device)
    fs.format()
    return fs


@pytest.fixture
def fs():
    return make_fs()


class TestFiles:
    def test_create_open_roundtrip(self, fs):
        f = fs.create("a.txt")
        f.write(0, b"hello world")
        g = fs.open("a.txt")
        assert g.read(0, 11) == b"hello world"
        assert g.size == 11

    def test_create_duplicate_fails(self, fs):
        fs.create("a")
        with pytest.raises(FileExists):
            fs.create("a")

    def test_open_missing_fails(self, fs):
        with pytest.raises(NoSuchFile):
            fs.open("nope")

    def test_long_name_rejected(self, fs):
        with pytest.raises(StorageError):
            fs.create("x" * 60)

    def test_unlink_removes_file(self, fs):
        fs.create("a")
        fs.unlink("a")
        assert not fs.exists("a")
        fs.create("a")  # name reusable

    def test_list_names_sorted(self, fs):
        fs.create("b")
        fs.create("a")
        assert fs.list_names() == ["a", "b"]

    def test_sparse_writes_cross_pages(self, fs):
        f = fs.create("big")
        f.write(4090, b"span-two-pages")
        assert f.read(4090, 14) == b"span-two-pages"
        assert f.size == 4104

    def test_read_past_eof_truncates(self, fs):
        f = fs.create("short")
        f.write(0, b"abc")
        assert f.read(0, 100) == b"abc"
        assert f.read(10, 5) == b""

    def test_overwrite(self, fs):
        f = fs.create("ow")
        f.write(0, b"AAAA")
        f.write(1, b"BB")
        assert f.read(0, 4) == b"ABBA"

    def test_truncate_shrinks(self, fs):
        f = fs.create("t")
        f.write(0, b"x" * 10000)
        pages_before = f.allocated_pages()
        f.truncate(100)
        assert f.size == 100
        assert f.allocated_pages() < pages_before

    def test_shrink_then_extend_reads_zeros(self, fs):
        # POSIX: the gap between a shrink point and a later extension
        # reads as zeros — the stale tail of the kept page must not leak.
        f = fs.create("z")
        f.write(0, b"\x01\x02\x03")
        f.truncate(1)
        f.write(4, b"\xff")
        assert f.read(0, 5) == b"\x01\x00\x00\x00\xff"
        f.fsync()
        assert f.read(0, 5) == b"\x01\x00\x00\x00\xff"

    def test_recycled_block_reads_zeros(self, fs):
        # A block freed by one file and re-allocated to another must not
        # leak the old owner's bytes — freshly allocated pages are zeros.
        donor = fs.create("donor")
        donor.write(0, b"\x01")
        donor.fsync()
        donor.truncate(0)
        victim = fs.create("victim")
        victim.write(1, b"\x00")  # page 0 recycled from donor
        assert victim.read(0, 2) == b"\x00\x00"
        fs.sync_all()
        assert fs.device.cached_page_count() == 0
        fs.power_fail()
        fs.mount()
        assert fs.open("victim").read(0, 2) == b"\x00\x00"

    def test_preallocate_extends(self, fs):
        f = fs.create("p")
        f.preallocate(8)
        assert f.allocated_pages() == 8
        assert f.size == 8 * 4096

    @pytest.mark.parametrize("remount", [True, False], ids=["as-read", "written"])
    def test_a_page_read_keeps_its_bytes_under_a_later_write(self, fs, remount):
        """What ``File.read`` returns and ``File.pages`` yields is the
        page as it was read: writing that file page afterwards changes
        neither, whether the page came from the device or was written in
        the cache before it was read."""
        page_size = fs.page_size
        f = fs.create("log")
        f.write(0, b"\xaa" * (2 * page_size))
        f.fsync()
        if remount:  # an empty page cache: both pages come from the device
            fs.power_fail()
            fs.mount()
            f = fs.open("log")
        whole, part = f.read(0, page_size), f.read(page_size + 10, 20)
        pages = list(f.pages())
        f.write(0, b"\x55" * (2 * page_size))
        assert whole == pages[0] == b"\xaa" * page_size
        assert part == b"\xaa" * 20
        assert pages[1] == b"\xaa" * page_size
        assert f.read(0, 2 * page_size) == b"\x55" * (2 * page_size)


class TestDurability:
    def test_unsynced_data_lost_on_crash(self):
        fs = make_fs()
        f = fs.create("f")
        f.write(0, b"unsynced")
        fs.power_fail(landed=())
        fs.mount()
        # the file may not even exist (its create was never journaled)
        if fs.exists("f"):
            assert fs.open("f").read(0, 8) != b"unsynced"

    def test_fsynced_data_survives_crash(self):
        fs = make_fs()
        f = fs.create("f")
        f.write(0, b"durable!")
        f.fsync()
        fs.power_fail(landed=())
        fs.mount()
        g = fs.open("f")
        assert g.read(0, 8) == b"durable!"
        assert g.size == 8

    def test_many_files_survive_crash(self):
        fs = make_fs()
        for i in range(10):
            f = fs.create(f"file{i}")
            f.write(0, f"content{i}".encode())
            f.fsync()
        fs.power_fail(landed=())
        fs.mount()
        for i in range(10):
            assert fs.open(f"file{i}").read(0, 8) == f"content{i}".encode()[:8]

    def test_repeated_crash_cycles(self):
        fs = make_fs(seed=9)
        for cycle in range(5):
            f = fs.create(f"c{cycle}")
            f.write(0, b"x" * 100)
            f.fsync()
            assert fs.device.cached_page_count() == 0
            fs.power_fail()
            fs.mount()
            for j in range(cycle + 1):
                assert fs.exists(f"c{j}"), f"lost c{j} after cycle {cycle}"

    def test_unlink_survives_fsync_of_sibling(self):
        fs = make_fs()
        fs.create("gone").fsync()
        keeper = fs.create("keeper")
        fs.unlink("gone")
        keeper.fsync()
        fs.power_fail(landed=())
        fs.mount()
        assert not fs.exists("gone")
        assert fs.exists("keeper")

    def test_failed_commit_leaves_its_seq_to_the_retry(self):
        """A journal commit whose commit-block write exhausts its retries
        consumes no seq: the retry rewrites the same seq in the same ring
        slot, so replay's sequence-contiguous chain keeps every earlier
        commit (here, the directory entries of both files)."""
        fs = make_fs()
        a = fs.create("a")
        a.write(0, b"a" * 100)
        a.fsync()
        b = fs.create("b")
        b.write(0, b"b" * 100)
        b.fsync()
        a.write(0, b"A" * 100)
        device = fs.device
        write_page = device.write_page

        def failing_commit_block(pno, data, tag="unknown"):
            if struct.unpack_from("<II", data)[1] == ext4._JTYPE_COMMIT:
                raise IoError(f"commit block {pno} not programmed")
            write_page(pno, data, tag)

        device.write_page = failing_commit_block
        with pytest.raises(IoError):
            a.fsync()
        del device.write_page
        a.fsync()  # journals only a's inode block
        assert device.cached_page_count() == 0
        fs.power_fail(landed=())
        fs.mount()
        assert fs.list_names() == ["a", "b"]

    def test_torn_journal_transaction_is_not_replayed(self):
        """A power cut in the journal's flush can land the descriptor and
        the commit block around metadata images that did not land.  The
        commit block's checksum over the descriptor and the images refuses
        that transaction, so the earlier, whole one still stands."""
        fs = make_fs(seed=1)
        a = fs.create("a")
        a.write(0, b"a" * 100)
        a.fsync()
        b = fs.create("b")
        b.write(0, b"b" * 100)
        device = fs.device
        flush, flushes = device.flush, []

        def cut_at_the_journal_flush():
            flushes.append(device.cached_page_count())
            if len(flushes) == 2:  # data first, then the journal
                raise PowerFailure("power cut in the journal flush")
            flush()

        device.flush = cut_at_the_journal_flush
        with pytest.raises(PowerFailure):
            b.fsync()
        del device.flush
        cached = sorted(device._cache)
        assert cached == list(range(cached[0], cached[0] + 7))  # desc, 5, commit
        fs.power_fail(landed={0, 6})
        fs.mount()
        assert fs.list_names() == ["a"]
        assert fs.open("a").read(0, 100) == b"a" * 100
        # The refused transaction stays in the ring behind the next lap,
        # one seq below it: it is refused again, not replayed under it.
        a = fs.open("a")
        a.write(0, b"A" * 100)
        a.fsync()
        assert fs._journal_head < cached[0] - fs.journal_start
        fs.power_fail(landed=())
        fs.mount()
        assert fs.list_names() == ["a"]
        assert fs.open("a").read(0, 100) == b"A" * 100

    def test_unmount_then_mount_is_clean(self):
        fs = make_fs()
        f = fs.create("u")
        f.write(0, b"data")
        fs.unmount()
        fs.mount()
        assert fs.open("u").read(0, 4) == b"data"

    def test_operations_require_mount(self):
        fs = make_fs()
        fs.power_fail()
        with pytest.raises(StorageError):
            fs.create("x")


class TestJournalTraffic:
    def test_append_fsync_journals_metadata(self):
        """An appending fsync journals descriptor + inode + bitmap + group
        descriptor + commit — the paper's ~16-20 KB per transaction."""
        fs = make_fs()
        f = fs.create("wal")
        f.fsync()  # settle creation metadata
        fs.device.trace.clear()
        f.write(f.size, b"z" * 4096)
        f.fsync()
        journal = sum(
            e.length for e in fs.device.trace.writes("journal")
        )
        assert journal >= 16 * 1024

    def test_overwrite_fdatasync_skips_journal(self):
        fs = make_fs()
        f = fs.create("wal")
        f.preallocate(4)
        f.fsync()
        fs.device.trace.clear()
        f.write(0, b"z" * 4096)  # overwrite, no allocation change
        f.fdatasync()
        assert fs.device.trace.writes("journal") == []

    def test_overwrite_fsync_still_journals_inode(self):
        """fsync (not fdatasync) journals the inode for its mtime."""
        fs = make_fs()
        f = fs.create("wal")
        f.preallocate(4)
        f.fsync()
        fs.device.trace.clear()
        f.write(0, b"z" * 4096)
        f.fsync()
        journal = fs.device.trace.writes("journal")
        assert journal  # descriptor + inode + commit
        assert len(journal) == 3

    def test_journal_wraps_via_checkpoint(self):
        """Filling the journal ring forces a checkpoint, after which all
        state is still correct across a crash."""
        fs = make_fs(num_pages=4096)
        f = fs.create("churn")
        for i in range(400):
            f.write(i * 4096, b"y" * 4096)
            f.fsync()
        assert fs.device.cached_page_count() == 0
        fs.power_fail()
        fs.mount()
        g = fs.open("churn")
        assert g.size == 400 * 4096

    def test_ordered_mode_data_before_journal(self):
        """Data writes must hit the device before the journal commit."""
        fs = make_fs()
        f = fs.create("ord")
        fs.device.trace.clear()
        f.write(0, b"d" * 4096)
        f.fsync()
        events = [e for e in fs.device.trace.events if e.op == "write"]
        first_journal = next(
            i for i, e in enumerate(events) if e.tag == "journal"
        )
        data_writes = [
            i for i, e in enumerate(events) if e.tag.startswith("file:")
        ]
        assert data_writes and max(data_writes) < first_journal
