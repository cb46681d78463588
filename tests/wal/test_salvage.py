"""Salvage recovery: a corrupted log yields the longest valid committed
prefix instead of an exception or replayed garbage.

Covers all three log formats: NVWAL frames in NVRAM, SQLite-style file
WAL frames, and rollback-journal undo records.
"""

import struct

from repro import System, tuna
from repro.faults.inject import NvramFaultInjector
from repro.faults.plan import MediaFaultSpec
from repro.wal.frames import (
    FILE_HEADER_SIZE,
    NV_FRAME_MAGIC,
    NV_HEADER_SIZE,
    commit_mark_bytes,
    commit_mark_value,
    _align8,
    decode_nv_frame_header,
)
from repro.wal.journal import RollbackJournalBackend
from repro.wal.nvwal import _BLOCK_HEADER_SIZE
from tests.conftest import make_file_db, make_nvwal_db

DDL = "CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)"
N_ROWS = 6


def nv_frames(wal):
    """[(frame_addr, payload_size, committed)] for every frame in the log,
    parsed exactly the way recovery parses it."""
    frames = []
    for alloc in wal.userheap.blocks:
        raw = wal.system.nvram.read(alloc.addr, alloc.size)
        pos = _BLOCK_HEADER_SIZE
        while pos + NV_HEADER_SIZE <= alloc.size:
            magic, _pno, _off, size, _ck, ckpt, commit = decode_nv_frame_header(
                raw, pos
            )
            if magic != NV_FRAME_MAGIC or ckpt != wal._checkpoint_id:
                break
            if pos + NV_HEADER_SIZE + _align8(size) > alloc.size:
                break
            frames.append((alloc.addr + pos, size, bool(commit)))
            pos += NV_HEADER_SIZE + _align8(size)
    return frames


def build_nvwal(seed=11, rows=N_ROWS):
    """A fresh system plus an NVWAL database holding the DDL and ``rows``
    committed single-insert transactions (no checkpoints)."""
    system = System(tuna(), seed=seed)
    db = make_nvwal_db(system, name="salv.db")
    db.execute(DDL)
    for j in range(rows):
        db.execute("INSERT INTO t VALUES (?, ?)", (j, f"v{j}"))
    return system, db


def reopen(system):
    system.power_fail()
    system.reboot()
    return make_nvwal_db(system, name="salv.db")


class TestNvwalSalvage:
    def test_payload_bit_flip_salvages_exact_prefix_at_every_frame(self):
        """Flip one payload bit in each frame position in turn; recovery
        must keep exactly the transactions committed before that frame."""
        _, db = build_nvwal()
        n_frames = len(nv_frames(db.wal))
        assert n_frames > N_ROWS  # at least one frame per transaction

        for i in range(n_frames):
            system, db = build_nvwal()  # same seed: identical layout
            frames = nv_frames(db.wal)
            addr, size, _commit = frames[i]
            assert size > 0
            payload_addr = addr + NV_HEADER_SIZE
            byte = system.nvram.read(payload_addr, 1)[0]
            system.nvram.persist(payload_addr, bytes([byte ^ 0x01]))

            commits_before = [j for j, (_, _, c) in enumerate(frames[:i]) if c]
            committed_txns = len(commits_before)
            replayed = commits_before[-1] + 1 if commits_before else 0

            db2 = reopen(system)
            report = db2.wal.last_recovery
            assert report.corruption_detected
            assert report.reason == "frame checksum mismatch"
            assert report.frames_replayed == replayed
            assert report.frames_salvaged == replayed
            assert report.frames_dropped == i - replayed
            if committed_txns == 0:
                assert not db2.table_exists("t")
            else:
                # txn 0 is the DDL; txn j+1 inserted row j
                assert sorted(db2.dump_table("t")) == [
                    (j, f"v{j}") for j in range(committed_txns - 1)
                ]

    def test_corrupt_commit_word_drops_the_last_transaction(self):
        """A commit word that is neither zero nor the checksum-derived mark
        is corruption, not a commit — the transaction must not replay."""
        system, db = build_nvwal()
        frames = nv_frames(db.wal)
        addr, _size, commit = [f for f in frames if f[2]][-1]
        assert commit
        raw = system.nvram.read(addr, NV_HEADER_SIZE)
        _, _, _, _, checksum, ckpt, word = decode_nv_frame_header(raw, 0)
        mark_offset, _ = commit_mark_bytes(ckpt, checksum)
        bad = word ^ 0x6  # non-zero, and not the expected mark
        assert bad and bad != commit_mark_value(checksum)
        system.nvram.persist(addr + mark_offset, struct.pack("<II", bad, ckpt))

        db2 = reopen(system)
        report = db2.wal.last_recovery
        assert report.corruption_detected
        assert report.reason == "invalid commit word"
        assert sorted(db2.dump_table("t")) == [
            (j, f"v{j}") for j in range(N_ROWS - 1)
        ]

    def test_salvage_leaves_no_committed_frame_to_resurrect(self):
        """Salvage stops at a decayed frame mid-log, so the committed
        frames past it are lost.  Clients resubmit the lost transactions;
        the first ones log byte-identical frames at the same offsets, and
        end where a lost one begins.  A later recovery must not read on
        into it and replay transactions nobody resubmitted."""
        system, db = build_nvwal()
        frames = nv_frames(db.wal)
        commits = [i for i, (_, _, commit) in enumerate(frames) if commit]
        decayed = commits[2] + 1  # first frame of the txn inserting row 2
        addr, _size, _commit = frames[decayed]
        byte = system.nvram.read(addr + NV_HEADER_SIZE, 1)[0]
        system.nvram.persist(addr + NV_HEADER_SIZE, bytes([byte ^ 0x01]))

        db = reopen(system)
        assert db.wal.last_recovery.reason == "frame checksum mismatch"
        assert sorted(db.dump_table("t")) == [(0, "v0"), (1, "v1")]
        for j in (2, 3):
            db.execute("INSERT INTO t VALUES (?, ?)", (j, f"v{j}"))

        db = reopen(system)
        assert not db.wal.last_recovery.corruption_detected
        assert sorted(db.dump_table("t")) == [(j, f"v{j}") for j in range(4)]

    def test_cut_chain_walk_leaves_no_committed_frame_to_resurrect(self):
        """A flipped chain index in a block header cuts the chain walk
        there, so the committed frames in the blocks past the cut are lost.
        Clients resubmit the first lost transactions; the next block comes
        back at the orphan's address, and they log byte-identical frames
        at the same offsets.  A later recovery must not read on into the
        orphan's old frames and replay transactions nobody resubmitted."""
        rows = 60
        system, db = build_nvwal(rows=rows)
        blocks = db.wal.userheap.blocks
        assert len(blocks) >= 3  # the cut must leave the table's blocks
        header = system.nvram.read(blocks[-1].addr, _BLOCK_HEADER_SIZE)
        chain_index = struct.unpack_from("<I", header, 12)[0]
        system.nvram.persist(
            blocks[-1].addr + 12, struct.pack("<I", chain_index ^ 0x4)
        )

        db = reopen(system)
        assert db.wal.last_recovery.reason == "chain position mismatch"
        kept = sorted(db.dump_table("t"))
        assert kept == [(j, f"v{j}") for j in range(len(kept))]
        assert len(kept) < rows
        resubmitted = [(j, f"v{j}") for j in range(len(kept), len(kept) + 2)]
        for row in resubmitted:
            db.execute("INSERT INTO t VALUES (?, ?)", row)

        db = reopen(system)
        assert not db.wal.last_recovery.corruption_detected
        assert sorted(db.dump_table("t")) == kept + resubmitted

    def test_decayed_next_pointer_back_edge_keeps_the_chain_it_reaches(self):
        """A next pointer decayed into the address of an earlier block is a
        back-edge: the walk must flag it as corruption, keep the prefix,
        and free none of the blocks that prefix still lives in — so the
        database keeps accepting writes and survives the next power
        cycle with the resubmitted rows."""
        rows = 60
        system, db = build_nvwal(rows=rows)
        blocks = db.wal.userheap.blocks
        assert len(blocks) >= 3
        system.nvram.persist(blocks[1].addr, struct.pack("<Q", blocks[0].addr))

        db = reopen(system)
        report = db.wal.last_recovery
        assert report.corruption_detected
        assert report.reason == "chain position mismatch"
        kept = sorted(db.dump_table("t"))
        assert kept == [(j, f"v{j}") for j in range(len(kept))]
        assert 0 < len(kept) < rows
        for block in db.wal.userheap.blocks:
            assert system.heapo.is_live(block.addr)
        resubmitted = [(j, f"v{j}") for j in range(len(kept), len(kept) + 2)]
        for row in resubmitted:
            db.execute("INSERT INTO t VALUES (?, ?)", row)

        db = reopen(system)
        assert not db.wal.last_recovery.corruption_detected
        assert sorted(db.dump_table("t")) == kept + resubmitted

    def test_unreadable_log_block_boots_and_stays_writable(self):
        """A poisoned (ECC-uncorrectable) unit inside a log block ends the
        scan there; the database still boots and accepts new writes."""
        system, db = build_nvwal()
        frames = nv_frames(db.wal)
        first_frame_addr = frames[0][0]
        injector = NvramFaultInjector(MediaFaultSpec(), seed=0)
        injector.poisoned.add(first_frame_addr - first_frame_addr % 8)
        system.nvram.fault_injector = injector

        db2 = reopen(system)
        report = db2.wal.last_recovery
        assert report.corruption_detected
        assert report.reason == "log block unreadable"
        assert report.frames_replayed == 0
        assert not db2.table_exists("t")
        db2.execute(DDL)
        db2.execute("INSERT INTO t VALUES (?, ?)", (1, "post"))
        assert db2.dump_table("t") == [(1, "post")]


class TestFileWalSalvage:
    def test_corrupt_frame_salvages_committed_prefix(self):
        system = System(tuna(), seed=3)
        db = make_file_db(system, name="salv.db")
        db.execute(DDL)
        for j in range(5):
            db.execute("INSERT INTO t VALUES (?, ?)", (j, f"v{j}"))
        last_frame = db.wal._frame_index - 1  # the final commit frame
        corrupt_at = db.wal._frame_offset(last_frame) + FILE_HEADER_SIZE + 7

        system.power_fail()
        system.reboot()
        wal_file = system.fs.open("salv.db-wal")
        byte = wal_file.read(corrupt_at, 1)[0]
        wal_file.write(corrupt_at, bytes([byte ^ 0x10]))
        wal_file.fsync()

        db2 = make_file_db(system, name="salv.db")
        report = db2.wal.last_recovery
        assert report.corruption_detected
        assert report.reason == "frame checksum mismatch"
        assert report.frames_salvaged == report.frames_replayed > 0
        assert sorted(db2.dump_table("t")) == [
            (j, f"v{j}") for j in range(4)
        ]


    def test_resubmitted_frame_resurrects_nothing_past_the_salvage_stop(self):
        """A resubmitted transaction logs the very frame it logged before,
        so a chained checksum alone would reach the stale frames after it
        again: the salvage must retire the log generation."""
        system = System(tuna(), seed=3)
        db = make_file_db(system, name="salv.db")
        db.execute(DDL)
        for j in range(6):
            if j == 2:
                corrupt_at = (
                    db.wal._frame_offset(db.wal._frame_index) + FILE_HEADER_SIZE + 7
                )
            db.execute("INSERT INTO t VALUES (?, ?)", (j, f"v{j}"))

        system.power_fail()
        system.reboot()
        wal_file = system.fs.open("salv.db-wal")
        byte = wal_file.read(corrupt_at, 1)[0]
        wal_file.write(corrupt_at, bytes([byte ^ 0x10]))
        wal_file.fsync()
        db2 = make_file_db(system, name="salv.db")
        assert db2.wal.last_recovery.reason == "frame checksum mismatch"
        assert sorted(db2.dump_table("t")) == [(0, "v0"), (1, "v1")]

        db2.execute("INSERT INTO t VALUES (?, ?)", (2, "v2"))
        system.power_fail()
        system.reboot()
        db3 = make_file_db(system, name="salv.db")
        assert not db3.wal.last_recovery.corruption_detected
        assert sorted(db3.dump_table("t")) == [(j, f"v{j}") for j in range(3)]

    def test_frame_past_a_lost_one_does_not_chain_after_a_new_frame(self):
        """A cut inside an fsync can land a transaction's second frame but
        not its first.  Recovery ends the log at the missing frame; the
        next transaction's frame takes its place, and the stranded second
        frame must not be replayed after it."""
        system = System(tuna(), seed=5)
        db = make_file_db(system, optimized=True, name="salv.db")
        db.execute(DDL)
        db.execute("CREATE TABLE t2 (k INTEGER PRIMARY KEY, v TEXT)")
        for j in range(3):
            db.execute("INSERT INTO t VALUES (?, ?)", (j, f"a{j}"))
        wal = db.wal
        first = wal._frame_index
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (100, 'T')")
        db.execute("INSERT INTO t2 VALUES (100, 'T')")
        db.execute("COMMIT")
        assert wal._frame_index == first + 2

        system.power_fail()
        # The eMMC cache landed the transaction's second frame, not its
        # first: that block reads as the zeros preallocation left there.
        page = wal._frame_offset(first) // system.page_size
        block = system.fs._inodes[wal.wal_file.ino].page_blocks[page]
        system.blockdev._durable[block] = bytes(system.page_size)
        system.reboot()
        db2 = make_file_db(system, optimized=True, name="salv.db")
        assert not db2.wal.last_recovery.corruption_detected
        assert sorted(db2.dump_table("t")) == [(j, f"a{j}") for j in range(3)]
        assert db2.dump_table("t2") == []

        db2.execute("INSERT INTO t VALUES (7, 'U')")
        assert db2.wal._frame_index == first + 1
        system.power_fail()
        system.reboot()
        db3 = make_file_db(system, optimized=True, name="salv.db")
        assert db3.dump_table("t2") == []
        assert sorted(db3.dump_table("t")) == [(j, f"a{j}") for j in range(3)] + [
            (7, "U")
        ]


class TestJournalSalvage:
    def test_torn_record_rolls_back_the_valid_prefix(self):
        system = System(tuna(), seed=4)
        page_size = system.config.page_size
        fs = system.fs
        db_file = fs.create("j.db")
        orig1, orig2 = b"\x11" * page_size, b"\x22" * page_size
        db_file.write(0, orig1)
        db_file.write(page_size, orig2)
        db_file.fsync()
        backend = RollbackJournalBackend(system)
        backend.bind(fs, "j.db")

        # The transaction stalls after journaling its undo images but
        # before its commit point: the journal is hot with two records.
        backend.write_undo_journal(
            {1: b"\x33" * page_size, 2: b"\x44" * page_size},
            pre_images={1: orig1, 2: orig2},
        )
        record_size = 12 + page_size  # record header + page image
        corrupt_at = 32 + record_size + 12 + 100  # inside record 2's image
        byte = backend.journal_file.read(corrupt_at, 1)[0]
        backend.journal_file.write(corrupt_at, bytes([byte ^ 0x01]))

        restored = backend.recover()
        report = backend.last_recovery
        assert set(restored) == {1}
        assert report.corruption_detected
        assert report.reason == "journal record checksum mismatch"
        assert report.frames_replayed == 1
        assert report.frames_dropped == 1
        assert db_file.read(0, page_size) == orig1


class TestVerifyLog:
    """The read-only scrub the service layer uses to probe NVRAM health."""

    def test_clean_log_scrubs_clean_and_is_read_only(self):
        system = System(tuna(), seed=0)
        db = make_nvwal_db(system)
        db.execute(DDL)
        for i in range(N_ROWS):
            db.execute(f"INSERT INTO t VALUES ({i}, 'v{i}')")
        frames_before = db.wal.frame_count()
        blocks_before = [a.addr for a in db.wal.userheap.blocks]
        report = db.wal.verify_log()
        assert not report.corruption_detected
        assert report.frames_replayed == frames_before
        assert report.frames_dropped == 0
        # Scrubbing mutates nothing.
        assert db.wal.frame_count() == frames_before
        assert [a.addr for a in db.wal.userheap.blocks] == blocks_before
        assert db.query("SELECT COUNT(*) FROM t") == [(N_ROWS,)]

    def test_runtime_decay_is_reported_not_raised(self):
        system = System(tuna(), seed=0)
        db = make_nvwal_db(system)
        db.execute(DDL)
        for i in range(N_ROWS):
            db.execute(f"INSERT INTO t VALUES ({i}, 'v{i}')")
        # Decay NVRAM *at runtime* (no power loss): the scrub must absorb
        # the MediaErrors into its report instead of raising.
        injector = NvramFaultInjector(MediaFaultSpec(poison_units=8), seed=3)
        injector.on_power_loss(system.nvram)
        system.nvram.fault_injector = injector
        report = db.wal.verify_log()
        assert report.corruption_detected
        assert report.reason
        # Clearing the decay makes the scrub clean again.
        system.nvram.fault_injector = None
        assert not db.wal.verify_log().corruption_detected

    def test_default_backend_scrubs_clean(self):
        system = System(tuna(), seed=0)
        db = make_file_db(system)
        db.execute(DDL)
        db.execute("INSERT INTO t VALUES (1, 'x')")
        report = db.wal.verify_log()
        assert not report.corruption_detected
        assert report.frames_replayed == 0
