"""Live metadata images must equal a from-scratch encode, byte for byte.

``src/repro/storage/ext4.py`` keeps the inode table and the block bitmap as
live block images and touches only what changed (one bitmap bit per
alloc/free, one 256-byte slot per dirty inode at commit, an extent list
maintained beside ``page_blocks``).  The encoders it replaced — walk every
file's whole page list, iterate the whole used set, rebuild the block from
zeros — live only here, as the reference model:

* :func:`runs`, :func:`encode_inode_block`, :func:`encode_bitmap_block` are
  the deleted ``_runs`` / ``_encode_inode_block`` / ``_encode_bitmap_block``;
* :class:`ReferenceExt4` commits what *they* produce, ignoring the images;
* ``HISTORY_DIGESTS`` pins the device-write sequence of seeded histories
  (see its comment for where each value comes from).
"""

from __future__ import annotations

import hashlib
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import BlockDevConfig
from repro.errors import FsConsistencyError
from repro.hw.clock import SimClock
from repro.hw.crash import ALL
from repro.hw.stats import Stats
from repro.storage import ext4
from repro.storage.blockdev import BlockDevice
from repro.storage.ext4 import Ext4FileSystem
from repro.storage.trace import BlockTrace

# ----------------------------------------------------------------------
# the reference model: from-scratch encoders
# ----------------------------------------------------------------------


def runs(blocks):
    """Compress a block list into (start, length) extents."""
    extents = []
    for bno in blocks:
        if extents and extents[-1][0] + extents[-1][1] == bno:
            extents[-1] = (extents[-1][0], extents[-1][1] + 1)
        else:
            extents.append((bno, 1))
    return extents


def encode_inode(inode, out, offset):
    extents = runs(inode.page_blocks)
    if len(extents) > ext4._MAX_EXTENTS:
        raise FsConsistencyError(
            f"file too fragmented: {len(extents)} extents (max {ext4._MAX_EXTENTS})"
        )
    struct.pack_into(
        ext4._INODE_HEADER_FMT, out, offset,
        1 if inode.used else 0, len(extents), inode.size, inode.mtime,
    )
    for i, (start, length) in enumerate(extents):
        struct.pack_into(
            ext4._EXTENT_FMT, out, offset + ext4._INODE_HEADER_SIZE + 8 * i,
            start, length,
        )


def encode_inode_block(fs, bno):
    per_block = fs.page_size // ext4._INODE_SIZE
    first_ino = (bno - fs.itab_start) * per_block
    out = bytearray(fs.page_size)
    for i in range(per_block):
        if first_ino + i < ext4._NUM_INODES:
            encode_inode(fs._inodes[first_ino + i], out, i * ext4._INODE_SIZE)
    return bytes(out)


def encode_bitmap_block(fs, index):
    out = bytearray(fs.page_size)
    base_bit = index * fs.page_size * 8
    for bno in fs._used_set:
        bit = bno - fs.data_start - base_bit
        if 0 <= bit < fs.page_size * 8:
            out[bit // 8] |= 1 << (bit % 8)
    return bytes(out)


class ReferenceExt4(Ext4FileSystem):
    """The file system with the pre-rewrite commit encoding."""

    def _dirty_metadata_blocks(self):
        images = {}
        itab_blocks_dirty = {
            self.itab_start + (ino * ext4._INODE_SIZE) // self.page_size
            for ino in self._dirty_inodes
        }
        for bno in sorted(itab_blocks_dirty):
            images[bno] = encode_inode_block(self, bno)
        for i in sorted(self._dirty_bitmap_blocks):
            images[self.bitmap_start + i] = encode_bitmap_block(self, i)
        if self._dirty_bitmap_blocks or self._gdesc_dirty:
            images[self.gdesc_start] = self._encode_gdesc_block()
        if self._dir_dirty:
            for i in range(ext4._DIR_BLOCKS):
                images[self.dir_start + i] = self._encode_dir_block(i)
        return images


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------


class RecordingDevice(BlockDevice):
    """Keeps the ``(block, bytes, tag)`` of every page write."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.writes = []

    def write_page(self, pno, data, tag="unknown"):
        super().write_page(pno, data, tag=tag)
        self.writes.append((pno, bytes(data), tag))


def make_fs(cls=Ext4FileSystem, seed=1, num_pages=2048, page_size=4096):
    device = RecordingDevice(
        BlockDevConfig(page_size=page_size, num_pages=num_pages),
        SimClock(), Stats(), seed=seed,
    )
    device.trace = BlockTrace()
    fs = cls(device)
    fs.format()
    return fs


def slot_of(fs, ino):
    per_block = fs.page_size // ext4._INODE_SIZE
    offset = ino % per_block * ext4._INODE_SIZE
    return ino // per_block, slice(offset, offset + ext4._INODE_SIZE)


def assert_images_match_reference(fs):
    """Every live image against the reference encode of the in-memory state."""
    for i, image in enumerate(fs._bitmaps):
        assert bytes(image) == encode_bitmap_block(fs, i), f"bitmap block {i}"
    fragmented = False
    for ino, inode in enumerate(fs._inodes):
        assert inode.extents == runs(inode.page_blocks), f"extents of inode {ino}"
        assert set(inode.dirty_pages) <= set(inode.pages)
        fragmented |= len(inode.extents) > ext4._MAX_EXTENTS
    assert fs._tags == {ino: f"file:{name}" for name, ino in fs._dir.items()}
    # A clean inode's slot is already current; a dirty one's becomes so
    # when a commit (here: its first half) re-packs it.
    if not fragmented:
        reference = [
            encode_inode_block(fs, fs.itab_start + block)
            for block in range(fs.itab_blocks)
        ]
        for ino in set(range(ext4._NUM_INODES)) - fs._dirty_inodes:
            block, where = slot_of(fs, ino)
            assert fs._itab[block][where] == reference[block][where], f"slot {ino}"
        images = fs._dirty_metadata_blocks()
        assert [bytes(image) for image in fs._itab] == reference
        assert images == ReferenceExt4._dirty_metadata_blocks(fs)


def observable(fs):
    device = fs.device
    return (
        device.writes,
        device._durable,
        device._cache,
        repr(device.clock.now_ns),
        fs._journal_head,
        fs._journal_seq,
        fs._pending_home,
    )


#: STALE_REPLAY.  ``mount()`` used to replay every intact transaction left
#: in the ring, including ones from before the last checkpoint whose
#: successors had since been overwritten — so after a couple of remounts a
#: block came back older than its neighbours, and calls failed with
#: ``NoSuchFile``, ``double free`` or an ``IndexError``.  It now replays
#: only the live chain (see
#: ``test_remount_does_not_replay_a_transaction_whose_successor_is_gone``),
#: and only transactions whose commit checksum matches their blocks, so a
#: crash that lands a commit block around a lost metadata block no longer
#: replays it.  ``Pair.apply`` therefore refuses any failure.


class Pair:
    """The live-image file system and the reference, fed the same calls."""

    def __init__(self, **kwargs):
        self.live = make_fs(Ext4FileSystem, **kwargs)
        self.reference = make_fs(ReferenceExt4, **kwargs)

    def apply(self, *op):
        outcomes = [run(fs, *op) for fs in (self.live, self.reference)]
        assert outcomes[0] == outcomes[1]
        if self.live._mounted:
            assert_images_match_reference(self.live)
        assert observable(self.live) == observable(self.reference)
        return outcomes[0]


# ----------------------------------------------------------------------
# operations: ``(kind, *args)`` tuples, so a falsifying history is readable
# ----------------------------------------------------------------------

NAMES = ("a.db", "a.db-wal", "b")
PAGE = 4096


def run(fs, kind, *args):
    """Apply one operation; calls on a missing file are no-ops."""
    if kind == "sync_all":
        return fs.sync_all()
    if kind == "crash":
        fs.power_fail(*args)
        return fs.mount()
    if kind == "remount":
        fs.unmount()
        return fs.mount()
    name, *args = args
    if kind == "create":
        if not fs.exists(name):
            fs.create(name)
        return None
    if not fs.exists(name):
        return None
    if kind == "unlink":
        return fs.unlink(name)
    f = fs.open(name)
    if kind == "write":
        offset, length, fill = args
        return f.write(offset, bytes([fill]) * length)
    if kind == "append_fsync_burst":
        # Enough small commits to push the journal ring through a wrap.
        for _ in range(*args):
            f.write(f.size, b"x" * 100)
            f.fsync()
        return None
    return getattr(f, kind)(*args)  # truncate preallocate read fsync fdatasync


names = st.sampled_from(NAMES)
operations = st.one_of(
    st.tuples(st.just("create"), names),
    st.tuples(st.just("unlink"), names),
    st.tuples(
        st.just("write"), names, st.integers(0, 6 * PAGE),
        st.integers(1, 3 * PAGE), st.integers(1, 255),
    ),
    st.tuples(st.just("truncate"), names, st.integers(0, 8 * PAGE)),
    st.tuples(st.just("preallocate"), names, st.integers(1, 12)),
    st.tuples(
        st.just("read"), names, st.integers(0, 8 * PAGE), st.integers(1, 2 * PAGE)
    ),
    st.tuples(st.just("fsync"), names),
    st.tuples(st.just("fdatasync"), names),
    st.tuples(st.just("append_fsync_burst"), names, st.integers(20, 70)),
    st.tuples(st.just("sync_all")),
    st.tuples(st.just("crash"), st.sampled_from([(), None, ALL])),
    st.tuples(st.just("remount")),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(operations, min_size=1, max_size=40))
def test_any_history_writes_what_the_reference_writes(ops):
    pair = Pair()
    pair.apply("create", "a.db")
    for op in ops:
        pair.apply(*op)
    pair.apply("remount")


def test_shrink_then_reextend_over_a_recycled_block():
    pair = Pair()
    for name in ("a.db", "b"):
        pair.apply("create", name)
    pair.apply("write", "a.db", 0, 5 * PAGE, 0xAA)
    pair.apply("write", "b", 0, 2 * PAGE, 0xBB)
    pair.apply("fsync", "a.db")
    pair.apply("truncate", "a.db", 2 * PAGE + 100)  # frees three blocks
    pair.apply("write", "b", 2 * PAGE, PAGE, 0xCC)  # b recycles the lowest
    pair.apply("write", "a.db", 4 * PAGE, 2 * PAGE, 0xDD)  # a re-extends
    pair.apply("fdatasync", "a.db")
    pair.apply("sync_all")
    a = pair.live._inodes[pair.live._dir["a.db"]]
    assert len(a.extents) > 1  # the recycled block split a's run
    pair.apply("crash", ())
    assert pair.live.open("a.db").read(2 * PAGE + 100, 10) == bytes(10)


def test_journal_ring_wraps_identically():
    pair = Pair()
    pair.apply("create", "a.db-wal")
    home_writes = len(pair.live.device.trace.writes("metadata"))
    pair.apply("append_fsync_burst", "a.db-wal", 120)
    # At least 3 journal blocks per commit over a 256-block ring: the ring
    # wrapped, and the checkpoint wrote the journaled blocks home.
    assert len(pair.live.device.trace.writes("metadata")) > home_writes
    pair.apply("crash", None)
    pair.apply("append_fsync_burst", "a.db-wal", 10)


def test_remount_does_not_replay_a_transaction_whose_successor_is_gone():
    fs = make_fs()
    wal = fs.create("a.db")
    for _ in range(40):  # lap 1 runs far into the ring ...
        wal.write(wal.size, b"x" * 100)
        wal.fsync()
    fs.create("b").fsync()  # ... and journals a directory holding "b"
    fs.unmount()
    fs.mount()
    fs.unlink("b")  # lap 2: one transaction at block 0
    fs.sync_all()
    fs.unmount()
    fs.mount()
    wal = fs.open("a.db")
    wal.write(wal.size, b"y" * 100)  # lap 3 overwrites that transaction
    wal.fsync()
    size = wal.size
    fs.unmount()
    fs.mount()
    assert not fs.exists("b")
    assert fs.open("a.db").size == size
    assert_images_match_reference(fs)


def test_allocation_spanning_two_bitmap_blocks():
    # 512-byte blocks: 4096 bits per bitmap block, two inodes per table block.
    pair = Pair(page_size=512, num_pages=10_000)
    assert pair.live.bitmap_blocks == 3
    pair.apply("create", "a.db")
    pair.apply("create", "b")
    pair.apply("preallocate", "a.db", 4090)
    pair.apply("fsync", "a.db")
    pair.apply("write", "b", 0, 20 * 512, 7)  # crosses into bitmap block 1
    pair.apply("fsync", "b")
    assert pair.live._dirty_bitmap_blocks == set()
    pair.apply("unlink", "a.db")
    pair.apply("write", "b", 20 * 512, 512, 9)
    pair.apply("sync_all")
    pair.apply("crash", ALL)
    assert any(pair.live._bitmaps[1]) and any(pair.live._bitmaps[0])


# ----------------------------------------------------------------------
# fragmentation
# ----------------------------------------------------------------------


def test_too_fragmented_file_fails_fsync_and_changes_nothing():
    fs = make_fs()
    a, b = fs.create("a"), fs.create("b")
    a.fsync()
    # Alternate single-page appends: every block of either file is its own
    # extent, and ``a`` (the lower inode) is the one a commit trips on.
    for i in range(ext4._MAX_EXTENTS + 1):
        a.write(i * PAGE, b"a" * PAGE)
        b.write(i * PAGE, b"b" * PAGE)
    inode = fs._inodes[a.ino]
    assert len(inode.extents) == ext4._MAX_EXTENTS + 1

    before = (
        [bytes(image) for image in fs._itab],
        [bytes(image) for image in fs._bitmaps],
        dict(fs._pending_home),
        fs._journal_head,
        fs._journal_seq,
    )
    journal_writes = len(fs.device.trace.writes("journal"))
    for sync in (a.fsync, a.fdatasync, b.fsync, fs.sync_all):
        with pytest.raises(FsConsistencyError, match="file too fragmented: 30 extents"):
            sync()
        assert before == (
            [bytes(image) for image in fs._itab],
            [bytes(image) for image in fs._bitmaps],
            dict(fs._pending_home),
            fs._journal_head,
            fs._journal_seq,
        )
        assert len(fs.device.trace.writes("journal")) == journal_writes

    for f in (a, b):
        f.truncate(ext4._MAX_EXTENTS * PAGE)  # back to 29 extents
    a.fsync()
    assert fs._dirty_inodes == set() and fs._journal_head > before[3]
    assert_images_match_reference(fs)
    fs.power_fail(landed=())
    fs.mount()
    assert fs.open("a").read(0, PAGE) == b"a" * PAGE
    assert fs.open("a").allocated_pages() == ext4._MAX_EXTENTS


# ----------------------------------------------------------------------
# against the pre-rewrite implementation itself
# ----------------------------------------------------------------------


def history_digest(seed, steps=400):
    """sha256 of every ``(block, bytes, tag)`` a seeded history writes."""
    rng = random.Random(seed)
    fs = make_fs(seed=seed)
    fs.create(NAMES[0])
    for _ in range(steps):
        name = rng.choice(NAMES)
        kind = rng.randrange(12)
        if kind == 0:
            op = ("create", name)
        elif kind == 1 and rng.random() < 0.3:
            op = ("unlink", name)
        elif kind <= 4:
            op = (
                "write", name, rng.randrange(6 * PAGE),
                rng.randrange(1, 3 * PAGE), rng.randrange(1, 256),
            )
        elif kind == 5:
            op = ("truncate", name, rng.randrange(8 * PAGE))
        elif kind == 6:
            op = ("preallocate", name, rng.randrange(1, 12))
        elif kind == 7:
            op = ("fdatasync", name)
        elif kind == 8:
            op = ("sync_all",) if rng.random() < 0.5 else ("remount",)
        elif kind == 9 and rng.random() < 0.3:
            op = ("crash", rng.choice([(), None, ALL]))
        elif kind == 10 and rng.random() < 0.2:
            op = ("append_fsync_burst", name, rng.randrange(20, 70))
        else:
            op = ("fsync", name)
        run(fs, *op)
    sha = hashlib.sha256()
    for block, data, tag in fs.device.writes:
        sha.update(struct.pack("<I", block) + data + tag.encode() + b"\0")
    return f"{len(fs.device.writes)}:{sha.hexdigest()}"


#: ``history_digest(seed)`` as printed by commit f897dd6 (the last one with
#: the from-scratch encoders in ``src/``) for seed 4, the one history that
#: never reached STALE_REPLAY; the others as printed once mount replayed
#: only the live journal chain, when each first ran all 400 steps.  All six
#: were re-pinned when the commit block began to carry its transaction's
#: checksum: with that field zeroed, each history writes the bytes above
#: (seed 1 was 1858:8b704706…, 2 2197:95773f19…, 3 2244:51f2b4a1…,
#: 4 1253:cf750c84…, 5 1987:01979693…, 6 2005:355fbb48…).
HISTORY_DIGESTS = {
    1: "1858:d57af6ce4d2d6471336fa253ea65ed8c2014883db0dd34c5b4c1dab4da7d6c9d",
    2: "2197:ccda6d38844c17ebb06531c6605664b1734c13f4cc2f7482e56c465c8bae76fe",
    3: "2244:224e65e13c13643b0723e75feac32b163348cbf6b5c339ea1d924dcafa28025d",
    4: "1253:cb5423dbc00dd6540cf963d21fcbb0bfa1dc4c1335d4c9e578783811bf4e25e9",
    5: "1987:857b7abbfa74830cce11eaa8114aeb2f1acd3cdb349da8b10a5a2ca4ecc3cf63",
    6: "2005:10176cd7bcf1051898649a32ed4f2d4f6f1aeacb5e6afbb95b63ed8471c6b714",
}


@pytest.mark.parametrize("seed", sorted(HISTORY_DIGESTS))
def test_seeded_history_writes_what_the_old_implementation_wrote(seed):
    assert history_digest(seed) == HISTORY_DIGESTS[seed]
