"""Cold-store crash discipline: torn tails, GC power cuts, reseed identity."""

from __future__ import annotations

import pytest

from repro.archive import ArchiveConfig, SegmentArchive
from repro.config import tuna
from repro.errors import IoError
from repro.hw.clock import SimClock
from repro.hw.stats import Stats
from repro.replication.cluster import TABLE, Cluster, ReplicationConfig
from repro.replication.segment import Segment, encode_segment
from repro.storage.blockdev import BlockDevice
from repro.storage.ext4 import Ext4FileSystem
from repro.wal.frames import NvFrame

_STEP_NS = 200_000


def build_archive(**cfg):
    clock = SimClock()
    device = BlockDevice(tuna().blockdev, clock, Stats(), seed=11)
    fs = Ext4FileSystem(device)
    fs.format()
    return SegmentArchive(fs, clock, config=ArchiveConfig(**cfg))


def epoch(seq, fill=None, size=64):
    frame = NvFrame(2, 0, bytes([fill if fill is not None else seq & 0xFF]) * size, 0, commit=False)
    return Segment(seq=seq, term=1, txns=1, frames=(frame,))


class TestTornTailSalvage:
    def test_every_truncation_point_of_the_newest_file(self):
        """A power cut can stop the newest file's buffered tail at any
        byte; recovery must salvage exactly the closed-epoch prefix."""
        blob4 = encode_segment(epoch(4))
        blob5 = encode_segment(epoch(5))
        full = len(blob4) + len(blob5)
        for cut in range(full + 1):
            archive = build_archive(epochs_per_file=3, sync_every=10)
            for seq in range(1, 6):
                archive.append(epoch(seq))
            archive.sync()
            newest = archive._files[-1]
            assert newest.name == "epochs-0000000004.seg"
            assert newest.size == full
            handle = archive.fs.open(newest.name)
            handle.truncate(cut)
            handle.fsync()
            archive.recover()
            if cut >= full:
                want = 5
            elif cut >= len(blob4):
                want = 4
            else:
                want = 3
            assert archive.head == want, f"cut at byte {cut}"
            assert archive.durable_head == want
            for seq in range(1, want + 1):
                got = archive.segment_at(seq)
                assert got is not None and got.seq == seq
            assert archive.segment_at(want + 1) is None
            # Salvage is stable: a second recovery changes nothing.
            archive.recover()
            assert archive.head == want

    def test_power_fail_tears_only_buffered_epochs(self):
        archive = build_archive(epochs_per_file=8, sync_every=3)
        for seq in range(1, 8):
            archive.append(epoch(seq))
        assert archive.durable_head == 6  # 7 is buffered
        # Device cache guaranteed lost: the buffered tail must go.
        archive.fs.power_fail(landed=())
        archive.recover()
        assert archive.durable_head == archive.head <= 6
        for seq in range(1, archive.head + 1):
            assert archive.segment_at(seq) is not None


class TestGcPowerCut:
    def test_power_fail_mid_unlink_leaves_a_consistent_chain(self):
        archive = build_archive(
            epochs_per_file=2, sync_every=2, snapshot_every=6
        )
        archive.bootstrap((NvFrame(1, 0, bytes(64), 0, commit=False),))
        for seq in range(1, 7):
            archive.append(epoch(seq))
        archive.sync()
        assert archive.maybe_advance_floor(term=1)
        assert archive.floor == 6

        fs = archive.fs
        original_unlink = fs.unlink

        def cut_after_first(name):
            original_unlink(name)
            fs.power_fail(landed=())
            raise IoError("power cut mid-GC")

        fs.unlink = cut_after_first
        with pytest.raises(IoError):
            archive.gc(6)
        fs.unlink = original_unlink

        archive.recover()
        # Whatever side of the unlink the cut landed on, the reseed
        # chain through the floor must be intact: every surviving epoch
        # decodes, files are contiguous, and no fallback is needed.
        assert archive.floor == 6
        assert archive.floor_segment() is not None
        for seq in range(archive.min_seq, archive.head + 1):
            assert archive.segment_at(seq) is not None
        fallback = lambda: (NvFrame(1, 0, bytes(64), 0, commit=False),)
        assert not archive.ensure_floor(6, 2, fallback)
        assert archive.floor_fallbacks == 0
        # A rerun of the same GC finishes the trim cleanly.
        archive.gc(6)
        assert archive.min_seq == 7


def _pump(cluster, ticks=200):
    for _ in range(ticks):
        cluster.clock.advance(_STEP_NS)
        cluster.replicator.tick()
        cluster.replicator._archive_work()


def _insert(cluster, k):
    cluster.db.execute(f"INSERT INTO {TABLE} VALUES (?, ?)", (k, f"v{k}"))
    cluster.shiplog.seal(())


def _run_failover_script(scheme: str) -> Cluster:
    cluster = Cluster(
        ReplicationConfig(
            followers=3,
            mode="semisync",
            scheme=scheme,
            archive=ArchiveConfig(epochs_per_file=2, snapshot_every=4, gc_every=2),
        ),
        seed=9,
    )
    _insert(cluster, 0)
    _pump(cluster)
    # Follower 1 dies at cursor 2 and stays dead long enough for GC to
    # trim its next epoch (dead cursors don't hold the trim): it must
    # come back through a floor-snapshot reset, not an epoch climb.
    # Followers 0 and 2 stay up and level: promotion picks the lowest id
    # among the longest prefixes, so 0 is promoted and 2 is the witness
    # that was never killed, never promoted, and never reseeded.
    cluster.followers[1].kill()
    for k in range(1, 10):
        _insert(cluster, k)
        _pump(cluster, ticks=30)
    _pump(cluster)
    cluster.kill_primary()
    assert cluster.promote() is not None
    cluster.followers[1].restart()
    for k in range(10, 13):
        _insert(cluster, k)
    _pump(cluster, ticks=400)
    return cluster


def _follower_pages(cluster):
    pages = {}
    for node in cluster.followers:
        if node.role != "follower":
            continue
        pager = node.db.pager
        pages[node.node_id] = [
            bytes(pager.page_image(pno))
            for pno in range(1, pager.n_pages + 1)
        ]
    return pages


@pytest.mark.parametrize("scheme", ["eager", "uh_ls_diff", "uh_cs_diff"])
class TestReseedIdentity:
    def test_disk_reseed_matches_snapshot_reseed_bytes(self, scheme):
        """A follower reset from the on-disk floor that then climbed
        archived epochs must end byte-identical to one that applied every
        epoch live and was never reseeded."""
        cluster = _run_failover_script(scheme)
        assert cluster.primary_node is cluster.followers[0]
        want = sorted((k, f"v{k}") for k in range(13))
        assert sorted(cluster.db.dump_table(TABLE)) == want
        for node in cluster.followers[1:]:
            assert node.durable_seq == cluster.head_seq
            assert sorted(node.db.dump_table(TABLE)) == want
        pages = _follower_pages(cluster)
        assert pages.keys() == {1, 2}
        assert pages[1] == pages[2]
        # Follower 1 really was reset from the archive; follower 2 never.
        assert cluster.reseeds_from_archive() > 0
        assert cluster.followers[1].snapshots_applied > 0
        assert cluster.followers[2].snapshots_applied == 0


class _Ticket:
    def __init__(self):
        self.session_id = "s0"
        self.ops = ()
        self.done = False


class TestEviction:
    def test_archive_bounds_the_in_memory_log(self):
        """Epochs that are archived, released, and applied everywhere
        leave memory; the log's high-water mark stays a few epochs."""
        cluster = Cluster(
            ReplicationConfig(
                followers=2,
                mode="semisync",
                archive=ArchiveConfig(
                    epochs_per_file=2, snapshot_every=4, gc_every=2
                ),
            ),
            seed=3,
        )
        for k in range(16):
            cluster.db.execute(
                f"INSERT INTO {TABLE} VALUES (?, ?)", (k, f"v{k}")
            )
            ticket = _Ticket()
            cluster.replicator.gate((ticket,))
            _pump(cluster, ticks=30)
            assert ticket.done
        assert cluster.head_seq == 17  # bootstrap + 16 epochs
        assert len(cluster.shiplog.entries) <= 2
        assert cluster.log_peak() < 8
        # GC ran behind the advancing floor, reclaiming whole files.
        assert cluster.archive.gc_segments > 0
        assert cluster.archive.min_seq > 1
