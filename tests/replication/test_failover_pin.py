"""What one failover costs in simulated time, and what it leaves, is pinned.

``Cluster.kill_primary`` + ``Cluster.promote`` is the window nvbench's
``serve-repl`` times as its recovery: the elected follower's NVWAL scrub
(``verify_log``), then the cold store's ``SegmentArchive.recover`` (ext4
mount + torn-tail salvage), ``truncate_above`` and ``ensure_floor``.  Each
cell builds one archived cluster, cuts it, promotes, and records the clock
(exact ``repr``) before and after, the scrub report, the archive's file
table, snapshots, floor and heads, every archive file's size and page-cache
keys, the archive device's counters and time buckets, and a hash of the
promoted node's page images.  A host-side rewrite of the failover path
must leave every cell of ``failover_pins.json`` as it is.

Cells (built like ``test_archive_crash.py``'s cluster):

* ``clean`` — a failover after the archive is quiesced and fsynced, the
  shape nvbench measures;
* ``writer_kill`` — the writer dies with archive epochs still buffered,
  so the power cut tears the newest file's tail and recovery salvages it;
* ``torn_snapshot`` — the floor snapshot is torn on disk, so recovery
  drops it and the floor falls back;
* ``io_faults`` — transient archive I/O faults, so recovery's reads take
  the retry path.

Regenerate with ``PYTHONPATH=src:. python tests/replication/test_failover_pin.py``
only for a change meant to move a failover's simulated cost or results.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.archive import ArchiveConfig
from repro.faults.plan import IoFaultSpec
from repro.replication.cluster import Cluster, ReplicationConfig
from tests.replication.test_archive_crash import _insert, _pump

FAILOVER_PINS = Path(__file__).with_name("failover_pins.json")

CELLS = ("clean", "writer_kill", "torn_snapshot", "io_faults")

#: Rows inserted (one epoch each) before the cut.
ROWS = 30


def build_to_cut(cell: str) -> Cluster:
    """The cluster of ``cell``, at the moment before ``kill_primary``."""
    cluster = Cluster(
        ReplicationConfig(
            followers=2,
            mode="semisync",
            archive=ArchiveConfig(
                epochs_per_file=4,
                sync_every=8,
                snapshot_every=8,
                gc_every=4,
            ),
        ),
        seed=5,
        archive_io_spec=(
            IoFaultSpec(read_error_rate=0.5, write_error_rate=0.05)
            if cell == "io_faults"
            else None
        ),
    )
    for k in range(ROWS):
        _insert(cluster, k)
        _pump(cluster, ticks=20)
    _pump(cluster)
    cluster.archive.sync()
    archive = cluster.archive
    if cell == "writer_kill":
        # Two more epochs reach the archive but no follower; the second
        # rolls to a new file, which only its page cache holds.  Another
        # file's fsync journals every dirty inode, so the new file's size
        # is durable and its bytes are not: the cut tears the tail.
        for k in range(ROWS, ROWS + 2):
            _insert(cluster, k)
            seq = archive.head + 1
            archive.append(cluster.replicator._segment(cluster.shiplog.entry(seq)))
        archive.fs.open(archive._snapshots[archive.floor][0]).fsync()
    elif cell == "torn_snapshot":
        name, size = archive._snapshots[archive.floor]
        handle = archive.fs.open(name)
        handle.truncate(size - 100)
        handle.fsync()
    return cluster


def _file_table(archive) -> dict:
    fs = archive.fs
    files = {}
    for name in fs.list_names():
        inode = fs._inodes[fs._dir[name]]
        files[name] = [inode.size, sorted(inode.pages)]
    return files


def failover_fingerprint(cell: str) -> dict:
    """Run ``cell`` to its cut (:func:`build_to_cut`), fail over, and
    fingerprint the failover."""
    cluster = build_to_cut(cell)
    archive = cluster.archive
    cut_ns = cluster.clock.now_ns
    cluster.kill_primary()
    best, watermark, scrub = cluster.promote()
    images = hashlib.sha256()
    pager = best.db.pager
    for pno in range(1, pager.n_pages + 1):
        images.update(bytes(pager.page_image(pno)))
    stats = cluster.archive_device.stats
    return {
        "cut_ns": repr(cut_ns),
        "now_ns": repr(cluster.clock.now_ns),
        "watermark": watermark,
        "scrub": {k: list(v) if isinstance(v, tuple) else v
                  for k, v in asdict(scrub).items()},
        "epoch_files": [
            [rec.name, rec.first_seq, rec.last_seq, rec.size] for rec in archive._files
        ],
        "snapshots": {str(seq): list(entry) for seq, entry in sorted(archive._snapshots.items())},
        "floor": archive.floor,
        "head": archive.head,
        "durable_head": archive.durable_head,
        "floor_fallbacks": archive.floor_fallbacks,
        "fs": _file_table(archive),
        "counters": dict(sorted(stats.counters.items())),
        "time_ns": {k: repr(v) for k, v in sorted(stats.time_ns.items())},
        "images_sha256": images.hexdigest(),
    }


@pytest.mark.parametrize("cell", CELLS)
def test_failover_is_pinned(cell):
    pinned = json.loads(FAILOVER_PINS.read_text())[cell]
    assert failover_fingerprint(cell) == pinned


def test_cells_reach_what_they_pin():
    """Each cell takes the path it is named for."""
    pins = json.loads(FAILOVER_PINS.read_text())
    clean = pins["clean"]
    assert len(clean["epoch_files"]) >= 2 and clean["floor"] > 0
    assert clean["head"] == clean["watermark"] and clean["floor_fallbacks"] == 0

    # The writer kill tore the newest epoch off the archive, and fencing
    # at the watermark cut the epoch below it off its file.
    cluster = build_to_cut("writer_kill")
    archive = cluster.archive
    assert (archive.head, archive.durable_head, len(archive._files)) == (33, 32, 3)
    cluster.kill_primary()
    archive.recover()
    assert archive.head == 32 and len(archive._files) == 2
    writer_kill = pins["writer_kill"]
    assert writer_kill["watermark"] == writer_kill["head"] == 31

    # The torn floor snapshot is dropped: the floor falls back.
    torn = pins["torn_snapshot"]
    assert torn["floor"] < clean["floor"] or torn["floor_fallbacks"] > 0

    # Recovery's reads met injected faults and retried through them.
    cluster = build_to_cut("io_faults")
    injector = cluster.archive_device.fault_injector
    before = injector.injected
    cluster.kill_primary()
    cluster.archive.recover()
    assert injector.injected > before


def regenerate() -> None:
    """Rewrite ``failover_pins.json`` — only for a change meant to move the
    failover's simulated cost or results."""
    pins = {cell: failover_fingerprint(cell) for cell in CELLS}
    FAILOVER_PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
