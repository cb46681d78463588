"""Host-side performance of the simulator's hot primitives.

``python -m repro.bench <name>`` reports *simulated* numbers (throughput
on the simulated clock); this module instead measures how fast the
*simulator itself* runs on the host — the ops/sec of the primitives the
fast-path work of the "Simulator fast path" PR optimizes.  The contract
those optimizations must honor is: host wall-clock may change freely,
simulated time may not.

``python benchmarks/bench_simhost.py [--out BENCH_simulator.json]`` is the
perf-regression harness: it runs every probe and emits a JSON report (see
``BENCH_simulator.json`` at the repo root) so future PRs can track the
host-performance trajectory across commits.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import statistics
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # allow running as a plain script from repo root
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.archive import ArchiveConfig
from repro.bench.harness import BackendSpec, run_workload
from repro.bench.mobibench import WorkloadSpec
from repro.bench.report import git_rev
from repro.config import tuna
from repro.db.database import Database
from repro.replication.cluster import TABLE, Cluster, ReplicationConfig
from repro.system import System
from repro.telemetry.metrics import telemetry_disabled
from repro.wal.diff import DiffMode, compute_extents
from repro.wal.filewal import FileWalBackend
from repro.wal.nvwal import NvwalBackend, NvwalScheme

#: Target wall-clock per probe: long enough to be stable, short enough that
#: the whole harness stays well under a minute.
_MIN_SECONDS = 0.2

PAGE = 4096


def _rate(fn, *, min_seconds: float = _MIN_SECONDS, setup=None) -> float:
    """Calls/sec of ``fn``, measured over at least ``min_seconds``.

    Reports the reciprocal of the *median* per-call time rather than the
    mean: on shared or frequency-scaled hosts, occasional multi-ms stalls
    (scheduler preemption, GC) would otherwise dominate short probes and
    make the trajectory numbers noise-bound.  With ``setup``, each call is
    ``fn(setup())`` and only ``fn`` is timed: for a step that consumes
    its state.
    """
    args = () if setup is None else (setup(),)
    fn(*args)  # warm up (first NVRAM materialization, caches, etc.)
    times: list[float] = []
    total = 0.0
    while total < min_seconds:
        args = () if setup is None else (setup(),)
        start = time.perf_counter()
        fn(*args)
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        total += elapsed
    times.sort()
    return 1.0 / times[len(times) // 2]


def _fresh_system() -> tuple[System, int]:
    system = System(tuna(), seed=0)
    return system, system.heapo.heap_start + PAGE


# ---------------------------------------------------------------------------
# probes — each returns ops/sec of one hot primitive
# ---------------------------------------------------------------------------


def probe_store_page() -> float:
    """Whole-page ``cache.store`` (the memcpy data path)."""
    system, addr = _fresh_system()
    payload = bytes(range(256)) * (PAGE // 256)
    window = 256  # cycle addresses so dirty-line churn stays realistic
    state = {"i": 0}

    def step() -> None:
        i = state["i"] = (state["i"] + 1) % window
        system.cpu.store(addr + i * PAGE, payload)

    return _rate(step)


def probe_load_page() -> float:
    """Whole-page ``cache.load`` over a part-cached, part-durable range."""
    system, addr = _fresh_system()
    payload = b"\xab" * PAGE
    for i in range(0, 64, 2):  # cache every other page; rest stays durable
        system.cpu.store(addr + i * PAGE, payload)

    state = {"i": 0}

    def step() -> None:
        i = state["i"] = (state["i"] + 1) % 64
        system.cpu.load_free(addr + i * PAGE, PAGE)

    return _rate(step)


def probe_flush_commit_cycle() -> float:
    """The Algorithm 1 tail: memcpy + flush + dmb + persist barrier."""
    system, addr = _fresh_system()
    payload = b"\xcd" * PAGE

    def step() -> None:
        system.cpu.memcpy(addr, payload)
        system.cpu.dmb()
        system.cpu.cache_line_flush(addr, addr + PAGE)
        system.cpu.dmb()
        system.cpu.persist_barrier()

    return _rate(step)


def probe_lazy_commit_cycle() -> float:
    """One lazy-synchronization commit (Figure 4c) of three ~1.5 KB frames.

    The frames are bump-allocated back to back and are not line multiples,
    so the head line of each re-dirties the tail line of the one before;
    the write-back window is narrowed to 96 lines so that a third of each
    commit's lines leave by eviction during the copies (serve-repl: 287
    evicted to 645 flushed per txn).  Then ``dmb``, one flush call per
    frame, ``dmb`` + persist barrier, and the 8-byte commit mark with its
    own one-line flush and barrier.
    """
    config = tuna()
    config = dataclasses.replace(
        config, cache=dataclasses.replace(config.cache, eviction_threshold_lines=96)
    )
    system = System(config, seed=0)
    cpu = system.cpu
    mark = system.heapo.heap_start + PAGE
    frame = 1500
    frames = [mark + 64 + i * frame for i in range(3)]
    payload = b"\xcd" * frame

    def step() -> None:
        for addr in frames:
            cpu.memcpy(addr, payload)
        cpu.dmb()
        for addr in frames:
            cpu.cache_line_flush(addr, addr + frame)
        cpu.dmb()
        cpu.persist_barrier()
        cpu.store(mark, b"\x01" * 8)
        cpu.cache_line_flush(mark, mark + 8)
        cpu.dmb()
        cpu.persist_barrier()

    step()
    assert system.stats.get_count("cache_evictions") > 0, "no eviction pressure"
    return _rate(step)


def probe_heapo_churn() -> float:
    """Kernel-heap allocate/free with a populated descriptor table."""
    system, _ = _fresh_system()
    heapo = system.heapo
    survivors = [heapo.nvmalloc(PAGE, name="nvwal-blk") for _ in range(256)]

    def step() -> None:
        alloc = heapo.nv_pre_malloc(PAGE, name="nvwal-blk")
        heapo.nv_malloc_set_used_flag(alloc)
        heapo.nvfree(alloc)

    rate = _rate(step)
    del survivors
    return rate


def probe_heapo_lookup() -> float:
    """Namespace/address lookups against many live allocations."""
    system, _ = _fresh_system()
    heapo = system.heapo
    allocs = [heapo.nvmalloc(256, name="nvwal-blk") for _ in range(512)]
    root = heapo.nvmalloc(64, name="nvwal-root")

    def step() -> None:
        heapo.lookup("nvwal-root")
        heapo.is_live(root.addr)
        heapo.state_of(allocs[13].addr)

    return _rate(step)


def probe_heapo_attach() -> float:
    """Boot-time ``attach()`` over a mostly free 4096-slot descriptor
    table — the floor under every reboot (and every torture crash point)."""
    system, _ = _fresh_system()
    heapo = system.heapo
    for _ in range(64):
        heapo.nvmalloc(PAGE, name="nvwal-blk")

    return _rate(heapo.attach)


def probe_power_cycle_recover() -> float:
    """Power cut, reboot and NVWAL reopen of a ``uh_ls_diff`` database: a
    checkpointed 200-row table plus one committed insert.  Every crash
    state of a crash-point sweep over one insert costs at least this
    once the prefix to the crash has run."""
    system, _ = _fresh_system()

    def reopen() -> Database:
        return Database(system, wal=NvwalBackend(system, NvwalScheme.uh_ls_diff()))

    db = reopen()
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
    db.executemany("INSERT INTO t VALUES (?, ?)", [(k, f"v{k}") for k in range(200)])
    db.checkpoint()
    db.execute("INSERT INTO t VALUES (?, ?)", (200, "v200"))

    def step() -> None:
        system.power_fail()
        system.reboot()
        reopen()

    return _rate(step)


def probe_filewal_power_cycle_recover() -> float:
    """Power cut, reboot and stock file-WAL reopen: a checkpointed 200-row
    table plus 20 committed inserts, one frame each.  Every crash state of
    a sweep over the file tier's writes costs at least this: ext4 mount
    (journal replay) and a file-WAL scan of the committed frames."""
    system, _ = _fresh_system()

    def reopen() -> Database:
        return Database(system, wal=FileWalBackend(system))

    db = reopen()
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
    db.executemany("INSERT INTO t VALUES (?, ?)", [(k, f"v{k}") for k in range(200)])
    db.checkpoint()
    for k in range(200, 220):
        db.execute("INSERT INTO t VALUES (?, ?)", (k, f"v{k}"))

    def step() -> None:
        system.power_fail()
        system.reboot()
        reopen()

    return _rate(step)


def probe_failover() -> float:
    """``kill_primary`` + ``promote`` of a semisync cluster with two
    followers and the ext4 archive, quiesced after 24 one-row epochs: the
    primary's power cut, the elected follower's log scrub, and the cold
    store's mount, salvage and fencing.  Each failover needs a cluster of
    its own (built untimed), so the probe runs about 20 of them."""

    def archived_cluster() -> Cluster:
        cluster = Cluster(
            ReplicationConfig(
                archive=ArchiveConfig(epochs_per_file=4, snapshot_every=8, gc_every=4)
            ),
            seed=1,
        )
        for k in range(24):
            cluster.db.execute(f"INSERT INTO {TABLE} VALUES (?, ?)", (k, f"v{k}"))
            cluster.shiplog.seal(())
            for _ in range(20):
                cluster.clock.advance(200_000)
                cluster.replicator.tick()
                cluster.replicator._archive_work()
        cluster.archive.sync()
        return cluster

    def failover(cluster: Cluster) -> None:
        cluster.kill_primary()
        cluster.promote()

    return _rate(failover, setup=archived_cluster, min_seconds=0.02)


def probe_ext4_append_fsync() -> float:
    """Append one WAL frame to a file already 1000 pages long, then fsync.

    The stock WAL-on-flash commit.  Its host cost must not depend on how
    long the file already is or how full the file system is: the journal
    commit re-packs one inode slot and snapshots the dirty blocks.
    """
    system, _ = _fresh_system()
    wal_file = system.fs.create("probe.db-wal")
    wal_file.write(0, bytes(1000 * PAGE))
    wal_file.fsync()
    frame = b"\xab" * (24 + PAGE)

    def step() -> None:
        wal_file.write(wal_file.size, frame)
        wal_file.fsync()

    return _rate(step)


def probe_diff_extents() -> float:
    """Differential logging's page diff on a realistically dirtied page."""
    old = bytes(range(256)) * (PAGE // 256)
    new = bytearray(old)
    new[24:40] = b"\xff" * 16  # header fields
    new[512:516] = b"\xee" * 4  # slot array entry
    new[3000:3130] = b"\xdd" * 130  # cell content

    def step() -> None:
        compute_extents(old, bytes(new), DiffMode.MULTI_RANGE)

    return _rate(step)


def probe_group_append() -> float:
    """WAL-layer epoch appends: frames/sec through group_begin/append/close.

    Isolates the group-commit data path — transactions joining an open
    epoch with no per-transaction flush or barrier, one persist-barrier
    sequence at the close — from the SQL and B-tree layers above it.
    """
    from repro.bench.harness import make_database

    db = make_database(tuna(500), BackendSpec.nvwal(NvwalScheme.uh_ls_diff()))
    wal = db.wal
    page_size = db.system.page_size
    old = bytes(range(256)) * (page_size // 256)
    new = bytearray(old)
    new[24:40] = b"\xff" * 16
    new[3000:3130] = b"\xdd" * 130
    dirty = {2: bytes(new)}
    pre = {2: old}
    appends = 16

    def step() -> None:
        wal.group_begin()
        for _ in range(appends):
            wal.group_append(dirty, pre)
        wal.group_close()
        if wal.should_checkpoint():
            db.checkpoint()

    return _rate(step) * appends


def _point_lookup_table():
    """A depth-3 table of 4000 rows and a uniform stream of its keys."""
    import random

    from repro.bench.harness import make_database

    db = make_database(tuna(500), BackendSpec.nvwal(NvwalScheme.uh_ls_diff()))
    db.execute("CREATE TABLE t (key INTEGER PRIMARY KEY, value TEXT)")
    rng = random.Random(2016)
    keys = sorted(rng.sample(range(1, 2**31), 4000))
    db.executemany("INSERT INTO t VALUES (?, ?)", [(k, "v" * 400) for k in keys])
    tree = db.table_tree(db.table("t"))
    assert tree.depth() == 3, tree.depth()
    return db, tree, [rng.choice(keys) for _ in range(1024)]


def probe_btree_point_get() -> float:
    """``BTree.get`` of uniform keys on a depth-3 tree: two interior
    binary searches, the leaf search, one cell decode."""
    _db, tree, keys = _point_lookup_table()
    state = {"i": 0}

    def step() -> None:
        i = state["i"] = (state["i"] + 1) % len(keys)
        tree.get(keys[i])

    return _rate(step)


def probe_sql_point_select() -> float:
    """One parse-cache-hit ``SELECT ... WHERE key = ?`` end to end
    (autocommit): plan lookup, bind, key-range scan, row decode."""
    db, _tree, keys = _point_lookup_table()
    sql = "SELECT value FROM t WHERE key = ?"
    state = {"i": 0}

    def step() -> None:
        i = state["i"] = (state["i"] + 1) % len(keys)
        db.execute(sql, (keys[i],))

    return _rate(step)


def probe_sql_point_select_inlined() -> float:
    """nvbench ``kv-read``'s inlined-key statement, ``SELECT value FROM t
    WHERE key = <n>``, end to end (autocommit) over more distinct keys
    than the 256-text parse cache holds: every execution misses that
    cache and is served by the statement-skeleton map."""
    db, _tree, keys = _point_lookup_table()
    texts = [f"SELECT value FROM t WHERE key = {key}" for key in dict.fromkeys(keys)]
    assert len(texts) > 256, len(texts)
    state = {"i": 0}

    def step() -> None:
        i = state["i"] = (state["i"] + 1) % len(texts)
        db.execute(texts[i])

    return _rate(step)


def probe_sql_range_select() -> float:
    """nvbench ``kv-read``'s range statement, ``SELECT key ... WHERE key
    >= ? AND key <= ?`` over 10 to 50 consecutive keys, end to end
    (autocommit): the key-range scan across leaves, nothing decoded."""
    import random

    db, tree, _keys = _point_lookup_table()
    ordered = [key for key, _payload in tree.scan()]
    rng = random.Random(2016)
    bounds = []
    for _ in range(256):
        span = rng.randrange(10, 51)
        start = rng.randrange(len(ordered) - span)
        bounds.append((ordered[start], ordered[start + span - 1]))
    sql = "SELECT key FROM t WHERE key >= ? AND key <= ?"
    state = {"i": 0}

    def step() -> None:
        i = state["i"] = (state["i"] + 1) % len(bounds)
        db.execute(sql, bounds[i])

    return _rate(step)


def probe_insert_txns() -> float:
    """End-to-end host txns/sec of the paper's default workload.

    Measured through the group-commit path (epochs of 8 transactions,
    one flush + persist-barrier sequence per epoch) — the service
    layer's commit-coalescing default and the fastest configuration.
    """
    spec = WorkloadSpec(op="insert", txns=50, ops_per_txn=1, group_epoch=8)

    def step() -> None:
        run_workload(tuna(500), BackendSpec.nvwal(NvwalScheme.uh_ls_diff()), spec)

    return _rate(step, min_seconds=0.5) * spec.txns


#: Recorded ceiling on telemetry's host-side cost: with every layer
#: instrumented, end-to-end host throughput may drop by at most this
#: fraction versus a telemetry-disabled run.  Judged on a median of
#: pairs (below), unplanted runs read a few percent either way; the bound
#: leaves room for that and still catches an accidentally hot instrument
#: (e.g. a snapshot on the commit path).
TELEMETRY_OVERHEAD_BOUND = 0.15
#: Interleaved (off, on) pairs the overhead is judged on, by their median:
#: one stalled pass on a shared host read 44 % against the bound.
TELEMETRY_PAIRS = 5


def paired_overhead(rate_off, rate_on):
    """``(median of off/on - 1, median on-rate)`` over
    :data:`TELEMETRY_PAIRS` interleaved calls of the two rate functions,
    off first."""
    overheads, on_rates = [], []
    for _ in range(TELEMETRY_PAIRS):
        off = rate_off()
        on = rate_on()
        overheads.append(off / on - 1.0)
        on_rates.append(on)
    return statistics.median(overheads), statistics.median(on_rates)


def probe_telemetry_overhead() -> float:
    """Instrumented txns/sec, guarded two ways against regressions.

    1. *Simulated time is free*: per-run simulated transaction and
       checkpoint nanoseconds must be bit-identical with telemetry on
       and off.
    2. *Host time is bounded*: the enabled/disabled host-rate gap, the
       median of :data:`TELEMETRY_PAIRS` interleaved pairs, must stay
       under :data:`TELEMETRY_OVERHEAD_BOUND`.
    """
    spec = WorkloadSpec(op="insert", txns=50, ops_per_txn=1, group_epoch=8)

    def run():
        return run_workload(
            tuna(500), BackendSpec.nvwal(NvwalScheme.uh_ls_diff()), spec
        )

    def rate_on() -> float:
        return _rate(run, min_seconds=0.5)

    def rate_off() -> float:
        with telemetry_disabled():
            return rate_on()

    with telemetry_disabled():
        baseline = run()
    enabled = run()
    assert enabled.txn_time_ns == baseline.txn_time_ns, (
        "telemetry changed simulated transaction time: "
        f"{enabled.txn_time_ns} != {baseline.txn_time_ns}"
    )
    assert enabled.checkpoint_time_ns == baseline.checkpoint_time_ns, (
        "telemetry changed simulated checkpoint time: "
        f"{enabled.checkpoint_time_ns} != {baseline.checkpoint_time_ns}"
    )
    overhead, enabled_rate = paired_overhead(rate_off, rate_on)
    assert overhead < TELEMETRY_OVERHEAD_BOUND, (
        f"telemetry host overhead {overhead:.1%} exceeds the "
        f"{TELEMETRY_OVERHEAD_BOUND:.0%} bound"
    )
    return enabled_rate * spec.txns


PROBES = {
    "cache_store_page_per_sec": probe_store_page,
    "cache_load_page_per_sec": probe_load_page,
    "flush_commit_cycle_per_sec": probe_flush_commit_cycle,
    "lazy_commit_cycle_per_sec": probe_lazy_commit_cycle,
    "wal_group_append_frames_per_sec": probe_group_append,
    "heapo_alloc_free_per_sec": probe_heapo_churn,
    "heapo_lookup_per_sec": probe_heapo_lookup,
    "heapo_attach_per_sec": probe_heapo_attach,
    "power_cycle_recover_per_sec": probe_power_cycle_recover,
    "filewal_power_cycle_recover_per_sec": probe_filewal_power_cycle_recover,
    "failover_per_sec": probe_failover,
    "ext4_append_fsync_per_sec": probe_ext4_append_fsync,
    "diff_compute_extents_per_sec": probe_diff_extents,
    "btree_point_get_per_sec": probe_btree_point_get,
    "sql_point_select_per_sec": probe_sql_point_select,
    "sql_point_select_inlined_per_sec": probe_sql_point_select_inlined,
    "sql_range_select_per_sec": probe_sql_range_select,
    "host_insert_txns_per_sec": probe_insert_txns,
    "telemetry_overhead_txns_per_sec": probe_telemetry_overhead,
}


def run_all(repeat: int = 1) -> dict[str, float]:
    """Run every probe; mapping of probe name -> host ops/sec.

    With ``repeat`` > 1 the whole suite runs that many times and each
    probe reports its best pass — the ``timeit`` convention: the minimum
    time (maximum rate) is the least-disturbed measurement on a host
    shared with other tenants.
    """
    results: dict[str, float] = {}
    for _ in range(max(1, repeat)):
        for name, fn in PROBES.items():
            rate = round(fn(), 1)
            if rate > results.get(name, 0.0):
                results[name] = rate
    return results


# ---------------------------------------------------------------------------
# the JSON trajectory report
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure host-side simulator performance and emit JSON."
    )
    parser.add_argument(
        "--out",
        default="BENCH_simulator.json",
        help="output path (default: BENCH_simulator.json in the CWD)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="run the suite N times, report each probe's best pass",
    )
    args = parser.parse_args(argv)
    out = Path(args.out)
    if not out.parent.is_dir():
        parser.error(f"output directory does not exist: {out.parent}")
    results = run_all(repeat=args.repeat)
    report = {
        "schema": 1,
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "probes": results,
        "note": (
            "Host ops/sec of simulator hot primitives; higher is better. "
            "Simulated time is unaffected by these optimizations — see "
            "'Host performance vs. simulated time' in README.md."
        ),
    }
    out.write_text(json.dumps(report, indent=2) + "\n")
    for name, rate in results.items():
        print(f"{name:36s} {rate:>14,.1f}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
