"""What nvbench runs and what it reports: workloads, metrics, bounds.

This file is the benchmark's own source of truth.  ``BENCHMARK.json`` at
the repository root carries the subset the driver's contract allows
(names, units, directions, bounds, one-line reasons); everything the
contract has no key for — op counts, configurations, the compare rule of
each metric, and the layer -> end-to-end predictions — lives here, and
``tests/test_spec.py`` keeps the two files in step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Common factor applied to every full-scale op count below.  The driver
#: gives one invocation ~30 s including several set-ups, so one round has
#: to last ~3 s, not the 5-8 s the full-scale counts were sized for.
SCALE = 0.5

#: ``--smoke`` factor (self-tests only; results are stamped not comparable).
SMOKE_SCALE = 0.05

#: Recovery phase: cycles per round and write ops per cycle (full scale).
RECOVERY_CYCLES = 3
RECOVERY_OPS = 600

#: Rounds per ``--workload`` invocation: at least this many, then until
#: the measured phases add up to ``--seconds``.  With ``--trace 1`` the
#: shape is fixed: ``TRACE_PLAIN_ROUNDS`` untraced rounds, then the traced
#: ones (10-20 s of measured phases, whatever ``--seconds`` says).
MIN_ROUNDS = 3
TRACE_PLAIN_ROUNDS = 3
#: Traced rounds (and telemetry-off rounds on serve-repl) per invocation:
#: two, so their cost too can be taken op by op at its fastest run and set
#: against as many untraced rounds.
SPECIAL_ROUNDS = 2
#: Rounds per workload of the all-workloads run (round-robin).  Five at
#: half scale, not the issue's three at full scale: the fastest-run
#: estimator of the host figures needs the repetitions more than the ops.
FULL_ROUNDS = 5

#: Full spans are kept for this many leading ops of the traced round.
TRACE_SPAN_OPS = 200

#: What one ``rounds.reference_work()`` call costs on the quiet sandbox
#: host (ns).  Only a scale: it makes the speed-corrected
#: ``host_ops_per_s`` read as this host's ops/s when it is quiet.
REFERENCE_WORK_NS = 6_400

VALUE_BYTES = 100
KEY_BYTES = 8
BLOCK_BYTES = 4096


@dataclass(frozen=True)
class Workload:
    """One named workload at full scale (``scaled`` applies a factor)."""

    name: str
    kind: str  # "single" (one Database connection) or "serve" (cluster)
    profile: str  # "tuna" or "nexus5"
    wal: str  # "uh_ls_diff", "eager" or "filewal"
    ops: int  # measured-phase client requests
    preload_rows: int
    mix: str  # "mobi" (50/25/25 insert/update/delete) or "kv" (90/5/5)
    why: str
    bypasses: str

    def scaled(self, factor: float) -> "Workload":
        return replace(
            self,
            ops=max(40, int(self.ops * factor)),
            preload_rows=int(self.preload_rows * factor),
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "mobi-lazy", "single", "tuna", "uh_ls_diff", 20_000, 0, "mobi",
            "paper's final scheme UH+LS+Diff (Fig. 7): diff, user heap and "
            "the bulk lazy flush path do the commit work",
            "storage (checkpoints only), service, replication, archive",
        ),
        Workload(
            "mobi-eager", "single", "tuna", "eager", 10_000, 0, "mobi",
            "same input stream under eager sync: full-page frames, kernel "
            "nvmalloc and flush+dmb+barrier per frame; bypasses diff, user "
            "heap and lazy batching",
            "wal.diff, nvram user heap, lazy batching",
        ),
        Workload(
            "flash-wal", "single", "nexus5", "filewal", 10_000, 0, "mobi",
            "stock file WAL on ext4/eMMC (Figs. 8/9 baseline): storage "
            "does the work, the cache/NVRAM model is idle",
            "hw flush path, nvram, wal.diff",
        ),
        Workload(
            "kv-read", "single", "tuna", "uh_ls_diff", 60_000, 20_000, "kv",
            "90% point / 5% range SELECT, 5% UPDATE on a depth-3 tree with "
            "more SQL texts than the 256-entry parse cache: db.sql/btree/"
            "pager work, log path nearly idle",
            "wal, hw, nvram (5% of ops)",
        ),
        Workload(
            # 4 000, not the issue's 12 000: the issue sized a round at 5-8 s
            # from a prototype that served 1.6k ops/s; with two followers
            # replaying, the scrub daemon and the archive this host serves
            # ~600 ops/s, and 4 000 ops is what 5-8 s holds.
            "serve-repl", "serve", "tuna", "uh_ls_diff", 4_000, 2_000, "serve",
            "4 writers + 1 reader on a semisync 2-follower cluster with "
            "group commit and the ext4 archive: the only run of service, "
            "replication, archive and telemetry; recovery is failover",
            "nothing; the four single-connection workloads bypass its layers",
        ),
    )
}

#: serve-repl: share of ops that are writer transactions (the rest are reads).
SERVE_WRITE_SHARE = 2 / 3
SERVE_WRITERS = 4
#: Simulated think time between two reads, so the one reader session
#: stays beside the writers for the whole phase instead of finishing in
#: one scheduler step (a read that needs no retry never yields).
SERVE_READ_THINK_NS = 400_000
#: serve-repl recovery phase: every replica checkpoints, then this many
#: one-update transactions refill the logs before the power cut, so the
#: promoted follower scrubs the same amount of log on every seed (the
#: cluster checkpoints every 48 frames; whatever the measured phase left
#: in the log is anywhere between 0 and 47).
SERVE_EPILOGUE_TXNS = 12

#: ``Stats`` time buckets reported as ``sim.share.<bucket>``; whatever
#: they leave of the clock is ``sim.share.unattributed``.
SIM_BUCKETS = ("cpu", "memcpy", "dccmvac", "dmb", "persist_barrier",
               "syscall", "heap", "block_io")

LAYERS = (
    "db.sql", "db.btree", "db.pager", "db.database", "wal", "wal.diff",
    "nvram", "hw", "storage", "service", "replication", "archive",
)


@dataclass(frozen=True)
class EndToEnd:
    """One end-to-end metric.

    ``bound`` is what ``BENCHMARK.json`` carries: the driver runs every
    invocation with another seed, so even a simulated metric needs a
    bound wider than its seed-to-seed spread there.  ``compare`` is the
    rule ``--compare`` applies between two result files of the *same*
    seed: "exact" for the simulated clock, "relative" (with ``bound``)
    for the host clock.
    """

    name: str
    unit: str
    better: str
    bound: float
    compare: str
    meaning: str


END_TO_END = (
    EndToEnd("sim_ops_per_s", "ops/sim_s", "higher", 0.10, "exact",
             "measured-phase ops per simulated second (the paper's axis)"),
    EndToEnd("sim_op_p50_us", "sim_us", "lower", 0.25, "exact",
             "median per-op latency on the simulated clock"),
    EndToEnd("sim_op_p99_us", "sim_us", "lower", 0.25, "exact",
             "p99 per-op latency on the simulated clock"),
    EndToEnd("sim_op_tail_us", "sim_us", "lower", 0.25, "exact",
             "mean latency of the slowest 0.1% of ops: where checkpoint "
             "stalls show"),
    EndToEnd("sim_write_amp", "bytes/byte", "lower", 0.10, "exact",
             "(NVRAM bytes persisted + 4096 x block writes) / user payload"),
    EndToEnd("sim_recovery_us", "sim_us", "lower", 0.25, "exact",
             "median simulated time to reopen after power loss (promote() "
             "on serve-repl)"),
    EndToEnd("host_ops_per_s", "ops/s", "higher", 0.25, "relative",
             "measured-phase ops per wall second, each op at its fastest "
             "run over the rounds, at the quiet host's speed"),
    EndToEnd("host_recovery_ms", "ms", "lower", 0.25, "relative",
             "wall time of reboot + reopen (kill_primary + promote on "
             "serve-repl): the fastest of the invocation"),
    EndToEnd("host_peak_rss_mb", "MiB", "lower", 0.10, "relative",
             "ru_maxrss of the round's process, median of the rounds"),
    EndToEnd("setup_s", "s", "lower", 0.25, "relative",
             "process start, imports, input generation, build and preload; "
             "the fastest of the rounds"),
)

#: ``failed_op_share`` is the eleventh end-to-end figure.  It is always 0
#: on a healthy tree, and the contract forbids a metric that is 0, so it
#: travels as the result line's ``failed`` / ``attempted`` instead and
#: ``--compare`` holds it to 0 absolute.
FAILED_OP_SHARE = "failed_op_share"


@dataclass(frozen=True)
class PerLayer:
    """One per-layer metric and the prediction recorded before measuring."""

    name: str
    unit: str
    better: str
    exact: bool  # a count that must repeat exactly (vs a host time)
    moves: str  # end-to-end metrics it should move
    on: str  # workloads where it should
    flat_on: str  # workloads where the prediction is no change


def _layer_rows() -> list[PerLayer]:
    host = {
        "hw": ("host_ops_per_s", "mobi-lazy, mobi-eager", "flash-wal, kv-read"),
        "wal": ("host_ops_per_s, host_recovery_ms", "mobi-lazy, mobi-eager", "kv-read"),
        "wal.diff": ("host_ops_per_s, host_recovery_ms", "mobi-lazy", "mobi-eager, flash-wal, kv-read"),
        "nvram": ("host_ops_per_s, host_recovery_ms", "mobi-lazy (user heap), mobi-eager (heapo)", "flash-wal, kv-read"),
        "db.sql": ("host_ops_per_s", "kv-read most, all others partly", "-"),
        "db.btree": ("host_ops_per_s", "kv-read most, all others partly", "-"),
        "db.pager": ("host_ops_per_s", "kv-read most, all others partly", "-"),
        "db.database": ("host_ops_per_s", "all", "-"),
        "storage": ("host_ops_per_s, sim_ops_per_s, sim_write_amp", "flash-wal, serve-repl (archive)", "mobi-lazy, mobi-eager, kv-read"),
        "service": ("host_ops_per_s, sim_op_p50_us", "serve-repl", "the other four"),
        "replication": ("host_ops_per_s, sim_op_p50_us", "serve-repl", "the other four"),
        "archive": ("host_ops_per_s, sim_op_p50_us", "serve-repl", "the other four"),
    }
    rows = []
    for layer in LAYERS:
        moves, on, flat = host[layer]
        rows.append(PerLayer(f"{layer}.calls_per_op", "1/op", "lower", True, moves, on, flat))
        rows.append(PerLayer(f"{layer}.host_self_us_per_op", "us/op", "lower", False, moves, on, flat))
    db_on = ("host_ops_per_s", "kv-read most, all others partly", "-")
    sim_flush = ("sim_ops_per_s, sim_op_p50_us", "mobi-eager >> mobi-lazy", "flash-wal")
    sim_bytes = ("sim_write_amp, sim_recovery_us", "mobi-lazy vs mobi-eager", "-")
    ckpt = ("sim_op_tail_us", "all", "-")
    storage = host["storage"]
    serve = ("host_ops_per_s, sim_op_p50_us", "serve-repl", "the other four")
    share = ("sim_ops_per_s", "all", "-")
    rows += [
        PerLayer("db.sql.parse_miss_share", "share", "lower", True, *db_on),
        PerLayer("db.btree.depth", "count", "lower", True, *db_on),
        PerLayer("db.pager.page_visits_per_op", "1/op", "lower", True, *db_on),
        PerLayer("db.pager.dirty_pages_per_txn", "1/txn", "lower", True, *sim_bytes),
        PerLayer("wal.frames_per_txn", "1/txn", "lower", True, *sim_bytes),
        PerLayer("wal.log_bytes_per_txn", "bytes/txn", "lower", True, *sim_bytes),
        PerLayer("wal.checkpoints", "count", "lower", True, *ckpt),
        PerLayer("wal.checkpoint_sim_share", "share", "lower", True, *ckpt),
        PerLayer("wal.checkpoint_sim_us_max", "sim_us", "lower", True, *ckpt),
        PerLayer("wal.frames_at_crash", "count", "lower", True,
                 "sim_recovery_us, host_recovery_ms", "all", "-"),
        PerLayer("wal.diff.logged_bytes_per_dirty_page", "bytes", "lower", True, *sim_bytes),
        PerLayer("nvram.heapo_calls_per_txn", "1/txn", "lower", True,
                 "sim_ops_per_s", "mobi-eager >> mobi-lazy", "flash-wal"),
        PerLayer("nvram.frames_per_block", "count", "higher", True,
                 "sim_ops_per_s", "mobi-lazy, kv-read", "mobi-eager, flash-wal"),
        PerLayer("hw.flushes_per_txn", "1/txn", "lower", True, *sim_flush),
        PerLayer("hw.dmb_per_txn", "1/txn", "lower", True, *sim_flush),
        PerLayer("hw.persist_barriers_per_txn", "1/txn", "lower", True, *sim_flush),
        PerLayer("hw.nvram_bytes_per_txn", "bytes/txn", "lower", True, *sim_bytes),
        PerLayer("hw.cache_evictions_per_txn", "1/txn", "lower", True,
                 "sim_ops_per_s", "mobi-lazy", "flash-wal"),
    ]
    rows += [
        PerLayer(f"sim.share.{bucket}", "share", "lower", True, *share)
        for bucket in (*SIM_BUCKETS, "unattributed")
    ]
    rows += [
        PerLayer("storage.block_writes_per_txn", "1/txn", "lower", True, *storage),
        PerLayer("storage.block_reads_per_txn", "1/txn", "lower", True, *storage),
        PerLayer("storage.block_flushes_per_txn", "1/txn", "lower", True, *storage),
        PerLayer("service.epoch_txns_mean", "txn", "higher", True, *serve),
        PerLayer("service.busy_waits_per_txn", "1/txn", "lower", True, *serve),
        PerLayer("service.client_resubmits", "count", "lower", True, *serve),
        PerLayer("replication.lag_sim_us_p95", "sim_us", "lower", True, *serve),
        PerLayer("replication.resends", "count", "lower", True, *serve),
        PerLayer("replication.segment_bytes_per_txn", "bytes/txn", "lower", True, *serve),
        PerLayer("archive.bytes_per_txn", "bytes/txn", "lower", True, *serve),
        PerLayer("archive.gc_segments", "count", "higher", True, *serve),
        PerLayer("telemetry.host_overhead_share", "share", "lower", False, *serve),
        PerLayer("trace.host_overhead_share", "share", "lower", False,
                 "none (quality of the traced run)", "all", "-"),
        PerLayer("trace.host_covered_share", "share", "higher", False,
                 "none (quality of the traced run)", "all", "-"),
    ]
    return rows


PER_LAYER = tuple(_layer_rows())
