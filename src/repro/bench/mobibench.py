"""Mobibench-style SQLite workload generator.

The paper's evaluation driver (Section 5.3): submit N transactions, each
inserting, updating, or deleting ``ops_per_txn`` 100-byte records.  This
module reproduces that workload against our :class:`repro.db.Database`, with
per-transaction simulated-time accounting and checkpoint time isolated so
experiments can include or exclude it (the Tuna and Nexus 5 sections treat
it differently).
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field

from repro.db.database import Database
from repro.hw.stats import Stats

_OPS = ("insert", "update", "delete")

#: The one table every run writes.
TABLE = "mobibench"


@dataclass(frozen=True)
class WorkloadSpec:
    """One Mobibench configuration."""

    op: str = "insert"
    txns: int = 1000
    ops_per_txn: int = 1
    value_size: int = 100
    seed: int = 1234
    #: 0 = per-transaction commit (classic Mobibench).  N > 0 batches N
    #: transactions into one WAL epoch: each transaction joins the open
    #: epoch via ``group_commit`` and the epoch closes (one flush +
    #: persist-barrier sequence for the whole batch) every N transactions
    #: and at the end of the run.
    group_epoch: int = 0

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"op must be one of {_OPS}, got {self.op!r}")
        if self.group_epoch < 0:
            raise ValueError("group_epoch must be >= 0")


@dataclass
class RunResult:
    """Aggregate outcome of one workload run."""

    spec: WorkloadSpec
    txn_time_ns: float = 0.0
    checkpoint_time_ns: float = 0.0
    checkpoints: int = 0
    txns: int = 0
    stats: Stats = field(default_factory=Stats)

    def throughput(self, include_checkpoint: bool = False) -> float:
        """Transactions per simulated second."""
        total = self.txn_time_ns
        if include_checkpoint:
            total += self.checkpoint_time_ns
        if total <= 0:
            return 0.0
        return self.txns / (total / 1e9)

    def mean_txn_us(self) -> float:
        """Average transaction execution time in microseconds."""
        if self.txns == 0:
            return 0.0
        return self.txn_time_ns / self.txns / 1e3

    def per_txn(self, counter: str) -> float:
        """Average of a stats counter per transaction."""
        if self.txns == 0:
            return 0.0
        return self.stats.get_count(counter) / self.txns

    def time_per_txn_us(self, bucket) -> float:
        """Average simulated time per transaction in one bucket (usec)."""
        if self.txns == 0:
            return 0.0
        return self.stats.get_time(bucket) / self.txns / 1e3


class Mobibench:
    """Runs one :class:`WorkloadSpec` against a database."""

    def __init__(self, db: Database, spec: WorkloadSpec) -> None:
        self.db = db
        self.spec = spec
        self.rng = random.Random(spec.seed)

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def prepare(self) -> None:
        """Create the table; pre-populate for update/delete workloads.

        Preparation time is excluded from the measured run.
        """
        spec = self.spec
        self.db.execute(
            f"CREATE TABLE IF NOT EXISTS {TABLE} "
            "(key INTEGER PRIMARY KEY, value TEXT)"
        )
        if spec.op == "insert":
            return
        total = spec.txns * spec.ops_per_txn
        with self.db.transaction():
            for key in range(total):
                self.db.execute(
                    f"INSERT INTO {TABLE} VALUES (?, ?)",
                    (key, self._value()),
                )
        # Start the measured phase from a clean log, as Mobibench restarts
        # SQLite between phases.
        self.db.checkpoint()

    def _value(self) -> str:
        return "".join(
            self.rng.choices(string.ascii_letters + string.digits,
                             k=self.spec.value_size)
        )

    # ------------------------------------------------------------------
    # the measured run
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Execute the workload; returns timing and counter aggregates.

        Checkpoints triggered by the SQLite threshold run *between*
        transactions with their time recorded separately, so the caller
        decides whether they count toward throughput (Section 5.3 vs 5.4).
        """
        spec = self.spec
        group = spec.group_epoch
        clock = self.db.system.clock
        stats = self.db.system.stats
        result = RunResult(spec=spec)
        auto = self.db.auto_checkpoint
        self.db.auto_checkpoint = False
        before = stats.snapshot()
        try:
            key_cursor = 0
            for txn_index in range(spec.txns):
                start = clock.now_ns
                if group:
                    self.db.begin()
                    for _ in range(spec.ops_per_txn):
                        key_cursor = self._one_op(key_cursor, txn_index)
                    self.db.group_commit()
                else:
                    with self.db.transaction():
                        for _ in range(spec.ops_per_txn):
                            key_cursor = self._one_op(key_cursor, txn_index)
                result.txn_time_ns += clock.now_ns - start
                result.txns += 1
                # The epoch close is commit work amortized over the batch:
                # its time counts toward transaction time, not checkpoint
                # time.  Checkpoints may only run between epochs.
                if group and (txn_index + 1) % group == 0:
                    start = clock.now_ns
                    self.db.flush_group()
                    result.txn_time_ns += clock.now_ns - start
                if (
                    not group or (txn_index + 1) % group == 0
                ) and self.db.wal.should_checkpoint():
                    ckpt_start = clock.now_ns
                    self.db.checkpoint()
                    result.checkpoint_time_ns += clock.now_ns - ckpt_start
                    result.checkpoints += 1
            if group:
                start = clock.now_ns
                self.db.flush_group()
                result.txn_time_ns += clock.now_ns - start
        finally:
            self.db.auto_checkpoint = auto
        result.stats = stats.delta_since(before)
        return result

    def _one_op(self, key_cursor: int, txn_index: int) -> int:
        spec = self.spec
        if spec.op == "insert":
            self.db.execute(
                f"INSERT INTO {TABLE} VALUES (?, ?)",
                (key_cursor, self._value()),
            )
            return key_cursor + 1
        if spec.op == "update":
            total = spec.txns * spec.ops_per_txn
            key = self.rng.randrange(total)
            self.db.execute(
                f"UPDATE {TABLE} SET value = ? WHERE key = ?",
                (self._value(), key),
            )
            return key_cursor
        # delete: remove keys sequentially so every delete hits a row
        self.db.execute(
            f"DELETE FROM {TABLE} WHERE key = ?", (key_cursor,)
        )
        return key_cursor + 1
