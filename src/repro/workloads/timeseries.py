"""Time-series append + windowed retention workload.

Monotone appends into ``ts(t INTEGER PRIMARY KEY, source INTEGER,
value REAL)`` with a secondary index on ``source``, punctuated by
retention deletes (``DELETE FROM ts WHERE t < cutoff``) that trim
everything older than a sliding window.  The steady delete stream keeps
the pager's freelist, the WAL, and the checkpoint path hot — pages are
constantly freed and reused — while the per-source index is maintained
through both the appends and the bulk deletes.

Reads are a mix of indexed per-source queries and primary-key window
scans.  Values are quarter-integers so REAL round-trips are exact.
"""

from __future__ import annotations

from repro.workloads.core import Op, Txn, Workload, group_ops, workload_rng

TABLE = "ts"
INDEX = "ts_source"

#: Distinct sources; small so each source's index key accumulates many
#: entries (multi-entry payloads, overflow once hot enough).
SOURCES = 6

#: Rows kept by a retention pass: everything older is deleted.
WINDOW = 40


class TimeSeriesWorkload(Workload):
    name = "timeseries"
    table = TABLE

    def __init__(self, txn_size: int = 3):
        self.txn_size = txn_size

    def setup_sql(self) -> tuple[str, ...]:
        return (
            f"CREATE TABLE {TABLE} (t INTEGER PRIMARY KEY, "
            "source INTEGER, value REAL)",
            f"CREATE INDEX {INDEX} ON {TABLE} (source)",
        )

    # ------------------------------------------------------------------
    # generation
    # ------------------------------------------------------------------

    def generate_txns(self, seed: int, op_count: int) -> tuple[Txn, ...]:
        rng = workload_rng(seed, salt=2)
        ops: list[Op] = []
        next_t = 1
        for _i in range(op_count):
            roll = rng.random()
            if roll < 0.70 or next_t <= 2:
                ops.append((
                    "append",
                    next_t,
                    (rng.randrange(SOURCES), rng.randrange(0, 4000) / 4.0),
                ))
                next_t += 1
            elif roll < 0.78:
                ops.append(("retain", max(1, next_t - WINDOW), None))
            elif roll < 0.90:
                ops.append(("sread", rng.randrange(SOURCES), None))
            else:
                lo = rng.randint(max(1, next_t - WINDOW), next_t)
                ops.append(("wread", lo, lo + rng.randint(1, WINDOW // 2)))
        return group_ops(rng, ops, self.txn_size)

    # ------------------------------------------------------------------
    # model
    # ------------------------------------------------------------------

    def initial_model(self) -> dict:
        return {}  # t -> (source, value)

    def fold_op(self, model: dict, op: Op) -> None:
        kind, arg, extra = op
        if kind == "append":
            model[arg] = extra
        elif kind == "retain":
            for t in [t for t in model if t < arg]:
                del model[t]

    def expected_read(self, model: dict, op: Op):
        kind, arg, extra = op
        if kind == "sread":
            return sorted(
                (t,) for t, (source, _v) in model.items() if source == arg
            )
        if kind == "wread":
            return sorted(
                (t, value)
                for t, (_source, value) in model.items()
                if arg <= t <= extra
            )
        return None

    # ------------------------------------------------------------------
    # SQL
    # ------------------------------------------------------------------

    def apply_op(self, db, op: Op):
        kind, arg, extra = op
        if kind == "append":
            source, value = extra
            db.execute(
                f"INSERT INTO {TABLE} VALUES (?, ?, ?)", (arg, source, value)
            )
        elif kind == "retain":
            db.execute(f"DELETE FROM {TABLE} WHERE t < ?", (arg,))
        elif kind == "sread":
            return db.execute(
                f"SELECT t FROM {TABLE} WHERE source = ?", (arg,)
            )
        elif kind == "wread":
            return db.execute(
                f"SELECT t, value FROM {TABLE} WHERE t >= ? AND t <= ?",
                (arg, extra),
            )
        else:
            raise ValueError(f"unknown timeseries op kind: {kind!r}")
        return None

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    def model_rows(self, model: dict) -> tuple:
        return tuple(
            sorted((t, source, value) for t, (source, value) in model.items())
        )

    def setup_progress(self, db) -> int:
        if not db.table_exists(TABLE):
            return 0
        return 2 if db.index_exists(INDEX) else 1
