"""YCSB-style key/value mixes over an indexed table.

The table is ``ycsb(k INTEGER PRIMARY KEY, grp INTEGER, payload TEXT)``
with a secondary index on ``grp``, so every run keeps the index
maintenance path (insert/update/delete) and the planner's index probes
hot.  The six standard mixes:

========  =======================================  ============
mix       operations                               distribution
========  =======================================  ============
``a``     50% read / 50% update                    zipfian
``b``     95% read / 5% update                     hotspot
``c``     100% read                                zipfian
``d``     95% read-latest / 5% insert              latest
``e``     95% short range scan / 5% insert         uniform
``f``     50% read / 50% read-modify-write         zipfian
========  =======================================  ============

A slice of reads in every mix goes through the secondary index
(``WHERE grp = ?``), and mixes a/f occasionally update *via* the index
(``UPDATE ... WHERE grp = ?``), so crash sweeps exercise multi-row
index maintenance inside one statement.
"""

from __future__ import annotations

from repro.workloads.core import (
    Op,
    Txn,
    Workload,
    group_ops,
    make_sampler,
    workload_rng,
)

TABLE = "ycsb"
INDEX = "ycsb_grp"

#: Distinct group values; small so index keys collide and payload lists
#: under one monotone key grow multi-entry (the interesting case).
GROUPS = 8

#: mix -> (op kinds with probabilities, key distribution)
MIXES = {
    "a": ((("read", 0.5), ("update", 0.5)), "zipfian"),
    "b": ((("read", 0.95), ("update", 0.05)), "hotspot"),
    "c": ((("read", 1.0),), "zipfian"),
    "d": ((("read", 0.95), ("insert", 0.05)), "latest"),
    "e": ((("scan", 0.95), ("insert", 0.05)), "uniform"),
    "f": ((("read", 0.5), ("rmw", 0.5)), "zipfian"),
}

#: Fraction of point reads served through the secondary index instead
#: of the primary key, and of updates that go via the index.
_INDEXED_READ_FRACTION = 0.25
_INDEXED_UPDATE_FRACTION = 0.15

_MAX_SCAN = 12


#: Rows loaded before a mix's operations start.
RECORD_COUNT = 24


class YcsbWorkload(Workload):
    """One YCSB mix; ``RECORD_COUNT`` rows are loaded first."""

    def __init__(self, mix: str = "a", txn_size: int = 3):
        if mix not in MIXES:
            raise ValueError(f"unknown YCSB mix {mix!r}; pick from {sorted(MIXES)}")
        self.mix = mix
        self.txn_size = txn_size
        self.name = f"ycsb-{mix}"
        self.table = TABLE

    def setup_sql(self) -> tuple[str, ...]:
        return (
            f"CREATE TABLE {TABLE} (k INTEGER PRIMARY KEY, "
            "grp INTEGER, payload TEXT)",
            f"CREATE INDEX {INDEX} ON {TABLE} (grp)",
        )

    # ------------------------------------------------------------------
    # generation
    # ------------------------------------------------------------------

    def generate_txns(self, seed: int, op_count: int) -> tuple[Txn, ...]:
        rng = workload_rng(seed, salt=1)
        kinds, dist = MIXES[self.mix]
        sampler = make_sampler(dist if dist != "latest" else "zipfian", 1)
        live: list[int] = []
        next_key = 1
        ops: list[Op] = []

        def payload(i: int) -> str:
            return f"p{seed}.{i}." + "x" * rng.randint(6, 30)

        def pick_key() -> int:
            sampler.resize(len(live))
            rank = sampler.sample(rng)
            if dist == "latest":
                return live[len(live) - 1 - rank]  # rank 0 = newest
            return live[rank]

        for i in range(RECORD_COUNT):
            ops.append(("insert", next_key, (rng.randrange(GROUPS), payload(i))))
            live.append(next_key)
            next_key += 1

        for i in range(op_count):
            roll = rng.random()
            kind = kinds[-1][0]
            acc = 0.0
            for name, prob in kinds:
                acc += prob
                if roll < acc:
                    kind = name
                    break
            if kind == "insert" or not live:
                ops.append(
                    ("insert", next_key, (rng.randrange(GROUPS), payload(i)))
                )
                live.append(next_key)
                next_key += 1
            elif kind == "read":
                if rng.random() < _INDEXED_READ_FRACTION:
                    ops.append(("iread", rng.randrange(GROUPS), None))
                else:
                    ops.append(("read", pick_key(), None))
            elif kind == "update":
                if rng.random() < _INDEXED_UPDATE_FRACTION:
                    ops.append(
                        ("gupdate", rng.randrange(GROUPS), f"g{seed}.{i}")
                    )
                else:
                    ops.append(("update", pick_key(), payload(i)))
            elif kind == "scan":
                ops.append((
                    "scan",
                    pick_key(),
                    rng.randint(1, _MAX_SCAN),
                ))
            else:  # rmw
                ops.append(("rmw", pick_key(), f"+r{i}"))

        return group_ops(rng, ops, self.txn_size)

    # ------------------------------------------------------------------
    # model
    # ------------------------------------------------------------------

    def initial_model(self) -> dict:
        return {}  # key -> (grp, payload)

    def fold_op(self, model: dict, op: Op) -> None:
        kind, arg, extra = op
        if kind == "insert":
            model[arg] = extra
        elif kind == "update":
            if arg in model:
                model[arg] = (model[arg][0], extra)
        elif kind == "gupdate":
            for key, (grp, _payload) in list(model.items()):
                if grp == arg:
                    model[key] = (grp, extra)
        elif kind == "rmw":
            if arg in model:
                grp, payload = model[arg]
                model[arg] = (grp, payload + extra)

    def expected_read(self, model: dict, op: Op):
        kind, arg, extra = op
        if kind == "read":
            if arg in model:
                grp, payload = model[arg]
                return [(arg, grp, payload)]
            return []
        if kind == "iread":
            return sorted(
                (key,) for key, (grp, _p) in model.items() if grp == arg
            )
        if kind == "scan":
            return sorted(
                (key, grp)
                for key, (grp, _p) in model.items()
                if arg <= key < arg + extra
            )
        return None

    # ------------------------------------------------------------------
    # SQL
    # ------------------------------------------------------------------

    def apply_op(self, db, op: Op):
        kind, arg, extra = op
        if kind == "insert":
            grp, payload = extra
            db.execute(
                f"INSERT INTO {TABLE} VALUES (?, ?, ?)", (arg, grp, payload)
            )
        elif kind == "update":
            db.execute(
                f"UPDATE {TABLE} SET payload = ? WHERE k = ?", (extra, arg)
            )
        elif kind == "gupdate":
            db.execute(
                f"UPDATE {TABLE} SET payload = ? WHERE grp = ?", (extra, arg)
            )
        elif kind == "rmw":
            rows = db.execute(
                f"SELECT payload FROM {TABLE} WHERE k = ?", (arg,)
            )
            if rows:
                db.execute(
                    f"UPDATE {TABLE} SET payload = ? WHERE k = ?",
                    (rows[0][0] + extra, arg),
                )
        elif kind == "read":
            return db.execute(
                f"SELECT k, grp, payload FROM {TABLE} WHERE k = ?", (arg,)
            )
        elif kind == "iread":
            return db.execute(f"SELECT k FROM {TABLE} WHERE grp = ?", (arg,))
        elif kind == "scan":
            return db.execute(
                f"SELECT k, grp FROM {TABLE} WHERE k >= ? AND k < ?",
                (arg, arg + extra),
            )
        else:
            raise ValueError(f"unknown ycsb op kind: {kind!r}")
        return None

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    def model_rows(self, model: dict) -> tuple:
        return tuple(
            sorted((k, grp, payload) for k, (grp, payload) in model.items())
        )

    def setup_progress(self, db) -> int:
        if not db.table_exists(TABLE):
            return 0
        return 2 if db.index_exists(INDEX) else 1
