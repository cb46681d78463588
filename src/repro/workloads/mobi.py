"""The keyed insert/update/delete mix over ``t(k INTEGER PRIMARY KEY, v TEXT)``.

The Mobibench-style mix the crash torture sweep, the service and
replication chaos harnesses and the telemetry storm all draw their
transactions from, and the table the service layer serves
(:data:`TABLE`).  Everything is derived from one integer seed, so a
failing run can be replayed from nothing but its trace file.
"""

from __future__ import annotations

import random

from repro.workloads.core import Op, Txn, Workload, group_ops

TABLE = "t"
DDL = f"CREATE TABLE {TABLE} (k INTEGER PRIMARY KEY, v TEXT)"

#: RNG stream constants, distinct from the crash/media/IO streams so the
#: workload shape never correlates with fault placement.
_WORKLOAD_MUL = 0xB5297A4D
_WORKLOAD_ADD = 0x68E31DA4


def generate_txns(seed: int, op_count: int, txn_size: int = 3) -> tuple[Txn, ...]:
    """Deterministic workload: ``op_count`` ops grouped into transactions
    of 1..``txn_size`` ops.

    Inserts target free keys, updates/deletes target live keys, so the
    SQL semantics match the trivial dict model exactly.  A small key
    space forces key reuse (insert after delete), which exercises
    differential logging's full-image-then-diff transitions.
    """
    rng = random.Random((seed * _WORKLOAD_MUL + _WORKLOAD_ADD) & 0xFFFFFFFF)
    key_space = max(8, op_count // 2)
    live: set[int] = set()
    ops: list[Op] = []
    for i in range(op_count):
        free = [k for k in range(1, key_space + 1) if k not in live]
        roll = rng.random()
        if not live or (free and roll < 0.5):
            k = rng.choice(free)
            live.add(k)
            kind = "insert"
        elif roll < 0.8 or not live:
            k = rng.choice(sorted(live))
            kind = "update"
        else:
            k = rng.choice(sorted(live))
            live.discard(k)
            kind = "delete"
        value = None
        if kind != "delete":
            value = f"s{seed}.{i}." + "x" * rng.randint(4, 24)
        ops.append((kind, k, value))
    return group_ops(rng, ops, txn_size)


class MobiWorkload(Workload):
    """:func:`generate_txns` as a :class:`Workload`: a dict fold model, no
    reads, one setup statement."""

    name = "mobi"
    table = TABLE

    def __init__(self, txn_size: int = 3):
        self.txn_size = txn_size

    def setup_sql(self) -> tuple[str, ...]:
        return (DDL,)

    def generate_txns(self, seed: int, op_count: int) -> tuple[Txn, ...]:
        return generate_txns(seed, op_count, self.txn_size)

    def initial_model(self) -> dict:
        return {}  # k -> v

    def fold_op(self, model: dict, op: Op) -> None:
        """Follows the SQL: ``update`` / ``delete`` of a missing key are
        no-ops, so the model stays right for any subset of a generated
        script (the minimizer deletes ops)."""
        kind, key, value = op
        if kind == "insert" or (kind == "update" and key in model):
            model[key] = value
        elif kind == "delete":
            model.pop(key, None)

    def expected_read(self, model: dict, op: Op):
        return None  # the mix has no reads

    def apply_op(self, db, op: Op):
        kind, key, value = op
        if kind == "insert":
            db.execute(f"INSERT INTO {TABLE} VALUES (?, ?)", (key, value))
        elif kind == "update":
            db.execute(f"UPDATE {TABLE} SET v = ? WHERE k = ?", (value, key))
        elif kind == "delete":
            db.execute(f"DELETE FROM {TABLE} WHERE k = ?", (key,))
        else:
            raise ValueError(f"unknown workload op kind: {kind!r}")
        return None

    def model_rows(self, model: dict) -> tuple:
        return tuple(sorted(model.items()))

    def setup_progress(self, db) -> int:
        return 1 if db.table_exists(TABLE) else 0

    def describe_mismatch(self, recovered, states, allowed) -> str:
        if recovered[0] == "setup":
            return (
                "state: table missing after recovery although the DDL "
                "transaction must have survived (allowed boundaries "
                f"{sorted(allowed)})"
            )
        return (
            f"state: recovered table ({len(recovered[1])} rows) matches no "
            f"allowed transaction boundary {sorted(allowed)} — a committed "
            "transaction was lost, torn, or resurrected"
        )
