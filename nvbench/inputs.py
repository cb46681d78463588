"""Seeded inputs and the dict model every result is checked against.

Everything a round feeds the program is generated here from
``(seed, workload)`` before the first timed statement, together with the
result the model expects for it.  Nothing is borrowed from
``repro.bench.mobibench`` or ``repro.workloads``, so a later change to
those generators cannot move the benchmark's inputs.

An *op* is ``(sql, params, expect, payload)``: ``expect`` is the affected
row count of a write or the row list of a SELECT, ``payload`` the user
bytes the statement writes (key + value for an insert, value for an
update, key for a delete, 0 for a read).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from nvbench.spec import (
    KEY_BYTES,
    RECOVERY_CYCLES,
    SERVE_EPILOGUE_TXNS,
    SERVE_WRITE_SHARE,
    SERVE_WRITERS,
    VALUE_BYTES,
)

TABLE = "mobibench"
DDL = f"CREATE TABLE {TABLE} (key INTEGER PRIMARY KEY, value TEXT)"
INSERT = f"INSERT INTO {TABLE} VALUES (?, ?)"
_UPDATE = f"UPDATE {TABLE} SET value = ? WHERE key = ?"
_DELETE = f"DELETE FROM {TABLE} WHERE key = ?"
_POINT = f"SELECT value FROM {TABLE} WHERE key = ?"
_RANGE = f"SELECT key FROM {TABLE} WHERE key >= ? AND key <= ?"
SELECT_ALL = f"SELECT key, value FROM {TABLE}"

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"
_KEY_SPACE = 2**31


def _rng(seed: int, stream: str) -> random.Random:
    # str seeds go through sha512, so streams are independent and stable.
    return random.Random(f"nvbench:{seed}:{stream}")


def _value(rng: random.Random) -> str:
    return "".join(rng.choices(_ALPHABET, k=VALUE_BYTES))


class LiveKeys:
    """The model: key -> value, with O(1) uniform choice over live keys."""

    def __init__(self) -> None:
        self.rows: dict[int, str] = {}
        self._keys: list[int] = []
        self._slot: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._keys)

    def fresh_key(self, rng: random.Random) -> int:
        while True:
            key = rng.randrange(1, _KEY_SPACE)
            if key not in self._slot:
                return key

    def pick(self, rng: random.Random) -> int:
        return self._keys[rng.randrange(len(self._keys))]

    def put(self, key: int, value: str) -> None:
        if key not in self._slot:
            self._slot[key] = len(self._keys)
            self._keys.append(key)
        self.rows[key] = value

    def drop(self, key: int) -> None:
        slot = self._slot.pop(key)
        last = self._keys.pop()
        if last != key:
            self._keys[slot] = last
            self._slot[last] = slot
        del self.rows[key]


@dataclass
class SingleInputs:
    """Inputs of one single-connection round."""

    preload: list[tuple[int, str]]
    measured: list[tuple]
    after_measured: dict[int, str]
    #: Per recovery cycle: (write ops, model after them).
    cycles: list[tuple[list[tuple], dict[int, str]]] = field(default_factory=list)


def _mobi_op(rng: random.Random, live: LiveKeys) -> tuple:
    roll = rng.random()
    if roll < 0.5 or not len(live):
        key, value = live.fresh_key(rng), _value(rng)
        live.put(key, value)
        return (INSERT, (key, value), 1, KEY_BYTES + VALUE_BYTES)
    key = live.pick(rng)
    if roll < 0.75:
        value = _value(rng)
        live.put(key, value)
        return (_UPDATE, (value, key), 1, VALUE_BYTES)
    live.drop(key)
    return (_DELETE, (key,), 1, KEY_BYTES)


def _kv_update(rng: random.Random, live: LiveKeys) -> tuple:
    key, value = live.pick(rng), _value(rng)
    live.put(key, value)
    return (_UPDATE, (value, key), 1, VALUE_BYTES)


def _kv_op(rng: random.Random, live: LiveKeys, ordered: list[int]) -> tuple:
    roll = rng.random()
    if roll < 0.90:
        key = live.pick(rng)
        expect = [(live.rows[key],)]
        if rng.random() < 0.25:
            # The key inlined as a literal: one more distinct SQL text
            # than the 256-entry parse cache holds.
            return (f"SELECT value FROM {TABLE} WHERE key = {key}", (), expect, 0)
        return (_POINT, (key,), expect, 0)
    if roll < 0.95:
        span = rng.randrange(10, 51)
        start = rng.randrange(len(ordered) - span)
        keys = ordered[start:start + span]
        return (_RANGE, (keys[0], keys[-1]), [(k,) for k in keys], 0)
    return _kv_update(rng, live)


def single_inputs(seed: int, mix: str, ops: int, preload_rows: int,
                  recovery_ops: int) -> SingleInputs:
    """Inputs for the four single-connection workloads.

    The three ``mobi`` workloads share one stream, so ``mobi-eager`` and
    ``flash-wal`` run a prefix of what ``mobi-lazy`` runs.
    """
    rng = _rng(seed, mix)
    live = LiveKeys()
    # Sorted preload keys: the tree is built left to right, the way a
    # bulk load does it, and every round starts from the same shape.
    preload = sorted(rng.sample(range(1, _KEY_SPACE), preload_rows))
    rows = [(key, _value(rng)) for key in preload]
    for key, value in rows:
        live.put(key, value)
    if mix == "mobi":
        def step():
            return _mobi_op(rng, live)
        write = step
    else:
        def step():
            return _kv_op(rng, live, preload)

        def write():
            return _kv_update(rng, live)
    measured = [step() for _ in range(ops)]
    out = SingleInputs(rows, measured, dict(live.rows))
    for _ in range(RECOVERY_CYCLES):
        cycle = [write() for _ in range(recovery_ops)]
        out.cycles.append((cycle, dict(live.rows)))
    return out


@dataclass
class ServeInputs:
    """Inputs of one ``serve-repl`` round.

    Writers own disjoint keys, so the final state is the union of the
    per-writer models whatever order the scheduler interleaves them in.
    """

    #: Per writer: transactions of 3 inserts that preload its keys.
    preload: list[list[tuple]]
    #: Per writer: transactions of 1-3 keyed ops, ``(kind, key, value)``.
    writers: list[list[tuple]]
    #: Keys the reader looks up, in order.
    reads: list[int]
    #: key -> writer index, for the reader's in-flight check.
    owner: dict[int, int]
    #: Writer 0's one-update transactions that refill the followers' logs
    #: between the pre-failover checkpoint and the power cut.
    epilogue: list[tuple]


def serve_inputs(seed: int, ops: int, preload_rows: int) -> ServeInputs:
    txns = int(ops * SERVE_WRITE_SHARE)
    reads = ops - txns
    owner: dict[int, int] = {}
    preload, writers, epilogue = [], [], []
    for w in range(SERVE_WRITERS):
        rng = _rng(seed, f"serve-writer-{w}")
        live = LiveKeys()
        # Writer w owns the keys congruent to w, which keeps writers
        # disjoint without a shared allocator.
        def fresh() -> int:
            while True:
                key = rng.randrange(1, _KEY_SPACE // SERVE_WRITERS) * SERVE_WRITERS + w
                if key not in owner:
                    return key
        load, batch = [], []
        for _ in range(preload_rows // SERVE_WRITERS):
            key, value = fresh(), _value(rng)
            owner[key] = w
            live.put(key, value)
            batch.append(("insert", key, value))
            if len(batch) == 3:
                load.append(tuple(batch))
                batch = []
        if batch:
            load.append(tuple(batch))
        preload.append(load)
        mine = []
        for _ in range(txns // SERVE_WRITERS):
            txn = []
            touched: set[int] = set()
            for _ in range(rng.randrange(1, 4)):
                roll = rng.random()
                candidates = len(live) - len(touched)
                if roll < 0.5 or candidates <= 0:
                    key = fresh()
                    owner[key] = w
                    kind = "insert"
                else:
                    key = live.pick(rng)
                    while key in touched:
                        key = live.pick(rng)
                    kind = "update" if roll < 0.75 else "delete"
                touched.add(key)
                if kind == "delete":
                    live.drop(key)
                    txn.append((kind, key, None))
                else:
                    value = _value(rng)
                    live.put(key, value)
                    txn.append((kind, key, value))
            mine.append(tuple(txn))
        writers.append(mine)
        if w == 0:
            for _ in range(SERVE_EPILOGUE_TXNS):
                key, value = live.pick(rng), _value(rng)
                live.put(key, value)
                epilogue.append((("update", key, value),))
    rng = _rng(seed, "serve-reader")
    universe = sorted(owner)
    read_keys = [universe[rng.randrange(len(universe))] for _ in range(reads)]
    return ServeInputs(preload, writers, read_keys, owner, epilogue)
