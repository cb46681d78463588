"""Generator determinism, JSON round-trips, and stream well-formedness."""

import json
import random

from repro import harness
from repro.difftest.grammar import (
    Stmt,
    StreamGenerator,
    stmt_from_dict,
    stmt_to_dict,
)
from repro.difftest.runner import Stream, stream_from_json


def test_same_seed_same_stream():
    a = StreamGenerator(7).stream(80)
    b = StreamGenerator(7).stream(80)
    assert a == b


def test_different_seeds_differ():
    a = StreamGenerator(1).stream(40)
    b = StreamGenerator(2).stream(40)
    assert a != b


def test_stream_json_roundtrip():
    stream = Stream(3, tuple(StreamGenerator(3).stream(60)), "drop-residual-where")
    wire = json.loads(json.dumps(harness.to_json(stream)))
    assert stream_from_json(wire) == stream


def test_blob_params_roundtrip():
    stmt = Stmt("INSERT INTO t VALUES (1, ?)", (b"\x00\xff\x80",), kind="write")
    assert stmt_from_dict(stmt_to_dict(stmt)) == stmt


def test_stream_transactions_balanced():
    """Every stream ends outside a transaction (deliberate txn errors
    don't change state, so counting real BEGIN/COMMIT/ROLLBACK works)."""
    for seed in range(10):
        depth = 0
        for stmt in StreamGenerator(seed).stream(100):
            if stmt.kind != "txn":
                continue
            if stmt.sql == "BEGIN" and depth == 0:
                depth = 1
            elif stmt.sql in ("COMMIT", "ROLLBACK") and depth == 1:
                depth = 0
        assert depth == 0


def test_stream_covers_the_dialect():
    sqls = " ".join(s.sql for s in StreamGenerator(11).stream(300))
    for word in ("CREATE TABLE", "INSERT", "SELECT", "UPDATE", "DELETE",
                 "BEGIN", "COMMIT", "ORDER BY", "WHERE"):
        assert word in sqls, word


def test_multi_row_inserts_use_distinct_keys():
    """Mid-statement duplicates would diverge (SQLite aborts the whole
    statement); the generator must never produce them."""
    for seed in range(5):
        for stmt in StreamGenerator(seed).stream(150):
            if not stmt.sql.startswith("INSERT") or "), (" not in stmt.sql:
                continue
            first = stmt.sql.split(" VALUES ")[1]
            keys = [
                row.strip(" (").split(",")[0]
                for row in first.split("), (")
            ]
            assert len(keys) == len(set(keys)), stmt.sql


def test_overflow_payloads_are_generated():
    found = False
    for seed in range(8):
        for stmt in StreamGenerator(seed).stream(120):
            if any(
                isinstance(p, (str, bytes)) and len(p) > 1000
                for p in stmt.params
            ):
                found = True
    assert found, "no overflow-sized payload in 8 seeds"


def test_rng_is_isolated():
    """The generator must not touch the global random module."""
    random.seed(123)
    before = random.random()
    random.seed(123)
    StreamGenerator(5).stream(50)
    assert random.random() == before
