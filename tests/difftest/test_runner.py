"""Runner and oracle behaviour: outcome comparison, clean lockstep runs,
and the planted-bug path the sabotage self-test relies on."""

import pytest

from repro.difftest.grammar import Stmt, StreamGenerator
from repro.difftest.oracles import (
    Outcome,
    canon_row,
    canon_value,
    compare_outcomes,
    rows_sorted,
    value_sort_key,
)
from repro.difftest.runner import run_stream


class TestOutcomeComparison:
    def test_matching_rows(self):
        a = Outcome("rows", rows=[canon_row((1, "x"))])
        b = Outcome("rows", rows=[canon_row((1, "x"))])
        assert compare_outcomes("select", a, b) is None

    def test_multiset_ignores_order_when_unordered(self):
        a = Outcome("rows", rows=[canon_row((1,)), canon_row((2,))])
        b = Outcome("rows", rows=[canon_row((2,)), canon_row((1,))])
        assert compare_outcomes("select", a, b) is None
        assert compare_outcomes("select", a, b, ordered=True) is not None

    def test_type_strict_values(self):
        a = Outcome("rows", rows=[canon_row((2,))])
        b = Outcome("rows", rows=[canon_row((2.0,))])
        assert compare_outcomes("select", a, b) is not None

    def test_error_class_must_match(self):
        err_a = Outcome("error", error="constraint")
        err_b = Outcome("error", error="constraint")
        err_c = Outcome("error", error="schema")
        ok = Outcome("rows")
        assert compare_outcomes("select", err_a, err_b) is None
        assert compare_outcomes("select", err_a, err_c) is not None
        assert compare_outcomes("select", err_a, ok) is not None
        assert compare_outcomes("select", ok, err_a) is not None

    def test_rowcount(self):
        assert compare_outcomes(
            "write", Outcome("count", count=2), Outcome("count", count=2)
        ) is None
        assert compare_outcomes(
            "write", Outcome("count", count=2), Outcome("count", count=3)
        ) is not None

    def test_storage_class_sort_order(self):
        values = ["text", None, 2, b"\x00", 1.5]
        keys = sorted(values, key=lambda v: value_sort_key(canon_value(v)))
        assert keys == [None, 1.5, 2, "text", b"\x00"]

    def test_rows_sorted_nulls_first(self):
        rows = [canon_row((None,)), canon_row((1,)), canon_row((5,))]
        assert rows_sorted(rows, 0, descending=False)
        assert rows_sorted(rows[::-1], 0, descending=True)
        assert not rows_sorted(rows, 0, descending=True)


class TestRunStream:
    def test_handwritten_stream_is_clean(self):
        stmts = [
            Stmt("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)", kind="ddl"),
            Stmt("INSERT INTO t VALUES (1, 'a'), (2, 'b')", kind="write"),
            Stmt("BEGIN", kind="txn"),
            Stmt("INSERT INTO t VALUES (3, ?)", ("c" * 2000,), kind="write"),
            Stmt("UPDATE t SET v = 'z' WHERE k >= 2", kind="write"),
            Stmt("COMMIT", kind="txn"),
            Stmt("SELECT * FROM t ORDER BY k", kind="select", ordered=True),
            Stmt("CHECKPOINT", kind="checkpoint"),
            Stmt("DELETE FROM t WHERE k = 1", kind="write"),
            Stmt("SELECT COUNT(*) FROM t", kind="select"),
        ]
        assert run_stream(stmts) == []

    def test_generated_stream_is_clean(self):
        stmts = StreamGenerator(0).stream(30)
        assert run_stream(stmts) == []

    def test_rollback_discards_in_all_executors(self):
        stmts = [
            Stmt("CREATE TABLE t (k INTEGER PRIMARY KEY)", kind="ddl"),
            Stmt("BEGIN", kind="txn"),
            Stmt("INSERT INTO t VALUES (1)", kind="write"),
            Stmt("ROLLBACK", kind="txn"),
            Stmt("SELECT COUNT(*) FROM t", kind="select"),
        ]
        assert run_stream(stmts) == []

    def test_dangling_transaction_is_closed_for_end_checks(self):
        stmts = [
            Stmt("CREATE TABLE t (k INTEGER PRIMARY KEY)", kind="ddl"),
            Stmt("BEGIN", kind="txn"),
            Stmt("INSERT INTO t VALUES (1)", kind="write"),
        ]
        assert run_stream(stmts) == []

    def test_sabotage_is_caught(self):
        stmts = [
            Stmt("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)", kind="ddl"),
            Stmt("INSERT INTO t VALUES (1, 7), (2, 9)", kind="write"),
            # key bound plus residual: the planted bug drops the residual
            Stmt("SELECT * FROM t WHERE k >= 1 AND v = 9", kind="select"),
        ]
        findings = run_stream(stmts, sabotage="drop-residual-where")
        kinds = {f.kind for f in findings}
        assert "result" in kinds
        assert all(f.executor == "nvwal" for f in findings if f.kind == "result")

    def test_sabotage_write_path_trips_scheme_oracle(self):
        """Even without a SELECT, a sabotaged DELETE desynchronizes the
        NVWAL backend from the other two — the scheme oracle must see it."""
        stmts = [
            Stmt("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)", kind="ddl"),
            Stmt("INSERT INTO t VALUES (1, 7), (2, 9)", kind="write"),
            Stmt("DELETE FROM t WHERE k >= 1 AND v = 7", kind="write"),
        ]
        findings = run_stream(stmts, sabotage="drop-residual-where", keep_going=True)
        assert any(f.kind == "scheme" for f in findings)

    def test_determinism(self):
        stmts = StreamGenerator(4).stream(25)
        first = run_stream(stmts)
        second = run_stream(stmts)
        assert [f.format() for f in first] == [f.format() for f in second]


@pytest.mark.difftest
def test_fuzz_sweep_is_clean():
    """A deeper sweep than the default-tier smoke tests (select with
    ``pytest -m difftest``); CI runs the CLI equivalent."""
    for seed in range(8):
        stmts = StreamGenerator(seed).stream(80)
        findings = run_stream(stmts)
        assert findings == [], [f.format() for f in findings]
