"""SQL surface of secondary indexes: parsing and planner behaviour."""

import pytest

from repro.db.sql import ast_nodes as ast
from repro.db.sql.parser import parse
from repro.errors import SqlError


class TestParseCreateIndex:
    def test_basic(self):
        stmt = parse("CREATE INDEX t_grp ON t (grp)")
        assert stmt == (ast.CreateIndex("t_grp", "t", "grp"), ())

    def test_if_not_exists(self):
        stmt = parse("CREATE INDEX IF NOT EXISTS t_grp ON t (grp)")
        assert stmt == (
            ast.CreateIndex("t_grp", "t", "grp", if_not_exists=True), ()
        )

    def test_case_insensitive_keywords(self):
        stmt = parse("create index i on t (c)")
        assert stmt == (ast.CreateIndex("i", "t", "c"), ())

    def test_multi_column_rejected(self):
        with pytest.raises(SqlError):
            parse("CREATE INDEX i ON t (a, b)")

    def test_missing_column_list_rejected(self):
        with pytest.raises(SqlError):
            parse("CREATE INDEX i ON t")

    def test_missing_on_rejected(self):
        with pytest.raises(SqlError):
            parse("CREATE INDEX i t (a)")


class TestParseDropIndex:
    def test_basic(self):
        assert parse("DROP INDEX i") == (ast.DropIndex("i"), ())

    def test_if_exists(self):
        assert parse("DROP INDEX IF EXISTS i") == (
            ast.DropIndex("i", if_exists=True), ()
        )

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlError):
            parse("DROP INDEX i ON t")


class TestPlannerUsesIndex:
    """The planner must pick the index for equality/range probes on the
    indexed column — observable through execute() statistics."""

    @pytest.fixture
    def db(self, db):
        db.execute(
            "CREATE TABLE g (k INTEGER PRIMARY KEY, grp INTEGER, v TEXT)"
        )
        db.execute("CREATE INDEX g_grp ON g (grp)")
        for i in range(40):
            db.execute("INSERT INTO g VALUES (?, ?, ?)", (i, i % 8, f"v{i}"))
        return db

    def test_equality_results_match_unindexed_table(self, db):
        db.execute("CREATE TABLE u (k INTEGER PRIMARY KEY, grp INTEGER, v TEXT)")
        for i in range(40):
            db.execute("INSERT INTO u VALUES (?, ?, ?)", (i, i % 8, f"v{i}"))
        for grp in range(-1, 9):
            indexed = db.execute("SELECT k FROM g WHERE grp = ?", (grp,))
            scanned = db.execute("SELECT k FROM u WHERE grp = ?", (grp,))
            assert sorted(indexed) == sorted(scanned)

    def test_range_probe_bounds(self, db):
        got = db.execute("SELECT k FROM g WHERE grp > 5 AND grp <= 7")
        assert sorted(got) == sorted(
            (i,) for i in range(40) if 5 < i % 8 <= 7
        )

    def test_probe_after_drop_index_still_correct(self, db):
        before = db.execute("SELECT k FROM g WHERE grp = 3")
        db.execute("DROP INDEX g_grp")
        after = db.execute("SELECT k FROM g WHERE grp = 3")
        assert sorted(before) == sorted(after)

    def test_inequality_never_uses_stale_entries(self, db):
        db.execute("UPDATE g SET grp = 100 WHERE k = 0")
        assert db.execute("SELECT k FROM g WHERE grp = 0") == [(8,), (16,), (24,), (32,)]
        assert db.execute("SELECT k FROM g WHERE grp = 100") == [(0,)]

    def test_param_bound_probe(self, db):
        got = db.execute("SELECT k FROM g WHERE grp = ?", (2,))
        assert sorted(got) == [(i,) for i in range(40) if i % 8 == 2]
