"""Tests for SQL aggregates and big-value (overflow) rows through SQL."""

import pytest

from repro import System, tuna
from repro.errors import SqlError
from tests.conftest import make_nvwal_db


@pytest.fixture
def sales(system):
    db = make_nvwal_db(system)
    db.execute(
        "CREATE TABLE sales (id INTEGER PRIMARY KEY, region TEXT, amount INTEGER)"
    )
    rows = [
        (1, "north", 100), (2, "north", 250), (3, "south", 50),
        (4, "south", None), (5, "east", 300),
    ]
    for row in rows:
        db.execute("INSERT INTO sales VALUES (?, ?, ?)", row)
    return db


class TestAggregates:
    def test_count_star(self, sales):
        assert sales.query("SELECT COUNT(*) FROM sales") == [(5,)]

    def test_count_column_skips_nulls(self, sales):
        assert sales.query("SELECT COUNT(amount) FROM sales") == [(4,)]

    def test_sum(self, sales):
        assert sales.query("SELECT SUM(amount) FROM sales") == [(700,)]

    def test_min_max(self, sales):
        assert sales.query("SELECT MIN(amount) FROM sales") == [(50,)]
        assert sales.query("SELECT MAX(amount) FROM sales") == [(300,)]

    def test_avg(self, sales):
        assert sales.query("SELECT AVG(amount) FROM sales") == [(175.0,)]

    def test_aggregate_with_where(self, sales):
        assert sales.query(
            "SELECT SUM(amount) FROM sales WHERE region = 'north'"
        ) == [(350,)]

    def test_aggregate_of_no_rows_is_null(self, sales):
        assert sales.query(
            "SELECT SUM(amount) FROM sales WHERE id > 100"
        ) == [(None,)]
        assert sales.query(
            "SELECT COUNT(amount) FROM sales WHERE id > 100"
        ) == [(0,)]

    def test_unknown_column(self, sales):
        with pytest.raises(SqlError):
            sales.query("SELECT SUM(ghost) FROM sales")

    def test_unknown_order_by_column_under_an_aggregate(self, sales):
        """ORDER BY is resolved even though one aggregate row has nothing
        to sort: SQLite says "no such column", and so do we."""
        for query in (
            "SELECT COUNT(*) FROM sales ORDER BY nope",
            "SELECT SUM(amount) FROM sales WHERE id > 100 ORDER BY nope DESC",
        ):
            with pytest.raises(SqlError, match="unknown ORDER BY column 'nope'"):
                sales.query(query)
        assert sales.query("SELECT COUNT(*) FROM sales ORDER BY region") == [(5,)]

    def test_star_only_for_count(self, sales):
        with pytest.raises(SqlError):
            sales.query("SELECT SUM(*) FROM sales")

    def test_aggregate_names_still_usable_as_columns(self, system):
        db = make_nvwal_db(system)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, min INTEGER)")
        db.execute("INSERT INTO t VALUES (1, 42)")
        assert db.query("SELECT min FROM t") == [(42,)]
        assert db.query("SELECT MIN(min) FROM t") == [(42,)]


class TestBigValuesThroughSql:
    def test_large_text_roundtrip(self, system):
        db = make_nvwal_db(system)
        db.execute("CREATE TABLE docs (id INTEGER PRIMARY KEY, body TEXT)")
        body = "paragraph " * 2500  # ~25 KB, forces overflow chains
        db.execute("INSERT INTO docs VALUES (1, ?)", (body,))
        assert db.query("SELECT body FROM docs WHERE id = 1") == [(body,)]

    def test_large_values_survive_crash(self, system):
        db = make_nvwal_db(system)
        db.execute("CREATE TABLE docs (id INTEGER PRIMARY KEY, body BLOB)")
        blob = bytes(range(256)) * 40  # ~10 KB
        db.execute("INSERT INTO docs VALUES (1, ?)", (blob,))
        system.power_fail()
        system.reboot()
        db2 = make_nvwal_db(system)
        assert db2.query("SELECT body FROM docs WHERE id = 1") == [(blob,)]

    def test_value_size_cap_enforced(self, system):
        db = make_nvwal_db(system)
        db.execute("CREATE TABLE docs (id INTEGER PRIMARY KEY, body TEXT)")
        with pytest.raises(Exception):
            db.execute("INSERT INTO docs VALUES (1, ?)", ("x" * 70000,))

    def test_drop_table_with_overflow_rows(self, system):
        db = make_nvwal_db(system)
        db.execute("CREATE TABLE docs (id INTEGER PRIMARY KEY, body BLOB)")
        for i in range(5):
            db.execute("INSERT INTO docs VALUES (?, ?)", (i, b"z" * 8000))
        db.execute("DROP TABLE docs")
        assert db.pager.freelist_head != 0
