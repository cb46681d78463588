"""Tests for SQL execution semantics against a live database."""

import pytest

from repro.errors import DuplicateKey, SqlError, TableError
from tests.conftest import make_nvwal_db


@pytest.fixture
def people(system):
    db = make_nvwal_db(system)
    db.execute(
        "CREATE TABLE people (id INTEGER PRIMARY KEY, name TEXT, age INTEGER)"
    )
    db.execute("INSERT INTO people VALUES (1, 'ann', 30)")
    db.execute("INSERT INTO people VALUES (2, 'bob', 25)")
    db.execute("INSERT INTO people VALUES (3, 'cat', 35)")
    return db


class TestInsert:
    def test_insert_returns_count(self, people):
        assert people.execute("INSERT INTO people VALUES (4, 'dan', 40)") == 1

    def test_multi_row_insert(self, people):
        n = people.execute(
            "INSERT INTO people VALUES (10, 'x', 1), (11, 'y', 2)"
        )
        assert n == 2

    def test_column_list_reorders(self, people):
        people.execute(
            "INSERT INTO people (age, id, name) VALUES (50, 9, 'zoe')"
        )
        assert people.query("SELECT name, age FROM people WHERE id = 9") == [
            ("zoe", 50)
        ]

    def test_missing_columns_become_null(self, people):
        people.execute("INSERT INTO people (id) VALUES (8)")
        assert people.query("SELECT name FROM people WHERE id = 8") == [(None,)]

    def test_duplicate_key_raises(self, people):
        with pytest.raises(DuplicateKey):
            people.execute("INSERT INTO people VALUES (1, 'dup', 1)")

    def test_or_replace(self, people):
        people.execute("INSERT OR REPLACE INTO people VALUES (1, 'new', 99)")
        assert people.query("SELECT name FROM people WHERE id = 1") == [("new",)]

    def test_null_pk_autoassigns(self, people):
        people.execute("INSERT INTO people VALUES (NULL, 'auto', 1)")
        assert people.query("SELECT id FROM people WHERE name = 'auto'") == [(4,)]

    def test_type_mismatch_rejected(self, people):
        with pytest.raises(Exception):
            people.execute("INSERT INTO people VALUES (7, 42, 1)")

    def test_arity_mismatch(self, people):
        with pytest.raises(SqlError):
            people.execute("INSERT INTO people VALUES (7, 'x')")

    def test_unknown_column_in_list(self, people):
        with pytest.raises(SqlError):
            people.execute("INSERT INTO people (nope) VALUES (1)")

    def test_params(self, people):
        people.execute(
            "INSERT INTO people VALUES (?, ?, ?)", (20, "par", 7)
        )
        assert people.query("SELECT name FROM people WHERE id = 20") == [("par",)]

    def test_missing_param_raises(self, people):
        with pytest.raises(SqlError):
            people.execute("INSERT INTO people VALUES (?, ?, ?)", (1,))


class TestSelect:
    def test_star(self, people):
        rows = people.query("SELECT * FROM people ORDER BY id")
        assert rows == [(1, "ann", 30), (2, "bob", 25), (3, "cat", 35)]

    def test_projection(self, people):
        assert people.query("SELECT name FROM people WHERE id = 2") == [("bob",)]

    def test_point_lookup_by_key(self, people):
        assert people.query("SELECT * FROM people WHERE id = 3") == [
            (3, "cat", 35)
        ]

    def test_key_range(self, people):
        rows = people.query("SELECT id FROM people WHERE id >= 2 AND id < 3")
        assert rows == [(2,)]

    def test_between(self, people):
        rows = people.query("SELECT id FROM people WHERE id BETWEEN 1 AND 2")
        assert [r[0] for r in rows] == [1, 2]

    def test_flipped_comparison(self, people):
        rows = people.query("SELECT id FROM people WHERE 2 = id")
        assert rows == [(2,)]

    def test_key_range_filter_with_a_shadowed_key_name(self, system):
        """With two columns of the key's name, the WHERE reads the last
        one: the key range cannot decide it, the filter still applies."""
        db = make_nvwal_db(system)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, k TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        assert db.query("SELECT * FROM t WHERE k = 1") == []
        assert db.query("SELECT * FROM t WHERE k >= 1 AND k <= 2") == []
        assert db.query("SELECT k FROM t WHERE k < 3") == []

    def test_key_only_selects(self, people):
        """Statements reading nothing but the key take it from the cells;
        an ORDER BY on another column still reads that column."""
        people.execute("INSERT INTO people VALUES (4, 'aaa', 50)")
        assert people.query("SELECT id FROM people WHERE id >= 2 AND id <= 3") == [
            (2,), (3,)
        ]
        assert people.query("SELECT id, id FROM people WHERE id > 3") == [(4, 4)]
        assert people.query("SELECT id FROM people ORDER BY id DESC LIMIT 2") == [
            (4,), (3,)
        ]
        assert people.query("SELECT id FROM people ORDER BY name") == [
            (4,), (1,), (2,), (3,)
        ]
        assert people.query("SELECT MAX(id) FROM people WHERE id < 4") == [(3,)]
        assert people.query("SELECT COUNT(*) FROM people WHERE id >= 2") == [(3,)]

    def test_non_key_filter(self, people):
        assert people.query("SELECT name FROM people WHERE age > 28 AND age < 33") == [
            ("ann",)
        ]

    def test_or_filter(self, people):
        rows = people.query(
            "SELECT id FROM people WHERE id = 1 OR age = 25 ORDER BY id"
        )
        assert [r[0] for r in rows] == [1, 2]

    def test_count(self, people):
        assert people.query("SELECT COUNT(*) FROM people") == [(3,)]
        assert people.query("SELECT COUNT(*) FROM people WHERE age > 26") == [(2,)]

    def test_order_by_desc_limit(self, people):
        rows = people.query("SELECT name FROM people ORDER BY age DESC LIMIT 2")
        assert rows == [("cat",), ("ann",)]

    def test_order_by_unknown_column(self, people):
        with pytest.raises(SqlError):
            people.query("SELECT * FROM people ORDER BY nope")

    def test_unknown_table(self, people):
        with pytest.raises(TableError):
            people.query("SELECT * FROM ghosts")

    def test_unknown_column_projection(self, people):
        with pytest.raises(SqlError):
            people.query("SELECT ghost FROM people")

    def test_arithmetic_in_where(self, people):
        rows = people.query("SELECT id FROM people WHERE age = 20 + 5")
        assert rows == [(2,)]

    def test_null_comparisons_filter_out(self, people):
        people.execute("INSERT INTO people VALUES (5, NULL, NULL)")
        assert people.query("SELECT id FROM people WHERE age > 0") != []
        assert (5,) not in people.query("SELECT id FROM people WHERE age > 0")
        assert people.query("SELECT id FROM people WHERE age IS NULL") == [(5,)]

    def test_query_requires_select(self, people):
        with pytest.raises(SqlError):
            people.query("DELETE FROM people")


class TestUpdate:
    def test_update_by_key(self, people):
        n = people.execute("UPDATE people SET age = 31 WHERE id = 1")
        assert n == 1
        assert people.query("SELECT age FROM people WHERE id = 1") == [(31,)]

    def test_update_expression_uses_row(self, people):
        people.execute("UPDATE people SET age = age + 1")
        assert people.query("SELECT age FROM people ORDER BY id") == [
            (31,), (26,), (36,)
        ]

    def test_update_key_moves_row(self, people):
        people.execute("UPDATE people SET id = 100 WHERE id = 1")
        assert people.query("SELECT name FROM people WHERE id = 100") == [("ann",)]
        assert people.query("SELECT * FROM people WHERE id = 1") == []

    def test_update_no_match_returns_zero(self, people):
        assert people.execute("UPDATE people SET age = 1 WHERE id = 999") == 0

    def test_update_unknown_column(self, people):
        with pytest.raises(SqlError):
            people.execute("UPDATE people SET ghost = 1")


class TestDelete:
    def test_delete_by_key(self, people):
        assert people.execute("DELETE FROM people WHERE id = 2") == 1
        assert people.query("SELECT COUNT(*) FROM people") == [(2,)]

    def test_delete_by_predicate(self, people):
        assert people.execute("DELETE FROM people WHERE age > 26") == 2
        assert people.query("SELECT id FROM people") == [(2,)]

    def test_delete_all(self, people):
        assert people.execute("DELETE FROM people") == 3
        assert people.query("SELECT COUNT(*) FROM people") == [(0,)]


class TestHiddenRowid:
    def test_table_without_pk(self, system):
        db = make_nvwal_db(system)
        db.execute("CREATE TABLE log (message TEXT)")
        db.execute("INSERT INTO log VALUES ('first')")
        db.execute("INSERT INTO log VALUES ('second')")
        assert db.query("SELECT message FROM log") == [("first",), ("second",)]


class TestIntegerRange:
    """An INTEGER outside the signed 64 bits a record stores is a
    ``SqlError`` raised before any page is dirtied — it used to reach
    ``struct.pack`` and escape the error taxonomy as ``struct.error``."""

    ROUTES = [
        ("INSERT INTO people VALUES (99999999999999999999, 'x', 1)", ()),
        ("INSERT INTO people VALUES (?, 'x', 1)", (2**63,)),
        ("INSERT INTO people VALUES (4, 'x', ?)", (-(2**63) - 1,)),
        ("UPDATE people SET age = ? WHERE id = 1", (2**63,)),
        ("UPDATE people SET age = age * 9223372036854775807 * 4", ()),
    ]

    @pytest.mark.parametrize("sql, params", ROUTES)
    def test_out_of_range_is_a_clean_sql_error(self, people, sql, params):
        before = people.dump_table("people")
        pages = [people.pager.page_image(p) for p in range(1, people.pager.n_pages + 1)]
        with pytest.raises(SqlError, match="integer out of range"):
            people.execute(sql, params)
        assert people.dump_table("people") == before
        assert pages == [
            people.pager.page_image(p) for p in range(1, people.pager.n_pages + 1)
        ]
        people.check_integrity()

    def test_the_extremes_still_fit(self, people):
        people.execute(
            "INSERT INTO people VALUES (?, 'edge', ?)", (2**63 - 1, -(2**63))
        )
        assert people.query("SELECT age FROM people WHERE id = ?", (2**63 - 1,)) == [
            (-(2**63),)
        ]

    def test_auto_rowid_past_the_largest_key(self, people):
        people.execute("INSERT INTO people VALUES (?, 'last', 1)", (2**63 - 1,))
        with pytest.raises(SqlError, match="integer out of range"):
            people.execute("INSERT INTO people (name) VALUES ('one more')")
        people.check_integrity()

    def test_real_column_rejects_an_unstorable_integer(self, system):
        db = make_nvwal_db(system)
        db.execute("CREATE TABLE m (id INTEGER PRIMARY KEY, x REAL)")
        with pytest.raises(SqlError, match="integer out of range"):
            db.execute("INSERT INTO m VALUES (1, ?)", (2**64,))
        assert db.query("SELECT COUNT(*) FROM m") == [(0,)]
