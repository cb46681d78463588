"""How long a compiled plan lives.

A plan is bound to one catalog generation of one database: any schema
change (committed or rolled back) must retire it, two databases sharing a
parsed statement must not share its plan, every literal variant of one
statement shape shares one plan, and the plan map stays within the parse
cache's size.
"""

import pytest

from repro import System, tuna
from repro.db.index import IndexTree
from repro.db.sql.parser import parse
from repro.errors import SqlError, TableError
from tests.conftest import make_nvwal_db


@pytest.fixture
def db(system):
    return make_nvwal_db(system)


def test_drop_and_recreate_with_different_columns(db):
    select, insert = "SELECT b FROM t WHERE a = 1", "INSERT INTO t VALUES (?, ?)"
    db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT)")
    db.execute(insert, (1, "first"))
    assert db.query(select) == [("first",)]
    db.execute("DROP TABLE t")
    with pytest.raises(TableError):
        db.query(select)
    # Same name, columns swapped: ``a`` is no longer the key, ``b`` is
    # no longer position 1.
    db.execute("CREATE TABLE t (b TEXT, a INTEGER, c INTEGER PRIMARY KEY)")
    with pytest.raises(SqlError, match="3 columns but 2 values"):
        db.execute(insert, ("second", 1))
    db.execute("INSERT INTO t VALUES (?, ?, ?)", ("second", 1, 7))
    assert db.query(select) == [("second",)]
    assert db.query("SELECT * FROM t") == [("second", 1, 7)]


def test_rolled_back_ddl_lands_on_the_same_cookie(db):
    """Cookie ABA: a rolled-back CREATE and a different CREATE after it
    both leave ``schema_cookie`` at the same value."""
    select = "SELECT b FROM t WHERE a = 1"
    db.execute("BEGIN")
    db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT)")
    cookie = db.pager.schema_cookie
    db.execute("INSERT INTO t VALUES (1, 'x')")
    assert db.query(select) == [("x",)]
    db.execute("ROLLBACK")
    db.execute("BEGIN")
    db.execute("CREATE TABLE t (b TEXT, a INTEGER PRIMARY KEY)")
    assert db.pager.schema_cookie == cookie
    db.execute("INSERT INTO t VALUES ('y', 1)")
    assert db.query(select) == [("y",)]
    db.execute("COMMIT")
    assert db.query(select) == [("y",)]


def test_index_ddl_flips_the_access_path_of_a_planned_statement(db, monkeypatch):
    probes = []
    rowids = IndexTree.rowids

    def counting_rowids(self, lo=None, hi=None):
        probes.append((lo, hi))
        return rowids(self, lo, hi)

    monkeypatch.setattr(IndexTree, "rowids", counting_rowids)
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, age INTEGER)")
    db.executemany("INSERT INTO t VALUES (?, ?)", [(i, i % 5) for i in range(40)])
    select, want = "SELECT id FROM t WHERE age = ?", [(i,) for i in range(3, 40, 5)]
    assert db.query(select, (3,)) == want and not probes  # full scan
    db.execute("CREATE INDEX t_age ON t (age)")
    assert sorted(db.query(select, (3,))) == want and len(probes) == 1
    assert sorted(db.query(select, (3,))) == want and len(probes) == 2
    db.execute("DROP INDEX t_age")
    assert db.query(select, (3,)) == want and len(probes) == 2  # scan again


def test_two_databases_share_the_statement_but_not_the_plan():
    sql, other = "SELECT v FROM t WHERE k = 1", "SELECT v FROM t WHERE k = 2"
    first = make_nvwal_db(System(tuna(), seed=0))
    second = make_nvwal_db(System(tuna(), seed=0))
    first.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
    second.execute("CREATE TABLE t (v TEXT, pad TEXT, k INTEGER)")
    first.execute("INSERT INTO t VALUES (1, 'one')")
    second.execute("INSERT INTO t VALUES ('uno', 'x', 1)")
    for _ in range(2):  # second pass runs off the cached plans
        assert first.query(sql) == [("one",)]
        assert second.query(sql) == [("uno",)]
    template, _lifted = parse(sql)
    assert parse(sql) is parse(sql)
    assert parse(other)[0] is template
    assert first.executor._plans[id(template)] is not (
        second.executor._plans[id(template)]
    )
    # Another literal of the same shape runs off the same plan.
    plans = dict(first.executor._plans)
    first.execute("INSERT INTO t VALUES (2, 'two')")
    assert first.query(other) == [("two",)]
    assert first.executor._plans == plans  # plans compare by identity


def test_plan_map_is_bounded_by_the_parse_cache(db):
    limit = parse.cache_parameters()["maxsize"]
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
    db.execute("INSERT INTO t VALUES (1, 'x')")
    hot = "SELECT v FROM t WHERE k = ?"
    for i in range(3 * limit):
        assert db.query(f"SELECT v FROM t WHERE k = {i}") == (
            [("x",)] if i == 1 else []
        )
        assert db.query(hot, (1,)) == [("x",)]
        assert len(db.executor._plans) <= limit
    # One plan per shape: the INSERT, the literal SELECT and the hot one.
    assert len(db.executor._plans) <= 3
