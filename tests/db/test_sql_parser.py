"""Tests for the SQL parser."""

import pytest

from repro.db.sql import ast_nodes as ast
from repro.db.sql.parser import parse
from repro.errors import SqlError


def template(text):
    """The statement template ``text`` parses to, lifted values dropped."""
    return parse(text)[0]


class TestCreateTable:
    def test_basic(self):
        stmt = template("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)")
        assert stmt == ast.CreateTable(
            "t",
            (
                ast.ColumnDef("id", "INTEGER", True),
                ast.ColumnDef("name", "TEXT", False),
            ),
        )

    def test_if_not_exists(self):
        stmt = template("CREATE TABLE IF NOT EXISTS t (a INTEGER)")
        assert stmt.if_not_exists

    def test_all_types(self):
        stmt = template("CREATE TABLE t (a INTEGER, b REAL, c TEXT, d BLOB)")
        assert [c.type for c in stmt.columns] == ["INTEGER", "REAL", "TEXT", "BLOB"]

    def test_missing_type_rejected(self):
        with pytest.raises(SqlError):
            parse("CREATE TABLE t (a, b)")

    def test_unknown_type_rejected(self):
        with pytest.raises(SqlError):
            parse("CREATE TABLE t (a VARCHAR)")


class TestInsert:
    def test_values(self):
        stmt, lifted = parse("INSERT INTO t VALUES (1, 'x')")
        assert stmt.table == "t"
        assert stmt.rows == ((ast.Lifted(0), ast.Lifted(1)),)
        assert lifted == (1, "x")

    def test_column_list(self):
        stmt = template("INSERT INTO t (a, b) VALUES (1, 2)")
        assert stmt.columns == ("a", "b")

    def test_multi_row(self):
        stmt = template("INSERT INTO t VALUES (1), (2), (3)")
        assert len(stmt.rows) == 3

    def test_params(self):
        stmt, lifted = parse("INSERT INTO t VALUES (?, ?)")
        assert stmt.rows == ((ast.Param(0), ast.Param(1)),)
        assert lifted == ()

    def test_or_replace(self):
        assert template("INSERT OR REPLACE INTO t VALUES (1)").or_replace

    def test_null_literal(self):
        stmt = template("INSERT INTO t VALUES (NULL)")
        assert stmt.rows[0][0] == ast.Literal(None)

    def test_negative_number(self):
        stmt, lifted = parse("INSERT INTO t VALUES (-5)")
        assert stmt.rows[0][0] == ast.UnaryOp("-", ast.Lifted(0))
        assert lifted == (5,)


class TestSelect:
    def test_star(self):
        stmt = template("SELECT * FROM t")
        assert stmt.columns is None
        assert stmt.where is None

    def test_columns(self):
        assert template("SELECT a, b FROM t").columns == ("a", "b")

    def test_count_star(self):
        assert template("SELECT COUNT(*) FROM t").aggregate == ("COUNT", None)

    def test_count_as_column_name(self):
        stmt = template("SELECT count FROM t")
        assert stmt.columns == ("count",)

    def test_where(self):
        stmt, lifted = parse("SELECT * FROM t WHERE key = 5")
        assert stmt.where == ast.BinOp("=", ast.Column("key"), ast.Lifted(0))
        assert lifted == (5,)

    def test_order_limit(self):
        stmt = template("SELECT * FROM t ORDER BY a DESC LIMIT 10")
        assert stmt.order_by == "a"
        assert stmt.descending
        assert stmt.limit == 10

    def test_order_asc_default(self):
        stmt = template("SELECT * FROM t ORDER BY a ASC")
        assert not stmt.descending

    def test_between_desugars(self):
        stmt, lifted = parse("SELECT * FROM t WHERE k BETWEEN 1 AND 5")
        assert stmt.where == ast.BinOp(
            "AND",
            ast.BinOp(">=", ast.Column("k"), ast.Lifted(0)),
            ast.BinOp("<=", ast.Column("k"), ast.Lifted(1)),
        )
        assert lifted == (1, 5)

    def test_is_null(self):
        stmt = template("SELECT * FROM t WHERE v IS NULL")
        assert stmt.where == ast.BinOp("IS NULL", ast.Column("v"), ast.Literal(None))

    def test_is_not_null(self):
        stmt = template("SELECT * FROM t WHERE v IS NOT NULL")
        assert stmt.where == ast.UnaryOp(
            "NOT", ast.BinOp("IS NULL", ast.Column("v"), ast.Literal(None))
        )


class TestExpressions:
    def test_precedence_and_over_or(self):
        stmt = template("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
        assert stmt.where.op == "OR"
        assert stmt.where.right.op == "AND"

    def test_arithmetic_precedence(self):
        stmt = template("SELECT * FROM t WHERE a = 1 + 2 * 3")
        plus = stmt.where.right
        assert plus.op == "+"
        assert plus.right.op == "*"

    def test_parentheses(self):
        stmt = template("SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3")
        assert stmt.where.op == "AND"
        assert stmt.where.left.op == "OR"

    def test_not(self):
        stmt, lifted = parse("SELECT * FROM t WHERE NOT a = 1")
        assert stmt.where == ast.UnaryOp(
            "NOT", ast.BinOp("=", ast.Column("a"), ast.Lifted(0))
        )
        assert lifted == (1,)

    def test_neq_normalized(self):
        a = template("SELECT * FROM t WHERE a <> 1").where
        b = template("SELECT * FROM t WHERE a != 1").where
        assert a == b


class TestOtherStatements:
    def test_update(self):
        stmt, lifted = parse("UPDATE t SET a = 1, b = ? WHERE key = 2")
        assert stmt.assignments == (
            ("a", ast.Lifted(0)), ("b", ast.Param(0)),
        )
        assert stmt.where == ast.BinOp("=", ast.Column("key"), ast.Lifted(1))
        assert lifted == (1, 2)

    def test_delete(self):
        stmt = template("DELETE FROM t WHERE key = 1")
        assert stmt.table == "t"

    def test_delete_all(self):
        assert template("DELETE FROM t").where is None

    def test_drop(self):
        assert template("DROP TABLE t").name == "t"

    def test_transaction_control(self):
        assert isinstance(template("BEGIN"), ast.Begin)
        assert isinstance(template("BEGIN TRANSACTION"), ast.Begin)
        assert isinstance(template("COMMIT"), ast.Commit)
        assert isinstance(template("ROLLBACK"), ast.Rollback)
        assert isinstance(template("CHECKPOINT"), ast.Checkpoint)

    def test_trailing_semicolon_ok(self):
        assert isinstance(template("COMMIT;"), ast.Commit)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlError):
            parse("COMMIT garbage")

    def test_unsupported_statement(self):
        with pytest.raises(SqlError):
            parse("VACUUM")

    def test_non_keyword_start(self):
        with pytest.raises(SqlError):
            parse("42")
