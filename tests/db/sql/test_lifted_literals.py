"""Lifted literals against the ``?`` path they replace.

The parser lifts every int / float / string literal of a statement text
out of the AST into a per-text tuple, so all texts of one shape share one
template and one plan.  The reference model is the parameter path: each
generated statement runs once as written and once as its *twin*, where
every lifted literal is a ``?`` bound through ``params``.  Both databases
must agree statement by statement on the rows, the row count or the error
class, and on the simulated clock.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.sql import parser
from repro.db.sql.lexer import tokenize
from repro.difftest.grammar import Stmt, StreamGenerator
from repro.difftest.runner import build_database
from repro.errors import ReproError, SqlError

LIFTED_KINDS = ("int", "float", "string")


def twin(stmt: Stmt) -> Stmt:
    """``stmt`` with each lifted literal rewritten to ``?`` and its value
    spliced into ``params`` at its place in text order.  The integer after
    LIMIT is not lifted (the grammar has no ``LIMIT ?``).  A text that does
    not tokenize, or whose ``?``s outnumber its values, is its own twin."""
    try:
        tokens = tokenize(stmt.sql)
    except SqlError:
        return stmt
    given_params = list(stmt.params)
    if sum(t.kind == "punct" and t.value == "?" for t in tokens) != len(given_params):
        return stmt
    words, params = [], []
    after_limit = False
    for kind, value, _pos in tokens[:-1]:  # the last token is eof
        if kind in LIFTED_KINDS and not after_limit:
            words.append("?")
            params.append(value)
        else:
            if kind == "punct" and value == "?":
                params.append(given_params.pop(0))
            words.append(str(value))
        after_limit = kind == "keyword" and value == "LIMIT"
    return Stmt(" ".join(words), tuple(params), stmt.kind)


def outcome(db, stmt: Stmt):
    try:
        result = db.execute(stmt.sql, stmt.params)
    except ReproError as exc:
        return ("error", exc.category)
    if stmt.kind == "select":
        return ("rows", result)
    return ("count", result)


def test_twin_of_a_literal_statement():
    stmt = Stmt(
        "SELECT * FROM t WHERE a = 'it''s' AND b < -2.5 AND c = ? "
        "ORDER BY k LIMIT 3",
        (7,),
        "select",
    )
    assert twin(stmt) == Stmt(
        "SELECT * FROM t WHERE a = ? AND b < - ? AND c = ? ORDER BY k LIMIT 3",
        ("it's", 2.5, 7),
        "select",
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_literal_statements_run_like_their_parameter_twins(seed):
    literal_db = build_database("nvwal")
    twin_db = build_database("nvwal")
    for stmt in StreamGenerator(seed).stream(40):
        other = twin(stmt)
        assert outcome(literal_db, stmt) == outcome(twin_db, other), (stmt, other)
        assert literal_db.system.clock.now_ns == twin_db.system.clock.now_ns


def test_texts_of_one_shape_share_the_template():
    template, lifted = parser.parse("SELECT v FROM t WHERE k = 1 AND s = 'a'")
    assert lifted == (1, "a")
    for text in (
        "SELECT v FROM t WHERE k = 2 AND s = 'b'",
        "select v  from t where k = 99 and s = 'it''s'",
    ):
        assert parser.parse(text)[0] is template
    # A literal's kind, the LIMIT count and a NULL are part of the shape.
    for text in (
        "SELECT v FROM t WHERE k = 1.5 AND s = 'a'",
        "SELECT v FROM t WHERE k = 'x' AND s = 'a'",
        "SELECT v FROM t WHERE k = NULL AND s = 'a'",
    ):
        assert parser.parse(text)[0] is not template
    limited = parser.parse("SELECT v FROM t ORDER BY k LIMIT 2")
    assert limited[0].limit == 2 and limited[1] == ()
    assert parser.parse("SELECT v FROM t ORDER BY k LIMIT 3")[0].limit == 3


@pytest.mark.parametrize("text", [
    "SELECT v FROM t WHERE k = 1 1",  # tokenizes, does not parse
    "SELECT v FROM t LIMIT 'x'",
    "SELECT v FROM t WHERE k = 'open",  # does not tokenize
    "SELECT v FROM t WHERE k = 1 OR k = 2 2",  # splits, does not parse
])
def test_a_failed_parse_leaves_nothing_in_either_cache(text):
    parser.parse.cache_clear()
    parser._templates.clear()
    parser._skeletons.clear()
    with pytest.raises(SqlError):
        parser.parse(text)
    assert parser.parse.cache_info().currsize == 0
    assert parser._templates == {}
    assert parser._skeletons == {}
