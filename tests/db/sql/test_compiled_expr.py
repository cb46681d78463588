"""Compiled expressions and plans against the reference interpreter.

``reference_eval`` is the tree-walking evaluator the executor ran until
statements were compiled to plans.  Random expressions over the difftest
grammar's operator set, evaluated on random rows and parameter tuples, must
give the same value — or the same exception class and message — whichever
way they are evaluated; the plan's bind check and key-range extraction are
held to ``_validate_expr`` and ``_key_bound`` the same way.  The reference
predates lifted literals: it sees each ``Lifted`` slot as the ``Literal``
of its value.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.db.database import TableInfo
from repro.db.sql import ast_nodes as ast
from repro.db.sql.executor import _SelectPlan
from repro.db.sql.expr import compile_expr
from tests.db.sql import reference_eval as ref

NAMES = ["k", "a", "b", "c"]
POSITIONS = {name: i for i, name in enumerate(NAMES)}
TABLE = TableInfo(
    1, "t", 2,
    (ast.ColumnDef("k", "INTEGER", True), ast.ColumnDef("a", "INTEGER"),
     ast.ColumnDef("b", "TEXT"), ast.ColumnDef("c", "REAL")),
    0,
)

values = st.one_of(
    st.none(),
    st.integers(-5, 5),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from(["", "a", "abc", "5"]),
    st.sampled_from([b"", b"a", b"\x00\xff"]),
)
leaves = st.one_of(
    values.map(ast.Literal),
    st.integers(0, 1).map(ast.Lifted),
    st.integers(0, 3).map(ast.Param),
    st.sampled_from(NAMES + ["nope"]).map(ast.Column),
)
_BINARY = ["AND", "OR", "=", "!=", "<", ">", "<=", ">=", "+", "-", "*", "/"]


def _grow(children):
    return st.one_of(
        st.builds(ast.BinOp, st.sampled_from(_BINARY), children, children),
        st.builds(ast.UnaryOp, st.sampled_from(["NOT", "-"]), children),
        children.map(lambda e: ast.BinOp("IS NULL", e, ast.Literal(None))),
    )


# Arithmetic only bites on numbers: an integer-heavy, arithmetic-only
# family so that truncating division, division by zero and NULL
# propagation come up in every run, not once in a thousand.
numbers = st.one_of(
    st.integers(-7, 7), st.integers(-7, 7), st.none(), st.sampled_from([0.5, -2.0])
)
numeric_leaves = st.one_of(
    numbers.map(ast.Literal),
    numbers.map(ast.Literal),
    st.integers(0, 1).map(ast.Param),
    st.sampled_from(["k", "a"]).map(ast.Column),
)
numeric_exprs = st.recursive(
    numeric_leaves,
    lambda children: st.one_of(
        st.builds(ast.BinOp, st.sampled_from(_BINARY[8:]), children, children),
        st.builds(ast.UnaryOp, st.just("-"), children),
    ),
    max_leaves=4,
)
exprs = st.one_of(st.recursive(leaves, _grow, max_leaves=8), numeric_exprs)
rows = st.tuples(st.integers(-5, 5), st.one_of(numbers, values), values, values)
params = st.lists(st.one_of(numbers, values), max_size=4).map(tuple)
#: A statement's lifted literals: every slot a parsed template holds has a
#: value, so the two slots the strategies draw are always filled.
lifted_values = st.tuples(st.one_of(numbers, values), st.one_of(numbers, values))


def _unlift(expr, lifted):
    """``expr`` with each ``Lifted`` slot replaced by its value's Literal."""
    if isinstance(expr, ast.Lifted):
        return ast.Literal(lifted[expr.slot])
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, _unlift(expr.operand, lifted))
    if isinstance(expr, ast.BinOp):
        return ast.BinOp(
            expr.op, _unlift(expr.left, lifted), _unlift(expr.right, lifted)
        )
    return expr


def outcome(fn, *args):
    """repr of the value (2 vs 2.0 vs True differ), or the exception."""
    try:
        return ("value", repr(fn(*args)))
    except Exception as exc:  # noqa: BLE001 - any class must match the model's
        return ("raised", type(exc).__name__, str(exc))


def _lit(op, left, right):
    return ast.BinOp(op, ast.Literal(left), ast.Literal(right))


@settings(max_examples=600, deadline=None)
@given(exprs, rows, params, lifted_values)
@example(_lit("/", -7, 2), (0, 0, 0, 0), (), ())  # truncates toward zero: -3
@example(_lit("/", 7, -2), (0, 0, 0, 0), (), ())
@example(_lit("/", 7, 0), (0, 0, 0, 0), (), ())  # NULL, not an error
@example(_lit("/", 7, 2.0), (0, 0, 0, 0), (), ())
@example(_lit("AND", None, 0), (0, 0, 0, 0), (), ())  # false dominates NULL
@example(_lit("OR", None, 1), (0, 0, 0, 0), (), ())
@example(_lit("=", 1, "1"), (0, 0, 0, 0), (), ())  # storage classes never mix
@example(_lit("<", "z", b""), (0, 0, 0, 0), (), ())
@example(_lit("+", 1, "a"), (0, 0, 0, 0), (), ())
@example(ast.UnaryOp("-", ast.Literal("a")), (0, 0, 0, 0), (), ())
@example(ast.BinOp("AND", ast.Literal(0), ast.Column("nope")), (0, 0, 0, 0), (), ())
@example(ast.BinOp("=", ast.Column("k"), ast.Param(2)), (0, 0, 0, 0), (1, 2), ())
@example(  # a lifted literal is not a ``?``: no missing-parameter error
    ast.BinOp("=", ast.Column("k"), ast.Lifted(1)), (0, 0, 0, 0), (), (0, 0)
)
def test_compiled_expression_matches_the_interpreter(expr, row, args, lifted):
    compiled = compile_expr(expr, POSITIONS)
    assert outcome(compiled, row, args, lifted) == outcome(
        ref._eval, _unlift(expr, lifted), dict(zip(NAMES, row)), args
    )


@settings(max_examples=300, deadline=None)
@given(exprs, params, lifted_values)
def test_rowless_expression_matches_the_interpreter(expr, args, lifted):
    """VALUES lists and planner constants: no row, a column is an error."""
    compiled = compile_expr(expr, None)
    assert outcome(compiled, None, args, lifted) == outcome(
        ref._eval, _unlift(expr, lifted), None, args
    )


@settings(max_examples=300, deadline=None)
@given(exprs, params, lifted_values)
def test_bind_check_matches_validate_expr(expr, args, lifted):
    plan = _SelectPlan(ast.Select(None, "t", where=expr), TABLE, [], None)
    assert outcome(plan.check_bind, args) == outcome(
        ref._validate_expr, _unlift(expr, lifted), NAMES, args
    )


def _reference_key_range(where, args):
    """``Executor._plan_key_range`` as it stood, over the model's _key_bound."""
    lo = hi = None
    for conj in _conjuncts(where):
        bound = ref._key_bound(conj, "k", args)
        if bound is None:
            continue
        op, value = bound
        if op == "=":
            lo = value if lo is None else max(lo, value)
            hi = value if hi is None else min(hi, value)
        elif op in (">", ">="):
            adjusted = value + 1 if op == ">" else value
            lo = adjusted if lo is None else max(lo, adjusted)
        else:
            adjusted = value - 1 if op == "<" else value
            hi = adjusted if hi is None else min(hi, adjusted)
    return lo, hi


def _conjuncts(expr):
    if isinstance(expr, ast.BinOp) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


key_side = st.just(ast.Column("k"))
constants = st.one_of(
    values.map(ast.Literal),
    st.integers(0, 1).map(ast.Lifted),
    st.integers(0, 2).map(ast.Param),
    st.integers(-9, 9).map(lambda v: ast.UnaryOp("-", ast.Literal(v))),
    st.just(ast.UnaryOp("-", ast.Literal("text"))),
)
key_comparisons = st.one_of(
    st.builds(ast.BinOp, st.sampled_from(_BINARY[2:8]), key_side, constants),
    st.builds(ast.BinOp, st.sampled_from(_BINARY[2:8]), constants, key_side),
    exprs,
)
conjunctions = st.lists(key_comparisons, min_size=1, max_size=4).map(
    lambda cs: cs[0] if len(cs) == 1 else _and(cs)
)


def _and(conjuncts):
    expr = conjuncts[0]
    for conj in conjuncts[1:]:
        expr = ast.BinOp("AND", expr, conj)
    return expr


@settings(max_examples=400, deadline=None)
@given(
    conjunctions,
    st.lists(values, min_size=3, max_size=3).map(tuple),
    lifted_values,
)
def test_key_range_matches_key_bound(where, args, lifted):
    plan = _SelectPlan(ast.Select(None, "t", where=where), TABLE, [], None)
    assert outcome(lambda *a: plan.key_range(*a)[:2], args, lifted) == outcome(
        _reference_key_range, _unlift(where, lifted), args
    )


@settings(max_examples=400, deadline=None)
@given(
    conjunctions,
    st.lists(values, min_size=3, max_size=3).map(tuple),
    lifted_values,
    st.lists(rows, min_size=1, max_size=6),
)
@example(  # a bound past the largest 64-bit key
    ast.BinOp(">", ast.Column("k"), ast.Param(0)), (2**63 - 1, 0, 0), (0, 0),
    [(2**63 - 1, None, None, None)],
)
@example(  # two different equalities: lo > hi
    ast.BinOp("AND", ast.BinOp("=", ast.Column("k"), ast.Param(0)),
              ast.BinOp("=", ast.Column("k"), ast.Param(1))),
    (1, 2, 0), (0, 0), [(1, None, None, None), (2, None, None, None)],
)
def test_an_exact_key_range_decides_the_where(where, args, lifted, table_rows):
    """Where ``key_range`` calls the range exact, the WHERE keeps a
    row if and only if its key lies in the range: the executor may skip
    the filter.  Where it does not, the range still holds every row the
    WHERE keeps."""
    plan = _SelectPlan(ast.Select(None, "t", where=where), TABLE, [], None)
    try:
        lo, hi, exact = plan.key_range(args, lifted)
    except Exception:  # noqa: BLE001 - a constant that raises: no rows read
        return
    for row in table_rows:
        key = row[0]
        in_range = (lo is None or lo <= key) and (hi is None or key <= hi)
        try:
            verdict = plan.predicate(row, args, lifted)
        except Exception:  # noqa: BLE001 - only an inexact WHERE may raise
            assert not exact
            continue
        kept = verdict is not None and bool(verdict)
        if exact:
            assert kept == in_range, (row, lo, hi)
        elif kept:
            assert in_range, (row, lo, hi)
