"""SQL expressions compiled to closures over the decoded row tuple.

:func:`compile_expr` turns an expression tree into
``fn(values, params, lifted)`` once, when a statement is planned; executing
the statement then costs one Python call per node per row, with column
positions already resolved — no type dispatch over the tree and no per-row
name lookup.  The tree-walking
evaluator these closures replaced lives on as the reference model in
``tests/db/sql/reference_eval.py``; a property test holds the two to the
same value or the same error for every expression.
"""

from __future__ import annotations

import operator
from typing import Callable

from repro.db.record import Value
from repro.db.sql import ast_nodes as ast
from repro.errors import SqlError

#: A compiled expression: ``fn(values, params, lifted)`` where ``values`` is
#: the decoded row (None where there is no row), ``params`` the bound ``?``s
#: and ``lifted`` the statement text's own literals (see ``parser.parse``).
Compiled = Callable[[tuple | None, tuple, tuple], Value]

#: SQLite storage-class ordering: NULL < numeric < TEXT < BLOB.  NULL is
#: handled by the three-valued-logic short circuit before ranking.
_STORAGE_RANK = {int: 1, float: 1, bool: 1, str: 2, bytes: 3}

#: Comparison operator -> the three-way results it accepts.
_ACCEPTS = {
    "=": (0,),
    "!=": (-1, 1),
    "<": (-1,),
    ">": (1,),
    "<=": (-1, 0),
    ">=": (0, 1),
}


def cmp_values(left, right) -> int:
    """Three-way compare under SQLite storage-class ordering.

    Values of different storage classes never compare equal; the class
    rank alone decides (any number < any text < any blob).  Within a
    class, Python's ordering matches SQLite's (numeric comparison,
    memcmp for text/blob given our byte-for-byte encodings)."""
    lrank = _STORAGE_RANK[type(left)]
    rrank = _STORAGE_RANK[type(right)]
    if lrank != rrank:
        return -1 if lrank < rrank else 1
    if left == right:
        return 0
    return -1 if left < right else 1


def _divide(left, right):
    # SQLite: division by zero is NULL, and integer division truncates
    # toward zero (-7/2 = -3, not floor's -4).
    if right == 0:
        return None
    if isinstance(left, float) or isinstance(right, float):
        return left / right
    q = abs(left) // abs(right)
    return -q if (left < 0) != (right < 0) else q


_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
}


def compile_expr(expr: ast.Expr, columns: dict[str, int] | None) -> Compiled:
    """Compile ``expr`` against a row whose column ``name`` sits at
    ``columns[name]``; ``columns`` is None where no row exists (VALUES
    lists, planner constants).

    Compiling never fails on a bad reference: a column that cannot be
    resolved, like a ``?`` past the supplied values, raises when — and
    only when — the closure evaluates it, exactly where the interpreter
    raised.  (Statements that must fail at bind time, before any row is
    read, check that separately; see ``executor._RowsPlan.check_bind``.)
    """
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda values, params, lifted: value
    if isinstance(expr, ast.Lifted):
        slot = expr.slot
        return lambda values, params, lifted: lifted[slot]
    if isinstance(expr, ast.Param):
        return _compile_param(expr.index)
    if isinstance(expr, ast.Column):
        return _compile_column(expr.name, columns)
    if isinstance(expr, ast.UnaryOp):
        return _compile_unary(expr.op, compile_expr(expr.operand, columns))
    if isinstance(expr, ast.BinOp):
        left = compile_expr(expr.left, columns)
        if expr.op == "IS NULL":
            return lambda values, params, lifted: (
                left(values, params, lifted) is None
            )
        return _compile_binop(expr.op, left, compile_expr(expr.right, columns))
    raise SqlError(f"cannot evaluate {type(expr).__name__}")


def _compile_param(index: int) -> Compiled:
    def param(values, params, lifted):
        try:
            return params[index]
        except IndexError:
            raise SqlError(
                f"statement has parameter ?{index + 1} but only "
                f"{len(params)} values were supplied"
            ) from None

    return param


def _compile_column(name: str, columns: dict[str, int] | None) -> Compiled:
    if columns is None:
        message = f"column {name!r} not allowed here"
    elif name not in columns:
        message = f"unknown column {name!r}"
    else:
        index = columns[name]
        return lambda values, params, lifted: values[index]

    def unresolved(values, params, lifted):
        raise SqlError(message)

    return unresolved


def _compile_unary(op: str, operand: Compiled) -> Compiled:
    if op == "NOT":
        # Three-valued logic: NOT NULL is NULL.
        def negate(values, params, lifted):
            value = operand(values, params, lifted)
            return None if value is None else not value

        return negate
    if op == "-":
        def minus(values, params, lifted):
            value = operand(values, params, lifted)
            return -value if value is not None else None

        return minus
    raise SqlError(f"unknown unary operator {op}")


def _compile_binop(op: str, left: Compiled, right: Compiled) -> Compiled:
    if op == "AND":
        # Three-valued logic with short circuit: false dominates AND,
        # true dominates OR, NULL propagates otherwise.
        def conjunction(values, params, lifted):
            lval = left(values, params, lifted)
            if lval is not None and not lval:
                return False
            rval = right(values, params, lifted)
            if rval is not None and not rval:
                return False
            return None if lval is None or rval is None else True

        return conjunction
    if op == "OR":
        def disjunction(values, params, lifted):
            lval = left(values, params, lifted)
            if lval is not None and lval:
                return True
            rval = right(values, params, lifted)
            if rval is not None and rval:
                return True
            return None if lval is None or rval is None else False

        return disjunction
    if op in _ACCEPTS:
        accepts = _ACCEPTS[op]

        def compare(values, params, lifted):
            lval = left(values, params, lifted)
            rval = right(values, params, lifted)
            # Comparing anything with NULL yields NULL (never true/false).
            if lval is None or rval is None:
                return None
            return cmp_values(lval, rval) in accepts

        return compare
    if op in _ARITHMETIC:
        apply = _ARITHMETIC[op]

        def arithmetic(values, params, lifted):
            lval = left(values, params, lifted)
            rval = right(values, params, lifted)
            if lval is None or rval is None:
                return None
            if isinstance(lval, (str, bytes)) or isinstance(rval, (str, bytes)):
                raise SqlError(f"cannot apply {op} to non-numeric operands")
            return apply(lval, rval)

        return arithmetic
    raise SqlError(f"unknown operator {op}")
