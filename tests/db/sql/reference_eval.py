"""Reference model: the tree-walking expression interpreter.

This is ``_eval`` / ``_eval_binop`` / ``_validate_expr`` / ``_key_bound``
exactly as ``repro.db.sql.executor`` carried them up to commit 88ae32c,
when statement execution moved to compiled plans
(``repro.db.sql.expr.compile_expr`` and the ``_Plan`` classes).  It walks
the AST per evaluation over a ``{column: value}`` dict — slow, and easy to
read against the SQL semantics it encodes.  ``test_compiled_expr.py`` holds
the compiled closures, the plan's bind check and its key-range extraction
to this model: same value, or same exception class and message.
"""

from __future__ import annotations

from repro.db.sql import ast_nodes as ast
from repro.errors import SqlError


def _key_bound(expr: ast.Expr, key_name: str, params: tuple):
    """If ``expr`` is ``key <op> constant`` (either side), return
    (normalized_op, int_value), else None."""
    if not isinstance(expr, ast.BinOp):
        return None
    flip = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "="}
    op, left, right = expr.op, expr.left, expr.right
    if isinstance(right, ast.Column) and right.name == key_name:
        left, right = right, left
        op = flip.get(op)
    if op is None or not (isinstance(left, ast.Column) and left.name == key_name):
        return None
    if not _is_constant(right):
        return None
    if op not in ("=", "<", ">", "<=", ">="):
        return None
    value = _eval(right, None, params)
    if not isinstance(value, int):
        return None
    return op, value


def _is_constant(expr: ast.Expr) -> bool:
    if isinstance(expr, (ast.Literal, ast.Param)):
        return True
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        return _is_constant(expr.operand)
    return False


def _truthy(value) -> bool:
    """Collapse SQL three-valued logic to a WHERE decision: a row is kept
    only when the predicate is true — both false and NULL reject it."""
    return value is not None and bool(value)


def _validate_expr(expr: ast.Expr | None, names: list[str], params: tuple):
    """Bind-time checks, matching SQLite's prepare step: unknown columns
    and missing parameters are errors even when no row is ever scanned
    (e.g. the table is empty), so error behaviour cannot depend on data."""
    if expr is None:
        return
    if isinstance(expr, ast.Column):
        if expr.name not in names:
            raise SqlError(f"unknown column {expr.name!r}")
    elif isinstance(expr, ast.Param):
        if expr.index >= len(params):
            raise SqlError(
                f"statement has parameter ?{expr.index + 1} but only "
                f"{len(params)} values were supplied"
            )
    elif isinstance(expr, ast.UnaryOp):
        _validate_expr(expr.operand, names, params)
    elif isinstance(expr, ast.BinOp):
        _validate_expr(expr.left, names, params)
        _validate_expr(expr.right, names, params)


#: SQLite storage-class ordering: NULL < numeric < TEXT < BLOB.  NULL is
#: handled by the three-valued-logic short circuit before ranking.
_STORAGE_RANK = {int: 1, float: 1, bool: 1, str: 2, bytes: 3}


def _cmp_values(left, right) -> int:
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


def _eval(expr: ast.Expr, row: dict | None, params: tuple):
    """Evaluate an expression; ``row`` maps column names to values."""
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Param):
        if expr.index >= len(params):
            raise SqlError(
                f"statement has parameter ?{expr.index + 1} but only "
                f"{len(params)} values were supplied"
            )
        return params[expr.index]
    if isinstance(expr, ast.Column):
        if row is None:
            raise SqlError(f"column {expr.name!r} not allowed here")
        if expr.name not in row:
            raise SqlError(f"unknown column {expr.name!r}")
        return row[expr.name]
    if isinstance(expr, ast.UnaryOp):
        value = _eval(expr.operand, row, params)
        if expr.op == "NOT":
            # Three-valued logic: NOT NULL is NULL.
            return None if value is None else not _truthy(value)
        if expr.op == "-":
            return -value if value is not None else None
        raise SqlError(f"unknown unary operator {expr.op}")
    if isinstance(expr, ast.BinOp):
        return _eval_binop(expr, row, params)
    raise SqlError(f"cannot evaluate {type(expr).__name__}")


def _eval_binop(expr: ast.BinOp, row: dict | None, params: tuple):
    op = expr.op
    if op in ("AND", "OR"):
        # Three-valued logic with short circuit: false dominates AND,
        # true dominates OR, NULL propagates otherwise.
        left = _eval(expr.left, row, params)
        lval = None if left is None else _truthy(left)
        if op == "AND" and lval is False:
            return False
        if op == "OR" and lval is True:
            return True
        right = _eval(expr.right, row, params)
        rval = None if right is None else _truthy(right)
        if op == "AND":
            if rval is False:
                return False
            return None if None in (lval, rval) else True
        if rval is True:
            return True
        return None if None in (lval, rval) else False
    left = _eval(expr.left, row, params)
    if op == "IS NULL":
        return left is None
    right = _eval(expr.right, row, params)
    if op in ("=", "!=", "<", ">", "<=", ">="):
        # Comparing anything with NULL yields NULL (never true/false).
        if left is None or right is None:
            return None
        c = _cmp_values(left, right)
        return {
            "=": c == 0,
            "!=": c != 0,
            "<": c < 0,
            ">": c > 0,
            "<=": c <= 0,
            ">=": c >= 0,
        }[op]
    if left is None or right is None:
        return None
    if isinstance(left, (str, bytes)) or isinstance(right, (str, bytes)):
        raise SqlError(f"cannot apply {op} to non-numeric operands")
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        # SQLite: division by zero is NULL, and integer division
        # truncates toward zero (-7/2 = -3, not floor's -4).
        if right == 0:
            return None
        if isinstance(left, float) or isinstance(right, float):
            return left / right
        q = abs(left) // abs(right)
        return -q if (left < 0) != (right < 0) else q
    raise SqlError(f"unknown operator {op}")
