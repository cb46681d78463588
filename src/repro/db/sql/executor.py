"""SQL statement execution against the storage engine: prepare, bind, step.

*Prepare* happens once per statement template (every text of one shape,
see :func:`repro.db.sql.parser.parse`) and catalog generation: a plan
object resolves every column reference to a position in the decoded
row tuple, compiles the WHERE / SET / VALUES expressions to closures
(:mod:`repro.db.sql.expr`), and picks out the conjuncts that can bound a
primary-key range or a secondary-index probe.  *Bind* is what depends on
the ``?`` values and lifted literals of one execution: the arity check (of
the ``?``s alone) and the actual bounds.
*Step* walks the B-tree through the same ``BTree`` entry points, in the
same order, as the interpreter it replaced — page visits are what the
simulated clock charges, so a plan may save host work but never a visit.
The host work it saves: a WHERE that the key range decides exactly is not
evaluated again per row, and a SELECT that reads nothing but the INTEGER
PRIMARY KEY decodes no row (the key is in the leaf cell).
"""

from __future__ import annotations

from repro.db.index import index_key
from repro.db.record import decode_row, encode_row, encode_value, validate_type
from repro.db.sql import ast_nodes as ast
from repro.db.sql import parser
from repro.db.sql.expr import compile_expr
from repro.errors import DatabaseError, SqlError

#: One plan per template the parser's shape map can hold: past that the
#: templates behind the oldest plans have been dropped and re-parsed anyway.
_PLAN_LIMIT = parser.parse.cache_parameters()["maxsize"]

_RANGE_OPS = ("=", "<", ">", "<=", ">=")
_FLIP = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "="}


# ----------------------------------------------------------------------
# plans
# ----------------------------------------------------------------------


class _Plan:
    """What one statement needs that does not depend on its parameters;
    valid for one generation of the database's catalog."""

    def __init__(self, stmt, table, indexes, tree) -> None:
        self.stmt = stmt  # pins id(stmt), the key this plan is filed under
        self.table = table
        self.tree = tree
        self.columns = table.columns
        self.names = [c.name for c in table.columns]
        self.index_columns = [
            (info, self.names.index(info.column)) for info in indexes
        ]


class _RowsPlan(_Plan):
    """A statement that reads the rows matching a WHERE clause.

    The only access-path optimization is the one that matters for the
    Mobibench workload: AND-ed comparisons constraining the INTEGER
    PRIMARY KEY become point lookups or range scans, and failing that,
    comparisons on an indexed column become an index probe; everything
    else is a full scan.  Bounds narrow the scan; they replace the filter
    only where they decide it exactly: every AND-ed conjunct of the WHERE
    is ``key <op> constant`` on the column the row's key is stored in,
    and every constant of this execution binds to an ``int`` (see
    :meth:`key_range`).  Any other WHERE — an OR, another column, a
    TEXT, REAL or NULL bound — is applied to every row the bounds leave,
    so inexact extraction stays correct.
    """

    #: Rows are read as their key alone (see _SelectPlan); UPDATE and
    #: DELETE decode whole rows.
    key_only = False

    def __init__(self, stmt, table, indexes, tree) -> None:
        super().__init__(stmt, table, indexes, tree)
        #: Expression columns resolve the way a name -> value dict of the
        #: row would (the last of two same-named columns wins).
        self.positions = {name: i for i, name in enumerate(self.names)}
        # Bind-time checks, matching SQLite's prepare step: unknown
        # columns and missing parameters are errors even when no row is
        # ever scanned (e.g. the table is empty), so error behaviour
        # cannot depend on data.  Collected by require() in expression
        # order up to the first unknown column; raised by check_bind().
        self._params_needed = 0
        self._param_order: list[int] = []
        self._bind_error: str | None = None
        where = stmt.where
        self.predicate = (
            None if where is None else compile_expr(where, self.positions)
        )
        conjuncts = [] if where is None else _conjuncts(where)
        #: ``key <op> constant`` conjuncts as (op, constant).
        self.key_bounds = []
        #: Whether int-bound key bounds are the whole WHERE (no WHERE is).
        self.exact_range = where is None
        if table.key_index is not None:
            key_name = table.columns[table.key_index].name
            for conj in conjuncts:
                bound = _column_bound(conj, (key_name,))
                if bound is not None:
                    self.key_bounds.append(bound[1:])
            self.exact_range = self.exact_range or (
                len(self.key_bounds) == len(conjuncts)
                and self.positions[key_name] == table.key_index
            )
        #: ``indexed_column <op> constant`` conjuncts as (column, op, constant).
        self.index_bounds = []
        self.index_of = {}
        for info in indexes:
            self.index_of.setdefault(info.column, info)
        for conj in conjuncts:
            bound = _column_bound(conj, self.index_of)
            if bound is not None:
                self.index_bounds.append(bound)

    def require_column(self, name: str) -> None:
        if self._bind_error is None and name not in self.positions:
            self._bind_error = f"unknown column {name!r}"

    def require(self, expr: ast.Expr | None) -> None:
        """Queue the bind-time checks of ``expr``."""
        if expr is None or self._bind_error is not None:
            return
        if isinstance(expr, ast.Column):
            self.require_column(expr.name)
        elif isinstance(expr, ast.Param):
            if expr.index not in self._param_order:
                self._param_order.append(expr.index)
                self._params_needed = max(self._params_needed, expr.index + 1)
        elif isinstance(expr, ast.UnaryOp):
            self.require(expr.operand)
        elif isinstance(expr, ast.BinOp):
            self.require(expr.left)
            self.require(expr.right)

    def check_bind(self, params: tuple) -> None:
        supplied = len(params)
        if supplied < self._params_needed:
            index = next(i for i in self._param_order if i >= supplied)
            raise SqlError(
                f"statement has parameter ?{index + 1} but only "
                f"{supplied} values were supplied"
            )
        if self._bind_error is not None:
            raise SqlError(self._bind_error)

    def key_range(
        self, params: tuple, lifted: tuple
    ) -> tuple[int | None, int | None, bool]:
        """Primary-key bounds (inclusive) this execution's constants give,
        and whether the rows between them are exactly the rows the WHERE
        keeps: the bounds are the whole WHERE and all of them bound to
        ints, whose order is the key's (a bound of another type is left
        out of the range, and the WHERE must still decide it)."""
        lo = hi = None
        exact = self.exact_range
        for op, constant in self.key_bounds:
            value = constant(None, params, lifted)
            if not isinstance(value, int):
                exact = False
                continue
            if op == "=":
                lo = value if lo is None else max(lo, value)
                hi = value if hi is None else min(hi, value)
            elif op in (">", ">="):
                adjusted = value + 1 if op == ">" else value
                lo = adjusted if lo is None else max(lo, adjusted)
            else:
                adjusted = value - 1 if op == "<" else value
                hi = adjusted if hi is None else min(hi, adjusted)
        return lo, hi, exact

    def index_probe(self, params: tuple, lifted: tuple):
        """``(index, lo, hi)`` for a secondary-index probe, or None.

        Picks the indexed column whose conjuncts narrow the index-key
        range the most.  The bounds are a *superset* guarantee, never a
        filter: ``index_key`` is lossy, and storage-class ordering means
        e.g. ``col > 5`` is true for every TEXT value, so ``>``/``>=``
        leave the upper bound open and ``<``/``<=`` the lower one.  The
        caller re-applies the whole WHERE predicate to every candidate.
        """
        bounds: dict[str, list] = {}
        for column, op, constant in self.index_bounds:
            value = constant(None, params, lifted)
            if value is None:
                # ``col <op> NULL`` is never true; the predicate rejects
                # every row anyway, so it plans nothing.
                continue
            lo, hi = bounds.setdefault(column, [None, None])
            key = index_key(value)
            if op == "=":
                lo = key if lo is None else max(lo, key)
                hi = key if hi is None else min(hi, key)
            elif op in (">", ">="):
                lo = key if lo is None else max(lo, key)
            else:  # "<", "<=" — inclusive: equal keys may hide smaller values
                hi = key if hi is None else min(hi, key)
            bounds[column] = [lo, hi]
        if not bounds:
            return None
        column = max(
            sorted(bounds),
            key=lambda c: (bounds[c][0] is not None) + (bounds[c][1] is not None),
        )
        return (self.index_of[column], *bounds[column])


class _SelectPlan(_RowsPlan):
    def __init__(self, stmt: ast.Select, table, indexes, tree) -> None:
        super().__init__(stmt, table, indexes, tree)
        self.require(stmt.where)
        #: Unknown output columns are reported only after the rows were
        #: read, as the first of: aggregate argument, ORDER BY, projection.
        self.late_error: str | None = None
        self.aggregate = None
        if stmt.aggregate is not None:
            func, column = stmt.aggregate
            if func not in _AGGREGATES:
                raise SqlError(f"unknown aggregate {func}")
            self.aggregate = (func, self._output(column, "unknown column"))
        self.order_by = self._output(stmt.order_by, "unknown ORDER BY column")
        self.descending = stmt.descending
        self.limit = stmt.limit
        self.projection = None
        if stmt.columns is not None:
            self.projection = [
                self._output(name, "unknown column") for name in stmt.columns
            ]
        if self.aggregate is not None:
            reads = {self.aggregate[1]} - {None}
        elif self.projection is not None:
            reads = {*self.projection, self.order_by} - {None}
        else:
            reads = None  # SELECT *: every column
        #: Every column the statement reads, the WHERE's included, is the
        #: INTEGER PRIMARY KEY: its rows are taken from the leaf cells'
        #: keys and no payload is decoded (see Executor._matching_rows).
        self.key_only = (
            self.late_error is None
            and table.key_index is not None
            and self.exact_range
            and reads is not None
            and reads <= {table.key_index}
        )

    def _output(self, name: str | None, complaint: str) -> int | None:
        if name is None:
            return None
        if name in self.names:
            return self.names.index(name)
        if self.late_error is None:
            self.late_error = f"{complaint} {name!r}"
        return None


class _UpdatePlan(_RowsPlan):
    def __init__(self, stmt: ast.Update, table, indexes, tree) -> None:
        super().__init__(stmt, table, indexes, tree)
        #: (position of the target column, compiled new-value expression)
        self.assignments = []
        for name, expr in stmt.assignments:
            self.require_column(name)
            self.require(expr)
            if name in self.names:
                self.assignments.append(
                    (self.names.index(name), compile_expr(expr, self.positions))
                )
        self.require(stmt.where)


class _DeletePlan(_RowsPlan):
    def __init__(self, stmt: ast.Delete, table, indexes, tree) -> None:
        super().__init__(stmt, table, indexes, tree)
        self.require(stmt.where)


class _InsertPlan(_Plan):
    def __init__(self, stmt: ast.Insert, table, indexes, tree) -> None:
        super().__init__(stmt, table, indexes, tree)
        names = self.names
        self.or_replace = stmt.or_replace
        #: With a column list: for each table column, the position of its
        #: value in the VALUES tuple (None: not listed, stored as NULL).
        self.slots = None
        unknown = None
        if stmt.columns is not None:
            listed = {name: i for i, name in enumerate(stmt.columns)}
            self.slots = [listed.get(name) for name in names]
            unknown = sorted(set(listed) - set(names))
        #: Per VALUES tuple: its compiled expressions, and the shape error
        #: to raise once they have been evaluated (VALUES expressions fail
        #: row by row, after the rows before them went in).
        self.rows = []
        for row_exprs in stmt.rows:
            error = None
            if stmt.columns is not None:
                if len(row_exprs) != len(stmt.columns):
                    error = "VALUES arity does not match column list"
                elif unknown:
                    error = f"unknown columns {unknown}"
            elif len(row_exprs) != len(names):
                error = (
                    f"table {table.name} has {len(names)} columns but "
                    f"{len(row_exprs)} values were supplied"
                )
            fns = [compile_expr(e, None) for e in row_exprs]
            self.rows.append((fns, error))


def _conjuncts(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.BinOp) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _column_bound(expr: ast.Expr, columns):
    """If ``expr`` is ``column <op> constant`` (either side) for one of
    ``columns``, return (column, normalized_op, compiled constant), else
    None."""
    if not isinstance(expr, ast.BinOp):
        return None
    op, left, right = expr.op, expr.left, expr.right
    if isinstance(right, ast.Column) and right.name in columns:
        left, right = right, left
        op = _FLIP.get(op)
    if op not in _RANGE_OPS:
        return None
    if not (isinstance(left, ast.Column) and left.name in columns):
        return None
    if not _is_constant(right):
        return None
    return left.name, op, compile_expr(right, None)


def _is_constant(expr: ast.Expr) -> bool:
    if isinstance(expr, (ast.Literal, ast.Lifted, ast.Param)):
        return True
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        return _is_constant(expr.operand)
    return False


def _average(values: list):
    return sum(values) / len(values)


#: Aggregate -> function of the non-NULL values (never called with none,
#: except COUNT).
_AGGREGATES = {
    "COUNT": len, "SUM": sum, "MIN": min, "MAX": max, "AVG": _average,
}


# ----------------------------------------------------------------------
# executor
# ----------------------------------------------------------------------


class Executor:
    """Runs parsed statements against one database.

    Plans are filed under the identity of the statement template (the
    parser hands every text of one shape the same tree) and belong to this
    executor, because they are bound to *this* database's catalog.
    """

    def __init__(self, database) -> None:
        self.db = database
        self._plans: dict[int, _Plan] = {}
        self._plans_generation = 0

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def run(
        self, stmt: ast.Statement, params: tuple, lifted: tuple
    ) -> list[tuple] | int:
        """Execute one (non-transaction-control) statement template with
        its ``?`` values and its lifted literals."""
        entry = _STATEMENTS.get(type(stmt))
        if entry is None:
            raise SqlError(f"cannot execute {type(stmt).__name__} here")
        plan_type, step = entry
        if plan_type is None:
            return step(self, stmt)
        # The statement's plan against the catalog as it is now.
        # ``table_and_indexes`` is the statement's one schema-cookie page
        # visit, plan or no plan; when the cookie it read had moved, the
        # catalog was reloaded and every plan here is stale.
        db = self.db
        table, indexes = db.table_and_indexes(stmt.table)
        plans = self._plans
        if db.catalog_generation != self._plans_generation:
            plans.clear()
            self._plans_generation = db.catalog_generation
        plan = plans.get(id(stmt))
        if plan is None:
            if len(plans) >= _PLAN_LIMIT:
                plans.clear()
            plan = plan_type(stmt, table, indexes, db.table_tree(table))
            plans[id(stmt)] = plan
        return step(self, plan, params, lifted)

    def _create_table(self, stmt: ast.CreateTable) -> int:
        if stmt.if_not_exists and self.db.table_exists(stmt.name):
            return 0
        self.db.create_table(stmt.name, stmt.columns)
        return 0

    def _drop_table(self, stmt: ast.DropTable) -> int:
        self.db.drop_table(stmt.name)
        return 0

    def _create_index(self, stmt: ast.CreateIndex) -> int:
        if stmt.if_not_exists and self.db.index_exists(stmt.name):
            return 0
        self.db.create_index(stmt.name, stmt.table, stmt.column)
        return 0

    def _drop_index(self, stmt: ast.DropIndex) -> int:
        if stmt.if_exists and not self.db.index_exists(stmt.name):
            return 0
        self.db.drop_index(stmt.name)
        return 0

    # ------------------------------------------------------------------
    # INSERT
    # ------------------------------------------------------------------

    def _insert(self, plan: _InsertPlan, params: tuple, lifted: tuple) -> int:
        table, tree, columns = plan.table, plan.tree, plan.columns
        index_columns, or_replace = plan.index_columns, plan.or_replace
        count = 0
        for fns, error in plan.rows:
            values = [fn(None, params, lifted) for fn in fns]
            if error is not None:
                raise SqlError(error)
            if plan.slots is not None:
                values = [
                    None if slot is None else values[slot] for slot in plan.slots
                ]
            for value, col in zip(values, columns):
                validate_type(value, col.type, col.name)
            key = self._key_for_insert(table, values)
            if table.key_index is not None:
                values[table.key_index] = key
            # INSERT OR REPLACE may silently overwrite: fetch the old
            # row first so the victim's index entries can be retired.
            old = tree.get(key) if (index_columns and or_replace) else None
            tree.insert(key, encode_row(values), replace=or_replace)
            if old is not None:
                self._index_remove_row(index_columns, key, decode_row(old))
            for info, position in index_columns:
                self.db.index_tree(info).add(values[position], key)
            count += 1
        return count

    def _index_remove_row(self, index_columns, key: int, values) -> None:
        for info, position in index_columns:
            self.db.index_tree(info).remove(values[position], key)

    def _key_for_insert(self, table, values: list) -> int:
        key = None if table.key_index is None else values[table.key_index]
        if key is None:
            # SQLite semantics: no (or a NULL) primary key auto-assigns
            # max+1 — which the largest rowid leaves no room for.
            key = self.db.next_rowid(table)
            validate_type(key, "INTEGER", "rowid")
        elif not isinstance(key, int):
            raise SqlError("PRIMARY KEY values must be integers")
        return key

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------

    def _select(
        self, plan: _SelectPlan, params: tuple, lifted: tuple
    ) -> list[tuple]:
        plan.check_bind(params)
        rows = list(self._matching_rows(plan, params, lifted))
        if plan.late_error is not None:
            raise SqlError(plan.late_error)
        if plan.aggregate is not None:
            return [_aggregate(plan.aggregate, rows)]
        position = plan.order_by
        if position is not None:
            # SQLite sorts NULLs first ascending (NULL is the smallest
            # storage class), hence last when descending.
            rows.sort(
                key=lambda kv: (kv[1][position] is not None, kv[1][position]),
                reverse=plan.descending,
            )
        if plan.limit is not None:
            rows = rows[: plan.limit]
        if plan.projection is None:
            return [values for _key, values in rows]
        return [
            tuple(values[i] for i in plan.projection) for _key, values in rows
        ]

    # ------------------------------------------------------------------
    # UPDATE / DELETE
    # ------------------------------------------------------------------

    def _update(self, plan: _UpdatePlan, params: tuple, lifted: tuple) -> int:
        plan.check_bind(params)
        table, tree, columns = plan.table, plan.tree, plan.columns
        matches = list(self._matching_rows(plan, params, lifted))
        # Key order keeps the mutation sequence identical whether the
        # matches came off a table scan or a secondary-index probe.
        matches.sort(key=lambda kv: kv[0])
        count = 0
        for key, values in matches:
            new_values = list(values)
            for position, expr in plan.assignments:
                new_values[position] = expr(values, params, lifted)
            for value, col in zip(new_values, columns):
                validate_type(value, col.type, col.name)
            new_key = key
            if table.key_index is not None:
                new_key = new_values[table.key_index]
                if not isinstance(new_key, int):
                    raise SqlError("PRIMARY KEY values must be integers")
            if new_key != key:
                tree.delete(key)
                tree.insert(new_key, encode_row(new_values))
            else:
                tree.update(key, encode_row(new_values))
            for info, position in plan.index_columns:
                old_v, new_v = values[position], new_values[position]
                if new_key == key and encode_value(old_v) == encode_value(new_v):
                    continue  # entry bytes unchanged, nothing to refile
                itree = self.db.index_tree(info)
                itree.remove(old_v, key)
                itree.add(new_v, new_key)
            count += 1
        return count

    def _delete(self, plan: _DeletePlan, params: tuple, lifted: tuple) -> int:
        plan.check_bind(params)
        tree = plan.tree
        matches = list(self._matching_rows(plan, params, lifted))
        matches.sort(key=lambda kv: kv[0])
        for key, values in matches:
            tree.delete(key)
            self._index_remove_row(plan.index_columns, key, values)
        return len(matches)

    # ------------------------------------------------------------------
    # row access
    # ------------------------------------------------------------------

    def _matching_rows(self, plan: _RowsPlan, params: tuple, lifted: tuple):
        """(key, decoded_row) for the rows the plan's WHERE keeps, in key
        order (index order off an index probe): both false and NULL reject
        a row (three-valued logic)."""
        tree, predicate = plan.tree, plan.predicate
        lo, hi, exact = plan.key_range(params, lifted)
        if lo is None and hi is None and plan.index_bounds:
            probe = plan.index_probe(params, lifted)
            if probe is not None:
                info, index_lo, index_hi = probe
                rows = []
                for rowid in self.db.index_tree(info).rowids(index_lo, index_hi):
                    payload = tree.get(rowid)
                    if payload is None:
                        raise DatabaseError(
                            f"index {info.name} references missing row {rowid}"
                        )
                    values = decode_row(payload)
                    verdict = predicate(values, params, lifted)
                    if verdict is not None and verdict:
                        rows.append((rowid, values))
                return rows
        if exact:
            if plan.key_only:
                # The key in every column: no column but the key's is read.
                width = len(plan.names)
                return [(key, (key,) * width) for key, _payload in tree.scan(lo, hi)]
            return [(key, decode_row(payload)) for key, payload in tree.scan(lo, hi)]
        rows = []
        for key, payload in tree.scan(lo, hi):
            values = decode_row(payload)
            verdict = predicate(values, params, lifted)
            if verdict is not None and verdict:
                rows.append((key, values))
        return rows


def _aggregate(aggregate: tuple[str, int | None], rows) -> tuple:
    """Evaluate COUNT/SUM/MIN/MAX/AVG over the matching rows.

    SQL semantics: NULLs are skipped; SUM/MIN/MAX/AVG of no values is
    NULL, COUNT of no rows is 0."""
    func, position = aggregate
    if position is None:
        return (len(rows),)  # COUNT(*)
    values = [r[1][position] for r in rows if r[1][position] is not None]
    if not values and func != "COUNT":
        return (None,)
    return (_AGGREGATES[func](values),)


#: Statement type -> (plan type or None for DDL, step function).
_STATEMENTS = {
    ast.CreateTable: (None, Executor._create_table),
    ast.DropTable: (None, Executor._drop_table),
    ast.CreateIndex: (None, Executor._create_index),
    ast.DropIndex: (None, Executor._drop_index),
    ast.Insert: (_InsertPlan, Executor._insert),
    ast.Select: (_SelectPlan, Executor._select),
    ast.Update: (_UpdatePlan, Executor._update),
    ast.Delete: (_DeletePlan, Executor._delete),
}
