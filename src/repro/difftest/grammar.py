"""Grammar-based statement-stream generation for the differential fuzzer.

The generator is seeded and deterministic: one ``random.Random(seed)``
drives every choice, so a stream can be regenerated from its seed alone
and a recorded JSON stream replays bit-identically.

Divergence-avoidance discipline
-------------------------------

The generator's job is to explore the dialect *without* tripping known,
deliberate differences between SQLite's dynamic typing and the repro
engine's checked storage classes.  The rules, each guarding a specific
affinity or precision trap:

* TEXT values are alphabetic ASCII words (never numeric-looking, never
  empty), so TEXT-affinity coercions can't produce engine-specific
  numbers; overflow-sized payloads (1200–3000 chars) go via parameters.
* REAL values are multiples of 0.25 — exact in binary floating point,
  so sums and averages stay bit-identical regardless of evaluation
  order — and are always Python floats (the repro engine stores what
  you give it; SQLite's REAL affinity would silently widen an int).
* INTEGER values stay within ±10**9 so sums fit in SQLite's 64-bit
  integers.
* BLOBs travel only as parameters and are compared with =/!=/ordering
  (memcmp, identical to Python ``bytes`` ordering).
* Cross-storage-class comparisons are generated rarely and only in the
  two shapes that agree under both affinity rules and raw storage-class
  ordering given the value discipline above: INTEGER column vs
  alphabetic text, TEXT column vs integer literal.
* LIMIT appears only under ORDER BY the primary key (a unique total
  order, so row-for-row comparison is exact); ORDER BY a data column is
  compared as a multiset plus a per-engine sortedness check.
* Multi-row INSERTs always use fresh keys: SQLite aborts a whole
  statement on constraint failure while the repro engine applies rows
  until the error, so a mid-statement duplicate would diverge by
  design.  Deliberate duplicate-key INSERTs are single-row, and the
  auto-rowid (NULL primary key) path is exercised only in single-row
  INSERTs so an assigned rowid can never collide mid-statement.
* Primary-key UPDATEs move exactly one live key to a fresh one.

Each statement carries a ``kind`` that tells the runner how to compare
outcomes (rows, rowcount, or just ok-vs-error-class).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

_TYPES = ("INTEGER", "REAL", "TEXT", "BLOB")
_WORDS = (
    "alder", "birch", "cedar", "dogwood", "elm", "fir", "ginkgo",
    "hazel", "ironwood", "juniper", "katsura", "larch", "maple",
    "oak", "pine", "quince", "rowan", "spruce", "tupelo", "willow",
)
#: Fresh primary keys start here so they never collide with auto-assigned
#: rowids (max(live)+1) of the small keys inserted early on.
_FRESH_BASE = 1000


@dataclass(frozen=True)
class Stmt:
    """One generated statement plus how the runner must compare it.

    ``kind`` is one of ``select`` (compare rows), ``write`` (compare
    affected-row counts), ``ddl``/``txn``/``checkpoint`` (compare
    ok-vs-error-class).  ``ordered`` marks a fully-determined result
    order (ORDER BY the unique primary key); ``order_index`` points at
    the ORDER BY column inside the result tuples for the sortedness
    check when the order is only partial.
    """

    sql: str
    params: tuple = ()
    kind: str = "write"
    ordered: bool = False
    order_index: int | None = None
    order_desc: bool = False

    def to_json(self) -> dict:
        return stmt_to_dict(self)


def stmt_to_dict(stmt: Stmt) -> dict:
    return {
        "sql": stmt.sql,
        "params": [_encode_param(p) for p in stmt.params],
        "kind": stmt.kind,
        "ordered": stmt.ordered,
        "order_index": stmt.order_index,
        "order_desc": stmt.order_desc,
    }


def stmt_from_dict(data: dict) -> Stmt:
    return Stmt(
        sql=data["sql"],
        params=tuple(_decode_param(p) for p in data["params"]),
        kind=data["kind"],
        ordered=data["ordered"],
        order_index=data["order_index"],
        order_desc=data["order_desc"],
    )


def _encode_param(value):
    if isinstance(value, bytes):
        return {"__blob__": value.hex()}
    return value


def _decode_param(value):
    if isinstance(value, dict) and "__blob__" in value:
        return bytes.fromhex(value["__blob__"])
    return value


@dataclass
class _TableModel:
    """What the generator believes about one table.

    ``live`` is a best-effort approximation (range deletes prune only
    tracked keys); it shapes the key distribution and never affects
    correctness.  ``fresh`` is the exception: it stays strictly above
    every key ever present, so fresh-key inserts can never collide."""

    name: str
    cols: tuple[tuple[str, str], ...]  # (name, type), col 0 is the pk
    live: set = field(default_factory=set)
    fresh: int = _FRESH_BASE
    indexes: dict = field(default_factory=dict)  # index name -> column

    def take_fresh(self) -> int:
        key = self.fresh
        self.fresh += 1
        return key


class StreamGenerator:
    """Seeded statement-stream generator over an evolving schema model."""

    def __init__(self, seed: int, max_tables: int = 3) -> None:
        self.rng = random.Random(seed)
        self.max_tables = max_tables
        self.tables: dict[str, _TableModel] = {}
        self.in_txn = False
        self._snapshot: dict[str, _TableModel] | None = None
        self._n_tables = 0
        self._n_indexes = 0

    # ------------------------------------------------------------------
    # stream assembly
    # ------------------------------------------------------------------

    def stream(self, n: int) -> list[Stmt]:
        """Generate ``n`` statements (plus a closing COMMIT if needed)."""
        out = [self._create_table()]
        while len(out) < n:
            out.append(self._next())
        if self.in_txn:
            out.append(self._txn_stmt("COMMIT"))
        return out

    def _next(self) -> Stmt:
        rng = self.rng
        roll = rng.random()
        if roll < 0.04 and len(self.tables) < self.max_tables:
            return self._create_table()
        if roll < 0.08:
            return self._deliberate_error()
        if roll < 0.14:
            return self._txn_control()
        if roll < 0.16 and not self.in_txn:
            return Stmt("CHECKPOINT", kind="checkpoint")
        if roll < 0.17 and len(self.tables) > 1:
            return self._drop_table()
        table = rng.choice(sorted(self.tables))
        model = self.tables[table]
        if roll < 0.22:
            return self._index_ddl(model)
        roll = rng.random()
        if roll < 0.32:
            return self._insert(model)
        if roll < 0.68:
            return self._select(model)
        if roll < 0.86:
            return self._update(model)
        return self._delete(model)

    # ------------------------------------------------------------------
    # schema / transactions
    # ------------------------------------------------------------------

    def _create_table(self) -> Stmt:
        name = f"t{self._n_tables}"
        self._n_tables += 1
        n_data = self.rng.randint(1, 3)
        cols = [("k", "INTEGER")]
        for i in range(n_data):
            cols.append((chr(ord("a") + i), self.rng.choice(_TYPES)))
        self.tables[name] = _TableModel(name, tuple(cols))
        defs = ", ".join(
            f"{cname} {ctype}" + (" PRIMARY KEY" if cname == "k" else "")
            for cname, ctype in cols
        )
        return Stmt(f"CREATE TABLE {name} ({defs})", kind="ddl")

    def _drop_table(self) -> Stmt:
        # SQLite drops a table's indexes with it; the model does too
        # (they live inside the table's model entry).
        name = self.rng.choice(sorted(self.tables))
        del self.tables[name]
        return Stmt(f"DROP TABLE {name}", kind="ddl")

    def _index_ddl(self, model: _TableModel) -> Stmt:
        """CREATE INDEX on a random column, or DROP an existing one.
        Index-backed scans stay divergence-safe by construction: the
        planner only narrows, so results are compared like any SELECT."""
        rng = self.rng
        if model.indexes and rng.random() < 0.35:
            name = rng.choice(sorted(model.indexes))
            del model.indexes[name]
            return Stmt(f"DROP INDEX {name}", kind="ddl")
        cname, _ctype = rng.choice(model.cols)
        name = f"i{self._n_indexes}"
        self._n_indexes += 1
        model.indexes[name] = cname
        return Stmt(
            f"CREATE INDEX {name} ON {model.name} ({cname})", kind="ddl"
        )

    def _txn_control(self) -> Stmt:
        if not self.in_txn:
            return self._txn_stmt("BEGIN")
        if self.rng.random() < 0.25:
            return self._txn_stmt("ROLLBACK")
        return self._txn_stmt("COMMIT")

    def _txn_stmt(self, word: str) -> Stmt:
        if word == "BEGIN":
            self.in_txn = True
            # Deep-copy the model so ROLLBACK can restore it; ``fresh``
            # stays monotonic via max() on restore.
            self._snapshot = {
                n: _TableModel(
                    m.name, m.cols, set(m.live), m.fresh, dict(m.indexes)
                )
                for n, m in self.tables.items()
            }
        elif word == "COMMIT":
            self.in_txn = False
            self._snapshot = None
        else:  # ROLLBACK
            self.in_txn = False
            assert self._snapshot is not None
            restored = self._snapshot
            for name, model in restored.items():
                if name in self.tables:
                    model.fresh = max(model.fresh, self.tables[name].fresh)
            self.tables = restored
            self._snapshot = None
        return Stmt(word, kind="txn")

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------

    def _insert(self, model: _TableModel) -> Stmt:
        rng = self.rng
        n_rows = rng.choice((1, 1, 1, 2, 3))
        rows_sql, params = [], []
        for _ in range(n_rows):
            if n_rows == 1 and rng.random() < 0.15:
                key = None  # auto-rowid path: both engines assign max+1
            else:
                key = model.take_fresh()
            values_sql = [self._render(key, params, literal_ok=True)]
            for _cname, ctype in model.cols[1:]:
                values_sql.append(self._render(self._value(ctype), params))
            rows_sql.append("(" + ", ".join(values_sql) + ")")
            if key is not None:
                model.live.add(key)
            else:
                # The assigned rowid is max(live)+1 < fresh; bump fresh
                # past it so the next fresh key cannot collide.
                model.fresh += 1
        return Stmt(
            f"INSERT INTO {model.name} VALUES " + ", ".join(rows_sql),
            tuple(params),
            kind="write",
        )

    def _select(self, model: _TableModel) -> Stmt:
        rng = self.rng
        names = [c for c, _t in model.cols]
        params: list = []
        roll = rng.random()
        if roll < 0.22:
            func, col = self._aggregate(model)
            where = self._where(model, params) if rng.random() < 0.6 else None
            sql = f"SELECT {func}({col}) FROM {model.name}" + _where_sql(where)
            return Stmt(sql, tuple(params), kind="select")
        if roll < 0.42:
            # ORDER BY pk (+ optional LIMIT): a unique total order.
            where = self._where(model, params) if rng.random() < 0.6 else None
            desc = rng.random() < 0.4
            limit = f" LIMIT {rng.randint(0, 6)}" if rng.random() < 0.5 else ""
            sql = (
                f"SELECT * FROM {model.name}"
                + _where_sql(where)
                + f" ORDER BY k{' DESC' if desc else ''}"
                + limit
            )
            return Stmt(sql, tuple(params), kind="select", ordered=True)
        if roll < 0.58:
            # ORDER BY a data column: partial order — multiset compare
            # plus a sortedness check on the projected order column.
            cname, _ctype = rng.choice(model.cols[1:])
            desc = rng.random() < 0.4
            where = self._where(model, params) if rng.random() < 0.5 else None
            sql = (
                f"SELECT * FROM {model.name}"
                + _where_sql(where)
                + f" ORDER BY {cname}{' DESC' if desc else ''}"
            )
            return Stmt(
                sql,
                tuple(params),
                kind="select",
                order_index=names.index(cname),
                order_desc=desc,
            )
        # plain scan, optionally projected and filtered
        where = self._where(model, params) if rng.random() < 0.7 else None
        if rng.random() < 0.35:
            proj = sorted(rng.sample(names, rng.randint(1, len(names))))
            cols = ", ".join(proj)
        else:
            cols = "*"
        sql = f"SELECT {cols} FROM {model.name}" + _where_sql(where)
        return Stmt(sql, tuple(params), kind="select")

    def _aggregate(self, model: _TableModel) -> tuple[str, str]:
        rng = self.rng
        numeric = [c for c, t in model.cols if t in ("INTEGER", "REAL")]
        comparable = [c for c, t in model.cols if t != "BLOB"]
        func = rng.choice(("COUNT", "COUNT", "SUM", "AVG", "MIN", "MAX"))
        if func == "COUNT":
            return func, rng.choice(["*"] + comparable)
        if func in ("SUM", "AVG"):
            return func, rng.choice(numeric)  # pk guarantees non-empty
        return func, rng.choice(comparable)

    def _update(self, model: _TableModel) -> Stmt:
        rng = self.rng
        if rng.random() < 0.08 and model.live:
            # pk move: exactly one live key to a fresh one (anything more
            # would risk mid-statement duplicates, which diverge by design).
            old = rng.choice(sorted(model.live))
            new = model.take_fresh()
            model.live.discard(old)
            model.live.add(new)
            return Stmt(
                f"UPDATE {model.name} SET k = {new} WHERE k = {old}",
                kind="write",
            )
        params: list = []
        sets = []
        data_cols = list(model.cols[1:])
        for cname, ctype in rng.sample(data_cols, rng.randint(1, len(data_cols))):
            if ctype == "INTEGER" and rng.random() < 0.3:
                sets.append(f"{cname} = {cname} + {rng.randint(-5, 5)}")
            else:
                sets.append(
                    f"{cname} = " + self._render(self._value(ctype), params)
                )
        where = self._where(model, params)
        sql = (
            f"UPDATE {model.name} SET " + ", ".join(sets) + _where_sql(where)
        )
        return Stmt(sql, tuple(params), kind="write")

    def _delete(self, model: _TableModel) -> Stmt:
        rng = self.rng
        if rng.random() < 0.5 and model.live:
            key = rng.choice(sorted(model.live))
            model.live.discard(key)
            where = f"k = {key}"
        else:
            lo = rng.randint(-5, _FRESH_BASE + 40)
            hi = lo + rng.randint(0, 8)
            where = f"k BETWEEN {lo} AND {hi}"
            model.live -= set(range(lo, hi + 1))
        return Stmt(f"DELETE FROM {model.name} WHERE {where}", kind="write")

    # ------------------------------------------------------------------
    # predicates and values
    # ------------------------------------------------------------------

    def _where(self, model: _TableModel, params: list, depth: int = 0) -> str:
        """A random predicate; leaves are column comparisons, interior
        nodes AND/OR/NOT, bounded to depth 2.  Parameter values are
        appended to ``params`` in left-to-right SQL order."""
        rng = self.rng
        if depth < 2 and rng.random() < 0.35:
            op = rng.choice(("AND", "OR"))
            left = self._where(model, params, depth + 1)
            right = self._where(model, params, depth + 1)
            combined = f"({left}) {op} ({right})"
            if rng.random() < 0.15:
                combined = f"NOT ({combined})"
            return combined
        return self._leaf_predicate(model, params)

    def _leaf_predicate(self, model: _TableModel, params: list) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.4:
            # pk comparison — exercises the range planner
            key = self._interesting_key(model)
            op = rng.choice(("=", "!=", "<", ">", "<=", ">="))
            if rng.random() < 0.2:
                return f"k BETWEEN {key} AND {key + rng.randint(0, 30)}"
            if rng.random() < 0.25:
                # arithmetic on the pk: division exercises truncation
                # toward zero and the divide-by-zero-is-NULL rule
                divisor = rng.choice((2, 3, 4, 0))
                return f"k / {divisor} {op} {key}"
            if rng.random() < 0.25:
                params.append(key)
                return f"k {op} ?"
            return f"k {op} {key}"
        # Bias toward indexed columns so the secondary-index access path
        # (and its superset-of-candidates discipline) gets real coverage.
        indexed = sorted(set(model.indexes.values()))
        if indexed and rng.random() < 0.5:
            cname = rng.choice(indexed)
            ctype = dict(model.cols)[cname]
        else:
            cname, ctype = rng.choice(model.cols)
        if roll < 0.5:
            return f"{cname} IS {'NOT ' if rng.random() < 0.5 else ''}NULL"
        if roll < 0.56:
            # rare cross-storage-class comparison (safe shapes only)
            if ctype == "TEXT":
                return (
                    f"{cname} {rng.choice(('<', '>', '=', '!='))} "
                    f"{rng.randint(-20, 20)}"
                )
            if ctype == "INTEGER":
                return (
                    f"{cname} {rng.choice(('<', '>', '=', '!='))} "
                    f"'{rng.choice(_WORDS)}'"
                )
        if roll < 0.60:
            # comparison against NULL: three-valued logic, never true
            return f"{cname} {rng.choice(('=', '!=', '<'))} NULL"
        value = self._value(ctype, allow_null=False, allow_overflow=False)
        op = rng.choice(
            ("=", "!=") if ctype == "BLOB" else ("=", "!=", "<", ">", "<=", ">=")
        )
        return f"{cname} {op} " + self._render(value, params)

    def _interesting_key(self, model: _TableModel) -> int:
        rng = self.rng
        if model.live and rng.random() < 0.6:
            return rng.choice(sorted(model.live))
        return rng.choice(
            (rng.randint(-3, 10), rng.randint(_FRESH_BASE - 2, model.fresh + 2))
        )

    def _value(self, ctype: str, allow_null: bool = True, allow_overflow: bool = True):
        rng = self.rng
        if allow_null and rng.random() < 0.12:
            return None
        if ctype == "INTEGER":
            return rng.choice(
                (rng.randint(-9, 9), rng.randint(-(10**9), 10**9))
            )
        if ctype == "REAL":
            return rng.randint(-4000, 4000) / 4.0
        if ctype == "TEXT":
            if allow_overflow and rng.random() < 0.06:
                word = rng.choice(_WORDS)
                reps = rng.randint(1200, 3000) // len(word) + 1
                return (word * reps)[: rng.randint(1200, 3000)]
            word = rng.choice(_WORDS)
            if rng.random() < 0.1:
                word = word[:3] + "'" + word[3:]
            return word
        # BLOB
        if allow_overflow and rng.random() < 0.06:
            return bytes(rng.getrandbits(8) for _ in range(rng.randint(1200, 2500)))
        return bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 16)))

    def _render(self, value, params: list, literal_ok: bool = False) -> str:
        """Render a value as a literal or a ``?`` parameter.  BLOBs and
        overflow-sized text always go via parameters."""
        must_param = isinstance(value, bytes) or (
            isinstance(value, str) and len(value) > 100
        )
        if must_param or (not literal_ok and self.rng.random() < 0.3):
            params.append(value)
            return "?"
        return _literal(value)

    # ------------------------------------------------------------------
    # deliberate errors (compared by error class)
    # ------------------------------------------------------------------

    def _deliberate_error(self) -> Stmt:
        rng = self.rng
        choice = rng.randrange(9)
        if choice == 7:
            # CREATE INDEX on a missing table, or a duplicate index name
            if rng.random() < 0.5 and any(
                m.indexes for m in self.tables.values()
            ):
                name = rng.choice(
                    sorted(n for n, m in self.tables.items() if m.indexes)
                )
                model = self.tables[name]
                dup = rng.choice(sorted(model.indexes))
                return Stmt(
                    f"CREATE INDEX {dup} ON {name} (k)", kind="ddl"
                )
            return Stmt(
                "CREATE INDEX ix_err ON no_such_table (k)", kind="ddl"
            )
        if choice == 8:
            return Stmt("DROP INDEX no_such_index", kind="ddl")
        if choice == 0:
            return Stmt("SELECT * FROM no_such_table", kind="select")
        if choice == 1:
            name = rng.choice(sorted(self.tables))
            return Stmt(
                f"CREATE TABLE {name} (k INTEGER PRIMARY KEY)", kind="ddl"
            )
        if choice == 2 and any(m.live for m in self.tables.values()):
            # single-row duplicate insert: same constraint error both
            # sides, no partial-statement state either side
            name = rng.choice(sorted(n for n, m in self.tables.items() if m.live))
            model = self.tables[name]
            key = rng.choice(sorted(model.live))
            values = [str(key)] + [
                _literal(self._value(t, allow_overflow=False))
                for _c, t in model.cols[1:]
            ]
            return Stmt(
                f"INSERT INTO {name} VALUES ({', '.join(values)})", kind="write"
            )
        if choice == 3:
            # txn-state error: engines reject and stay in their current
            # state, so the model must not change either
            return Stmt("BEGIN" if self.in_txn else "COMMIT", kind="txn")
        if choice == 4:
            name = rng.choice(sorted(self.tables))
            return Stmt(f"SELECT no_such_col FROM {name}", kind="select")
        if choice == 5:
            return Stmt("SELEKT * FORM nothing", kind="select")
        # too-few parameters: prepare-time error in both engines
        name = rng.choice(sorted(self.tables))
        return Stmt(f"SELECT * FROM {name} WHERE k = ?", (), kind="select")


def _where_sql(where: str | None) -> str:
    return "" if where is None else " WHERE " + where


def _literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)
