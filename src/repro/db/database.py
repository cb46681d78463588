"""The Database: tables, transactions, WAL binding, recovery.

This is the SQLite-shaped surface over the engine: a serverless,
single-writer embedded database whose dirty pages go to a pluggable
write-ahead log at commit (Figure 1).  The Mobibench harness and all
examples talk to this class.

Lifecycle: constructing a :class:`Database` binds its WAL backend, which
opens (or creates) the database file and its own log files on the
system's filesystem and decides the page layout; it then runs WAL recovery
(installing committed log content into the page cache) and loads the table
catalog.  After a simulated power failure, call ``system.reboot()`` and
construct a new Database over the same system — that is the crash-recovery
path the tests exercise.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

from repro.db.btree import BTree
from repro.db.index import IndexTree, index_key, iter_entries
from repro.db.pager import Pager
from repro.db.record import decode_row, encode_row, encode_value
from repro.db.sql import ast_nodes as ast
from repro.db.sql.executor import Executor
from repro.db.sql.parser import parse
from repro.errors import (
    BusyError,
    DatabaseError,
    SqlError,
    TableError,
    TransactionError,
)
from repro.system import System


@dataclass(frozen=True)
class TableInfo:
    """Catalog entry for one table."""

    table_id: int
    name: str
    root: int
    columns: tuple[ast.ColumnDef, ...]
    key_index: int | None  # None: hidden auto rowid


@dataclass(frozen=True)
class IndexInfo:
    """Catalog entry for one secondary index."""

    index_id: int
    name: str
    root: int
    table: str
    column: str


class Database:
    """A serverless embedded database bound to one WAL backend."""

    def __init__(
        self,
        system: System,
        wal=None,
        name: str = "test.db",
        auto_checkpoint: bool = True,
    ) -> None:
        from repro.wal.nvwal import NvwalBackend

        self.system = system
        self.name = name
        self.auto_checkpoint = auto_checkpoint
        # Charged once per statement / commit: resolve the lookups once.
        self._compute = system.cpu.compute
        self._statement_ns = system.config.db_costs.statement_ns
        self._txn_base_ns = system.config.db_costs.txn_base_ns
        self.wal = wal if wal is not None else NvwalBackend(system)
        self.wal.bind(system.fs, name)
        self.pager = Pager(system, self.wal.db_file, self.wal.early_split)
        for pno, image in self.wal.recover().items():
            self.pager.install_page(pno, image)
        self.executor = Executor(self)
        self._in_explicit_txn = False
        self._txn_owner: object = None
        self._tables_cache: dict[str, TableInfo] = {}
        self._indexes_cache: dict[str, IndexInfo] = {}
        #: table name -> its indexes sorted by name, same cache generation.
        self._indexes_on_cache: dict[str, list[IndexInfo]] = {}
        self._tables_cookie = -1
        #: Counts catalog (re)loads.  Everything derived from a TableInfo
        #: or IndexInfo (the executor's plans) is stale once this moves.
        #: Not the cookie itself: a rolled-back DDL followed by a different
        #: one lands on the same cookie value, but reloads in between.
        self.catalog_generation = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def execute(self, sql: str, params: tuple = ()) -> list[tuple] | int:
        """Run one SQL statement.

        Returns rows for SELECT, an affected-row count for writes.
        Outside an explicit transaction, writes autocommit.
        """
        self._compute(self._statement_ns)
        stmt, lifted = parse(sql)
        if isinstance(stmt, ast.Begin):
            self.begin()
            return 0
        if isinstance(stmt, ast.Commit):
            self.commit()
            return 0
        if isinstance(stmt, ast.Rollback):
            self.rollback()
            return 0
        if isinstance(stmt, ast.Checkpoint):
            return self.checkpoint()
        if self._in_explicit_txn:
            return self.executor.run(stmt, params, lifted)
        # Autocommit: the statement is a transaction of its own.
        pager = self.pager
        pager.begin()
        self._in_explicit_txn = True
        try:
            result = self.executor.run(stmt, params, lifted)
            self._commit_pager_txn()
        except BaseException:
            if pager.in_transaction:
                pager.rollback()
            self._in_explicit_txn = False
            raise
        self._in_explicit_txn = False
        if self.auto_checkpoint:
            self.wal.maybe_checkpoint()
        return result

    def query(self, sql: str, params: tuple = ()) -> list[tuple]:
        """Run a SELECT and return its rows."""
        result = self.execute(sql, params)
        if not isinstance(result, list):
            raise SqlError("query() requires a SELECT statement")
        return result

    def executemany(self, sql: str, param_rows) -> int:
        """Run one statement for each parameter tuple, in a single
        transaction (unless one is already open).  Returns the summed
        affected-row count."""
        total = 0
        if self._in_explicit_txn:
            for params in param_rows:
                result = self.execute(sql, tuple(params))
                total += result if isinstance(result, int) else 0
            return total
        with self.transaction():
            for params in param_rows:
                result = self.execute(sql, tuple(params))
                total += result if isinstance(result, int) else 0
        return total

    @contextlib.contextmanager
    def snapshot_view(self):
        """``with db.snapshot_view():`` — reads observe the last-committed
        state, hiding any in-flight writer's uncommitted page changes.

        This is the multi-reader half of SQLite's WAL concurrency story:
        readers never block on the single writer, they simply see the
        database as of the last commit.  Writes are forbidden while the
        view is active; the view must be exited before the writer resumes
        (the cooperative service layer guarantees this by completing each
        snapshot read within one scheduler step).
        """
        self.pager.push_snapshot()
        try:
            yield self
        finally:
            self.pager.pop_snapshot()

    def snapshot_query(self, sql: str, params: tuple = ()) -> list[tuple]:
        """Run one SELECT against the last-committed snapshot."""
        self._compute(self._statement_ns)
        stmt, lifted = parse(sql)
        if not isinstance(stmt, ast.Select):
            raise SqlError("snapshot_query() requires a SELECT statement")
        with self.snapshot_view():
            return self.executor.run(stmt, params, lifted)

    @contextlib.contextmanager
    def transaction(self, owner: object = None):
        """``with db.transaction():`` — commit on success, roll back on
        exception (including simulated power failures)."""
        self.begin(owner=owner)
        try:
            yield self
        except BaseException:
            if self.pager.in_transaction:
                self.rollback()
            raise
        self.commit()

    # ------------------------------------------------------------------
    # transaction control
    # ------------------------------------------------------------------

    def begin(self, owner: object = None) -> None:
        """Open a write transaction (SQLite allows exactly one writer).

        ``owner`` identifies the requesting session for multi-session
        fronts.  A reentrant BEGIN by the *same* owner (or any BEGIN when
        no owner is tracked) is a clean :class:`TransactionError` that
        leaves the open transaction untouched.  A BEGIN by a *different*
        owner raises :class:`BusyError` — the ``SQLITE_BUSY`` path; the
        caller decides whether and when to retry.
        """
        if self._in_explicit_txn:
            if owner is not None and owner != self._txn_owner:
                raise BusyError(f"writer slot held by {self._txn_owner!r}")
            raise TransactionError("transaction already in progress")
        self.pager.begin()
        self._in_explicit_txn = True
        self._txn_owner = owner

    def commit(self, owner: object = None) -> None:
        """Commit: hand the dirty pages to the WAL, then maybe checkpoint."""
        if not self._in_explicit_txn:
            raise TransactionError("no transaction in progress")
        self._check_owner(owner)
        self._commit_pager_txn()
        self._in_explicit_txn = False
        self._txn_owner = None
        # The auto-checkpoint runs only after the session's transaction
        # state is clean: a transient IoError while flushing the db file
        # must surface as a failed *checkpoint* (retryable later), not
        # wedge the session in a half-committed transaction.
        if self.auto_checkpoint:
            self.wal.maybe_checkpoint()

    def group_commit(self, owner: object = None) -> None:
        """Commit into the WAL's shared group-commit epoch.

        Like :meth:`commit`, but the transaction's frames join the open
        epoch (opening one if needed) instead of being made individually
        durable — the writer slot is released immediately, durability
        arrives when :meth:`flush_group` closes the epoch.  The caller
        (normally the service layer's commit coalescer) must not
        acknowledge the transaction before then.
        """
        if not self._in_explicit_txn:
            raise TransactionError("no transaction in progress")
        self._check_owner(owner)
        self._compute(self._txn_base_ns)
        if not self.wal.group_open:
            self.wal.group_begin()
        self.wal.group_append(
            self.pager.dirty_pages(), pre_images=self.pager.pre_images()
        )
        self.pager.commit_finish()
        self._in_explicit_txn = False
        self._txn_owner = None
        # No auto-checkpoint here: checkpointing is illegal while the
        # epoch is open; flush_group runs the policy instead.

    def flush_group(self) -> int:
        """Close the open group-commit epoch (no-op without one).

        Returns the number of transactions made durable.  Runs the
        auto-checkpoint policy afterwards, now that the log is epoch-free.
        """
        if not self.wal.group_open:
            return 0
        txns = self.wal.group_close()
        if self.auto_checkpoint:
            self.wal.maybe_checkpoint()
        return txns

    def rollback(self, owner: object = None) -> None:
        """Abort the open transaction, restoring pre-images."""
        if not self._in_explicit_txn:
            raise TransactionError("no transaction in progress")
        self._check_owner(owner)
        self.pager.rollback()
        self._in_explicit_txn = False
        self._txn_owner = None

    def _check_owner(self, owner: object) -> None:
        if owner is not None and owner != self._txn_owner:
            raise TransactionError(
                f"transaction owned by {self._txn_owner!r}, not {owner!r}"
            )

    def checkpoint(self) -> int:
        """Force a WAL checkpoint; returns pages written to the db file."""
        if self._in_explicit_txn:
            raise TransactionError("cannot checkpoint inside a transaction")
        return self.wal.checkpoint()

    def close(self) -> None:
        """Orderly shutdown: SQLite checkpoints when the last session
        closes, so all state ends up in the database file and the log is
        empty."""
        if self._in_explicit_txn:
            raise TransactionError("cannot close inside a transaction")
        self.flush_group()  # an open epoch must land before the checkpoint
        self.wal.checkpoint()

    def _commit_pager_txn(self) -> None:
        """Charge the commit and hand the dirty pages to the WAL.

        A transaction that dirtied nothing makes no WAL call: every
        backend logs nothing for it.  Except while a group-commit epoch is
        open, where the call stays, for NVWAL refuses a standalone
        transaction then, whatever it holds."""
        self._compute(self._txn_base_ns)
        pager = self.pager
        dirty = pager.dirty_pages()
        if dirty or self.wal.group_open:
            self.wal.write_transaction(dirty, pre_images=pager.pre_images())
        pager.commit_finish()

    # ------------------------------------------------------------------
    # catalog
    # ------------------------------------------------------------------

    def _catalog_tree(self) -> BTree:
        root = self.pager.catalog_root
        if root == 0:
            tree = BTree.create(self.pager)
            self.pager.catalog_root = tree.root
            return tree
        return BTree(self.pager, root)

    def _load_catalog(self) -> tuple[dict[str, TableInfo], dict[str, IndexInfo]]:
        """Decode the catalog into table and index entries.

        Both kinds share the catalog tree; a row's field count
        discriminates them (4 fields = table, 5 = index)."""
        cookie = self.pager.schema_cookie
        if cookie == self._tables_cookie:
            return self._tables_cache, self._indexes_cache
        tables: dict[str, TableInfo] = {}
        indexes: dict[str, IndexInfo] = {}
        if self.pager.catalog_root != 0:
            catalog = BTree(self.pager, self.pager.catalog_root)
            for entry_id, payload in catalog.scan():
                try:
                    fields = decode_row(payload)
                    if len(fields) == 4:
                        name, root, columns_spec, key_index = fields
                        tables[name] = TableInfo(
                            entry_id, name, root,
                            _decode_columns(columns_spec),
                            key_index if key_index >= 0 else None,
                        )
                    elif len(fields) == 5:
                        name, root, table_name, column, _marker = fields
                        indexes[name] = IndexInfo(
                            entry_id, name, root, table_name, column
                        )
                    else:
                        raise DatabaseError(f"{len(fields)} catalog fields")
                except Exception as exc:
                    raise DatabaseError(
                        f"corrupt catalog entry {entry_id}"
                    ) from exc
        self._tables_cache = tables
        self._indexes_cache = indexes
        self._indexes_on_cache = {name: [] for name in tables}
        for _name, info in sorted(indexes.items()):
            self._indexes_on_cache.setdefault(info.table, []).append(info)
        self._tables_cookie = cookie
        self.catalog_generation += 1
        return tables, indexes

    def _load_tables(self) -> dict[str, TableInfo]:
        return self._load_catalog()[0]

    def table(self, name: str) -> TableInfo:
        """Catalog entry for ``name``; raises :class:`TableError`."""
        tables = self._load_tables()
        if name not in tables:
            raise TableError(f"no such table: {name}")
        return tables[name]

    def table_exists(self, name: str) -> bool:
        """Whether ``name`` is in the catalog."""
        return name in self._load_tables()

    def table_names(self) -> list[str]:
        """All table names, sorted."""
        return sorted(self._load_tables())

    def table_tree(self, info: TableInfo) -> BTree:
        """The B-tree holding a table's rows."""
        return BTree(self.pager, info.root)

    def create_table(self, name: str, columns: tuple[ast.ColumnDef, ...]) -> None:
        """Create a table (must run inside a transaction)."""
        if self.table_exists(name) or self.index_exists(name):
            raise TableError(f"table {name} already exists")
        primaries = [i for i, c in enumerate(columns) if c.primary_key]
        if len(primaries) > 1:
            raise TableError("only one PRIMARY KEY column is supported")
        key_index = primaries[0] if primaries else -1
        if key_index >= 0 and columns[key_index].type != "INTEGER":
            raise TableError("PRIMARY KEY column must be INTEGER")
        catalog = self._catalog_tree()
        table_id = self.pager.schema_cookie + 1
        self.pager.schema_cookie = table_id
        tree = BTree.create(self.pager)
        payload = encode_row(
            (name, tree.root, _encode_columns(columns), key_index)
        )
        catalog.insert(table_id, payload)

    def drop_table(self, name: str) -> None:
        """Drop a table and free its pages (overflow chains included).
        Its secondary indexes are dropped with it, as in SQLite."""
        info = self.table(name)
        catalog = self._catalog_tree()
        for index in self.indexes_on(name):
            IndexTree(self.pager, index.root).free_all()
            catalog.delete(index.index_id)
        self.table_tree(info).free_all()
        catalog.delete(info.table_id)
        self.pager.schema_cookie = self.pager.schema_cookie + 1

    # ------------------------------------------------------------------
    # secondary indexes
    # ------------------------------------------------------------------

    def index(self, name: str) -> IndexInfo:
        """Catalog entry for index ``name``; raises :class:`TableError`."""
        indexes = self._load_catalog()[1]
        if name not in indexes:
            raise TableError(f"no such index: {name}")
        return indexes[name]

    def index_exists(self, name: str) -> bool:
        """Whether index ``name`` is in the catalog."""
        return name in self._load_catalog()[1]

    def index_names(self) -> list[str]:
        """All index names, sorted."""
        return sorted(self._load_catalog()[1])

    def indexes_on(self, table_name: str) -> list[IndexInfo]:
        """The indexes maintained on ``table_name``, sorted by name (a
        deterministic order so every WAL backend mutates index pages in
        the same sequence)."""
        self._load_catalog()
        return list(self._indexes_on_cache.get(table_name, ()))

    def table_and_indexes(
        self, name: str
    ) -> tuple[TableInfo, list[IndexInfo]]:
        """``(table(name), indexes_on(name))`` off a single catalog read.

        Statement execution uses this so a write costs exactly one
        schema-cookie page visit whether or not any index exists."""
        tables, _indexes = self._load_catalog()
        if name not in tables:
            raise TableError(f"no such table: {name}")
        return tables[name], self._indexes_on_cache[name]

    def index_tree(self, info: IndexInfo) -> IndexTree:
        """The B-tree holding an index's entries."""
        return IndexTree(self.pager, info.root)

    def create_index(self, name: str, table_name: str, column: str) -> None:
        """Create a secondary index and backfill it from the table."""
        if self.index_exists(name) or self.table_exists(name):
            raise TableError(f"index {name} already exists")
        info = self.table(table_name)  # TableError when the table is missing
        names = [c.name for c in info.columns]
        if column not in names:
            raise SqlError(f"no such column: {column}")
        col = names.index(column)
        catalog = self._catalog_tree()
        entry_id = self.pager.schema_cookie + 1
        self.pager.schema_cookie = entry_id
        itree = IndexTree.create(self.pager)
        for rowid, payload in self.table_tree(info).scan():
            itree.add(decode_row(payload)[col], rowid)
        catalog.insert(
            entry_id, encode_row((name, itree.root, table_name, column, 1))
        )

    def drop_index(self, name: str) -> None:
        """Drop an index and free its pages (overflow chains included)."""
        info = self.index(name)
        IndexTree(self.pager, info.root).free_all()
        catalog = self._catalog_tree()
        catalog.delete(info.index_id)
        self.pager.schema_cookie = self.pager.schema_cookie + 1

    def next_rowid(self, info: TableInfo) -> int:
        """SQLite-style auto rowid: one past the largest existing key."""
        max_key = self.table_tree(info).max_key()
        return 1 if max_key is None else max_key + 1

    # ------------------------------------------------------------------
    # introspection used by tests and benchmarks
    # ------------------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        """Whether an explicit transaction is open."""
        return self._in_explicit_txn

    def row_count(self, name: str) -> int:
        """Number of rows in table ``name``."""
        return self.table_tree(self.table(name)).count()

    def dump_table(self, name: str) -> list[tuple]:
        """All rows of ``name`` in key order (stable across backends;
        used to assert scheme equivalence)."""
        info = self.table(name)
        return [decode_row(payload) for _k, payload in self.table_tree(info).scan()]

    def dump_all(self) -> dict[str, list[tuple]]:
        """Decoded rows of every table, keyed by table name."""
        return {name: self.dump_table(name) for name in self.table_names()}

    def dump_all_raw(self) -> dict[str, list[tuple[int, bytes]]]:
        """Raw ``(key, payload-bytes)`` pairs of every table.

        Page layouts legitimately differ across WAL schemes (early-split
        pagers pack fewer cells per page), but row *encodings* must not:
        this is the bit-for-bit surface the scheme-equivalence oracle
        compares."""
        out: dict[str, list[tuple[int, bytes]]] = {}
        for name in self.table_names():
            tree = self.table_tree(self.table(name))
            out[name] = [(k, bytes(p)) for k, p in tree.scan()]
        for name in self.index_names():
            tree = self.index_tree(self.index(name)).tree
            out[f"index:{name}"] = [(k, bytes(p)) for k, p in tree.scan()]
        return out

    def schema_signature(self) -> list[tuple]:
        """Logical schema, excluding physical details (root page numbers
        may differ across backends after identical histories)."""
        out = []
        for name in self.table_names():
            info = self.table(name)
            out.append(
                (
                    name,
                    info.key_index,
                    tuple(
                        (c.name, c.type, c.primary_key) for c in info.columns
                    ),
                )
            )
        for name in self.index_names():
            info = self.index(name)
            out.append(("index", name, info.table, info.column))
        return out

    def check_integrity(self) -> None:
        """Structural self-check: B-tree invariants for the catalog and
        every table, plus page accounting — the header page, every tree
        page (overflow chains included), and the freelist must partition
        ``1..n_pages`` exactly.  A page claimed twice is corruption; a
        page claimed never is a leak.  Raises :class:`DatabaseError`."""
        from repro.errors import PageError

        claims: dict[int, str] = {1: "header"}

        def claim(pno: int, owner: str) -> None:
            if pno in claims:
                raise DatabaseError(
                    f"page {pno} claimed by both {claims[pno]} and {owner}"
                )
            claims[pno] = owner

        try:
            if self.pager.catalog_root != 0:
                catalog = self._catalog_tree()
                catalog.check_invariants()
                for pno in catalog.pages():
                    claim(pno, "catalog")
            for name in self.table_names():
                tree = self.table_tree(self.table(name))
                tree.check_invariants()
                for pno in tree.pages():
                    claim(pno, f"table {name}")
            for name in self.index_names():
                itree = self.index_tree(self.index(name))
                itree.check_invariants()
                for pno in itree.pages():
                    claim(pno, f"index {name}")
                self._check_index_agreement(name)
            for pno in self.pager.free_pages():
                claim(pno, "freelist")
        except PageError as exc:
            raise DatabaseError(f"integrity check failed: {exc}") from exc
        missing = set(range(1, self.pager.n_pages + 1)) - set(claims)
        if missing:
            raise DatabaseError(f"leaked pages (unclaimed): {sorted(missing)}")

    def _check_index_agreement(self, name: str) -> None:
        """A secondary index must agree row-for-row with a full scan of
        its table: no phantom entries, no missing entries, every entry
        filed under the value's own monotone key."""
        info = self.index(name)
        table = self.table(info.table)
        col = [c.name for c in table.columns].index(info.column)
        from_table = sorted(
            (index_key(values[col]), encode_value(values[col]), rowid)
            for rowid, values in (
                (k, decode_row(p)) for k, p in self.table_tree(table).scan()
            )
        )
        itree = self.index_tree(info)
        from_index = []
        for key, payload in itree.tree.scan():
            for value, rowid in iter_entries(payload):
                from_index.append((key, encode_value(value), rowid))
        from_index.sort()
        if from_table != from_index:
            raise DatabaseError(
                f"index {name} disagrees with table {info.table}: "
                f"{len(from_index)} entries vs {len(from_table)} rows"
            )


def _encode_columns(columns: tuple[ast.ColumnDef, ...]) -> str:
    return ",".join(
        f"{c.name}:{c.type}:{1 if c.primary_key else 0}" for c in columns
    )


def _decode_columns(spec: str) -> tuple[ast.ColumnDef, ...]:
    out = []
    for part in spec.split(","):
        name, sql_type, primary = part.split(":")
        out.append(ast.ColumnDef(name, sql_type, primary == "1"))
    return tuple(out)
