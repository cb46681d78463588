"""SQL abstract syntax tree."""

from __future__ import annotations

from dataclasses import dataclass, field


class Statement:
    """Base class for statements."""


class Expr:
    """Base class for expressions."""


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Literal(Expr):
    """A constant: int, float, string, bytes, or None."""

    value: object


@dataclass(frozen=True)
class Lifted(Expr):
    """A literal of the statement text, lifted out of the shared template:
    its value is ``lifted[slot]`` of the execution (see ``parser.parse``)."""

    slot: int


@dataclass(frozen=True)
class Column(Expr):
    """A column reference."""

    name: str


@dataclass(frozen=True)
class Param(Expr):
    """A positional ``?`` placeholder."""

    index: int


@dataclass(frozen=True)
class BinOp(Expr):
    """Binary operation: comparison, logic, or arithmetic."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnaryOp(Expr):
    """NOT or unary minus."""

    op: str
    operand: Expr


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnDef:
    """One column in CREATE TABLE."""

    name: str
    type: str
    primary_key: bool = False


@dataclass(frozen=True)
class CreateTable(Statement):
    """CREATE TABLE name (col type [PRIMARY KEY], ...)."""

    name: str
    columns: tuple[ColumnDef, ...]
    if_not_exists: bool = False


@dataclass(frozen=True)
class DropTable(Statement):
    """DROP TABLE name."""

    name: str


@dataclass(frozen=True)
class CreateIndex(Statement):
    """CREATE INDEX name ON table (column) — single-column secondary
    index (SQLite's multi-column form is out of scope)."""

    name: str
    table: str
    column: str
    if_not_exists: bool = False


@dataclass(frozen=True)
class DropIndex(Statement):
    """DROP INDEX [IF EXISTS] name."""

    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class Insert(Statement):
    """INSERT INTO name [(cols)] VALUES (...), (...)."""

    table: str
    columns: tuple[str, ...] | None
    rows: tuple[tuple[Expr, ...], ...]
    or_replace: bool = False


@dataclass(frozen=True)
class Select(Statement):
    """SELECT cols|agg(col) FROM name [WHERE] [ORDER BY] [LIMIT]."""

    columns: tuple[str, ...] | None  # None means *
    table: str
    where: Expr | None = None
    order_by: str | None = None
    descending: bool = False
    limit: int | None = None
    #: (function, column) for aggregate queries; column None = COUNT(*).
    aggregate: tuple[str, str | None] | None = None


@dataclass(frozen=True)
class Update(Statement):
    """UPDATE name SET col = expr, ... [WHERE]."""

    table: str
    assignments: tuple[tuple[str, Expr], ...]
    where: Expr | None = None


@dataclass(frozen=True)
class Delete(Statement):
    """DELETE FROM name [WHERE]."""

    table: str
    where: Expr | None = None


@dataclass(frozen=True)
class Begin(Statement):
    """BEGIN [TRANSACTION]."""


@dataclass(frozen=True)
class Commit(Statement):
    """COMMIT."""


@dataclass(frozen=True)
class Rollback(Statement):
    """ROLLBACK."""


@dataclass(frozen=True)
class Checkpoint(Statement):
    """CHECKPOINT — force a WAL checkpoint (PRAGMA wal_checkpoint)."""
