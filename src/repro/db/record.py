"""Row serialization.

Rows are tuples of typed values (NULL, INTEGER, REAL, TEXT, BLOB — the
SQLite type system minus its affinity quirks).  A row is encoded as a
one-byte column count followed by tag-length-value fields; the encoding is
self-describing so the B-tree does not need the schema to move cells
around.
"""

from __future__ import annotations

import struct

from repro.errors import DatabaseError, SqlError

Value = None | int | float | str | bytes

_TAG_NULL = 0
_TAG_INT = 1
_TAG_REAL = 2
_TAG_TEXT = 3
_TAG_BLOB = 4

_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U16 = struct.Struct("<H")
_read_i64 = _I64.unpack_from
_read_f64 = _F64.unpack_from
_read_u16 = _U16.unpack_from

#: SQL type names accepted by CREATE TABLE.
SQL_TYPES = ("INTEGER", "REAL", "TEXT", "BLOB")
#: Declared type -> the Python types a non-NULL value of it may have.
_PYTHON_TYPES = {
    "INTEGER": int,
    "REAL": (int, float),
    "TEXT": str,
    "BLOB": bytes,
}
_INT_MIN, _INT_MAX = -(2**63), 2**63 - 1


def encode_value(value: Value) -> bytes:
    """Encode one typed value as tag + payload."""
    if value is None:
        return bytes([_TAG_NULL])
    if isinstance(value, bool):
        # bools are ints in Python; store them as integers explicitly.
        return bytes([_TAG_INT]) + _I64.pack(int(value))
    if isinstance(value, int):
        return bytes([_TAG_INT]) + _I64.pack(value)
    if isinstance(value, float):
        return bytes([_TAG_REAL]) + _F64.pack(value)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        _check_length(len(raw))
        return bytes([_TAG_TEXT]) + _U16.pack(len(raw)) + raw
    if isinstance(value, bytes):
        _check_length(len(value))
        return bytes([_TAG_BLOB]) + _U16.pack(len(value)) + value
    raise DatabaseError(f"unsupported value type: {type(value).__name__}")


def _check_length(length: int) -> None:
    if length > 0xFFFF:
        raise DatabaseError(
            f"TEXT/BLOB values are limited to 65535 bytes (got {length})"
        )


def decode_value(buf: bytes, offset: int) -> tuple[Value, int]:
    """Decode one value at ``offset``; return (value, next_offset)."""
    tag = buf[offset]
    offset += 1
    if tag == _TAG_NULL:
        return None, offset
    if tag == _TAG_INT:
        return _I64.unpack_from(buf, offset)[0], offset + 8
    if tag == _TAG_REAL:
        return _F64.unpack_from(buf, offset)[0], offset + 8
    if tag in (_TAG_TEXT, _TAG_BLOB):
        length = _U16.unpack_from(buf, offset)[0]
        offset += 2
        raw = buf[offset : offset + length]
        offset += length
        if tag == _TAG_TEXT:
            return raw.decode("utf-8"), offset
        return bytes(raw), offset
    raise DatabaseError(f"corrupt record: unknown value tag {tag}")


def encode_row(values: tuple[Value, ...] | list[Value]) -> bytes:
    """Encode a full row."""
    if len(values) > 255:
        raise DatabaseError(f"too many columns: {len(values)}")
    parts = [bytes([len(values)])]
    parts.extend(encode_value(v) for v in values)
    return b"".join(parts)


def decode_row(buf: bytes) -> tuple[Value, ...]:
    """Decode a full row in one pass over ``buf`` (what
    :func:`decode_value` does per field, without a call per field)."""
    if not buf:
        raise DatabaseError("corrupt record: empty payload")
    values = []
    append = values.append
    offset = 1
    for _ in range(buf[0]):
        tag = buf[offset]
        offset += 1
        if tag == _TAG_INT:
            append(_read_i64(buf, offset)[0])
            offset += 8
        elif tag == _TAG_TEXT or tag == _TAG_BLOB:
            start = offset + 2
            offset = start + _read_u16(buf, offset)[0]
            raw = buf[start:offset]
            append(raw.decode("utf-8") if tag == _TAG_TEXT else bytes(raw))
        elif tag == _TAG_NULL:
            append(None)
        elif tag == _TAG_REAL:
            append(_read_f64(buf, offset)[0])
            offset += 8
        else:
            raise DatabaseError(f"corrupt record: unknown value tag {tag}")
    return tuple(values)


def validate_type(value: Value, sql_type: str, column: str) -> None:
    """Check ``value`` against a declared column type (NULL always passes).

    An integer must also fit the signed 64 bits :func:`encode_value` stores
    it in — whether it came from a literal, a parameter or arithmetic."""
    if value is None:
        return
    expected = _PYTHON_TYPES.get(sql_type)
    if expected is None:
        raise DatabaseError(f"unknown SQL type {sql_type!r}")
    if not isinstance(value, expected):
        raise DatabaseError(
            f"type mismatch for column {column!r}: expected {sql_type}, "
            f"got {type(value).__name__}"
        )
    if isinstance(value, int) and not _INT_MIN <= value <= _INT_MAX:
        raise SqlError(f"integer out of range for column {column!r}: {value}")
