"""SQL tokenizer."""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.errors import SqlError

# "KEY" and "COUNT" are deliberately *not* reserved (SQLite allows them as
# identifiers); the parser matches them contextually.
KEYWORDS = {
    "AND", "ASC", "BEGIN", "BETWEEN", "BY", "CHECKPOINT", "COMMIT", "CREATE",
    "DELETE", "DESC", "DROP", "EXISTS", "FROM", "IF", "INDEX", "INSERT",
    "INTO", "IS", "LIMIT", "NOT", "NULL", "ON", "OR", "ORDER", "PRIMARY",
    "REPLACE", "ROLLBACK", "SELECT", "SET", "TABLE", "TRANSACTION", "UPDATE",
    "VALUES", "WHERE",
}


class Token(NamedTuple):
    """One lexical token."""

    kind: str  # "keyword" | "ident" | "int" | "float" | "string" | "punct" | "eof"
    value: object
    pos: int


#: A string literal, quotes included.  Its closing quote may not be followed
#: by another quote, which makes the split into characters, '' escapes and
#: terminator unique: the regex can only find the decomposition a
#: left-to-right reader finds.
STRING = r"'[^']*(?:''[^']*)*'(?!')"

#: A number literal; a float iff it holds a ``.``.  Digits are ASCII only
#: (str.isdigit() also accepts superscripts and other Unicode digits that
#: int() rejects).
NUMBER = r"[0-9]+(?:\.[0-9]*)?|\.[0-9]+"

# One token per match: leading whitespace, then exactly one alternative, the
# last of which takes whatever character no token can start with — so the
# matches tile the text and finditer() never skips anything.  A word is
# ``\w+`` here and must start with a letter or underscore, checked in
# tokenize().  The parser's literal split is built from STRING and NUMBER
# too (``parser._LITERAL``).
_TOKEN = re.compile(
    rf"""\s*(?:
        (?P<string>{STRING})
      | (?P<number>{NUMBER})
      | (?P<word>\w+)
      | (?P<punct><=|>=|!=|<>|[(),*?=+\-/;<>])
      | (?P<eof>\Z)
      | (?P<bad>.)
    )""",
    re.VERBOSE | re.DOTALL,
)


def tokenize(text: str) -> list[Token]:
    """Tokenize a SQL statement; raises :class:`SqlError` on bad input."""
    tokens: list[Token] = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        value = match.group(kind)
        start = match.start(kind)
        if kind == "word":
            if not (value[0].isalpha() or value[0] == "_"):
                raise _unexpected(value[0], start)
            upper = value.upper()
            if upper in KEYWORDS:
                tokens.append(Token("keyword", upper, start))
            else:
                tokens.append(Token("ident", value, start))
        elif kind == "punct":
            tokens.append(Token("punct", value, start))
        elif kind == "number":
            if "." in value:
                tokens.append(Token("float", float(value), start))
            else:
                tokens.append(Token("int", int(value), start))
        elif kind == "string":
            # A string token's position is where the string *ends*.
            tokens.append(Token("string", unquote(value), match.end()))
        elif kind == "eof":
            tokens.append(Token("eof", None, start))
            return tokens
        elif value == "'":
            raise SqlError(f"unterminated string starting at position {start}")
        else:
            raise _unexpected(value, start)
    raise AssertionError("unreachable: the eof alternative matches at the end")


def unquote(literal: str) -> str:
    """The value of a :data:`STRING` literal: quotes off, ``''`` -> ``'``."""
    return literal[1:-1].replace("''", "'")


def _unexpected(ch: str, pos: int) -> SqlError:
    return SqlError(f"unexpected character {ch!r} at position {pos}")
