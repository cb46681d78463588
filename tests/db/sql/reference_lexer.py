"""Reference model: the character-loop tokenizer.

``tokenize`` exactly as ``repro.db.sql.lexer`` carried it up to commit
88ae32c, before it became one precompiled regex alternation.
``test_lexer_equivalence.py`` fuzzes the two for the same token stream —
or the same ``SqlError`` text and position — on every input.
"""

from __future__ import annotations

from repro.db.sql.lexer import KEYWORDS, Token
from repro.errors import SqlError

_PUNCT = {
    "(", ")", ",", "*", "?", "=", "+", "-", "/", ";",
    "<", ">", "<=", ">=", "!=", "<>",
}


def tokenize(text: str) -> list[Token]:
    """Tokenize a SQL statement; raises :class:`SqlError` on bad input."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "'":
            value, i = _read_string(text, i)
            tokens.append(Token("string", value, i))
            continue
        if _is_digit(ch) or (ch == "." and i + 1 < n and _is_digit(text[i + 1])):
            token, i = _read_number(text, i)
            tokens.append(token)
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token("keyword", upper, start))
            else:
                tokens.append(Token("ident", word, start))
            continue
        two = text[i : i + 2]
        if two in _PUNCT:
            tokens.append(Token("punct", two, i))
            i += 2
            continue
        if ch in _PUNCT:
            tokens.append(Token("punct", ch, i))
            i += 1
            continue
        raise SqlError(f"unexpected character {ch!r} at position {i}")
    tokens.append(Token("eof", None, n))
    return tokens


def _read_string(text: str, i: int) -> tuple[str, int]:
    """Read a '...'-quoted string with '' escaping."""
    start = i
    i += 1
    parts: list[str] = []
    while i < len(text):
        ch = text[i]
        if ch == "'":
            if i + 1 < len(text) and text[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return "".join(parts), i + 1
        parts.append(ch)
        i += 1
    raise SqlError(f"unterminated string starting at position {start}")


def _is_digit(ch: str) -> bool:
    """ASCII digits only — str.isdigit() also accepts superscripts and
    other Unicode digits that int() rejects."""
    return "0" <= ch <= "9"


def _read_number(text: str, i: int) -> tuple[Token, int]:
    start = i
    n = len(text)
    seen_dot = False
    while i < n and (_is_digit(text[i]) or (text[i] == "." and not seen_dot)):
        if text[i] == ".":
            seen_dot = True
        i += 1
    raw = text[start:i]
    if seen_dot:
        return Token("float", float(raw), start), i
    return Token("int", int(raw), start), i
