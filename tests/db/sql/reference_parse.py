"""Reference model: ``parse`` through the tokenizer alone.

The lookup ``repro.db.sql.parser.parse`` made on a text-cache miss before
it had a skeleton map: tokenize the text, reduce the tokens to a shape
key and the lifted values, and look the shape up in
``parser._templates``.  It reads that map and never writes it, so a test
can call it right after ``parser.parse`` and compare template objects by
identity.  ``test_skeleton_equivalence.py`` holds the two to the same
template, the same lifted values or the same ``SqlError``.
"""

from __future__ import annotations

from repro.db.sql import parser
from repro.db.sql.lexer import Token, tokenize

LIFTED_KINDS = ("int", "float", "string")


def shape(tokens: list[Token]) -> tuple[tuple, tuple]:
    """The shape key of a token list and its lifted literal values.

    A literal token enters the key by kind alone, except the integer
    after LIMIT: the parser takes that one into the AST, so its value is
    part of the shape.
    """
    key = []
    lifted = []
    after_limit = False
    for kind, value, _pos in tokens:
        if kind in LIFTED_KINDS and not after_limit:
            key.append(kind)
            lifted.append(value)
        else:
            key.append((kind, value))
        after_limit = kind == "keyword" and value == "LIMIT"
    return tuple(key), tuple(lifted)


def parse(text: str):
    """``(template, lifted)`` of ``text``: the template ``parser._templates``
    holds for its shape, or a freshly parsed one for a shape it lacks.
    Raises ``SqlError`` where the tokenizer or the parser does."""
    tokens = tokenize(text)
    key, lifted = shape(tokens)
    template = parser._templates.get(key)
    if template is None:
        template = parser._Parser(tokens, text).parse_statement()
    return template, lifted
