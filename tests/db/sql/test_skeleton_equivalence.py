"""The skeleton lookup against the tokenizer path it short-cuts.

On a text-cache miss ``parser.parse`` first cuts the text at its
literals and looks the pieces up in ``parser._skeletons``; only a miss
there tokenizes.  For every text, both ways must give the same template
object and equal lifted values of equal types, or both raise
``SqlError``.  Texts are checked twice: once on cold maps, where they
register, and once more after the text LRU is emptied, where registered
skeletons are served without the tokenizer.  Literal variants of each
text (other values, same spelling around them) take the skeleton path
on their first parse.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.db.sql import parser
from repro.difftest.grammar import StreamGenerator
from repro.errors import SqlError
from tests.db.sql.reference_parse import parse as reference_parse


def clear_caches() -> None:
    parser.parse.cache_clear()
    parser._templates.clear()
    parser._skeletons.clear()


def outcome(parse, text: str):
    try:
        template, lifted = parse(text)
    except SqlError:
        return "error"
    return template, [(type(value), value) for value in lifted]


def check(text: str) -> None:
    got = outcome(parser.parse, text)
    want = outcome(reference_parse, text)
    if got == "error" or want == "error":
        assert got == want, text
        return
    assert got[0] is want[0], text
    assert got[1] == want[1], text


def check_twice(texts) -> None:
    clear_caches()
    for text in texts:
        check(text)
    parser.parse.cache_clear()
    for text in texts:
        check(text)


def variant(text: str) -> str:
    """``text`` with every digit run and every quoted run rewritten: the
    same spelling around other values (and digits inside identifiers
    rewritten too)."""
    text = re.sub(r"[0-9]+", lambda m: str(int(m.group()) * 7 + 3), text)
    return re.sub(r"'([^']*)'", lambda m: "'" + m.group(1)[::-1] + "z'", text)


#: Statement frames with literal slots, spelled in several ways: lower
#: case, extra whitespace, a literal glued to a keyword, an identifier
#: with a digit, a LIMIT count.
FRAMES = [
    "SELECT value FROM mobibench WHERE key = {}",
    "SELECT v FROM t1 WHERE k = {} AND s = {}",
    "select v from t where k between {} and {}",
    "SELECT v FROM t WHERE k BETWEEN{}AND {}",
    "SELECT v FROM t WHERE k = - {} OR k = -{}",
    "SELECT v FROM t WHERE k = a{}",
    "SELECT v FROM t WHERE k ={}",
    "SELECT v FROM t ORDER BY k LIMIT {}",
    "SELECT v FROM t WHERE k > {} ORDER BY k LIMIT {}",
    "INSERT INTO t VALUES ({}, {})",
    "INSERT INTO t VALUES ({}{})",
    "UPDATE t SET v = {} WHERE k = {}",
    "  DELETE\tFROM t  WHERE k <> {} ;",
    "SELECT v FROM t WHERE s = {} {}",
]

#: Literal spellings where the split and the lexer could part ways.
EDGE_LITERALS = [
    "0", "007", ".5", "5.", "5.25", "1.2.3", "1e5", "5abc", "a.5",
    "''", "'it''s'", "''''", "'a''b'", "'a' 'b'", "'x'''", "'open",
    "'5'", "'.5'", "NULL", "?",
]

literals = st.one_of(
    st.sampled_from(EDGE_LITERALS),
    st.integers(0, 10**12).map(str),
    st.floats(0, 1e6, allow_nan=False).map(repr),
    st.text(alphabet="ab' 1.", max_size=6).map(lambda s: "'" + s.replace("'", "''") + "'"),
)


@st.composite
def framed_texts(draw):
    frame = draw(st.sampled_from(FRAMES))
    slots = frame.count("{}")
    fill = st.lists(literals, min_size=slots, max_size=slots)
    return [frame.format(*draw(fill)) for _ in range(3)]


@settings(max_examples=300, deadline=None)
@given(framed_texts())
@example(["SELECT v FROM t WHERE k BETWEEN.5 AND 1", "SELECT v FROM t WHERE k BETWEEN5.0 AND 1"])
@example(["SELECT v FROM t WHERE k BETWEEN.0 AND 1", "SELECT v FROM t WHERE k BETWEEN.7 AND 1"])
@example(["SELECT v FROM t WHERE k = a.5", "SELECT v FROM t WHERE k = a5.0"])
@example(["SELECT v FROM t1 WHERE k = 1", "SELECT v FROM t1 WHERE k = 2"])
@example(["SELECT v FROM t ORDER BY k LIMIT 3", "SELECT v FROM t ORDER BY k LIMIT 4"])
@example(["SELECT v FROM t WHERE s = 'a' 'b'", "SELECT v FROM t WHERE s = 'a''b'"])
def test_skeleton_path_equals_the_tokenizer_path(texts):
    check_twice(texts + [variant(text) for text in texts])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_difftest_statements_and_their_variants(seed):
    texts = [stmt.sql for stmt in StreamGenerator(seed).stream(40)]
    check_twice(texts + [variant(text) for text in texts])


def test_a_registered_skeleton_skips_the_tokenizer(monkeypatch):
    clear_caches()
    template, lifted = parser.parse("SELECT value FROM mobibench WHERE key = 12")
    assert lifted == (12,)

    def no_tokenizer(text):
        raise AssertionError(f"tokenized {text!r}")

    monkeypatch.setattr(parser, "tokenize", no_tokenizer)
    for key in (13, 4096, 0):
        got = parser.parse(f"SELECT value FROM mobibench WHERE key = {key}")
        assert got[0] is template and got[1] == (key,)


@pytest.mark.parametrize("text", [
    "SELECT v FROM t WHERE k BETWEEN.5 AND 1",  # lexer: BETWEEN, .5; split: 5
    "SELECT v FROM t WHERE k BETWEEN.0 AND 1",  # equal values, not kinds
    "SELECT v FROM t WHERE k = 1 OR k = -.5 ORDER BY k LIMIT 3",  # LIMIT count
])
def test_a_text_the_lexer_and_the_split_disagree_on_never_registers(text):
    clear_caches()
    parser.parse(text)
    parser.parse.cache_clear()
    parser.parse(text)
    assert parser._skeletons == {}
    assert len(parser._templates) == 1
