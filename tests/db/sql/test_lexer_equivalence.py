"""The regex tokenizer against the character loop it replaced.

Same ``Token`` stream, or the same ``SqlError`` text and position, for
every input: SQL-shaped text, arbitrary Unicode, and each code point of
the Basic Multilingual Plane in the contexts where its class matters
(``str.isspace`` / ``isalpha`` / ``isalnum`` vs the regex's ``\\s`` / ``\\w``).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.db.sql.lexer import tokenize
from repro.errors import SqlError
from tests.db.sql.reference_lexer import tokenize as reference_tokenize

_FRAGMENTS = [
    "SELECT", "select", " FROM ", "key", "_x1", "WHERE", "'", "''", "'it''s'",
    "<", ">", "=", "!", "<=", ">=", "<>", "!=", "(", ")", ",", "*", "?", ";",
    "+", "-", "/", ".", "0", "12", "3.5", ".5", "1.", "1..2", " ", "\n", "\t",
    "\x1c", "\xa0", " ", "²", "٣", "ß", "é", "Ω", "名", "%", "$", '"', "\\",
]
sql_like = st.lists(st.sampled_from(_FRAGMENTS), max_size=12).map("".join)


def outcome(tokenizer, text):
    try:
        return [tuple(token) for token in tokenizer(text)]
    except SqlError as exc:
        return str(exc)


@settings(max_examples=1500, deadline=None)
@given(st.one_of(sql_like, st.text(max_size=30)))
@example("'a''")  # the '' is an escape, so the string never ends
@example("'a'''")
@example("x = 'unterminated")
@example("SELECT 1..2, .5, 1.x FROM t WHERE a<>b AND c!=d")
@example("a²b ²")  # ² is alphanumeric but no letter: fine inside, not at the start
@example("k = ٣")  # a Unicode digit is not a SQL digit
@example("#")
def test_same_tokens_or_same_error(text):
    assert outcome(tokenize, text) == outcome(reference_tokenize, text)


def test_every_bmp_code_point_in_every_context():
    for code in range(0x10000):
        if 0xD800 <= code <= 0xDFFF:
            continue
        ch = chr(code)
        for text in (ch, f"a{ch}1", f"1{ch}a", f"'{ch}"):
            assert outcome(tokenize, text) == outcome(reference_tokenize, text), (
                hex(code), text,
            )
