"""Recursive-descent SQL parser."""

from __future__ import annotations

import functools
import re

from repro.db.record import SQL_TYPES
from repro.db.sql import ast_nodes as ast
from repro.db.sql.lexer import NUMBER, STRING, Token, tokenize, unquote
from repro.errors import SqlError


@functools.lru_cache(maxsize=256)
def parse(text: str) -> tuple[ast.Statement, tuple]:
    """Parse one SQL statement into ``(template, lifted)``.

    Every int / float / string literal becomes an :class:`ast.Lifted`
    slot of the template, and its value goes into ``lifted``, in text
    order; executions bind ``lifted`` beside their ``?`` parameters.  So
    all texts that differ only in literal values share one template
    object, and with it one plan per database.

    Three lookups, cheapest first:

    1. This LRU, keyed by text, hands every execution of one text the
       same pair.
    2. On a miss, one ``re.split`` cuts the text at its literals
       (:data:`_LITERAL`).  The pieces between them and the literals'
       kinds are the text's *skeleton*; ``_skeletons`` maps a known one
       to its template, and the values come from the split pieces.
       Neither the tokenizer nor the shape key runs.
    3. Otherwise the text is tokenized and its shape (:func:`_shape`)
       looked up in ``_templates``; only a shape seen for the first time
       is parsed.

    A skeleton is registered only after step 3 parsed a text that has
    it, and only if the lexer's lifted literal tokens are exactly the
    split's literals: same kinds, values and positions.  Then every text
    of that skeleton tokenizes to the same shape, so the fast path and
    the tokenizer cannot disagree.  Texts that never register, and so
    always take step 3: a ``LIMIT n`` (its count is in the shape, not
    lifted); a ``.`` number right after a word character, which the
    lexer splits off there and the split does not (``a.5``,
    ``BETWEEN.5``); and any text that fails to parse (``5abc``,
    ``1e5``).  Digits inside a word (``t1``) stay in a piece, as they
    stay in the lexer's word.

    Templates are frozen dataclasses holding only tuples and scalars,
    never rewritten, so a shared one is safe to hand to any number of
    executions.  A text that fails to parse leaves nothing in any map.
    """
    parts = _split_literals(text)
    skeleton = parts[::2]
    lifted = []
    for literal in parts[1::2]:
        if literal[0] == "'":
            skeleton.append("string")
            lifted.append(unquote(literal))
        elif "." in literal:
            skeleton.append("float")
            lifted.append(float(literal))
        else:
            skeleton.append("int")
            lifted.append(int(literal))
    skeleton = tuple(skeleton)
    template = _skeletons.get(skeleton)
    if template is None:
        return _parse_tokens(text, parts, skeleton, lifted)
    return template, tuple(lifted)


#: Token kinds whose value :meth:`_Parser._primary` lifts out of the AST.
_LIFTED_KINDS = ("int", "float", "string")

#: The lexer's own string and number literals, cut out by ``re.split``:
#: the skeleton of a text is its pieces between them, then their kinds (one
#: piece more than literals keeps the two runs apart).  A number right
#: after a word character is no literal here, just as the lexer reads
#: ``t1`` as one word; without that, a registered ``BETWEEN.5`` would
#: hand its skeleton to ``BETWEEN5.0``, which the lexer reads as a word.
#: The lookahead only lets the regex engine skip the characters no
#: literal starts with.
_LITERAL = re.compile(rf"(?=['.0-9])({STRING}|(?<!\w)(?:{NUMBER}))")
_split_literals = _LITERAL.split

#: Statement shape -> its template.  One per shape the text LRU can hold.
_templates: dict[tuple, ast.Statement] = {}
#: Statement skeleton -> its template, for texts the lexer agrees on.
_skeletons: dict[tuple, ast.Statement] = {}
_TEMPLATE_LIMIT = parse.cache_parameters()["maxsize"]


def _parse_tokens(
    text: str, parts: list[str], skeleton: tuple, lifted: list
) -> tuple[ast.Statement, tuple]:
    """:func:`parse` through the tokenizer.  Registers ``skeleton`` when
    the lexer lifts exactly the split's literals (``parts``, whose values
    are ``lifted``): same kinds, values and positions."""
    tokens = tokenize(text)
    key, literals = _shape(tokens)
    if len(_templates) >= _TEMPLATE_LIMIT or len(_skeletons) >= _TEMPLATE_LIMIT:
        _templates.clear()
        _skeletons.clear()
    template = _templates.get(key)
    if template is None:
        template = _Parser(tokens, text).parse_statement()
        _templates[key] = template
    if literals == _split_tokens(parts, skeleton, lifted):
        _skeletons[skeleton] = template
    return template, tuple(token.value for token in literals)


def _split_tokens(parts: list[str], skeleton: tuple, lifted: list) -> list[Token]:
    """The split's literals as the lexer tokenizes a literal: a number's
    position is its start, a string's its end."""
    kinds = skeleton[len(lifted) + 1:]
    tokens = []
    pos = 0
    for piece, literal, kind, value in zip(parts[::2], parts[1::2], kinds, lifted):
        start = pos + len(piece)
        pos = start + len(literal)
        tokens.append(Token(kind, value, pos if kind == "string" else start))
    return tokens


def _shape(tokens: list[Token]) -> tuple[tuple, list[Token]]:
    """The shape key of a token list and its lifted literal tokens.

    A literal token enters the key by kind alone, except the integer
    after LIMIT: the parser takes that one into the AST, so its value is
    part of the shape.  Positions stay out of the key; they only appear
    in error messages, and a text that raises is never cached.
    """
    key = []
    lifted = []
    after_limit = False
    for token in tokens:
        kind, value, _pos = token
        if kind in _LIFTED_KINDS and not after_limit:
            key.append(kind)
            lifted.append(token)
        else:
            key.append((kind, value))
        after_limit = kind == "keyword" and value == "LIMIT"
    return tuple(key), lifted


class _Parser:
    def __init__(self, tokens: list[Token], text: str) -> None:
        self.tokens = tokens
        self.text = text
        self.pos = 0
        self.param_count = 0
        self.lifted_count = 0

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def accept(self, kind: str, value: object = None) -> Token | None:
        token = self.peek()
        if token.kind == kind and (value is None or token.value == value):
            return self.advance()
        return None

    def expect(self, kind: str, value: object = None) -> Token:
        token = self.accept(kind, value)
        if token is None:
            actual = self.peek()
            want = value if value is not None else kind
            raise SqlError(
                f"expected {want} but found {actual.value!r} "
                f"at position {actual.pos} in {self.text!r}"
            )
        return token

    def _expect_word(self, word: str) -> None:
        """Expect a soft keyword (lexed as an identifier)."""
        token = self.peek()
        if token.kind == "ident" and token.value.upper() == word:
            self.advance()
            return
        raise SqlError(
            f"expected {word} but found {token.value!r} at position {token.pos}"
        )

    def _peek_word(self, word: str, offset: int = 0) -> bool:
        token = self.tokens[min(self.pos + offset, len(self.tokens) - 1)]
        return token.kind == "ident" and token.value.upper() == word

    # -- statements ------------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        statement = self._statement()
        self.accept("punct", ";")
        self.expect("eof")
        return statement

    def _statement(self) -> ast.Statement:
        token = self.peek()
        if token.kind != "keyword":
            raise SqlError(f"statement must start with a keyword, got {token.value!r}")
        dispatch = {
            "CREATE": self._create,
            "DROP": self._drop,
            "INSERT": self._insert,
            "SELECT": self._select,
            "UPDATE": self._update,
            "DELETE": self._delete,
            "BEGIN": self._begin,
            "COMMIT": self._simple(ast.Commit),
            "ROLLBACK": self._simple(ast.Rollback),
            "CHECKPOINT": self._simple(ast.Checkpoint),
        }
        handler = dispatch.get(token.value)
        if handler is None:
            raise SqlError(f"unsupported statement {token.value}")
        return handler()

    def _simple(self, node_cls):
        def build():
            self.advance()
            return node_cls()

        return build

    def _begin(self) -> ast.Begin:
        self.expect("keyword", "BEGIN")
        self.accept("keyword", "TRANSACTION")
        return ast.Begin()

    def _create(self) -> ast.Statement:
        self.expect("keyword", "CREATE")
        if self.accept("keyword", "INDEX"):
            return self._create_index()
        self.expect("keyword", "TABLE")
        if_not_exists = False
        if self.accept("keyword", "IF"):
            self.expect("keyword", "NOT")
            self.expect("keyword", "EXISTS")
            if_not_exists = True
        name = self.expect("ident").value
        self.expect("punct", "(")
        columns = []
        while True:
            col_name = self.expect("ident").value
            type_token = self.peek()
            if type_token.kind == "ident" and type_token.value.upper() in SQL_TYPES:
                col_type = self.advance().value.upper()
            else:
                raise SqlError(
                    f"column {col_name!r} needs a type from {SQL_TYPES}"
                )
            primary = False
            if self.accept("keyword", "PRIMARY"):
                self._expect_word("KEY")
                primary = True
            columns.append(ast.ColumnDef(col_name, col_type, primary))
            if not self.accept("punct", ","):
                break
        self.expect("punct", ")")
        return ast.CreateTable(name, tuple(columns), if_not_exists)

    def _create_index(self) -> ast.CreateIndex:
        """CREATE INDEX [IF NOT EXISTS] name ON table (column) — the
        leading CREATE INDEX keywords are already consumed."""
        if_not_exists = False
        if self.accept("keyword", "IF"):
            self.expect("keyword", "NOT")
            self.expect("keyword", "EXISTS")
            if_not_exists = True
        name = self.expect("ident").value
        self.expect("keyword", "ON")
        table = self.expect("ident").value
        self.expect("punct", "(")
        column = self.expect("ident").value
        self.expect("punct", ")")
        return ast.CreateIndex(name, table, column, if_not_exists)

    def _drop(self) -> ast.Statement:
        self.expect("keyword", "DROP")
        if self.accept("keyword", "INDEX"):
            if_exists = False
            if self.accept("keyword", "IF"):
                self.expect("keyword", "EXISTS")
                if_exists = True
            return ast.DropIndex(self.expect("ident").value, if_exists)
        self.expect("keyword", "TABLE")
        return ast.DropTable(self.expect("ident").value)

    def _insert(self) -> ast.Insert:
        self.expect("keyword", "INSERT")
        or_replace = False
        if self.accept("keyword", "OR"):
            self.expect("keyword", "REPLACE")
            or_replace = True
        self.expect("keyword", "INTO")
        table = self.expect("ident").value
        columns = None
        if self.accept("punct", "("):
            names = [self.expect("ident").value]
            while self.accept("punct", ","):
                names.append(self.expect("ident").value)
            self.expect("punct", ")")
            columns = tuple(names)
        self.expect("keyword", "VALUES")
        rows = [self._value_tuple()]
        while self.accept("punct", ","):
            rows.append(self._value_tuple())
        return ast.Insert(table, columns, tuple(rows), or_replace)

    def _value_tuple(self) -> tuple[ast.Expr, ...]:
        self.expect("punct", "(")
        values = [self._expr()]
        while self.accept("punct", ","):
            values.append(self._expr())
        self.expect("punct", ")")
        return tuple(values)

    _AGGREGATES = ("COUNT", "SUM", "MIN", "MAX", "AVG")

    def _select(self) -> ast.Select:
        self.expect("keyword", "SELECT")
        aggregate: tuple[str, str | None] | None = None
        columns: tuple[str, ...] | None = None
        next_token = self.tokens[min(self.pos + 1, len(self.tokens) - 1)]
        next_is_paren = next_token.kind == "punct" and next_token.value == "("
        agg_word = next(
            (w for w in self._AGGREGATES if self._peek_word(w)), None
        )
        if agg_word is not None and next_is_paren:
            self.advance()
            self.expect("punct", "(")
            if self.accept("punct", "*"):
                if agg_word != "COUNT":
                    raise SqlError(f"{agg_word}(*) is not supported")
                aggregate = ("COUNT", None)
            else:
                aggregate = (agg_word, self.expect("ident").value)
            self.expect("punct", ")")
        elif self.accept("punct", "*"):
            columns = None
        else:
            names = [self.expect("ident").value]
            while self.accept("punct", ","):
                names.append(self.expect("ident").value)
            columns = tuple(names)
        self.expect("keyword", "FROM")
        table = self.expect("ident").value
        where = self._expr() if self.accept("keyword", "WHERE") else None
        order_by = None
        descending = False
        if self.accept("keyword", "ORDER"):
            self.expect("keyword", "BY")
            order_by = self.expect("ident").value
            if self.accept("keyword", "DESC"):
                descending = True
            else:
                self.accept("keyword", "ASC")
        limit = None
        if self.accept("keyword", "LIMIT"):
            limit = self.expect("int").value
        return ast.Select(
            columns, table, where, order_by, descending, limit, aggregate
        )

    def _update(self) -> ast.Update:
        self.expect("keyword", "UPDATE")
        table = self.expect("ident").value
        self.expect("keyword", "SET")
        assignments = [self._assignment()]
        while self.accept("punct", ","):
            assignments.append(self._assignment())
        where = self._expr() if self.accept("keyword", "WHERE") else None
        return ast.Update(table, tuple(assignments), where)

    def _assignment(self) -> tuple[str, ast.Expr]:
        name = self.expect("ident").value
        self.expect("punct", "=")
        return name, self._expr()

    def _delete(self) -> ast.Delete:
        self.expect("keyword", "DELETE")
        self.expect("keyword", "FROM")
        table = self.expect("ident").value
        where = self._expr() if self.accept("keyword", "WHERE") else None
        return ast.Delete(table, where)

    # -- expressions (precedence climbing) ------------------------------------

    def _expr(self) -> ast.Expr:
        return self._or_expr()

    def _or_expr(self) -> ast.Expr:
        left = self._and_expr()
        while self.accept("keyword", "OR"):
            left = ast.BinOp("OR", left, self._and_expr())
        return left

    def _and_expr(self) -> ast.Expr:
        left = self._not_expr()
        while self.accept("keyword", "AND"):
            left = ast.BinOp("AND", left, self._not_expr())
        return left

    def _not_expr(self) -> ast.Expr:
        if self.accept("keyword", "NOT"):
            return ast.UnaryOp("NOT", self._not_expr())
        return self._comparison()

    def _comparison(self) -> ast.Expr:
        left = self._additive()
        token = self.peek()
        if token.kind == "punct" and token.value in ("=", "<", ">", "<=", ">=", "!=", "<>"):
            op = self.advance().value
            if op == "<>":
                op = "!="
            return ast.BinOp(op, left, self._additive())
        if token.kind == "keyword" and token.value == "IS":
            self.advance()
            negate = self.accept("keyword", "NOT") is not None
            self.expect("keyword", "NULL")
            node = ast.BinOp("IS NULL", left, ast.Literal(None))
            return ast.UnaryOp("NOT", node) if negate else node
        if token.kind == "keyword" and token.value == "BETWEEN":
            self.advance()
            low = self._additive()
            self.expect("keyword", "AND")
            high = self._additive()
            return ast.BinOp(
                "AND", ast.BinOp(">=", left, low), ast.BinOp("<=", left, high)
            )
        return left

    def _additive(self) -> ast.Expr:
        left = self._multiplicative()
        while True:
            token = self.peek()
            if token.kind == "punct" and token.value in ("+", "-"):
                op = self.advance().value
                left = ast.BinOp(op, left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> ast.Expr:
        left = self._unary()
        while True:
            token = self.peek()
            if token.kind == "punct" and token.value in ("*", "/"):
                op = self.advance().value
                left = ast.BinOp(op, left, self._unary())
            else:
                return left

    def _unary(self) -> ast.Expr:
        if self.accept("punct", "-"):
            return ast.UnaryOp("-", self._unary())
        return self._primary()

    def _primary(self) -> ast.Expr:
        token = self.peek()
        if token.kind in _LIFTED_KINDS:
            self.advance()
            slot = self.lifted_count
            self.lifted_count += 1
            return ast.Lifted(slot)
        if token.kind == "keyword" and token.value == "NULL":
            self.advance()
            return ast.Literal(None)
        if token.kind == "punct" and token.value == "?":
            self.advance()
            index = self.param_count
            self.param_count += 1
            return ast.Param(index)
        if token.kind == "punct" and token.value == "(":
            self.advance()
            expr = self._expr()
            self.expect("punct", ")")
            return expr
        if token.kind == "ident":
            self.advance()
            return ast.Column(token.value)
        raise SqlError(f"unexpected token {token.value!r} at position {token.pos}")
