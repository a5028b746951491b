"""Recursive-descent parser for the Pig Latin dialect.

Grammar (informal):

    query     := statement* EOF
    statement := NAME '=' relation ';' | 'store' NAME 'into' STRING ';'
    relation  := load | foreach | filter | join | group | cogroup
               | distinct | union | order | limit
"""

from repro.common.errors import ParseError
from repro.piglatin import ast
from repro.piglatin.lexer import tokenize
from repro.piglatin.tokens import TokenKind

_TYPE_NAMES = {"int", "long", "double", "float", "chararray"}
_COMPARISONS = {"==", "!=", "<", "<=", ">", ">="}
_PRODUCTS = {"*", "/", "%"}


def parse_query(text):
    """Parse a Pig Latin script into an :class:`ast.Query`."""
    return _Parser(tokenize(text)).parse_query()


class _Parser:
    """Reads ``tokens`` (ending with EOF) by position, never past the EOF.
    ``_keys[i]`` is what keyword and symbol tests compare token ``i``
    against: its lower-cased text for a NAME, its text for a SYMBOL, None
    for anything else — the EOF included, and the two keys after it, as
    far as a cast test looks ahead."""

    def __init__(self, tokens):
        self._tokens = tokens
        self._keys = [
            token.text.lower() if token.kind is TokenKind.NAME
            else token.text if token.kind is TokenKind.SYMBOL
            else None
            for token in tokens
        ] + [None, None]
        self._pos = 0

    # Token helpers -------------------------------------------------------

    def _peek(self):
        return self._tokens[self._pos]

    def _advance(self):
        token = self._tokens[self._pos]
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _error(self, message, token=None):
        token = token or self._peek()
        raise ParseError(message, token.line, token.column)

    def _expect_symbol(self, symbol):
        if self._keys[self._pos] != symbol:
            self._error(f"expected {symbol!r}, found {self._peek().text!r}")
        self._pos += 1

    def _expect_keyword(self, word):
        if self._keys[self._pos] != word:
            self._error(f"expected {word.upper()}, found {self._peek().text!r}")
        self._pos += 1

    def _expect_name(self):
        token = self._advance()
        if token.kind is not TokenKind.NAME:
            self._error(f"expected a name, found {token.text!r}", token)
        return token.text

    def _expect_string(self):
        token = self._advance()
        if token.kind is not TokenKind.STRING:
            self._error(f"expected a quoted string, found {token.text!r}", token)
        return token.text

    def _expect_int(self):
        token = self._advance()
        if token.kind is not TokenKind.INT:
            self._error(f"expected an integer, found {token.text!r}", token)
        return int(token.text)

    # A NAME's key never equals a symbol nor a symbol's key a keyword, so
    # one comparison serves both tests; a match is never the EOF.

    def _at_keyword(self, word):
        return self._keys[self._pos] == word

    _at_symbol = _at_keyword

    def _eat_keyword(self, word):
        if self._keys[self._pos] == word:
            self._pos += 1
            return True
        return False

    _eat_symbol = _eat_keyword

    # Statements ---------------------------------------------------------------

    def parse_query(self):
        statements = []
        while self._peek().kind is not TokenKind.EOF:
            statements.append(self._statement())
        if not statements:
            self._error("empty query")
        return ast.Query(statements)

    def _statement(self):
        if self._eat_keyword("store"):
            alias = self._expect_name()
            self._expect_keyword("into")
            path = self._expect_string()
            self._expect_symbol(";")
            return ast.StoreStmt(alias, path)
        if self._at_keyword("split"):
            return self._split()
        alias = self._expect_name()
        self._expect_symbol("=")
        relation = self._relation(alias)
        self._expect_symbol(";")
        return relation

    def _relation(self, alias):
        token = self._peek()
        if token.kind is not TokenKind.NAME:
            self._error(f"expected a relational operator, found {token.text!r}")
        handler = self._RELATIONS.get(self._keys[self._pos])
        if handler is None:
            self._error(f"unknown relational operator {token.text!r}")
        self._pos += 1
        return handler(self, alias)

    def _load(self, alias):
        path = self._expect_string()
        if self._eat_keyword("using"):
            # Loader functions are accepted and ignored (we have one codec);
            # e.g. `using PigStorage('\t')`.
            self._expect_name()
            if self._eat_symbol("("):
                while not self._eat_symbol(")"):
                    if self._advance().kind is TokenKind.EOF:
                        self._error("unterminated loader arguments")
        fields = []
        if self._eat_keyword("as"):
            self._expect_symbol("(")
            while True:
                name = self._expect_name()
                typename = None
                if self._eat_symbol(":"):
                    typename = self._expect_name().lower()
                fields.append(ast.FieldSpec(name, typename))
                if not self._eat_symbol(","):
                    break
            self._expect_symbol(")")
        return ast.LoadStmt(alias, path, fields)

    def _foreach(self, alias):
        input_alias = self._expect_name()
        if self._at_symbol("{"):
            return self._nested_foreach(alias, input_alias)
        self._expect_keyword("generate")
        items = [self._gen_item()]
        while self._eat_symbol(","):
            items.append(self._gen_item())
        return ast.ForEachStmt(alias, input_alias, items)

    def _nested_foreach(self, alias, input_alias):
        """FOREACH alias { inner*; GENERATE items; }"""
        self._expect_symbol("{")
        inner = []
        while not self._at_keyword("generate"):
            inner.append(self._inner_statement())
        self._expect_keyword("generate")
        items = [self._gen_item()]
        while self._eat_symbol(","):
            items.append(self._gen_item())
        self._expect_symbol(";")
        self._expect_symbol("}")
        return ast.ForEachStmt(alias, input_alias, items, inner=inner)

    def _inner_statement(self):
        inner_alias = self._expect_name()
        self._expect_symbol("=")
        if self._eat_keyword("filter"):
            source = self._expect_name()
            self._expect_keyword("by")
            condition = self._expression()
            statement = ast.InnerFilter(inner_alias, source, condition)
        elif self._eat_keyword("distinct"):
            statement = ast.InnerDistinct(inner_alias, self._expect_name())
        else:
            name = self._expect_name()
            if self._eat_symbol("."):
                expr = ast.Deref(name, self._expect_name())
            else:
                expr = ast.FieldRef(name)
            statement = ast.InnerAssign(inner_alias, expr)
        self._expect_symbol(";")
        return statement

    def _gen_item(self):
        flatten = False
        if self._eat_keyword("flatten"):
            self._expect_symbol("(")
            expr = self._expression()
            self._expect_symbol(")")
            flatten = True
        else:
            expr = self._expression()
        item_alias = None
        if self._eat_keyword("as"):
            item_alias = self._expect_name()
        return ast.GenItem(expr, item_alias, flatten)

    def _filter(self, alias):
        input_alias = self._expect_name()
        self._expect_keyword("by")
        condition = self._expression()
        return ast.FilterStmt(alias, input_alias, condition)

    def _join_style_inputs(self):
        inputs = []
        while True:
            name = self._expect_name()
            self._expect_keyword("by")
            keys = self._key_list()
            inputs.append((name, keys))
            if not self._eat_symbol(","):
                break
        return inputs

    def _key_list(self):
        if self._eat_symbol("("):
            keys = [self._expression()]
            while self._eat_symbol(","):
                keys.append(self._expression())
            self._expect_symbol(")")
            return keys
        return [self._expression()]

    def _join(self, alias):
        inputs = self._join_style_inputs()
        if len(inputs) != 2:
            self._error("JOIN takes exactly two inputs in this dialect")
        parallel = self._parallel_clause()
        return ast.JoinStmt(alias, inputs, parallel)

    def _group(self, alias):
        input_alias = self._expect_name()
        if self._eat_keyword("all"):
            keys = None
        else:
            self._expect_keyword("by")
            keys = self._key_list()
        parallel = self._parallel_clause()
        return ast.GroupStmt(alias, input_alias, keys, parallel)

    def _cogroup(self, alias):
        inputs = self._join_style_inputs()
        if len(inputs) < 2:
            self._error("COGROUP needs at least two inputs")
        parallel = self._parallel_clause()
        return ast.CoGroupStmt(alias, inputs, parallel)

    def _distinct(self, alias):
        input_alias = self._expect_name()
        parallel = self._parallel_clause()
        return ast.DistinctStmt(alias, input_alias, parallel)

    def _union(self, alias):
        names = [self._expect_name()]
        while self._eat_symbol(","):
            names.append(self._expect_name())
        if len(names) < 2:
            self._error("UNION needs at least two inputs")
        return ast.UnionStmt(alias, names)

    def _order(self, alias):
        input_alias = self._expect_name()
        self._expect_keyword("by")
        keys = []
        while True:
            field = self._order_key()
            direction = "asc"
            if self._eat_keyword("asc"):
                direction = "asc"
            elif self._eat_keyword("desc"):
                direction = "desc"
            keys.append((field, direction))
            if not self._eat_symbol(","):
                break
        parallel = self._parallel_clause()
        return ast.OrderStmt(alias, input_alias, keys, parallel)

    def _order_key(self):
        token = self._peek()
        if token.kind is TokenKind.DOLLAR:
            self._advance()
            return ast.PositionalRef(int(token.text))
        return ast.FieldRef(self._qualified_name())

    def _limit(self, alias):
        input_alias = self._expect_name()
        count = self._expect_int()
        return ast.LimitStmt(alias, input_alias, count)

    _RELATIONS = {
        "load": _load,
        "foreach": _foreach,
        "filter": _filter,
        "join": _join,
        "group": _group,
        "cogroup": _cogroup,
        "distinct": _distinct,
        "union": _union,
        "order": _order,
        "limit": _limit,
    }

    def _split(self):
        self._expect_keyword("split")
        input_alias = self._expect_name()
        self._expect_keyword("into")
        branches = []
        while True:
            branch_alias = self._expect_name()
            self._expect_keyword("if")
            condition = self._expression()
            branches.append((branch_alias, condition))
            if not self._eat_symbol(","):
                break
        if len(branches) < 2:
            self._error("SPLIT needs at least two branches")
        self._expect_symbol(";")
        return ast.SplitStmt(input_alias, branches)

    def _parallel_clause(self):
        if self._eat_keyword("parallel"):
            return self._expect_int()
        return None

    # Expressions ------------------------------------------------------------------

    def _expression(self):
        return self._or_expr()

    def _or_expr(self):
        left = self._and_expr()
        while self._eat_keyword("or"):
            left = ast.BinaryOp("or", left, self._and_expr())
        return left

    def _and_expr(self):
        left = self._not_expr()
        while self._eat_keyword("and"):
            left = ast.BinaryOp("and", left, self._not_expr())
        return left

    def _not_expr(self):
        if self._eat_keyword("not"):
            return ast.UnaryOp("not", self._not_expr())
        return self._comparison()

    def _comparison(self):
        left = self._additive()
        key = self._keys[self._pos]
        if key in _COMPARISONS:
            self._pos += 1
            return ast.BinaryOp(key, left, self._additive())
        if self._eat_keyword("is"):
            negated = self._eat_keyword("not")
            self._expect_keyword("null")
            return ast.IsNull(left, negated)
        return left

    def _additive(self):
        left = self._multiplicative()
        while True:
            key = self._keys[self._pos]
            if key == "+" or key == "-":
                self._pos += 1
                left = ast.BinaryOp(key, left, self._multiplicative())
            else:
                return left

    def _multiplicative(self):
        left = self._unary()
        while True:
            key = self._keys[self._pos]
            if key in _PRODUCTS:
                self._pos += 1
                left = ast.BinaryOp(key, left, self._unary())
            else:
                return left

    def _unary(self):
        if self._eat_symbol("-"):
            return ast.UnaryOp("neg", self._unary())
        # A parenthesized type name is a cast: (int) x
        keys, pos = self._keys, self._pos
        if keys[pos] == "(" and keys[pos + 1] in _TYPE_NAMES and keys[pos + 2] == ")":
            self._pos += 3
            return ast.Cast(keys[pos + 1], self._unary())
        return self._primary()

    def _primary(self):
        token = self._peek()
        if token.kind is TokenKind.INT:
            self._advance()
            return ast.Literal(int(token.text))
        if token.kind is TokenKind.DOUBLE:
            self._advance()
            return ast.Literal(float(token.text))
        if token.kind is TokenKind.STRING:
            self._advance()
            return ast.Literal(token.text)
        if token.kind is TokenKind.DOLLAR:
            self._advance()
            return ast.PositionalRef(int(token.text))
        if self._eat_symbol("("):
            expr = self._expression()
            self._expect_symbol(")")
            return expr
        if token.kind is TokenKind.NAME:
            return self._name_expression()
        self._error(f"unexpected token {token.text!r} in expression")

    def _qualified_name(self):
        """NAME ('::' NAME)* — alias-qualified field names."""
        name = self._expect_name()
        while self._eat_symbol("::"):
            name = f"{name}::{self._expect_name()}"
        return name

    def _name_expression(self):
        name = self._qualified_name()
        # Function call?
        if self._eat_symbol("("):
            args = []
            if not self._at_symbol(")"):
                args.append(self._expression())
                while self._eat_symbol(","):
                    args.append(self._expression())
            self._expect_symbol(")")
            return ast.FuncCall(name, args)
        # Bag dereference: C.est_revenue
        if self._eat_symbol("."):
            field = self._expect_name()
            return ast.Deref(name, field)
        return ast.FieldRef(name)
