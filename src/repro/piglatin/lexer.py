"""Lexer for the Pig Latin dialect: one compiled regular expression.

Each match of ``_TOKEN`` is the whitespace and comments before a token,
then the token: a name, a symbol, a string, a positional reference, a
number, the end of the text, or — when nothing else fits — one character
that :func:`_error` rescans to report an unterminated string or comment, a
``$`` with no digits, or a character outside the dialect. Because every
non-blank character fits some alternative, the skip before it is never
backtracked into.
"""

import re

from repro.common.errors import ParseError
from repro.piglatin.tokens import SYMBOLS, Token, TokenKind

_TOKEN = re.compile(
    r"(?P<skip>(?:[ \t\r\n]+|--[^\n]*|/\*.*?\*/)+)?"
    r"(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    # Longest symbols first, as SYMBOLS lists them; "/" does not open "/*".
    r"|(?!/\*)(?P<symbol>" + "|".join(map(re.escape, SYMBOLS)) + r")"
    r"|(?P<string>'(?:[^'\\\n]|\\.)*')"
    r"|(?P<dollar>\$[0-9]+)"
    r"|(?P<number>[0-9]+(?:\.[0-9]+)?)"
    r"|(?P<eof>\Z)"
    r"|(?P<error>[^ \t\r\n]))",
    re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)

_NAME = TokenKind.NAME
_SYMBOL = TokenKind.SYMBOL


def tokenize(text):
    """Tokenize ``text`` into a list of :class:`Token` ending with EOF."""
    tokens = []
    append = tokens.append
    line = 1
    line_start = 0
    for match in _TOKEN.finditer(text):
        skipped = match.group(1)
        if skipped is not None and "\n" in skipped:
            line += skipped.count("\n")
            line_start = match.start() + skipped.rfind("\n") + 1
        kind = match.lastgroup
        value = match.group(kind)
        start = match.start(kind)
        column = start - line_start + 1
        if kind == "name":
            append(Token(_NAME, value, line, column))
        elif kind == "symbol":
            append(Token(_SYMBOL, value, line, column))
        elif kind == "string":
            body = value[1:-1]
            if "\\" not in body:
                append(Token(TokenKind.STRING, body, line, column))
                continue
            append(Token(TokenKind.STRING, _ESCAPE.sub(r"\1", body), line, column))
            # An escaped newline is the only one a literal can hold.
            if "\n" in body:
                line += body.count("\n")
                line_start = start + 1 + body.rfind("\n") + 1
        elif kind == "number":
            append(Token(TokenKind.DOUBLE if "." in value else TokenKind.INT,
                         value, line, column))
        elif kind == "dollar":
            append(Token(TokenKind.DOLLAR, value[1:], line, column))
        elif kind == "eof":
            # After a skip that ends the text, finditer would match the
            # empty end once more.
            append(Token(TokenKind.EOF, "", line, column))
            break
        else:
            _error(text, start, line, column)
    return tokens


def _error(text, pos, line, column):
    """Raise the ParseError for the character at ``pos``."""
    char = text[pos]
    if char == "/":
        raise ParseError("unterminated /* comment", line, column)
    if char == "'":
        end = pos + 1
        while end < len(text) and text[end] != "\n":
            end += 2 if text[end] == "\\" else 1
        if end < len(text):
            raise ParseError("newline in string literal", line, column)
        raise ParseError("unterminated string literal", line, column)
    if char == "$":
        raise ParseError("expected digits after $", line, column)
    raise ParseError(f"unexpected character {char!r}", line, column)
