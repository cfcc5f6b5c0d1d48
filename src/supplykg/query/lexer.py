"""Query lexer. Produces a flat token list with line/column positions.

Variables and identifiers share ``terms.VAR_NAME``, which has no hyphen:
``?dt-lt`` is three tokens (?dt, -, lt), which is what makes filter
arithmetic like ``?dt - lt = t`` work unquoted. IRIs are ``terms.IRI_NAME``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..terms import IRI_NAME, VAR_NAME, MalformedTermError, unescape_string
from .ast import AGGREGATE_FUNCS, CALL_FUNCS

KEYWORDS = {
    "SELECT",
    "WHERE",
    "FILTER",
    "INSERT",
    "ORDER",
    "GROUP",
    "BY",
    "ASC",
    "DESC",
    "AS",
    *AGGREGATE_FUNCS,
    *CALL_FUNCS,
}


@dataclass(frozen=True)
class Token:
    kind: str  # keyword name, or one of: VAR IRI IDENT NUMBER STRING TAG op punctuation EOF
    text: str
    line: int
    col: int


# The one error for bad query text: the lexer raises it, and so does the parser.
class QuerySyntaxError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        where = f"line {line}, column {col}: " if line else ""
        super().__init__(where + message)
        self.line = line
        self.col = col


_SPEC = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<qopen><<)
  | (?P<qclose>>>)
  | (?P<string>"(?:[^"\\\n]|\\.)*")(?:\^\^(?P<tag>[a-z]+))?
  | (?P<number>\d+\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+|\d+)
  | (?P<var>\?{VAR_NAME})
  | (?P<iri>:{IRI_NAME}|rdf:type)
  | (?P<ident>{VAR_NAME})
  | (?P<op><=|>=|!=|&&|\|\||[=<>+\-*/(){{}},.])
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _SPEC.match(text, pos)
        if m is None:
            raise QuerySyntaxError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        value = m.group()
        col = m.start() - line_start + 1
        if kind in ("ws", "comment"):
            pass
        elif kind == "var":
            tokens.append(Token("VAR", value[1:], line, col))
        elif kind == "iri":
            name = "rdf:type" if value == "rdf:type" else value[1:]
            tokens.append(Token("IRI", name, line, col))
        elif kind == "ident":
            upper = value.upper()
            if upper in KEYWORDS:
                tokens.append(Token(upper, value, line, col))
            else:
                tokens.append(Token("IDENT", value, line, col))
        elif kind == "number":
            tokens.append(Token("NUMBER", value, line, col))
        elif kind in ("string", "tag"):
            try:
                body = unescape_string(m.group("string")[1:-1])
            except MalformedTermError as exc:
                raise QuerySyntaxError(str(exc), line, col) from None
            tokens.append(Token("STRING", body, line, col))
            if m.group("tag"):
                tokens.append(Token("TAG", m.group("tag"), line, m.start("tag") - line_start + 1))
        elif kind == "qopen":
            tokens.append(Token("<<", value, line, col))
        elif kind == "qclose":
            tokens.append(Token(">>", value, line, col))
        else:  # op
            tokens.append(Token(value, value, line, col))
        # track newlines inside whatever we just consumed
        if "\n" in value:
            line += value.count("\n")
            line_start = m.start() + value.rfind("\n") + 1
        pos = m.end()
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens
