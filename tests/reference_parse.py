"""Reference graph-text parser for differential testing.

Deliberately plain: every line is tokenized whole and parsed by a
recursive descent parser, with no word table, no shortcut for common line
shapes and no shared quoted terms. It is the package's earlier line
parser, kept as the parser ``parse_graph`` must agree with, in triples or
in error message and line number. Only the term types, the term
constructors and the error class are shared.

Two deliberate changes from that earlier parser, both as the package's
parser now does: a number whose value is out of range, such as ``1e999``,
raises ``GraphParseError`` with its line number instead of a bare
``MalformedTermError``, and so does an integer with more digits than
``int()`` reads, instead of a bare ``ValueError``.
"""

import re
import sys

from supplykg.serialization import GraphParseError
from supplykg.terms import (
    DECIMAL,
    INTEGER,
    IRI_CHAR,
    IRI_NAME,
    MAX_QUOTE_DEPTH,
    STRING,
    Iri,
    Literal,
    MalformedTermError,
    Quoted,
    Triple,
    format_triple,
    typed_literal,
    unescape_string,
)

_TOKEN = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<qopen><<)
  | (?P<qclose>>>)
  | (?P<string>"(?:[^"\\]|\\.)*")(?:\^\^(?P<tag>[a-z]+))?
  | (?P<number>[+-]?(?:\d+\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+|\d+))
  | (?P<iri>:{IRI_NAME}|rdf:type)
  | (?P<kw>a)(?!{IRI_CHAR})
  | (?P<dot>\.)
    """,
    re.VERBOSE,
)


def tokenize_line(text, line):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise GraphParseError(f"unexpected character {text[pos]!r}", line)
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind in ("string", "tag"):  # lastgroup is "tag" when a tag follows
            tokens.append(("string", m.group("string")))
            if m.group("tag"):
                tokens.append(("tag", m.group("tag")))
            continue
        tokens.append((kind, m.group()))
    return tokens


class LineParser:
    def __init__(self, tokens, line):
        self.tokens = tokens
        self.pos = 0
        self.line = line
        self.depth = 0

    def peek_kind(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self):
        if self.pos >= len(self.tokens):
            raise GraphParseError("unexpected end of line", self.line)
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def term(self, predicate_position=False):
        kind, text = self.take()
        if kind == "iri" or kind == "kw":  # kw is a bare "a"
            return Iri("rdf:type" if text in ("a", "rdf:type") else text[1:])
        if predicate_position:
            raise GraphParseError(f"predicate must be an IRI, got {text!r}", self.line)
        if kind == "qopen":
            self.depth += 1
            if self.depth > MAX_QUOTE_DEPTH:
                raise GraphParseError(f"quoted triples nest deeper than {MAX_QUOTE_DEPTH} levels", self.line)
            s = self.term()
            p = self.term(predicate_position=True)
            o = self.term()
            self.depth -= 1
            k, t = self.take()
            if k != "qclose":
                raise GraphParseError(f"expected >> to close quoted triple, got {t!r}", self.line)
            try:
                return Quoted(Triple(s, p, o))
            except MalformedTermError as exc:
                raise GraphParseError(str(exc), self.line) from None
        if kind == "number":
            try:
                if re.fullmatch(r"[+-]?\d+", text):
                    return Literal(int(text), INTEGER)
                return Literal(float(text), DECIMAL)
            except MalformedTermError as exc:
                raise GraphParseError(str(exc), self.line) from None
            except ValueError:  # int() reads at most sys.get_int_max_str_digits() digits
                digits = len(text.lstrip("+-"))
                raise GraphParseError(
                    f"integer literal has {digits} digits, more than the {sys.get_int_max_str_digits()} allowed",
                    self.line,
                ) from None
        if kind == "string":
            tag = self.take()[1] if self.peek_kind() == "tag" else None
            try:
                body = unescape_string(text[1:-1])
                return Literal(body, STRING) if tag is None else typed_literal(body, tag)
            except MalformedTermError as exc:
                raise GraphParseError(str(exc), self.line) from None
        raise GraphParseError(f"expected a term, got {text!r}", self.line)

    def triple(self):
        s = self.term()
        p = self.term(predicate_position=True)
        o = self.term()
        kind, text = self.take()
        if kind != "dot":
            raise GraphParseError(f"expected '.' after triple, got {text!r}", self.line)
        if self.pos != len(self.tokens):
            raise GraphParseError(f"trailing content after '.': {self.tokens[self.pos][1]!r}", self.line)
        try:
            return Triple(s, p, o)
        except MalformedTermError as exc:
            raise GraphParseError(str(exc), self.line) from None


def parse_triples(text):
    """The distinct triples of serialized graph text in canonical order, as
    ``Graph.triples()`` gives them. Blank and ``#`` lines are skipped."""
    found = set()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        found.add(LineParser(tokenize_line(line, lineno), lineno).triple())
    return sorted(found, key=format_triple)
