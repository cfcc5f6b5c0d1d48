"""Line-oriented graph serialization.

Format, one triple per line, UTF-8, LF line endings, lines sorted
lexicographically (the canonical form is therefore unique per graph):

    :OEM1 a :OEM .
    :Order3 :hasQuantity 100000 .
    :Order3 :hasDeliveryTime "12"^^timestep .
    << :SP3 :needsNode :SupplierNode1.1 >> :getsProduct :Product1.1 .
    :Inv1 :hasCost 25.5 .
    :Node3.2 :hasSCORKPI "Responsiveness: 85" .
    :Order3 :isFulfilled "True"^^boolean .

Term syntax: ``:Name`` is an IRI (``a`` abbreviates rdf:type in predicate
position), bare numbers are integer/decimal literals, ``"..."`` is a string
with backslash escapes, and ``"..."^^tag`` forces a datatype (integer,
decimal, string, boolean, timestep). ``<< s p o >>`` quotes a triple so it
can stand in subject or object position. Parsing accepts flexible whitespace
and both lexical cases for booleans; serialization always emits the canonical
spelling above, so serialize(parse(serialize(g))) is byte-identical to
serialize(g).
"""

from __future__ import annotations

import re

from .graph import Graph
from .terms import (
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
    Term,
    Triple,
    format_triple,
    typed_literal,
    unescape_string,
)


class GraphParseError(ValueError):
    """Syntax or structural error in serialized graph text."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def serialize(graph: Graph) -> str:
    # graph.triples() is already in format_triple order
    lines = [format_triple(t) for t in graph.triples()]
    return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------------
# parsing

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

def _tokenize_line(text: str, line: int) -> list[tuple[str, str]]:
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


class _LineParser:
    def __init__(self, tokens: list[tuple[str, str]], line: int):
        self.tokens = tokens
        self.pos = 0
        self.line = line
        self.depth = 0

    def peek_kind(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        if self.pos >= len(self.tokens):
            raise GraphParseError("unexpected end of line", self.line)
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def term(self, predicate_position: bool = False) -> Term:
        kind, text = self.take()
        if kind == "iri":
            return Iri("rdf:type" if text == "rdf:type" else text[1:])
        if kind == "kw":  # bare "a"
            return Iri("rdf:type")
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
            if re.fullmatch(r"[+-]?\d+", text):
                return Literal(int(text), INTEGER)
            return Literal(float(text), DECIMAL)
        if kind == "string":
            try:
                body = unescape_string(text[1:-1])
                if self.peek_kind() == "tag":
                    return typed_literal(body, self.take()[1])
            except MalformedTermError as exc:
                raise GraphParseError(str(exc), self.line) from None
            return Literal(body, STRING)
        raise GraphParseError(f"expected a term, got {text!r}", self.line)

    def triple(self) -> Triple:
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


def parse_graph(text: str) -> Graph:
    """Parse serialized graph text. Blank lines and ``#`` comment lines are
    allowed on input (never produced on output)."""
    g = Graph()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = _tokenize_line(line, lineno)
        g.insert(_LineParser(tokens, lineno).triple())
    return g


def parse_graph_file(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def parse_term(text: str) -> Term:
    """Parse a single term written in the line syntax, e.g. ``:OEM1``,
    ``42``, ``"7"^^timestep``, or ``<< :a :b :c >>``."""
    tokens = _tokenize_line(text.strip(), 1)
    parser = _LineParser(tokens, 1)
    term = parser.term()
    if parser.pos != len(parser.tokens):
        raise GraphParseError(f"trailing content after term: {parser.tokens[parser.pos][1]!r}", 1)
    return term
