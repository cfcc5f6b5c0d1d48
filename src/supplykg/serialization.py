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

One ``parse_graph`` call scans each distinct whitespace-separated word once
and builds one term object per distinct token: both tables live only for
that call, so nothing a load builds outlives the graph it returns. A line
with a word that does not scan on its own, such as a piece of a string that
holds a space, is scanned whole, which gives the same tokens, or the same
error and line number, as scanning every line whole.
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
    # Sorting the lines gives the order of graph.triples(), whose sort key
    # they are: two triples are equal exactly when their lines are. Each
    # triple is formatted once.
    lines = sorted(map(format_triple, graph.snapshot()))
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


def _word_tokens(word: str) -> tuple[tuple[str, str], ...]:
    """The tokens of one whitespace-free word, or () if it does not scan on
    its own, such as a piece of a string that holds whitespace."""
    try:
        return tuple(_tokenize_line(word, 0))
    except GraphParseError:
        return ()


def _tokenize_words(line: str, lineno: int, words: dict) -> list[tuple[str, str]]:
    """The tokens of ``line``, the same as ``_tokenize_line`` gives. Each
    distinct word is scanned once and its tokens kept in ``words``; a line
    with a word that does not scan alone is scanned whole, which also raises
    its error."""
    tokens = []
    for word in line.split():
        toks = words.get(word)
        if toks is None:
            toks = words[word] = _word_tokens(word)
        if not toks:
            return _tokenize_line(line, lineno)
        tokens += toks
    return tokens


class _LineParser:
    """Parses one line's tokens. ``terms`` maps a token to the term built
    for it, so that a load builds one object per distinct token: an IRI or
    number is keyed on its text, a string on its text and datatype tag. The
    spellings of rdf:type (``a``, ``rdf:type``, ``:rdf:type``) share one."""

    def __init__(self, tokens: list[tuple[str, str]], line: int, terms: dict):
        self.tokens = tokens
        self.pos = 0
        self.line = line
        self.depth = 0
        self.terms = terms

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
        if kind == "iri" or kind == "kw":  # kw is a bare "a"
            term = self.terms.get(text)
            if term is None:
                name = "rdf:type" if text in ("a", "rdf:type") else text[1:]
                term = self.terms[text] = self.terms.setdefault(":" + name, Iri(name))
            return term
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
            term = self.terms.get(text)
            if term is None:
                integral = re.fullmatch(r"[+-]?\d+", text)
                term = self.terms[text] = Literal(int(text), INTEGER) if integral else Literal(float(text), DECIMAL)
            return term
        if kind == "string":
            tag = self.take()[1] if self.peek_kind() == "tag" else None
            term = self.terms.get((text, tag))
            if term is None:
                try:
                    body = unescape_string(text[1:-1])
                    term = Literal(body, STRING) if tag is None else typed_literal(body, tag)
                except MalformedTermError as exc:
                    raise GraphParseError(str(exc), self.line) from None
                self.terms[text, tag] = term
            return term
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
    words: dict = {}
    terms: dict = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = _tokenize_words(line, lineno, words)
        g.insert(_LineParser(tokens, lineno, terms).triple())
    return g


def parse_graph_file(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def parse_term(text: str) -> Term:
    """Parse a single term written in the line syntax, e.g. ``:OEM1``,
    ``42``, ``"7"^^timestep``, or ``<< :a :b :c >>``."""
    tokens = _tokenize_line(text.strip(), 1)
    parser = _LineParser(tokens, 1, {})
    term = parser.term()
    if parser.pos != len(parser.tokens):
        raise GraphParseError(f"trailing content after term: {parser.tokens[parser.pos][1]!r}", 1)
    return term
