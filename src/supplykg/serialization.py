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

``parse_triples`` yields the triple of each line in line order, as
written, and ``parse_graph`` collects them into a graph. The format knows
no vocabulary: ``schema.load_graph`` rewrites legacy names as it inserts
each triple. One ``parse_triples`` pass keeps three tables, which are
freed when the pass ends. The word table maps each distinct
whitespace-separated word to its items, each a mark (``<<``, ``>>``, ``.``)
or the term built for one token, a string with its ``^^tag``; the term
table builds one ``Iri`` or ``Literal`` per distinct token, and the quoted
table one ``Quoted`` per distinct quoted triple. A line whose items are
``S P O .``, ``<< s p o >> P O .`` or ``S P << s p o >> .`` is built
straight from them. Every other line is tokenized whole and parsed by the
recursive line parser, the one source of error messages: a deeper nesting,
a malformed line, or a word that does not scan alone, such as a piece of a
string that holds a space. Either way a line gives the same triple, or the
same error and line number.
"""

from __future__ import annotations

import re
from typing import Iterator

from .graph import Graph
from .terms import (
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
    number_literal,
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


def _tokenize_line(text: str, line: int) -> list[tuple[str, str, str | None]]:
    """The (kind, text, tag) tokens of ``text``. A string's text is its
    quoted part and its tag the name after ``^^``; any other tag is None."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise GraphParseError(f"unexpected character {text[pos]!r}", line)
        pos = m.end()
        kind = m.lastgroup
        if kind in ("string", "tag"):  # lastgroup is "tag" when a tag follows
            tokens.append(("string", m.group("string"), m.group("tag")))
        elif kind != "ws":
            tokens.append((kind, m.group(), None))
    return tokens


def _token_term(terms: dict, kind: str, text: str, tag: str | None) -> Term:
    """The term of an ``iri``, ``kw``, ``number`` or ``string`` token, from
    ``terms`` or built and kept there, so that a load builds one object per
    distinct token: an IRI or number is keyed on its text, a string on its
    text and tag. The spellings of rdf:type (``a``, ``rdf:type``,
    ``:rdf:type``) share one. Raises ``MalformedTermError`` on a value no
    literal can hold, or an integer too long to read."""
    key = (text, tag) if kind == "string" else text
    term = terms.get(key)
    if term is None:
        if kind == "string":
            body = unescape_string(text[1:-1])
            term = Literal(body, STRING) if tag is None else typed_literal(body, tag)
        elif kind == "number":
            term = number_literal(text)
        else:  # iri, or kw: a bare "a"
            name = "rdf:type" if text in ("a", "rdf:type") else text[1:]
            term = terms.setdefault(":" + name, Iri(name))
        terms[key] = term
    return term


def _quote(quoted: dict, s, p, o) -> Quoted:
    """The one ``Quoted`` of a load for the triple ``s p o``, from
    ``quoted`` or built and kept there. Raises ``MalformedTermError`` when no
    triple can hold the parts."""
    key = (s, p, o)
    term = quoted.get(key)
    if term is None:
        term = quoted[key] = Quoted(Triple(s, p, o))
    return term


# The marks among a line's items; ``_direct`` tells them from terms by identity.
_OPEN, _CLOSE, _DOT = "<<", ">>", "."
_MARKS = {"qopen": _OPEN, "qclose": _CLOSE, "dot": _DOT}


def _word_items(word: str, terms: dict) -> tuple:
    """The items of one whitespace-free word: for each token a mark or its
    term. Empty if the word does not scan alone, such as a piece of a string
    that holds a space, or if a token's term cannot be built."""
    try:
        return tuple(
            _MARKS.get(kind) or _token_term(terms, kind, text, tag) for kind, text, tag in _tokenize_line(word, 0)
        )
    except (GraphParseError, MalformedTermError):
        return ()


def _direct(items: list, quoted: dict) -> Triple | None:
    """The triple of a line whose items are ``S P O .``, ``<< s p o >> P O .``
    or ``S P << s p o >> .``, or None for any other line, including one that
    breaks a rule of the term types, such as a literal subject."""
    try:
        if len(items) == 4 and items[3] is _DOT:
            return Triple(items[0], items[1], items[2])
        if len(items) == 8 and items[7] is _DOT:
            if items[0] is _OPEN and items[4] is _CLOSE:
                return Triple(_quote(quoted, items[1], items[2], items[3]), items[5], items[6])
            if items[2] is _OPEN and items[6] is _CLOSE:
                return Triple(items[0], items[1], _quote(quoted, items[3], items[4], items[5]))
    except MalformedTermError:
        pass
    return None


class _LineParser:
    """Parses one line's tokens, for every line the direct shapes do not
    cover, and is the one source of the load's error messages. ``terms``
    and ``quoted`` are the load's tables of ``_token_term`` and ``_quote``."""

    def __init__(self, tokens: list[tuple[str, str, str | None]], line: int, terms: dict, quoted: dict):
        self.tokens = tokens
        self.pos = 0
        self.line = line
        self.depth = 0
        self.terms = terms
        self.quoted = quoted

    def take(self) -> tuple[str, str, str | None]:
        if self.pos >= len(self.tokens):
            raise GraphParseError("unexpected end of line", self.line)
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def term(self, predicate_position: bool = False) -> Term:
        kind, text, tag = self.take()
        if predicate_position and kind != "iri" and kind != "kw":
            raise GraphParseError(f"predicate must be an IRI, got {text!r}", self.line)
        if kind == "qopen":
            self.depth += 1
            if self.depth > MAX_QUOTE_DEPTH:
                raise GraphParseError(f"quoted triples nest deeper than {MAX_QUOTE_DEPTH} levels", self.line)
            s = self.term()
            p = self.term(predicate_position=True)
            o = self.term()
            self.depth -= 1
            k, t, _ = self.take()
            if k != "qclose":
                raise GraphParseError(f"expected >> to close quoted triple, got {t!r}", self.line)
            return self.built(_quote, self.quoted, s, p, o)
        if kind in ("iri", "kw", "number", "string"):
            return self.built(_token_term, self.terms, kind, text, tag)
        raise GraphParseError(f"expected a term, got {text!r}", self.line)

    def built(self, build, *args):
        """``build(*args)``, with a ``MalformedTermError`` raised on this line."""
        try:
            return build(*args)
        except MalformedTermError as exc:
            raise GraphParseError(str(exc), self.line) from None

    def triple(self) -> Triple:
        s = self.term()
        p = self.term(predicate_position=True)
        o = self.term()
        kind, text, _ = self.take()
        if kind != "dot":
            raise GraphParseError(f"expected '.' after triple, got {text!r}", self.line)
        if self.pos != len(self.tokens):
            raise GraphParseError(f"trailing content after '.': {self.tokens[self.pos][1]!r}", self.line)
        return self.built(Triple, s, p, o)


def parse_triples(text: str) -> Iterator[Triple]:
    """The triple of each line of serialized graph text, in line order.
    Blank lines and ``#`` comment lines are allowed on input (never produced
    on output). A bad line raises ``GraphParseError`` when it is reached."""
    words: dict = {}  # word -> its items, () if it does not scan alone
    terms: dict = {}
    quoted: dict = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        items = []
        for word in line.split():
            got = words.get(word)
            if got is None:
                got = words[word] = _word_items(word, terms)
            if not got:
                break
            items += got
        else:
            triple = _direct(items, quoted)
            if triple is not None:
                yield triple
                continue
        yield _LineParser(_tokenize_line(line, lineno), lineno, terms, quoted).triple()


def parse_graph(text: str) -> Graph:
    """Parse serialized graph text into a graph, as written: no spelling is
    rewritten."""
    return Graph(parse_triples(text))


def parse_term(text: str) -> Term:
    """Parse a single term written in the line syntax, e.g. ``:OEM1``,
    ``42``, ``"7"^^timestep``, or ``<< :a :b :c >>``."""
    tokens = _tokenize_line(text.strip(), 1)
    parser = _LineParser(tokens, 1, {}, {})
    term = parser.term()
    if parser.pos != len(parser.tokens):
        raise GraphParseError(f"trailing content after term: {parser.tokens[parser.pos][1]!r}", 1)
    return term
