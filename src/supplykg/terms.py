"""Term and triple model for the knowledge graph.

Terms come in four kinds: IRIs (named resources), literals (typed values),
variables (query placeholders), and quoted triples (a whole triple used as a
term, so statements can be made about statements). Ground triples may not
contain variables; patterns may, and parameters (``ParamRef``, named values
a query is given when it runs) and nested patterns too. All term types are
immutable and hashable, and every term has a canonical text form
(``format_term``) which doubles as the deterministic sort key used across
the package.

``Triple`` and ``Quoted`` compute their hash once, when built, and keep it
in a field that takes no part in equality or ``repr``; the graph's set and
index lookups then never re-hash a triple's parts. Both pickle by their
parts, so a loaded term hashes afresh under the loading process's string
hash seed. ``Iri`` and ``Literal`` hash on demand: an eager hash would
double the cost of building one, and the literals a query builds for its
result cells are seldom hashed. One load of graph text builds one ``Iri``
or ``Literal`` per distinct token, from the items of a per-load word table,
and one ``Quoted`` per distinct quoted triple, from a per-load table keyed
on its parts. A bare number in graph or query text means what
``number_literal`` says.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from typing import Union

# literal datatypes
INTEGER = "integer"
DECIMAL = "decimal"
STRING = "string"
BOOLEAN = "boolean"
TIMESTEP = "timestep"

# literal datatype -> the test its value passes
_VALUE_CHECKS = {
    INTEGER: lambda v: type(v) is int,
    DECIMAL: lambda v: type(v) is float and math.isfinite(v),
    STRING: lambda v: type(v) is str,
    BOOLEAN: lambda v: type(v) is bool,
    TIMESTEP: lambda v: type(v) is int and v >= 0,
}

# The deepest ``<< ... >>`` nesting the graph and query parsers accept, far
# below the depth at which their recursion would exhaust the Python stack.
MAX_QUOTE_DEPTH = 32

# Name syntax, shared by the term constructors and both tokenizers. An IRI
# name is stricter than "no whitespace": it is what the serializer can
# round-trip unescaped and what the query lexer can re-read. It never ends
# with "." or the statement terminator would become ambiguous. Variable and
# parameter names have no hyphen, so ``?dt-lt`` reads as ``?dt - lt``.
IRI_CHAR = r"[A-Za-z0-9_.:-]"
IRI_NAME = rf"[A-Za-z_]{IRI_CHAR}*(?<!\.)"
VAR_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_IRI_NAME = re.compile(IRI_NAME)
_VAR_NAME = re.compile(VAR_NAME)


class MalformedTermError(ValueError):
    """Raised when a term or triple is constructed with invalid parts."""


@dataclass(frozen=True, slots=True)
class Iri:
    name: str

    def __post_init__(self) -> None:
        if not _IRI_NAME.fullmatch(self.name):
            raise MalformedTermError(f"invalid IRI name: {self.name!r}")


@dataclass(frozen=True, slots=True)
class Literal:
    """A typed value. Two literals are equal when their canonical texts are,
    so a decimal zero's sign counts; queries compare numbers by value."""

    value: Union[int, float, str, bool]
    datatype: str

    def __post_init__(self) -> None:
        check = _VALUE_CHECKS.get(self.datatype)
        if check is None:
            raise MalformedTermError(f"unknown datatype: {self.datatype!r}")
        if not check(self.value):
            raise MalformedTermError(f"bad {self.datatype} literal value: {self.value!r}")

    def __eq__(self, other):
        if other.__class__ is not Literal:
            return NotImplemented
        a, b = self.value, other.value
        return a == b and self.datatype == other.datatype and (a != 0 or math.copysign(1, a) == math.copysign(1, b))


def integer(value: int) -> Literal:
    return Literal(value, INTEGER)


def decimal(value: float) -> Literal:
    return Literal(float(value), DECIMAL)


def string(value: str) -> Literal:
    return Literal(value, STRING)


def boolean(value: bool) -> Literal:
    return Literal(value, BOOLEAN)


def timestep(value: int) -> Literal:
    """A point on the discrete simulation clock. Distinct from plain integers
    so that durations and instants cannot be silently conflated."""
    return Literal(value, TIMESTEP)


_BOOL_LEXICALS = {"true": True, "false": False}


def typed_literal(body: str, tag: str) -> Literal:
    """The literal that ``"body"^^tag`` denotes; booleans take either case.
    Raises ``MalformedTermError`` on an unknown tag or a bad lexical form."""
    # Each branch stores the module's own datatype constant, not ``tag``: all
    # literals then share one string per datatype, which saves memory and
    # lets datatype comparisons succeed on identity.
    try:
        if tag == INTEGER:
            return Literal(int(body), INTEGER)
        if tag == TIMESTEP:
            return Literal(int(body), TIMESTEP)
        if tag == DECIMAL:
            return Literal(float(body), DECIMAL)
        if tag == BOOLEAN:
            return Literal(_BOOL_LEXICALS[body.lower()], BOOLEAN)
        if tag == STRING:
            return Literal(body, STRING)
    except (KeyError, ValueError):
        raise MalformedTermError(f"bad {tag} literal {body!r}") from None
    raise MalformedTermError(f"unknown datatype tag ^^{tag}")


_INTEGRAL = re.compile(r"[+-]?\d+")


def number_literal(text: str) -> Literal:
    """The literal a bare number spells: an integer when it is all digits
    after its sign, else a decimal. Raises ``MalformedTermError`` on an
    integer with more digits than Python reads (4,300 unless set
    otherwise) or a decimal too large for a float, such as ``1e999``."""
    if not _INTEGRAL.fullmatch(text):
        return Literal(float(text), DECIMAL)
    try:
        return Literal(int(text), INTEGER)
    except ValueError:
        digits = len(text.lstrip("+-"))
        raise MalformedTermError(
            f"integer literal has {digits} digits, more than the {sys.get_int_max_str_digits()} allowed"
        ) from None


@dataclass(frozen=True, slots=True)
class Variable:
    name: str

    def __post_init__(self) -> None:
        if not _VAR_NAME.fullmatch(self.name):
            raise MalformedTermError(f"invalid variable name: {self.name!r}")


@dataclass(frozen=True, slots=True)
class ParamRef:
    """A named parameter, replaced by the value a query is evaluated with."""

    name: str


@dataclass(frozen=True, slots=True)
class Quoted:
    """A ground triple used as a term."""

    triple: "Triple"
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.triple, Triple):
            raise MalformedTermError("Quoted wraps a ground Triple")
        object.__setattr__(self, "_hash", hash((self.triple,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Quoted, (self.triple,)


Term = Union[Iri, Literal, Quoted]

_SUBJECT_KINDS = (Iri, Quoted)
_OBJECT_KINDS = (Iri, Literal, Quoted)


@dataclass(frozen=True, slots=True)
class Triple:
    subject: Union[Iri, Quoted]
    predicate: Iri
    object: Term
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.subject, _SUBJECT_KINDS):
            raise MalformedTermError(f"triple subject must be an IRI or quoted triple, got {self.subject!r}")
        if not isinstance(self.predicate, Iri):
            raise MalformedTermError(f"triple predicate must be an IRI, got {self.predicate!r}")
        if not isinstance(self.object, _OBJECT_KINDS):
            raise MalformedTermError(f"triple object must be a term, got {self.object!r}")
        object.__setattr__(self, "_hash", hash((self.subject, self.predicate, self.object)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Triple, (self.subject, self.predicate, self.object)


# Pattern positions additionally admit variables, parameters and nested
# patterns (a TriplePattern in subject/object position matches quoted
# triples).
PatternTerm = Union[Iri, Literal, Quoted, Variable, ParamRef, "TriplePattern"]


@dataclass(frozen=True, slots=True)
class TriplePattern:
    """A triple pattern. Any pattern term may stand in any position; one that
    no triple can hold there, such as a literal subject, matches nothing."""

    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

    def __post_init__(self) -> None:
        for pos in (self.subject, self.predicate, self.object):
            if not isinstance(pos, _PATTERN_KINDS):
                raise MalformedTermError(f"invalid pattern position: {pos!r}")

    def leaves(self):
        """The positions' terms in subject, predicate, object order, each
        nested pattern replaced by its own leaves."""
        for t in (self.subject, self.predicate, self.object):
            if isinstance(t, TriplePattern):
                yield from t.leaves()
            else:
                yield t

    def variables(self) -> list[str]:
        """Variable names in first-appearance order."""
        seen: list[str] = []
        for t in self.leaves():
            if isinstance(t, Variable) and t.name not in seen:
                seen.append(t.name)
        return seen


_PATTERN_KINDS = (Iri, Literal, Quoted, Variable, ParamRef, TriplePattern)


# ---------------------------------------------------------------------------
# canonical text forms


# A string literal's canonical escapes, the one table both directions use.
# Besides the control characters, str.splitlines() breaks lines at U+0085,
# U+2028 and U+2029, so they are escaped too: one serialized triple is
# always one line.
_ESCAPES = str.maketrans(
    {chr(c): f"\\u{c:04x}" for c in (*range(0x20), 0x85, 0x2028, 0x2029)}
    | {ch: "\\" + e for ch, e in zip('\\"\n\r\t', '\\"nrt')}
)
_ESCAPE = re.compile(r"\\(u[0-9a-fA-F]{4}|.)")
_UNESCAPES = {e[1]: chr(c) for c, e in _ESCAPES.items() if e[1] != "u"}


def unescape_string(body: str) -> str:
    """Decode the backslash escapes of a string literal's body, the inverse of
    its canonical form. Raises ``MalformedTermError`` on an unknown escape."""

    def repl(m: re.Match) -> str:
        e = m.group(1)
        if e.startswith("u"):
            return chr(int(e[1:], 16))
        if e in _UNESCAPES:
            return _UNESCAPES[e]
        raise MalformedTermError(f"unknown escape \\{e} in string")

    return _ESCAPE.sub(repl, body)


def format_term(term) -> str:
    """Canonical single-line text form of any term or pattern term."""
    if isinstance(term, Iri):
        return ":" + term.name
    if isinstance(term, Variable):
        return "?" + term.name
    if isinstance(term, (Quoted, TriplePattern)):
        t = term.triple if isinstance(term, Quoted) else term
        return f"<< {format_term(t.subject)} {format_predicate(t.predicate)} {format_term(t.object)} >>"
    if isinstance(term, Literal):
        dt, v = term.datatype, term.value
        if dt == INTEGER:
            return str(v)
        if dt == DECIMAL:
            return repr(v)
        if dt == STRING:
            return f'"{v.translate(_ESCAPES)}"'
        if dt == BOOLEAN:
            return f'"{"True" if v else "False"}"^^boolean'
        if dt == TIMESTEP:
            return f'"{v}"^^timestep'
    if isinstance(term, ParamRef):
        return term.name
    raise TypeError(f"not a term: {term!r}")


def format_predicate(p) -> str:
    # rdf:type gets the customary shorthand
    if isinstance(p, Iri) and p.name == "rdf:type":
        return "a"
    return format_term(p)


def format_triple(t: Triple | TriplePattern) -> str:
    """Canonical line of a triple, or of a triple pattern in query text."""
    return f"{format_term(t.subject)} {format_predicate(t.predicate)} {format_term(t.object)} ."


# ---------------------------------------------------------------------------
# patterns


def substitute(pattern: TriplePattern, params: dict[str, Term]) -> TriplePattern:
    """Replace parameters in a pattern with their values in ``params``; the
    rest stay. Variables are read from bindings by ``to_ground`` and
    ``Graph.match``, not substituted."""

    def sub(t: PatternTerm) -> PatternTerm:
        if isinstance(t, TriplePattern):
            return TriplePattern(sub(t.subject), sub(t.predicate), sub(t.object))
        if isinstance(t, ParamRef):
            return params.get(t.name, t)
        return t

    return TriplePattern(sub(pattern.subject), sub(pattern.predicate), sub(pattern.object))


def to_ground(pattern: TriplePattern, bindings: dict[str, Term] | None = None) -> Triple | None:
    """The ground Triple a pattern spells, its variables read from ``bindings``,
    or None if one is unbound, it has parameters or no triple holds its terms."""

    def conv(t: PatternTerm):
        if isinstance(t, Variable):
            return None if bindings is None else bindings.get(t.name)
        if isinstance(t, TriplePattern):
            g = to_ground(t, bindings)
            return Quoted(g) if g is not None else None
        return t

    s, p, o = conv(pattern.subject), conv(pattern.predicate), conv(pattern.object)
    if s is None or p is None or o is None:
        return None
    try:
        return Triple(s, p, o)
    except MalformedTermError:
        return None
