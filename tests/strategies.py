"""Shared hypothesis strategies for graph and term generation, and the
full-scan oracle that ``Graph.match`` is checked against."""

import string as _string

from hypothesis import strategies as st

from supplykg.graph import Graph
from supplykg.terms import Iri, Literal, Quoted, Triple, TriplePattern, Variable, format_triple, unify

_name_head = _string.ascii_letters + "_"
_name_tail = _name_head + _string.digits + ".:-"

iri_names = st.builds(
    lambda head, tail: (head + tail).rstrip("."),
    st.sampled_from(list(_name_head)),
    st.text(alphabet=_name_tail, max_size=12),
).map(lambda n: n or "x")

iris = st.builds(Iri, iri_names)

literals = st.one_of(
    st.integers(-(10**12), 10**12).map(lambda v: Literal(v, "integer")),
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(lambda v: Literal(v, "decimal")),
    st.text(max_size=20).map(lambda v: Literal(v, "string")),
    st.booleans().map(lambda v: Literal(v, "boolean")),
    st.integers(0, 10**6).map(lambda v: Literal(v, "timestep")),
)


def _triples(subject_strategy):
    return st.builds(Triple, subject_strategy, iris, st.one_of(iris, literals, subject_strategy.map(_quote_if_triple)))


def _quote_if_triple(x):
    return Quoted(x) if isinstance(x, Triple) else x


plain_triples = st.builds(Triple, iris, iris, st.one_of(iris, literals))

triples = st.recursive(
    plain_triples,
    lambda inner: st.builds(
        Triple,
        st.one_of(iris, inner.map(Quoted)),
        iris,
        st.one_of(iris, literals, inner.map(Quoted)),
    ),
    max_leaves=4,
)

graphs = st.lists(triples, max_size=40).map(Graph)


def full_scan(pattern, triples, bindings=None):
    """What ``Graph.match`` must return over ``triples``: every solution,
    found by unifying the pattern with each triple in canonical order."""
    return [b for x in sorted(set(triples), key=format_triple) if (b := unify(pattern, x, bindings)) is not None]


def probes(triple):
    """One pattern per position of the triple, the others left open, so that
    each of the three index buckets the triple sits in gets read, and one
    with every position open, which reads the whole graph's order."""
    s, p, o = Variable("s"), Variable("p"), Variable("o")
    return [
        TriplePattern(triple.subject, p, o),
        TriplePattern(s, triple.predicate, o),
        TriplePattern(s, p, triple.object),
        TriplePattern(s, p, o),
    ]
