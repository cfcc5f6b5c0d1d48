from hypothesis import given, settings
from hypothesis import strategies as st

from supplykg.graph import Graph
from supplykg.terms import (
    Iri,
    Quoted,
    Triple,
    TriplePattern,
    Variable,
    format_triple,
    integer,
    string,
)

from strategies import full_scan, probes


def t(s, p, o):
    return Triple(Iri(s), Iri(p), Iri(o) if isinstance(o, str) else o)


def test_set_semantics():
    g = Graph()
    assert g.insert(t("a", "p", "b")) is True
    assert g.insert(t("a", "p", "b")) is False
    assert len(g) == 1
    assert t("a", "p", "b") in g
    assert g.remove(t("a", "p", "b")) is True
    assert g.remove(t("a", "p", "b")) is False
    assert len(g) == 0


def test_iteration_order_is_canonical_not_insertion():
    g1 = Graph([t("b", "p", "x"), t("a", "p", "x")])
    g2 = Graph([t("a", "p", "x"), t("b", "p", "x")])
    assert g1.triples() == g2.triples()
    assert [format_triple(x) for x in g1.triples()] == [":a :p :x .", ":b :p :x ."]


def test_match_basic_and_order():
    g = Graph([t("n2", "p", "v"), t("n1", "p", "v"), t("n1", "q", "v")])
    rows = g.match(TriplePattern(Variable("s"), Iri("p"), Variable("o")))
    assert [r["s"] for r in rows] == [Iri("n1"), Iri("n2")]
    rows = g.match(TriplePattern(Variable("s"), Variable("p"), Variable("o")))
    assert len(rows) == 3
    assert g.match(TriplePattern(Iri("absent"), Variable("p"), Variable("o"))) == []


def test_match_with_prior_bindings():
    g = Graph([t("n1", "p", "v"), t("n2", "p", "v")])
    rows = g.match(TriplePattern(Variable("s"), Iri("p"), Variable("o")), {"s": Iri("n2")})
    assert len(rows) == 1
    assert rows[0]["s"] == Iri("n2")


def test_match_quoted_positions():
    inner = Triple(Iri("SP1"), Iri("needsNode"), Iri("N1"))
    g = Graph(
        [
            Triple(Quoted(inner), Iri("hasQuantity"), integer(40)),
            t("SP1", "other", "x"),
        ]
    )
    # ground quoted subject goes through the subject index
    rows = g.match(TriplePattern(Quoted(inner), Iri("hasQuantity"), Variable("q")))
    assert [r["q"] for r in rows] == [integer(40)]
    # quoted pattern with variables scans and unifies inside
    rows = g.match(
        TriplePattern(
            TriplePattern(Variable("sp"), Iri("needsNode"), Variable("n")),
            Variable("p"),
            Variable("q"),
        )
    )
    assert len(rows) == 1
    assert rows[0]["n"] == Iri("N1")


def test_value_helpers():
    g = Graph([t("a", "p", "b"), t("a", "q", "c"), t("d", "p", "b")])
    assert g.objects(Iri("a"), Iri("p")) == [Iri("b")]
    assert g.subjects(Iri("p"), Iri("b")) == [Iri("a"), Iri("d")]


def test_copy_is_independent():
    g = Graph([t("a", "p", "b")])
    h = g.copy()
    h.insert(t("c", "p", "d"))
    h.remove(t("a", "p", "b"))
    assert len(g) == 1 and t("a", "p", "b") in g
    assert len(h) == 1 and t("c", "p", "d") in h


# -- randomized checks -------------------------------------------------------

_iris = st.sampled_from([Iri(n) for n in ("a", "b", "c", "p", "q", "r")])
_objects = st.one_of(_iris, st.integers(-3, 3).map(integer), st.sampled_from(["x", "y"]).map(string))
_plain = st.builds(Triple, _iris, _iris, _objects)
_triples = st.one_of(_plain, st.builds(lambda i, p, o: Triple(Quoted(i), p, o), _plain, _iris, _objects))


@settings(max_examples=200, deadline=None)
@given(st.lists(_triples, max_size=30), st.lists(st.integers(0, 2**30), max_size=10))
def test_index_coherence_under_churn(triples, removal_picks):
    """Insert everything, remove a pseudo-random subset, and require the
    indices to agree with a straight set."""
    g = Graph()
    expected = set()
    for x in triples:
        g.insert(x)
        expected.add(x)
    pool = sorted(expected, key=format_triple)
    for pick in removal_picks:
        if not pool:
            break
        victim = pool.pop(pick % len(pool))
        assert g.remove(victim) is True
        expected.discard(victim)
    assert set(g.triples()) == expected
    assert len(g) == len(expected)
    # every surviving triple is reachable through each index
    for x in expected:
        assert g.match(TriplePattern(x.subject, x.predicate, x.object)) != []


# Pattern positions share two variable names so repeats (?x :p ?x) occur;
# quoted patterns put variables inside << >>.
_vars = st.sampled_from([Variable("x"), Variable("y")])
_plain_pattern = st.builds(TriplePattern, st.one_of(_iris, _vars), st.one_of(_iris, _vars), st.one_of(_objects, _vars))
_subject_pos = st.one_of(_iris, _vars, _plain_pattern, _plain.map(Quoted))
_object_pos = st.one_of(_objects, _vars, _plain_pattern)
_patterns = st.builds(TriplePattern, _subject_pos, st.one_of(_iris, _vars), _object_pos)
# Bound values include literals, which are ill-typed for a subject or
# predicate variable, and quoted triples; "z" occurs in no pattern.
_bindings = st.one_of(
    st.none(),
    st.dictionaries(st.sampled_from(["x", "y", "z"]), st.one_of(_objects, _plain.map(Quoted)), max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_triples, max_size=25), _patterns, _bindings)
def test_match_agrees_with_full_scan(triples, pat, bindings):
    g = Graph(triples)
    assert g.match(pat, bindings) == full_scan(pat, triples, bindings)


_ops = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 1), _triples),
    st.tuples(st.just("remove"), st.integers(0, 1), st.integers(0, 2**30)),
    st.tuples(st.just("copy"), st.integers(0, 1)),
    st.tuples(st.just("match"), st.integers(0, 1), _patterns, _bindings),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_triples, max_size=15), st.lists(_ops, max_size=30))
def test_match_after_churn_on_a_graph_and_its_copy(initial, ops):
    """The cached bucket order must follow every write, in the graph that
    was written and in no other. Each write is surrounded by reads of the
    buckets it touches, first in the graph written, then in the other one,
    so a stale or shared cache entry shows."""
    graphs = [Graph(initial), None]
    graphs[1] = graphs[0].copy()
    contents = [set(initial), set(initial)]

    def check(i, pat, bindings=None):
        expected = full_scan(pat, contents[i], bindings)
        assert graphs[i].match(pat, bindings) == expected

    for op, i, *args in ops:
        g, content = graphs[i], contents[i]
        if op == "match":
            check(i, *args)
            continue
        if op == "copy":
            graphs[1 - i] = g.copy()
            contents[1 - i] = set(content)
            continue
        if op == "insert":
            target = args[0]
        elif content:
            target = sorted(content, key=format_triple)[args[0] % len(content)]
        else:
            continue
        for pat in probes(target):
            check(i, pat)
            check(1 - i, pat)
        if op == "insert":
            assert g.insert(target) is (target not in content)
            content.add(target)
        else:
            assert g.remove(target) is True
            content.discard(target)
        for pat in probes(target):
            check(i, pat)
            check(1 - i, pat)
    for g, content in zip(graphs, contents):
        assert g.triples() == sorted(content, key=format_triple)
