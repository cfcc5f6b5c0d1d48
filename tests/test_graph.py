import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supplykg import schema
from supplykg import vocab as v
from supplykg.analytics import build_report
from supplykg.fulfillment import Simulation
from supplykg.generator import automotive, generate
from supplykg.graph import Graph
from supplykg.query import evaluate, parse_query
from supplykg.terms import (
    Iri,
    Quoted,
    Triple,
    TriplePattern,
    Variable,
    format_triple,
    integer,
    string,
    timestep,
)
from supplykg.validation import validate

from strategies import full_scan, probes, solutions


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


def test_triples_returns_a_list_the_caller_owns():
    g = Graph([t("a", "p", "b")])
    listed = g.triples()
    listed.clear()
    assert g.triples() == [t("a", "p", "b")]
    assert list(g) == [t("a", "p", "b")]
    assert len(g) == 1


def test_match_basic():
    triples = [t("n2", "p", "v"), t("n1", "p", "v"), t("n1", "q", "v")]
    g = Graph(triples)
    for pat in (
        TriplePattern(Variable("s"), Iri("p"), Variable("o")),
        TriplePattern(Variable("s"), Variable("p"), Variable("o")),
    ):
        assert solutions(g.match(pat)) == full_scan(pat, triples)
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
    # the store keeps no order, so both sort what they read, by text: the
    # integer 10 comes before 9
    names = [f"n{i}" for i in range(20)]
    values = [Iri(n) for n in names] + [integer(9), integer(10)]
    g = Graph([t(n, "p", "b") for n in reversed(names)] + [t("a", "p", x) for x in reversed(values)])
    assert g.subjects(Iri("p"), Iri("b")) == [Iri(n) for n in sorted(names)]
    assert g.objects(Iri("a"), Iri("p")) == [integer(10), integer(9)] + [Iri(n) for n in sorted(names)]


@pytest.mark.parametrize(
    "x",
    ["a", None, TriplePattern(Iri("a"), Iri("p"), Iri("b")), TriplePattern(Variable("s"), Iri("p"), Iri("b"))],
    ids=["str", "None", "ground pattern", "pattern"],
)
def test_anything_but_a_triple_is_not_in_the_graph(x):
    g = Graph([t("a", "p", "b")])
    assert (x in g) is False
    assert g.remove(x) is False
    assert g.triples() == [t("a", "p", "b")]


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


def assert_reads(g, content, universe):
    """Every read of ``g`` but ``match`` agrees with the model set ``content``:
    the length, the snapshot, each index's terms and buckets, membership of
    each triple of ``universe``, and removing one that is absent, which must
    change nothing."""
    assert len(g) == len(content)
    assert set(g.snapshot()) == content
    for position in range(3):
        buckets = {}
        for x in content:
            buckets.setdefault((x.subject, x.predicate, x.object)[position], set()).add(x)
        keys = g.keys(position)
        assert len(keys) == len(buckets) and set(keys) == set(buckets)
        for term in {(x.subject, x.predicate, x.object)[position] for x in universe}:
            bucket = g.about(position, term)
            assert len(bucket) == len(buckets.get(term, ())) and set(bucket) == buckets.get(term, set())
    for x in universe:
        assert (x in g) is (x in content)
        if x not in content:
            assert g.remove(x) is False
    assert len(g) == len(content)


@settings(max_examples=200, deadline=None)
@given(st.lists(_triples, max_size=30), st.lists(st.integers(0, 2**30), max_size=10))
def test_index_coherence_under_churn(triples, removal_picks):
    """Insert everything, remove a pseudo-random subset, and require the
    indices to agree with a straight set after every write, in the graph
    and in a copy of it taken before the removals."""
    g = Graph()
    expected = set()
    for x in triples:
        assert g.insert(x) is (x not in expected)
        expected.add(x)
        assert_reads(g, expected, triples)
    h, kept = g.copy(), set(expected)
    pool = sorted(expected, key=format_triple)
    for pick in removal_picks:
        if not pool:
            break
        victim = pool.pop(pick % len(pool))
        assert g.remove(victim) is True
        expected.discard(victim)
        assert_reads(g, expected, triples)
        assert_reads(h, kept, triples)
    assert set(g.triples()) == expected
    # every surviving triple is reachable through each index
    for x in expected:
        assert g.match(TriplePattern(x.subject, x.predicate, x.object)) != []


# Pattern positions share two variable names so repeats (?x :p ?x) occur;
# quoted patterns put variables inside << >>.
# A literal subject or predicate is allowed in a pattern, at the top level
# and nested, and matches nothing.
_vars = st.sampled_from([Variable("x"), Variable("y")])
_literals = st.one_of(st.integers(-3, 3).map(integer), st.sampled_from(["x", "y"]).map(string))
_predicate_pos = st.one_of(_iris, _vars, _literals)
_plain_pattern = st.builds(TriplePattern, st.one_of(_iris, _vars, _literals), _predicate_pos, st.one_of(_objects, _vars))
_subject_pos = st.one_of(_iris, _vars, _literals, _plain_pattern, _plain.map(Quoted))
_object_pos = st.one_of(_objects, _vars, _plain_pattern)
_patterns = st.builds(TriplePattern, _subject_pos, _predicate_pos, _object_pos)
# Bound values include literals, which are ill-typed for a subject or
# predicate variable, and quoted triples; "z" occurs in no pattern.
_bindings = st.one_of(
    st.none(),
    st.dictionaries(st.sampled_from(["x", "y", "z"]), st.one_of(_objects, _plain.map(Quoted)), max_size=3),
)


_X, _Y = Variable("x"), Variable("y")
_QUOTED = [
    Triple(Quoted(t("a", "p", "b")), Iri("q"), Iri("b")),
    Triple(Quoted(t("a", "p", "b")), Iri("q"), Iri("c")),
    Triple(Quoted(t("c", "p", "b")), Iri("q"), Iri("b")),
    Triple(Iri("b"), Iri("q"), Quoted(t("a", "p", "b"))),
    t("a", "p", "a"),
    t("a", "p", "b"),
]
# The matcher decides per call how it reads each position; these are the
# patterns where that is more than a bind or a compare.
_READINGS = [
    # a repeated variable
    (TriplePattern(_X, Iri("p"), _X), None, [{"x": Iri("a")}]),
    # a nested pattern that shares a variable with the outer position
    (TriplePattern(TriplePattern(_X, Iri("p"), _Y), Iri("q"), _Y), None, [{"x": Iri("a"), "y": Iri("b")}, {"x": Iri("c"), "y": Iri("b")}]),
    (TriplePattern(_Y, Iri("q"), TriplePattern(_X, Iri("p"), _Y)), None, [{"y": Iri("b"), "x": Iri("a")}]),
    # prior bindings that bind a nested position
    (TriplePattern(TriplePattern(_X, Iri("p"), _Y), Iri("q"), _Y), {"x": Iri("c")}, [{"x": Iri("c"), "y": Iri("b")}]),
    (TriplePattern(TriplePattern(_X, Iri("p"), Iri("b")), _Y, Iri("c")), {"x": Iri("a"), "z": Iri("r")}, [{"x": Iri("a"), "z": Iri("r"), "y": Iri("q")}]),
]


@pytest.mark.parametrize("pat, bindings, expected", _READINGS, ids=["repeat", "shared", "shared-later", "bound-nested", "bound-nested-ground"])
def test_match_reads_repeats_and_nested_positions(pat, bindings, expected):
    rows = Graph(_QUOTED).match(pat, bindings)
    assert solutions(rows) == solutions(expected) == full_scan(pat, _QUOTED, bindings)  # the order of the keys too


@settings(max_examples=300, deadline=None)
@given(st.lists(_triples, max_size=25), _patterns, _bindings)
@example(_QUOTED, *_READINGS[0][:2])
@example(_QUOTED, *_READINGS[1][:2])
@example(_QUOTED, *_READINGS[3][:2])
# bound in all three positions, by constants or a binding: the smallest
# bucket holds two triples, of which the pattern spells one
@example(_QUOTED, TriplePattern(Iri("a"), Iri("p"), Iri("b")), None)
@example(_QUOTED, TriplePattern(_X, Iri("p"), Iri("b")), {"x": Iri("a")})
def test_match_agrees_with_full_scan(triples, pat, bindings):
    g = Graph(triples)
    assert solutions(g.match(pat, bindings)) == full_scan(pat, triples, bindings)


_ops = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 1), _triples),
    st.tuples(st.just("remove"), st.integers(0, 1), st.integers(0, 2**30)),
    st.tuples(st.just("copy"), st.integers(0, 1)),
    st.tuples(st.just("match"), st.integers(0, 1), _patterns, _bindings),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_triples, max_size=15), st.lists(_ops, max_size=30))
def test_match_after_churn_on_a_graph_and_its_copy(initial, ops):
    """Every write shows in the graph that was written and in no other.
    Each write is surrounded by reads of the buckets it touches, first in
    the graph written, then in the other one, so a bucket that a copy
    shares with its original shows."""
    graphs = [Graph(initial), None]
    graphs[1] = graphs[0].copy()
    contents = [set(initial), set(initial)]
    universe = set(initial)  # every triple either graph has held

    def check(i, pat, bindings=None):
        assert solutions(graphs[i].match(pat, bindings)) == full_scan(pat, contents[i], bindings)

    for op, i, *args in ops:
        g, content = graphs[i], contents[i]
        if op == "match":
            check(i, *args)
            continue
        if op == "copy":
            graphs[1 - i] = g.copy()
            contents[1 - i] = set(content)
            for j in (0, 1):
                assert_reads(graphs[j], contents[j], universe)
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
        universe.add(target)
        for j in (0, 1):
            assert_reads(graphs[j], contents[j], universe)
        for pat in probes(target):
            check(i, pat)
            check(1 - i, pat)
    for g, content in zip(graphs, contents):
        assert g.triples() == sorted(content, key=format_triple)


_CUSTOMER_TOTALS = (
    "SELECT ?c (SUM(?q) AS ?total) WHERE { ?o :hasQuantity ?q . ?c :makes ?o . ?c a :Customer . } GROUP BY ?c"
)
_DUE = "SELECT ?o WHERE { ?o :hasDeliveryTime ?dt . FILTER (?dt - lt = t) . }"


def test_match_reads_each_pattern_once(monkeypatch):
    """``Graph.match`` reads a pattern in one walk and builds no narrowed
    copy of it for the rows it is matched under: evaluating the customer
    totals query builds at most one ``TriplePattern`` per query pattern
    (its parameters substituted)."""
    graph = generate(automotive())
    query = parse_query(_CUSTOMER_TOTALS)
    built = [0]
    post_init = TriplePattern.__post_init__

    def counting(self):
        built[0] += 1
        post_init(self)

    monkeypatch.setattr(TriplePattern, "__post_init__", counting)
    table = evaluate(query, graph)
    monkeypatch.setattr(TriplePattern, "__post_init__", post_init)
    assert table.rows
    assert built[0] <= len(query.patterns) == 3


def _scaled(k):
    """The automotive preset with every tier width and the demand frequency
    multiplied by ``k``."""
    config = automotive()
    return dataclasses.replace(
        config,
        supplier_tier_nodes=tuple(n * k for n in config.supplier_tier_nodes),
        customer_tier_nodes=tuple(n * k for n in config.customer_tier_nodes),
        demand_frequency=config.demand_frequency * k,
    )


def test_candidates_scanned_per_order_stay_flat_in_scale(monkeypatch):
    """Near-linear scaling as a counted contract: the candidates that
    ``Graph._candidates`` returns, with the triples of each unordered bucket
    read (``about``) and the terms of each index read (``keys``), per order
    must not grow by more than half from k=1 (136 orders) to k=4 (2,128),
    for each stage below. The counts are deterministic, so the test cannot
    flake.

    - the customer totals query on the generated graph. Its last step is
      ground once ``?c`` and ``?o`` are bound, and costs one membership
      test; scanning the customer's bucket instead grows with the
      customer's orders;
    - ``validate`` and ``build_report(t=0)`` on the simulated graph;
    - the due lookups ``?o :hasDeliveryTime ?dt . FILTER (?dt - lt = t)``
      for every step t of the horizon, with ``lt`` the OEM's lead time, on
      the simulated graph. A scan of every delivery time costs orders ×
      horizon, which is flat per order, so these also have an absolute
      bound: at most 10 candidates per order at each scale (a scan reads
      about 200).

    The due lookups' filter is solved into index probes, so they read
    about 7 and 6 candidates per order."""
    scanned = [0]

    def counted(read):
        def wrapper(self, *args):
            found = read(self, *args)
            scanned[0] += len(found)
            return found

        return wrapper

    def count(stage):
        scanned[0] = 0
        stage()
        return scanned[0]

    for name in ("_candidates", "about", "keys"):
        monkeypatch.setattr(Graph, name, counted(getattr(Graph, name)))
    query = parse_query(_CUSTOMER_TOTALS)
    due = parse_query(_DUE, params=["lt", "t"])
    per_order = {}
    for k in (1, 4):
        config = _scaled(k)
        graph = generate(config)
        orders = len(graph.subjects(v.RDF_TYPE, v.ORDER))
        counts = {"customer totals": count(lambda: evaluate(query, graph))}
        Simulation(graph).run(config.horizon)
        counts["validate"] = count(lambda: validate(graph))
        counts["build_report"] = count(lambda: build_report(graph, t=0))
        lead = integer(schema.node(graph, schema.the_oem(graph)).delivery_time)
        counts["due lookups"] = count(
            lambda: [evaluate(due, graph, {"lt": lead, "t": timestep(t)}) for t in range(config.horizon)]
        )
        for stage, n in counts.items():
            per_order.setdefault(stage, []).append(n / orders)
    for stage, (small, large) in per_order.items():
        assert large <= 1.5 * small, (stage, per_order)
    assert max(per_order["due lookups"]) <= 10, per_order
