"""Typed views over domain graphs: normalization, projection, round trips."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import full_scan, iri_names, probes, solutions
from supplykg import Graph, Iri, Quoted, Triple, integer, serialize, string, timestep
from supplykg.fulfillment import Simulation
from supplykg.generator import automotive, dairy, generate
from supplykg.query import evaluate, parse_query
from supplykg.schema import (
    INVENTORY_SHAPE,
    NODE_SHAPE,
    ORDER_SHAPE,
    SHAPES,
    MissingEntityError,
    holds,
    _TierField,
    bom,
    capacity_by_step,
    capacity_records,
    current_inventory,
    due_schedule,
    load_graph,
    node,
    nodes_of_kind,
    normalize,
    orders,
    the_oem,
)
from supplykg import vocab as v
from supplykg.terms import BOOLEAN, STRING, TIMESTEP, format_triple


def tr(s, p, o):
    return Triple(Iri(s), Iri(p), o if not isinstance(o, str) else Iri(o))


@pytest.fixture(scope="module")
def preset_graphs(simulated_automotive):
    """Both presets as generated and after a full simulation; read-only."""
    simulated_dairy = generate(dairy())
    Simulation(simulated_dairy).run(dairy().horizon)
    return {
        "automotive": generate(automotive()),
        "simulated automotive": simulated_automotive[0],
        "dairy": generate(dairy()),
        "simulated dairy": simulated_dairy,
    }


def triples_by_subject(graph):
    out = {}
    for t in graph.triples():
        out.setdefault(t.subject, set()).add(t)
    return out


# --- normalization ---

def test_normalize_rewrites_legacy_predicates():
    assert normalize(tr("A", "hasLeadTime", integer(4))) == Triple(Iri("A"), v.HAS_DELIVERY_TIME, integer(4))
    assert normalize(tr("Car", "needsComponent", "Wheel")) == Triple(Iri("Car"), v.NEEDS_PRODUCT, Iri("Wheel"))


def test_normalize_rewrites_inside_quoted_terms():
    inner = Triple(Iri("Car"), Iri("needsComponent"), Iri("Wheel"))
    want = Triple(
        Quoted(Triple(Iri("Car"), v.NEEDS_PRODUCT, Iri("Wheel"))),
        v.NEEDS_QUANTITY,
        integer(4),
    )
    assert normalize(Triple(Quoted(inner), Iri("hasComponentQuantity"), integer(4))) == want


def test_normalize_folds_quantity_units():
    assert normalize(tr("Inv1", "hasQuantity", string("10m"))).object == integer(10)
    assert normalize(tr("Inv2", "hasQuantity", string("100 unit"))).object == integer(100)
    assert normalize(tr("Inv3", "hasQuantity", string("7 units"))).object == integer(7)


def test_normalize_leaves_other_strings_alone():
    # a unit after a final newline, or a non-ASCII digit, is no quantity spelling
    for triple in (
        tr("N", "hasTransportMode", string("road")),
        tr("N", "hasQuantity", string("plenty")),
        tr("N", "hasQuantity", string("10m\n")),
        tr("N", "hasQuantity", string("\u0663m")),
    ):
        assert normalize(triple) is triple


# Graphs that mix legacy spellings with their canonical twins: the alias
# predicates (also inside quoted terms) next to the names they stand for,
# and unit-suffixed quantity strings next to plain integers. An alias IRI
# also stands at subjects and objects, where it stays as written.
_legacy_iris = st.sampled_from([Iri(n) for n in ("A", "B", "Wheel")] + list(v.ALIASES))
_legacy_predicates = st.sampled_from(
    [*v.ALIASES, *v.ALIASES.values(), v.HAS_QUANTITY, v.HAS_TRANSPORT_MODE]
)
_legacy_objects = st.one_of(
    _legacy_iris,
    st.sampled_from([integer(7), integer(10), string("10m"), string("7 units"), string("100 unit"), string("plenty")]),
)
_legacy_plain = st.builds(Triple, _legacy_iris, _legacy_predicates, _legacy_objects)
_legacy_triples = st.one_of(
    _legacy_plain,
    st.builds(lambda i, p, o: Triple(Quoted(i), p, o), _legacy_plain, _legacy_predicates, _legacy_objects),
    st.builds(lambda s, p, i: Triple(s, p, Quoted(i)), _legacy_iris, _legacy_predicates, _legacy_plain),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_legacy_triples, max_size=20))
def test_load_graph_holds_each_triple_as_normalize_spells_it(tmp_path_factory, triples):
    path = tmp_path_factory.mktemp("legacy") / "g.nt"
    path.write_text(serialize(Graph(triples)))
    graph = load_graph(str(path))
    expected = sorted({normalize(t) for t in triples}, key=format_triple)
    assert graph.triples() == expected
    for t in triples:
        for p in probes(t) + probes(normalize(t)):
            assert solutions(graph.match(p)) == full_scan(p, expected)


_LEGACY_FILE = (
    ":A :hasLeadTime 4 .\n"
    ':Inv1 :hasQuantity "10m" .\n'
    ':Inv2 :hasQuantity "plenty" .\n'
    '<< :Car :needsComponent :Wheel >> :hasComponentQuantity "3 units" .\n'
    ":hasLeadTime :hasComponentQuantity :needsComponent .\n"
)


@pytest.mark.parametrize("legacy", [False, True], ids=["canonical", "legacy"])
def test_load_graph_inserts_each_line_once(tmp_path, monkeypatch, legacy):
    """One pass: an insert per line, as ``normalize`` spells it, and no
    remove or whole-graph read, whatever the spelling of the file."""
    path = tmp_path / "g.nt"
    path.write_text(_LEGACY_FILE if legacy else serialize(generate(dairy())))
    calls = {"insert": [], "remove": [], "snapshot": []}
    for name, made in calls.items():
        method = getattr(Graph, name)
        monkeypatch.setattr(Graph, name, lambda self, *args, m=method, c=made: c.append(args) or m(self, *args))
    graph = load_graph(str(path))
    assert len(calls["insert"]) == len(graph) == len(path.read_text().splitlines())
    assert calls["remove"] == calls["snapshot"] == []


# --- node views ---

def test_node_view_fields_on_generated_graph(automotive_graph):
    oem = node(automotive_graph, Iri("OEM1"))
    assert oem.kind == "OEM"
    assert oem.tier is None
    assert oem.saturation > 0
    assert oem.delivery_time >= 1
    assert oem.priority is None
    assert len(oem.kpis) == 5
    assert all(0 <= value <= 100 for _, value in oem.kpis)

    sup = node(automotive_graph, Iri("SupplierNode2.1"))
    assert sup.kind == "Supplier"
    assert sup.tier == 2
    assert Triple(Iri(sup.id), v.BELONGS_TO_TIER, Iri("SupplierTier2")) in sup.to_triples()
    assert sup.group is not None

    cust = node(automotive_graph, Iri("Node3.2"))
    assert cust.kind == "Customer"
    assert cust.tier == 3
    assert cust.priority is not None


def test_node_view_round_trip(preset_graphs):
    """to_triples() is a faithful projection: subset of the graph, and
    parsing it back yields an identical view."""
    for graph in preset_graphs.values():
        for kind in (v.OEM, v.SUPPLIER, v.CUSTOMER):
            for iri in nodes_of_kind(graph, kind):
                view = node(graph, iri)
                rebuilt = Graph()
                for t in view.to_triples():
                    assert t in graph
                    rebuilt.insert(t)
                assert node(rebuilt, iri) == view


def test_node_kind_and_missing_node(automotive_graph):
    assert node(automotive_graph, Iri("OEM1")).kind == v.OEM.name
    with pytest.raises(MissingEntityError):
        node(automotive_graph, Iri("NoSuchNode"))


def test_the_oem_requires_exactly_one(automotive_graph):
    assert the_oem(automotive_graph) == Iri("OEM1")
    automotive_graph.insert(tr("OEM2", "rdf:type", "OEM"))
    with pytest.raises(MissingEntityError):
        the_oem(automotive_graph)
    with pytest.raises(MissingEntityError):
        the_oem(Graph())


# --- order views ---

def test_order_view_round_trip(preset_graphs):
    """An order's own triples plus its maker's link are exactly the view's
    triples, and parsing those back yields an identical view."""
    for label, graph in preset_graphs.items():
        by_subject = triples_by_subject(graph)
        found = orders(graph)
        assert found and (label.startswith("simulated") == all(o.fulfilled is not None for o in found))
        for view in found:
            link = Triple(Iri(view.maker), v.MAKES, Iri(view.id))
            assert by_subject[Iri(view.id)] | {link} == set(view.to_triples())
            # the maker's priority lives on the node, not the order
            assert ORDER_SHAPE.read(Graph(view.to_triples()), Iri(view.id)) == view


def test_order_view_errors():
    g = Graph()
    g.insert(tr("Order1", "rdf:type", "Order"))
    with pytest.raises(MissingEntityError):
        ORDER_SHAPE.read(g, Iri("Order1"))  # no maker
    g.insert(tr("Cust1", "makes", "Order1"))
    g.insert(tr("Order1", "hasProduct", "Product"))
    g.insert(tr("Order1", "hasQuantity", integer(5)))
    with pytest.raises(MissingEntityError):
        ORDER_SHAPE.read(g, Iri("Order1"))  # delivery time must be a timestep
    g.insert(tr("Order1", "hasDeliveryTime", timestep(9)))
    assert ORDER_SHAPE.read(g, Iri("Order1")).fulfilled is None
    with pytest.raises(MissingEntityError):
        ORDER_SHAPE.read(g, Iri("NotAnOrder"))


def test_order_rejects_double_verdict():
    g = Graph()
    g.insert(tr("Order1", "rdf:type", "Order"))
    g.insert(tr("Cust1", "makes", "Order1"))
    g.insert(tr("Order1", "hasProduct", "Product"))
    g.insert(tr("Order1", "hasQuantity", integer(5)))
    g.insert(tr("Order1", "hasDeliveryTime", timestep(9)))
    from supplykg import boolean

    g.insert(tr("Order1", "isFulfilled", boolean(True)))
    g.insert(tr("Order1", "isFulfilled", boolean(False)))
    with pytest.raises(MissingEntityError):
        ORDER_SHAPE.read(g, Iri("Order1"))


_DUE_QUERY = parse_query(
    """
    SELECT ?order ?priority WHERE {
      ?customer :makes ?order .
      ?order :hasDeliveryTime ?time .
      ?customer :hasPriority ?priority .
      FILTER (?time - LT = t)
    } ORDER BY DESC ?priority
    """,
    params=("LT", "t"),
)


def test_orders_due_matches_query_engine(automotive_graph):
    """Dual-path oracle: the due schedule the simulator runs agrees with the
    query-language formulation of "orders due at t" for every step that has
    any."""
    oem = node(automotive_graph, the_oem(automotive_graph))
    schedule = due_schedule(automotive_graph, orders(automotive_graph), oem.delivery_time)
    assert Simulation(automotive_graph)._due == schedule
    seen = 0
    for t in range(0, 178):
        table = evaluate(
            _DUE_QUERY,
            automotive_graph,
            {"LT": integer(oem.delivery_time), "t": integer(t)},
        )
        want = sorted((row[0].name for row in table.rows))
        got = schedule.get(t, [])
        assert sorted(o.id for o in got) == want
        # the view's ordering honors priority descending, like the query
        priorities = [
            node(automotive_graph, Iri(o.maker)).priority for o in got
        ]
        assert priorities == sorted(priorities, reverse=True)
        seen += len(got)
    assert seen == len(orders(automotive_graph))


def test_orders_due_requires_maker_priority():
    g = Graph()
    g.insert(tr("Order1", "rdf:type", "Order"))
    g.insert(tr("Cust1", "makes", "Order1"))
    g.insert(tr("Order1", "hasProduct", "Product"))
    g.insert(tr("Order1", "hasQuantity", integer(5)))
    g.insert(tr("Order1", "hasDeliveryTime", timestep(9)))
    with pytest.raises(MissingEntityError):
        due_schedule(g, orders(g), 3)


def test_orders_due_example():
    g = Graph()
    g.insert(tr("Order1", "rdf:type", "Order"))
    g.insert(tr("Cust1", "makes", "Order1"))
    g.insert(tr("Cust1", "hasPriority", integer(2)))
    g.insert(tr("Order1", "hasProduct", "Product"))
    g.insert(tr("Order1", "hasQuantity", integer(5)))
    g.insert(tr("Order1", "hasDeliveryTime", timestep(10)))
    schedule = due_schedule(g, orders(g), 3)
    assert [o.id for o in schedule[7]] == ["Order1"]
    assert 6 not in schedule


# --- capacity and inventory records ---

def test_capacity_records_sorted_and_lookup(automotive_graph):
    records = capacity_records(automotive_graph, Iri("OEM1"))
    assert records, "generated graph gives every manufacturer a baseline record"
    assert [(r.timestep, r.id) for r in records] == sorted(
        (r.timestep, r.id) for r in records
    )
    first = records[0]
    by_step = capacity_by_step(automotive_graph, Iri("OEM1"))
    assert by_step[first.timestep] == first
    assert 9999 not in by_step


def test_capacity_view_round_trip(preset_graphs):
    """Every capacity record's own triples plus its owner's link are
    exactly the view's triples."""
    for label, graph in preset_graphs.items():
        by_subject = triples_by_subject(graph)
        records = [r for n in nodes_of_kind(graph, v.NODE) for r in capacity_records(graph, n)]
        assert records
        assert label.startswith("simulated") == any(r.timestep > 0 for r in records)
        for r in records:
            link = Triple(Iri(r.node), v.HAS_CAPACITY, Iri(r.id))
            assert by_subject[Iri(r.id)] | {link} == set(r.to_triples())


def test_inventory_view_round_trip(preset_graphs):
    """Every inventory record's own triples plus its owner's link are
    exactly the view's triples."""
    for graph in preset_graphs.values():
        by_subject = triples_by_subject(graph)
        checked = 0
        for n in nodes_of_kind(graph, v.NODE):
            for record in graph.objects(n, v.HAS_INVENTORY):
                view = INVENTORY_SHAPE.read(graph, record, node=n.name)
                link = Triple(n, v.HAS_INVENTORY, record)
                assert by_subject[record] | {link} == set(view.to_triples())
                checked += 1
        assert checked


def test_inventory_latest_record_wins():
    g = Graph()
    for name, qty, ts in [("InvA", 10, 0), ("InvB", 7, 5)]:
        g.insert(tr(name, "rdf:type", "Inventory"))
        g.insert(tr("OEM1", "hasInventory", name))
        g.insert(tr(name, "hasProduct", "Product"))
        g.insert(tr(name, "hasQuantity", integer(qty)))
        g.insert(tr(name, "hasTimeStamp", timestep(ts)))
    view = current_inventory(g, Iri("OEM1"))["Product"]
    assert view.id == "InvB"
    assert view.quantity == 7
    assert view.timestep == 5


def test_inventory_missing(automotive_graph):
    held = current_inventory(automotive_graph, Iri("OEM1"))
    assert held and "NoSuchProduct" not in held


# --- bill of materials ---

def test_bom_reads_quoted_quantities(automotive_graph):
    edges = bom(automotive_graph, Iri("Product"))
    assert edges
    assert [e.child for e in edges] == sorted(e.child for e in edges)
    for e in edges:
        assert e.parent == "Product"
        assert e.quantity >= 1
        for t in e.to_triples():
            assert t in automotive_graph


def test_bom_leaf_is_empty(automotive_graph):
    top_tier_products = [
        p for p in nodes_of_kind(automotive_graph, v.PRODUCT) if p.name.startswith("Product3.")
    ]
    assert top_tier_products
    for p in top_tier_products:
        assert bom(automotive_graph, p) == []


# --- every shape's writer and reader ---

_WIDE = 10**6


def _field_values(field):
    """Values of one field, its bounds among them."""
    if field.allowed is not None:
        return st.sampled_from(field.allowed)
    if isinstance(field, _TierField):
        return st.integers(1, 50)
    if field.kind is Iri:
        return iri_names
    if field.kind == BOOLEAN:
        return st.booleans()
    if field.kind == STRING:
        return st.text(max_size=8)
    lo = field.lo if field.lo is not None else 0 if field.kind == TIMESTEP else -_WIDE
    return st.integers(lo, field.hi if field.hi is not None else _WIDE)


@st.composite
def _views(draw, shape):
    """A view the shape allows: optional fields absent or present, values
    drawn up to and at their bounds, tuples in canonical order."""
    cls = draw(st.sampled_from(shape.kinds)) if shape.kinds else None
    values = {"kind": cls.name} if cls is not None else {}
    for attr in [shape.key] if isinstance(shape.key, str) else [shape.key[0], shape.key[2]]:
        values[attr] = draw(iri_names)
    by_attr = {}
    for f in shape.fields:
        by_attr.setdefault(f.attr, []).append(f)
    for attr, fields in by_attr.items():
        if len(fields) > 1:  # pairs of (predicate name, value)
            chosen = draw(st.lists(st.sampled_from(fields), unique=True))
            values[attr] = tuple(sorted((f.predicate.name, draw(_field_values(f))) for f in chosen))
            continue
        [f] = fields
        required, single = holds(f.required, cls), holds(f.single, cls)
        if f.single is not True:
            items = st.lists(_field_values(f), unique=True, min_size=int(required), max_size=1 if single else 3)
            values[attr] = tuple(sorted(draw(items)))
        else:
            values[attr] = draw(_field_values(f) if required else st.none() | _field_values(f))
    return shape.view(**values)


def _subject(shape, view):
    if isinstance(shape.key, str):
        return Iri(getattr(view, shape.key))
    a, predicate, b = shape.key
    return Quoted(Triple(Iri(getattr(view, a)), predicate, Iri(getattr(view, b))))


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: s.view.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_shape_reads_back_what_it_writes(shape, data):
    view = data.draw(_views(shape))
    triples = view.to_triples()
    subject = _subject(shape, view)
    assert shape.read(Graph(triples), subject) == view
    cls = Iri(view.kind) if shape.kinds else None
    for f in shape.fields:
        held = [t for t in triples if t.predicate == f.predicate and (t.object if f.inward else t.subject) == subject]
        if holds(f.single, cls):
            assert len(held) <= 1, f.predicate
        if holds(f.required, cls):
            assert held, f.predicate


def _keys(shape):
    return [shape.key] if isinstance(shape.key, str) else [shape.key[0], shape.key[2]]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: s.view.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_changes_turn_the_old_views_triples_into_the_new_ones(shape, data):
    """For two views with one key, removing ``gone`` and inserting ``added``
    turns the graph of the old view's triples into the new one's, and
    touches no triple that both hold, inside a tuple or pair field too."""
    old = data.draw(_views(shape))
    new = data.draw(_views(shape))
    # the key is shared; so is a drawn subset of the rest, as in an update
    names = [f.name for f in dataclasses.fields(shape.view)]
    kept = data.draw(st.sets(st.sampled_from(names))) | set(_keys(shape))
    new = dataclasses.replace(new, **{name: getattr(old, name) for name in kept})
    before, after = old.to_triples(), new.to_triples()
    gone, added = old.changes(new)
    graph = Graph(before)
    for t in gone:
        graph.remove(t)
    for t in added:
        graph.insert(t)
    assert graph.triples() == Graph(after).triples()
    assert set(gone) == set(before) - set(after)
    assert set(added) == set(after) - set(before)
    # a view under another key shares no triple with the old one
    key = _keys(shape)[0]
    moved = dataclasses.replace(new, **{key: getattr(new, key) + "x"})
    assert old.changes(moved) == (before, moved.to_triples())


def test_changes_keep_what_a_tuple_field_keeps(dairy_graph):
    """Within a changed tuple or pair field, a triple both views hold is
    neither removed nor inserted."""
    old = dataclasses.replace(node(dairy_graph, Iri("SupplierNode1.1")), products=("A", "B"))
    kpis = dict(old.kpis)
    cost = kpis[v.HAS_COST.name]
    kpis[v.HAS_COST.name] = cost + 1
    new = dataclasses.replace(old, products=("B", "C"), kpis=tuple(sorted(kpis.items())))
    s = Iri(old.id)
    assert old.changes(new) == (
        [Triple(s, v.HAS_COST, integer(cost)), Triple(s, v.MANUFACTURES, Iri("A"))],
        [Triple(s, v.HAS_COST, integer(cost + 1)), Triple(s, v.MANUFACTURES, Iri("C"))],
    )
    assert old.changes(old) == ([], [])


class _CanonicalReads(Graph):
    """A graph whose bucket reads give the triples in ``triples()`` order,
    the order ``Graph.match`` gives: the reference for an entity read."""

    def about(self, position, term):
        return tuple(t for t in self.triples() if (t.subject, t.predicate, t.object)[position] == term)


# Products of several name lengths and first characters, and a few literals:
# the hash order of a bucket seldom is their canonical order.
_PRODUCTS = st.sampled_from(["P1", "P10", "P2", "P9a", "Pa", "Q", "b_3", "m.x"]).map(Iri) | st.integers(0, 3).map(integer)
_KPIS = st.tuples(st.sampled_from(v.KPI_PREDICATES), st.integers(-5, 105).map(integer))


@settings(max_examples=200, deadline=None)
@given(
    products=st.lists(_PRODUCTS, min_size=2, max_size=6, unique=True),
    kpis=st.lists(_KPIS, min_size=2, max_size=7, unique=True),
    kind=st.sampled_from([v.SUPPLIER, v.OEM, v.CUSTOMER]),
    shuffle=st.randoms(use_true_random=False),
)
def test_an_entity_read_does_not_depend_on_insertion_order(products, kpis, kind, shuffle):
    """``Shape.scan`` reads a subject's bucket unordered and sorts each
    predicate's triples itself. A supplier with several products and a node
    with several KPI values, inserted in shuffled order, read the same
    values and problems as through buckets in canonical order."""
    supplier, scored = Iri("S"), Iri("K")
    triples = [Triple(supplier, v.MANUFACTURES, p) for p in products]
    triples += [Triple(scored, kpi, value) for kpi, value in kpis]
    for node_iri, cls in ((supplier, v.SUPPLIER), (scored, kind)):
        triples += [
            Triple(node_iri, v.RDF_TYPE, v.NODE),
            Triple(node_iri, v.RDF_TYPE, cls),
            Triple(node_iri, v.HAS_SATURATION, integer(5)),
            Triple(node_iri, v.HAS_DELIVERY_TIME, integer(1)),
        ]
    shuffle.shuffle(triples)
    graph, canonical = Graph(triples), _CanonicalReads(triples)
    for node_iri in (supplier, scored):
        values, problems = NODE_SHAPE.scan(graph, node_iri)
        want_values, want_problems = NODE_SHAPE.scan(canonical, node_iri)
        assert values == want_values
        assert [(f, str(e), e.problem) for f, e in problems] == [(f, str(e), e.problem) for f, e in want_problems]
