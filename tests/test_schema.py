"""Typed views over domain graphs: normalization, projection, round trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import full_scan, probes
from supplykg import Graph, Iri, Quoted, Triple, integer, serialize, string, timestep
from supplykg.fulfillment import Simulation
from supplykg.generator import automotive, dairy, generate
from supplykg.query import evaluate, parse_query
from supplykg.schema import (
    MissingEntityError,
    _normalize_triple,
    bom,
    capacity_by_step,
    capacity_records,
    current_inventory,
    due_schedule,
    inventory_record,
    load_graph,
    node,
    node_kind,
    nodes_of_kind,
    normalize,
    order,
    orders,
    the_oem,
)
from supplykg import vocab as v
from supplykg.terms import format_triple


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
    g = Graph()
    g.insert(tr("A", "hasLeadTime", integer(4)))
    g.insert(tr("Car", "needsComponent", "Wheel"))
    n = normalize(g)
    assert n.objects(Iri("A"), v.HAS_DELIVERY_TIME) == [integer(4)]
    assert n.objects(Iri("Car"), v.NEEDS_PRODUCT) == [Iri("Wheel")]
    assert "hasLeadTime" not in serialize(n)


def test_normalize_rewrites_inside_quoted_terms():
    g = Graph()
    inner = Triple(Iri("Car"), Iri("needsComponent"), Iri("Wheel"))
    g.insert(Triple(Quoted(inner), Iri("hasComponentQuantity"), integer(4)))
    n = normalize(g)
    want = Triple(
        Quoted(Triple(Iri("Car"), v.NEEDS_PRODUCT, Iri("Wheel"))),
        v.NEEDS_QUANTITY,
        integer(4),
    )
    assert want in n


def test_normalize_folds_quantity_units():
    g = Graph()
    g.insert(tr("Inv1", "hasQuantity", string("10m")))
    g.insert(tr("Inv2", "hasQuantity", string("100 unit")))
    g.insert(tr("Inv3", "hasQuantity", string("7 units")))
    n = normalize(g)
    assert n.objects(Iri("Inv1"), v.HAS_QUANTITY) == [integer(10)]
    assert n.objects(Iri("Inv2"), v.HAS_QUANTITY) == [integer(100)]
    assert n.objects(Iri("Inv3"), v.HAS_QUANTITY) == [integer(7)]


def test_normalize_leaves_other_strings_alone():
    g = Graph()
    g.insert(tr("N", "hasTransportMode", string("road")))
    g.insert(tr("N", "hasQuantity", string("plenty")))
    n = normalize(g)
    assert n.objects(Iri("N"), v.HAS_TRANSPORT_MODE) == [string("road")]
    assert n.objects(Iri("N"), v.HAS_QUANTITY) == [string("plenty")]


# Graphs that mix legacy spellings with their canonical twins: the alias
# predicates (also inside quoted terms) next to the names they stand for,
# and unit-suffixed quantity strings next to plain integers.
_legacy_iris = st.sampled_from([Iri(n) for n in ("A", "B", "Wheel")])
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
def test_normalize_rewrites_in_place(triples):
    g = Graph(triples)
    before = g.triples()
    for t in before:  # fill the bucket caches that normalize must refresh
        for p in probes(t):
            g.match(p)
    assert normalize(g) is g
    expected = sorted({_normalize_triple(t) for t in before}, key=format_triple)
    assert g.triples() == expected
    for t in before:
        canonical = _normalize_triple(t)
        if canonical != t:
            for p in probes(t) + probes(canonical):
                assert g.match(p) == full_scan(p, expected)


def test_load_graph_inserts_each_line_once(tmp_path, monkeypatch):
    path = tmp_path / "g.nt"
    path.write_text(serialize(generate(dairy())))
    inserts = []
    insert = Graph.insert

    def counted_insert(self, triple):
        inserts.append(triple)
        return insert(self, triple)

    monkeypatch.setattr(Graph, "insert", counted_insert)
    graph = load_graph(str(path))
    assert len(inserts) == len(graph) == len(path.read_text().splitlines())


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
    assert sup.tier_iri() == Iri("SupplierTier2")
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
    assert node_kind(automotive_graph, Iri("OEM1")) == v.OEM
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
            link = Triple(Iri(view.maker), v.MAKES, view.iri)
            assert by_subject[view.iri] | {link} == set(view.to_triples())
            # the maker's priority lives on the node, not the order
            assert order(Graph(view.to_triples()), view.iri) == view


def test_order_view_errors():
    g = Graph()
    g.insert(tr("Order1", "rdf:type", "Order"))
    with pytest.raises(MissingEntityError):
        order(g, Iri("Order1"))  # no maker
    g.insert(tr("Cust1", "makes", "Order1"))
    g.insert(tr("Order1", "hasProduct", "Product"))
    g.insert(tr("Order1", "hasQuantity", integer(5)))
    with pytest.raises(MissingEntityError):
        order(g, Iri("Order1"))  # delivery time must be a timestep
    g.insert(tr("Order1", "hasDeliveryTime", timestep(9)))
    assert order(g, Iri("Order1")).fulfilled is None
    with pytest.raises(MissingEntityError):
        order(g, Iri("NotAnOrder"))


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
        order(g, Iri("Order1"))


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
            link = Triple(Iri(r.node), v.HAS_CAPACITY, r.iri)
            assert by_subject[r.iri] | {link} == set(r.to_triples())


def test_inventory_view_round_trip(preset_graphs):
    """Every inventory record's own triples plus its owner's link are
    exactly the view's triples."""
    for graph in preset_graphs.values():
        by_subject = triples_by_subject(graph)
        checked = 0
        for n in nodes_of_kind(graph, v.NODE):
            for record in graph.objects(n, v.HAS_INVENTORY):
                view = inventory_record(graph, n, record)
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
