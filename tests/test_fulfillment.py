"""Demand fulfillment: backward scheduling, stock vs production paths,
all-or-nothing commitment, ledger conservation."""

import dataclasses

import pytest

from supplykg import Graph, Iri, Quoted, Triple, boolean, integer, serialize, timestep
from supplykg.fulfillment import Simulation, explode_bom
from supplykg.generator import automotive, dairy, generate
from supplykg.schema import MissingEntityError, capacity_by_step, current_inventory, orders
from supplykg import vocab as v


def tr(s, p, o):
    return Triple(Iri(s), Iri(p), o if not isinstance(o, str) else Iri(o))


def add_node(g, name, kind, *, sat, lead, tier=None, priority=None, cost=None):
    g.insert(tr(name, "rdf:type", "Node"))
    g.insert(tr(name, "rdf:type", kind))
    g.insert(tr(name, "hasSaturation", integer(sat)))
    g.insert(tr(name, "hasDeliveryTime", integer(lead)))
    if tier is not None:
        g.insert(tr(name, "belongsToTier", tier))
    if priority is not None:
        g.insert(tr(name, "hasPriority", integer(priority)))
    if cost is not None:
        g.insert(tr(name, "hasCost", integer(cost)))


def add_bom_edge(g, parent, child, qty):
    inner = tr(parent, "needsProduct", child)
    g.insert(inner)
    g.insert(Triple(Quoted(inner), Iri("needsQuantity"), integer(qty)))


def add_order(g, name, maker, product, qty, due):
    g.insert(tr(name, "rdf:type", "Order"))
    g.insert(tr(maker, "makes", name))
    g.insert(tr(name, "hasProduct", product))
    g.insert(tr(name, "hasQuantity", integer(qty)))
    g.insert(tr(name, "hasDeliveryTime", timestep(due)))
    g.insert(tr(name, "hasSupplyPlan", f"SP{name}"))
    g.insert(tr(f"SP{name}", "rdf:type", "SupplyPlan"))


def add_inventory(g, node, product, qty):
    rec = f"Inv{node}"
    g.insert(tr(rec, "rdf:type", "Inventory"))
    g.insert(tr(node, "hasInventory", rec))
    g.insert(tr(rec, "hasProduct", product))
    g.insert(tr(rec, "hasQuantity", integer(qty)))
    g.insert(tr(rec, "hasTimeStamp", timestep(0)))


def fixture(
    *,
    oem_sat=1000,
    oem_lead=3,
    oem_stock=4,
    sup_sat=100,
    sup_lead=2,
    sup_cost=30,
    order_qty=10,
    order_due=9,
    bom_qty=2,
):
    """One supplier, one customer, one order.

    With the defaults the order is due at t = 9 - 3 = 6, stock covers 4
    of 10 units, so 6 must be produced, requiring 12 components from the
    supplier at t0 = 6 - 2 = 4.
    """
    g = Graph()
    add_node(g, "OEM1", "OEM", sat=oem_sat, lead=oem_lead)
    add_node(g, "Sup1", "Supplier", sat=sup_sat, lead=sup_lead, tier="SupplierTier1", cost=sup_cost)
    g.insert(tr("SupplierTier1", "rdf:type", "SupplierTier"))
    g.insert(tr("CustomerTier1", "rdf:type", "CustomerTier"))
    g.insert(tr("Sup1", "hasOEM", "OEM1"))
    g.insert(tr("OEM1", "hasUpStreamNode", "Sup1"))
    add_node(g, "Cust1", "Customer", sat=50, lead=1, tier="CustomerTier1", priority=2)
    g.insert(tr("OEM1", "OEMhasNode", "Cust1"))
    g.insert(tr("OEM1", "hasDownStreamNode", "Cust1"))
    for p in ("Product", "Comp"):
        g.insert(tr(p, "rdf:type", "Product"))
    g.insert(tr("OEM1", "manufactures", "Product"))
    g.insert(tr("Sup1", "manufactures", "Comp"))
    add_bom_edge(g, "Product", "Comp", bom_qty)
    add_inventory(g, "OEM1", "Product", oem_stock)
    add_order(g, "Order1", "Cust1", "Product", order_qty, order_due)
    return g


def plan_line(plan, node, product, t, qty, price):
    """The four triples the simulator writes for one allocation."""
    q = Quoted(tr(plan, "needsNode", node))
    return {
        Triple(q, Iri("getsProduct"), Iri(product)),
        Triple(q, Iri("hasTimeStamp"), timestep(t)),
        Triple(q, Iri("hasQuantity"), integer(qty)),
        Triple(q, Iri("hasUnitPrice"), integer(price)),
    }


# --- bill-of-materials explosion ---

def test_explode_bom_scales_quantities():
    g = fixture(bom_qty=3)
    assert explode_bom(g, Iri("Product"), 6) == [(Iri("Comp"), 18)]
    assert explode_bom(g, Iri("Product"), 0) == [(Iri("Comp"), 0)]


def test_explode_bom_leaf_and_order():
    g = fixture()
    assert explode_bom(g, Iri("Comp"), 5) == []
    add_bom_edge(g, "Product", "Axle", 1)
    exploded = explode_bom(g, Iri("Product"), 2)
    assert exploded == [(Iri("Axle"), 2), (Iri("Comp"), 4)]


# --- scheduling ---

def test_order_due_at_delivery_minus_lead():
    sim = Simulation(fixture())
    assert [o.id for o in sim.due_orders(6)] == ["Order1"]
    assert sim.due_orders(5) == []
    assert sim.due_orders(7) == []


def test_resolved_orders_are_not_due_again():
    g = fixture()
    g.insert(tr("Order1", "isFulfilled", boolean(False)))
    sim = Simulation(g)
    assert sim.due_orders(6) == []


# --- the production path, hand traced ---

def test_production_path_commits_everything():
    g = fixture()
    sim = Simulation(g)
    report = sim.step(6)
    assert (report.considered, report.from_stock, report.produced, report.unfulfilled) == (1, 0, 1, 0)

    # stock drained to zero, in ledger and graph record alike
    assert sim.inventory_level("OEM1", "Product") == 0
    record = current_inventory(g, Iri("OEM1"))["Product"]
    assert record.quantity == 0
    assert record.timestep == 6

    # focal node committed for the remainder, supplier for the components
    assert sim.committed("OEM1", 6) == 6
    assert sim.committed("Sup1", 4) == 12
    assert capacity_by_step(g, Iri("OEM1"))[6].quantity == 6
    assert capacity_by_step(g, Iri("Sup1"))[4].quantity == 12

    # the verdict and the full supply plan are in the graph
    assert tr("Order1", "isFulfilled", boolean(True)) in g
    want = plan_line("SPOrder1", "OEM1", "Product", 6, 6, 0)
    want |= plan_line("SPOrder1", "Sup1", "Comp", 4, 12, 30)
    assert want <= set(g.triples())
    assert report.triples_inserted > 0


def test_inventory_path_serves_whole_order():
    g = fixture(oem_stock=10)
    sim = Simulation(g)
    report = sim.step(6)
    assert (report.from_stock, report.produced, report.unfulfilled) == (1, 0, 0)
    assert sim.inventory_level("OEM1", "Product") == 0
    # no production was scheduled anywhere
    assert sim.committed("OEM1", 6) == 0
    assert 6 not in capacity_by_step(g, Iri("OEM1"))
    assert 4 not in capacity_by_step(g, Iri("Sup1"))
    assert plan_line("SPOrder1", "OEM1", "Product", 6, 10, 0) <= set(g.triples())
    assert tr("Order1", "isFulfilled", boolean(True)) in g


@pytest.mark.parametrize("stock, path", [(4, "produced"), (10, "from_stock")])
def test_order_without_supply_plan_gets_verdict_but_no_plan_lines(stock, path):
    g = fixture(oem_stock=stock)
    g.remove(tr("Order1", "hasSupplyPlan", "SPOrder1"))
    report = Simulation(g).step(6)
    assert getattr(report, path) == 1
    assert tr("Order1", "isFulfilled", boolean(True)) in g
    quoted = [t.subject.triple for t in g.triples() if isinstance(t.subject, Quoted)]
    assert [q for q in quoted if q.predicate == v.NEEDS_NODE] == []


def test_stock_boundary_one_unit_short():
    g = fixture(oem_stock=9)
    sim = Simulation(g)
    sim.step(6)
    # remainder of 1 produced; 2 components per unit
    assert sim.committed("OEM1", 6) == 1
    assert sim.committed("Sup1", 4) == 2


# --- infeasibility and atomicity ---

def check_unfulfilled_atomically(g):
    """Step the fixture at t=6 and require the one false verdict to be
    the only change to the graph."""
    before = set(Simulation(g.copy()).graph.triples())
    sim = Simulation(g)
    report = sim.step(6)
    assert (report.from_stock, report.produced, report.unfulfilled) == (0, 0, 1)
    after = set(g.triples())
    assert after - before == {tr("Order1", "isFulfilled", boolean(False))}
    assert before - after == set()
    assert sim.inventory_level("OEM1", "Product") == 4
    assert sim.committed("OEM1", 6) == 0
    assert sim.committed("Sup1", 4) == 0


def test_supplier_saturation_too_small():
    check_unfulfilled_atomically(fixture(sup_sat=11))


def test_supplier_lead_time_unreachable():
    # t0 = 6 - 8 < 0: shipment could never arrive
    check_unfulfilled_atomically(fixture(sup_lead=8))


def test_focal_node_saturation_too_small():
    check_unfulfilled_atomically(fixture(oem_sat=5))


def test_no_supplier_for_component():
    g = fixture()
    g.remove(tr("Sup1", "manufactures", "Comp"))
    check_unfulfilled_atomically(g)


def test_supplier_must_supply_the_focal_node():
    g = fixture()
    g.remove(tr("Sup1", "hasOEM", "OEM1"))
    check_unfulfilled_atomically(g)


# --- supplier choice ---

def two_supplier_graph(free_a, free_b):
    g = fixture(oem_stock=0, sup_sat=free_a)
    add_node(g, "Sup0", "Supplier", sat=free_b, lead=2, tier="SupplierTier1", cost=40)
    g.insert(tr("Sup0", "hasOEM", "OEM1"))
    g.insert(tr("OEM1", "hasUpStreamNode", "Sup0"))
    g.insert(tr("Sup0", "manufactures", "Comp"))
    return g


def test_supplier_with_most_free_capacity_wins():
    g = two_supplier_graph(free_a=50, free_b=80)
    sim = Simulation(g)
    sim.step(6)
    assert sim.committed("Sup0", 4) == 20
    assert sim.committed("Sup1", 4) == 0


def test_supplier_tie_breaks_by_name():
    g = two_supplier_graph(free_a=80, free_b=80)
    sim = Simulation(g)
    sim.step(6)
    assert sim.committed("Sup0", 4) == 20
    assert sim.committed("Sup1", 4) == 0


def test_pending_amounts_count_within_one_selection():
    """Two components, one shared supplier pool: the second placement
    must see the load the first one tentatively added."""
    g = two_supplier_graph(free_a=25, free_b=30)
    g.insert(tr("Axle", "rdf:type", "Product"))
    add_bom_edge(g, "Product", "Axle", 2)
    g.insert(tr("Sup0", "manufactures", "Axle"))
    g.insert(tr("Sup1", "manufactures", "Axle"))
    sim = Simulation(g)
    # components in name order: Axle 20, then Comp 20. Sup0 takes Axle
    # (30 free vs 25), leaving 10 free, so Comp lands on Sup1.
    sim.step(6)
    assert sim.committed("Sup0", 4) == 20
    assert sim.committed("Sup1", 4) == 20


def test_selection_is_all_or_nothing_across_components():
    g = two_supplier_graph(free_a=25, free_b=30)
    g.insert(tr("Axle", "rdf:type", "Product"))
    add_bom_edge(g, "Product", "Axle", 2)
    g.insert(tr("Sup0", "manufactures", "Axle"))
    # only Sup0 can make Axle and nobody has room for both components
    g.remove(tr("Sup1", "manufactures", "Comp"))
    g.insert(tr("Sup0", "manufactures", "Comp"))
    sim = Simulation(g)
    report = sim.step(6)
    assert report.unfulfilled == 1
    assert sim.committed("Sup0", 4) == 0
    assert sim.committed("Sup1", 4) == 0


# --- priorities ---

def test_higher_priority_order_crowds_out_lower():
    g = fixture(oem_stock=0, sup_sat=20)
    add_node(g, "Cust2", "Customer", sat=50, lead=1, tier="CustomerTier1", priority=3)
    g.insert(tr("OEM1", "OEMhasNode", "Cust2"))
    g.insert(tr("OEM1", "hasDownStreamNode", "Cust2"))
    add_order(g, "Order2", "Cust2", "Product", 10, 9)
    sim = Simulation(g)
    report = sim.step(6)
    # both due at 6; Cust2 (priority 3) first, takes all 20 units of
    # supplier room; Cust1's order then fails
    assert report.considered == 2
    assert tr("Order2", "isFulfilled", boolean(True)) in g
    assert tr("Order1", "isFulfilled", boolean(False)) in g


def test_equal_priority_breaks_ties_by_order_name():
    g = fixture(oem_stock=0, sup_sat=20)
    add_node(g, "Cust2", "Customer", sat=50, lead=1, tier="CustomerTier1", priority=2)
    g.insert(tr("OEM1", "OEMhasNode", "Cust2"))
    g.insert(tr("OEM1", "hasDownStreamNode", "Cust2"))
    add_order(g, "Order0", "Cust2", "Product", 10, 9)
    sim = Simulation(g)
    sim.step(6)
    assert tr("Order0", "isFulfilled", boolean(True)) in g
    assert tr("Order1", "isFulfilled", boolean(False)) in g


# --- hooks and guards ---

def test_run_rejects_empty_horizon():
    with pytest.raises(ValueError):
        Simulation(fixture()).run(0)


def test_missing_priority_is_an_error():
    g = fixture()
    g.remove(tr("Cust1", "hasPriority", integer(2)))
    with pytest.raises(MissingEntityError):
        Simulation(g)


def add_capacity(g, record, node, t, qty):
    g.insert(tr(record, "rdf:type", "Capacity"))
    g.insert(tr(node, "hasCapacity", record))
    g.insert(tr(record, "hasProduct", "Comp"))
    g.insert(tr(record, "hasQuantity", integer(qty)))
    g.insert(tr(record, "hasTimeStamp", timestep(t)))
    g.insert(tr(record, "hasCost", integer(30)))


def test_two_capacity_records_at_one_step_are_an_error():
    """Booking onto one of two records would leave the other stale."""
    g = fixture()
    add_capacity(g, "CapA", "Sup1", 4, 10)
    assert Simulation(g).committed("Sup1", 4) == 10
    add_capacity(g, "CapB", "Sup1", 4, 20)
    with pytest.raises(MissingEntityError):
        Simulation(g)


@pytest.mark.parametrize(
    "predicate, value",
    [("hasTimeStamp", timestep(0)), ("hasQuantity", integer(4)), ("hasProduct", Iri("Product"))],
)
def test_incomplete_inventory_record_is_an_error(predicate, value):
    """A record without a timestep or quantity is not read as 0, nor one
    without a product skipped."""
    g = fixture()
    g.remove(tr("InvOEM1", predicate, value))
    with pytest.raises(MissingEntityError):
        Simulation(g)


# --- whole-run properties on generated networks ---

def test_resolution_totality(simulated_automotive):
    graph, reports = simulated_automotive
    found = orders(graph)
    assert found
    assert all(o.fulfilled is not None for o in found)
    resolved = sum(r.from_stock + r.produced + r.unfulfilled for r in reports)
    assert resolved == len(found)
    assert sum(r.considered for r in reports) == len(found)


def test_conservation_through_every_step():
    """Inventory never negative, commitments never exceed saturation,
    checked after every single step of a full run."""
    config = dairy()
    graph = generate(config)
    sim = Simulation(graph)
    sats = dict(sim._sat)
    for t in range(config.horizon):
        sim.step(t)
        assert all(record.quantity >= 0 for record in sim._stock.values())
        for (node, _), record in sim._capacity.items():
            assert 0 <= record.quantity <= sats[node]


def test_plan_arithmetic_on_generated_run(simulated_automotive):
    """Every fulfilled order's plan lines obey the books: the focal line
    plus stock equals the order quantity, component lines equal the BOM
    quantity times the produced amount, and component timestamps sit one
    supplier lead time earlier."""
    graph, _ = simulated_automotive
    from supplykg.schema import bom, node

    lead = {n.name: node(graph, n).delivery_time for n in graph.subjects(v.RDF_TYPE, v.NODE)}
    bom_qty = {e.child: e.quantity for e in bom(graph, Iri("Product"))}
    checked = 0
    for o in orders(graph):
        if not o.fulfilled:
            continue
        lines = {}
        for t in graph.triples():
            if (
                isinstance(t.subject, Quoted)
                and t.subject.triple.subject == Iri(o.supply_plan)
                and t.subject.triple.predicate == v.NEEDS_NODE
            ):
                entry = lines.setdefault(t.subject.triple.object.name, {})
                entry[t.predicate.name] = t.object
        assert "OEM1" in lines
        oem_line = lines.pop("OEM1")
        produced = oem_line["hasQuantity"].value
        t_oem = oem_line["hasTimeStamp"].value
        assert oem_line["getsProduct"] == Iri("Product")
        assert produced <= o.quantity
        for supplier, entry in lines.items():
            component = entry["getsProduct"].name
            assert entry["hasQuantity"].value == bom_qty[component] * produced
            assert entry["hasTimeStamp"].value == t_oem - lead[supplier]
        if not lines:
            # fulfilled purely from stock: the one line carries it all
            assert produced == o.quantity
        checked += 1
    assert checked > 0


def test_raising_saturation_never_hurts():
    """Greedy feasibility is monotone in capacity: with stock zeroed out
    and the same demand stream, more saturation means at least as many
    fulfilled orders. Degenerate ranges keep the random draws aligned."""
    for seed in range(5):
        counts = []
        for sat in (150_000, 400_000):
            config = dataclasses.replace(
                automotive(),
                seed=seed,
                inventory_range=(0, 0),
                saturation_range=(sat, sat),
            )
            graph = generate(config)
            reports = Simulation(graph).run(config.horizon)
            counts.append(sum(r.from_stock + r.produced for r in reports))
        assert counts[1] >= counts[0], f"seed {seed}: {counts}"


def test_full_run_graph_still_parses_and_validates(simulated_automotive):
    from supplykg import parse_graph
    from supplykg.validation import validate

    graph, _ = simulated_automotive
    text = serialize(graph)
    assert serialize(parse_graph(text)) == text
    assert validate(graph) == []
