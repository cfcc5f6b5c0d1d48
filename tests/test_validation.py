"""Graph shape checking: vocabulary closure, node and record invariants,
tier connectivity, BOM acyclicity."""

import pytest

from supplykg import Graph, Iri, Quoted, Triple, boolean, integer, schema, string, timestep
from supplykg.fulfillment import Simulation
from supplykg.generator import automotive, dairy, generate
from supplykg.schema import CapacityView, MissingEntityError, capacity_records
from supplykg.validation import Violation, validate


def tr(s, p, o):
    return Triple(Iri(s), Iri(p), o if not isinstance(o, str) else Iri(o))


def drop(graph, subject, predicate, obj=None):
    """Remove every (subject, predicate, *) triple, or just one object."""
    targets = [obj] if obj is not None else list(graph.objects(subject, predicate))
    for o in targets:
        assert graph.remove(Triple(subject, predicate, o))


def codes(violations):
    return {v.code for v in violations}


def errors(violations):
    return [v for v in violations if v.severity == "error"]


# --- generated graphs are clean (self-consistency oracle) ---

@pytest.mark.parametrize("preset", [automotive, dairy])
def test_generated_presets_validate_clean(preset):
    config = preset()
    graph = generate(config)
    assert validate(graph) == []
    Simulation(graph).run(config.horizon)
    assert validate(graph) == []


# --- vocabulary closure ---

def test_unknown_predicate_is_error_unless_allowed(automotive_graph):
    automotive_graph.insert(tr("OEM1", "hasColor", string("blue")))
    found = validate(automotive_graph)
    assert "unknown-predicate" in codes(errors(found))
    assert validate(automotive_graph, allow_unknown=True) == []


def test_unknown_predicate_inside_quoted_term(automotive_graph):
    inner = Triple(Iri("OEM1"), Iri("secretlyPrefers"), Iri("Product"))
    automotive_graph.insert(Triple(Quoted(inner), Iri("hasQuantity"), integer(1)))
    assert "unknown-predicate" in codes(errors(validate(automotive_graph)))


def test_unknown_class_is_warning(automotive_graph):
    automotive_graph.insert(tr("X", "rdf:type", "Widget"))
    found = validate(automotive_graph)
    assert "unknown-class" in codes(found)
    assert "unknown-class" not in codes(errors(found))


def q(s, p, o):
    """The quoted triple ``s p o``; a str names an IRI."""
    return Quoted(Triple(Iri(s) if isinstance(s, str) else s, Iri(p), Iri(o) if isinstance(o, str) else o))


_ONE = integer(1)
_UNKNOWN_P = Violation("unknown-predicate", "error", "madeUp", "predicate madeUp is not in the vocabulary")
_UNKNOWN_C = Violation("unknown-class", "warning", "Widget", "class Widget is not in the vocabulary")


@pytest.mark.parametrize(
    "triples, expected",
    [
        # an unknown predicate only inside a quoted term, at depth 1 and 2
        ([Triple(q("a", "madeUp", "b"), Iri("hasQuantity"), _ONE)], [_UNKNOWN_P]),
        ([tr("a", "hasQuantity", q("b", "madeUp", "c"))], [_UNKNOWN_P]),
        ([Triple(q(q("a", "madeUp", "b"), "hasQuantity", _ONE), Iri("hasQuantity"), _ONE)], [_UNKNOWN_P]),
        ([tr("a", "hasQuantity", q("b", "hasQuantity", q("c", "madeUp", "d")))], [_UNKNOWN_P]),
        # an unknown class only inside a quoted term, at depth 1 and 2
        ([Triple(q("x", "rdf:type", "Widget"), Iri("hasQuantity"), _ONE)], [_UNKNOWN_C]),
        ([tr("a", "hasQuantity", q("x", "rdf:type", "Widget"))], [_UNKNOWN_C]),
        ([Triple(q(q("x", "rdf:type", "Widget"), "hasQuantity", _ONE), Iri("hasQuantity"), _ONE)], [_UNKNOWN_C]),
        ([tr("a", "hasQuantity", q("b", "hasQuantity", q("x", "rdf:type", "Widget")))], [_UNKNOWN_C]),
        # one quoted term that several triples share, on both sides, and
        # the same unknown terms asserted too: one finding each
        (
            [
                Triple(q("a", "madeUp", "Widget"), Iri("hasQuantity"), _ONE),
                Triple(q("a", "madeUp", "Widget"), Iri("hasCost"), _ONE),
                tr("b", "hasQuantity", q("a", "madeUp", "Widget")),
                tr("c", "hasQuantity", q("d", "hasQuantity", q("a", "madeUp", "Widget"))),
                tr("a", "madeUp", "Widget"),
                tr("x", "rdf:type", "Widget"),
                tr("y", "hasQuantity", q("x", "rdf:type", "Widget")),
            ],
            [_UNKNOWN_P, _UNKNOWN_C],
        ),
        # an rdf:type with a literal object names no class
        ([tr("x", "rdf:type", string("Widget")), tr("a", "hasQuantity", q("x", "rdf:type", _ONE))], []),
    ],
    ids=[
        "predicate-subject-1",
        "predicate-object-1",
        "predicate-subject-2",
        "predicate-object-2",
        "class-subject-1",
        "class-object-1",
        "class-subject-2",
        "class-object-2",
        "shared",
        "literal-class",
    ],
)
def test_vocabulary_findings_inside_quoted_terms(triples, expected):
    found = [x for x in validate(Graph(triples)) if x.code in ("unknown-predicate", "unknown-class")]
    assert found == expected


# --- node invariants ---

def test_bad_saturation(automotive_graph):
    drop(automotive_graph, Iri("OEM1"), Iri("hasSaturation"))
    automotive_graph.insert(tr("OEM1", "hasSaturation", integer(0)))
    assert "bad-saturation" in codes(errors(validate(automotive_graph)))


def test_missing_saturation(automotive_graph):
    drop(automotive_graph, Iri("SupplierNode1.1"), Iri("hasSaturation"))
    assert "missing-saturation" in codes(errors(validate(automotive_graph)))


def test_bad_delivery_time(automotive_graph):
    drop(automotive_graph, Iri("OEM1"), Iri("hasDeliveryTime"))
    automotive_graph.insert(tr("OEM1", "hasDeliveryTime", integer(0)))
    assert "bad-delivery-time" in codes(errors(validate(automotive_graph)))


def test_customer_needs_priority(automotive_graph):
    drop(automotive_graph, Iri("Node3.2"), Iri("hasPriority"))
    assert "missing-priority" in codes(errors(validate(automotive_graph)))


def test_kpi_out_of_range(automotive_graph):
    drop(automotive_graph, Iri("OEM1"), Iri("hasAgility"))
    automotive_graph.insert(tr("OEM1", "hasAgility", integer(101)))
    assert "kpi-out-of-range" in codes(errors(validate(automotive_graph)))


def test_multi_valued_scalar(automotive_graph):
    automotive_graph.insert(tr("OEM1", "hasDeliveryTime", integer(99)))
    assert "multi-valued" in codes(errors(validate(automotive_graph)))


def test_untyped_node(automotive_graph):
    automotive_graph.insert(tr("Ghost", "belongsToTier", "SupplierTier1"))
    automotive_graph.insert(tr("Ghost", "rdf:type", "Node"))
    assert "untyped-node" in codes(errors(validate(automotive_graph)))


# --- record invariants ---

def test_orphan_capacity_record(automotive_graph):
    automotive_graph.insert(tr("CapLoose", "rdf:type", "Capacity"))
    assert "orphan-record" in codes(errors(validate(automotive_graph)))


def test_a_quoted_triple_owns_no_record(automotive_graph):
    automotive_graph.insert(tr("CapLoose", "rdf:type", "Capacity"))
    automotive_graph.insert(Triple(Quoted(tr("OEM1", "hasCapacity", "CapLoose")), Iri("hasCapacity"), Iri("CapLoose")))
    found = errors(validate(automotive_graph))
    assert [(x.code, x.subject) for x in found] == [("orphan-record", "CapLoose")]


def test_capacity_exceeds_saturation(automotive_graph):
    drop(automotive_graph, Iri("CapOEM1T0"), Iri("hasQuantity"))
    automotive_graph.insert(tr("CapOEM1T0", "hasQuantity", integer(10**9)))
    assert "capacity-exceeds-saturation" in codes(errors(validate(automotive_graph)))


def test_a_shared_record_belongs_to_its_least_named_owner(automotive_graph):
    """A capacity record two nodes link is checked against the saturation
    of the node with the least name."""
    oem, supplier = (schema.node(automotive_graph, Iri(n)) for n in ("OEM1", "SupplierNode1.1"))
    assert oem.saturation != supplier.saturation
    step = 1 + max(r.timestep for n in (oem, supplier) for r in capacity_records(automotive_graph, Iri(n.id)))
    quantity = max(oem.saturation, supplier.saturation) + 1
    shared = CapacityView("CapShared", "SupplierNode1.1", oem.products[0], quantity, step, 1)
    for triple in shared.to_triples():
        automotive_graph.insert(triple)
    automotive_graph.insert(tr("OEM1", "hasCapacity", "CapShared"))
    found = [(x.code, x.subject, x.message) for x in errors(validate(automotive_graph))]
    message = f"committed {quantity} exceeds saturation {oem.saturation} of OEM1"
    assert found == [("capacity-exceeds-saturation", "CapShared", message)]


def test_negative_inventory(automotive_graph):
    drop(automotive_graph, Iri("InvOEM1"), Iri("hasQuantity"))
    automotive_graph.insert(tr("InvOEM1", "hasQuantity", integer(-1)))
    assert "bad-record" in codes(errors(validate(automotive_graph)))


@pytest.mark.parametrize("predicate", ["hasProduct", "hasTimeStamp"])
def test_incomplete_inventory_record_is_an_error(automotive_graph, predicate):
    """The simulator rejects an inventory record with no product or no
    timestep, so validation must too."""
    drop(automotive_graph, Iri("InvOEM1"), Iri(predicate))
    with pytest.raises(MissingEntityError):
        Simulation(automotive_graph)
    found = errors(validate(automotive_graph))
    assert [(x.code, x.subject) for x in found] == [("bad-record", "InvOEM1")]


def test_two_capacity_records_at_one_step_are_an_error(automotive_graph):
    """The simulator rejects a node with two capacity records at one step,
    so validation must too."""
    first = capacity_records(automotive_graph, Iri("OEM1"))[0]
    twin = CapacityView("CapTwin", "OEM1", first.product, 1, first.timestep, 1)
    for triple in twin.to_triples():
        automotive_graph.insert(triple)
    with pytest.raises(MissingEntityError):
        Simulation(automotive_graph)
    found = errors(validate(automotive_graph))
    assert [(x.code, x.subject) for x in found] == [("bad-record", "OEM1")]
    assert f"more than one capacity record at step {first.timestep}" in found[0].message


def test_a_record_counts_for_every_node_that_links_it(automotive_graph):
    """Like the simulator, validation groups a capacity record under each
    node that links it, so one record can put two nodes at fault."""
    supplier = capacity_records(automotive_graph, Iri("SupplierNode1.1"))[0]
    assert capacity_records(automotive_graph, Iri("OEM1"))[0].timestep == supplier.timestep
    twin = CapacityView("CapTwin", "OEM1", supplier.product, 1, supplier.timestep, 1)
    for triple in twin.to_triples():
        automotive_graph.insert(triple)
    automotive_graph.insert(tr("SupplierNode1.1", "hasCapacity", "CapTwin"))
    with pytest.raises(MissingEntityError):
        Simulation(automotive_graph)
    found = errors(validate(automotive_graph))
    assert [(x.code, x.subject) for x in found] == [("bad-record", "OEM1"), ("bad-record", "SupplierNode1.1")]


def test_validate_reads_each_capacity_record_once(simulated_automotive, monkeypatch):
    graph, _ = simulated_automotive
    reads = []
    read = schema.CAPACITY_SHAPE.read
    monkeypatch.setattr(schema.CAPACITY_SHAPE, "read", lambda g, rec, **kw: reads.append(rec) or read(g, rec, **kw))
    assert validate(graph) == []
    assert sorted(r.name for r in reads) == sorted(r.name for r in schema.nodes_of_kind(graph, Iri("Capacity")))


def test_validate_does_not_sort_the_graph(simulated_automotive, monkeypatch):
    """Every check reads the indexes, so ``validate`` never asks for the
    whole graph in canonical order."""
    graph, _ = simulated_automotive
    calls = []
    monkeypatch.setattr(Graph, "triples", lambda self: calls.append(self) or [])
    assert validate(graph) == []
    assert calls == []


# --- order invariants ---

def test_order_quantity_positive(automotive_graph):
    drop(automotive_graph, Iri("Order1"), Iri("hasQuantity"))
    automotive_graph.insert(tr("Order1", "hasQuantity", integer(0)))
    assert "bad-order" in codes(errors(validate(automotive_graph)))


def test_order_maker_must_be_customer(automotive_graph):
    for maker in automotive_graph.subjects(Iri("makes"), Iri("Order1")):
        drop(automotive_graph, maker, Iri("makes"), Iri("Order1"))
    automotive_graph.insert(tr("SupplierNode1.1", "makes", "Order1"))
    assert "bad-order" in codes(errors(validate(automotive_graph)))


def test_double_verdict_is_bad_order(automotive_graph):
    automotive_graph.insert(tr("Order1", "isFulfilled", boolean(True)))
    automotive_graph.insert(tr("Order1", "isFulfilled", boolean(False)))
    assert "bad-order" in codes(errors(validate(automotive_graph)))


# --- topology ---

def test_two_oems(automotive_graph):
    automotive_graph.insert(tr("OEM2", "rdf:type", "OEM"))
    automotive_graph.insert(tr("OEM2", "rdf:type", "Node"))
    assert "oem-count" in codes(errors(validate(automotive_graph)))


def test_tier1_supplier_needs_oem_link(automotive_graph):
    drop(automotive_graph, Iri("SupplierNode1.1"), Iri("hasOEM"))
    assert "missing-oem-link" in codes(errors(validate(automotive_graph)))


def test_tier1_customer_needs_oem_link(automotive_graph):
    drop(automotive_graph, Iri("OEM1"), Iri("OEMhasNode"), Iri("Node1.1"))
    found = codes(errors(validate(automotive_graph)))
    assert "missing-oem-link" in found


def test_unreachable_upper_tier_node(automotive_graph):
    for s in automotive_graph.subjects(Iri("hasUpStreamNode"), Iri("SupplierNode3.5")):
        drop(automotive_graph, s, Iri("hasUpStreamNode"), Iri("SupplierNode3.5"))
    assert "tier-coverage" in codes(errors(validate(automotive_graph)))


def test_tier_skip_is_warning(automotive_graph):
    automotive_graph.insert(tr("SupplierNode1.1", "hasUpStreamNode", "SupplierNode3.1"))
    found = validate(automotive_graph)
    assert "tier-skip" in codes(found)
    assert "tier-skip" not in codes(errors(found))


# --- BOM ---

def test_bom_cycle_detected():
    g = Graph()
    for name in ("Car", "Wheel"):
        g.insert(tr(name, "rdf:type", "Product"))
    for parent, child in [("Car", "Wheel"), ("Wheel", "Car")]:
        inner = Triple(Iri(parent), Iri("needsProduct"), Iri(child))
        g.insert(inner)
        g.insert(Triple(Quoted(inner), Iri("needsQuantity"), integer(2)))
    assert "bom-cycle" in codes(errors(validate(g)))


def test_bom_cycles_report_their_paths_in_visiting_order():
    g = Graph()
    for parent, child in [("A", "B"), ("B", "C"), ("C", "A"), ("B", "D"), ("D", "B")]:
        g.insert(tr(parent, "needsProduct", child))
    cycles = [(x.subject, x.message) for x in validate(g) if x.code == "bom-cycle"]
    assert cycles == [
        ("C", "bill of materials contains a cycle: A -> B -> C -> A"),
        ("D", "bill of materials contains a cycle: B -> D -> B"),
    ]
    # the children are visited in canonical order, B before C, so each
    # cycle is found from B; from C it would read C -> B -> C
    g = Graph()
    for i in range(8):
        for parent, child in [("A", "B"), ("A", "C"), ("B", "C"), ("C", "B")]:
            g.insert(tr(f"{parent}{i}", "needsProduct", f"{child}{i}"))
    cycles = [(x.subject, x.message) for x in validate(g) if x.code == "bom-cycle"]
    assert cycles == [(f"C{i}", f"bill of materials contains a cycle: B{i} -> C{i} -> B{i}") for i in range(8)]


def test_violations_are_sorted_and_deduped(automotive_graph):
    automotive_graph.insert(tr("OEM1", "hasColor", string("blue")))
    automotive_graph.insert(tr("OEM1", "hasColor", string("red")))
    automotive_graph.insert(tr("X", "rdf:type", "Widget"))
    found = validate(automotive_graph)
    assert found == sorted(
        found, key=lambda v: (v.severity, v.code, v.subject, v.message)
    )
    assert len(found) == len(set(found))
