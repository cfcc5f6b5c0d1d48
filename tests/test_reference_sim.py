"""Differential test of the simulator against ``reference_sim``.

Small generated networks (one to three tiers a side, degenerate
saturation and inventory ranges) are simulated by ``Simulation`` and
replayed by the naive reference. Verdicts, step counts, plan lines and
the final capacity and stock ledgers must agree, and every unit of load
the run books must be a plan line.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_sim import simulate as reference
from supplykg import Iri, Quoted, Triple, boolean
from supplykg import vocab as v
from supplykg.fulfillment import Simulation
from supplykg.generator import GeneratorConfig, generate


def _config(seed, suppliers, groups, customers, sat, stock, lead, quantity, frequency, horizon, bom, initial):
    return GeneratorConfig(
        seed=seed,
        supplier_tier_nodes=tuple(suppliers),
        supplier_groups=tuple(min(g, n) for g, n in zip(groups, suppliers)),
        customer_tier_nodes=tuple(customers),
        priority_range=(1, 2),
        saturation_range=(sat, sat),
        delivery_time_range=(1, lead),
        inventory_range=(stock, stock),
        initial_capacity=min(initial, sat),
        bom_quantity_range=(1, bom),
        demand_frequency=frequency,
        order_quantity=quantity,
        horizon=horizon,
    )


configs = st.builds(
    _config,
    seed=st.integers(0, 2**32),
    suppliers=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    groups=st.lists(st.integers(1, 2), min_size=3, max_size=3),
    customers=st.lists(st.integers(1, 2), min_size=1, max_size=3),
    sat=st.integers(1, 60),
    stock=st.integers(0, 40),
    lead=st.integers(1, 3),
    quantity=st.integers(1, 15),
    frequency=st.integers(1, 3),
    horizon=st.integers(8, 30),
    bom=st.integers(1, 2),
    initial=st.integers(0, 10),
)

# Hand-picked cases that between them fill orders from stock, produce,
# reject and break ties by name (``test_examples_reach_every_branch``).
EXAMPLES = [
    _config(1, [3], [1], [2], 30, 12, 1, 5, 3, 30, 1, 0),
    _config(2, [2, 3], [1, 2], [1, 2], 20, 0, 2, 4, 2, 25, 2, 5),
    _config(3, [3, 2, 1], [2, 1, 1], [2], 8, 9, 1, 3, 3, 20, 1, 0),
]


def _plan_lines(graph):
    """plan name -> {(node, predicate name, value)} of its plan lines."""
    plans = {}
    for t in graph.triples():
        if isinstance(t.subject, Quoted) and t.subject.triple.predicate == v.NEEDS_NODE:
            plan, node = t.subject.triple.subject.name, t.subject.triple.object.name
            value = t.object.name if isinstance(t.object, Iri) else t.object.value
            plans.setdefault(plan, set()).add((node, t.predicate.name, value))
    return plans


def _line_triples(lines):
    out = set()
    for node, product, step, quantity, price in lines:
        out |= {(node, "getsProduct", product), (node, "hasTimeStamp", step)}
        out |= {(node, "hasQuantity", quantity), (node, "hasUnitPrice", price)}
    return out


@settings(max_examples=60, deadline=None)
@given(config=configs, self_supplier=st.booleans(), resolved=st.sets(st.integers(1, 8), max_size=2))
@example(config=EXAMPLES[0], self_supplier=False, resolved=set())
@example(config=EXAMPLES[1], self_supplier=True, resolved={2})
@example(config=EXAMPLES[2], self_supplier=False, resolved=set())
def test_simulation_matches_reference(config, self_supplier, resolved):
    graph = generate(config)
    oem = Iri("OEM1")
    if self_supplier:  # the focal node listed among its own suppliers
        graph.insert(Triple(oem, v.HAS_OEM, oem))
    orders = {o.name for o in graph.subjects(v.RDF_TYPE, v.ORDER)}
    for n in resolved:  # orders with a verdict before the run are never due
        if f"Order{n}" in orders:
            graph.insert(Triple(Iri(f"Order{n}"), v.IS_FULFILLED, boolean(n % 2 == 0)))
    before = list(graph.triples())
    want = reference(before, config.horizon)

    sim = Simulation(graph)
    reports = sim.run(config.horizon)
    assert [(r.considered, r.from_stock, r.produced, r.unfulfilled) for r in reports] == want["reports"]

    final = reference(graph.triples(), 0)  # the final graph's ledgers, read back plainly
    assert final["capacity"] == want["capacity"]
    assert final["stock"] == want["stock"]
    for (node, step), load in want["capacity"].items():
        assert sim.committed(node, step) == load
    for (node, product), (quantity, _) in want["stock"].items():
        assert sim.inventory_level(node, product) == quantity

    plan_of = {t.subject.name: t.object.name for t in graph.triples() if t.predicate == v.HAS_SUPPLY_PLAN}
    got_lines = _plan_lines(graph)
    for order, verdict in want["verdicts"].items():
        assert Triple(Iri(order), v.IS_FULFILLED, boolean(verdict != "rejected")) in graph
        assert got_lines.get(plan_of[order], set()) == _line_triples(want["lines"][order])
    assert set(got_lines) == {plan_of[o] for o, lines in want["lines"].items() if lines}

    # Conservation: the load the run added at each (node, step) is the sum
    # of the plan lines there. Every generated product has components, so
    # the orders served from stock are those whose plan names one node.
    initial = reference(before, 0)["capacity"]
    booked = {}
    for lines in got_lines.values():
        nodes = {node for node, _, _ in lines}
        if len(nodes) > 1:
            for node in nodes:
                [step] = [x for n, p, x in lines if n == node and p == "hasTimeStamp"]
                [quantity] = [x for n, p, x in lines if n == node and p == "hasQuantity"]
                booked[(node, step)] = booked.get((node, step), 0) + quantity
    grown = {key: sim.committed(*key) - initial.get(key, 0) for key in want["capacity"]}
    assert {key: load for key, load in grown.items() if load} == booked


def test_examples_reach_every_branch():
    verdicts, ties = set(), 0
    for config in EXAMPLES:
        result = reference(generate(config).triples(), config.horizon)
        verdicts |= set(result["verdicts"].values())
        ties += result["ties"]
    assert verdicts == {"stock", "produced", "rejected"}
    assert ties > 0
