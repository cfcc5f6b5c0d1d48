"""Synthetic network generation: topology counts, determinism, stream
alignment, config parsing."""

import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supplykg import Iri, Quoted, Triple, integer, serialize
from supplykg.generator import (
    _OVERRIDABLE,
    PRESETS,
    ConfigError,
    GeneratorConfig,
    automotive,
    dairy,
    generate,
    parse_config_text,
    parse_scenario_text,
    with_updates,
)
from supplykg.schema import bom, node, nodes_of_kind, orders, the_oem
from supplykg import vocab as v


# --- topology ---

def test_automotive_node_counts(automotive_graph):
    g = automotive_graph
    suppliers = nodes_of_kind(g, v.SUPPLIER)
    customers = nodes_of_kind(g, v.CUSTOMER)
    assert len(suppliers) == 10
    assert len(customers) == 8
    assert the_oem(g) == Iri("OEM1")
    by_tier = lambda names, t: [n for n in names if node(g, n).tier == t]
    assert [len(by_tier(suppliers, t)) for t in (1, 2, 3)] == [2, 3, 5]
    assert [len(by_tier(customers, t)) for t in (1, 2, 3)] == [2, 2, 4]


def test_dairy_node_counts(dairy_graph):
    g = dairy_graph
    suppliers = nodes_of_kind(g, v.SUPPLIER)
    customers = nodes_of_kind(g, v.CUSTOMER)
    assert len(suppliers) == 3
    assert all(node(g, n).tier == 1 for n in suppliers)
    assert len(customers) == 5
    by_tier = lambda t: [n for n in customers if node(g, n).tier == t]
    assert [len(by_tier(t)) for t in (1, 2)] == [2, 3]


def test_query_probe_nodes_exist(automotive_graph):
    """The canonical example queries probe these names."""
    assert node(automotive_graph, Iri("Node3.2")).kind == "Customer"
    assert node(automotive_graph, Iri("SupplierNode1.1")).kind == "Supplier"
    assert Triple(Iri("Product"), v.RDF_TYPE, v.PRODUCT) in automotive_graph


def test_every_node_is_linked_toward_the_oem(automotive_graph):
    g = automotive_graph
    for s in nodes_of_kind(g, v.SUPPLIER):
        view = node(g, s)
        if view.tier == 1:
            assert Iri("OEM1") in g.objects(s, v.HAS_OEM)
        else:
            assert g.subjects(v.HAS_UPSTREAM_NODE, s), f"{s.name} unreachable"
    for c in nodes_of_kind(g, v.CUSTOMER):
        view = node(g, c)
        if view.tier == 1:
            assert c in g.objects(Iri("OEM1"), v.OEM_HAS_NODE)
        else:
            assert g.subjects(v.HAS_DOWNSTREAM_NODE, c), f"{c.name} unreachable"


def test_tier_chain_entities(automotive_graph):
    g = automotive_graph
    for t in (1, 2, 3):
        assert Triple(Iri(f"SupplierTier{t}"), v.RDF_TYPE, v.SUPPLIER_TIER) in g
        assert Triple(Iri(f"CustomerTier{t}"), v.RDF_TYPE, v.CUSTOMER_TIER) in g
    # supplier tiers chain away from the focal node, customer tiers toward
    # the end customers; each side uses its own direction predicate
    assert Iri("SupplierTier2") in g.objects(Iri("SupplierTier1"), v.HAS_UPSTREAM_TIER)
    assert Iri("SupplierTier3") in g.objects(Iri("SupplierTier2"), v.HAS_UPSTREAM_TIER)
    assert Iri("CustomerTier2") in g.objects(Iri("CustomerTier1"), v.HAS_DOWNSTREAM_TIER)
    assert Iri("CustomerTier3") in g.objects(Iri("CustomerTier2"), v.HAS_DOWNSTREAM_TIER)


# --- bill of materials ---

def test_bom_is_complete_bipartite_between_adjacent_levels(automotive_graph):
    g = automotive_graph
    level1 = sorted(p.name for p in nodes_of_kind(g, v.PRODUCT) if p.name.startswith("Product1."))
    level2 = sorted(p.name for p in nodes_of_kind(g, v.PRODUCT) if p.name.startswith("Product2."))
    assert level1 and level2
    assert [e.child for e in bom(g, Iri("Product"))] == level1
    for parent in level1:
        assert [e.child for e in bom(g, Iri(parent))] == level2


def test_bom_quantities_are_asserted_and_quoted(automotive_graph):
    g = automotive_graph
    for e in bom(g, Iri("Product")):
        inner = Triple(Iri("Product"), v.NEEDS_PRODUCT, Iri(e.child))
        assert inner in g
        assert g.objects(Quoted(inner), v.NEEDS_QUANTITY) == [integer(e.quantity)]
        assert 1 <= e.quantity <= 4


def test_finished_product_always_has_makers(automotive_graph):
    """Someone manufactures every level-1 component: the first supplier
    tier has a single product group in both presets."""
    g = automotive_graph
    for e in bom(g, Iri("Product")):
        assert g.subjects(v.MANUFACTURES, Iri(e.child))


# --- demand ---

def test_orders_come_from_most_downstream_customers(automotive_graph):
    g = automotive_graph
    deepest = {n.name for n in nodes_of_kind(g, v.CUSTOMER) if node(g, n).tier == 3}
    found = orders(g)
    assert found
    assert {o.maker for o in found} == deepest
    for o in found:
        assert o.product == "Product"
        assert o.quantity == 100_000
        assert o.fulfilled is None
        assert o.supply_plan is not None
        assert Triple(Iri(o.supply_plan), v.RDF_TYPE, v.SUPPLY_PLAN) in g


def test_order_count_and_due_bounds(automotive_graph):
    g = automotive_graph
    config = automotive()
    oem_lead = node(g, Iri("OEM1")).delivery_time
    suppliers = nodes_of_kind(g, v.SUPPLIER)
    max_lead = max(node(g, s).delivery_time for s in suppliers)
    found = orders(g)
    for o in found:
        due = o.delivery_time
        issue = due - (oem_lead + max_lead + 1)
        assert 0 <= issue < config.horizon
        assert due < config.horizon
        assert issue % (10 // config.demand_frequency) == 0
    windows = range(0, config.horizon, 10)
    deepest = config.customer_tier_nodes[-1]
    ceiling = len(windows) * deepest * config.demand_frequency
    assert 0 < len(found) <= ceiling


# --- determinism and stream alignment ---

def test_same_seed_same_graph():
    a = serialize(generate(automotive()))
    b = serialize(generate(automotive()))
    assert a == b


def test_different_seed_different_graph():
    a = serialize(generate(automotive()))
    b = serialize(generate(dataclasses.replace(automotive(), seed=8)))
    assert a != b


def _strip_lines(text, *needles):
    return "\n".join(
        line
        for line in text.splitlines()
        if not any(needle in line for needle in needles)
    )


def test_degenerate_range_keeps_stream_aligned():
    """Pinning a range to a constant changes only that property: the
    single draw a degenerate range consumes keeps every later draw
    identical, so scenario variants stay comparable."""
    base = automotive()
    pinned = dataclasses.replace(base, saturation_range=(2_000_000, 2_000_000))
    a = _strip_lines(serialize(generate(base)), " :hasSaturation ")
    b = _strip_lines(serialize(generate(pinned)), " :hasSaturation ")
    assert a == b


def test_kpi_override_pins_one_indicator_only():
    base = automotive()
    pinned = dataclasses.replace(
        base, kpi_range_overrides=(("hasResponsiveness", (85, 85)),)
    )
    g = generate(pinned)
    for kind in (v.OEM, v.SUPPLIER, v.CUSTOMER):
        for n in nodes_of_kind(g, kind):
            assert g.objects(n, Iri("hasResponsiveness")) == [integer(85)]
    # the pinned value also shows up in the hasSCORKPI summary strings,
    # so both carriers of the indicator are excluded from the comparison
    a = _strip_lines(serialize(generate(base)), " :hasResponsiveness ", "Responsiveness: ")
    b = _strip_lines(serialize(g), " :hasResponsiveness ", "Responsiveness: ")
    assert a == b


def test_per_node_override_touches_only_that_node():
    base = automotive()
    tweaked = dataclasses.replace(
        base, per_node_overrides=(("OEM1", "hasSaturation", 123_456),)
    )
    ga, gb = generate(base), generate(tweaked)
    assert gb.objects(Iri("OEM1"), v.HAS_SATURATION) == [integer(123_456)]
    changed = set(serialize(ga).splitlines()) ^ set(serialize(gb).splitlines())
    assert changed
    assert all(line.startswith(":OEM1 :hasSaturation ") for line in changed)


def test_every_accepted_node_override_is_drawn():
    """check_config accepts exactly the overrides emit_node applies: each
    property it allows for a node class changes that node's triples. A
    transport mode takes two of its allowed values, the rest 1 and 2."""
    sample = {v.OEM: "OEM1", v.SUPPLIER: "SupplierNode1.1", v.CUSTOMER: "Node1.1"}
    base = dataclasses.replace(dairy(), initial_capacity=1)  # a saturation of 1 holds it
    for kind, props in _OVERRIDABLE.items():
        for prop in sorted(props):
            key = f"per_node_overrides.{sample[kind]}.{prop}"
            values = v.TRANSPORT_MODES[:2] if prop == v.HAS_TRANSPORT_MODE.name else (1, 2)
            one, two = (serialize(generate(with_updates(base, [f"{key}={value}"]))) for value in values)
            assert one != two, key


def test_generated_graphs_validate_clean_across_seeds():
    from supplykg.validation import validate

    for seed in range(3):
        for preset in (automotive, dairy):
            config = dataclasses.replace(preset(), seed=seed)
            assert validate(generate(config)) == []


# --- config files ---

def test_parse_config_round_trip():
    text = """
    # custom network
    preset = dairy
    seed = 11
    demand_frequency = 5
    saturation_range = [400000, 900000]
    kpi_range_overrides.hasAgility = [10, 20]
    per_node_overrides.OEM1.hasSaturation = 7777
    """
    config = parse_config_text(text)
    want = dataclasses.replace(
        dairy(),
        seed=11,
        demand_frequency=5,
        saturation_range=(400_000, 900_000),
        kpi_range_overrides=(("hasAgility", (10, 20)),),
        per_node_overrides=(("OEM1", "hasSaturation", 7777),),
    )
    assert config == want


def test_parse_config_defaults_to_automotive():
    assert parse_config_text("seed = 3") == dataclasses.replace(automotive(), seed=3)


@pytest.mark.parametrize(
    "text",
    [
        "frobnicate = 1",
        "seed = banana",
        "saturation_range = [9, 3]",
        "preset = plastics",
        "demand_frequency = 0",
        "supplier_groups = [1, 2]",
        "seed",
        "order_product = Widget",
        "preset = [0, 100]",
        "priority_range = [0, 3]",
        "kpi_range = [0, 500]",
        "per_node_overrides.Node1.1.hasPriority = 0",
        "per_node_overrides.Nope.hasPriority = 2",
        "per_node_overrides.Node1.1.hasColour = 2",
        "per_node_overrides.SupplierNode1.1.hasPriority = 2",
        "per_node_overrides.Node1.1.inventory = 5",
    ],
)
def test_parse_config_rejects(text):
    with pytest.raises(ConfigError):
        parse_config_text(text)


def test_parse_scenarios():
    text = """
    preset = automotive
    seed = 7

    [Low]
    demand_frequency = 1

    [High]
    demand_frequency = 8
    """
    base, scenarios = parse_scenario_text(text)
    assert base.seed == 7
    assert [label for label, _ in scenarios] == ["Low", "High"]
    assert scenarios[0][1].demand_frequency == 1
    assert scenarios[1][1].demand_frequency == 8
    # overrides start from the shared base
    assert scenarios[0][1].saturation_range == base.saturation_range


@pytest.mark.parametrize(
    "text",
    [
        "seed = 1",                                 # no scenario sections
        "[A]\nseed = 1\n[A]\nseed = 2",             # duplicate label
        "[A]\npreset = dairy",                      # preset inside a section
    ],
)
def test_parse_scenarios_rejects(text):
    with pytest.raises(ConfigError):
        parse_scenario_text(text)


def test_with_updates():
    config = with_updates(automotive(), ["seed=9", "order_quantity=5"])
    assert config.seed == 9
    assert config.order_quantity == 5
    with pytest.raises(ConfigError):
        with_updates(automotive(), ["seed"])
    with pytest.raises(ConfigError):
        with_updates(automotive(), ["nope=1"])


def test_check_config_bounds():
    with pytest.raises(ConfigError):
        generate(dataclasses.replace(automotive(), horizon=0))
    with pytest.raises(ConfigError):
        generate(dataclasses.replace(automotive(), supplier_groups=(0, 2, 4)))
    with pytest.raises(ConfigError):
        generate(
            dataclasses.replace(
                automotive(), kpi_range_overrides=(("hasSpeed", (1, 2)),)
            )
        )


# --- one reading for every config source ---

_NODE_IDS = ["OEM1", "SupplierNode1.1", "SupplierNode3.5", "SupplierNode4.1", "Node1.1", "Node3.4", "Node01.1", "Nope"]
_KEYS = {
    **{f.name: st.just(f.name) for f in dataclasses.fields(GeneratorConfig)},
    "kpi_range_overrides": st.sampled_from([p.name for p in v.KPI_PREDICATES] + ["hasSpeed", ""]).map(
        lambda name: f"kpi_range_overrides.{name}"
    ),
    "per_node_overrides": st.builds(
        lambda node_id, prop: f"per_node_overrides.{node_id}{prop}",
        st.sampled_from(_NODE_IDS),
        st.sampled_from(sorted({f".{p}" for props in _OVERRIDABLE.values() for p in props} | {".hasColour", ""})),
    ),
}
_NUMBERS = st.one_of(st.integers(-3, 12), st.integers(0, 120), st.integers(900, 3_000_000))
_VALUES = st.one_of(
    _NUMBERS.map(str),
    st.one_of(st.tuples(_NUMBERS, _NUMBERS).map(sorted), st.lists(_NUMBERS, max_size=4)).map(
        lambda xs: "[" + ", ".join(map(str, xs)) + "]"
    ),
    st.sampled_from(["road", "dairy", "1 2", "[1, x]", "[]"]),
)


def _outcome(read):
    """The config ``read`` returns, or its error's message without the
    location ("line N: " or "override N: ") it starts with."""
    try:
        return read()
    except ConfigError as exc:
        return re.sub(r"^(line|override) \d+: ", "", str(exc))


@pytest.mark.parametrize("field", sorted(_KEYS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_every_source_reads_a_key_alike(field, data):
    """A config file's ``key = value`` line, ``with_updates``'s "key=value"
    and a scenario section's line give equal configs, or the same error."""
    preset = data.draw(st.sampled_from(sorted(PRESETS)))
    key, value = data.draw(_KEYS[field]), data.draw(_VALUES)
    line = f"{key} = {value}"
    from_file = _outcome(lambda: parse_config_text(f"preset = {preset}\n{line}"))
    from_set = _outcome(lambda: with_updates(PRESETS[preset](), [f"{key}={value}"]))
    from_section = _outcome(lambda: parse_scenario_text(f"preset = {preset}\n[S]\n{line}")[1][0][1])
    assert from_file == from_set == from_section
