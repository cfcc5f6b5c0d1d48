"""End-to-end checks of the toolkit's headline guarantees.

Each test covers one guarantee and prints a single pass/fail line, so
``pytest -s tests/test_acceptance.py`` reads as a checklist. The checks
deliberately go through public entry points only: the generator and
simulator APIs, the analytics layer, and the command line.
"""

import contextlib
import hashlib
import time
from pathlib import Path

from randcases import run_differential_sweep
from supplykg import Iri, Quoted, boolean, parse_graph, serialize
from supplykg.analytics import average_scor_kpi, conformance_corpus, run_scenarios
from supplykg.cli import main
from supplykg.fulfillment import Simulation
from supplykg.generator import (
    GeneratorConfig,
    automotive,
    dairy,
    generate,
    parse_scenario_file,
)
from supplykg.schema import bom, capacity_records, node, nodes_of_kind, orders
from supplykg import vocab as v

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios" / "automotive_sweep.cfg"


@contextlib.contextmanager
def shown(label):
    """Print one checklist line for the wrapped block, pass or fail."""
    try:
        yield
    except BaseException:
        print(f"{label}: fail")
        raise
    print(f"{label}: pass")


def test_1_topology_reproduction():
    with shown("1 topology reproduction"):
        start = time.perf_counter()
        auto = generate(automotive())
        milk = generate(dairy())
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0

        def tier_counts(graph, kind):
            names = nodes_of_kind(graph, kind)
            tiers = sorted({node(graph, n).tier for n in names})
            return [sum(node(graph, n).tier == t for n in names) for t in tiers]

        assert tier_counts(auto, v.SUPPLIER) == [2, 3, 5]
        assert len(nodes_of_kind(auto, v.OEM)) == 1
        assert tier_counts(auto, v.CUSTOMER) == [2, 2, 4]
        assert tier_counts(milk, v.SUPPLIER) == [3]
        assert tier_counts(milk, v.CUSTOMER) == [2, 3]


def test_2_query_conformance_corpus():
    with shown("2 query conformance corpus"):
        graph = generate(automotive())
        checks = conformance_corpus(graph)
        assert len(checks) >= 11
        for check in checks:
            assert check.passed, f"{check.id}: {check.note}"
            assert check.rows > 0
        quoted = [c for c in checks if c.id == "Q3"]
        assert quoted and "<<" in quoted[0].query


def test_3_full_horizon_run():
    with shown("3 full-horizon run"):
        graph = generate(automotive())
        placed = {o.id for o in orders(graph)}
        start = time.perf_counter()
        reports = Simulation(graph).run(178)
        assert time.perf_counter() - start < 10.0
        assert len(reports) == 178
        verdicts = {}
        for t in graph.triples():
            if t.predicate == v.IS_FULFILLED and isinstance(t.subject, Iri):
                verdicts[t.subject.name] = verdicts.get(t.subject.name, 0) + 1
        assert verdicts.keys() == placed
        assert set(verdicts.values()) == {1}


def test_4_scenario_directionality():
    with shown("4 scenario directionality"):
        _, scenarios = parse_scenario_file(SCENARIOS)
        assert [label for label, _ in scenarios] == ["S1", "S2", "S3"]
        for seed in range(10):
            rows = {r.label: r for r in run_scenarios(scenarios, seed=seed)}
            # doubling demand frequency cannot raise the fulfillment rate
            assert rows["S2"].rate <= rows["S1"].rate, f"seed {seed}"
            # raising saturation cannot lower it, and spreads the load
            assert rows["S3"].rate >= rows["S2"].rate, f"seed {seed}"
            assert rows["S3"].mean_utilization <= rows["S2"].mean_utilization, f"seed {seed}"


def test_5_pinned_kpi_average():
    with shown("5 pinned KPI average"):
        pinned = GeneratorConfig(kpi_range_overrides=(("hasResponsiveness", (85, 85)),))
        assert average_scor_kpi(generate(pinned), "Responsiveness") == 85.0
        _, scenarios = parse_scenario_file(SCENARIOS)
        results = run_scenarios(scenarios, seed=0)
        assert {r.average_responsiveness for r in results} == {85.0}


def test_6_engine_reference_equivalence():
    with shown("6 engine-reference equivalence"):
        stats = run_differential_sweep(num_graphs=110, seed=20260816, queries_per_graph=2)
        assert stats["graphs"] == 110
        assert stats["max_size"] <= 1000
        assert stats["selects"] > 0 and stats["inserts"] > 0
        assert stats["nonempty"] >= 20


def _check_conserved(graph, sim):
    for record in sim._stock.values():
        assert record.quantity >= 0
    for record in graph.subjects(v.RDF_TYPE, v.INVENTORY):
        [quantity] = graph.objects(record, v.HAS_QUANTITY)
        assert quantity.value >= 0
    lead = {}
    for name in graph.subjects(v.RDF_TYPE, v.NODE):
        view = node(graph, name)
        lead[view.id] = view.delivery_time
        for record in capacity_records(graph, name):
            assert record.quantity <= view.saturation
    bom_qty = {edge.child: edge.quantity for edge in bom(graph, Iri("Product"))}
    for order in orders(graph):
        if not order.fulfilled:
            continue
        lines = {}
        for t in graph.triples():
            if (
                isinstance(t.subject, Quoted)
                and t.subject.triple.subject == Iri(order.supply_plan)
                and t.subject.triple.predicate == v.NEEDS_NODE
            ):
                entry = lines.setdefault(t.subject.triple.object.name, {})
                entry[t.predicate.name] = t.object
        oem_line = lines.pop("OEM1")
        produced = oem_line["hasQuantity"].value
        t_oem = oem_line["hasTimeStamp"].value
        assert 0 < produced <= order.quantity
        for supplier, entry in lines.items():
            assert entry["hasQuantity"].value == bom_qty[entry["getsProduct"].name] * produced
            assert entry["hasTimeStamp"].value == t_oem - lead[supplier]


def test_7_conservation_and_atomicity():
    with shown("7 conservation and atomicity"):
        small = dairy()
        for seed in range(50):
            config = GeneratorConfig(
                seed=seed,
                supplier_tier_nodes=(2,),
                customer_tier_nodes=(2,),
                supplier_groups=(1,),
                saturation_range=small.saturation_range,
                delivery_time_range=small.delivery_time_range,
                inventory_range=small.inventory_range,
                demand_frequency=2,
                order_quantity=5_000,
                horizon=30,
            )
            graph = generate(config)
            sim = Simulation(graph)
            sim.run(config.horizon)
            _check_conserved(graph, sim)
        # a starved network must fail every order while leaving the rest
        # of the graph untouched: only verdict lines may appear
        for seed in range(5):
            config = GeneratorConfig(
                seed=seed,
                saturation_range=(1, 1),
                inventory_range=(0, 0),
                initial_capacity=0,
                horizon=40,
            )
            graph = generate(config)
            before = serialize(graph)
            Simulation(graph).run(config.horizon)
            extra = set(serialize(graph).splitlines()) - set(before.splitlines())
            assert extra
            assert all(' :isFulfilled "False"^^boolean .' in line for line in extra)
            survivors = [
                line
                for line in serialize(graph).splitlines()
                if " :isFulfilled " not in line
            ]
            kept = hashlib.sha256(("\n".join(survivors) + "\n").encode()).hexdigest()
            assert kept == hashlib.sha256(before.encode()).hexdigest()


def test_8_serialization_round_trip():
    with shown("8 serialization round trip"):
        for config in (automotive(), dairy()):
            for seed in range(3):
                graph = generate(GeneratorConfig(**{**_as_dict(config), "seed": seed}))
                _assert_round_trips(graph)
            graph = generate(config)
            Simulation(graph).run(config.horizon)
            assert any(
                isinstance(t.subject, Quoted) and t.subject.triple.predicate == v.NEEDS_NODE
                for t in graph.triples()
            ), "simulation must leave quoted supply-plan lines behind"
            _assert_round_trips(graph)


def _as_dict(config):
    return {field: getattr(config, field) for field in config.__dataclass_fields__}


def _assert_round_trips(graph):
    text = serialize(graph)
    again = parse_graph(text)
    assert set(again.triples()) == set(graph.triples())
    assert serialize(again) == text


def test_9_pipeline_determinism(tmp_path):
    with shown("9 pipeline determinism"):
        outputs = []
        for tag in ("first", "second"):
            g = tmp_path / f"{tag}-graph.nt"
            r = tmp_path / f"{tag}-run.csv"
            f = tmp_path / f"{tag}-final.nt"
            k = tmp_path / f"{tag}-report.csv"
            assert main(["generate", "--preset", "automotive", "--seed", "7", "--out", str(g)]) == 0
            assert main([
                "simulate", "--graph", str(g), "--horizon", "178",
                "--out", str(r), "--final-graph", str(f),
            ]) == 0
            assert main(["report", "--graph", str(f), "--t", "0", "--out", str(k)]) == 0
            outputs.append((g.read_bytes(), r.read_bytes(), f.read_bytes(), k.read_bytes()))
        assert outputs[0] == outputs[1]
