"""KPI analytics: engine-computed metrics vs direct recounts, scenario
sweeps, conformance corpus."""

import dataclasses

import pytest

from supplykg import Graph, Iri, Triple, boolean, integer, timestep
from supplykg.analytics import (
    MissingDataError,
    average_scor_kpi,
    build_report,
    conformance_corpus,
    mean_utilization,
    node_utilization,
    order_fulfillment,
    report_csv,
    run_scenarios,
    scenario_csv,
    scenario_plot_data,
)
from supplykg import graph as graph_module
from supplykg.query import eval as eval_module
from supplykg.fulfillment import Simulation
from supplykg.generator import automotive, dairy, generate
from supplykg.schema import load_graph
from supplykg.serialization import serialize
from supplykg import vocab as v


def tr(s, p, o):
    return Triple(Iri(s), Iri(p), o if not isinstance(o, str) else Iri(o))


# --- order fulfillment, engine vs recount ---

def recount_verdicts(graph):
    """Independent tally: walk the triples and count isFulfilled values."""
    yes = no = 0
    for t in graph.triples():
        if t.predicate == v.IS_FULFILLED:
            if t.object == boolean(True):
                yes += 1
            else:
                no += 1
    return yes, no


def small_config(seed):
    return dataclasses.replace(
        dairy(),
        seed=seed,
        supplier_tier_nodes=(2,),
        customer_tier_nodes=(2,),
        horizon=30,
        demand_frequency=2,
    )


def test_order_fulfillment_matches_recount_across_many_runs():
    nonzero = 0
    for seed in range(50):
        config = small_config(seed)
        graph = generate(config)
        Simulation(graph).run(config.horizon)
        got = order_fulfillment(graph)
        assert got == recount_verdicts(graph), f"seed {seed}"
        if got[0] or got[1]:
            nonzero += 1
    assert nonzero == 50, "every run should resolve at least one order"


def test_order_fulfillment_on_simulated_preset(simulated_automotive):
    graph, reports = simulated_automotive
    fulfilled, unfulfilled = order_fulfillment(graph)
    assert fulfilled == sum(r.from_stock + r.produced for r in reports)
    assert unfulfilled == sum(r.unfulfilled for r in reports)


def test_order_fulfillment_counts_per_verdict():
    g = Graph()
    g.insert(tr("Cust1", "makes", "Order1"))
    g.insert(tr("Cust1", "makes", "Order2"))
    g.insert(tr("Cust2", "makes", "Order3"))
    g.insert(tr("Order1", "isFulfilled", boolean(True)))
    g.insert(tr("Order2", "isFulfilled", boolean(False)))
    g.insert(tr("Order3", "isFulfilled", boolean(True)))
    assert order_fulfillment(g) == (2, 1)


# --- utilization ---

def capacity_fixture(committed, saturation, t=3):
    g = Graph()
    g.insert(tr("N", "rdf:type", "Node"))
    g.insert(tr("N", "hasSaturation", integer(saturation)))
    g.insert(tr("CapNT3", "rdf:type", "Capacity"))
    g.insert(tr("N", "hasCapacity", "CapNT3"))
    g.insert(tr("CapNT3", "hasQuantity", integer(committed)))
    g.insert(tr("CapNT3", "hasTimeStamp", timestep(t)))
    return g


def test_node_utilization_examples():
    assert node_utilization(capacity_fixture(100, 400), "N", 3) == 25.0
    assert node_utilization(capacity_fixture(0, 400), "N", 3) == 0.0
    assert node_utilization(capacity_fixture(400, 400), "N", 3) == 100.0


def test_node_utilization_missing_record():
    g = capacity_fixture(100, 400)
    with pytest.raises(MissingDataError):
        node_utilization(g, "N", 7)
    with pytest.raises(MissingDataError):
        node_utilization(g, "Ghost", 3)


def test_mean_utilization_averages_all_records():
    g = capacity_fixture(100, 400)
    g.insert(tr("CapNT9", "rdf:type", "Capacity"))
    g.insert(tr("N", "hasCapacity", "CapNT9"))
    g.insert(tr("CapNT9", "hasQuantity", integer(200)))
    g.insert(tr("CapNT9", "hasTimeStamp", timestep(9)))
    assert mean_utilization(g) == pytest.approx((25.0 + 50.0) / 2)
    with pytest.raises(MissingDataError):
        mean_utilization(Graph())


def test_utilization_bounds_after_full_run(simulated_automotive):
    graph, _ = simulated_automotive
    from supplykg.schema import capacity_records, node, nodes_of_kind

    for kind in (v.OEM, v.SUPPLIER):
        for n in nodes_of_kind(graph, kind):
            sat = node(graph, n).saturation
            for record in capacity_records(graph, n):
                u = node_utilization(graph, n, record.timestep)
                assert 0.0 <= u <= 100.0
                assert u == pytest.approx(100.0 * record.quantity / sat)


# --- KPI averages ---

def kpi_graph(values):
    g = Graph()
    for i, value in enumerate(values):
        g.insert(tr(f"N{i}", "hasAgility", integer(value)))
    return g


def test_average_kpi_examples():
    assert average_scor_kpi(kpi_graph([85, 85, 85]), "Agility") == 85.0
    assert average_scor_kpi(kpi_graph([0, 100]), "Agility") == 50.0
    assert average_scor_kpi(kpi_graph([37]), "Agility") == 37.0


def test_average_kpi_accepts_label_or_property_name(simulated_automotive):
    graph, _ = simulated_automotive
    assert average_scor_kpi(graph, "Agility") == average_scor_kpi(graph, "hasAgility")


def test_average_kpi_unknown_or_missing():
    with pytest.raises(MissingDataError):
        average_scor_kpi(Graph(), "Agility")
    with pytest.raises(MissingDataError):
        average_scor_kpi(kpi_graph([1]), "Swagger")


def test_average_kpi_matches_recount(simulated_automotive):
    graph, _ = simulated_automotive
    values = [
        t.object.value for t in graph.triples() if t.predicate == Iri("hasAgility")
    ]
    assert average_scor_kpi(graph, "Agility") == pytest.approx(sum(values) / len(values))


# --- report ---

def test_build_report_shape(simulated_automotive):
    graph, _ = simulated_automotive
    report = build_report(graph, t=0)
    assert report.fulfilled + report.unfulfilled > 0
    assert report.rate == pytest.approx(
        100.0 * report.fulfilled / (report.fulfilled + report.unfulfilled)
    )
    assert [name for name, _ in report.kpi_averages] == list(v.KPI_LABELS.values())
    assert report.t == 0
    assert report.utilization_at, "every manufacturer has a baseline record at 0"
    text = report_csv(report)
    lines = text.splitlines()
    assert lines[0] == "metric,subject,value"
    assert any(line.startswith("fulfillment_rate_percent") for line in lines)
    assert any(line.startswith("utilization_percent_at_0,OEM1") for line in lines)


def test_report_without_timestep_skips_utilization_block(simulated_automotive):
    graph, _ = simulated_automotive
    report = build_report(graph)
    assert report.t is None
    assert report.utilization_at == ()
    assert "utilization_percent_at" not in report_csv(report)


@pytest.mark.parametrize("preset", [automotive, dairy])
def test_report_formats_each_triple_at_most_once(preset, tmp_path, monkeypatch):
    """Complexity guard: the report's joins read index buckets narrowed by
    their row bindings, and each query sorts only the rows it keeps, once,
    so building the report formats fewer terms and triples for sort keys
    than the graph holds triples. Sorting a bucket per joined row costs
    tens of calls per triple."""
    config = preset()
    graph = generate(config)
    Simulation(graph).run(config.horizon)
    path = tmp_path / "final.nt"
    path.write_text(serialize(graph), encoding="utf-8")
    loaded = load_graph(path)

    calls = 0

    def counting(real):
        def count(x):
            nonlocal calls
            calls += 1
            return real(x)

        return count

    sort_keys = {graph_module: ("format_term", "format_triple"), eval_module: ("format_term", "format_predicate")}
    for module, names in sort_keys.items():
        for name in names:
            monkeypatch.setattr(module, name, counting(getattr(module, name)))
    build_report(loaded, 0)
    assert 0 < calls <= len(loaded)


# --- scenario sweeps ---

def sweep_scenarios():
    base = dataclasses.replace(
        automotive(), kpi_range_overrides=(("hasResponsiveness", (85, 85)),)
    )
    return [
        ("S1", dataclasses.replace(base, demand_frequency=2, saturation_range=(2_000_000, 2_000_000))),
        ("S2", dataclasses.replace(base, demand_frequency=4, saturation_range=(2_000_000, 2_000_000))),
        ("S3", dataclasses.replace(base, demand_frequency=4, saturation_range=(3_000_000, 3_000_000))),
    ]


def test_sweep_directionality_and_invariance():
    results = run_scenarios(sweep_scenarios(), seed=7)
    s1, s2, s3 = results
    assert s2.rate <= s1.rate
    assert s3.rate >= s2.rate
    assert s3.mean_utilization <= s2.mean_utilization
    # responsiveness is a static generated property: pinning its range
    # makes the average an exact constant across the whole sweep
    assert {r.average_responsiveness for r in results} == {85.0}


def test_sweep_csv_and_plot_data():
    results = run_scenarios(sweep_scenarios(), seed=7)
    text = scenario_csv(results)
    lines = text.splitlines()
    assert lines[0].startswith("label,fulfilled,unfulfilled,")
    assert [line.split(",")[0] for line in lines[1:]] == ["S1", "S2", "S3"]
    plot = scenario_plot_data(results)
    assert plot.startswith("# label\t")
    assert plot.count("\n") == 4


def test_run_scenarios_seed_override_beats_config_seed():
    scenarios = [("A", dataclasses.replace(small_config(3), seed=99))]
    with_seed = run_scenarios(scenarios, seed=5)
    plain = run_scenarios([("A", small_config(5))])
    assert with_seed[0].fulfilled == plain[0].fulfilled
    assert with_seed[0].mean_utilization == plain[0].mean_utilization


# --- conformance corpus ---

def test_corpus_passes_on_generated_graph(automotive_graph):
    checks = conformance_corpus(automotive_graph)
    assert len(checks) == 11
    for check in checks:
        assert check.passed, f"{check.id}: {check.note}"
        assert check.rows >= 1


def test_corpus_passes_after_simulation(simulated_automotive):
    graph, _ = simulated_automotive
    assert all(c.passed for c in conformance_corpus(graph))


def test_corpus_includes_quoted_triple_probe(automotive_graph):
    q3 = [c for c in conformance_corpus(automotive_graph) if c.id == "Q3"]
    assert q3 and "<<" in q3[0].query


def test_corpus_flags_empty_results():
    checks = conformance_corpus(Graph())
    assert checks and all(not c.passed for c in checks)
