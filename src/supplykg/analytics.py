"""Performance metrics, scenario sweeps, and the conformance corpus.

Every metric here is computed by running a query through the engine and
reading the result table, not by walking triples directly. That keeps the
metric definitions in the same language a user of the toolkit would write,
and the test suite cross-checks them against independent recounts.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace

from . import schema
from . import vocab as v
from .fulfillment import Simulation
from .generator import generate
from .graph import Graph
from .query import evaluate, parse_query
from .terms import INTEGER, STRING, Iri, Literal, timestep


class MissingDataError(ValueError):
    pass


_FULFILLMENT_QUERY = parse_query(
    'SELECT ?order (SUM(IF(REGEX(str(?x), "True"), 1, 0)) AS ?fulfill) '
    '(SUM(IF(REGEX(str(?x), "False"), 1, 0)) AS ?notfulfill) '
    "WHERE { ?order :isFulfilled ?x . }"
)

_UTILIZATION_QUERY = parse_query(
    "SELECT (100 * ?quant / ?max AS ?utilization) "
    "WHERE { nd :hasSaturation ?max . nd :hasCapacity ?cap . "
    "?cap :hasQuantity ?quant . ?cap :hasTimeStamp at . }",
    params=("nd", "at"),
)

_MEAN_UTILIZATION_QUERY = parse_query(
    "SELECT (AVG(100 * ?quant / ?max) AS ?mean) "
    "WHERE { ?node :hasSaturation ?max . ?node :hasCapacity ?cap . "
    "?cap :hasQuantity ?quant . }"
)

_KPI_QUERIES = {
    pred.name: parse_query(
        f"SELECT (AVG(?value) AS ?average) WHERE {{ ?node :{pred.name} ?value . }}"
    )
    for pred in v.KPI_PREDICATES
}

_KPI_BY_LABEL = {label: pred.name for pred, label in v.KPI_LABELS.items()}


def order_fulfillment(graph: Graph) -> tuple[int, int]:
    """Count (fulfilled, unfulfilled) orders from their recorded verdicts."""
    table = evaluate(_FULFILLMENT_QUERY, graph)
    fulfilled = unfulfilled = 0
    for _, yes, no in table.rows:
        fulfilled += yes.value
        unfulfilled += no.value
    return fulfilled, unfulfilled


def node_utilization(graph: Graph, node, t: int) -> float:
    """Committed load at step ``t`` as a percentage of the node's saturation."""
    node_iri = node if isinstance(node, Iri) else Iri(str(node))
    table = evaluate(_UTILIZATION_QUERY, graph, params={"nd": node_iri, "at": timestep(t)})
    if not table.rows:
        raise MissingDataError(f"{node_iri.name} has no capacity record at step {t}")
    return float(table.single_value().value)


def average_scor_kpi(graph: Graph, kpi: str) -> float:
    """Unweighted mean of one performance indicator over all carrying nodes.

    ``kpi`` is either the property name (``hasResponsiveness``) or its
    label (``Responsiveness``).
    """
    name = _KPI_BY_LABEL.get(kpi, kpi)
    if name not in _KPI_QUERIES:
        raise MissingDataError(f"unknown performance indicator {kpi!r}")
    table = evaluate(_KPI_QUERIES[name], graph)
    if not table.rows:
        raise MissingDataError(f"no node carries {name}")
    return float(table.single_value().value)


def mean_utilization(graph: Graph) -> float:
    """Mean of 100*committed/saturation over every capacity record."""
    table = evaluate(_MEAN_UTILIZATION_QUERY, graph)
    if not table.rows:
        raise MissingDataError("graph has no capacity records")
    return float(table.single_value().value)


@dataclass(frozen=True, slots=True)
class KpiReport:
    fulfilled: int
    unfulfilled: int
    rate: float | None
    kpi_averages: tuple[tuple[str, float], ...]
    mean_utilization: float | None
    t: int | None
    utilization_at: tuple[tuple[str, float], ...]


def build_report(graph: Graph, t: int | None = None) -> KpiReport:
    fulfilled, unfulfilled = order_fulfillment(graph)
    rate = 100.0 * fulfilled / (fulfilled + unfulfilled) if fulfilled + unfulfilled else None
    averages = []
    for pred in v.KPI_PREDICATES:
        try:
            averages.append((v.KPI_LABELS[pred], average_scor_kpi(graph, pred.name)))
        except MissingDataError:
            continue
    try:
        mean = mean_utilization(graph)
    except MissingDataError:
        mean = None
    at = []
    if t is not None:
        for node in sorted(schema.nodes_of_kind(graph, v.NODE), key=lambda n: n.name):
            try:
                at.append((node.name, node_utilization(graph, node, t)))
            except MissingDataError:
                continue
    return KpiReport(
        fulfilled=fulfilled,
        unfulfilled=unfulfilled,
        rate=rate,
        kpi_averages=tuple(averages),
        mean_utilization=mean,
        t=t,
        utilization_at=tuple(at),
    )


def report_csv(report: KpiReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["metric", "subject", "value"])
    writer.writerow(["orders_fulfilled", "", report.fulfilled])
    writer.writerow(["orders_unfulfilled", "", report.unfulfilled])
    if report.rate is not None:
        writer.writerow(["fulfillment_rate_percent", "", repr(report.rate)])
    for label, value in report.kpi_averages:
        writer.writerow(["average_kpi", label, repr(value)])
    if report.mean_utilization is not None:
        writer.writerow(["mean_utilization_percent", "", repr(report.mean_utilization)])
    for node, value in report.utilization_at:
        writer.writerow([f"utilization_percent_at_{report.t}", node, repr(value)])
    return out.getvalue()


@dataclass(frozen=True, slots=True)
class ScenarioResult:
    label: str
    fulfilled: int
    unfulfilled: int
    rate: float
    mean_utilization: float
    average_responsiveness: float


def run_scenarios(scenarios, seed: int | None = None) -> list[ScenarioResult]:
    """Generate, simulate, and score each (label, config) scenario.

    All scenarios share one seed (the explicit ``seed`` argument when
    given), so differences between results come from the overridden
    parameters alone.
    """
    results = []
    for label, config in scenarios:
        if seed is not None:
            config = replace(config, seed=seed)
        graph = generate(config)
        Simulation(graph).run(config.horizon)
        fulfilled, unfulfilled = order_fulfillment(graph)
        total = fulfilled + unfulfilled
        results.append(
            ScenarioResult(
                label=label,
                fulfilled=fulfilled,
                unfulfilled=unfulfilled,
                rate=100.0 * fulfilled / total if total else 0.0,
                mean_utilization=mean_utilization(graph),
                average_responsiveness=average_scor_kpi(graph, "Responsiveness"),
            )
        )
    return results


def scenario_csv(results) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        [
            "label",
            "fulfilled",
            "unfulfilled",
            "fulfillment_rate_percent",
            "mean_utilization_percent",
            "average_responsiveness",
        ]
    )
    for r in results:
        writer.writerow(
            [r.label, r.fulfilled, r.unfulfilled, repr(r.rate), repr(r.mean_utilization), repr(r.average_responsiveness)]
        )
    return out.getvalue()


def scenario_plot_data(results) -> str:
    """Tab-separated sweep results, one scenario per line, for plotting."""
    lines = ["# label\tfulfillment_rate\tmean_utilization\taverage_responsiveness"]
    for r in results:
        lines.append(f"{r.label}\t{r.rate!r}\t{r.mean_utilization!r}\t{r.average_responsiveness!r}")
    return "\n".join(lines) + "\n"


# --- conformance corpus ---

def _is_iri(term) -> bool:
    return isinstance(term, Iri)


def _is_int(term) -> bool:
    return isinstance(term, Literal) and term.datatype == INTEGER


def _is_kpi_string(term) -> bool:
    return isinstance(term, Literal) and term.datatype == STRING and ": " in term.value


def _cols_are(table, checks) -> bool:
    return all(check(row[index]) for row in table.rows for index, check in checks)


@dataclass(frozen=True, slots=True)
class CorpusCheck:
    id: str
    query: str
    rows: int
    passed: bool
    note: str = ""


_CORPUS: list[tuple[str, str, int, list]] = [
    ("Q1", "SELECT * WHERE { ?customer :makes ?order . }", 2, [(0, _is_iri), (1, _is_iri)]),
    (
        "Q2",
        "SELECT * WHERE { ?c a :Customer . ?c2 a :Customer . ?c ?x ?c2 . }",
        3,
        [(0, _is_iri), (1, _is_iri), (2, _is_iri)],
    ),
    (
        "Q3",
        "SELECT * WHERE { << :Product :needsProduct ?p >> :needsQuantity ?q . }",
        2,
        [(0, _is_iri), (1, _is_int)],
    ),
    ("Q4", "SELECT * WHERE { :Node3.2 :hasProcess ?process . }", 1, [(0, _is_iri)]),
    ("Q5", "SELECT * WHERE { :Node3.2 :hasSCORKPI ?kpi . }", 1, [(0, _is_kpi_string)]),
    ("Q6", "SELECT * WHERE { ?node ?a :Node . }", 2, [(0, _is_iri), (1, _is_iri)]),
    (
        "C1",
        "SELECT * WHERE { ?customer :makes ?order . ?upstream :hasDownStreamNode ?customer . }",
        3,
        [(0, _is_iri), (1, _is_iri), (2, _is_iri)],
    ),
    (
        "C2+C10",
        "SELECT * WHERE { << :Product :needsProduct ?p >> :needsQuantity ?q . }",
        2,
        [(0, _is_iri), (1, _is_int)],
    ),
    ("C4", "SELECT * WHERE { ?node :hasProcess ?process . }", 2, [(0, _is_iri), (1, _is_iri)]),
    ("C5", "SELECT * WHERE { ?node :hasResponsiveness ?r . }", 2, [(0, _is_iri), (1, _is_int)]),
    (
        "C8+C9",
        "SELECT * WHERE { ?node a :Node . ?node ?prop ?node2 . }",
        3,
        [(0, _is_iri), (1, _is_iri)],
    ),
]


def conformance_corpus(graph: Graph) -> list[CorpusCheck]:
    """Run the evaluation queries and check each returns plausible rows.

    The probe node names in Q4/Q5 exist in the default three-tier
    topology; running the corpus against other shapes reports those
    entries as failed data, not errors.
    """
    checks = []
    for case_id, text, arity, col_checks in _CORPUS:
        table = evaluate(parse_query(text), graph)
        note = ""
        passed = True
        if len(table.columns) != arity:
            passed, note = False, f"expected {arity} columns, got {len(table.columns)}"
        elif not table.rows:
            passed, note = False, "no rows"
        elif not _cols_are(table, col_checks):
            passed, note = False, "unexpected term kind in a column"
        checks.append(CorpusCheck(case_id, text, len(table.rows), passed, note))
    return checks
