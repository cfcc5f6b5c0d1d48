"""Command line interface: subcommand wiring, exit codes, file handling."""

import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import iri_names

import supplykg
from supplykg import Iri, Literal, Triple, parse_graph, serialize
from supplykg.cli import main
from supplykg.schema import SHAPES, capacity_records, load_graph, nodes_of_kind
from supplykg import vocab as v


def run(*argv):
    return main(list(argv))


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.nt"
    assert run("generate", "--preset", "automotive", "--seed", "7", "--out", str(path)) == 0
    return path


# --- generate ---

def test_generate_writes_parseable_topology(graph_file):
    graph = parse_graph(graph_file.read_text())
    assert len(nodes_of_kind(graph, v.SUPPLIER)) == 10
    assert len(nodes_of_kind(graph, v.CUSTOMER)) == 8
    assert len(nodes_of_kind(graph, v.OEM)) == 1


def test_generate_to_stdout(capsys):
    assert run("generate", "--preset", "dairy") == 0
    out = capsys.readouterr().out
    assert ":OEM1 a :OEM .\n" in out


def test_generate_set_overrides(tmp_path, capsys):
    assert run("generate", "--preset", "dairy", "--set", "order_quantity=9") == 0
    assert ' :hasQuantity 9 ' in capsys.readouterr().out


def test_generate_needs_a_source():
    assert run("generate") == 1


def test_generate_rejects_bad_override(capsys):
    assert run("generate", "--preset", "dairy", "--set", "seed=1", "--set", "nope=1") == 2
    assert capsys.readouterr().err == "error: override 2: unknown config key 'nope'\n"


_MAKERS_OF_DAIRY = ["OEM1", "SupplierNode1.1", "SupplierNode1.2", "SupplierNode1.3"]


@pytest.mark.parametrize(
    "sets, error",
    [
        (["saturation_range=[5,5]"], "saturation_range low end must be >= initial_capacity 10, got 5"),
        (
            ["per_node_overrides.SupplierNode1.2.hasSaturation=7"],
            "per_node_overrides.SupplierNode1.2.hasSaturation must be >= initial_capacity 10, got 7",
        ),
        (["saturation_range=[5,5]", "initial_capacity=5"], None),
        # customers hold no capacity record
        (["per_node_overrides.Node1.1.hasSaturation=7"], None),
        # no product-making node draws from the range
        (["saturation_range=[5,5]", *(f"per_node_overrides.{n}.hasSaturation=10" for n in _MAKERS_OF_DAIRY)], None),
    ],
    ids=["range", "override", "range-at-capacity", "customer-override", "every-maker-pinned"],
)
def test_generate_rejects_a_saturation_below_the_initial_capacity(sets, error, capsys):
    """The OEM and each supplier start with a capacity record of
    initial_capacity, so a config under which one of their saturations can
    fall below it is a config error, not a graph that validate rejects."""
    argv = ["generate", "--preset", "dairy", "--set", "initial_capacity=10"]
    for assignment in sets:
        argv += ["--set", assignment]
    assert run(*argv) == (0 if error is None else 2)
    assert capsys.readouterr().err == ("" if error is None else f"error: {error}\n")


def test_generate_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "net.cfg"
    cfg.write_text("preset = dairy\nseed = 3\n")
    assert run("generate", "--config", str(cfg)) == 0
    direct = capsys.readouterr().out
    assert run("generate", "--preset", "dairy", "--seed", "3") == 0
    assert capsys.readouterr().out == direct


# --- simulate ---

def test_simulate_produces_one_row_per_step(graph_file, tmp_path):
    out = tmp_path / "r.csv"
    final = tmp_path / "final.nt"
    code = run(
        "simulate", "--graph", str(graph_file), "--horizon", "178",
        "--out", str(out), "--final-graph", str(final),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,considered,from_stock,produced,unfulfilled"
    assert len(lines) == 179
    assert "isFulfilled" in final.read_text()


def test_simulate_rejects_zero_horizon(graph_file, tmp_path):
    out = tmp_path / "r.csv"
    assert run("simulate", "--graph", str(graph_file), "--horizon", "0", "--out", str(out)) == 2
    assert not out.exists(), "failed runs must not leave partial files"


def test_simulate_missing_graph(tmp_path):
    assert run("simulate", "--graph", str(tmp_path / "nope.nt"), "--horizon", "5") == 1


@pytest.mark.parametrize(
    "extra",
    [
        # a second capacity record for OEM1 at the step of its baseline record
        ":OEM1 :hasCapacity :CapTwin .\n:CapTwin :hasProduct :Product .\n"
        ":CapTwin :hasQuantity 1 .\n:CapTwin :hasCost 1 .\n:CapTwin :hasTimeStamp \"{t}\"^^timestep .\n",
        # an inventory record with no timestep
        ":OEM1 :hasInventory :InvBare .\n:InvBare :hasProduct :Product .\n:InvBare :hasQuantity 5 .\n",
    ],
    ids=["two-capacity-records-at-one-step", "inventory-without-timestep"],
)
def test_simulate_rejects_malformed_records(graph_file, tmp_path, capsys, extra):
    first = capacity_records(load_graph(str(graph_file)), Iri("OEM1"))[0]
    bad = tmp_path / "bad.nt"
    bad.write_text(graph_file.read_text() + extra.format(t=first.timestep))
    out = tmp_path / "r.csv"
    assert run("simulate", "--graph", str(bad), "--horizon", "10", "--out", str(out)) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "second, finding, message",
    [
        ("", "missing-product OEM1: OEM1 has no manufactures", "OEM1 has no manufactures"),
        (
            ":OEM1 :manufactures :Product .\n:OEM1 :manufactures :Product1.1 .\n",
            "multi-valued OEM1: OEM1 manufactures must have a single value",
            "OEM1 manufactures must have a single value",
        ),
    ],
    ids=["no-product", "two-products"],
)
def test_oem_needs_exactly_one_product(graph_file, tmp_path, capsys, second, finding, message):
    """simulate rejects an OEM that makes no product or two, so validate
    does too."""
    text = graph_file.read_text()
    assert ":OEM1 :manufactures :Product .\n" in text
    bad = tmp_path / "bad.nt"
    bad.write_text(text.replace(":OEM1 :manufactures :Product .\n", second))
    assert run("validate", "--graph", str(bad)) == 2
    assert f"error {finding}\n" in capsys.readouterr().out
    out = tmp_path / "r.csv"
    assert run("simulate", "--graph", str(bad), "--horizon", "178", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("quantity, stock", [(0, False), (-5, True)], ids=["zero-without-stock", "negative"])
def test_order_quantity_below_one_is_rejected(graph_file, tmp_path, capsys, quantity, stock):
    text = graph_file.read_text()
    assert ":Order1 :hasQuantity 100000 .\n" in text
    text = text.replace(":Order1 :hasQuantity 100000 .\n", f":Order1 :hasQuantity {quantity} .\n")
    if not stock:  # the OEM holds no inventory record at all
        text = "".join(line for line in text.splitlines(keepends=True) if "InvOEM1" not in line)
    bad = tmp_path / "bad.nt"
    bad.write_text(text)
    assert run("validate", "--graph", str(bad)) == 2
    assert f"error bad-order Order1: Order1 hasQuantity must be >= 1, got {quantity}\n" in capsys.readouterr().out
    out = tmp_path / "r.csv"
    final = tmp_path / "final.nt"
    code = run("simulate", "--graph", str(bad), "--horizon", "178", "--out", str(out), "--final-graph", str(final))
    assert code == 2
    err = capsys.readouterr().err
    assert "Order1 hasQuantity must be >= 1" in err and "Traceback" not in err
    assert not out.exists() and not final.exists()


_BOM_EDGE = "<< :Product :needsProduct :Product1.1 >> :needsQuantity "


@pytest.mark.parametrize(
    "prefix, value",
    [
        (":SupplierNode1.1 :hasDeliveryTime ", "-3"),
        (":SupplierNode1.1 :hasDeliveryTime ", "0"),
        (":SupplierNode1.1 :hasCost ", "-500"),
        (":SupplierNode1.1 :hasCost ", '"45"'),
        (":InvOEM1 :hasQuantity ", "-70000"),
        (":OEM1 :hasSaturation ", "-5"),
        (":CapSupplierNode1.1T0 :hasQuantity ", "-900000"),
        (_BOM_EDGE, "-2"),
        (_BOM_EDGE, "0"),
        (_BOM_EDGE, None),
        (":Order1 :hasSupplyPlan ", '"SPOrder1"'),
        (":Order1 :hasSupplyPlan ", "<< :SPOrder1 :needsNode :OEM1 >>"),
        (":SupplierNode1.1 :hasTransportMode ", '"road" .\n:SupplierNode1.1 :hasTransportMode "air"'),
        (":SupplierNode1.1 :hasTransportMode ", "5"),
        ((":InvOEM1 a ", ":InvOEM1 :hasQuantity "), (None, '"lots"')),
    ],
    ids=[
        "delivery-time-negative",
        "delivery-time-zero",
        "cost-negative",
        "cost-string",
        "inventory-negative",
        "saturation-negative",
        "capacity-negative",
        "bom-quantity-negative",
        "bom-quantity-zero",
        "bom-quantity-missing",
        "supply-plan-literal",
        "supply-plan-quoted",
        "transport-mode-second-value",
        "transport-mode-integer",
        "untyped-inventory-string",
    ],
)
def test_validate_and_simulate_reject_the_same_values(tmp_path, capsys, prefix, value):
    """A value validate rejects makes simulate exit 2, and a value that
    makes simulate exit 2 fails validate. The line that starts with each
    prefix gets its value, or is dropped for None."""
    graph = tmp_path / "g.nt"
    assert run("generate", "--preset", "dairy", "--seed", "3", "--out", str(graph)) == 0
    lines = graph.read_text().splitlines(keepends=True)
    for start, new in [(prefix, value)] if isinstance(prefix, str) else zip(prefix, value):
        [at] = [i for i, line in enumerate(lines) if line.startswith(start)]
        lines[at] = "" if new is None else f"{start}{new} .\n"
    bad = tmp_path / "bad.nt"
    bad.write_text("".join(lines))
    capsys.readouterr()
    assert run("validate", "--graph", str(bad)) == 2
    out = tmp_path / "r.csv"
    assert run("simulate", "--graph", str(bad), "--horizon", "60", "--out", str(out)) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, code, subject, predicate, read_by_simulate",
    [
        (':SupplierNode1.1 :hasTransportMode "air" .\n', "multi-valued", "SupplierNode1.1", "hasTransportMode", True),
        (":Node2.1 :belongsToTier :CustomerTier1 .\n", "multi-valued", "Node2.1", "belongsToTier", False),
        (":OEM1 :manufactures :Product1.1 .\n", "multi-valued", "OEM1", "manufactures", True),
        (":Order1 :hasProduct :Product1.1 .\n", "bad-order", "Order1", "hasProduct", True),
        (':Order1 :hasDeliveryTime "5"^^timestep .\n', "bad-order", "Order1", "hasDeliveryTime", True),
        (
            ':Order1 :isFulfilled "True"^^boolean .\n:Order1 :isFulfilled "False"^^boolean .\n',
            "bad-order",
            "Order1",
            "isFulfilled",
            True,
        ),
        (":Order1 :hasSupplyPlan :SPOrderX .\n", "bad-order", "Order1", "hasSupplyPlan", True),
        (":CapSupplierNode1.1T0 :hasProduct :Product1.2 .\n", "bad-record", "CapSupplierNode1.1T0", "hasProduct", True),
        (
            ':CapSupplierNode1.1T0 :hasTimeStamp "1"^^timestep .\n',
            "bad-record",
            "CapSupplierNode1.1T0",
            "hasTimeStamp",
            True,
        ),
        (":InvSupplierNode1.1 :hasProduct :Product1.2 .\n", "bad-record", "InvSupplierNode1.1", "hasProduct", True),
    ],
    ids=[
        "transport-mode",
        "tier",
        "oem-product",
        "order-product",
        "order-due-step",
        "order-verdict",
        "order-supply-plan",
        "capacity-product",
        "capacity-timestep",
        "inventory-product",
    ],
)
def test_validate_reports_a_second_value(tmp_path, capsys, extra, code, subject, predicate, read_by_simulate):
    """A second value of a single-valued property is one finding, and
    simulate, where it reads the property, exits 2 with the same message."""
    graph = tmp_path / "g.nt"
    assert run("generate", "--preset", "dairy", "--seed", "3", "--out", str(graph)) == 0
    bad = tmp_path / "bad.nt"
    bad.write_text(graph.read_text() + extra)
    capsys.readouterr()
    assert run("validate", "--graph", str(bad)) == 2
    message = f"{subject} {predicate} must have a single value"
    assert capsys.readouterr() == (f"error {code} {subject}: {message}\n", "1 errors, 0 warnings\n")
    out = tmp_path / "r.csv"
    assert run("simulate", "--graph", str(bad), "--horizon", "60", "--out", str(out)) == (2 if read_by_simulate else 0)
    assert capsys.readouterr().err == (f"error: {message}\n" if read_by_simulate else "")


def _not_a_tier(node, tier, side):
    return f"bad-tier {node}: {node} belongsToTier {tier} is not named {side}<n>"


@pytest.mark.parametrize(
    "old, new, finding, read_by_simulate",
    [
        (
            None,
            ':SupplierNode1.1 :manufactures "Product1.1" .\n',
            "bad-literal-type SupplierNode1.1: SupplierNode1.1 manufactures is not an IRI",
            True,
        ),
        (
            ":SupplierNode1.1 :belongsToTier :SupplierTier1 .\n",
            ":SupplierNode1.1 :belongsToTier :Tier1 .\n",
            _not_a_tier("SupplierNode1.1", "Tier1", "SupplierTier"),
            True,
        ),
        (None, ":OEM1 :belongsToTier :Tier1 .\n", _not_a_tier("OEM1", "Tier1", "CustomerTier"), True),
        (
            ":SupplierNode1.1 :belongsToTier :SupplierTier1 .\n",
            ":SupplierNode1.1 :belongsToTier :SupplierTier0 .\n",
            _not_a_tier("SupplierNode1.1", "SupplierTier0", "SupplierTier"),
            True,
        ),
        (
            ":SupplierNode1.1 :belongsToTier :SupplierTier1 .\n",
            ":SupplierNode1.1 :belongsToTier :CustomerTier1 .\n",
            _not_a_tier("SupplierNode1.1", "CustomerTier1", "SupplierTier"),
            True,
        ),
        (
            ":Node2.3 :belongsToTier :CustomerTier2 .\n",
            ":Node2.3 :belongsToTier :SupplierTier2 .\n",
            _not_a_tier("Node2.3", "SupplierTier2", "CustomerTier"),
            False,
        ),
        (
            None,
            ':Node2.1 :manufactures "Product1.1" .\n',
            "bad-literal-type Node2.1: Node2.1 manufactures is not an IRI",
            False,
        ),
        (
            ":Node2.1 :makes :Order1 .\n",
            "<< :Node2.1 :makes :Order1 >> :makes :Order1 .\n",
            "bad-order Order1: Order1 makes is not an IRI",
            True,
        ),
        (":OEM1 a :Node .\n", "", "untyped-node OEM1: OEM1 is not a typed supply-chain node", True),
        (None, ":Ghost :hasOEM :OEM1 .\n", "untyped-node Ghost: Ghost is not a typed supply-chain node", True),
        (
            ":SupplierNode1.1 a :Node .\n",
            "",
            "untyped-node SupplierNode1.1: SupplierNode1.1 is not a typed supply-chain node",
            True,
        ),
        (
            ":Node2.1 :hasSaturation 516512 .\n",
            ":Node2.1 :hasSaturation 900000000 .\n:Node2.1 :hasOEM :OEM1 .\n:Node2.1 :manufactures :Product1.1 .\n",
            "bad-oem-link Node2.1: Node2.1 hasOEM OEM1 but is a Customer, not a Supplier",
            True,
        ),
    ],
    ids=[
        "supplier-product-literal",
        "supplier-tier-name",
        "oem-tier-name",
        "supplier-tier-zero",
        "supplier-in-customer-tier",
        "customer-in-supplier-tier",
        "customer-product-literal",
        "order-maker-quoted",
        "oem-without-node-class",
        "untyped-supplier-of-the-oem",
        "supplier-without-node-class",
        "customer-supplying-the-oem",
    ],
)
def test_validate_and_simulate_reject_a_bad_node_value(tmp_path, capsys, old, new, finding, read_by_simulate):
    """A node's product that is not an IRI, a tier not named like one for
    the node's class, an order's maker that is not an IRI, a node without
    the ``Node`` class and a customer that ``hasOEM`` the OEM are one
    finding, and simulate, where it reads the value (the OEM, the
    suppliers and the orders), exits 2 with the same message. The new
    line replaces ``old``, or is appended when ``old`` is None."""
    graph = tmp_path / "g.nt"
    assert run("generate", "--preset", "dairy", "--seed", "3", "--out", str(graph)) == 0
    text = graph.read_text()
    assert old is None or old in text
    bad = tmp_path / "bad.nt"
    bad.write_text(text + new if old is None else text.replace(old, new))
    capsys.readouterr()
    assert run("validate", "--graph", str(bad)) == 2
    assert capsys.readouterr() == (f"error {finding}\n", "1 errors, 0 warnings\n")
    out = tmp_path / "r.csv"
    assert run("simulate", "--graph", str(bad), "--horizon", "60", "--out", str(out)) == (2 if read_by_simulate else 0)
    assert capsys.readouterr().err == (f"error: {finding.split(': ', 1)[1]}\n" if read_by_simulate else "")


def test_a_transport_mode_outside_its_allowed_values_fails_everywhere(tmp_path, capsys):
    """One field holds the allowed transport modes: ``generate`` rejects a
    per-node override outside them, and ``validate`` and ``simulate`` reject
    a graph that holds one, with the same rule."""
    rule = "hasTransportMode must be one of road, rail, sea, air, got [1, 2]"
    config = tmp_path / "c.cfg"
    graph = tmp_path / "g.nt"
    config.write_text("preset = dairy\nseed = 3\nper_node_overrides.OEM1.hasTransportMode = [1, 2]\n")
    assert run("generate", "--config", str(config), "--out", str(graph)) == 2
    assert capsys.readouterr().err == f"error: per_node_overrides.OEM1.{rule}\n"
    assert not graph.exists()
    config.write_text("preset = dairy\nseed = 3\nper_node_overrides.OEM1.hasTransportMode = sea\n")
    assert run("generate", "--config", str(config), "--out", str(graph)) == 0
    pinned = ':OEM1 :hasTransportMode "sea" .\n'
    text = graph.read_text()
    assert pinned in text
    bad = tmp_path / "bad.nt"
    bad.write_text(text.replace(pinned, ':OEM1 :hasTransportMode "[1, 2]" .\n'))
    capsys.readouterr()
    assert run("validate", "--graph", str(bad)) == 2
    assert capsys.readouterr() == (f"error transport-mode-out-of-range OEM1: OEM1 {rule}\n", "1 errors, 0 warnings\n")
    assert run("simulate", "--graph", str(bad), "--horizon", "60", "--out", str(tmp_path / "r.csv")) == 2
    assert capsys.readouterr().err == f"error: OEM1 {rule}\n"


def test_a_quoted_subject_supplies_nothing(tmp_path, capsys):
    """``simulate`` books production on the IRI subjects that ``hasOEM``
    the OEM, and ``validate`` checks those same nodes, so a quoted subject
    is neither a supplier nor a finding."""
    graph = tmp_path / "g.nt"
    assert run("generate", "--preset", "dairy", "--seed", "3", "--out", str(graph)) == 0
    quoted = tmp_path / "quoted.nt"
    quoted.write_text(graph.read_text() + "<< :SupplierNode1.1 :hasOEM :OEM1 >> :hasOEM :OEM1 .\n")
    capsys.readouterr()
    assert run("validate", "--graph", str(quoted)) == 0
    assert capsys.readouterr() == ("", "0 errors, 0 warnings\n")
    for path in (graph, quoted):
        assert run("simulate", "--graph", str(path), "--horizon", "60", "--out", str(tmp_path / f"{path.stem}.csv")) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "quoted.csv").read_text() == (tmp_path / "g.csv").read_text()


# every predicate a shape reads as single-valued, for some node class at least
_SINGLE_VALUED = {f.predicate for shape in SHAPES for f in shape.fields if f.single and not f.inward}

_LITERAL_VALUES = {
    "integer": st.integers(-(10**6), 10**6),
    "timestep": st.integers(0, 10**6),
    "boolean": st.booleans(),
    "string": st.text(max_size=8),
}


@pytest.fixture(scope="module")
def dairy_final(tmp_path_factory):
    """The dairy seed-3 final graph, and a scratch file path."""
    work = tmp_path_factory.mktemp("final")
    generated, final = work / "g.nt", work / "final.nt"
    assert main(["generate", "--preset", "dairy", "--seed", "3", "--out", str(generated)]) == 0
    assert main([
        "simulate", "--graph", str(generated), "--horizon", "60",
        "--out", str(work / "r.csv"), "--final-graph", str(final),
    ]) == 0
    return load_graph(str(final)), work / "bad.nt"


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_second_value_never_stops_validate(dairy_final, data):
    """Appending a different value of the same kind to any single-valued
    property gives a report with its summary line, never a stop."""
    graph, bad = dairy_final
    single = [t for t in graph.triples() if t.predicate in _SINGLE_VALUED]
    triple = data.draw(st.sampled_from(single))
    old = triple.object
    if isinstance(old, Iri):
        new = Iri(data.draw(iri_names.filter(lambda name: name != old.name)))
    else:
        new = Literal(data.draw(_LITERAL_VALUES[old.datatype].filter(lambda x: x != old.value)), old.datatype)
    changed = graph.copy()
    changed.insert(Triple(triple.subject, triple.predicate, new))
    bad.write_text(serialize(changed))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["validate", "--graph", str(bad)])
    assert code in (0, 2)
    assert re.fullmatch(r"(?:(?:error|warning) \S+ \S*: .*\n)*", out.getvalue())
    assert re.fullmatch(r"\d+ errors, \d+ warnings\n", err.getvalue())
    assert not any(text in out.getvalue() + err.getvalue() for text in ("Traceback", "Iri(name="))


def test_validate_reports_every_bad_bom_edge(tmp_path, capsys):
    graph = tmp_path / "g.nt"
    assert run("generate", "--preset", "dairy", "--seed", "3", "--out", str(graph)) == 0
    lines = graph.read_text().splitlines(keepends=True)
    [at] = [i for i, line in enumerate(lines) if line.startswith(_BOM_EDGE)]
    lines[at] = f"{_BOM_EDGE}-2 .\n"
    lines.append(":Product :needsProduct :Product1.0 .\n")
    lines.append("<< :Product :needsProduct :Product1.0 >> :needsQuantity 0 .\n")
    bad = tmp_path / "bad.nt"
    bad.write_text("".join(lines))
    capsys.readouterr()
    assert run("validate", "--graph", str(bad)) == 2
    found = [line for line in capsys.readouterr().out.splitlines() if "bad-bom-edge" in line]
    assert found == [
        "error bad-bom-edge Product: << :Product :needsProduct :Product1.0 >> needsQuantity must be >= 1, got 0",
        "error bad-bom-edge Product: << :Product :needsProduct :Product1.1 >> needsQuantity must be >= 1, got -2",
    ]
    assert run("simulate", "--graph", str(bad), "--horizon", "60") == 2
    assert "<< :Product :needsProduct :Product1.0 >> needsQuantity must be >= 1, got 0" in capsys.readouterr().err


# --- query ---

def test_query_select_to_csv(graph_file, tmp_path, capsys):
    q = tmp_path / "q.rq"
    q.write_text("SELECT ?n WHERE { ?n a :OEM . }")
    assert run("query", "--graph", str(graph_file), str(q)) == 0
    assert capsys.readouterr().out == "n\n:OEM1\n"


def test_query_with_parameters(graph_file, tmp_path, capsys):
    q = tmp_path / "q.rq"
    q.write_text("SELECT ?s WHERE { ?s :belongsToTier tier . }")
    assert run("query", "--graph", str(graph_file), str(q), "--param", "tier=:SupplierTier1") == 0
    out = capsys.readouterr().out
    assert ":SupplierNode1.1" in out and ":SupplierNode1.2" in out


@pytest.mark.parametrize(
    "text, params",
    [
        ("SELECT ?p ?o WHERE { 1 ?p ?o . }", []),
        ("SELECT ?s ?o WHERE { ?s pr ?o . }", ["--param", "pr=5"]),
        ("SELECT ?p ?q WHERE { << 1 :needsProduct ?p >> :needsQuantity ?q . }", []),
    ],
    ids=["literal-subject", "literal-predicate-parameter", "quoted-literal-subject"],
)
def test_pattern_no_triple_can_satisfy_gives_header_only(graph_file, tmp_path, capsys, text, params):
    qf = tmp_path / "q.rq"
    qf.write_text(text)
    assert run("query", "--graph", str(graph_file), str(qf), *params) == 0
    columns = text.split(" WHERE")[0].replace("SELECT ?", "").split(" ?")
    assert capsys.readouterr().out == ",".join(columns) + "\n"


@pytest.mark.parametrize(
    "value, text, code, out, err",
    [
        ("1" * 400, "SELECT ?x WHERE { ?s :b ?x . FILTER (?x * 1.5 > 1) }", 0, "x\n", ""),
        ("1" * 400, "SELECT (AVG(?x) AS ?m) WHERE { ?s :b ?x . }", 2, "", "error: AVG: the result is out of the range of a decimal\n"),
        ("1e300", "SELECT ?x WHERE { ?s :b ?x . FILTER (?x * ?x > 1) }", 0, "x\n", ""),
        ("1e300", "SELECT ?x WHERE { ?s :b ?x . FILTER (?x / 0 > 1) }", 0, "x\n", ""),
        ("1e300", "SELECT (?x * ?x AS ?y) WHERE { ?s :b ?x . }", 2, "", "error: *: the result is out of the range of a decimal\n"),
        ("1" * 2200, "SELECT ?x WHERE { ?s :b ?x . FILTER (?x * ?x > 1) }", 0, "x\n", ""),
        ("1" * 2200, "SELECT (?x * ?x AS ?y) WHERE { ?s :b ?x . }", 2, "", "error: *: the result has more than 4300 digits\n"),
    ],
    ids=[
        "filter-int-times-decimal",
        "avg-of-a-long-int",
        "filter-decimal-square",
        "filter-divide-by-zero",
        "projected-square",
        "filter-long-int-square",
        "projected-long-int-square",
    ],
)
def test_query_arithmetic_out_of_range(tmp_path, capsys, value, text, code, out, err):
    """A FILTER whose arithmetic leaves the range of a decimal drops the row,
    as division by zero does; in a projection or an aggregate it is exit 2
    with a message, never a traceback."""
    graph = tmp_path / "g.kg"
    graph.write_text(f":a :b {value} .\n")
    query = tmp_path / "q.rq"
    query.write_text(text)
    assert run("query", "--graph", str(graph), str(query)) == code
    assert capsys.readouterr() == (out, err)


def test_query_insert_requires_out(graph_file, tmp_path):
    q = tmp_path / "i.rq"
    q.write_text("INSERT { ?n :hasSCORKPI :X . } WHERE { ?n a :OEM . }")
    assert run("query", "--graph", str(graph_file), str(q)) == 1
    out = tmp_path / "g2.nt"
    assert run("query", "--graph", str(graph_file), str(q), "--out", str(out)) == 0
    assert ":OEM1 :hasSCORKPI :X .\n" in out.read_text()


def test_query_syntax_error(graph_file, tmp_path):
    q = tmp_path / "bad.rq"
    q.write_text("SELECT WHERE banana")
    assert run("query", "--graph", str(graph_file), str(q)) == 2


def test_query_bad_param_value(graph_file, tmp_path):
    q = tmp_path / "q.rq"
    q.write_text("SELECT ?s WHERE { ?s :belongsToTier tier . }")
    assert run("query", "--graph", str(graph_file), str(q), "--param", "tier=<<") == 1
    assert run("query", "--graph", str(graph_file), str(q), "--param", "tier") == 1


# --- report ---

def test_report_csv(graph_file, capsys):
    assert run("report", "--graph", str(graph_file), "--t", "0") == 0
    out = capsys.readouterr().out
    assert out.startswith("metric,subject,value\n")
    assert "average_kpi,Responsiveness," in out


# --- sweep ---

def test_sweep_shipped_scenario_file(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    plot = tmp_path / "sweep.tsv"
    code = run(
        "sweep", "--scenarios", "scenarios/automotive_sweep.cfg",
        "--out", str(out), "--plot", str(plot),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert [line.split(",")[0] for line in lines] == ["label", "S1", "S2", "S3"]
    assert plot.read_text().startswith("# label\t")


def test_sweep_rejects_sectionless_file(tmp_path):
    bad = tmp_path / "s.cfg"
    bad.write_text("preset = dairy\n")
    assert run("sweep", "--scenarios", str(bad)) == 2


# --- validate ---

def test_validate_clean_graph(graph_file, capsys):
    assert run("validate", "--graph", str(graph_file)) == 0
    assert "0 errors" in capsys.readouterr().err


@pytest.mark.parametrize("cycle", [False, True], ids=["chain", "cycle-at-the-end"])
def test_validate_long_bom_chain_without_traceback(tmp_path, capsys, cycle):
    lines = [f":P{i} :needsProduct :P{i + 1} ." for i in range(1500)]
    if cycle:
        lines.append(":P1500 :needsProduct :P1497 .")
    graph = tmp_path / "chain.nt"
    graph.write_text("\n".join(lines) + "\n")
    assert run("validate", "--graph", str(graph)) == 2  # no OEM node
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    cycles = [line for line in captured.out.splitlines() if "bom-cycle" in line]
    want = ["error bom-cycle P1500: bill of materials contains a cycle: P1497 -> P1498 -> P1499 -> P1500 -> P1497"]
    assert cycles == (want if cycle else [])


def test_validate_reports_errors(graph_file, tmp_path, capsys):
    broken = tmp_path / "broken.nt"
    broken.write_text(graph_file.read_text() + ':OEM1 :hasColor "blue" .\n')
    assert run("validate", "--graph", str(broken)) == 2
    captured = capsys.readouterr()
    assert "unknown-predicate" in captured.out
    assert run("validate", "--graph", str(broken), "--allow-unknown") == 0


# --- export ---

def test_export_normalizes_legacy_forms(tmp_path, capsys):
    """Alias predicates, also in nested quoted triples, and unit-suffixed
    quantities get their canonical spelling; an alias IRI at a subject or
    object, and a quantity string without a number, stay as written."""
    old = tmp_path / "old.nt"
    old.write_text(
        ":A :hasLeadTime 4 .\n"
        ':Inv1 :hasQuantity "7m" .\n'
        ':Inv2 :hasQuantity "3 units" .\n'
        ':Inv3 :hasQuantity "plenty" .\n'
        ':Inv4 :hasQuantity "100 unit" .\n'
        ':Inv5 :hasComponentQuantity "12m" .\n'
        ':Inv6 :hasQuantity "10m\\n" .\n'
        '<< :Car :needsComponent :Wheel >> :hasComponentQuantity "3 units" .\n'
        '<< << :Car :needsComponent :Wheel >> :hasLeadTime 2 >> :hasComponentQuantity "7m" .\n'
        ":X :y << << :Car :needsComponent :hasLeadTime >> :hasComponentQuantity 5 >> .\n"
        ":hasLeadTime :hasLeadTime :needsComponent .\n"
        ":needsComponent a :hasComponentQuantity .\n"
        ":Car :needsProduct :Wheel .\n"
        ":A :hasDeliveryTime 4 .\n"
        ":Inv1 :hasQuantity 7 .\n"
    )
    assert run("export", "--graph", str(old)) == 0
    assert capsys.readouterr().out == (
        ":A :hasDeliveryTime 4 .\n"
        ":Car :needsProduct :Wheel .\n"
        ":Inv1 :hasQuantity 7 .\n"
        ":Inv2 :hasQuantity 3 .\n"
        ':Inv3 :hasQuantity "plenty" .\n'
        ":Inv4 :hasQuantity 100 .\n"
        ":Inv5 :needsQuantity 12 .\n"
        ':Inv6 :hasQuantity "10m\\n" .\n'
        ":X :y << << :Car :needsProduct :hasLeadTime >> :needsQuantity 5 >> .\n"
        ":hasLeadTime :hasDeliveryTime :needsComponent .\n"
        ":needsComponent a :hasComponentQuantity .\n"
        "<< :Car :needsProduct :Wheel >> :needsQuantity 3 .\n"
        "<< << :Car :needsProduct :Wheel >> :hasDeliveryTime 2 >> :needsQuantity 7 .\n"
    )


def test_export_quantity_with_too_many_digits_exits_2(tmp_path, capsys):
    graph = tmp_path / "long.nt"
    graph.write_text(f':Inv0 :hasQuantity "7m" .\n\n:Inv1 :hasQuantity "{"9" * 5000}m" .\n')
    assert run("export", "--graph", str(graph)) == 2
    err = capsys.readouterr().err
    limit = sys.get_int_max_str_digits()
    assert err == f"error: line 3: Inv1 hasQuantity: integer literal has 5000 digits, more than the {limit} allowed\n"


@pytest.mark.parametrize("lines", [":a :p 0.0 .\n:a :p -0.0 .\n", ":a :p -0.0 .\n:a :p 0.0 .\n"])
def test_export_keeps_both_signed_zeros(tmp_path, capsys, lines):
    graph = tmp_path / "zeros.nt"
    graph.write_text(lines)
    assert run("export", "--graph", str(graph)) == 0
    assert capsys.readouterr().out == ":a :p -0.0 .\n:a :p 0.0 .\n"


def test_export_is_idempotent(graph_file, tmp_path):
    once = tmp_path / "once.nt"
    twice = tmp_path / "twice.nt"
    assert run("export", "--graph", str(graph_file), "--out", str(once)) == 0
    assert run("export", "--graph", str(once), "--out", str(twice)) == 0
    assert once.read_text() == twice.read_text()


# --- invocation plumbing ---

def test_unknown_subcommand_is_usage_error():
    assert run("frobnicate") == 1


def test_bad_flag_value_is_usage_error(graph_file):
    assert run("simulate", "--graph", str(graph_file), "--horizon", "soon") == 1


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        run("--help")
    assert exc.value.code == 0


def test_runs_as_a_module():
    src = str(Path(supplykg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "supplykg.cli", *argv], capture_output=True, text=True, env=env
        )

    helped = module("--help")
    assert helped.returncode == 0
    assert "usage: supplykg" in helped.stdout
    misused = module("generate")
    assert misused.returncode == 1
    assert "error:" in misused.stderr


def _nested(depth):
    return "<< " * depth + ":s :p :o" + " >> :q :r" * depth


def test_deep_quote_nesting_exits_2_without_traceback(tmp_path, capsys):
    graph = tmp_path / "deep.nt"
    graph.write_text(_nested(300) + " .\n")
    assert run("export", "--graph", str(graph)) == 2
    err = capsys.readouterr().err
    assert "nest deeper" in err and "Traceback" not in err

    flat = tmp_path / "flat.nt"
    flat.write_text(":s :p :o .\n")
    query = tmp_path / "deep.rq"
    query.write_text("SELECT * WHERE { " + _nested(300).replace(":s", "?s", 1) + " . }")
    assert run("query", "--graph", str(flat), str(query)) == 2
    err = capsys.readouterr().err
    assert "nest deeper" in err and "Traceback" not in err


def _or_chain(alternatives):
    return "(" + " || ".join(["?o = -1"] * alternatives) + ")"


def _unary_minus(signs):
    return "(" + "-" * signs + "?o = 1)"


@pytest.mark.parametrize(
    "deep_filter",
    [_or_chain(64), _unary_minus(63)],
    ids=["64-alternatives", "63-unary-minus"],
)
def test_expression_at_the_nesting_limit_runs(tmp_path, capsys, deep_filter):
    flat = tmp_path / "flat.nt"
    flat.write_text(":s :p -1 .\n")
    query = tmp_path / "limit.rq"
    query.write_text("SELECT * WHERE { ?s :p ?o . FILTER " + deep_filter + " }")
    assert run("query", "--graph", str(flat), str(query)) == 0
    assert capsys.readouterr().out == "s,o\n:s,-1\n"


@pytest.mark.parametrize(
    "deep_filter",
    [
        "(" * 300 + "?o = :o" + ")" * 300,
        "-" * 2000 + "?o = 1",
        _unary_minus(64),
        _or_chain(65),
        _or_chain(2000),
    ],
    ids=["300-parens", "2000-unary-minus", "64-unary-minus", "65-alternatives", "2000-alternatives"],
)
def test_deep_expression_nesting_exits_2_without_traceback(tmp_path, capsys, deep_filter):
    flat = tmp_path / "flat.nt"
    flat.write_text(":s :p :o .\n")
    query = tmp_path / "deep.rq"
    query.write_text("SELECT * WHERE { ?s :p ?o . FILTER " + deep_filter + " }")
    assert run("query", "--graph", str(flat), str(query)) == 2
    err = capsys.readouterr().err
    assert "nest deeper" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command, text",
    [
        (["export", "--graph"], ":s :p :o .\n"),
        (["query", "--graph", "FLAT"], "SELECT * WHERE { ?s :p ?o . }"),
        (["generate", "--config"], "preset = automotive\n"),
        (["sweep", "--scenarios"], "preset = automotive\n[S1]\ndemand_frequency = 2\n"),
    ],
    ids=["graph", "query", "config", "scenarios"],
)
def test_byte_order_mark_is_rejected(tmp_path, capsys, command, text):
    flat = tmp_path / "flat.nt"
    flat.write_text(":s :p :o .\n")
    argv = [str(flat) if arg == "FLAT" else arg for arg in command]
    plain = tmp_path / "plain"
    plain.write_text(text)
    assert run(*argv, str(plain)) == 0
    marked = tmp_path / "marked"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    capsys.readouterr()
    assert run(*argv, str(marked)) == 2
    err = capsys.readouterr().err
    assert "\\ufeff" in err and "Traceback" not in err


def test_pipeline_is_deterministic(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        g = tmp_path / f"g{tag}.nt"
        r = tmp_path / f"r{tag}.csv"
        f = tmp_path / f"f{tag}.nt"
        k = tmp_path / f"k{tag}.csv"
        assert run("generate", "--preset", "dairy", "--seed", "13", "--out", str(g)) == 0
        assert run("simulate", "--graph", str(g), "--horizon", "60", "--out", str(r), "--final-graph", str(f)) == 0
        assert run("report", "--graph", str(f), "--t", "0", "--out", str(k)) == 0
        outputs.append((g.read_bytes(), r.read_bytes(), f.read_bytes(), k.read_bytes()))
    assert outputs[0] == outputs[1]
