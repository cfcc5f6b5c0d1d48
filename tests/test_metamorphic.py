"""Metamorphic test: the order of a graph file's lines, and lines given
twice, change no output.

A graph is a set of triples, so ``export``, ``validate`` (with its exit
code), ``report --t 0`` and ``simulate --final-graph`` must write the same
bytes for any permutation of the file's lines with duplicates added. The
inputs are the generated presets and drawn graphs over the vocabulary
whose literals compare equal across datatypes or signs: signed zeros,
``1e+20`` next to the integer ``10**20``, integers next to equal decimals.
"""

import io
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supplykg import Iri, Literal, Quoted, Triple, serialize, string, timestep
from supplykg.cli import main
from supplykg.generator import PRESETS, generate
from supplykg.terms import DECIMAL, INTEGER, format_triple


def _outputs(work, text, horizon):
    """Exit code, stdout and stderr of each command on a graph file
    holding ``text``, and the files ``simulate`` writes. The file path is
    the same on every call, so no message differs by its name."""
    graph, csv, final = work / "g.nt", work / "run.csv", work / "final.nt"
    graph.write_text(text)
    out = {}
    commands = {
        "export": ["export"],
        "validate": ["validate"],
        "report": ["report", "--t", "0"],
        "simulate": ["simulate", "--horizon", str(horizon), "--out", str(csv), "--final-graph", str(final)],
    }
    for name, argv in commands.items():
        for f in (csv, final):
            f.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main([argv[0], "--graph", str(graph), *argv[1:]])
        written = [f.read_bytes() if f.exists() else None for f in (csv, final)]
        out[name] = (code, stdout.getvalue(), stderr.getvalue(), *written)
    return out


def _shuffled(text, seed, duplicates):
    """The lines of ``text`` in the order a seed draws, with ``duplicates``
    of them given twice."""
    rng = random.Random(seed)
    lines = text.splitlines(keepends=True)
    lines += [rng.choice(lines) for _ in range(duplicates)] if lines else []
    rng.shuffle(lines)
    return "".join(lines)


# Pairs of literals that compare equal across datatypes or signs.
_TWINS = [
    (Literal(0.0, DECIMAL), Literal(-0.0, DECIMAL)),
    (Literal(1e20, DECIMAL), Literal(10**20, INTEGER)),
    (Literal(1.0, DECIMAL), Literal(1, INTEGER)),
    (Literal(0, INTEGER), Literal(-0.0, DECIMAL)),
    (Literal(2.0, DECIMAL), Literal(2, INTEGER)),
    (timestep(0), Literal(0, INTEGER)),
    (string("10m"), Literal(10, INTEGER)),
]
_LITERALS = st.sampled_from([x for pair in _TWINS for x in pair])
_NAMES = ["OEM1", "Sup1", "Node1.1", "Cap1", "Inv1", "Order1", "Product", "Comp"]
_PREDICATES = [
    "rdf:type", "hasQuantity", "hasSaturation", "hasDeliveryTime", "hasCost", "hasCapacity", "hasInventory",
    "manufactures", "hasOEM", "makes", "hasTimeStamp", "hasProduct", "hasPriority", "needsProduct", "needsQuantity",
]
_CLASSES = ["Node", "OEM", "Supplier", "Customer", "Capacity", "Inventory", "Order", "Product"]

_iris = st.sampled_from(_NAMES + _CLASSES).map(Iri)
_predicates = st.sampled_from(_PREDICATES).map(Iri)
_plain = st.builds(Triple, _iris, _predicates, st.one_of(_iris, _LITERALS))


@st.composite
def _lines(draw):
    """One or two triples: a plain or quoted-subject triple, or a pair
    that differ only in the twin literals of one ``_TWINS`` entry."""
    subject = draw(st.one_of(_iris, _plain.map(Quoted)))
    predicate, obj = draw(_predicates), draw(st.one_of(_iris, _LITERALS))
    if not draw(st.booleans()):
        return [Triple(subject, predicate, obj)]
    a, b = draw(st.sampled_from(_TWINS))
    if draw(st.booleans()):  # the twins inside a quoted subject
        s, p = draw(_iris), draw(_predicates)
        return [Triple(Quoted(Triple(s, p, x)), predicate, obj) for x in (a, b)]
    return [Triple(subject, predicate, x) for x in (a, b)]


@settings(max_examples=100, deadline=None)
@given(lines=st.lists(_lines(), max_size=15), seed=st.integers(0, 2**32), duplicates=st.integers(0, 5))
def test_drawn_graphs_ignore_line_order(tmp_path_factory, lines, seed, duplicates):
    work = tmp_path_factory.mktemp("drawn")
    text = "".join(format_triple(t) + "\n" for pair in lines for t in pair)
    assert _outputs(work, _shuffled(text, seed, duplicates), 5) == _outputs(work, text, 5)


_BASELINE = {}  # preset name -> its generated graph's text and outputs


@pytest.mark.parametrize("preset", sorted(PRESETS))
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32), duplicates=st.integers(0, 50))
def test_a_preset_ignores_line_order(tmp_path_factory, preset, seed, duplicates):
    config = PRESETS[preset]()
    work = tmp_path_factory.mktemp(preset)
    if preset not in _BASELINE:
        text = serialize(generate(config))
        _BASELINE[preset] = text, _outputs(work, text, config.horizon)
    text, want = _BASELINE[preset]
    assert want["simulate"][0] == 0
    assert _outputs(work, _shuffled(text, seed, duplicates), config.horizon) == want
