"""The CLI's contracts on drawn mutations of real graphs.

Each example generates a preset graph at a drawn seed, changes one to three
of its lines, and runs ``validate``, ``simulate``, ``report`` and ``export``
on the result through ``cli.main``. Whatever the mutation:

- every command exits 0, 1 or 2, and none raises;
- a graph that ``validate`` passes is one that ``simulate`` and ``report``
  accept;
- a command that exits 2 leaves its ``--out`` and ``--final-graph`` files as
  they were.

This guards every change that rewrites the store under its readers. It
draws 80 examples, or as many as the environment variable
``SUPPLYKG_MUTATION_EXAMPLES`` says: run it with 1,500 on a change that
rewrites the store, and with ``--hypothesis-show-statistics`` to see the
mutations drawn and the exit codes they met::

    SUPPLYKG_MUTATION_EXAMPLES=1500 PYTHONPATH=src python -m pytest tests/test_mutations.py
"""

import functools
import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from supplykg import vocab as v
from supplykg.cli import main
from supplykg.generator import PRESETS, generate, with_updates
from supplykg.terms import Iri, Quoted, Triple, boolean, decimal, format_triple, integer, string, timestep

_SENTINEL = "left by an earlier run\n"


@functools.cache
def _generated(preset, seed):
    """The preset graph's triples in canonical order."""
    return tuple(generate(with_updates(PRESETS[preset](), [f"seed={seed}"])).triples())


def _kind(term):
    return term.datatype if hasattr(term, "datatype") else type(term).__name__


def _objects(triples):
    """A strategy for an object of each kind, the IRIs and quoted triples
    drawn partly from ``triples``."""
    return {
        "Iri": st.one_of(
            st.sampled_from([Iri("Nowhere"), v.OEM, v.CUSTOMER, v.HAS_QUANTITY]),
            st.sampled_from(triples).map(lambda t: t.subject if isinstance(t.subject, Iri) else t.predicate),
        ),
        "Quoted": st.sampled_from(triples).map(Quoted),
        "integer": st.sampled_from([-1, 0, 1, 10**9]).map(integer),
        "decimal": st.sampled_from([-1.0, -0.0, 0.5, 1e9]).map(decimal),
        "string": st.sampled_from(["", "x", "10m"]).map(string),
        "boolean": st.booleans().map(boolean),
        "timestep": st.sampled_from([0, 5, 10**6]).map(timestep),
    }


_CLASSES = sorted(v.KNOWN_CLASSES, key=lambda c: c.name)


def _mutate(data, triples):
    """Apply one drawn line mutation to the list ``triples`` in place, and
    return its name."""
    mutation = data.draw(st.sampled_from(["drop", "swap object", "copy onto subject", "retype"]))
    i = data.draw(st.integers(0, len(triples) - 1))
    line = triples[i]
    if mutation == "drop":
        del triples[i]
    elif mutation == "swap object":
        objects = _objects(triples)
        kind = data.draw(st.sampled_from([k for k in objects if k != _kind(line.object)]))
        triples[i] = Triple(line.subject, line.predicate, data.draw(objects[kind]))
    elif mutation == "copy onto subject":
        subject = data.draw(st.sampled_from(triples)).subject
        triples.append(Triple(subject, line.predicate, line.object))
    else:
        j = data.draw(st.sampled_from([j for j, t in enumerate(triples) if t.predicate == v.RDF_TYPE]))
        node, old = triples[j].subject, triples[j].object
        triples[j] = Triple(node, v.RDF_TYPE, data.draw(st.sampled_from([c for c in _CLASSES if c != old])))
    return mutation


def _run(*argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    return code


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


@settings(
    max_examples=int(os.environ.get("SUPPLYKG_MUTATION_EXAMPLES", "80")),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.sampled_from(sorted(PRESETS)), st.integers(0, 3), st.data())
def test_cli_contracts_hold_on_mutated_graphs(preset, seed, data):
    triples = list(_generated(preset, seed))
    for _ in range(data.draw(st.integers(1, 3))):
        event(_mutate(data, triples))
    with tempfile.TemporaryDirectory() as tmp:
        horizon = str(PRESETS[preset]().horizon)
        graph, sim, final, report, export = (
            os.path.join(tmp, name) for name in ("g.nt", "sim.csv", "final.nt", "report.csv", "export.nt")
        )
        with open(graph, "w", encoding="utf-8") as handle:
            handle.writelines(format_triple(t) + "\n" for t in triples)
        for path in (sim, final, report, export):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(_SENTINEL)
        codes = {"validate": _run("validate", "--graph", graph)}
        for command, args, outputs in (
            ("simulate", ["--horizon", horizon, "--out", sim, "--final-graph", final], [sim, final]),
            ("report", ["--t", "0", "--out", report], [report]),
            ("export", ["--out", export], [export]),
        ):
            codes[command] = _run(command, "--graph", graph, *args)
            if codes[command] == 2:
                assert [_read(path) for path in outputs] == [_SENTINEL] * len(outputs), command
    event(" ".join(f"{command} {code}" for command, code in codes.items()))
    if codes["validate"] == 0:
        assert codes["simulate"] == 0 and codes["report"] == 0, codes
