import copy
import dataclasses
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from strategies import literals, unify

import supplykg
from supplykg import terms
from supplykg.cli import main
from supplykg.graph import Graph
from supplykg.terms import (
    BOOLEAN,
    DECIMAL,
    INTEGER,
    TIMESTEP,
    Iri,
    Literal,
    MalformedTermError,
    ParamRef,
    Quoted,
    Triple,
    TriplePattern,
    Variable,
    boolean,
    decimal,
    format_term,
    format_triple,
    integer,
    number_literal,
    string,
    substitute,
    timestep,
    to_ground,
)


def test_term_equality_is_structural():
    assert Iri("Node1.1") == Iri("Node1.1")
    assert Iri("Node1.1") != Iri("Node1.2")
    assert integer(5) == integer(5)
    assert integer(5) != decimal(5.0)  # datatype is part of identity
    assert integer(5) != timestep(5)
    assert boolean(True) != integer(1)
    inner = Triple(Iri("s"), Iri("p"), Iri("o"))
    assert Quoted(inner) == Quoted(Triple(Iri("s"), Iri("p"), Iri("o")))
    assert len({Quoted(inner), Quoted(inner)}) == 1


def test_malformed_terms_rejected():
    with pytest.raises(MalformedTermError):
        Iri("")
    with pytest.raises(MalformedTermError):
        Iri("has space")
    with pytest.raises(MalformedTermError):
        Iri("9starts.with.digit")
    with pytest.raises(MalformedTermError):
        Iri("trailing.dot.")
    with pytest.raises(MalformedTermError):
        Literal(1.5, "integer")
    with pytest.raises(MalformedTermError):
        Literal(float("nan"), "decimal")
    with pytest.raises(MalformedTermError):
        Literal(float("inf"), "decimal")
    with pytest.raises(MalformedTermError):
        Literal(5, "volume")
    with pytest.raises(MalformedTermError):
        timestep(-1)
    with pytest.raises(MalformedTermError):
        Variable("not ok")


def test_triple_position_rules():
    s, p, o = Iri("s"), Iri("p"), Iri("o")
    with pytest.raises(MalformedTermError):
        Triple(integer(1), p, o)  # literal subject
    with pytest.raises(MalformedTermError):
        Triple(s, integer(1), o)  # literal predicate
    with pytest.raises(MalformedTermError):
        Triple(s, Quoted(Triple(s, p, o)), o)  # quoted predicate
    # quoted subject and object are fine
    q = Quoted(Triple(s, p, o))
    Triple(q, p, q)


def test_pattern_allows_variables_anywhere():
    v = Variable("x")
    TriplePattern(v, v, v)
    TriplePattern(TriplePattern(v, Iri("p"), v), Iri("q"), integer(3))
    # a literal predicate builds a pattern that matches nothing
    literal_predicate = TriplePattern(Iri("s"), integer(1), Iri("o"))
    assert Graph([Triple(Iri("s"), Iri("p"), Iri("o"))]).match(literal_predicate) == []
    # a position that is no pattern term at all is still rejected
    with pytest.raises(MalformedTermError):
        TriplePattern(Iri("s"), "p", Iri("o"))


def test_format_term_canonical_forms():
    cases = {
        Iri("Node1.1"): ":Node1.1",
        integer(42): "42",
        integer(-7): "-7",
        decimal(2.5): "2.5",
        string("ab c"): '"ab c"',
        string('say "hi"\n'): '"say \\"hi\\"\\n"',
        boolean(True): '"True"^^boolean',
        boolean(False): '"False"^^boolean',
        timestep(7): '"7"^^timestep',
        Variable("dt"): "?dt",
        Quoted(Triple(Iri("s"), Iri("p"), Iri("o"))): "<< :s :p :o >>",
    }
    for term, expected in cases.items():
        assert format_term(term) == expected


def test_rdf_type_shorthand():
    t = Triple(Iri("OEM1"), Iri("rdf:type"), Iri("OEM"))
    assert format_triple(t) == ":OEM1 a :OEM ."
    # but rdf:type outside predicate position keeps the prefixed spelling
    assert format_term(Iri("rdf:type")) == ":rdf:type"


def test_number_literal_is_the_one_rule_for_bare_numbers():
    """All digits after a sign is an integer, anything else a decimal; an
    integer too long to read and a decimal no float holds are malformed."""
    assert number_literal("-0042") == integer(-42)
    assert number_literal("+7") == integer(7)
    assert number_literal("1.50") == decimal(1.5)
    assert number_literal("-0.0") == decimal(-0.0)
    assert number_literal("2e3") == decimal(2000.0)
    with pytest.raises(MalformedTermError, match=r"^integer literal has 4301 digits, more than the 4300 allowed$"):
        number_literal("-" + "9" * 4301)
    with pytest.raises(MalformedTermError, match=r"^bad decimal literal value: inf$"):
        number_literal("1e999")


def test_unify_binds_and_checks_consistency():
    t = Triple(Iri("s"), Iri("p"), integer(4))
    got = unify(TriplePattern(Variable("a"), Iri("p"), Variable("b")), t)
    assert got == {"a": Iri("s"), "b": integer(4)}
    # repeated variable must bind the same term on both positions
    same = Triple(Iri("s"), Iri("p"), Iri("s"))
    assert unify(TriplePattern(Variable("x"), Iri("p"), Variable("x")), same) == {"x": Iri("s")}
    assert unify(TriplePattern(Variable("x"), Iri("p"), Variable("x")), t) is None
    # prior bindings constrain
    assert unify(TriplePattern(Variable("a"), Iri("p"), Variable("b")), t, {"a": Iri("other")}) is None


def test_unify_quoted_pattern_reaches_inside():
    inner = Triple(Iri("SP1"), Iri("needsNode"), Iri("N1"))
    t = Triple(Quoted(inner), Iri("getsProduct"), Iri("P1"))
    pat = TriplePattern(
        TriplePattern(Variable("sp"), Iri("needsNode"), Variable("n")),
        Iri("getsProduct"),
        Variable("p"),
    )
    assert unify(pat, t) == {"sp": Iri("SP1"), "n": Iri("N1"), "p": Iri("P1")}
    # a plain IRI subject does not match a quoted pattern
    assert unify(pat, Triple(Iri("x"), Iri("getsProduct"), Iri("P1"))) is None


def test_substitute_and_to_ground():
    pat = TriplePattern(Variable("s"), Iri("p"), Variable("o"))
    # substitute replaces parameters only; to_ground reads variables from bindings
    assert substitute(pat, {"s": Iri("a")}) == pat
    assert to_ground(pat) is None
    assert to_ground(pat, {"s": Iri("a")}) is None
    full = to_ground(pat, {"s": Iri("a"), "o": integer(1)})
    assert full == Triple(Iri("a"), Iri("p"), integer(1))
    # nested pattern becomes a quoted term when ground
    nested = TriplePattern(TriplePattern(Variable("s"), Iri("p"), Iri("o")), Iri("q"), integer(2))
    assert to_ground(nested) is None
    g = to_ground(nested, {"s": Iri("a")})
    assert g == Triple(Quoted(Triple(Iri("a"), Iri("p"), Iri("o"))), Iri("q"), integer(2))
    # a literal subject, written or bound, spells no triple and matches nothing
    literal_subject = TriplePattern(integer(9), Iri("p"), integer(1))
    assert to_ground(literal_subject) is None
    assert to_ground(pat, {"s": integer(9), "o": integer(1)}) is None
    assert Graph([full]).match(literal_subject) == []
    assert Graph([full]).match(pat, {"s": integer(9), "o": integer(1)}) == []
    assert Graph([full]).match(pat, {"s": Iri("a"), "o": integer(1)}) == [{"s": Iri("a"), "o": integer(1)}]


def test_parameters_are_pattern_terms():
    from supplykg import query
    from supplykg.query import ast

    assert query.ParamRef is ParamRef and ast.ParamRef is ParamRef
    pat = TriplePattern(ParamRef("n"), ParamRef("p"), TriplePattern(Variable("s"), Iri("q"), ParamRef("o")))
    assert format_triple(pat) == "n p << ?s :q o >> ."
    assert pat.variables() == ["s"]
    assert substitute(pat, {}) == pat  # without values, parameters stay
    bound = substitute(pat, {"n": Iri("b"), "p": Iri("rdf:type"), "o": integer(1)})
    assert format_triple(bound) == ":b a << ?s :q 1 >> ."  # variables stay
    assert to_ground(bound) is None
    assert to_ground(bound, {"s": Iri("a")}) == Triple(
        Iri("b"), Iri("rdf:type"), Quoted(Triple(Iri("a"), Iri("q"), integer(1)))
    )


def test_variables_first_appearance_order():
    pat = TriplePattern(
        TriplePattern(Variable("sp"), Iri("p"), Variable("n")),
        Variable("pred"),
        Variable("sp"),
    )
    assert pat.variables() == ["sp", "n", "pred"]


def test_triple_and_quoted_hash_contract():
    """Triple and Quoted hash once, at construction; the cached hash is
    invisible and never makes unequal values equal."""
    s, p = Iri("s"), Iri("p")

    def build():
        inner = Triple(s, p, Literal(1, INTEGER))
        return inner, Quoted(inner), Triple(Quoted(inner), p, Iri("o"))

    for a, b in zip(build(), build()):
        assert a == b and a is not b and hash(a) == hash(b)
        assert "_hash" not in repr(a)

    t = Triple(s, p, Iri("o"))
    moved = dataclasses.replace(t, object=Iri("q"))
    assert moved == Triple(s, p, Iri("q")) and hash(moved) == hash(Triple(s, p, Iri("q")))
    assert moved in {Triple(s, p, Iri("q"))} and t not in {moved}

    one, true = Literal(1, INTEGER), Literal(True, BOOLEAN)
    assert one != true
    assert Triple(s, p, one) != Triple(s, p, true)
    assert Quoted(Triple(s, p, one)) != Quoted(Triple(s, p, true))
    assert len({Triple(s, p, one), Triple(s, p, true)}) == 2

    with pytest.raises(MalformedTermError):
        Triple([], p, Iri("o"))
    with pytest.raises(MalformedTermError):
        Triple(s, p, [])
    with pytest.raises(MalformedTermError):
        Quoted([])


def test_an_iri_is_the_one_object_for_its_name():
    """``Iri(name)`` returns one object per name, so equality is identity;
    it stays frozen, and copying or pickling gives the same object back."""
    iri = Iri("Node1.1")
    assert Iri("Node1.1") is iri and Iri("Node" + "1.1") is iri
    assert Iri("Node1.2") is not iri and Iri("Node1.2") != iri
    assert repr(iri) == "Iri(name='Node1.1')"
    assert copy.copy(iri) is iri and copy.deepcopy(iri) is iri
    assert pickle.loads(pickle.dumps(iri)) is iri
    triple = Triple(iri, Iri("p"), Iri("o"))
    assert copy.deepcopy(triple).subject is iri and pickle.loads(pickle.dumps(triple)).subject is iri
    with pytest.raises(dataclasses.FrozenInstanceError):
        iri.name = "Node1.2"
    with pytest.raises(dataclasses.FrozenInstanceError):
        del iri.name
    assert iri.name == "Node1.1"
    for bad in ("", "has space", "9starts.with.digit", "trailing.dot."):
        for _ in range(2):  # a rejected name is not kept, and fails again
            with pytest.raises(MalformedTermError, match=re.escape(f"invalid IRI name: {bad!r}")):
                Iri(bad)


class _CountingPattern:
    """Stands in for a compiled pattern and counts its ``fullmatch`` calls."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.calls = 0

    def fullmatch(self, text):
        self.calls += 1
        return self.pattern.fullmatch(text)


def test_a_run_checks_each_distinct_iri_name_once(tmp_path, monkeypatch):
    """An IRI name is checked when its one object is built, not at every
    ``Iri(name)``: the dairy preset's generate and simulate check exactly as
    many names as they add to the intern table."""
    counting = _CountingPattern(terms._IRI_NAME)
    monkeypatch.setattr(terms, "_IRI_NAME", counting)
    before = len(terms._IRIS)
    graph = tmp_path / "dairy.kg"
    assert main(["generate", "--preset", "dairy", "--seed", "29", "--out", str(graph)]) == 0
    simulate = ["simulate", "--graph", str(graph), "--horizon", "60", "--out", str(tmp_path / "sim.json")]
    assert main([*simulate, "--final-graph", str(tmp_path / "final.kg")]) == 0
    assert counting.calls == len(terms._IRIS) - before


_PICKLE_CODE = """
import pickle, sys
from supplykg.terms import Iri, Quoted, Triple, integer
inner = Triple(Iri("s"), Iri("p"), integer(1))
fresh = [inner, Quoted(inner), Triple(Quoted(inner), Iri("p"), Iri("o")), Iri("o")]
if sys.argv[1] == "dump":
    sys.stdout.write(pickle.dumps(fresh).hex())
else:
    loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))
    print([(a == b, a in {b}, hash(a) == hash(b)) for a, b in zip(loaded, fresh)])
    print(loaded[3] is fresh[3], loaded[0].subject is fresh[0].subject)
"""


def test_a_pickled_triple_hashes_afresh_under_another_seed():
    """A pickled Triple or Quoted carries its parts, not its cached hash: a
    process with another string hash seed finds it in a set of fresh terms.
    A pickled Iri loads as the loading process's one object for its name."""
    src = str(Path(supplykg.__file__).resolve().parent.parent)

    def run(seed, mode, stdin=""):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        done = subprocess.run(
            [sys.executable, "-c", _PICKLE_CODE, mode],
            input=stdin, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        return done.stdout

    assert run("2", "load", run("1", "dump")) == "[" + ", ".join(["(True, True, True)"] * 4) + "]\nTrue True\n"


# Literals whose values compare equal across datatypes or signs: signed
# zeros, 1e+20 next to the integer 10**20, and integers next to equal
# decimals, besides any drawn literal.
_close_literals = st.one_of(
    st.sampled_from(
        [
            Literal(0.0, DECIMAL),
            Literal(-0.0, DECIMAL),
            Literal(1e20, DECIMAL),
            Literal(1.0, DECIMAL),
            Literal(0, INTEGER),
            Literal(1, INTEGER),
            Literal(10**20, INTEGER),
            Literal(0, TIMESTEP),
            Literal(False, BOOLEAN),
            Literal(True, BOOLEAN),
            Literal("0.0", "string"),
        ]
    ),
    literals,
)
_close_terms = st.one_of(
    _close_literals,
    st.sampled_from([Iri("a"), Iri("b")]),
    st.builds(lambda o: Quoted(Triple(Iri("s"), Iri("p"), o)), _close_literals),
)


@given(_close_terms, _close_terms)
@example(Literal(0.0, DECIMAL), Literal(-0.0, DECIMAL))
@example(Quoted(Triple(Iri("s"), Iri("p"), Literal(-0.0, DECIMAL))), Quoted(Triple(Iri("s"), Iri("p"), Literal(0.0, DECIMAL))))
@example(Literal(1e20, DECIMAL), Literal(10**20, INTEGER))
@example(Literal(1.0, DECIMAL), Literal(1, INTEGER))
@example(Literal(0, INTEGER), Literal(False, BOOLEAN))
def test_terms_are_equal_exactly_when_their_texts_are(a, b):
    assert (a == b) == (format_term(a) == format_term(b))
    if a == b:
        assert hash(a) == hash(b)
    assert len({a, b}) == len({format_term(a), format_term(b)})
