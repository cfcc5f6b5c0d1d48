import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import graphs, triples
from supplykg.graph import Graph
from supplykg.schema import load_graph
from supplykg.serialization import GraphParseError, parse_graph, serialize
from supplykg.terms import (
    MAX_QUOTE_DEPTH,
    Iri,
    Quoted,
    Triple,
    boolean,
    decimal,
    format_term,
    format_triple,
    integer,
    string,
    timestep,
)


def test_canonical_output_frozen():
    g = Graph(
        [
            Triple(Iri("OEM1"), Iri("rdf:type"), Iri("OEM")),
            Triple(Iri("Order3"), Iri("hasQuantity"), integer(100000)),
            Triple(Iri("Order3"), Iri("hasDeliveryTime"), timestep(12)),
            Triple(Iri("Order3"), Iri("isFulfilled"), boolean(True)),
            Triple(Iri("Inv1"), Iri("hasCost"), decimal(25.5)),
            Triple(Iri("Node3.2"), Iri("hasSCORKPI"), string("Responsiveness: 85")),
            Triple(
                Quoted(Triple(Iri("SP3"), Iri("needsNode"), Iri("SupplierNode1.1"))),
                Iri("getsProduct"),
                Iri("Product1.1"),
            ),
        ]
    )
    assert serialize(g) == (
        ':Inv1 :hasCost 25.5 .\n'
        ':Node3.2 :hasSCORKPI "Responsiveness: 85" .\n'
        ':OEM1 a :OEM .\n'
        ':Order3 :hasDeliveryTime "12"^^timestep .\n'
        ':Order3 :hasQuantity 100000 .\n'
        ':Order3 :isFulfilled "True"^^boolean .\n'
        '<< :SP3 :needsNode :SupplierNode1.1 >> :getsProduct :Product1.1 .\n'
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_serialize_writes_the_sorted_lines_whatever_the_cache(data):
    """Triples inserted in any order serialize to the same bytes with and
    without a cached ``triples()``: their lines in ``format_triple`` order.
    ``snapshot`` returns a list that later writes leave unchanged."""
    drawn = data.draw(st.lists(triples, max_size=40, unique=True))
    shuffled = data.draw(st.permutations(drawn))
    fresh, cached = Graph(shuffled), Graph(drawn)
    cached.triples()
    text = serialize(fresh)
    assert serialize(cached) == text
    assert text == "".join(format_triple(t) + "\n" for t in sorted(drawn, key=format_triple))
    listed = fresh.snapshot()
    kept = list(listed)
    assert sorted(listed, key=format_triple) == fresh.triples()
    fresh.insert(Triple(Iri("added"), Iri("p"), Iri("o")))
    for t in kept[:3]:
        fresh.remove(t)
    assert listed == kept


def test_empty_graph_serializes_to_empty_text():
    assert serialize(Graph()) == ""
    assert len(parse_graph("")) == 0


def test_parse_accepts_flexible_input():
    text = """
    # a comment
    :a   :p\t:b .

    :a :p   42 .
    :a :p "x"^^string .
    :a :p "TRUE"^^boolean .
    :a :p "7"^^timestep .
    :a :p "4.5"^^decimal .
    :a :p "12"^^integer .
    :a rdf:type :Thing .
    """
    g = parse_graph(text)
    assert Triple(Iri("a"), Iri("p"), Iri("b")) in g
    assert Triple(Iri("a"), Iri("p"), integer(42)) in g
    assert Triple(Iri("a"), Iri("p"), string("x")) in g
    assert Triple(Iri("a"), Iri("p"), boolean(True)) in g
    assert Triple(Iri("a"), Iri("p"), timestep(7)) in g
    assert Triple(Iri("a"), Iri("p"), decimal(4.5)) in g
    assert Triple(Iri("a"), Iri("p"), integer(12)) in g
    assert Triple(Iri("a"), Iri("rdf:type"), Iri("Thing")) in g


def test_parse_tight_spacing_and_nested_quotes():
    g = parse_graph("<< << :s :p :o >> :q :r >> :meta :x .")
    t = next(iter(g))
    assert isinstance(t.subject, Quoted)
    assert isinstance(t.subject.triple.subject, Quoted)
    g2 = parse_graph(":s :p :o.")  # dot glued to the object
    assert Triple(Iri("s"), Iri("p"), Iri("o")) in g2


def test_string_escapes_round_trip():
    weird = 'quote " backslash \\ newline \n tab \t bell \x07 end'
    every = "".join(chr(c) for c in range(0x10000) if not 0xD800 <= c < 0xE000)  # the BMP but its surrogates
    g = Graph([Triple(Iri("s"), Iri("p"), string(weird)), Triple(Iri("s"), Iri("q"), string(every))])
    text = serialize(g)
    assert "\x07" not in text  # control characters never appear raw
    assert len(text.splitlines()) == 2
    assert parse_graph(text).triples() == g.triples()


@pytest.mark.parametrize("brk", ["\x85", "\u2028", "\u2029"])
def test_unicode_line_breaks_stay_on_one_line(brk):
    """str.splitlines() breaks at these, so they are written escaped."""
    g = Graph([Triple(Iri("s"), Iri("p"), string(f"a{brk}b"))])
    text = serialize(g)
    assert text == f':s :p "a\\u{ord(brk):04x}b" .\n'
    assert len(text.splitlines()) == 1
    assert parse_graph(text).triples() == g.triples()


def _nested(depth):
    return "<< " * depth + ":s :p :o" + " >> :q :r" * depth + " ."


def test_quote_nesting_limit():
    g = parse_graph(_nested(MAX_QUOTE_DEPTH))
    assert parse_graph(serialize(g)).triples() == g.triples()
    with pytest.raises(GraphParseError, match="nest deeper"):
        parse_graph(_nested(MAX_QUOTE_DEPTH + 1))
    with pytest.raises(GraphParseError, match="nest deeper"):
        parse_graph(_nested(300))


@pytest.mark.parametrize(
    "bad, fragment",
    [
        (":a :p .", "expected"),
        (":a :p", "end of line"),
        (":a :p :b :c .", "expected '.'"),
        (":a :p :b . junk", "unexpected character"),
        (":a 42 :b .", "predicate"),
        ('"lit" :p :b .', "subject"),
        (":a :p << :x :y :z .", "close"),
        (':a :p "x"^^volume .', "datatype"),
        (':a :p "yes"^^boolean .', "boolean"),
        (':a :p "4.5"^^integer .', "integer"),
        (':a :p "bad\\q escape" .', "escape"),
    ],
)
def test_parse_errors_carry_line_numbers(bad, fragment):
    with pytest.raises(GraphParseError) as err:
        parse_graph("# first line is fine\n" + bad)
    assert "line 2" in str(err.value)
    assert fragment in str(err.value)


def test_error_line_number_points_at_offender():
    text = ":a :p :b .\n:a :p :c .\n:broken ???\n"
    with pytest.raises(GraphParseError) as err:
        parse_graph(text)
    assert err.value.line == 3


@settings(max_examples=300, deadline=None)
@given(graphs)
def test_round_trip_identity(g):
    text = serialize(g)
    back = parse_graph(text)
    assert back.triples() == g.triples()
    # double round trip is byte-identical (canonical form is a fixpoint)
    assert serialize(back) == text


@settings(max_examples=100, deadline=None)
@given(graphs)
def test_serialized_lines_are_sorted(g):
    text = serialize(g)
    lines = text.splitlines()
    assert lines == sorted(lines)
    assert len(lines) == len(g)


def _terms(graph):
    """Every term the graph's triples hold, and the terms inside quoted ones."""
    out = []
    todo = list(graph.triples())
    while todo:
        t = todo.pop()
        for term in (t.subject, t.predicate, t.object):
            if isinstance(term, Quoted):
                todo.append(term.triple)
            out.append(term)
    return out


_SHARED_TERMS = (
    ":a a :T .\n:b rdf:type :T .\n:c :rdf:type :rdf:type .\n:a :p 5 .\n:b :p 5 .\n:a :q 0.0 .\n:b :q -0.0 .\n"
    ':a :s "x y" .\n:b :s "x y" .\n:a :t "7"^^timestep .\n<< :a :p 5 >> :s "x y" .\n'
)


@settings(max_examples=100, deadline=None)
@given(graphs)
def test_one_term_object_per_distinct_term_in_a_load(g):
    """Within one parse, terms with the same canonical text are one object.
    Two parses of one text share no literal or quoted term, and every IRI,
    since an IRI is the one object of its name."""
    text = serialize(g) + _SHARED_TERMS
    first, second = parse_graph(text), parse_graph(text)
    by_text = {}
    for term in _terms(first):
        assert by_text.setdefault((type(term), format_term(term)), term) is term

    def ids(graph, iris):
        return {id(t) for t in _terms(graph) if isinstance(t, Iri) == iris}

    assert not ids(first, iris=False) & ids(second, iris=False)
    assert ids(first, iris=True) == ids(second, iris=True)
    assert first.triples() == second.triples()


def test_one_quoted_object_per_distinct_quoted_term(simulated_automotive, tmp_path):
    """A load builds each distinct quoted triple once, however many lines
    quote it: a simulated graph quotes each plan line and bill-of-materials
    edge in several triples."""
    path = tmp_path / "final.kg"
    path.write_text(serialize(simulated_automotive[0]), encoding="utf-8")
    quoted = [term for t in load_graph(path).triples() for term in (t.subject, t.object) if isinstance(term, Quoted)]
    assert len(quoted) > len(set(quoted)) > 0
    assert len({id(term) for term in quoted}) == len(set(quoted))


def test_a_bad_token_on_several_lines_fails_at_the_first():
    for bad, message in [
        (':a :p "x"^^volume .', "line 2: unknown datatype tag ^^volume"),
        (":a :p :b ???", "line 2: unexpected character '?'"),
        (':a :p "4.5"^^integer .', "line 2: bad integer literal '4.5'"),
    ]:
        with pytest.raises(GraphParseError) as err:
            parse_graph(f":a :p :b .\n{bad}\n{bad}\n:c :p :d .\n{bad}\n")
        assert (str(err.value), err.value.line) == (message, 2)


@pytest.mark.parametrize(
    "number",
    ["1" * 5000, "-" + "7" * 4301, '"' + "1" * 5000 + '"^^integer'],
    ids=["5000-digits", "negative-4301-digits", "typed-5000-digits"],
)
@pytest.mark.parametrize("shape", ["{} .", "<< :c :d {} >> ."], ids=["object", "quoted"])
def test_an_integer_too_long_to_read_is_a_parse_error_with_its_line(number, shape):
    """More digits than ``int()`` reads (4,300 by default) is a
    ``GraphParseError`` on the line that holds them, whether the line takes
    the direct path or the line parser."""
    text = ":x :y :z .\n:a :b " + shape.format(number) + "\n"
    with pytest.raises(GraphParseError) as err:
        parse_graph(text)
    assert err.value.line == 2
    assert str(err.value).startswith("line 2: ")
    if not number.startswith('"'):
        digits = len(number.lstrip("-"))
        assert str(err.value) == f"line 2: integer literal has {digits} digits, more than the 4300 allowed"
