"""Arbitrary text fed to the three text parsers fails only with the
parser's own error, which the command line turns into exit 2.

An input is either a run of fragments (tokens of the format mixed with
short random strings) or a valid text with a few of its space-separated
words deleted, replaced or joined by a fragment, so that many inputs get
past the tokenizer and reach the grammar and the value checks. The graph
loader, with its word table and direct line shapes, is checked against
``reference_parse``, which tokenizes and parses every line whole.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from supplykg.generator import ConfigError, parse_config_text, parse_scenario_text
from supplykg.query import parse_query
from supplykg.query.parser import QuerySyntaxError
from reference_parse import parse_triples
from supplykg.serialization import GraphParseError, parse_graph


@st.composite
def _mutant(draw, valid, fragment):
    words = draw(st.sampled_from(valid)).split(" ")
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(words)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op == "insert" or i == len(words):
            words.insert(i, draw(fragment))
        elif op == "delete":
            del words[i]
        else:
            words[i] = draw(fragment)
    return " ".join(words)


def _texts(valid, tokens):
    fragment = st.one_of(st.sampled_from(tokens), st.text(max_size=3))
    return st.one_of(st.lists(fragment, max_size=40).map("".join), _mutant(valid, fragment))


_GRAPHS = [
    ":OEM1 a :OEM .\n:OEM1 :hasDeliveryTime 4 .\n<< :Product :needsProduct :Product1.1 >> :needsQuantity 2 .\n"
    ':Order1 :hasDeliveryTime "7"^^timestep .\n:Order1 :isFulfilled "True"^^boolean .\n:X :hasCO2 2.5 .\n'
    ':Y :label "a \\"b\\"" .\n# comment\n',
]

_GRAPH_TOKENS = [
    ":a", ":p", ":rdf:type", "a", " ", "\n", ".", "<<", ">>", "1", "-7", "2.5", "1e3",
    '"s"', '"', "\\", '\\"', "^^", "^^timestep", "^^boolean", '"True"', '"3"', "#", "?x", "1" * 4301,
]

_QUERIES = [
    'SELECT ?x ?y WHERE { ?x :p ?y . FILTER (?y > 1 && ?y != 3) } ORDER BY DESC(?y)',
    "SELECT ?x (COUNT(?y) AS ?n) WHERE { ?x :p ?y . } GROUP BY ?x",
    "INSERT { << ?x :p nd >> :q 1 . } WHERE { ?x a :Node . }",
    'SELECT * WHERE { << ?x :p ?y >> :q ?z . FILTER (bound(?z) || str(?x) = "a") }',
]

_QUERY_TOKENS = [
    "SELECT", "INSERT", "WHERE", "FILTER", "GROUP BY", "ORDER BY", "ASC", "DESC", "AS",
    "DISTINCT", "COUNT", "SUM", "AVG", "MIN", "MAX", "str", "bound", "{", "}", "(", ")",
    " ", "\n", ".", ",", "*", "?x", "?y", ":p", ":a", "a", "<<", ">>", "nd", "1", "-2",
    "0.5", "1e999", '"s"', '"True"^^boolean', '"4"^^timestep', "=", "!=", "<", ">=", "||", "&&",
    "!", "+", "-", "/",
]

_CONFIGS = [
    "preset = dairy\nseed = 3\nkpi_range = [0, 100]\nper_node_overrides.Node1.1.hasPriority = 2\n",
    "seed = 1\n[A]\ndemand_frequency = 2\n[B]\nkpi_range_overrides.hasAgility = [10, 20]\n",
]

_CONFIG_TOKENS = [
    "preset", "dairy", "automotive", "seed", "horizon", "demand_frequency", "order_quantity",
    "initial_capacity", "saturation_range", "kpi_range", "priority_range", "supplier_groups",
    "supplier_tier_nodes", "kpi_range_overrides.hasAgility", "per_node_overrides.Node1.1.hasPriority",
    "per_node_overrides.OEM1.inventory", "=", "[", "]", ",", "0", "1", "3", "-1",
    "100", "500", "\n", "#", "[A]", "[B]", "x",
]


@settings(max_examples=400, deadline=None)
@given(_texts(_GRAPHS, _GRAPH_TOKENS))
def test_graph_parser_raises_only_its_own_error(text):
    try:
        parse_graph(text)
    except GraphParseError:
        pass


@settings(max_examples=400, deadline=None)
@given(_texts(_QUERIES, _QUERY_TOKENS))
def test_query_parser_raises_only_its_own_error(text):
    try:
        parse_query(text, params=("nd",))
    except QuerySyntaxError:
        pass


@settings(max_examples=400, deadline=None)
@given(_texts(_CONFIGS, _CONFIG_TOKENS))
def test_config_parsers_raise_only_their_own_error(text):
    for parse in (parse_config_text, parse_scenario_text):
        try:
            parse(text)
        except ConfigError:
            pass


# Glued tokens, pieces of strings and the whitespace that str.split() and the
# tokenizer's \s must agree on, so that drawn lines split into words that
# scan alone, words that do not, and strings that span several words.
_LINE_FRAGMENTS = [
    ":a", ":c.", ":c", "<<", ">>", "<<:a", ":a>>", "5.", "5", "-2.5e3", "+7", "a", "a:X", "rdf:type",
    ".", '"', '\\"', "\\", "^^", "^^integer", "^^string", '"x"', '"a b"', '"a\xa0b"', '"\x1c"', "#", "?",
]
_LINE_SEPARATORS = ["", " ", "  ", "\t", "\xa0", "\x1c", "\x85", "\u2003", "\u2028"]
_STRING_BODIES = st.text(alphabet=' \xa0\x1c\tab:<.>^"\\', max_size=6).map(
    lambda body: '"' + body.replace("\\", "\\\\").replace('"', '\\"') + '"'
)
_line_pieces = st.one_of(st.sampled_from(_LINE_FRAGMENTS), _STRING_BODIES, st.text(max_size=2))


@st.composite
def _lines(draw):
    pieces = draw(st.lists(_line_pieces, max_size=10))
    return "".join(p + draw(st.sampled_from(_LINE_SEPARATORS)) for p in pieces)


# Terms that are equal under other spellings, that break a rule of the term
# types only in some positions, or that no literal can hold.
_SHAPE_TERMS = [
    ":a", ":b", "a", "rdf:type", ":rdf:type", "1", "+1", '"1"^^integer', "1.0", "1.00", "0.0", "-0.0",
    '"x"', '"x"^^string', '"a b"', '"True"^^boolean', '"true"^^boolean', '"7"^^timestep', '"-1"^^timestep',
    "1e999", "9" * 4301, '"\\q"', ".", "<<", ">>",
]


@st.composite
def _shaped_term(draw, depth):
    if depth and draw(st.integers(0, 3)) == 0:
        return ["<<", *draw(_shaped_term(depth - 1)), draw(st.sampled_from(_SHAPE_TERMS[:5])),
                *draw(_shaped_term(depth - 1)), ">>"]
    return [draw(st.sampled_from(_SHAPE_TERMS))]


@st.composite
def _shaped_lines(draw):
    """A line near the direct shapes: three drawn terms, quoted to depth 2,
    and a dot, with at most one token dropped or added, joined by nothing
    (so ``<<:a`` and ``>>.`` glue) or by whitespace."""
    predicates = st.sampled_from(_SHAPE_TERMS[:5] + _SHAPE_TERMS[5:8])
    tokens = [*draw(_shaped_term(2)), draw(predicates), *draw(_shaped_term(2)), "."]
    op = draw(st.sampled_from(["keep", "keep", "delete", "insert"]))
    i = draw(st.integers(0, len(tokens) - 1))
    if op == "delete":
        del tokens[i]
    elif op == "insert":
        tokens.insert(i, draw(st.sampled_from(_SHAPE_TERMS)))
    return "".join(t + draw(st.sampled_from(["", " ", " ", "\t"])) for t in tokens)


def _outcome(parse, text):
    try:
        return parse(text)
    except GraphParseError as exc:
        return (str(exc), exc.line)


@settings(max_examples=800, deadline=None)
@given(st.lists(st.one_of(_lines(), _shaped_lines()), min_size=1, max_size=6))
def test_load_agrees_with_the_line_parser(lines):
    """A drawn text, whose words and quoted triples recur across its lines
    as in one load, gives the triples of the reference line parser, or its
    error message and line number."""
    text = "\n".join(lines)
    assert _outcome(lambda t: parse_graph(t).triples(), text) == _outcome(parse_triples, text)
