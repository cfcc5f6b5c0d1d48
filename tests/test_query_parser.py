import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supplykg.query import (
    Aggregate,
    Binary,
    Call,
    Const,
    InsertWhereQuery,
    ParamRef,
    ProjItem,
    QuerySyntaxError,
    SelectQuery,
    VarRef,
    parse_query,
    print_query,
)
from supplykg.graph import Graph
from supplykg.query import evaluate
from supplykg.query.ast import query_params
from supplykg.query.parser import MAX_EXPR_DEPTH
from supplykg.terms import MAX_QUOTE_DEPTH, Iri, Literal, Triple, TriplePattern, Variable


def test_select_star_with_join():
    q = parse_query("SELECT * WHERE { ?customer :makes ?order . ?order :hasQuantity ?q . }")
    assert isinstance(q, SelectQuery)
    assert q.projection is None
    assert q.patterns == (
        TriplePattern(Variable("customer"), Iri("makes"), Variable("order")),
        TriplePattern(Variable("order"), Iri("hasQuantity"), Variable("q")),
    )
    assert q.pattern_variables() == ["customer", "order", "q"]


def test_final_dot_optional_and_case_insensitive_keywords():
    q = parse_query("select * where { ?c :makes ?o }")
    assert isinstance(q, SelectQuery)
    q2 = parse_query("SELECT * WHERE { ?c :makes ?o . }")
    assert q == q2


def test_a_is_rdf_type_only_in_predicate_position():
    q = parse_query("SELECT * WHERE { ?n a :Node . }")
    assert q.patterns[0].predicate == Iri("rdf:type")
    # as subject or object, a bare "a" is an identifier, hence a parameter
    q2 = parse_query("SELECT * WHERE { ?n :p a . }", params=["a"])
    assert q2.patterns[0].object == ParamRef("a")
    with pytest.raises(QuerySyntaxError):
        parse_query("SELECT * WHERE { ?n :p a . }")


def test_quoted_pattern_nesting():
    q = parse_query('SELECT * WHERE { << :Product :needsProduct ?p >> :needsQuantity ?q . }')
    pat = q.patterns[0]
    assert pat.subject == TriplePattern(Iri("Product"), Iri("needsProduct"), Variable("p"))
    assert pat.object == Variable("q")


def test_filter_arithmetic_with_params():
    q = parse_query(
        "SELECT ?order WHERE { ?order :hasDeliveryTime ?dt . FILTER (?dt - lt = t) . }",
        params=["lt", "t"],
    )
    assert q.filters == (
        Binary("=", Binary("-", VarRef("dt"), ParamRef("lt")), ParamRef("t")),
    )
    assert query_params(q) == {"lt", "t"}


def test_unknown_identifier_is_a_syntax_error_with_position():
    with pytest.raises(QuerySyntaxError) as err:
        parse_query("SELECT ?o WHERE { ?o :p ?dt . FILTER (?dt - lt = 3) . }", params=["t"])
    assert "lt" in str(err.value)
    assert "line 1" in str(err.value)


def test_filter_conjunction_loose_style():
    # two parenthesized comparisons joined by && after the FILTER keyword
    q = parse_query(
        "SELECT ?s WHERE { ?s :hasSaturation ?sat . ?s :hasLT ?lt . "
        "FILTER (?sat >= 10) && (?lt = 2) . }"
    )
    f = q.filters[0]
    assert isinstance(f, Binary) and f.op == "&&"


def test_aggregates_with_aliases_and_grouping():
    q = parse_query(
        'SELECT ?order (SUM(IF(REGEX(str(?x), "True"), 1, 0)) AS ?fulfilled) '
        "WHERE { ?order :isFulfilled ?x . }"
    )
    assert q.projection[0] == ProjItem(VarRef("order"), None)
    agg = q.projection[1]
    assert agg.alias == "fulfilled"
    assert isinstance(agg.expr, Aggregate) and agg.expr.func == "SUM"
    call = agg.expr.arg
    assert isinstance(call, Call) and call.func == "IF"
    assert call.args[0] == Call("REGEX", (Call("STR", (VarRef("x"),)), Const(Literal("True", "string"))))


def test_bare_aggregate_alias_without_parens():
    q = parse_query("SELECT AVG(?res) AS ?Responsiveness WHERE { ?n :hasResponsiveness ?res . }")
    assert q.projection == (ProjItem(Aggregate("AVG", VarRef("res")), "Responsiveness"),)


def test_projection_expression_precedence():
    q = parse_query("SELECT 100 * ?quant / ?max WHERE { ?c :hasQuantity ?quant . ?c :hasMax ?max . }")
    expr = q.projection[0].expr
    assert expr == Binary(
        "/", Binary("*", Const(Literal(100, "integer")), VarRef("quant")), VarRef("max")
    )


def test_order_by_variants():
    base = "SELECT ?o WHERE { ?c :makes ?o . ?c :hasPriority ?p . } ORDER BY "
    assert parse_query(base + "DESC ?p").order_by == ("p", True)
    assert parse_query(base + "ASC ?p").order_by == ("p", False)
    assert parse_query(base + "?p").order_by == ("p", False)
    assert parse_query(base + "DESC(?p)").order_by == ("p", True)


def test_insert_where_with_quoted_template():
    q = parse_query(
        "INSERT { << ?sp :needsNode nd >> :hasQuantity qy . } "
        "WHERE { ord :hasSupplyPlan ?sp . }",
        params=["nd", "qy", "ord"],
    )
    assert isinstance(q, InsertWhereQuery)
    assert q.template[0].subject == TriplePattern(Variable("sp"), Iri("needsNode"), ParamRef("nd"))
    assert query_params(q) == {"nd", "qy", "ord"}


def test_typed_literals_in_queries():
    q = parse_query('SELECT ?s WHERE { ?s :hasDeliveryTime "12"^^timestep . ?s :flag "true"^^boolean . }')
    assert q.patterns[0].object == Literal(12, "timestep")
    assert q.patterns[1].object == Literal(True, "boolean")


def test_negative_number_literals():
    q = parse_query("SELECT ?s WHERE { ?s :hasTemperature -4 . FILTER (?s != -1.5) . }")
    assert q.patterns[0].object == Literal(-4, "integer")
    assert q.filters[0].right == Const(Literal(-1.5, "decimal"))


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "SELECT WHERE { ?a :p ?b . }",
        "SELECT * WHERE { }",
        "SELECT * WHERE { ?a :p ?b ",
        "SELECT * WHERE { ?a :p . }",
        "SELECT * { ?a :p ?b . }",
        "SELECT ?a WHERE { ?b :p ?c . }",
        "SELECT * WHERE { ?a :p ?b . } ORDER BY ?zzz",
        "SELECT * WHERE { ?a :p ?b . } GROUP BY ?zzz",
        "SELECT SUM(?a) WHERE { ?a :p ?b . } GROUP BY ?zzz",
        "SELECT ?a WHERE { ?a :p ?b . FILTER (SUM(?b) > 3) . }",
        "SELECT SUM(AVG(?b)) WHERE { ?a :p ?b . }",
        "SELECT ?a SUM(?b) ?c WHERE { ?a :p ?b . ?a :q ?c . } GROUP BY ?a",
        "SELECT IF(?a) WHERE { ?a :p ?b . }",
        "SELECT REGEX(?a) WHERE { ?a :p ?b . }",
        "INSERT { } WHERE { ?a :p ?b . }",
        "INSERT { ?a :p ?b . }",
        "SELECT * WHERE { ?a :p ?b . } ORDER BY ?a ORDER BY ?b",
        "SELECT ?a WHERE { ?a :p ?b . } extra",
        "SELECT * WHERE { ?a 42 ?b . }",
        "SELECT ?a - WHERE { ?a :p ?b . }",
    ],
)
def test_syntax_errors(bad):
    with pytest.raises(QuerySyntaxError):
        parse_query(bad)


def test_group_by_without_aggregate_rejected():
    with pytest.raises(QuerySyntaxError):
        parse_query("SELECT ?a WHERE { ?a :p ?b . } GROUP BY ?a")


def test_aggregate_projection_requires_plain_key_vars():
    with pytest.raises(QuerySyntaxError):
        parse_query("SELECT ?a + 1 SUM(?b) WHERE { ?a :p ?b . }")


@pytest.mark.parametrize(
    "text, params",
    [
        ("SELECT * WHERE { ?customer :makes ?order . }", ()),
        ("SELECT * WHERE { ?c a :Customer . ?c2 a :Customer . ?c ?x ?c2 . }", ()),
        ('SELECT * WHERE { << :Product :needsProduct ?p >> :needsQuantity ?q . }', ()),
        ("SELECT ?process WHERE { :Node3.2 :hasProcess ?process . }", ()),
        ("SELECT ?fulfilled WHERE { ?o :isFulfilled ?x . FILTER (REGEX(str(?x), \"True\")) . ?o :p ?fulfilled . }", ()),
        (
            "SELECT ?order (SUM(IF(REGEX(str(?x), \"True\"), 1, 0)) AS ?f) WHERE { ?order :isFulfilled ?x . }",
            (),
        ),
        ("SELECT 100 * ?q / ?m WHERE { ?c :hasQuantity ?q . ?c :hasMax ?m . }", ()),
        ("SELECT AVG(?res) AS ?R WHERE { ?n :hasResponsiveness ?res . }", ()),
        ("SELECT ?o WHERE { ?o :hasDeliveryTime ?dt . FILTER (?dt - lt = t) . } ORDER BY DESC ?dt", ("lt", "t")),
        (
            "INSERT { << ?sp :needsNode nd >> :getsProduct pr . << ?sp :needsNode nd >> :hasQuantity qy . } "
            "WHERE { ord :hasSupplyPlan ?sp . }",
            ("nd", "pr", "qy", "ord"),
        ),
        ("SELECT ?a ?b WHERE { ?a :p ?b . FILTER ((?b > 1) && (?b < 10) || (?b = 0)) . }", ()),
        ("SELECT (?b * -1 AS ?neg) WHERE { ?a :p ?b . }", ()),
        ("SELECT * WHERE { ?s :hasTimeStamp \"178\"^^timestep . }", ()),
        ("SELECT SUM(?b) WHERE { ?a :p ?b . } GROUP BY ?a", ()),
    ],
)
def test_print_parse_round_trip(text, params):
    q = parse_query(text, params=params)
    printed = print_query(q)
    assert parse_query(printed, params=params) == q
    # printing is a fixpoint
    assert print_query(parse_query(printed, params=params)) == printed


@pytest.mark.parametrize(
    "escaped, value",
    [('a\\"b', 'a"b'), ("a\\\\b", "a\\b"), ("a\\nb", "a\nb")],
    ids=["quote", "backslash", "newline"],
)
def test_string_escapes_decode_like_the_graph_format(escaped, value):
    q = parse_query(f'SELECT ?s WHERE {{ ?s :p "{escaped}" . }}')
    assert q.patterns[0].object == Literal(value, "string")
    assert parse_query(print_query(q)) == q
    g = Graph([Triple(Iri("s"), Iri("p"), Literal(value, "string"))])
    assert evaluate(q, g).rows == ((Iri("s"),),)


def test_unknown_string_escape_is_a_syntax_error():
    with pytest.raises(QuerySyntaxError, match="escape"):
        parse_query('SELECT ?s WHERE { ?s :p "a\\qb" . }')


@pytest.mark.parametrize(
    "query, where",
    [
        ("SELECT * WHERE { ?s :p 1e999 . }", "line 1, column 24"),
        ("SELECT * WHERE {\n  ?s :p -1e999 . }", "line 2, column 10"),
        ("SELECT (1e999 AS ?x) WHERE { ?s :p ?o . }", "line 1, column 9"),
        ("SELECT * WHERE { ?s :p ?o . FILTER(?o > -1e999) }", "line 1, column 42"),
    ],
    ids=["object", "negated", "projection", "filter"],
)
def test_a_number_no_decimal_can_hold_is_a_syntax_error_at_its_position(query, where):
    with pytest.raises(QuerySyntaxError, match=f"^{where}: bad decimal literal value"):
        parse_query(query)


@pytest.mark.parametrize(
    "query, where, digits",
    [
        ("SELECT * WHERE { ?s :p " + "1" * 5000 + " . }", "line 1, column 24", 5000),
        ("SELECT * WHERE { ?s :p ?o . FILTER(?o > -" + "7" * 4301 + ") }", "line 1, column 42", 4301),
    ],
    ids=["object", "filter"],
)
def test_an_integer_too_long_to_read_is_a_syntax_error_at_its_position(query, where, digits):
    """The message the graph parser gives for the same token."""
    with pytest.raises(QuerySyntaxError, match=f"^{where}: integer literal has {digits} digits, more than the 4300"):
        parse_query(query)


def _nested(depth):
    return "<< " * depth + "?s :p :o" + " >> :q :r" * depth


def test_quote_nesting_limit():
    parse_query("SELECT * WHERE { " + _nested(MAX_QUOTE_DEPTH) + " . }")
    for depth in (MAX_QUOTE_DEPTH + 1, 300):
        with pytest.raises(QuerySyntaxError, match="nest deeper"):
            parse_query("SELECT * WHERE { " + _nested(depth) + " . }")


def _deep_parens(depth):
    return "SELECT ?a WHERE { ?a :p ?b . FILTER " + "(" * depth + "?b != 0" + ")" * depth + " }"


def _deep_minus(depth):
    return "SELECT ?a WHERE { ?a :p ?b . FILTER (" + "-" * (depth - 1) + "?b != 0) }"


def _deep_calls(depth):
    return "SELECT ?a WHERE { ?a :p ?b . FILTER REGEX(" + "STR(" * (depth - 1) + "?b" + ")" * (depth - 1) + ', "1") }'


def _or_chain(depth):
    return "SELECT ?a WHERE { ?a :p ?b . FILTER (" + " || ".join(["?b = 1"] * depth) + ") }"


def _projected_chain(depth):
    return "SELECT ?a (" + " + ".join(["?b"] * (depth + 1)) + " AS ?s) WHERE { ?a :p ?b . }"


_A = ((Iri("a"),),)


@pytest.mark.parametrize(
    "nested, rows",
    [
        (_deep_parens, _A),
        (_deep_minus, _A),
        (_deep_calls, _A),
        (_or_chain, _A),
        (_projected_chain, ((Iri("a"), Literal(MAX_EXPR_DEPTH + 1, "integer")),)),
    ],
    ids=["parens", "unary-minus", "call-args", "or-chain", "projected-chain"],
)
def test_expression_nesting_limit(nested, rows):
    g = Graph([Triple(Iri("a"), Iri("p"), Literal(1, "integer"))])
    q = parse_query(nested(MAX_EXPR_DEPTH))
    assert evaluate(q, g).rows == rows
    # the printer nests no deeper than the tree, so the text reads back
    assert parse_query(print_query(q)) == q
    for depth in (MAX_EXPR_DEPTH + 1, 300, 2000):
        with pytest.raises(QuerySyntaxError, match="nest deeper"):
            parse_query(nested(depth))


_OPERATORS = ["||", "&&", "=", "<", "+", "-", "*", "/"]

# Expression text built to land near the depth limit: long operator chains,
# runs of unary minus and redundant parentheses, calls, and negative numbers.
_expression_texts = st.recursive(
    st.sampled_from(["?b", "1", "-2", "2.5", '"x"', "t", ":n"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(_OPERATORS), st.integers(1, 40)).map(
            lambda a: f" {a[1]} ".join([a[0]] * a[2])
        ),
        st.tuples(inner, st.integers(1, 40)).map(lambda a: "(" * a[1] + a[0] + ")" * a[1]),
        st.tuples(inner, st.integers(1, 40)).map(lambda a: "-" * a[1] + " " + a[0]),
        st.tuples(inner, inner, inner).map(lambda a: f"IF({a[0]}, {a[1]}, {a[2]})"),
        inner.map(lambda s: f"STR({s})"),
    ),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(_expression_texts, st.sampled_from(["filter", "alias", "item"]))
def test_every_accepted_expression_prints_as_text_that_reads_back(text, place):
    query = {
        "filter": "SELECT ?a WHERE { ?a :p ?b . FILTER (" + text + ") }",
        "alias": "SELECT ?a (" + text + " AS ?x) WHERE { ?a :p ?b . }",
        "item": "SELECT ?a (" + text + ") WHERE { ?a :p ?b . }",
    }[place]
    try:
        q = parse_query(query, params=["t"])
    except QuerySyntaxError:
        return
    assert parse_query(print_query(q), params=["t"]) == q


def test_line_and_column_in_errors():
    text = "SELECT ?a\nWHERE { ?a :p ?b .\n  FILTER (?a ~ 3) . }"
    with pytest.raises(QuerySyntaxError) as err:
        parse_query(text)
    assert err.value.line == 3
