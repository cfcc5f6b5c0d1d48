import pytest

from supplykg.graph import Graph
from supplykg.query import ast
from supplykg.query import (
    MissingParameterError,
    QueryTypeError,
    UnboundVariableError,
    evaluate,
    evaluate_update,
    parse_query,
)
from supplykg.terms import (
    Iri,
    Quoted,
    Triple,
    TriplePattern,
    Variable,
    boolean,
    decimal,
    format_term,
    integer,
    string,
    timestep,
)


def tr(s, p, o):
    return Triple(Iri(s), Iri(p), o if not isinstance(o, str) else Iri(o))


@pytest.fixture
def orders_graph():
    g = Graph()
    for name, prio, qty, dt in [
        ("Order1", 3, 100, 9),
        ("Order2", 1, 250, 9),
        ("Order3", 2, 50, 12),
    ]:
        g.insert(tr(name, "rdf:type", "Order"))
        g.insert(tr(name, "hasQuantity", integer(qty)))
        g.insert(tr(name, "hasDeliveryTime", timestep(dt)))
        g.insert(tr(f"Cust{prio}", "makes", name))
        g.insert(tr(f"Cust{prio}", "hasPriority", integer(prio)))
    return g


def test_select_star_columns_and_rows(orders_graph):
    q = parse_query("SELECT * WHERE { ?c :makes ?o . }")
    table = evaluate(q, orders_graph)
    assert table.columns == ("c", "o")
    assert table.rows == (
        (Iri("Cust1"), Iri("Order2")),
        (Iri("Cust2"), Iri("Order3")),
        (Iri("Cust3"), Iri("Order1")),
    )


def test_join_with_filter_on_param_arithmetic(orders_graph):
    # due orders: delivery time minus OEM lead time equals the clock
    q = parse_query(
        "SELECT ?o WHERE { ?o a :Order . ?o :hasDeliveryTime ?dt . FILTER (?dt - lt = t) . }",
        params=["lt", "t"],
    )
    table = evaluate(q, orders_graph, {"lt": integer(3), "t": timestep(6)})
    assert [r[0] for r in table.rows] == [Iri("Order1"), Iri("Order2")]
    table = evaluate(q, orders_graph, {"lt": integer(3), "t": timestep(9)})
    assert [r[0] for r in table.rows] == [Iri("Order3")]
    table = evaluate(q, orders_graph, {"lt": integer(3), "t": timestep(7)})
    assert table.rows == ()


def test_missing_parameter_raises(orders_graph):
    q = parse_query("SELECT ?o WHERE { ?o :hasDeliveryTime ?dt . FILTER (?dt - lt = t) . }", params=["lt", "t"])
    with pytest.raises(MissingParameterError):
        evaluate(q, orders_graph, {"lt": integer(3)})


def test_order_by_unprojected_variable(orders_graph):
    q = parse_query(
        "SELECT ?o WHERE { ?c :makes ?o . ?c :hasPriority ?p . } ORDER BY DESC ?p"
    )
    table = evaluate(q, orders_graph)
    assert [r[0] for r in table.rows] == [Iri("Order1"), Iri("Order3"), Iri("Order2")]


def test_aggregation_groups_by_projected_variable():
    g = Graph()
    for order, flag in [("O1", True), ("O2", False), ("O3", True)]:
        g.insert(tr(order, "isFulfilled", boolean(flag)))
    q = parse_query(
        'SELECT ?o (SUM(IF(REGEX(str(?x), "True"), 1, 0)) AS ?yes) '
        '(SUM(IF(REGEX(str(?x), "False"), 1, 0)) AS ?no) '
        "WHERE { ?o :isFulfilled ?x . }"
    )
    table = evaluate(q, g)
    assert table.columns == ("o", "yes", "no")
    assert table.rows == (
        (Iri("O1"), integer(1), integer(0)),
        (Iri("O2"), integer(0), integer(1)),
        (Iri("O3"), integer(1), integer(0)),
    )


def test_global_aggregation_single_row():
    g = Graph()
    for n, v in [("N1", 80), ("N2", 90), ("N3", 85)]:
        g.insert(tr(n, "hasResponsiveness", integer(v)))
    q = parse_query("SELECT AVG(?r) AS ?avg WHERE { ?n :hasResponsiveness ?r . }")
    table = evaluate(q, g)
    assert table.columns == ("avg",)
    assert table.rows == ((decimal(85.0),),)
    # AVG is decimal even over integers; SUM of integers stays integer
    q2 = parse_query("SELECT SUM(?r) AS ?total WHERE { ?n :hasResponsiveness ?r . }")
    assert evaluate(q2, g).rows == ((integer(255),),)


def test_zero_rows_mean_zero_groups():
    g = Graph([tr("a", "p", "b")])
    q = parse_query("SELECT SUM(?x) AS ?s WHERE { ?n :absent ?x . }")
    assert evaluate(q, g).rows == ()


def test_aggregate_over_iris_is_a_type_error():
    g = Graph([tr("a", "p", "b")])
    q = parse_query("SELECT AVG(?x) AS ?a WHERE { ?n :p ?x . }")
    with pytest.raises(QueryTypeError):
        evaluate(q, g)


def test_filter_errors_drop_rows_not_queries():
    g = Graph(
        [
            tr("a", "hasVal", integer(5)),
            tr("b", "hasVal", string("not a number")),
            tr("c", "hasVal", integer(11)),
        ]
    )
    q = parse_query("SELECT ?s WHERE { ?s :hasVal ?v . FILTER (?v > 4) . }")
    table = evaluate(q, g)
    # the string row errors inside the filter and silently drops
    assert [r[0] for r in table.rows] == [Iri("a"), Iri("c")]


def test_projection_type_errors_raise():
    g = Graph([tr("a", "hasVal", string("text"))])
    q = parse_query("SELECT ?v + 1 WHERE { ?s :hasVal ?v . }")
    with pytest.raises(QueryTypeError):
        evaluate(q, g)


def test_division_yields_decimal_and_by_zero_errors():
    g = Graph([tr("c", "hasQuantity", integer(250)), tr("c", "hasMax", integer(1000))])
    q = parse_query("SELECT 100 * ?q / ?m WHERE { ?c :hasQuantity ?q . ?c :hasMax ?m . }")
    table = evaluate(q, g)
    assert table.rows == ((decimal(25.0),),)
    g2 = Graph([tr("c", "hasQuantity", integer(250)), tr("c", "hasMax", integer(0))])
    with pytest.raises(QueryTypeError):
        evaluate(q, g2)


_BIG = integer(int("1" * 400))  # 400 digits: no float holds it
_HUGE = decimal(1e300)  # its square overflows
_LONG = integer(int("1" * 2200))  # its square has more digits than Python writes (4,300)


@pytest.mark.parametrize(
    "value, condition",
    [
        (_BIG, "?x * 1.5 > 0"),
        (_BIG, "?x / 3 > 0"),
        (_BIG, "?x + 0.5 > 0"),
        (_HUGE, "?x * ?x > 0"),
        (_HUGE, "?x / 0.5e-300 > 0"),
        (_LONG, "?x * ?x > 0"),
    ],
)
def test_a_filter_that_overflows_drops_the_row(value, condition):
    g = Graph([tr("a", "b", value), tr("c", "b", integer(2))])
    q = parse_query(f"SELECT ?s WHERE {{ ?s :b ?x . FILTER ({condition}) }}")
    assert evaluate(q, g).rows == ((Iri("c"),),)
    # as division by zero does
    q = parse_query("SELECT ?s WHERE { ?s :b ?x . FILTER (?x / 0 > 0) }")
    assert evaluate(q, g).rows == ()


@pytest.mark.parametrize(
    "value, text, message",
    [
        (_BIG, "SELECT (?x * 1.5 AS ?y) WHERE { ?s :b ?x . }", r"\*: the result is out of the range of a decimal"),
        (_BIG, "SELECT (AVG(?x) AS ?m) WHERE { ?s :b ?x . }", "AVG: the result is out of the range of a decimal"),
        (_BIG, "SELECT (SUM(?x) + 0.5 AS ?m) WHERE { ?s :b ?x . }", r"\+: the result is out of the range"),
        (_HUGE, "SELECT (?x * ?x AS ?y) WHERE { ?s :b ?x . }", r"\*: the result is out of the range of a decimal"),
        (decimal(1e308), "SELECT (SUM(?x) AS ?m) WHERE { ?s :b ?x . }", "SUM: the result is out of the range"),
        (_LONG, "SELECT (?x * ?x AS ?y) WHERE { ?s :b ?x . }", r"\*: the result has more than 4300 digits"),
        (integer(int("9" * 4300)), "SELECT (SUM(?x) AS ?m) WHERE { ?s :b ?x . }", "SUM: the result has more than 4300 digits"),
        (timestep(int("9" * 4300)), "SELECT (?x + 1 AS ?y) WHERE { ?s :b ?x . }", r"\+: the result has more than 4300 digits"),
    ],
)
def test_an_overflow_in_a_projection_or_aggregate_is_a_type_error(value, text, message):
    g = Graph([tr("a", "b", value), tr("c", "b", value)])
    with pytest.raises(QueryTypeError, match=message):
        evaluate(parse_query(text), g)


def test_integer_arithmetic_beyond_float_range_stays_exact():
    g = Graph([tr("a", "b", _BIG), tr("c", "b", integer(1))])
    q = parse_query("SELECT ?s (?x * ?x - 1 AS ?y) WHERE { ?s :b ?x . }")
    assert evaluate(q, g).rows == ((Iri("a"), integer(_BIG.value**2 - 1)), (Iri("c"), integer(0)))
    q = parse_query("SELECT (SUM(?x) AS ?total) WHERE { ?s :b ?x . }")
    assert evaluate(q, g).rows == ((integer(_BIG.value + 1),),)


def test_an_integer_result_is_exact_up_to_the_digit_limit():
    """The longest integer Python writes as text (4,300 digits, sign aside)
    is a result; one digit more is a type error, in a filter as in a
    projection. ``?x * -10`` has 4,300 digits at ``:a`` and 4,301 at ``:c``."""
    g = Graph([tr("a", "b", integer(10**4299 - 1)), tr("c", "b", integer(10**4299))])
    q = parse_query("SELECT ?s WHERE { ?s :b ?x . FILTER (?x * -10 < 0) }")
    assert evaluate(q, g).rows == ((Iri("a"),),)
    q = parse_query("SELECT (?x * -10 AS ?y) WHERE { ?s :b ?x . FILTER (?s = :a) }")
    assert evaluate(q, g).rows == ((integer(10 - 10**4300),),)
    with pytest.raises(QueryTypeError, match="more than 4300 digits"):
        evaluate(parse_query("SELECT (?x * -10 AS ?y) WHERE { ?s :b ?x . }"), g)


def test_timestep_arithmetic_rules():
    g = Graph([tr("o", "hasDeliveryTime", timestep(12)), tr("o", "hasLead", integer(3))])
    # timestep - integer compares equal to a timestep instant
    q = parse_query(
        "SELECT ?o WHERE { ?o :hasDeliveryTime ?dt . ?o :hasLead ?lt . FILTER (?dt - ?lt = t) . }"
        , params=["t"],
    )
    assert len(evaluate(q, g, {"t": timestep(9)}).rows) == 1
    # ...and to a plain integer, by numeric value
    assert len(evaluate(q, g, {"t": integer(9)}).rows) == 1
    # multiplying timesteps is meaningless and errors (raises via projection)
    q2 = parse_query("SELECT ?dt * 2 WHERE { ?o :hasDeliveryTime ?dt . }")
    with pytest.raises(QueryTypeError):
        evaluate(q2, g)
    # timestep - timestep is a plain integer duration
    q3 = parse_query("SELECT ?dt - ?dt WHERE { ?o :hasDeliveryTime ?dt . }")
    assert evaluate(q3, g).rows == ((integer(0),),)


def test_equality_is_structural_for_non_numbers():
    g = Graph([tr("a", "p", string("5")), tr("b", "p", integer(5)), tr("c", "p", timestep(5))])
    q = parse_query("SELECT ?s WHERE { ?s :p ?v . FILTER (?v = 5) . }")
    # the integer and the timestep match numerically, the string does not
    assert [r[0] for r in evaluate(q, g).rows] == [Iri("b"), Iri("c")]


def test_regex_anchor_semantics():
    g = Graph(
        [
            tr("a", "hasKpi", string("Responsiveness: 85")),
            tr("b", "hasKpi", string("Reliability: 85")),
            tr("c", "hasKpi", string("Cost: Responsiveness")),
        ]
    )
    contains = parse_query('SELECT ?s WHERE { ?s :hasKpi ?k . FILTER (REGEX(?k, "Responsiveness")) . }')
    assert [r[0] for r in evaluate(contains, g).rows] == [Iri("a"), Iri("c")]
    prefix = parse_query('SELECT ?s WHERE { ?s :hasKpi ?k . FILTER (REGEX(?k, "^Responsiveness")) . }')
    assert [r[0] for r in evaluate(prefix, g).rows] == [Iri("a")]
    suffix = parse_query('SELECT ?s WHERE { ?s :hasKpi ?k . FILTER (REGEX(?k, "85$")) . }')
    assert [r[0] for r in evaluate(suffix, g).rows] == [Iri("a"), Iri("b")]
    exact = parse_query('SELECT ?s WHERE { ?s :hasKpi ?k . FILTER (REGEX(?k, "^Reliability: 85$")) . }')
    assert [r[0] for r in evaluate(exact, g).rows] == [Iri("b")]


def test_str_of_boolean_matches_serialized_lexical():
    g = Graph([tr("o", "isFulfilled", boolean(True))])
    q = parse_query('SELECT str(?x) WHERE { ?o :isFulfilled ?x . }')
    assert evaluate(q, g).rows == ((string("True"),),)


def test_quoted_pattern_query():
    inner = Triple(Iri("Product"), Iri("needsProduct"), Iri("Product1.1"))
    g = Graph(
        [
            Triple(Quoted(inner), Iri("needsQuantity"), integer(4)),
            tr("Product", "rdf:type", "Product"),
        ]
    )
    q = parse_query("SELECT * WHERE { << :Product :needsProduct ?p >> :needsQuantity ?q . }")
    table = evaluate(q, g)
    assert table.columns == ("p", "q")
    assert table.rows == ((Iri("Product1.1"), integer(4)),)


def test_insert_where_quoted_template():
    g = Graph([tr("Order1", "hasSupplyPlan", "SP1")])
    q = parse_query(
        "INSERT { << ?sp :needsNode nd >> :getsProduct pr . << ?sp :needsNode nd >> :hasQuantity qy . } "
        "WHERE { ord :hasSupplyPlan ?sp . }",
        params=["nd", "pr", "qy", "ord"],
    )
    added = evaluate_update(
        q,
        g,
        {"nd": Iri("S1"), "pr": Iri("P1"), "qy": integer(12), "ord": Iri("Order1")},
    )
    assert added == 2
    quoted = Quoted(Triple(Iri("SP1"), Iri("needsNode"), Iri("S1")))
    assert Triple(quoted, Iri("getsProduct"), Iri("P1")) in g
    assert Triple(quoted, Iri("hasQuantity"), integer(12)) in g
    # replay inserts nothing new
    assert (
        evaluate_update(
            q, g, {"nd": Iri("S1"), "pr": Iri("P1"), "qy": integer(12), "ord": Iri("Order1")}
        )
        == 0
    )


def test_insert_unbound_template_variable_leaves_graph_unchanged():
    g = Graph([tr("a", "p", "b")])
    before = g.triples()
    q = parse_query("INSERT { ?a :q ?nowhere . } WHERE { ?a :p ?b . }")
    with pytest.raises(UnboundVariableError):
        evaluate_update(q, g)
    assert g.triples() == before


def test_insert_malformed_triple_aborts_whole_update():
    # ?b binds a literal; using it as subject in the second template row
    # must abort before the first row's valid triple lands
    g = Graph([tr("a", "p", integer(1))])
    q = parse_query("INSERT { :ok :fine ?b . ?b :bad :subject . } WHERE { ?a :p ?b . }")
    before = g.triples()
    with pytest.raises(QueryTypeError):
        evaluate_update(q, g)
    assert g.triples() == before


def test_csv_output_shape():
    g = Graph([tr("n", "hasKpi", string('tricky, "cell"'))])
    q = parse_query("SELECT ?k WHERE { ?n :hasKpi ?k . }")
    csv_text = evaluate(q, g).to_csv()
    assert csv_text == 'k\n"tricky, ""cell"""\n'


def test_sum_and_avg_add_decimals_in_row_order():
    """Left to right, ``1e16 + 1.0`` rounds back to ``1e16``, so the total
    is 0.0; compensated summation (``math.fsum``, and ``sum`` since Python
    3.12) gives 1.0. The rows come in canonical order: :a, :b, :c."""
    g = Graph([tr("a", "v", decimal(1e16)), tr("b", "v", decimal(1.0)), tr("c", "v", decimal(-1e16))])
    q = parse_query("SELECT (SUM(?x) AS ?total) (AVG(?x) AS ?mean) WHERE { ?n :v ?x . }")
    assert evaluate(q, g).rows == ((decimal(0.0), decimal(0.0)),)


def test_rows_come_in_line_order_with_rdf_type_spelled_a():
    """A predicate variable's value sorts as its line spells it: ``a`` for
    ``rdf:type``, after ``:b`` and ``:zeta``. Spelled ``:rdf:type`` it would
    come between them, and the total would be 1.0."""
    g = Graph([tr("s", "b", decimal(1e16)), tr("s", "zeta", decimal(1.0)), tr("s", "rdf:type", decimal(-1e16))])
    q = parse_query("SELECT (SUM(?o) AS ?t) WHERE { :s ?p ?o . }")
    assert evaluate(q, g).rows == ((decimal(0.0),),)


@pytest.mark.parametrize(
    "text",
    [
        "SELECT ?o WHERE { ?o :hasDeliveryTime ?dt . FILTER (?dt - lt = t) . }",
        "SELECT ?o WHERE { ?o :hasDeliveryTime ?dt . FILTER (t = ?dt - lt) . }",
        "SELECT (SUM(?dt - lt) AS ?total) (AVG(100 * (?dt - t) / 7) AS ?mean) WHERE { ?o :hasDeliveryTime ?dt . }",
    ],
)
def test_arithmetic_builds_no_literal_per_row(monkeypatch, text):
    """Numbers stay unboxed from a row's value to the comparison or the
    aggregate: the literals built do not grow with the rows."""
    from supplykg.terms import Literal

    q = parse_query(text, params=["lt", "t"])
    params = {"lt": integer(2), "t": timestep(3)}
    built = []
    post_init = Literal.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    counts = []
    for rows in (40, 400):
        g = Graph([tr(f"Order{i}", "hasDeliveryTime", timestep(2 + i % 7)) for i in range(rows)])
        built.clear()
        monkeypatch.setattr(Literal, "__post_init__", counting)
        table = evaluate(q, g, params)
        monkeypatch.setattr(Literal, "__post_init__", post_init)
        assert table.rows
        counts.append(len(built))
    assert counts[0] == counts[1]


def test_projected_variables_build_no_literal(monkeypatch):
    """A projected plain variable's cell is the row's own term, not a new
    literal boxed from its pair. Joining the automotive graph's orders to
    their quantities builds none for its 136 rows. Grouped by due step, the
    key builds none, and each group's ``SUM(1)`` cell builds one."""
    from supplykg.generator import automotive, generate
    from supplykg.terms import Literal

    graph = generate(automotive())
    built = []
    post_init = Literal.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    def run(text):
        q = parse_query(text)
        built.clear()
        monkeypatch.setattr(Literal, "__post_init__", counting)
        table = evaluate(q, graph)
        monkeypatch.setattr(Literal, "__post_init__", post_init)
        return table

    table = run("SELECT ?o ?q WHERE { ?o :hasQuantity ?q . ?c :makes ?o . }")
    assert len(table.rows) == 136 and built == []
    table = run("SELECT ?dt (SUM(1) AS ?n) WHERE { ?o :hasDeliveryTime ?dt . ?c :makes ?o . } GROUP BY ?dt")
    assert len(table.rows) > 1 and len(built) == len(table.rows)
    assert sum(n.value for _, n in table.rows) == 136


# error kind -> (the expression E over ?x and ?y, :a's values that make it
# fail, :b's values that do not, the message)
_ARITHMETIC_ERRORS = {
    "non-number on the left": ("?x + ?y", (string("text"), integer(1)), (integer(1), integer(1)), '+: expected a number, got "text"'),
    "non-number on the right": ("?x - ?y", (integer(1), Iri("n")), (integer(3), integer(2)), "-: expected a number, got :n"),
    "division by zero": ("?x / ?y", (integer(1), integer(0)), (integer(1), integer(2)), "division by zero"),
    "negative timestep": ("?x - ?y", (timestep(2), integer(5)), (timestep(9), integer(5)), "timestep arithmetic went negative (-3)"),
    "timestep times integer": ("?x * ?y", (timestep(2), integer(2)), (integer(2), integer(2)), "cannot apply * to timestep and integer"),
    "decimal out of range": ("?x * ?y", (decimal(1e300), decimal(1e300)), (decimal(2.0), decimal(3.0)), "*: the result is out of the range of a decimal"),
    "digit limit": ("?x * ?y", (integer(10**2200), integer(10**2200)), (integer(2), integer(3)), "*: the result has more than 4300 digits"),
}

# where E is evaluated: a projection, a comparison, an aggregate, an
# aggregate in a comparison
_CONTEXTS = ["(E AS ?v)", "((E) != -1 AS ?v)", "(SUM(E) AS ?v)", "(AVG(E) AS ?v)", "(SUM(E) > -1 AS ?v)"]


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("kind", sorted(_ARITHMETIC_ERRORS))
def test_arithmetic_errors_keep_their_messages(kind, depth):
    """Each arithmetic error, directly below (depth 1) or one operator below
    (depth 2) a comparison, an aggregate or a projection, raises its own
    message; a FILTER drops the row it fails on and keeps the others."""
    expr, failing, passing, message = _ARITHMETIC_ERRORS[kind]
    if depth == 2:
        expr = f"0 + ({expr})"
    g = Graph()
    for subject, (x, y) in (("a", failing), ("b", passing)):
        g.insert(tr(subject, "x", x))
        g.insert(tr(subject, "y", y))
    where = "WHERE { ?s :x ?x . ?s :y ?y . }"
    for context in _CONTEXTS:
        with pytest.raises(QueryTypeError) as raised:
            evaluate(parse_query(f"SELECT {context.replace('E', expr)} {where}"), g)
        assert str(raised.value) == message
    q = parse_query(f"SELECT ?s WHERE {{ ?s :x ?x . ?s :y ?y . FILTER (({expr}) != -1) }}")
    assert evaluate(q, g).rows == ((Iri("b"),),)


@pytest.mark.parametrize(
    "condition, kept",
    [("?x + 1 = ?t", ()), ("?x + 1 != ?t", ((Iri("a"),),)), ("?t = ?x + 1", ()), ("?t != ?x + 1", ((Iri("a"),),))],
)
def test_a_number_against_a_non_number(condition, kept):
    """``=`` is false and ``!=`` true between a number and a non-number;
    an ordering is a type error that names both terms."""
    g = Graph([tr("a", "x", integer(1)), tr("a", "t", string("2"))])
    where = "WHERE { ?s :x ?x . ?s :t ?t . }"
    assert evaluate(parse_query(f"SELECT ?s {where[:-1]} FILTER ({condition}) }}"), g).rows == kept
    with pytest.raises(QueryTypeError, match='^cannot order 2 against "2"$'):
        evaluate(parse_query(f"SELECT (?x + 1 < ?t AS ?v) {where}"), g)
    with pytest.raises(QueryTypeError, match='^cannot order "2" against 2$'):
        evaluate(parse_query(f"SELECT (?t >= ?x + 1 AS ?v) {where}"), g)


_NOPE, _ONE = ast.VarRef("nope"), ast.Const(integer(1))


@pytest.mark.parametrize(
    "expr",
    [
        _NOPE,
        ast.Binary("+", _NOPE, _ONE),
        ast.Binary("+", _ONE, _NOPE),
        ast.Binary("=", _NOPE, _ONE),
        ast.Binary("<", _ONE, _NOPE),
        ast.Binary("*", _NOPE, ast.VarRef("x")),
    ],
)
def test_an_unbound_variable_in_an_expression(expr):
    """A projection that reads a variable no pattern binds raises; a FILTER
    drops the row. The parser rejects such a query, so it is built here."""
    g = Graph([tr("a", "b", integer(1))])
    patterns = (TriplePattern(Variable("s"), Iri("b"), Variable("x")),)
    projected = ast.SelectQuery((ast.ProjItem(expr, "v"),), patterns, ())
    with pytest.raises(UnboundVariableError, match=r"^unbound variable \?nope$"):
        evaluate(projected, g)
    filtered = ast.SelectQuery(None, patterns, (ast.Binary("!=", expr, ast.Const(integer(0))),))
    assert evaluate(filtered, g).rows == ()


@pytest.mark.parametrize(
    "expr, value",
    [("(Q < 0) && X", boolean(False)), ("(Q > 0) || X", boolean(True)), ("IF(Q > 0, 1, X)", integer(1))],
)
def test_and_or_if_skip_an_operand_in_a_row_but_not_in_a_group(expr, value):
    """In a row, ``&&``, ``||`` and IF evaluate only the operands that decide
    them, so ``?c + 1 > 0`` in the operand that does not decide is never
    reached. In an item with aggregates every operand is evaluated, so it
    raises; an operand that is evaluated but does not decide is not
    type-checked."""
    g = Graph([tr("c", "makes", "o"), tr("o", "hasQuantity", integer(5))])
    where = "WHERE { ?c :makes ?o . ?o :hasQuantity ?q . }"

    def query(q, x, grouped):
        item = expr.replace("Q", q).replace("X", x)
        return parse_query(f"SELECT ?c ({item} AS ?b) {where}" + (" GROUP BY ?c" if grouped else ""))

    assert evaluate(query("?q", "(?c + 1 > 0)", False), g).rows == ((Iri("c"), value),)
    with pytest.raises(QueryTypeError, match=r"^\+: expected a number, got :c$"):
        evaluate(query("SUM(?q)", "(?c + 1 > 0)", True), g)
    assert evaluate(query("SUM(?q)", "?c", True), g).rows == ((Iri("c"), value),)


_DELIVERY_TIMES = [
    decimal(1e-18), decimal(-1e-18), decimal(5e-324), decimal(-0.0), decimal(0.0), integer(0), timestep(0),
    integer(1), decimal(1.0), timestep(1), string("1"), boolean(True),
    decimal(9007199254740992.0), decimal(9007199254740994.0), integer(2**53 + 1), timestep(2**53 + 1),
]


# op, t, lt, and the delivery times that ``?dt op lt = t`` keeps
_DUE_CASES = [
        # a shift against the sign of t: decimals near 0 round onto 1
        ("-", timestep(1), integer(-1), ['"0"^^timestep', "-0.0", "-1e-18", "0", "0.0", "1e-18", "5e-324"]),
        ("+", timestep(1), integer(1), ['"0"^^timestep', "-0.0", "-1e-18", "0", "0.0", "1e-18", "5e-324"]),
        # past 2**53 a decimal rounds onto t + 1
        ("-", timestep(2**53), integer(1), ['"9007199254740993"^^timestep', "9007199254740993", "9007199254740994.0"]),
        # zero is three terms by value, and -0.0 a fourth
        ("-", timestep(0), integer(0), ['"0"^^timestep', "-0.0", "0", "0.0"]),
        ("-", integer(0), integer(0), ['"0"^^timestep', "-0.0", "0", "0.0"]),
        ("+", timestep(1), integer(0), ['"1"^^timestep', "1", "1.0"]),
        ("-", integer(-1), integer(0), []),
]
_SIDES = ["?dt {op} lt = t", "t = ?dt {op} lt"]


def _due_times(where, side, op, t, lt):
    """The delivery times ``SELECT ?dt WHERE { where }`` keeps, with
    ``{due}`` in ``where`` the filter ``side`` on ``?dt`` and ``{due2}`` the
    same filter on ``?dt2``. Each order has one delivery time and one
    quoted statement of it."""
    stated = [tr(f"Order{i}", "hasDeliveryTime", value) for i, value in enumerate(_DELIVERY_TIMES)]
    g = Graph(stated + [Triple(Quoted(x), Iri("source"), Iri("erp")) for x in stated])
    due = side.format(op=op)
    q = parse_query(f"SELECT ?dt WHERE {{ {where.format(due=due, due2=due.replace('?dt', '?dt2'))} }}", ["lt", "t"])
    return [format_term(row[0]) for row in evaluate(q, g, {"t": t, "lt": lt}).rows]


@pytest.mark.parametrize("side", _SIDES)
@pytest.mark.parametrize("op, t, lt, kept", _DUE_CASES)
def test_the_due_filter_keeps_every_term_equal_by_value(side, op, t, lt, kept):
    """``?dt - lt = t`` keeps every delivery time that satisfies it by
    value, whether its filter is solved into probes of the object index or
    run on every row: a probe must not miss a decimal that rounds onto t."""
    assert _due_times("?o :hasDeliveryTime ?dt . FILTER ({due}) .", side, op, t, lt) == kept


@pytest.mark.parametrize(
    "where",
    [
        # ?dt twice, once inside a quoted pattern
        "?o :hasDeliveryTime ?dt . << ?o :hasDeliveryTime ?dt >> :source :erp . FILTER ({due}) .",
        # ?dt only in the second pattern
        "<< ?o :hasDeliveryTime ?x >> :source :erp . ?o :hasDeliveryTime ?dt . FILTER ({due}) .",
        # ?dt only inside a quoted pattern
        "<< ?o :hasDeliveryTime ?dt >> :source :erp . FILTER ({due}) .",
        # two solved variables, bound to the same term in each row
        "?o :hasDeliveryTime ?dt . << ?o :hasDeliveryTime ?dt2 >> :source :erp . FILTER ({due}) . FILTER ({due2}) .",
    ],
)
@pytest.mark.parametrize("side", _SIDES)
@pytest.mark.parametrize("op, t, lt, kept", _DUE_CASES)
def test_the_due_filter_keeps_the_same_terms_wherever_its_variable_stands(where, side, op, t, lt, kept):
    """The solved variable narrows the join wherever a pattern names it,
    and the rows kept are those the one-pattern lookup keeps."""
    assert _due_times(where, side, op, t, lt) == kept


def test_a_due_filter_on_a_variable_no_pattern_binds_drops_every_row():
    """The filter reads an unbound variable, so it drops every row: the
    variable it solves is not bound to its probe terms. The parser rejects
    such a query, so it is built here."""
    g = Graph([tr("Order1", "hasDeliveryTime", timestep(5))])
    due = ast.Binary("=", ast.Binary("-", ast.VarRef("x"), ast.ParamRef("lt")), ast.ParamRef("t"))
    q = ast.SelectQuery(None, (TriplePattern(Variable("o"), Iri("hasDeliveryTime"), Variable("dt")),), (due,))
    assert evaluate(q, g, {"t": timestep(5), "lt": integer(0)}).rows == ()
