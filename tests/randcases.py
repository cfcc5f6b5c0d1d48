"""Seeded random graphs and queries for differential testing.

The generator builds query ASTs that satisfy the parser's structural rules,
then round-trips them through print_query/parse_query so the text pipeline is
exercised too, and finally compares the indexed engine against the
brute-force reference on every case, both given the same parameter values.
Parameters stand in pattern positions, quoted patterns and predicates
included, and are now and then bound to a literal, so subjects and
predicates no triple can hold get tried; but the first pattern of a join
always matches the triple it is drawn from, so the join can return rows.
They stand as operands in filter
and projection expressions too, bound to a timestep or an integer, as in
the due-orders filter ``?dt - lt = t``, whose shape is also drawn
mirrored and with arithmetic on both sides; each graph also gets a few
selects of exactly the shape the engine solves into index probes, some
joined to a second pattern that names the solved variable again or has
one of its own.
Numbers of every kind stand as delivery times, among them the decimals a
probe could miss: both zeros, values that vanish beside an integer, and
one that rounds onto 2**53 + 1. Projection items are drawn
as arithmetic, boolean expressions and calls, and items with aggregates
nested in arithmetic, comparisons, ``&&``/``||``, IF and STR, whose every
operand is evaluated. Decimals come in quarters and in tenths, whose sums
depend on the order of their terms, so a row-order error shows; a few
integers are too large for a float. All randomness flows from SplitMix64,
so a given seed always produces the same cases.
"""

from __future__ import annotations

from reference_eval import ref_evaluate, ref_update
from supplykg.graph import Graph
from supplykg.query import ast, evaluate, evaluate_update, parse_query, print_query
from supplykg.query.eval import QueryEvalError
from supplykg.rng import SplitMix64
from supplykg.serialization import serialize
from supplykg.terms import Iri, Literal, ParamRef, Quoted, Term, Triple, TriplePattern, Variable, to_ground

_IRIS = [Iri(f"n{i}") for i in range(8)] + [Iri("OEM1"), Iri("Product")]
_PREDICATES = [Iri(f"p{i}") for i in range(5)] + [
    Iri("rdf:type"),
    Iri("hasQuantity"),
    Iri("hasDeliveryTime"),
    Iri("hasCost"),
]
_STRINGS = ["True", "False", "alpha", "beta", "Responsiveness: 85", ""]

# Decimals where a solved equality filter could miss a row: the two zeros,
# values that vanish beside an integer, and one that rounds onto 2**53 + 1.
_EDGE_DECIMALS = [0.0, -0.0, 1e-18, -1e-18, 5e-324, 9007199254740994.0]


def _random_literal(rng: SplitMix64) -> Literal:
    kind = rng.randint(0, 5)
    if kind == 5:
        return Literal(rng.choice(_EDGE_DECIMALS), "decimal")
    if kind == 0:
        return Literal(rng.randint(-5, 20) * 10 ** (400 * (rng.randint(0, 3) == 0)), "integer")
    if kind == 1:
        return Literal(rng.randint(-40, 40) / rng.choice([4.0, 10.0]), "decimal")
    if kind == 2:
        return Literal(rng.choice(_STRINGS), "string")
    if kind == 3:
        return Literal(rng.randint(0, 1) == 1, "boolean")
    return Literal(rng.randint(0, 15), "timestep")


def random_graph(rng: SplitMix64, size: int) -> Graph:
    g = Graph()
    made: list[Triple] = []
    for _ in range(size):
        if made and rng.randint(0, 9) == 0:
            subject = Quoted(rng.choice(made))
        else:
            subject = rng.choice(_IRIS)
        predicate = rng.choice(_PREDICATES)
        roll = rng.randint(0, 9)
        if predicate.name == "hasDeliveryTime":  # a due step, as orders have, or any literal
            obj = Literal(rng.randint(0, 15), "timestep") if roll < 6 else _random_literal(rng)
        elif predicate.name == "hasCost":  # tenths, whose sums are not exact
            obj = Literal(rng.randint(1, 99) / 10.0, "decimal")
        elif roll < 4:
            obj = rng.choice(_IRIS)
        elif roll < 8:
            obj = _random_literal(rng)
        elif made:
            obj = Quoted(rng.choice(made))
        else:
            obj = rng.choice(_IRIS)
        t = Triple(subject, predicate, obj)
        g.insert(t)
        made.append(t)
    return g


# -- pattern construction ------------------------------------------------------


def _quoted(pattern: TriplePattern):
    """A quoted pattern as the parser reads it: the quoted triple it spells
    when it is ground, else the pattern."""
    ground = to_ground(pattern)
    return pattern if ground is None else Quoted(ground)


class _CaseBuilder:
    def __init__(self, rng: SplitMix64, graph: Graph, param_rng: SplitMix64):
        self.rng = rng
        self.param_rng = param_rng
        self.graph = graph
        self.vars: list[str] = []
        self.seeds: dict[str, Term] = {}  # each variable's term in the triple it was drawn from
        self.counter = 0
        self.params: dict[str, Term] = {}
        self.values: list[str] = []  # variables in object position, where numbers are

    def fresh_var(self, seed: Term | None = None) -> Variable:
        name = f"v{self.counter}"
        self.counter += 1
        self.vars.append(name)
        if seed is not None:
            self.seeds[name] = seed
        return Variable(name)

    def _maybe_param(self, term, exact: bool = False):
        """The term, or now and then a parameter bound to it or, unless
        ``exact``, so that literal subjects and predicates get tried, to a
        random literal."""
        if self.param_rng.randint(0, 3) > 0:
            return term
        name = f"k{len(self.params)}"
        wild = not exact and self.param_rng.randint(0, 2) == 0
        self.params[name] = _random_literal(self.param_rng) if wild else term
        return ParamRef(name)

    def param(self, kind: str, value: int | None = None) -> ParamRef:
        """A new parameter, bound to a timestep or integer: ``value``, or
        one drawn."""
        name = f"k{len(self.params)}"
        if value is None:
            low, high = (0, 15) if kind == "timestep" else (-3, 12)
            value = self.param_rng.randint(low, high)
        self.params[name] = Literal(value, kind)
        return ParamRef(name)

    def step_param(self, high: int = 15) -> ParamRef:
        """A new parameter bound to a timestep from 0 to ``high`` or, one
        time in eight, 2**53, past which decimals round."""
        value = 2**53 if self.param_rng.randint(0, 7) == 0 else self.param_rng.randint(0, high)
        return self.param("timestep", value)

    def operand_param(self, operand: ast.Expr) -> ast.Expr:
        """The operand, or now and then a parameter bound to a timestep or
        an integer. The operand is drawn either way, so that parameters
        leave the rest of the case as it would be without them."""
        if self.param_rng.randint(0, 3) > 0:
            return operand
        return self.param("timestep" if self.param_rng.randint(0, 1) == 0 else "integer")

    def _abstract(self, term, may_nest: bool = True, exact: bool = False):
        """Turn a ground term into a pattern position: variable, constant,
        parameter, or (for quoted terms) a nested pattern. With ``exact``
        the position still matches ``term``: a variable stands again only
        where its seed stands, and a parameter is bound to ``term``."""
        roll = self.rng.randint(0, 9)
        if isinstance(term, Quoted) and may_nest and roll < 5:
            inner = term.triple
            return _quoted(
                TriplePattern(
                    self._abstract(inner.subject, False, exact),
                    self._abstract_predicate(inner.predicate, exact),
                    self._abstract(inner.object, False, exact),
                )
            )
        if roll < 5:
            return self.fresh_var(term)
        again = [v for v in self.vars if not exact or self.seeds.get(v) == term]
        if roll < 7 and again and self.rng.randint(0, 1) == 0:
            return Variable(self.rng.choice(again))
        return self._maybe_param(term, exact)

    def _abstract_predicate(self, predicate: Iri, exact: bool = False):
        if self.rng.randint(0, 9) < 3:
            return self.fresh_var(predicate)
        return self._maybe_param(predicate, exact)

    def seed_pattern(self, anchored: bool, exact: bool = False) -> TriplePattern:
        """Pattern derived from a concrete triple so it usually matches, and
        with ``exact`` (the first pattern of a join) always matches.
        anchored=True keeps at least one constant position."""
        triples = self.graph.triples()
        if not triples:
            return TriplePattern(self.fresh_var(), rng_choice_pred(self.rng), self.fresh_var())
        base = self.rng.choice(triples)
        p = TriplePattern(
            self._abstract(base.subject, exact=exact),
            self._abstract_predicate(base.predicate, exact),
            self._abstract(base.object, exact=exact),
        )
        if anchored and not _has_constant(p):
            return TriplePattern(base.subject, p.predicate, p.object)
        return p

    def join_pattern(self) -> TriplePattern:
        """Pattern that shares an existing variable, so joins stay bounded.
        Its triple is drawn from those that hold the variable's seed value,
        the term it was drawn from, at the shared slot: the subject or
        object slot drawn, else the other one, else (a predicate's) the
        predicate. So most joins return rows, and the bound rows that narrow
        the second step get compared. If no triple holds it, any is drawn."""
        triples = self.graph.triples()
        if not triples or not self.vars:
            return self.seed_pattern(anchored=True)
        shared = Variable(self.rng.choice(self.vars))
        seed = self.seeds.get(shared.name)
        drawn = 2 * self.rng.randint(0, 1)
        for slot in (drawn, 2 - drawn, 1):
            held = [x for x in triples if (x.subject, x.predicate, x.object)[slot] == seed]
            if held:
                break
        else:
            slot, held = drawn, triples
        base = self.rng.choice(held)
        subject = shared if slot == 0 else self._abstract(base.subject)
        predicate = shared if slot == 1 else self._abstract_predicate(base.predicate)
        obj = shared if slot == 2 else self._abstract(base.object)
        return TriplePattern(subject, predicate, obj)


def rng_choice_pred(rng: SplitMix64) -> Iri:
    return rng.choice(_PREDICATES)


def _has_constant(p: TriplePattern) -> bool:
    return any(not isinstance(x, Variable) for x in (p.subject, p.predicate, p.object))


# -- expression construction -----------------------------------------------------


def _random_operand(rng: SplitMix64, b: _CaseBuilder) -> ast.Expr:
    roll = rng.randint(0, 9)
    if roll < 5 and b.vars:
        operand = ast.VarRef(rng.choice(b.vars))
    elif roll < 7:
        operand = ast.Const(Literal(rng.randint(-3, 12), "integer"))
    elif roll < 8:
        operand = ast.Const(Literal(rng.randint(-12, 12) / 2.0, "decimal"))
    elif roll < 9:
        operand = ast.Const(Literal(rng.choice(_STRINGS), "string"))
    else:
        operand = ast.Const(rng.choice(_IRIS))
    return b.operand_param(operand)


def _random_arith(rng: SplitMix64, b: _CaseBuilder, depth: int = 0) -> ast.Expr:
    if depth >= 2 or rng.randint(0, 2) > 0:
        return _random_operand(rng, b)
    op = rng.choice(["+", "-", "*", "/"])
    return ast.Binary(op, _random_arith(rng, b, depth + 1), _random_arith(rng, b, depth + 1))


def _due_shape(rng: SplitMix64, b: _CaseBuilder) -> ast.Expr:
    """The due-orders filter's shape, ``?dt - lt = t``, with its operators
    drawn (``=`` half the time) and its variable one in object position if
    there is one. The other side is now and then arithmetic too, or a
    constant of any kind, and half the time the sides are swapped:
    ``t = ?dt - lt``."""
    shifted = ast.Binary(rng.choice(["-", "-", "+", "/"]), ast.VarRef(rng.choice(b.values or b.vars)), b.param("integer"))
    roll = rng.randint(0, 3)
    if roll < 2:
        other = b.step_param()
    elif roll == 2:
        other = ast.Binary(rng.choice(["+", "-", "*"]), ast.VarRef(rng.choice(b.values or b.vars)), b.param("integer"))
    else:
        other = ast.Const(_random_literal(rng))
    op = "=" if rng.randint(0, 1) == 0 else rng.choice(list(ast.COMPARISONS))
    return ast.Binary(op, shifted, other) if rng.randint(0, 1) == 0 else ast.Binary(op, other, shifted)


def _random_bool_expr(rng: SplitMix64, b: _CaseBuilder, depth: int = 0) -> ast.Expr:
    roll = rng.randint(0, 9)
    if roll < 2 and b.vars:
        return _due_shape(rng, b)
    if roll < 5 or depth >= 2:
        op = rng.choice(list(ast.COMPARISONS))
        return ast.Binary(op, _random_arith(rng, b), _random_arith(rng, b))
    if roll < 7:
        op = rng.choice(["&&", "||"])
        return ast.Binary(op, _random_bool_expr(rng, b, depth + 1), _random_bool_expr(rng, b, depth + 1))
    if roll < 9 and b.vars:
        needle = rng.choice(["True", "False", "^n", "5$", "alpha", ":"])
        return ast.Call(
            "REGEX",
            (ast.Call("STR", (ast.VarRef(rng.choice(b.vars)),)), ast.Const(Literal(needle, "string"))),
        )
    return ast.Binary(
        "=",
        ast.Call("IF", (_random_bool_expr(rng, b, depth + 1), _random_operand(rng, b), _random_operand(rng, b))),
        _random_operand(rng, b),
    )


def _random_call(rng: SplitMix64, b: _CaseBuilder) -> ast.Expr:
    """STR of an operand, or IF between two drawn arithmetic expressions."""
    if rng.randint(0, 1) == 0:
        return ast.Call("STR", (_random_operand(rng, b),))
    return ast.Call("IF", (_random_bool_expr(rng, b, 1), _random_arith(rng, b), _random_arith(rng, b)))


def _random_grouped_expr(rng: SplitMix64, b: _CaseBuilder, depth: int = 0) -> ast.Expr:
    """A projection item with aggregates: SUM or AVG of drawn arithmetic,
    or one nested in arithmetic, a comparison, ``&&``/``||``, IF or STR
    beside an operand without aggregates, on either side. Such an item
    evaluates every operand, so an error in the operand of ``&&``, ``||``
    or IF that does not decide it still raises."""
    roll = rng.randint(0, 9)
    if roll < 2 + 5 * depth:  # a nested item is mostly a plain aggregate
        # half of them SUM(1) or AVG(1), which never fail
        summed = _random_arith(rng, b) if rng.randint(0, 1) > 0 else ast.Const(Literal(1, "integer"))
        return ast.Aggregate(rng.choice(["SUM", "AVG"]), summed)
    inner = _random_grouped_expr(rng, b, depth + 1)
    if roll < 4:
        op = rng.choice(["+", "-", "*", "/"] if roll == 2 else list(ast.COMPARISONS))
        other = _random_arith(rng, b)
        return ast.Binary(op, inner, other) if rng.randint(0, 1) == 0 else ast.Binary(op, other, inner)
    if roll < 7:
        compared = ast.Binary(rng.choice(list(ast.COMPARISONS)), inner, _random_arith(rng, b))
        other = _random_bool_expr(rng, b, 1)
        op = rng.choice(["&&", "||"])
        return ast.Binary(op, compared, other) if rng.randint(0, 1) == 0 else ast.Binary(op, other, compared)
    if roll < 9:
        if rng.randint(0, 1) == 0:
            compared = ast.Binary(rng.choice(list(ast.COMPARISONS)), inner, _random_arith(rng, b))
            return ast.Call("IF", (compared, _random_arith(rng, b), _random_arith(rng, b)))
        branches = (inner, _random_arith(rng, b)) if rng.randint(0, 1) == 0 else (_random_arith(rng, b), inner)
        return ast.Call("IF", (_random_bool_expr(rng, b, 1), *branches))
    if rng.randint(0, 1) == 0:
        return ast.Call("STR", (inner,))
    return ast.Call("REGEX", (ast.Call("STR", (inner,)), ast.Const(Literal(rng.choice(["^-", "5", ".5$"]), "string"))))


# -- whole queries -----------------------------------------------------------------


def _pattern_vars(patterns) -> list[str]:
    seen: list[str] = []
    for p in patterns:
        for v in p.variables():
            if v not in seen:
                seen.append(v)
    return seen


def random_select(
    rng: SplitMix64, graph: Graph, param_rng: SplitMix64
) -> tuple[ast.SelectQuery, dict[str, Term]]:
    """A random SELECT and the parameter values it is to run with. Parameters
    are drawn from ``param_rng``, so they leave the rest of the case as it
    would be without them."""
    b = _CaseBuilder(rng, graph, param_rng)
    big = len(graph) > 100
    n_patterns = rng.randint(1, 2 if big else 3)
    patterns = [b.seed_pattern(anchored=big, exact=n_patterns > 1)]
    for _ in range(n_patterns - 1):
        patterns.append(b.join_pattern())
    # anchoring may have dropped a freshly minted variable; trust the patterns
    b.vars = _pattern_vars(patterns)
    b.values = [p.object.name for p in patterns if isinstance(p.object, Variable)]
    filters = []
    if b.vars and rng.randint(0, 9) < 5:
        filters.append(_random_bool_expr(rng, b))

    projection = None
    group_by = None
    if not b.vars:
        projection = None
    elif rng.randint(0, 9) < 3:
        projection = None  # SELECT *
    elif rng.randint(0, 9) < 3:
        # aggregation: plain key vars plus aggregates
        keys = [v for v in b.vars if rng.randint(0, 1) == 0]
        items = [ast.ProjItem(ast.VarRef(v), None) for v in keys]
        for _ in range(rng.randint(1, 2)):
            items.append(ast.ProjItem(_random_grouped_expr(rng, b), f"agg{len(items)}"))
        if len(keys) == 1 and rng.randint(0, 1) == 0:
            group_by = keys[0]
        projection = tuple(items)
    else:
        picked = [v for v in b.vars if rng.randint(0, 2) > 0] or b.vars[:1]
        items = [ast.ProjItem(ast.VarRef(v), None) for v in picked]
        roll = rng.randint(0, 9)
        if roll < 3:
            items.append(ast.ProjItem(_random_arith(rng, b), f"x{len(items)}"))
        elif roll < 5:
            items.append(ast.ProjItem(_random_bool_expr(rng, b), f"x{len(items)}"))
        elif roll < 6:
            items.append(ast.ProjItem(_random_call(rng, b), f"x{len(items)}"))
        projection = tuple(items)

    order_by = None
    if b.vars and rng.randint(0, 9) < 3:
        order_by = (rng.choice(b.vars), rng.randint(0, 1) == 1)
    return ast.SelectQuery(projection, tuple(patterns), tuple(filters), group_by, order_by), b.params


def random_filter_select(rng: SplitMix64, graph: Graph) -> tuple[ast.SelectQuery, dict[str, Term]]:
    """``SELECT * WHERE { ?s ?p ?o . FILTER (...) }`` with a drawn filter on
    ``?o``, half the time of the due-orders shape: every object of the
    graph, numbers of every kind among them, goes through the filter's
    arithmetic and comparisons. One time in three the query sums and
    averages the costs, in tenths, that pass the filter instead: their
    sums depend on the order of the rows. Half of those totals add
    ``?o - lt`` or ``?o * 2`` rather than ``?o``."""
    b = _CaseBuilder(rng, graph, rng)
    b.vars, b.values = ["s", "o"], ["o"]
    filters = (_due_shape(rng, b) if rng.randint(0, 1) == 0 else _random_bool_expr(rng, b),)
    if rng.randint(0, 2) > 0:
        return ast.SelectQuery(None, (TriplePattern(Variable("s"), Variable("p"), Variable("o")),), filters), b.params
    roll = rng.randint(0, 3)
    if roll == 0:
        summed = ast.Binary("-", ast.VarRef("o"), b.param("integer"))
    elif roll == 1:
        summed = ast.Binary("*", ast.VarRef("o"), ast.Const(Literal(2, "integer")))
    else:
        summed = ast.VarRef("o")
    totals = tuple(ast.ProjItem(ast.Aggregate(func, summed), func.lower()) for func in ("SUM", "AVG"))
    return ast.SelectQuery(totals, (TriplePattern(Variable("s"), Iri("hasCost"), Variable("o")),), filters), b.params


# due selects drawn per graph: few of the other draws are a filter the engine
# solves into probes, and fewer still meet the edge decimals or a second
# solved variable
DUE_SELECTS = 5


def random_due_select(rng: SplitMix64, graph: Graph) -> tuple[ast.SelectQuery, dict[str, Term]]:
    """``SELECT * WHERE { ?s ?p ?o . FILTER (?o - lt = t) . }``, or with
    ``+``, either side of the ``=`` first: the filter the engine solves
    into probe terms that ``?o`` is bound to before the first pattern.
    Every object of the graph, of every kind, meets the filter, so a probe
    that misses a term the filter keeps shows. ``lt`` is from -1 to 1 and
    ``t`` mostly from 0 to 2: they often meet, so the filter is solved to
    0, or to ``t`` against a shift of either sign, where the edge decimals
    round onto ``t``. On a graph of at most 300 triples (the reference
    joins by scanning every triple per row), half of the selects join a
    second pattern ``?y ?q ?o``, where ``?o`` stands again at an object, so
    the triple it came from matches again, ``<< ?r ?q ?o >> ?w ?x``, where
    it stands again inside a quoted pattern, or ``?s ?q ?x``. The last
    always, and the quoted one half the time, filter ``?x`` the same way
    with the same ``lt`` and ``t``: two solved variables, whose probe terms
    the join starts from in every combination."""
    b = _CaseBuilder(rng, graph, rng)
    lt, t = b.param("integer", rng.randint(-1, 1)), b.step_param(2)
    patterns = [TriplePattern(Variable("s"), Variable("p"), Variable("o"))]
    filters = [_due_filter(rng, "o", lt, t)]
    if len(graph) <= 300 and rng.randint(0, 1) == 0:
        roll = rng.randint(0, 2)
        if roll == 0:
            patterns.append(TriplePattern(Variable("y"), Variable("q"), Variable("o")))
        elif roll == 1:
            quoted = TriplePattern(Variable("r"), Variable("q"), Variable("o"))
            patterns.append(TriplePattern(quoted, Variable("w"), Variable("x")))
        else:
            patterns.append(TriplePattern(Variable("s"), Variable("q"), Variable("x")))
        if roll == 2 or (roll == 1 and rng.randint(0, 1) == 0):
            filters.append(_due_filter(rng, "x", lt, t))
    return ast.SelectQuery(None, tuple(patterns), tuple(filters)), b.params


def _due_filter(rng: SplitMix64, name: str, lt: ParamRef, t: ParamRef) -> ast.Expr:
    """``?name - lt = t`` or ``?name + lt = t``, either side of the ``=``
    first."""
    shifted = ast.Binary(rng.choice(["-", "+"]), ast.VarRef(name), lt)
    return ast.Binary("=", shifted, t) if rng.randint(0, 1) == 0 else ast.Binary("=", t, shifted)


def random_grouped_select(rng: SplitMix64, graph: Graph) -> tuple[ast.SelectQuery, dict[str, Term]]:
    """``SELECT ?s (E AS ?e) WHERE { ?s :hasCost ?o . } GROUP BY ?s`` with
    E a drawn item with aggregates. Each subject's costs are a group, so
    every group has rows and an aggregate of the costs succeeds; an operand
    beside the aggregates reads the group's first row, where arithmetic on
    ``?s`` fails. The operand of ``&&``, ``||`` or IF that does not decide
    it then fails often enough to tell evaluating it from skipping it."""
    b = _CaseBuilder(rng, graph, rng)
    b.vars, b.values = ["s", "o"], ["o"]
    items = (ast.ProjItem(ast.VarRef("s"), None), ast.ProjItem(_random_grouped_expr(rng, b), "e"))
    return ast.SelectQuery(items, (TriplePattern(Variable("s"), Iri("hasCost"), Variable("o")),), (), "s"), b.params


def random_insert(
    rng: SplitMix64, graph: Graph, param_rng: SplitMix64
) -> tuple[ast.InsertWhereQuery, dict[str, Term]]:
    """A random INSERT-WHERE and the parameter values it is to run with."""
    b = _CaseBuilder(rng, graph, param_rng)
    patterns = [b.seed_pattern(anchored=len(graph) > 100)]
    if rng.randint(0, 1) == 1:
        patterns.append(b.join_pattern())
    b.vars = _pattern_vars(patterns)
    b.values = [p.object.name for p in patterns if isinstance(p.object, Variable)]
    filters = []
    if b.vars and rng.randint(0, 9) < 4:
        filters.append(_random_bool_expr(rng, b))

    def template_term():
        roll = rng.randint(0, 9)
        if roll < 4 and b.vars:
            return Variable(rng.choice(b.vars))
        if roll < 5:
            return Variable("unbound")  # exercises the unbound-template error
        if roll < 8:
            return rng.choice(_IRIS)
        return _random_literal(rng)

    template = []
    for _ in range(rng.randint(1, 2)):
        if rng.randint(0, 3) == 0:
            inner = _quoted(TriplePattern(template_term(), rng.choice(_PREDICATES), template_term()))
            template.append(TriplePattern(inner, rng.choice(_PREDICATES), template_term()))
        else:
            template.append(TriplePattern(template_term(), rng.choice(_PREDICATES), template_term()))
    return ast.InsertWhereQuery(tuple(template), tuple(patterns), tuple(filters)), b.params


# -- differential execution ----------------------------------------------------------


def _engine_outcome(query, graph, params):
    try:
        table = evaluate(query, graph, params)
        return ("ok", table.columns, table.rows)
    except QueryEvalError as exc:
        return ("error", type(exc).__name__)


def _reference_outcome(query, graph, params):
    try:
        cols, rows = ref_evaluate(query, graph, params)
        return ("ok", cols, rows)
    except QueryEvalError as exc:
        return ("error", type(exc).__name__)


def _graph_sizes(rng: SplitMix64, count: int) -> list[int]:
    sizes = []
    for i in range(count):
        if i == 24:
            sizes.append(1000)  # one case at the size bound
        elif i % 25 == 24:
            sizes.append(rng.randint(301, 1000))  # a few properly big ones
        elif i % 5 == 4:
            sizes.append(rng.randint(60, 300))
        else:
            sizes.append(rng.randint(0, 50))
    return sizes


def run_differential_sweep(num_graphs: int = 110, seed: int = 20260816, queries_per_graph: int = 2):
    """Raises AssertionError on the first divergence. Returns counters."""
    rng = SplitMix64(seed)
    param_rng = SplitMix64(seed + 1)
    filter_rng = SplitMix64(seed + 2)
    grouped_rng = SplitMix64(seed + 3)
    due_rng = SplitMix64(seed + 4)
    stats = {
        "graphs": 0,
        "selects": 0,
        "inserts": 0,
        "nonempty": 0,
        "errors": 0,
        "max_size": 0,
        "with_params": 0,
        "literal_subject_or_predicate_params": 0,
        "expression_params": 0,
        "filter_selects": 0,
        "grouped_selects": 0,
        "due_selects": 0,
    }
    for size in _graph_sizes(rng, num_graphs):
        graph = random_graph(rng, size)
        stats["graphs"] += 1
        stats["max_size"] = max(stats["max_size"], len(graph))
        for _ in range(queries_per_graph):
            _check_select(*random_select(rng, graph, param_rng), graph, stats)
        _check_select(*random_filter_select(filter_rng, graph), graph, stats)
        stats["filter_selects"] += 1
        for _ in range(DUE_SELECTS):
            _check_select(*random_due_select(due_rng, graph), graph, stats)
            stats["due_selects"] += 1
        _check_select(*random_grouped_select(grouped_rng, graph), graph, stats)
        stats["grouped_selects"] += 1
        # one insert-where case per graph
        query, params = random_insert(rng, graph, param_rng)
        reparsed = parse_query(print_query(query), params)
        assert reparsed == query, f"print/parse mismatch:\n{print_query(query)}"
        g1, g2 = graph.copy(), graph.copy()
        try:
            n1 = evaluate_update(query, g1, params)
            eng = ("ok", n1, serialize(g1))
        except QueryEvalError as exc:
            eng = ("error", type(exc).__name__, serialize(g1))
        try:
            n2 = ref_update(query, g2, params)
            ref = ("ok", n2, serialize(g2))
        except QueryEvalError as exc:
            ref = ("error", type(exc).__name__, serialize(g2))
        assert eng == ref, _explain(query, graph, eng[:2], ref[:2], params)
        if eng[0] == "error":
            # both sides must have left the graph untouched
            assert eng[2] == serialize(graph)
        stats["inserts"] += 1
        _count_params(stats, query, params)
    return stats


def _check_select(query, params, graph, stats):
    # text round trip: the engine consumes what the printer emitted
    reparsed = parse_query(print_query(query), params)
    assert reparsed == query, f"print/parse mismatch:\n{print_query(query)}"
    got = _engine_outcome(reparsed, graph, params)
    want = _reference_outcome(query, graph, params)
    assert got == want, _explain(query, graph, got, want, params)
    stats["selects"] += 1
    _count_params(stats, query, params)
    if got[0] == "ok" and got[2]:
        stats["nonempty"] += 1
    if got[0] == "error":
        stats["errors"] += 1


def _count_params(stats, query, params):
    if params:
        stats["with_params"] += 1
    if any(isinstance(params[name], Literal) for name in _subject_or_predicate_params(query.patterns)):
        stats["literal_subject_or_predicate_params"] += 1
    expressions = list(query.filters)
    if isinstance(query, ast.SelectQuery) and query.projection is not None:
        expressions += [item.expr for item in query.projection]
    if any(isinstance(node, ParamRef) for e in expressions for node in ast.walk_expr(e)):
        stats["expression_params"] += 1


def _subject_or_predicate_params(patterns):
    for p in patterns:
        for t in (p.subject, p.predicate):
            if isinstance(t, ParamRef):
                yield t.name
        yield from _subject_or_predicate_params(t for t in (p.subject, p.object) if isinstance(t, TriplePattern))


def _explain(query, graph, got, want, params):
    return (
        f"engine and reference disagree\nquery: {print_query(query)}\nparams: {params!r}\n"
        f"graph size: {len(graph)}\nengine: {got!r}\nreference: {want!r}"
    )
