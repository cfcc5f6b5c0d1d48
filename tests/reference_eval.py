"""Brute-force reference query evaluator for differential testing.

Deliberately naive: nested-loop joins over a plain list of triples, no
indices, no shortcuts. Shares only the AST and term types with the engine;
unification, expression evaluation, grouping, and ordering are re-implemented
from the documented semantics.
"""

from supplykg.query import ast
from supplykg.query.eval import (
    MissingParameterError,
    QueryEvalError,
    QueryTypeError,
    UnboundVariableError,
)
from supplykg.terms import (
    Iri,
    Literal,
    Quoted,
    Triple,
    TriplePattern,
    Variable,
    format_term,
)

NUMERIC = ("integer", "decimal", "timestep")


def ref_unify(qterm, term, binding, params):
    """Returns (ok, new_binding). Pattern positions may be ParamRefs."""
    if isinstance(qterm, ast.ParamRef):
        qterm = params[qterm.name]
    if isinstance(qterm, Variable):
        if qterm.name in binding:
            return binding[qterm.name] == term, binding
        nb = dict(binding)
        nb[qterm.name] = term
        return True, nb
    if isinstance(qterm, TriplePattern):
        if not isinstance(term, Quoted):
            return False, binding
        inner = term.triple
        ok, b = ref_unify(qterm.subject, inner.subject, binding, params)
        if not ok:
            return False, binding
        ok, b = ref_unify(qterm.predicate, inner.predicate, b, params)
        if not ok:
            return False, binding
        return ref_unify(qterm.object, inner.object, b, params)
    return qterm == term, binding


def ref_join(patterns, triples, params):
    solutions = [{}]
    for pattern in patterns:
        grown = []
        for binding in solutions:
            for triple in triples:
                ok, b = ref_unify(pattern.subject, triple.subject, binding, params)
                if not ok:
                    continue
                ok, b = ref_unify(pattern.predicate, triple.predicate, b, params)
                if not ok:
                    continue
                ok, b = ref_unify(pattern.object, triple.object, b, params)
                if not ok:
                    continue
                grown.append(b)
        solutions = grown
    return solutions


def ref_str(term):
    if isinstance(term, Literal):
        if term.datatype == "boolean":
            return "True" if term.value else "False"
        if term.datatype == "decimal":
            return repr(term.value)
        return str(term.value) if term.datatype != "string" else term.value
    return format_term(term)


def ref_expr(expr, binding, params):
    if isinstance(expr, ast.VarRef):
        if expr.name not in binding:
            raise UnboundVariableError(expr.name)
        return binding[expr.name]
    if isinstance(expr, ast.ParamRef):
        return params[expr.name]
    if isinstance(expr, ast.Const):
        return expr.term
    if isinstance(expr, ast.Call):
        if expr.func == "STR":
            return Literal(ref_str(ref_expr(expr.args[0], binding, params)), "string")
        if expr.func == "IF":
            cond = ref_expr(expr.args[0], binding, params)
            if not (isinstance(cond, Literal) and cond.datatype == "boolean"):
                raise QueryTypeError("IF condition not boolean")
            if cond.value:
                return ref_expr(expr.args[1], binding, params)
            return ref_expr(expr.args[2], binding, params)
        if expr.func == "REGEX":
            hay = ref_expr(expr.args[0], binding, params)
            needle = ref_expr(expr.args[1], binding, params)
            if not all(isinstance(x, Literal) and x.datatype == "string" for x in (hay, needle)):
                raise QueryTypeError("REGEX wants strings")
            h, n = hay.value, needle.value
            anchored_start = n.startswith("^")
            anchored_end = n.endswith("$") and not n.endswith("\\$")
            if anchored_start:
                n = n[1:]
            if anchored_end:
                n = n[:-1]
            if anchored_start and anchored_end:
                return Literal(h == n, "boolean")
            if anchored_start:
                return Literal(h.startswith(n), "boolean")
            if anchored_end:
                return Literal(h.endswith(n), "boolean")
            return Literal(n in h, "boolean")
    if isinstance(expr, ast.Aggregate):
        raise QueryEvalError("aggregate outside grouping")
    if isinstance(expr, ast.Binary):
        op = expr.op
        if op in ("&&", "||"):
            lv = ref_expr(expr.left, binding, params)
            if not (isinstance(lv, Literal) and lv.datatype == "boolean"):
                raise QueryTypeError("logic on non-boolean")
            if op == "&&" and not lv.value:
                return Literal(False, "boolean")
            if op == "||" and lv.value:
                return Literal(True, "boolean")
            rv = ref_expr(expr.right, binding, params)
            if not (isinstance(rv, Literal) and rv.datatype == "boolean"):
                raise QueryTypeError("logic on non-boolean")
            return Literal(rv.value, "boolean")
        lv = ref_expr(expr.left, binding, params)
        rv = ref_expr(expr.right, binding, params)
        if op in ("=", "!="):
            if _num(lv) and _num(rv):
                same = lv.value == rv.value
            else:
                same = lv == rv
            return Literal(same if op == "=" else not same, "boolean")
        if op in ("<", "<=", ">", ">="):
            if _num(lv) and _num(rv):
                a, b = lv.value, rv.value
            elif _is_str(lv) and _is_str(rv):
                a, b = lv.value, rv.value
            else:
                raise QueryTypeError("unorderable")
            if op == "<":
                return Literal(a < b, "boolean")
            if op == "<=":
                return Literal(a <= b, "boolean")
            if op == ">":
                return Literal(a > b, "boolean")
            return Literal(a >= b, "boolean")
        # arithmetic
        if not (_num(lv) and _num(rv)):
            raise QueryTypeError("arithmetic on non-numbers")
        lk, rk = lv.datatype, rv.datatype
        if op == "/":
            if "timestep" in (lk, rk):
                raise QueryTypeError("timestep division")
            if rv.value == 0:
                raise QueryTypeError("divide by zero")
            return _ref_decimal(lambda: lv.value / rv.value)
        if "timestep" in (lk, rk):
            if op == "+" and sorted((lk, rk)) == ["integer", "timestep"]:
                out = lv.value + rv.value
            elif op == "-" and (lk, rk) == ("timestep", "integer"):
                out = lv.value - rv.value
            elif op == "-" and (lk, rk) == ("timestep", "timestep"):
                return _ref_integer(lv.value - rv.value)
            else:
                raise QueryTypeError("bad timestep arithmetic")
            if out < 0:
                raise QueryTypeError("negative timestep")
            return _ref_integer(out, "timestep")
        if op == "+":
            compute = lambda: lv.value + rv.value  # noqa: E731
        elif op == "-":
            compute = lambda: lv.value - rv.value  # noqa: E731
        else:
            compute = lambda: lv.value * rv.value  # noqa: E731
        if "decimal" in (lk, rk):
            return _ref_decimal(compute)
        return _ref_integer(compute())
    raise TypeError(expr)


def _ref_integer(value, datatype="integer"):
    """An integer or timestep result. One that ``str`` cannot write, for
    having more digits than Python allows, is a type error: no literal
    text holds it."""
    try:
        str(value)
    except ValueError:
        raise QueryTypeError("too many digits") from None
    return Literal(value, datatype)


def _ref_decimal(compute):
    """A decimal result. An infinite one, or an integer too large for a
    float on the way, is a type error: no decimal literal holds it."""
    try:
        value = float(compute())
    except OverflowError:
        raise QueryTypeError("out of the range of a decimal") from None
    if value in (float("inf"), float("-inf")):
        raise QueryTypeError("out of the range of a decimal")
    return Literal(value, "decimal")


def _num(t):
    return isinstance(t, Literal) and t.datatype in NUMERIC


def _is_str(t):
    return isinstance(t, Literal) and t.datatype == "string"


def ref_filters(solutions, filters, params):
    kept = []
    for binding in solutions:
        good = True
        for f in filters:
            try:
                v = ref_expr(f, binding, params)
            except QueryEvalError:
                good = False
                break
            if not (isinstance(v, Literal) and v.datatype == "boolean" and v.value):
                good = False
                break
        if good:
            kept.append(binding)
    return kept


def _sort_rows(pairs, order_by):
    # pairs: (binding, cells)
    pairs.sort(key=lambda p: tuple(format_term(c) for c in p[1]))
    if order_by is not None:
        var, desc = order_by

        def key(p):
            t = p[0][var]
            if _num(t):
                return (0, t.value)
            if _is_str(t):
                return (1, t.value)
            if isinstance(t, Literal) and t.datatype == "boolean":
                return (2, t.value)
            if isinstance(t, Iri):
                return (3, t.name)
            return (4, format_term(t))

        pairs.sort(key=key, reverse=desc)
    return [cells for _, cells in pairs]


def ref_evaluate(query, graph, params=None):
    """Returns (columns, rows) like the engine's ResultTable, or raises the
    same error classes the engine documents."""
    params = dict(params or {})
    needed = ast.query_params(query)
    if needed - set(params):
        raise MissingParameterError(sorted(needed - set(params)))
    triples = list(graph.triples())
    sols = ref_join(query.patterns, triples, params)
    sols = ref_filters(sols, query.filters, params)

    if query.projection is None:
        cols = []
        for p in query.patterns:
            for v in p.variables():
                if v not in cols:
                    cols.append(v)
        pairs = [(b, tuple(b[v] for v in cols)) for b in sols]
        return tuple(cols), tuple(_sort_rows(pairs, query.order_by))

    has_agg = False
    for item in query.projection:
        if ast.has_aggregate(item.expr):
            has_agg = True
    cols = []
    for item in query.projection:
        if item.alias is not None:
            cols.append(item.alias)
        elif isinstance(item.expr, ast.VarRef):
            cols.append(item.expr.name)
        else:
            from supplykg.query.printer import print_expr

            cols.append(print_expr(item.expr))

    if not has_agg:
        pairs = []
        for b in sols:
            cells = tuple(ref_expr(i.expr, b, params) for i in query.projection)
            pairs.append((b, cells))
        return tuple(cols), tuple(_sort_rows(pairs, query.order_by))

    if query.group_by is not None:
        key_vars = [query.group_by]
    else:
        key_vars = [i.expr.name for i in query.projection if isinstance(i.expr, ast.VarRef)]
    buckets = {}
    order = []
    for b in sols:
        k = tuple(format_term(b[v]) for v in key_vars)
        if k not in buckets:
            buckets[k] = []
            order.append(k)
        buckets[k].append(b)
    pairs = []
    for k in order:
        group = buckets[k]
        cells = []
        for item in query.projection:
            cells.append(_ref_agg_expr(item.expr, group, params))
        pairs.append((group[0], tuple(cells)))
    return tuple(cols), tuple(_sort_rows(pairs, query.order_by))


def _ref_agg_expr(expr, group, params):
    if isinstance(expr, ast.Aggregate):
        values = []
        any_dec = False
        for b in group:
            v = ref_expr(expr.arg, b, params)
            if not _num(v):
                raise QueryTypeError("aggregate over non-number")
            values.append(v.value)
            any_dec = any_dec or v.datatype == "decimal"
        if expr.func == "SUM":
            if any_dec:
                return _ref_decimal(lambda: _ref_sum(values))
            return _ref_integer(int(_ref_sum(values)))
        return _ref_decimal(lambda: _ref_sum(values) / len(values))
    if isinstance(expr, ast.Binary):
        left = _ref_agg_expr(expr.left, group, params)
        right = _ref_agg_expr(expr.right, group, params)
        return ref_expr(ast.Binary(expr.op, ast.Const(left), ast.Const(right)), {}, params)
    if isinstance(expr, ast.Call) and ast.has_aggregate(expr):
        args = tuple(ast.Const(_ref_agg_expr(a, group, params)) for a in expr.args)
        return ref_expr(ast.Call(expr.func, args), {}, params)
    return ref_expr(expr, group[0], params)


def _ref_sum(values):
    """Row order, left to right, as documented: not ``sum``, which adds
    floats with compensation since Python 3.12."""
    total = 0
    for v in values:
        total = total + v
    return total


def ref_update(query, graph, params=None):
    """Applies INSERT-WHERE to the graph in place; returns inserted count."""
    params = dict(params or {})
    triples = list(graph.triples())
    sols = ref_filters(ref_join(query.patterns, triples, params), query.filters, params)
    staged = []
    for b in sols:
        for tpl in query.template:
            staged.append(_ref_ground(tpl, b, params))
    count = 0
    for t in staged:
        if graph.insert(t):
            count += 1
    return count


def _ref_ground(tpl, binding, params):
    def conv(x):
        if isinstance(x, ast.ParamRef):
            return params[x.name]
        if isinstance(x, Variable):
            if x.name not in binding:
                raise UnboundVariableError(x.name)
            return binding[x.name]
        if isinstance(x, TriplePattern):
            return Quoted(_ref_ground(x, binding, params))
        return x

    from supplykg.terms import MalformedTermError

    try:
        return Triple(conv(tpl.subject), conv(tpl.predicate), conv(tpl.object))
    except MalformedTermError as exc:
        raise QueryTypeError(str(exc)) from None
