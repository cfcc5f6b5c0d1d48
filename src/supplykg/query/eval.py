"""Query evaluation.

Semantics in brief:

* WHERE is a conjunctive join of patterns, evaluated left to right, its rows
  sorted once, after the filters, into canonical order. Each step hands every
  row so far to ``Graph.match`` as its bindings; variables the row binds
  narrow the index lookup like constants, so a step scans the smallest index
  bucket its bound positions allow, not the whole bucket of the pattern's
  predicate. Parameters are substituted into each pattern first. A pattern
  no triple can satisfy, such as one with a literal subject, matches nothing.
* An equality FILTER ``?v - c = k`` or ``?v + c = k`` (either side of the
  ``=`` first), with ``c`` and ``k`` integer or timestep constants or
  parameters, is solved for ``?v`` when a pattern names ``?v``. The join
  then starts with ``?v`` bound to each term equal by value to the
  solution ``s`` (the integer, the timestep when ``s >= 0``, the decimal,
  and ``-0.0`` beside ``0.0``), one row per term, instead of with one empty
  row, and every pattern reads only the triples that hold such a term,
  wherever ``?v`` stands: the due-orders lookup
  ``?o :hasDeliveryTime ?dt . FILTER (?dt - lt = t)`` reads the orders
  that are due, not all orders. Decimal arithmetic rounds, so a filter is
  solved only where no other decimal can round onto ``k``: the signed
  shift (``c``, or ``-c`` for ``+``) and ``k`` have no opposite signs, and
  ``|s|`` is below 2**53. The WHERE clause is a conjunction and every
  filter still runs on the rows found, so the rows are the same as a
  scan's.
* Each evaluation compiles its FILTER, projection and aggregate
  expressions once, into functions of one row (or, for an item with
  aggregates, of one group of rows) that know their operators, constants
  and parameter values, and ``Graph.match`` decides once per call how it
  reads each position of a pattern. Neither is kept past the call.
* Every expression compiles to one form: a function that returns the
  ``(value, datatype)`` pair of its value, or ``(term, None)`` for an IRI
  or a quoted triple. Booleans are pairs too, and operators, functions
  and aggregates take and return pairs, so the due-orders filter
  ``?dt - lt = t`` builds no literal per row. A literal is built only
  where a value leaves the expression: a projected cell or an error
  message. A projected plain variable's cell is the row's own term.
* FILTER expressions see one candidate row at a time. An expression error
  inside a filter (type mismatch, division by zero, a result out of range)
  drops the row instead of aborting the query; errors in projection or
  aggregate expressions raise.
* In a FILTER or a projection without aggregates, ``&&``, ``||`` and
  ``IF`` evaluate only the operands that decide them. In a projection item
  with aggregates every operand is evaluated, so an error in any of them
  raises.
* Numeric comparisons cross the integer/decimal/timestep tower by value;
  `=` on anything non-numeric is structural term equality. Ordering (<, <=,
  >, >=) is defined for numeric pairs and string pairs only.
* Arithmetic: +,-,* on integers stay integer, any decimal operand makes the
  result decimal, / always yields decimal. A decimal result no decimal
  literal can hold (infinite, or from an integer too large for a float) is
  a type error. Integers are exact up to the digits Python writes as text
  (``sys.get_int_max_str_digits()``, 4,300 by default); an integer or
  timestep result with more is a type error too. Timesteps admit
  instant+duration (timestep +/- integer -> timestep) and instant
  difference (timestep - timestep -> integer); anything else with a
  timestep is a type error, which keeps clock values from leaking into
  ordinary arithmetic.
* Aggregates (SUM, AVG) group rows by the projected plain variables, or by
  the explicit GROUP BY variable. SUM of integers is an integer, AVG is
  always decimal, and a total or mean out of range is a type error, as in
  arithmetic. Aggregating non-numbers is a type error. Both add their
  values in row order, left to right, so a decimal total is the same on
  every Python (``sum`` adds floats with compensation since 3.12). Zero
  WHERE rows means zero groups, hence an empty table.
* Rows are sorted by their canonical serialized form; ORDER BY applies the
  requested key first, descending if asked, ties broken by serialized form.
* INSERT-WHERE instantiates every template for every row before touching
  the graph; any unbound variable or malformed triple aborts the whole
  update with the graph unchanged.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable

from ..graph import Graph
from ..terms import (
    BOOLEAN,
    DECIMAL,
    INTEGER,
    STRING,
    TIMESTEP,
    Iri,
    Literal,
    MalformedTermError,
    ParamRef,
    PatternTerm,
    Quoted,
    Term,
    Triple,
    TriplePattern,
    Variable,
    format_predicate,
    format_term,
    substitute,
)
from . import ast


class QueryEvalError(Exception):
    """Base for all evaluation-time failures."""


class QueryTypeError(QueryEvalError):
    """Operation applied to values of the wrong kind."""


class UnboundVariableError(QueryEvalError):
    """Template or expression referenced a variable with no binding."""


class MissingParameterError(QueryEvalError):
    """The caller did not supply a value for a declared parameter."""


# -- result table -------------------------------------------------------------


def _display(pair: Pair) -> str:
    """Human-facing text of the term whose pair is ``pair``: a CSV cell, and
    the string the query function str() yields. Literals show their bare
    value, IRIs and quoted triples keep their canonical spelling."""
    value, kind = pair
    if kind is None:
        return format_term(value)
    if kind == BOOLEAN:
        return "True" if value else "False"
    if kind == STRING:
        return value
    if kind == DECIMAL:
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class ResultTable:
    columns: tuple[str, ...]
    rows: tuple[tuple[Term, ...], ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_display(_unbox(c)) for c in row])
        return buf.getvalue()

    def single_value(self) -> Term:
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise QueryEvalError(f"expected a single value, got {len(self.rows)}x{len(self.columns)} table")
        return self.rows[0][0]


# -- parameters ---------------------------------------------------------------


def _check_params(query: ast.Query, params: dict[str, Term]) -> None:
    missing = sorted(query.param_names - params.keys())
    if missing:
        raise MissingParameterError(f"no value for parameter(s): {', '.join(missing)}")


# -- expressions -----------------------------------------------------------------

# A row is one solution of the WHERE patterns. An expression compiles to a
# function of one row, and a projection item with aggregates to a function
# of one group of rows.
Row = dict[str, Term]

# What every compiled expression returns: a literal as its ``(value,
# datatype)`` pair, any other term as ``(term, None)``. A ``Literal`` is
# built only where a value leaves the expression.
Pair = tuple

_NUMERIC = (INTEGER, DECIMAL, TIMESTEP)

# Every comparison, logical operator and REGEX returns one of these two.
_TRUE = (True, BOOLEAN)
_FALSE = (False, BOOLEAN)


def _unbox(term: Term) -> Pair:
    return (term.value, term.datatype) if term.__class__ is Literal else (term, None)


def _box(pair: Pair) -> Term:
    value, kind = pair
    return value if kind is None else Literal(value, kind)


def _truth(pair: Pair, where: str) -> bool:
    if pair[1] == BOOLEAN:
        return pair[0]
    raise QueryTypeError(f"{where}: expected a boolean, got {format_term(_box(pair))}")


def _decimal(op: str, compute, *operands) -> float:
    """The decimal result of ``compute(*operands)``. One no decimal can
    hold, infinite or from an integer too large for a float, is a type
    error."""
    try:
        value = float(compute(*operands))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise QueryTypeError(f"{op}: the result is out of the range of a decimal")
    return value


# An int of smaller magnitude has fewer than 640 digits, the least limit that
# ``sys.set_int_max_str_digits`` allows other than none: each integer result
# is compared with it, and only a longer one has its digits counted.
_SHORT = 1 << 2126


def _integer(op: str, value: int) -> int:
    """``value``, an integer or timestep result, unless it has more digits
    than ``sys.get_int_max_str_digits()``: then it has no text form, and
    that is a type error."""
    if not -_SHORT < value < _SHORT:
        limit = sys.get_int_max_str_digits()
        if limit and abs(value) >= 10**limit:
            raise QueryTypeError(f"{op}: the result has more than {limit} digits")
    return value


def _clock(op: str, lv: int, lk: str, rv: int, rk: str) -> Pair:
    """Arithmetic with a timestep operand: instant plus or minus duration,
    and instant minus instant; nothing else."""
    if op == "-" and lk == TIMESTEP and rk == INTEGER:
        value = lv - rv
    elif op == "+" and {lk, rk} == {TIMESTEP, INTEGER}:
        value = lv + rv
    elif op == "-" and lk == TIMESTEP and rk == TIMESTEP:
        return lv - rv, INTEGER  # no longer than the later instant
    elif op == "/":
        raise QueryTypeError("cannot divide timesteps")
    else:
        raise QueryTypeError(f"cannot apply {op} to {lk} and {rk}")
    if not 0 <= value < _SHORT:
        if value < 0:
            raise QueryTypeError(f"timestep arithmetic went negative ({value})")
        _integer(op, value)
    return value, TIMESTEP


def _arithmetic(op: str, compute):
    """The function that applies arithmetic operator ``op`` to two pairs."""
    divide = op == "/"

    def apply(left: Pair, right: Pair) -> Pair:
        lv, lk = left
        rv, rk = right
        if lk not in _NUMERIC or rk not in _NUMERIC:
            raise QueryTypeError(f"{op}: expected a number, got {format_term(_box(right if lk in _NUMERIC else left))}")
        if lk == TIMESTEP or rk == TIMESTEP:
            return _clock(op, lv, lk, rv, rk)
        if divide:
            if rv == 0:
                raise QueryTypeError("division by zero")
        elif lk == INTEGER and rk == INTEGER:
            return _integer(op, compute(lv, rv)), INTEGER
        return _decimal(op, compute, lv, rv), DECIMAL

    return apply


def _equality(negate: bool):
    """``=`` (or ``!=`` when ``negate``): numbers by value, anything else
    by term equality."""

    def apply(left: Pair, right: Pair) -> Pair:
        lv, lk = left
        rv, rk = right
        if lk in _NUMERIC and rk in _NUMERIC:
            same = lv == rv
        else:
            same = lk == rk and lv == rv
        return _FALSE if same is negate else _TRUE

    return apply


def _ordering(test):
    """An ordering comparison: defined for two numbers or two strings."""

    def apply(left: Pair, right: Pair) -> Pair:
        lk, rk = left[1], right[1]
        if (lk in _NUMERIC and rk in _NUMERIC) or (lk == STRING and rk == STRING):
            return _TRUE if test(left[0], right[0]) else _FALSE
        raise QueryTypeError(f"cannot order {format_term(_box(left))} against {format_term(_box(right))}")

    return apply


# binary operator -> the function of its operands' pairs. ``&&`` and ``||``
# here take both operands evaluated, as an item with aggregates evaluates
# them; in a row they short-circuit (``_compile``).
_OPERATORS = {
    "+": _arithmetic("+", operator.add),
    "-": _arithmetic("-", operator.sub),
    "*": _arithmetic("*", operator.mul),
    "/": _arithmetic("/", operator.truediv),
    "=": _equality(False),
    "!=": _equality(True),
    "<": _ordering(operator.lt),
    "<=": _ordering(operator.le),
    ">": _ordering(operator.gt),
    ">=": _ordering(operator.ge),
    "&&": lambda left, right: _TRUE if _truth(left, "&&") and _truth(right, "&&") else _FALSE,
    "||": lambda left, right: _TRUE if _truth(left, "||") or _truth(right, "||") else _FALSE,
}


def _regex_match(value: str, pattern: str) -> bool:
    """Anchored-substring matching: ^ pins the start, $ pins the end,
    otherwise plain containment."""
    starts = pattern.startswith("^")
    ends = pattern.endswith("$") and not pattern.endswith("\\$")
    core = pattern[1 if starts else 0 : -1 if ends else len(pattern)]
    if starts and ends:
        return value == core
    if starts:
        return value.startswith(core)
    if ends:
        return value.endswith(core)
    return core in value


def _regex(value: Pair, pattern: Pair) -> Pair:
    for pair in (value, pattern):
        if pair[1] != STRING:
            raise QueryTypeError(f"REGEX: expected strings, got {format_term(_box(pair))}")
    return _TRUE if _regex_match(value[0], pattern[0]) else _FALSE


# function name -> the function of its arguments' pairs. IF here takes all
# three evaluated, as an item with aggregates evaluates them; in a row it
# evaluates only the branch it picks (``_compile``).
_FUNCTIONS = {
    "IF": lambda cond, then, other: then if _truth(cond, "IF") else other,
    "REGEX": _regex,
    "STR": lambda pair: (_display(pair), STRING),
}


def _constant(expr: ast.Expr, params: dict[str, Term]) -> Term | None:
    """The term of a constant or a parameter; None for any other expression."""
    if isinstance(expr, ast.Const):
        return expr.term
    if isinstance(expr, ast.ParamRef):
        return params[expr.name]
    return None


def _on_group(expr: ast.Expr) -> bool:
    """Whether a projection with aggregates evaluates ``expr`` on the whole
    group: aggregates, operators, and functions with an aggregate below
    them, all of which evaluate every operand. Anything else is evaluated
    against the group's first row, whose key bindings the group shares."""
    return isinstance(expr, (ast.Binary, ast.Aggregate)) or (isinstance(expr, ast.Call) and ast.has_aggregate(expr))


def _compile(expr: ast.Expr, params: dict[str, Term], grouped: bool = False) -> Callable[[Row], Pair]:
    """``expr`` as a function of one row, or with ``grouped`` of one group
    of rows, that returns the pair of its value. The operators, constants
    and parameter values are looked up here, once per evaluation."""
    if grouped and not _on_group(expr):
        row_fn = _compile(expr, params)
        return lambda group: row_fn(group[0])
    if isinstance(expr, ast.VarRef):
        name = expr.name

        def variable(row: Row) -> Pair:
            try:
                term = row[name]
            except KeyError:
                raise UnboundVariableError(f"unbound variable ?{name}") from None
            return _unbox(term)

        return variable
    term = _constant(expr, params)
    if term is not None:
        pair = _unbox(term)
        return lambda row: pair
    # In a row, ``&&``, ``||`` and IF evaluate only the operands that decide
    # them, as a FILTER needs; in a group every operand is evaluated, so an
    # error in any of them raises (``tests/reference_eval.py``).
    if isinstance(expr, ast.Binary):
        op = expr.op
        if op in ("&&", "||") and not grouped:
            left, right = _compile(expr.left, params), _compile(expr.right, params)
            if op == "&&":
                return lambda row: _TRUE if _truth(left(row), op) and _truth(right(row), op) else _FALSE
            return lambda row: _TRUE if _truth(left(row), op) or _truth(right(row), op) else _FALSE
        apply, left, right = _OPERATORS[op], _compile(expr.left, params, grouped), _compile(expr.right, params, grouped)
        return lambda row: apply(left(row), right(row))
    if isinstance(expr, ast.Call):
        args = [_compile(a, params, grouped) for a in expr.args]
        if expr.func == "IF" and not grouped:
            cond, then, other = args
            return lambda row: (then if _truth(cond(row), "IF") else other)(row)
        apply = _FUNCTIONS[expr.func]
        return lambda row: apply(*[arg(row) for arg in args])
    if isinstance(expr, ast.Aggregate):
        if grouped:
            func, arg = expr.func, _compile(expr.arg, params)
            return lambda group: _aggregate(func, [arg(row) for row in group])

        def misplaced(row: Row) -> Pair:
            raise QueryEvalError("aggregate outside aggregation context")

        return misplaced
    raise TypeError(f"not an expression: {expr!r}")


def _sum(numbers: list) -> int | float:
    """The numbers added in row order, left to right. ``sum`` adds floats
    with compensation since Python 3.12, which changes the last digits of
    a total from one Python version to the next."""
    return functools.reduce(operator.add, numbers, 0)


def _aggregate(func: str, values: list[Pair]) -> Pair:
    any_decimal = False
    for value, kind in values:
        if kind not in _NUMERIC:
            raise QueryTypeError(f"{func}: expected a number, got {format_term(_box((value, kind)))}")
        any_decimal = any_decimal or kind == DECIMAL
    numbers = [value for value, _ in values]
    if func == "AVG":
        return _decimal(func, lambda: _sum(numbers) / len(numbers)), DECIMAL
    if any_decimal:
        return _decimal(func, _sum, numbers), DECIMAL
    return _integer(func, _sum(numbers)), INTEGER


# -- joins ---------------------------------------------------------------------


def _solve(
    patterns: tuple[TriplePattern, ...],
    filters: tuple[ast.Expr, ...],
    graph: Graph,
    params: dict[str, Term],
) -> list[Row]:
    """The rows of the WHERE group in nested-loop canonical order: each
    pattern's matches under each row so far, then the filters, then one sort.
    The first pattern is matched under one row per combination of the terms
    that ``_probes`` gives each solved variable, or under one empty row.
    ``Graph.match`` returns each row as a new plain dict, which no stage
    changes."""
    tests = [_compile(f, params) for f in filters]
    rows: list[Row] = [{}]
    for name, terms in _probes(patterns, filters, params).items():
        rows = [{**row, name: term} for row in rows for term in terms]
    for pattern in patterns:
        pattern = substitute(pattern, params)
        next_rows: list[Row] = []
        for row in rows:
            next_rows += graph.match(pattern, row)
        rows = next_rows
        if not rows:
            return []
    if tests:
        kept = []
        for row in rows:
            try:
                for test in tests:
                    if not _truth(test(row), "FILTER"):
                        break
                else:
                    kept.append(row)
            except QueryEvalError:
                pass  # errors in filters drop the row
        rows = kept
    return sorted(rows, key=_line_order(patterns)) if len(rows) > 1 else rows


# At 2**53 and beyond, a decimal next to a solution may round onto it.
_EXACT = 2**53


def _probes(
    patterns: tuple[TriplePattern, ...], filters: tuple[ast.Expr, ...], params: dict[str, Term]
) -> dict[str, list[Literal]]:
    """Variable name -> the terms ``_solve`` binds it to before the first
    pattern, for each variable that an equality filter solves (``_solved``)
    and some pattern names: every term equal to the solution by value, so a
    row that binds the variable to any other term fails the filter. A
    variable no pattern names stays unbound, and the filter that reads it
    drops every row."""
    named = {name for pattern in patterns for _, name in _variables(pattern)}
    probes: dict[str, list[Literal]] = {}
    for f in filters:
        solved = _solved(f, params)
        if solved is not None and solved[0] in named and solved[0] not in probes:
            name, s = solved
            terms = [Literal(s, INTEGER), Literal(float(s), DECIMAL)]
            if s >= 0:
                terms.append(Literal(s, TIMESTEP))
            if s == 0:
                terms.append(Literal(-0.0, DECIMAL))  # a term apart from 0.0
            probes[name] = terms
    return probes


def _solved(expr: ast.Expr, params: dict[str, Term]) -> tuple[str, int] | None:
    """``(v, s)`` when ``expr`` is ``?v - c = k`` or ``?v + c = k``, either
    side of the ``=`` first, and a row passes it only if ``?v`` equals
    ``s = k + c`` (``k - c`` for ``+``) by value; else None. That holds when:

    - ``c`` and ``k`` are integer or timestep constants or parameters, whose
      arithmetic is exact;
    - the signed shift (``c``, or ``-c`` for ``+``) and ``k`` have no
      opposite signs: ``1e-18 - -1 = 1`` holds, as the sum rounds;
    - ``|s|`` is below 2**53, which bounds ``|c|`` too once the signs
      agree: ``9007199254740994.0 - 1 = 2**53`` holds.

    Within these bounds a decimal rounds onto ``k`` only if it is ``s``."""
    if not (isinstance(expr, ast.Binary) and expr.op == "="):
        return None
    for shifted, other in ((expr.left, expr.right), (expr.right, expr.left)):
        if isinstance(shifted, ast.Binary) and shifted.op in ("-", "+") and isinstance(shifted.left, ast.VarRef):
            c, k = _whole(shifted.right, params), _whole(other, params)
            if c is not None and k is not None:
                shift = c if shifted.op == "-" else -c
                if shift * k >= 0 and abs(k + shift) < _EXACT:
                    return shifted.left.name, k + shift
    return None


def _whole(expr: ast.Expr, params: dict[str, Term]) -> int | None:
    """The value of an integer or timestep constant or parameter, else None."""
    term = _constant(expr, params)
    return term.value if term.__class__ is Literal and term.datatype in (INTEGER, TIMESTEP) else None


def _variables(pattern: TriplePattern):
    """Each variable occurrence of ``pattern``, nested ones included, in
    order: the function that spells a term where it stands (``a`` for
    ``rdf:type`` as a predicate), and its name."""
    for spell, term in (
        (format_term, pattern.subject),
        (format_predicate, pattern.predicate),
        (format_term, pattern.object),
    ):
        if term.__class__ is TriplePattern:
            yield from _variables(term)
        elif term.__class__ is Variable:
            yield spell, term.name


def _line_order(patterns: tuple[TriplePattern, ...]) -> Callable[[Row], tuple[str, ...]]:
    """The key that sorts rows as their matched triples' lines: each variable's
    text in first-appearance order, spelled as where it first stands (``a``
    for ``rdf:type`` as a predicate). Constants are the same in every row, and
    no term's text is a proper prefix of another's followed by a space."""
    spelled: dict[str, Callable[[Term], str]] = {}
    for pattern in patterns:
        for spell, name in _variables(pattern):
            spelled.setdefault(name, spell)
    return lambda row: tuple([spell(row[name]) for name, spell in spelled.items()])


# -- aggregation and projection --------------------------------------------------


def _row_sort_key(row: tuple[Term, ...]) -> tuple[str, ...]:
    return tuple(format_term(c) for c in row)


def _order_key(term: Term):
    if isinstance(term, Literal) and term.datatype in _NUMERIC:
        return (0, term.value)
    if isinstance(term, Literal) and term.datatype == STRING:
        return (1, term.value)
    if isinstance(term, Literal) and term.datatype == BOOLEAN:
        return (2, term.value)
    if isinstance(term, Iri):
        return (3, term.name)
    return (4, format_term(term))


def evaluate(query: ast.SelectQuery, graph: Graph, params: dict[str, Term] | None = None) -> ResultTable:
    if not isinstance(query, ast.SelectQuery):
        raise TypeError("evaluate takes a SelectQuery; use evaluate_update for INSERT")
    params = dict(params or {})
    _check_params(query, params)
    rows = _solve(query.patterns, query.filters, graph, params)

    # produced: (representative binding, projected cells) per output row; the
    # binding carries ORDER BY values for variables that are not projected
    items = query.projection
    if items is None:
        items = tuple(ast.ProjItem(ast.VarRef(name)) for name in query.pattern_variables())
    columns = tuple(_column_name(i) for i in items)
    grouped = any(ast.has_aggregate(i.expr) for i in items)
    compiled = [_cell(i.expr, params, grouped) for i in items]
    if not grouped:
        produced = [(r, tuple([f(r) for f in compiled])) for r in rows]
    else:
        if query.group_by is not None:
            key_vars = [query.group_by]
        else:
            key_vars = [i.expr.name for i in items if isinstance(i.expr, ast.VarRef)]
        groups: dict[tuple, list[dict[str, Term]]] = {}
        for r in rows:
            key = tuple(r[v] for v in key_vars)
            groups.setdefault(key, []).append(r)
        produced = [(group[0], tuple([f(group) for f in compiled])) for group in groups.values()]

    produced.sort(key=lambda br: _row_sort_key(br[1]))
    if query.order_by is not None:
        var, descending = query.order_by
        produced.sort(key=lambda br: _order_key(br[0][var]), reverse=descending)
    return ResultTable(columns, tuple(cells for _, cells in produced))


def _cell(expr: ast.Expr, params: dict[str, Term], grouped: bool) -> Callable:
    """A projection item as a function of one row, or with ``grouped`` of
    one group, that gives its cell. A plain variable's cell is the row's own
    term (a grouping key's, the group's first row's), not a literal boxed
    again from its pair; ``value`` raises for a row that does not bind it."""
    value = _compile(expr, params, grouped)
    if not isinstance(expr, ast.VarRef):
        return lambda row: _box(value(row))
    name = expr.name
    if grouped:
        return lambda group: group[0][name] if name in group[0] else value(group)
    return lambda row: row[name] if name in row else value(row)


def _column_name(item: ast.ProjItem) -> str:
    from .printer import print_expr

    if item.alias is not None:
        return item.alias
    if isinstance(item.expr, ast.VarRef):
        return item.expr.name
    return print_expr(item.expr)


# -- updates ---------------------------------------------------------------------


def _instantiate(template: TriplePattern, row: dict[str, Term], params: dict[str, Term]) -> Triple:
    def conv(t: PatternTerm) -> Term:
        if isinstance(t, Variable):
            if t.name not in row:
                raise UnboundVariableError(f"template variable ?{t.name} is unbound")
            return row[t.name]
        if isinstance(t, ParamRef):
            return params[t.name]
        if isinstance(t, TriplePattern):
            return Quoted(_instantiate(t, row, params))
        return t

    try:
        return Triple(conv(template.subject), conv(template.predicate), conv(template.object))
    except MalformedTermError as exc:
        raise QueryTypeError(f"template instantiation produced an invalid triple: {exc}") from None


def evaluate_update(query: ast.InsertWhereQuery, graph: Graph, params: dict[str, Term] | None = None) -> int:
    """Run INSERT-WHERE. Returns the number of triples that were actually new.
    All template instantiation happens before any insertion, so a failure
    leaves the graph untouched."""
    if not isinstance(query, ast.InsertWhereQuery):
        raise TypeError("evaluate_update takes an InsertWhereQuery")
    params = dict(params or {})
    _check_params(query, params)
    rows = _solve(query.patterns, query.filters, graph, params)
    staged: list[Triple] = []
    for row in rows:
        for template in query.template:
            staged.append(_instantiate(template, row, params))
    added = 0
    for t in staged:
        if graph.insert(t):
            added += 1
    return added
