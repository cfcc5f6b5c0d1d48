"""Query evaluation.

Semantics in brief:

* WHERE is a conjunctive join of patterns, evaluated left to right against
  the graph's canonical triple order, so results are deterministic. Each
  step hands every row so far to ``Graph.match`` as its bindings; variables
  the row binds narrow the index lookup like constants, so a step scans the
  smallest index bucket its bound positions allow, not the whole bucket of
  the pattern's predicate. Parameters are substituted into each pattern
  first. A pattern no triple can satisfy, such as one with a literal
  subject, matches nothing.
* FILTER expressions see one candidate row at a time. An expression error
  inside a filter (type mismatch, division by zero) drops the row instead of
  aborting the query; errors in projection or aggregate expressions raise.
* Numeric comparisons cross the integer/decimal/timestep tower by value;
  `=` on anything non-numeric is structural term equality. Ordering (<, <=,
  >, >=) is defined for numeric pairs and string pairs only.
* Arithmetic: +,-,* on integers stay integer, any decimal operand makes the
  result decimal, / always yields decimal. Timesteps admit instant+duration
  (timestep +/- integer -> timestep) and instant difference
  (timestep - timestep -> integer); anything else with a timestep is a type
  error, which keeps clock values from leaking into ordinary arithmetic.
* Aggregates (SUM, AVG) group rows by the projected plain variables, or by
  the explicit GROUP BY variable. SUM of integers is an integer, AVG is
  always decimal. Aggregating non-numbers is a type error. Zero WHERE rows
  means zero groups, hence an empty table.
* Rows are sorted by their canonical serialized form; ORDER BY applies the
  requested key first, descending if asked, ties broken by serialized form.
* INSERT-WHERE instantiates every template for every row before touching
  the graph; any unbound variable or malformed triple aborts the whole
  update with the graph unchanged.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Union

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
    Solution,
    Term,
    Triple,
    TriplePattern,
    Variable,
    format_term,
    substitute,
)
from . import ast


# A binding row: a ``Solution`` from ``Graph.match``, or a plain dict.
Row = Union[Solution, dict[str, Term]]


class QueryEvalError(Exception):
    """Base for all evaluation-time failures."""


class QueryTypeError(QueryEvalError):
    """Operation applied to values of the wrong kind."""


class UnboundVariableError(QueryEvalError):
    """Template or expression referenced a variable with no binding."""


class MissingParameterError(QueryEvalError):
    """The caller did not supply a value for a declared parameter."""


# -- result table -------------------------------------------------------------


def display_form(term: Term) -> str:
    """Human-facing cell text, and the string the query function str()
    yields: literals show their bare value, IRIs and quoted triples keep
    their canonical spelling."""
    if isinstance(term, Literal):
        if term.datatype == BOOLEAN:
            return "True" if term.value else "False"
        if term.datatype == STRING:
            return term.value
        if term.datatype == DECIMAL:
            return repr(term.value)
        return str(term.value)
    return format_term(term)


@dataclass(frozen=True)
class ResultTable:
    columns: tuple[str, ...]
    rows: tuple[tuple[Term, ...], ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([display_form(c) for c in row])
        return buf.getvalue()

    def single_value(self) -> Term:
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise QueryEvalError(f"expected a single value, got {len(self.rows)}x{len(self.columns)} table")
        return self.rows[0][0]


# -- parameters ---------------------------------------------------------------


def _check_params(query: ast.Query, params: dict[str, Term]) -> None:
    missing = sorted(ast.query_params(query) - set(params))
    if missing:
        raise MissingParameterError(f"no value for parameter(s): {', '.join(missing)}")


# -- expression evaluation -----------------------------------------------------

_NUMERIC = (INTEGER, DECIMAL, TIMESTEP)


def _numeric(term: Term, op: str):
    if isinstance(term, Literal) and term.datatype in _NUMERIC:
        return term.value, term.datatype
    raise QueryTypeError(f"{op}: expected a number, got {format_term(term)}")


def _wrap_number(value, datatype: str) -> Literal:
    if datatype == DECIMAL:
        return Literal(float(value), DECIMAL)
    return Literal(int(value), datatype)


def _arith(op: str, left: Term, right: Term) -> Literal:
    lv, lk = _numeric(left, op)
    rv, rk = _numeric(right, op)
    if op == "/":
        if TIMESTEP in (lk, rk):
            raise QueryTypeError("cannot divide timesteps")
        if rv == 0:
            raise QueryTypeError("division by zero")
        return Literal(lv / rv, DECIMAL)
    if TIMESTEP in (lk, rk):
        if op == "+" and {lk, rk} == {TIMESTEP, INTEGER}:
            return _make_timestep(lv + rv)
        if op == "-" and (lk, rk) == (TIMESTEP, INTEGER):
            return _make_timestep(lv - rv)
        if op == "-" and (lk, rk) == (TIMESTEP, TIMESTEP):
            return Literal(lv - rv, INTEGER)
        raise QueryTypeError(f"cannot apply {op} to {lk} and {rk}")
    result = {"+": lambda: lv + rv, "-": lambda: lv - rv, "*": lambda: lv * rv}[op]()
    kind = DECIMAL if DECIMAL in (lk, rk) else INTEGER
    return _wrap_number(result, kind)


def _make_timestep(value: int) -> Literal:
    if value < 0:
        raise QueryTypeError(f"timestep arithmetic went negative ({value})")
    return Literal(value, TIMESTEP)


def _is_numeric(term: Term) -> bool:
    return isinstance(term, Literal) and term.datatype in _NUMERIC


def _equal(left: Term, right: Term) -> bool:
    if _is_numeric(left) and _is_numeric(right):
        return left.value == right.value
    return left == right


def _compare(op: str, left: Term, right: Term) -> bool:
    if _is_numeric(left) and _is_numeric(right):
        lv, rv = left.value, right.value
    elif (
        isinstance(left, Literal)
        and isinstance(right, Literal)
        and left.datatype == STRING
        and right.datatype == STRING
    ):
        lv, rv = left.value, right.value
    else:
        raise QueryTypeError(
            f"cannot order {format_term(left)} against {format_term(right)}"
        )
    return {"<": lv < rv, "<=": lv <= rv, ">": lv > rv, ">=": lv >= rv}[op]


def _expect_bool(term: Term, where: str) -> bool:
    if isinstance(term, Literal) and term.datatype == BOOLEAN:
        return term.value
    raise QueryTypeError(f"{where}: expected a boolean, got {format_term(term)}")


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


def eval_expr(expr: ast.Expr, row: Row, params: dict[str, Term]) -> Term:
    if isinstance(expr, ast.VarRef):
        try:
            return row[expr.name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable ?{expr.name}") from None
    if isinstance(expr, ast.ParamRef):
        return params[expr.name]
    if isinstance(expr, ast.Const):
        return expr.term
    if isinstance(expr, ast.Binary):
        op = expr.op
        if op in ("&&", "||"):
            left = _expect_bool(eval_expr(expr.left, row, params), op)
            if op == "&&" and not left:
                return Literal(False, BOOLEAN)
            if op == "||" and left:
                return Literal(True, BOOLEAN)
            return Literal(_expect_bool(eval_expr(expr.right, row, params), op), BOOLEAN)
        left = eval_expr(expr.left, row, params)
        right = eval_expr(expr.right, row, params)
        if op == "=":
            return Literal(_equal(left, right), BOOLEAN)
        if op == "!=":
            return Literal(not _equal(left, right), BOOLEAN)
        if op in ("<", "<=", ">", ">="):
            return Literal(_compare(op, left, right), BOOLEAN)
        return _arith(op, left, right)
    if isinstance(expr, ast.Call):
        if expr.func == "IF":
            cond = _expect_bool(eval_expr(expr.args[0], row, params), "IF")
            return eval_expr(expr.args[1 if cond else 2], row, params)
        if expr.func == "REGEX":
            value = eval_expr(expr.args[0], row, params)
            pattern = eval_expr(expr.args[1], row, params)
            for t in (value, pattern):
                if not (isinstance(t, Literal) and t.datatype == STRING):
                    raise QueryTypeError(f"REGEX: expected strings, got {format_term(t)}")
            return Literal(_regex_match(value.value, pattern.value), BOOLEAN)
        if expr.func == "STR":
            return Literal(display_form(eval_expr(expr.args[0], row, params)), STRING)
    if isinstance(expr, ast.Aggregate):
        raise QueryEvalError("aggregate outside aggregation context")
    raise TypeError(f"not an expression: {expr!r}")


# -- joins ---------------------------------------------------------------------


def _solve(
    patterns: tuple[TriplePattern, ...],
    filters: tuple[ast.Expr, ...],
    graph: Graph,
    params: dict[str, Term],
) -> list[Solution]:
    """The rows of the WHERE group: each pattern's matches under each row so
    far, then the filters. ``Graph.match`` returns each row once, as a fresh
    ``Solution``, and the next join step and every later stage read it as is."""
    rows: list[Solution] = [Solution({})]
    for pattern in patterns:
        pattern = substitute(pattern, {}, params)
        next_rows: list[Solution] = []
        for row in rows:
            next_rows.extend(graph.match(pattern, row))
        rows = next_rows
        if not rows:
            return []
    kept = []
    for row in rows:
        ok = True
        for f in filters:
            try:
                if not _expect_bool(eval_expr(f, row, params), "FILTER"):
                    ok = False
                    break
            except QueryEvalError:
                ok = False  # errors in filters drop the row
                break
        if ok:
            kept.append(row)
    return kept


# -- aggregation and projection --------------------------------------------------


def _aggregate(func: str, values: list[Term]) -> Literal:
    numbers = []
    any_decimal = False
    for v in values:
        val, kind = _numeric(v, func)
        numbers.append(val)
        any_decimal = any_decimal or kind == DECIMAL
    if func == "SUM":
        total = sum(numbers)
        return Literal(float(total), DECIMAL) if any_decimal else Literal(int(total), INTEGER)
    return Literal(sum(numbers) / len(numbers), DECIMAL)


def _eval_with_aggregates(
    expr: ast.Expr, group: list[Row], params: dict[str, Term]
) -> Term:
    """Evaluate a projection expression over a whole group: aggregates see
    every row, the rest is evaluated against the group's key bindings."""
    if isinstance(expr, ast.Aggregate):
        values = [eval_expr(expr.arg, row, params) for row in group]
        return _aggregate(expr.func, values)
    if isinstance(expr, ast.Binary):
        return eval_expr(
            ast.Binary(
                expr.op,
                ast.Const(_eval_with_aggregates(expr.left, group, params)),
                ast.Const(_eval_with_aggregates(expr.right, group, params)),
            ),
            {},
            params,
        )
    if isinstance(expr, ast.Call) and ast.has_aggregate(expr):
        args = tuple(ast.Const(_eval_with_aggregates(a, group, params)) for a in expr.args)
        return eval_expr(ast.Call(expr.func, args), {}, params)
    return eval_expr(expr, group[0], params)


def _row_sort_key(row: tuple[Term, ...]) -> tuple[str, ...]:
    return tuple(format_term(c) for c in row)


def _order_key(term: Term):
    if _is_numeric(term):
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
    if query.projection is None:
        columns = tuple(query.pattern_variables())
        produced = [(r, tuple(r[v] for v in columns)) for r in rows]
    else:
        items = query.projection
        columns = tuple(_column_name(i) for i in items)
        if not any(ast.has_aggregate(i.expr) for i in items):
            produced = [(r, tuple(eval_expr(i.expr, r, params) for i in items)) for r in rows]
        else:
            if query.group_by is not None:
                key_vars = [query.group_by]
            else:
                key_vars = [i.expr.name for i in items if isinstance(i.expr, ast.VarRef)]
            groups: dict[tuple, list[Solution]] = {}
            for r in rows:
                key = tuple(r[v] for v in key_vars)
                groups.setdefault(key, []).append(r)
            produced = [
                (group[0], tuple(_eval_with_aggregates(i.expr, group, params) for i in items))
                for group in groups.values()
            ]

    produced.sort(key=lambda br: _row_sort_key(br[1]))
    if query.order_by is not None:
        var, descending = query.order_by
        produced.sort(key=lambda br: _order_key(br[0][var]), reverse=descending)
    return ResultTable(columns, tuple(cells for _, cells in produced))


def _column_name(item: ast.ProjItem) -> str:
    from .printer import print_expr

    if item.alias is not None:
        return item.alias
    if isinstance(item.expr, ast.VarRef):
        return item.expr.name
    return print_expr(item.expr)


# -- updates ---------------------------------------------------------------------


def _instantiate(template: TriplePattern, row: Row, params: dict[str, Term]) -> Triple:
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
