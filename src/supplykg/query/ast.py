"""Query AST.

Two query forms: SelectQuery and InsertWhereQuery. Both share the WHERE part
(a conjunction of triple patterns plus filter expressions). Patterns are
``terms.TriplePattern``: positions hold core terms, Variables, ParamRefs
(free identifiers supplied at evaluation time, like the clock value ``t``),
or nested patterns for quoted triples. Everything is frozen so
parse(print(q)) == q is a meaningful equality.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Union

from ..terms import Iri, Literal, ParamRef, Quoted, TriplePattern

# -- expressions -------------------------------------------------------------

AGGREGATE_FUNCS = ("SUM", "AVG")
# function name -> number of arguments
CALL_FUNCS = {"IF": 3, "REGEX": 2, "STR": 1}
COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")
# binary operators by precedence, loosest first
PRECEDENCE = (("||",), ("&&",), COMPARISONS, ("+", "-"), ("*", "/"))


@dataclass(frozen=True)
class VarRef:
    name: str


@dataclass(frozen=True)
class Const:
    term: Union[Iri, Literal, Quoted]


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str  # a CALL_FUNCS name
    args: tuple["Expr", ...]


@dataclass(frozen=True)
class Aggregate:
    func: str  # an AGGREGATE_FUNCS name
    arg: "Expr"


Expr = Union[VarRef, ParamRef, Const, Binary, Call, Aggregate]


def walk_expr(expr: Expr):
    yield expr
    if isinstance(expr, Binary):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, Call):
        for a in expr.args:
            yield from walk_expr(a)
    elif isinstance(expr, Aggregate):
        yield from walk_expr(expr.arg)


def has_aggregate(expr: Expr) -> bool:
    return any(isinstance(e, Aggregate) for e in walk_expr(expr))


# -- queries -----------------------------------------------------------------


@dataclass(frozen=True)
class ProjItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True)
class SelectQuery:
    projection: Optional[tuple[ProjItem, ...]]  # None means SELECT *
    patterns: tuple[TriplePattern, ...]
    filters: tuple[Expr, ...] = ()
    group_by: Optional[str] = None
    order_by: Optional[tuple[str, bool]] = None  # (variable, descending)

    def pattern_variables(self) -> list[str]:
        seen: list[str] = []
        for p in self.patterns:
            for v in p.variables():
                if v not in seen:
                    seen.append(v)
        return seen

    @functools.cached_property
    def param_names(self) -> frozenset[str]:
        """``query_params(self)``, worked out once per query."""
        return frozenset(query_params(self))


@dataclass(frozen=True)
class InsertWhereQuery:
    template: tuple[TriplePattern, ...]
    patterns: tuple[TriplePattern, ...]
    filters: tuple[Expr, ...] = ()

    @functools.cached_property
    def param_names(self) -> frozenset[str]:
        """``query_params(self)``, worked out once per query."""
        return frozenset(query_params(self))


Query = Union[SelectQuery, InsertWhereQuery]


def query_params(query: Query) -> set[str]:
    """All free identifier names the query needs values for."""
    names: set[str] = set()
    pats = list(query.patterns)
    if isinstance(query, InsertWhereQuery):
        pats += list(query.template)
    for p in pats:
        names |= {t.name for t in p.leaves() if isinstance(t, ParamRef)}
    exprs = list(query.filters)
    if isinstance(query, SelectQuery) and query.projection is not None:
        exprs += [item.expr for item in query.projection]
    for e in exprs:
        names |= {n.name for n in walk_expr(e) if isinstance(n, ParamRef)}
    return names
