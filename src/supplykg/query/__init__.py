"""Query language: a small SELECT / INSERT-WHERE dialect over the triple
store, with quoted-triple patterns, filters, SUM/AVG aggregation, and named
runtime parameters."""

from .ast import (
    Aggregate,
    Binary,
    Call,
    Const,
    InsertWhereQuery,
    ParamRef,
    ProjItem,
    SelectQuery,
    VarRef,
)
from .eval import (
    MissingParameterError,
    QueryEvalError,
    QueryTypeError,
    ResultTable,
    UnboundVariableError,
    evaluate,
    evaluate_update,
)
from .parser import QuerySyntaxError, parse_query
from .printer import print_query

__all__ = [
    "Aggregate",
    "Binary",
    "Call",
    "Const",
    "InsertWhereQuery",
    "MissingParameterError",
    "ParamRef",
    "ProjItem",
    "QueryEvalError",
    "QuerySyntaxError",
    "QueryTypeError",
    "ResultTable",
    "SelectQuery",
    "UnboundVariableError",
    "VarRef",
    "evaluate",
    "evaluate_update",
    "parse_query",
    "print_query",
]
