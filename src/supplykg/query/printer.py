"""Canonical query text. parse_query(print_query(q), params) == q.

Every operator, call and aggregate prints as one bracket level and a FILTER
adds none, so the text nests no deeper than the expression tree, which the
parser bounds.
"""

from __future__ import annotations

from ..terms import format_term, format_triple
from . import ast


def print_expr(expr: ast.Expr) -> str:
    if isinstance(expr, ast.VarRef):
        return "?" + expr.name
    if isinstance(expr, ast.ParamRef):
        return expr.name
    if isinstance(expr, ast.Const):
        return format_term(expr.term)
    if isinstance(expr, ast.Binary):
        return f"({print_expr(expr.left)} {expr.op} {print_expr(expr.right)})"
    if isinstance(expr, ast.Call):
        name = "str" if expr.func == "STR" else expr.func
        return f"{name}({', '.join(print_expr(a) for a in expr.args)})"
    if isinstance(expr, ast.Aggregate):
        return f"{expr.func}({print_expr(expr.arg)})"
    raise TypeError(f"not an expression: {expr!r}")


def _where(patterns, filters) -> str:
    parts = [format_triple(p) for p in patterns]
    parts += [f"FILTER {print_expr(f)} ." for f in filters]
    return "{ " + " ".join(parts) + " }"


def print_query(q: ast.Query) -> str:
    if isinstance(q, ast.InsertWhereQuery):
        template = " ".join(format_triple(p) for p in q.template)
        return f"INSERT {{ {template} }} WHERE {_where(q.patterns, q.filters)}"
    if q.projection is None:
        head = "*"
    else:
        items = []
        for item in q.projection:
            if item.alias is not None:
                items.append(f"({print_expr(item.expr)} AS ?{item.alias})")
            else:
                # a negative number would read as subtraction from the item before
                text = print_expr(item.expr)
                items.append(f"({text})" if text.startswith("-") else text)
        head = " ".join(items)
    text = f"SELECT {head} WHERE {_where(q.patterns, q.filters)}"
    if q.group_by is not None:
        text += f" GROUP BY ?{q.group_by}"
    if q.order_by is not None:
        var, descending = q.order_by
        text += f" ORDER BY {'DESC' if descending else 'ASC'} ?{var}"
    return text
