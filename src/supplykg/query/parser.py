"""Recursive-descent query parser.

Grammar (keywords case-insensitive):

    query        = select | insert
    select       = SELECT projection WHERE group
                   [GROUP BY var] [ORDER BY [ASC|DESC] var | ORDER BY (ASC|DESC) "(" var ")"]
    insert       = INSERT "{" { pattern "." } "}" WHERE group
    projection   = "*" | item+
    item         = "(" expr AS var ")" | expr [AS var]
    group        = "{" { pattern "." | FILTER expr ["."] } "}"
    pattern      = pterm pred pterm
    pterm        = iri | var | ident | literal | "<<" pattern ">>"
    pred         = iri | var | ident          (bare ident "a" means rdf:type)
    expr         = orex ; orex = andex {"||" andex} ; andex = cmp {"&&" cmp}
    cmp          = add [("="|"!="|"<"|"<="|">"|">=") add]
    add          = mul {("+"|"-") mul} ; mul = unary {("*"|"/") unary}
    unary        = "-" unary | primary
    primary      = literal | var | ident | call | "(" expr ")"
    call         = (SUM|AVG|IF|REGEX|STR) "(" expr {"," expr} ")"

An expression tree is at most MAX_EXPR_DEPTH levels deep: every operator
(unary minus included), call and aggregate is one level above its operands,
so a chain of n binary operators is n levels deep. Parentheses and argument
lists nest at most MAX_EXPR_DEPTH deep too, and quoted patterns at most
MAX_QUOTE_DEPTH; deeper input is a syntax error, not a stack overflow.

Free identifiers are runtime parameters and must be declared to parse_query;
anything undeclared is a syntax error with its position. Structural checks
enforced here: every variable used in projection, filters, GROUP BY, or
ORDER BY occurs in the WHERE patterns; aggregates appear only in projection
items and do not nest; with aggregation, plain projected variables define the
grouping and must match an explicit GROUP BY when one is given.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from ..terms import (
    MAX_QUOTE_DEPTH,
    Iri,
    Literal,
    MalformedTermError,
    ParamRef,
    PatternTerm,
    Quoted,
    TriplePattern,
    Variable,
    number_literal,
    to_ground,
    typed_literal,
)
from . import ast
from .lexer import QuerySyntaxError, Token, tokenize


# The deepest expression tree the parser builds, and the deepest nesting of
# brackets and unary minus it reads. Every bracket level costs the parser
# about ten stack frames, so this stays far below the depth at which the
# recursion would exhaust the Python stack; the tree bound keeps recursive
# walks of a parsed expression (check, evaluate, print) as shallow.
MAX_EXPR_DEPTH = 64


class _Parser:
    def __init__(self, tokens: list[Token], params: frozenset[str]):
        self.tokens = tokens
        self.pos = 0
        self.params = params
        self.depth = 0
        self.expr_depth = 0

    # -- token plumbing ------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        i = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise QuerySyntaxError(f"expected {kind!r}, got {tok.text or 'end of query'!r}", tok.line, tok.col)
        return self.take()

    def accept(self, kind: str) -> Optional[Token]:
        if self.peek().kind == kind:
            return self.take()
        return None

    def fail(self, message: str) -> QuerySyntaxError:
        tok = self.peek()
        return QuerySyntaxError(message, tok.line, tok.col)

    # -- entry ---------------------------------------------------------------

    def query(self) -> ast.Query:
        if self.accept("SELECT"):
            q = self.select_rest()
        elif self.accept("INSERT"):
            q = self.insert_rest()
        else:
            raise self.fail("query must start with SELECT or INSERT")
        self.expect("EOF")
        return q

    def select_rest(self) -> ast.SelectQuery:
        projection = self.projection()
        self.expect("WHERE")
        patterns, filters = self.group()
        group_by = None
        order_by = None
        while self.peek().kind in ("GROUP", "ORDER"):
            tok = self.take()
            self.expect("BY")
            if tok.kind == "GROUP":
                if group_by is not None:
                    raise self.fail("duplicate GROUP BY")
                group_by = self.expect("VAR").text
            else:
                if order_by is not None:
                    raise self.fail("duplicate ORDER BY")
                descending = False
                if self.peek().kind in ("ASC", "DESC"):
                    descending = self.take().kind == "DESC"
                    if self.accept("("):
                        var = self.expect("VAR").text
                        self.expect(")")
                        order_by = (var, descending)
                        continue
                order_by = (self.expect("VAR").text, descending)
        q = ast.SelectQuery(projection, tuple(patterns), tuple(filters), group_by, order_by)
        self.check_select(q)
        return q

    def insert_rest(self) -> ast.InsertWhereQuery:
        self.expect("{")
        template = []
        while not self.accept("}"):
            template.append(self.pattern())
            if self.peek().kind != "}":
                self.expect(".")
            else:
                self.accept(".")
        if not template:
            raise self.fail("INSERT template is empty")
        self.expect("WHERE")
        patterns, filters = self.group()
        q = ast.InsertWhereQuery(tuple(template), tuple(patterns), tuple(filters))
        self.check_where_exprs(q.filters, q.patterns)
        return q

    # -- projection ----------------------------------------------------------

    def projection(self) -> Optional[tuple[ast.ProjItem, ...]]:
        if self.peek().kind == "*" and self.peek(1).kind == "WHERE":
            self.take()
            return None
        items: list[ast.ProjItem] = []
        while self.peek().kind != "WHERE":
            if self.peek().kind == "EOF":
                raise self.fail("projection ran into end of query; missing WHERE")
            if self.peek().kind == "(":
                # could be "(expr AS ?alias)" or just a parenthesized expr;
                # expr() re-consumes the paren group in the latter case
                mark = self.pos
                self.take()
                expr = self.expr()
                if self.accept("AS"):
                    alias = self.expect("VAR").text
                    self.expect(")")
                    items.append(ast.ProjItem(expr, alias))
                    continue
                self.pos = mark
            expr = self.expr()
            alias = self.expect("VAR").text if self.accept("AS") else None
            items.append(ast.ProjItem(expr, alias))
        if not items:
            raise self.fail("projection is empty")
        return tuple(items)

    # -- where group ---------------------------------------------------------

    def group(self) -> tuple[list[TriplePattern], list[ast.Expr]]:
        self.expect("{")
        patterns: list[TriplePattern] = []
        filters: list[ast.Expr] = []
        while not self.accept("}"):
            if self.peek().kind == "EOF":
                raise self.fail("unterminated WHERE group; missing '}'")
            if self.accept("FILTER"):
                # the expression normally comes parenthesized; parsing a full
                # expr here also accepts the conjunction style (A) && (B)
                filters.append(self.expr())
                self.accept(".")
                continue
            patterns.append(self.pattern())
            if self.peek().kind != "}":
                self.expect(".")
            else:
                self.accept(".")
        if not patterns:
            raise self.fail("WHERE group has no triple patterns")
        return patterns, filters

    def pattern(self) -> TriplePattern:
        s = self.pattern_term()
        p = self.predicate_term()
        o = self.pattern_term()
        return TriplePattern(s, p, o)

    def pattern_term(self) -> PatternTerm:
        tok = self.peek()
        if tok.kind == "<<":
            self.take()
            self.depth += 1
            if self.depth > MAX_QUOTE_DEPTH:
                raise QuerySyntaxError(
                    f"quoted patterns nest deeper than {MAX_QUOTE_DEPTH} levels", tok.line, tok.col
                )
            inner = self.pattern()
            self.expect(">>")
            self.depth -= 1
            ground = to_ground(inner)
            return inner if ground is None else Quoted(ground)
        if tok.kind == "IRI":
            self.take()
            return Iri(tok.text)
        if tok.kind == "VAR":
            self.take()
            return Variable(tok.text)
        if tok.kind == "IDENT":
            self.take()
            return self.param_ref(tok)
        if tok.kind in ("NUMBER", "STRING", "-"):
            return self.literal()
        raise self.fail(f"expected a pattern term, got {tok.text or 'end of query'!r}")

    def predicate_term(self) -> Union[Iri, Variable, ParamRef]:
        tok = self.peek()
        if tok.kind == "IRI":
            self.take()
            return Iri(tok.text)
        if tok.kind == "VAR":
            self.take()
            return Variable(tok.text)
        if tok.kind == "IDENT" and tok.text == "a":
            self.take()
            return Iri("rdf:type")
        if tok.kind == "IDENT":
            self.take()
            return self.param_ref(tok)
        raise self.fail(f"expected a predicate, got {tok.text or 'end of query'!r}")

    def param_ref(self, tok: Token) -> ParamRef:
        if tok.text not in self.params:
            raise QuerySyntaxError(
                f"unknown identifier {tok.text!r} (not a declared parameter)", tok.line, tok.col
            )
        return ParamRef(tok.text)

    def literal(self) -> Literal:
        if self.accept("-"):
            tok = self.expect("NUMBER")
            text = "-" + tok.text
        else:
            tok = self.peek()
            if tok.kind == "NUMBER":
                self.take()
                text = tok.text
            elif tok.kind == "STRING":
                self.take()
                tag = self.accept("TAG")
                if tag is None:
                    return Literal(tok.text, "string")
                try:
                    return typed_literal(tok.text, tag.text)
                except MalformedTermError as exc:
                    raise QuerySyntaxError(str(exc), tag.line, tag.col) from None
            else:
                raise self.fail("expected a literal")
        try:
            return number_literal(text)
        except MalformedTermError as exc:  # too many digits, or no decimal holds it, such as 1e999
            raise QuerySyntaxError(str(exc), tok.line, tok.col) from None

    # -- expressions ---------------------------------------------------------

    def expr(self) -> ast.Expr:
        return self.binary()[0]

    # Each expression method below returns the expression and the depth of
    # its tree, a leaf being 0 levels deep.

    def nested(self, parse) -> tuple[ast.Expr, int]:
        """Run ``parse`` for an expression one bracket level deeper."""
        self.expr_depth = self.level(self.peek(), self.expr_depth)
        inner = parse()
        self.expr_depth -= 1
        return inner

    def level(self, tok: Token, *below: int) -> int:
        """The level one above the deepest of ``below``."""
        depth = 1 + max(below)
        if depth > MAX_EXPR_DEPTH:
            raise QuerySyntaxError(f"expressions nest deeper than {MAX_EXPR_DEPTH} levels", tok.line, tok.col)
        return depth

    def binary(self, precedence: int = 0) -> tuple[ast.Expr, int]:
        """Operators of this precedence or tighter, folded to the left. A
        comparison takes no second comparison as its left operand."""
        if precedence == len(ast.PRECEDENCE):
            return self.unary()
        ops = ast.PRECEDENCE[precedence]
        left, depth = self.binary(precedence + 1)
        while self.peek().kind in ops:
            tok = self.take()
            right, right_depth = self.binary(precedence + 1)
            left, depth = ast.Binary(tok.kind, left, right), self.level(tok, depth, right_depth)
            if ops is ast.COMPARISONS:
                break
        return left, depth

    def unary(self) -> tuple[ast.Expr, int]:
        tok = self.peek()
        if tok.kind == "-" and self.peek(1).kind != "NUMBER":
            self.take()
            operand, depth = self.nested(self.unary)
            return ast.Binary("-", ast.Const(Literal(0, "integer")), operand), self.level(tok, depth)
        return self.primary()

    def primary(self) -> tuple[ast.Expr, int]:
        tok = self.peek()
        if tok.kind in ("NUMBER", "STRING", "-"):
            return ast.Const(self.literal()), 0
        if tok.kind == "IRI":
            self.take()
            return ast.Const(Iri(tok.text)), 0
        if tok.kind == "VAR":
            self.take()
            return ast.VarRef(tok.text), 0
        if tok.kind == "IDENT":
            self.take()
            return self.param_ref(tok), 0
        if tok.kind in ast.AGGREGATE_FUNCS:
            self.take()
            self.expect("(")
            arg, depth = self.nested(self.binary)
            self.expect(")")
            return ast.Aggregate(tok.kind, arg), self.level(tok, depth)
        if tok.kind in ast.CALL_FUNCS:
            self.take()
            self.expect("(")
            args = [self.nested(self.binary)]
            while self.accept(","):
                args.append(self.nested(self.binary))
            self.expect(")")
            want = ast.CALL_FUNCS[tok.kind]
            if len(args) != want:
                raise QuerySyntaxError(
                    f"{tok.kind} takes {want} argument{'s' if want > 1 else ''}, got {len(args)}",
                    tok.line,
                    tok.col,
                )
            call = ast.Call(tok.kind, tuple(arg for arg, _ in args))
            return call, self.level(tok, *(depth for _, depth in args))
        if self.accept("("):
            inner = self.nested(self.binary)
            self.expect(")")
            return inner
        raise self.fail(f"expected an expression, got {tok.text or 'end of query'!r}")

    # -- structural validation -----------------------------------------------

    def check_select(self, q: ast.SelectQuery) -> None:
        pattern_vars = set(q.pattern_variables())
        self.check_where_exprs(q.filters, q.patterns)
        if q.group_by is not None and q.group_by not in pattern_vars:
            raise QuerySyntaxError(f"GROUP BY variable ?{q.group_by} does not occur in WHERE")
        if q.order_by is not None and q.order_by[0] not in pattern_vars:
            raise QuerySyntaxError(f"ORDER BY variable ?{q.order_by[0]} does not occur in WHERE")
        if q.projection is None:
            return
        any_aggregate = False
        for item in q.projection:
            for node in ast.walk_expr(item.expr):
                if isinstance(node, ast.VarRef) and node.name not in pattern_vars:
                    raise QuerySyntaxError(f"projected variable ?{node.name} does not occur in WHERE")
                if isinstance(node, ast.Aggregate):
                    any_aggregate = True
                    if ast.has_aggregate(node.arg):
                        raise QuerySyntaxError("aggregates cannot nest")
        if any_aggregate:
            for item in q.projection:
                if ast.has_aggregate(item.expr):
                    continue
                if not isinstance(item.expr, ast.VarRef):
                    raise QuerySyntaxError(
                        "with aggregation, every non-aggregate projection item must be a plain variable"
                    )
                if q.group_by is not None and item.expr.name != q.group_by:
                    raise QuerySyntaxError(
                        f"projected variable ?{item.expr.name} is not the GROUP BY variable"
                    )
        elif q.group_by is not None:
            raise QuerySyntaxError("GROUP BY without aggregates in the projection")

    def check_where_exprs(self, filters: Iterable[ast.Expr], patterns: tuple[TriplePattern, ...]) -> None:
        pattern_vars: set[str] = set()
        for p in patterns:
            pattern_vars |= set(p.variables())
        for f in filters:
            for node in ast.walk_expr(f):
                if isinstance(node, ast.Aggregate):
                    raise QuerySyntaxError("aggregates are not allowed in FILTER")
                if isinstance(node, ast.VarRef) and node.name not in pattern_vars:
                    raise QuerySyntaxError(f"filter variable ?{node.name} does not occur in WHERE")


def parse_query(text: str, params: Iterable[str] = ()) -> ast.Query:
    """Parse query text. ``params`` declares the free identifiers (runtime
    parameters) the text may reference; anything else is a syntax error."""
    return _Parser(tokenize(text), frozenset(params)).query()
