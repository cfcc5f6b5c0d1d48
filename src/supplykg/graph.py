"""In-memory triple store with subject/predicate/object indices.

Set semantics: inserting a triple twice is a no-op. Iteration and pattern
matching are deterministic, ordered by each triple's canonical text form, so
two graphs with equal content always behave identically regardless of
insertion history.

``match`` substitutes the caller's bindings into the pattern before it picks
an index, so a variable bound by an earlier join step narrows the scan like a
constant would. Each index bucket is sorted into canonical order once, on
first use, and that order is cached until a write touches the bucket.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .terms import (
    Iri,
    Quoted,
    Term,
    Triple,
    TriplePattern,
    Variable,
    format_triple,
    substitute,
    to_ground,
    unify,
)


class Graph:
    __slots__ = ("_triples", "_by_subject", "_by_predicate", "_by_object", "_sorted", "_bucket_order")

    def __init__(self, triples: Iterable[Triple] = ()):
        self._triples: set[Triple] = set()
        self._by_subject: dict[Term, set[Triple]] = {}
        self._by_predicate: dict[Iri, set[Triple]] = {}
        self._by_object: dict[Term, set[Triple]] = {}
        self._sorted: list[Triple] | None = None
        # (position, key) -> that index bucket in canonical order; position
        # 0, 1, 2 is subject, predicate, object
        self._bucket_order: dict[tuple[int, Term], list[Triple]] = {}
        for t in triples:
            self.insert(t)

    def insert(self, triple: Triple) -> bool:
        """Add a ground triple. Returns True if it was new."""
        if not isinstance(triple, Triple):
            raise TypeError(f"can only insert ground triples, got {triple!r}")
        if triple in self._triples:
            return False
        self._triples.add(triple)
        self._by_subject.setdefault(triple.subject, set()).add(triple)
        self._by_predicate.setdefault(triple.predicate, set()).add(triple)
        self._by_object.setdefault(triple.object, set()).add(triple)
        self._forget_order(triple)
        return True

    def remove(self, triple: Triple) -> bool:
        """Remove a triple. Returns True if it was present."""
        if triple not in self._triples:
            return False
        self._triples.discard(triple)
        for index, key in (
            (self._by_subject, triple.subject),
            (self._by_predicate, triple.predicate),
            (self._by_object, triple.object),
        ):
            bucket = index[key]
            bucket.discard(triple)
            if not bucket:
                del index[key]
        self._forget_order(triple)
        return True

    def _forget_order(self, triple: Triple) -> None:
        self._sorted = None
        order = self._bucket_order
        if order:  # empty while a graph is loaded, so loading hashes no keys
            order.pop((0, triple.subject), None)
            order.pop((1, triple.predicate), None)
            order.pop((2, triple.object), None)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.triples())

    def triples(self) -> list[Triple]:
        """All triples in canonical order."""
        if self._sorted is None:
            self._sorted = sorted(self._triples, key=format_triple)
        return self._sorted

    def copy(self) -> "Graph":
        g = Graph()
        g._triples = set(self._triples)
        g._by_subject = {k: set(v) for k, v in self._by_subject.items()}
        g._by_predicate = {k: set(v) for k, v in self._by_predicate.items()}
        g._by_object = {k: set(v) for k, v in self._by_object.items()}
        # the cached lists are never mutated, only dropped, so both graphs
        # can hold them until their own writes drop them
        g._sorted = self._sorted
        g._bucket_order = dict(self._bucket_order)
        return g

    # -- matching -----------------------------------------------------------

    def _candidates(self, pattern: TriplePattern) -> list[Triple]:
        """A canonically ordered superset of the pattern's matches: the
        smallest index bucket of a ground position (a quoted pattern that
        spells a ground triple counts as ground), or every triple if no
        position is. A position no bucket is keyed by, such as a literal
        subject, has no candidates."""
        best = None
        for pos, term, index in (
            (0, pattern.subject, self._by_subject),
            (1, pattern.predicate, self._by_predicate),
            (2, pattern.object, self._by_object),
        ):
            if isinstance(term, Variable):
                continue
            if isinstance(term, TriplePattern):
                ground = to_ground(term)
                if ground is None:
                    continue
                term = Quoted(ground)
            bucket = index.get(term)
            if bucket is None:
                return []
            if best is None or len(bucket) < len(best[2]):
                best = (pos, term, bucket)
        if best is None:
            return self.triples()
        pos, key, bucket = best
        ordered = self._bucket_order.get((pos, key))
        if ordered is None:
            ordered = self._bucket_order[(pos, key)] = sorted(bucket, key=format_triple)
        return ordered

    def match(self, pattern: TriplePattern, bindings: dict[str, Term] | None = None) -> list[dict[str, Term]]:
        """All solutions of a pattern against the graph, in canonical triple
        order, each a new dict from variable name to term that the caller
        may keep. Prior bindings constrain the variables they mention, and
        the index lookup uses them: a bound variable narrows like a constant."""
        if not isinstance(pattern, TriplePattern):
            raise TypeError(f"match expects a TriplePattern, got {pattern!r}")
        narrowed = substitute(pattern, bindings) if bindings else pattern
        out = []
        for t in self._candidates(narrowed):
            got = unify(pattern, t, bindings)
            if got is not None:
                out.append(got)
        return out

    def subjects(self, predicate: Iri, obj: Term) -> list[Term]:
        """Subjects s such that (s, predicate, obj) holds, canonical order."""
        rows = self.match(TriplePattern(Variable("s"), predicate, obj))
        return [r["s"] for r in rows]

    def objects(self, subject: Term, predicate: Iri) -> list[Term]:
        """Objects o such that (subject, predicate, o) holds, canonical order."""
        rows = self.match(TriplePattern(subject, predicate, Variable("o")))
        return [r["o"] for r in rows]
