"""In-memory triple store with subject/predicate/object indices.

Set semantics: inserting a triple twice is a no-op. The store keeps no
order. ``triples()``, iteration, ``subjects`` and ``objects`` sort what they
read by each triple's canonical text form, regardless of insertion history.
``match``, ``snapshot``, ``about`` (one index bucket) and ``keys`` (one
index's terms) are unordered, for callers whose result does not depend on
order or that sort only what they need.

Each triple lives only in its three index buckets, with no triple set beside
them: the indexes are one tuple, subject, predicate and object, numbered 0, 1
and 2 as ``about`` and ``keys`` number positions. The subject bucket answers
membership, and the few dozen predicate buckets give ``len`` and
``snapshot``. ``match`` reads the pattern once per call, with the caller's
bindings, before the scan: which positions of a candidate it binds, which
must repeat a variable, and the ``(position, term)`` pair of each position a
constant or a bound variable fixes. The bucket comes from those pairs, so a
variable bound by an earlier join step narrows the scan like a constant
would, and a pattern bound in all three positions is one membership test.
Nested quoted patterns are read the same way, one level down.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Collection, Iterable, Iterator

from .terms import (
    Iri,
    Quoted,
    Term,
    Triple,
    TriplePattern,
    Variable,
    format_term,
    format_triple,
    to_ground,
)


class Graph:
    __slots__ = ("_indexes",)

    def __init__(self, triples: Iterable[Triple] = ()):
        # the subject, predicate and object index: positions 0, 1 and 2
        self._indexes: tuple[dict[Term, set[Triple]], ...] = ({}, {}, {})
        for t in triples:
            self.insert(t)

    def insert(self, triple: Triple) -> bool:
        """Add a ground triple. Returns True if it was new."""
        if not isinstance(triple, Triple):
            raise TypeError(f"can only insert ground triples, got {triple!r}")
        # one probe of the subject bucket finds a duplicate, the three index
        # updates are written out, and a set is made only for a new bucket:
        # the load and the generator insert every triple through here
        by_subject, by_predicate, by_object = self._indexes
        bucket = by_subject.get(triple.subject)
        if bucket is None:
            by_subject[triple.subject] = {triple}
        else:
            before = len(bucket)
            bucket.add(triple)
            if len(bucket) == before:
                return False
        bucket = by_predicate.get(triple.predicate)
        if bucket is None:
            by_predicate[triple.predicate] = {triple}
        else:
            bucket.add(triple)
        bucket = by_object.get(triple.object)
        if bucket is None:
            by_object[triple.object] = {triple}
        else:
            bucket.add(triple)
        return True

    def remove(self, triple: Triple) -> bool:
        """Remove a triple. Returns True if it was present; anything that is
        not a ``Triple`` never is."""
        if triple not in self:
            return False
        for index, key in zip(self._indexes, (triple.subject, triple.predicate, triple.object)):
            bucket = index[key]
            bucket.discard(triple)
            if not bucket:
                del index[key]
        return True

    def __contains__(self, triple: object) -> bool:
        return isinstance(triple, Triple) and triple in self._indexes[0].get(triple.subject, ())

    def __len__(self) -> int:
        return sum(map(len, self._indexes[1].values()))

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.triples())

    def triples(self) -> list[Triple]:
        """All triples in canonical order, as a new list the caller may change."""
        return sorted(self.snapshot(), key=format_triple)

    def snapshot(self) -> list[Triple]:
        """All triples in no set order, as a new list that later writes
        leave unchanged: for callers that sort by other means, or not at all."""
        return [t for bucket in self._indexes[1].values() for t in bucket]

    def about(self, position: int, term: Term) -> tuple[Triple, ...]:
        """The triples that hold ``term`` at ``position`` (0, 1, 2 being
        subject, predicate, object), in no set order, as a tuple that later
        writes leave unchanged: one index bucket, read without sorting."""
        return tuple(self._indexes[position].get(term, ()))

    def keys(self, position: int) -> list[Term]:
        """The distinct terms at ``position`` (as in ``about``), in no set
        order, as a new list."""
        return list(self._indexes[position])

    def copy(self) -> "Graph":
        g = Graph()
        g._indexes = tuple({k: set(v) for k, v in index.items()} for index in self._indexes)
        return g

    # -- matching -----------------------------------------------------------

    def _candidates(self, bound: list[tuple[int, Term]]) -> Collection[Triple]:
        """An unordered superset of the matches of a pattern whose bound
        positions are ``bound``, ``(position, term)`` pairs in position
        order, to read before the next write: the smallest index bucket of
        a bound position, itself, or every triple if no position is bound. A
        term no bucket is keyed by, such as a literal subject, has no
        candidates. Three bound positions are one membership test in the
        bucket picked."""
        best = None
        for position, term in bound:
            bucket = self._indexes[position].get(term)
            if bucket is None:
                return []
            if best is None or len(bucket) < len(best):
                best = bucket
        if best is None:
            return self.snapshot()
        if len(bound) == 3:
            (_, s), (_, p), (_, o) = bound
            triple = Triple(s, p, o)
            return [triple] if triple in best else []
        return best

    def match(self, pattern: TriplePattern, bindings: dict[str, Term] | None = None) -> list[dict[str, Term]]:
        """All solutions of a pattern against the graph, in no set order,
        each a new dict from variable name to term that the caller may
        keep. Prior bindings constrain the variables they mention, and the
        index lookup uses them: a bound variable narrows like a constant."""
        if not isinstance(pattern, TriplePattern):
            raise TypeError(f"match expects a TriplePattern, got {pattern!r}")
        if bindings is None:
            bindings = {}
        names: list[str] = []
        reads: list = []
        bound: list[tuple[int, Term]] = []
        checks: list[tuple] = []
        _read(pattern, bindings, "", names, reads, bound, checks)
        found = self._candidates(bound)
        if not found:
            return []
        if checks:
            found = [t for t in found if _fits(t, checks)]
        # with one bound position the candidates are its bucket, and with
        # three the one triple they spell: only two need comparing
        if len(bound) == 2:
            (p0, t0), (p1, t1) = bound
            key, want = attrgetter(_ATTRS[p0], _ATTRS[p1]), (t0, t1)
            found = [t for t in found if key(t) == want]
        if len(names) == 1:
            (n0,), (r0,) = names, reads
            return [{**bindings, n0: r0(t)} for t in found]
        if len(names) == 2:
            (n0, n1), (r0, r1) = names, reads
            return [{**bindings, n0: r0(t), n1: r1(t)} for t in found]
        return [{**bindings, **{n: r(t) for n, r in zip(names, reads)}} for t in found]

    def subjects(self, predicate: Iri, obj: Term) -> list[Term]:
        """Subjects s such that (s, predicate, obj) holds, canonical order:
        sorting s by its text sorts the triples' lines (see ``query.eval``)."""
        rows = self.match(TriplePattern(_S, predicate, obj))
        return sorted([r["s"] for r in rows], key=format_term)

    def objects(self, subject: Term, predicate: Iri) -> list[Term]:
        """Objects o such that (subject, predicate, o) holds, canonical order."""
        rows = self.match(TriplePattern(subject, predicate, _O))
        return sorted([r["o"] for r in rows], key=format_term)


_S, _O = Variable("s"), Variable("o")
_ATTRS = ("subject", "predicate", "object")
_GET = [attrgetter(attr) for attr in _ATTRS]


def _read(
    pattern: TriplePattern,
    bindings: dict[str, Term],
    prefix: str,
    names: list[str],
    reads: list,
    bound: list[tuple[int, Term]],
    checks: list[tuple],
) -> None:
    """Decide, in one walk of ``pattern``, how ``match`` reads it off each
    candidate. Each leaf is a path of attributes from the triple
    (``subject.triple.object`` is the object of a quoted subject) and goes
    to one list:

    - ``names`` and ``reads``: each unbound variable, and the getter of its
      first occurrence;
    - ``bound``: the ``(position, term)`` pair of each constant or bound
      variable at the top level (0, 1, 2 being subject, predicate, object),
      from which ``_candidates`` picks a bucket; a nested pattern that its
      bindings make ground counts as its quoted triple;
    - ``checks``, in the order the leaves are reached, a getter and what it
      must give: a quoted triple, where a nested pattern has variables,
      ``(get, None, None)``; the value of a variable's first occurrence, at
      a later one, ``(get, first, None)``; or a constant's term inside a
      nested pattern, ``(get, None, term)``. A nested pattern's check comes
      before its leaves', so each path exists when it is read."""
    for position, attr, term in (
        (0, "subject", pattern.subject),
        (1, "predicate", pattern.predicate),
        (2, "object", pattern.object),
    ):
        if term.__class__ is Variable:
            value = bindings.get(term.name)
            if value is None:
                get = attrgetter(prefix + attr) if prefix else _GET[position]
                if term.name in names:
                    checks.append((get, reads[names.index(term.name)], None))
                else:
                    names.append(term.name)
                    reads.append(get)
                continue
            term = value
        elif term.__class__ is TriplePattern:
            ground = to_ground(term, bindings)
            if ground is None:
                checks.append((attrgetter(prefix + attr), None, None))
                _read(term, bindings, prefix + attr + ".triple.", names, reads, bound, checks)
                continue
            term = Quoted(ground)
        if prefix:
            checks.append((attrgetter(prefix + attr), None, term))
        else:
            bound.append((position, term))


def _fits(t: Triple, checks: list[tuple]) -> bool:
    """Whether ``t`` passes the ``checks`` of ``_read``."""
    for get, first, term in checks:
        if first is not None:
            if get(t) != first(t):
                return False
        elif term is not None:
            if get(t) != term:
                return False
        elif not isinstance(get(t), Quoted):
            return False
    return True
