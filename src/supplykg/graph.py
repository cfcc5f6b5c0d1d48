"""In-memory triple store with subject/predicate/object indices.

Set semantics: inserting a triple twice is a no-op. The store keeps no
order. ``triples()``, iteration, ``subjects`` and ``objects`` sort what they
read by each triple's canonical text form, regardless of insertion history.
``match``, ``snapshot``, ``about`` (one index bucket) and ``keys`` (one
index's terms) are unordered, for callers whose result does not depend on
order or that sort only what they need.

Each triple lives only in its three index buckets, with no triple set beside
them: its subject bucket answers membership, and the few dozen predicate
buckets give ``len`` and ``snapshot``. ``match`` substitutes the caller's
bindings into the pattern before it picks a bucket, so a variable bound by an
earlier join step narrows the scan like a constant would, and a pattern bound
in all three positions is one membership test. It decides once per call,
before the scan, which positions of a candidate it compares, which it binds
and which must repeat a variable; nested quoted patterns are read the same
way, one level down.
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
    substitute,
    to_ground,
)


class Graph:
    __slots__ = ("_by_subject", "_by_predicate", "_by_object")

    def __init__(self, triples: Iterable[Triple] = ()):
        self._by_subject: dict[Term, set[Triple]] = {}
        self._by_predicate: dict[Iri, set[Triple]] = {}
        self._by_object: dict[Term, set[Triple]] = {}
        for t in triples:
            self.insert(t)

    def insert(self, triple: Triple) -> bool:
        """Add a ground triple. Returns True if it was new."""
        if not isinstance(triple, Triple):
            raise TypeError(f"can only insert ground triples, got {triple!r}")
        # one probe of the subject bucket finds a duplicate, the three index
        # updates are written out, and a set is made only for a new bucket:
        # the load and the generator insert every triple through here
        bucket = self._by_subject.get(triple.subject)
        if bucket is None:
            self._by_subject[triple.subject] = {triple}
        else:
            before = len(bucket)
            bucket.add(triple)
            if len(bucket) == before:
                return False
        bucket = self._by_predicate.get(triple.predicate)
        if bucket is None:
            self._by_predicate[triple.predicate] = {triple}
        else:
            bucket.add(triple)
        bucket = self._by_object.get(triple.object)
        if bucket is None:
            self._by_object[triple.object] = {triple}
        else:
            bucket.add(triple)
        return True

    def remove(self, triple: Triple) -> bool:
        """Remove a triple. Returns True if it was present; anything that is
        not a ``Triple`` never is."""
        if triple not in self:
            return False
        for index, key in (
            (self._by_subject, triple.subject),
            (self._by_predicate, triple.predicate),
            (self._by_object, triple.object),
        ):
            bucket = index[key]
            bucket.discard(triple)
            if not bucket:
                del index[key]
        return True

    def __contains__(self, triple: object) -> bool:
        return isinstance(triple, Triple) and triple in self._by_subject.get(triple.subject, ())

    def __len__(self) -> int:
        return sum(map(len, self._by_predicate.values()))

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.triples())

    def triples(self) -> list[Triple]:
        """All triples in canonical order, as a new list the caller may change."""
        return sorted(self.snapshot(), key=format_triple)

    def snapshot(self) -> list[Triple]:
        """All triples in no set order, as a new list that later writes
        leave unchanged: for callers that sort by other means, or not at all."""
        return [t for bucket in self._by_predicate.values() for t in bucket]

    def about(self, position: int, term: Term) -> tuple[Triple, ...]:
        """The triples that hold ``term`` at ``position`` (0, 1, 2 being
        subject, predicate, object), in no set order, as a tuple that later
        writes leave unchanged: one index bucket, read without sorting."""
        return tuple((self._by_subject, self._by_predicate, self._by_object)[position].get(term, ()))

    def keys(self, position: int) -> list[Term]:
        """The distinct terms at ``position`` (as in ``about``), in no set
        order, as a new list."""
        return list((self._by_subject, self._by_predicate, self._by_object)[position])

    def copy(self) -> "Graph":
        g = Graph()
        g._by_subject = {k: set(v) for k, v in self._by_subject.items()}
        g._by_predicate = {k: set(v) for k, v in self._by_predicate.items()}
        g._by_object = {k: set(v) for k, v in self._by_object.items()}
        return g

    # -- matching -----------------------------------------------------------

    def _candidates(self, pattern: TriplePattern) -> Collection[Triple]:
        """An unordered superset of the pattern's matches, to read before the
        next write: the smallest index bucket of a ground position (a quoted
        pattern that spells a ground triple counts as ground), itself, or every
        triple if no position is ground. A position no bucket is keyed by, such
        as a literal subject, has no candidates. A pattern ground in all three
        positions is one membership test in the bucket picked."""
        best = None
        bound = []
        for term, index in (
            (pattern.subject, self._by_subject),
            (pattern.predicate, self._by_predicate),
            (pattern.object, self._by_object),
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
            if best is None or len(bucket) < len(best):
                best = bucket
            bound.append(term)
        if len(bound) == 3:
            triple = Triple(*bound)
            return [triple] if triple in best else []
        return self.snapshot() if best is None else best

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
        compared: list[str] = []
        wanted: list[Term] = []
        checks: list[tuple] = []
        narrowed = _read(pattern, bindings, "", names, reads, compared, wanted, checks)
        found = self._candidates(narrowed)
        if not found:
            return []
        if checks:
            found = [t for t in found if _fits(t, checks)]
        # with one top-level constant the candidates are its bucket, and with
        # three the one triple they spell: only two need comparing
        if len(compared) == 2:
            key, want = attrgetter(*compared), tuple(wanted)
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
        rows = self.match(TriplePattern(Variable("s"), predicate, obj))
        return sorted([r["s"] for r in rows], key=format_term)

    def objects(self, subject: Term, predicate: Iri) -> list[Term]:
        """Objects o such that (subject, predicate, o) holds, canonical order."""
        rows = self.match(TriplePattern(subject, predicate, Variable("o")))
        return sorted([r["o"] for r in rows], key=format_term)


_GET = {attr: attrgetter(attr) for attr in ("subject", "predicate", "object")}


def _read(
    pattern: TriplePattern,
    bindings: dict[str, Term],
    prefix: str,
    names: list[str],
    reads: list,
    compared: list[str],
    wanted: list[Term],
    checks: list[tuple],
) -> TriplePattern:
    """Decide how ``match`` reads ``pattern`` off each candidate, and return
    the pattern with its bound variables replaced by their values. Each leaf
    is a path of attributes from the triple (``subject.triple.object`` is
    the object of a quoted subject) and goes to one list:

    - ``names`` and ``reads``: each unbound variable, and the getter of its
      first occurrence;
    - ``compared`` and ``wanted``: the path of each constant or bound
      variable at the top level, and the term the candidate must hold there;
    - ``checks``, in the order the leaves are reached, a getter and what it
      must give: a quoted triple, where a nested pattern has variables,
      ``(get, None, None)``; the value of a variable's first occurrence, at
      a later one, ``(get, first, None)``; or a constant's term inside a
      nested pattern, ``(get, None, term)``. A nested pattern's check comes
      before its leaves', so each path exists when it is read."""
    s, p, o = pattern.subject, pattern.predicate, pattern.object
    parts = []
    for attr, term in (("subject", s), ("predicate", p), ("object", o)):
        if term.__class__ is Variable:
            bound = bindings.get(term.name)
            if bound is None:
                get = attrgetter(prefix + attr) if prefix else _GET[attr]
                if term.name in names:
                    checks.append((get, reads[names.index(term.name)], None))
                else:
                    names.append(term.name)
                    reads.append(get)
                parts.append(term)
                continue
            term = bound
        elif term.__class__ is TriplePattern:
            ground = to_ground(substitute(term, bindings))
            if ground is None:
                checks.append((attrgetter(prefix + attr), None, None))
                parts.append(_read(term, bindings, prefix + attr + ".triple.", names, reads, compared, wanted, checks))
                continue
            term = Quoted(ground)
        if prefix:
            checks.append((attrgetter(prefix + attr), None, term))
        else:
            compared.append(attr)
            wanted.append(term)
        parts.append(term)
    if parts[0] is s and parts[1] is p and parts[2] is o:
        return pattern
    return TriplePattern(*parts)


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
