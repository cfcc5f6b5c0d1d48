"""Entity shapes over supply-chain graphs, plus ingest normalization.

The graph store itself is schema-free. This module is where the package's
domain conventions live:

* ``normalize`` is the one rule for canonical spelling, one triple at a
  time: it rewrites legacy predicate aliases to the canonical vocabulary
  and folds unit-suffixed quantity strings ("10m", "100 unit") into plain
  integers, so downstream code sees one spelling. ``load_graph`` parses a
  file and inserts each line's triple as ``normalize`` spells it, in one
  pass.
* Each view dataclass (``NodeView``, ``OrderView``, ``CapacityView``,
  ``InventoryView``, ``PlanLine``, ``BomEdge``) has one ``Shape``, in the
  spirit of a SHACL node shape, and the shapes hold every value rule. A
  shape's ``Field``s give each property's attribute, predicate, kind,
  bounds, requiredness, cardinality and direction, in read order. The
  shape's one reader scans the entity's triples once and applies the
  fields; its one writer gives the triples back (``view.to_triples()``)
  and, from the same per-field templates, the triples an update removes
  and inserts (``old.changes(new)``: only those of the fields that
  differ); ``validate`` reports every problem the same fields find, and the
  generator's config check reads its bounds and allowed values from them.
  A few irregular parts are hooks of a shape: a node's class, its tier name
  (``tier_iri`` names every tier by the node class it holds), its KPI pairs, a
  supplier's zero or more products, and the quoted subject of a plan line
  or a bill-of-materials edge. ``capacity_iri`` names the capacity
  records the simulator creates.
* ``due_schedule``, ``current_inventory`` and ``capacity_by_step`` are the
  one definition of when an order is due and in what order, which
  inventory record is current, and which capacity record a step books
  onto. The simulator builds its ledgers from them.

Readers raise ``MissingEntityError`` when a required entity or property
is absent, has more than one value, is of the wrong kind (an IRI, an
integer, a timestep, ...) or is out of range, never silently default.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import attrgetter

from . import vocab as v
from .graph import Graph
from .serialization import parse_triples
from .terms import (
    BOOLEAN,
    INTEGER,
    STRING,
    TIMESTEP,
    Iri,
    Literal,
    MalformedTermError,
    Quoted,
    Triple,
    format_term,
    format_triple,
    number_literal,
)


class MissingEntityError(ValueError):
    """A required entity or property is absent, or a value breaks a rule
    (``problem`` names which)."""

    def __init__(self, message, problem=None):
        super().__init__(message)
        self.problem = problem


# ASCII digits, optional spaces and a unit, the whole string: ``fullmatch``,
# since ``$`` also matches before a final newline and ``\d`` any Unicode digit
_UNIT_RE = re.compile(r"([0-9]+)\s*(" + "|".join(v.QUANTITY_UNITS) + r")")

_QUANTITY_PREDICATES = {v.HAS_QUANTITY, v.NEEDS_QUANTITY}


def _rewrite(term):
    if isinstance(term, Quoted):
        inner = normalize(term.triple)
        return term if inner is term.triple else Quoted(inner)
    return term


def normalize(t: Triple) -> Triple:
    """``t`` in the canonical vocabulary, or ``t`` itself when it already
    is: an alias predicate becomes the name it stands for, also inside
    quoted terms, and a unit-suffixed quantity string ("10m", "100 unit")
    becomes the integer its digits spell. An alias IRI at a subject or
    object stays as written. Raises ``MalformedTermError``, naming the
    triple's subject and predicate, on digits too many to read."""
    pred = v.ALIASES.get(t.predicate, t.predicate)
    s, o = _rewrite(t.subject), _rewrite(t.object)
    m = pred in _QUANTITY_PREDICATES and isinstance(o, Literal) and o.datatype == STRING and _UNIT_RE.fullmatch(o.value)
    if m:
        try:
            o = number_literal(m.group(1))
        except MalformedTermError as exc:
            raise MalformedTermError(f"{_name(t.subject)} {t.predicate.name}: {exc}") from None
    if s is t.subject and pred is t.predicate and o is t.object:
        return t
    return Triple(s, pred, o)


def load_graph(path) -> Graph:
    """Read a graph file into one graph in the canonical vocabulary: each
    line's triple is inserted once, as ``normalize`` spells it. A triple
    ``normalize`` rejects is a ``GraphParseError`` at its line."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    graph = Graph()
    triples = parse_triples(text)
    for t in triples:
        try:
            t = normalize(t)
        except MalformedTermError as exc:
            triples.throw(exc)
        graph.insert(t)
    return graph


# What a value of each kind is called in a message: ``Iri`` or a literal datatype.
_KIND_NOUNS = {Iri: "an IRI", INTEGER: "an integer", STRING: "a string", BOOLEAN: "a boolean", TIMESTEP: "a timestep"}


def _name(subject):
    return subject.name if isinstance(subject, Iri) else format_term(subject)


def holds(rule, cls) -> bool:
    """Whether a field rule (True, False or node classes) holds for class ``cls``."""
    return rule if isinstance(rule, bool) else cls in rule


@dataclass(frozen=True, slots=True)
class Field:
    """One property of an entity, like a SHACL property shape: the view
    ``attr`` that holds it, its ``predicate``, its ``kind`` (``Iri``, held
    as the name, or a literal datatype), inclusive integer bounds
    ``lo``..``hi`` (None leaves a side open), the ``allowed`` values, like
    SHACL's ``sh:in`` (None allows any), and whether it is ``required`` and
    ``single``: True, False or the node classes it holds for. Unless
    ``single`` is True the attribute is a tuple in canonical order. An
    ``inward`` triple points into the entity and has exactly one value.
    Fields that share an attribute fill it with sorted (predicate name,
    value) pairs."""

    attr: str
    predicate: Iri
    kind: object
    lo: int | None = None
    hi: int | None = None
    allowed: tuple | None = None
    required: bool | tuple = False
    single: bool | tuple = True
    inward: bool = False

    def read(self, subject, terms, cls):
        """The attribute value of ``terms``, the objects (subjects if inward)
        of ``subject``'s triples with this predicate, for class ``cls``. The
        error's ``problem`` names the rule broken: "missing", "multi-valued",
        "out-of-range" or the wrong kind, such as "not-iri"."""
        if self.inward and len(terms) != 1:
            raise MissingEntityError(f"{_name(subject)} must have exactly one {self.attr}, found {len(terms)}")
        if len(terms) > 1 and holds(self.single, cls):
            raise MissingEntityError(f"{_name(subject)} {self.predicate.name} must have a single value", "multi-valued")
        if not terms and holds(self.required, cls):
            raise MissingEntityError(f"{_name(subject)} has no {self.predicate.name}", "missing")
        values = tuple(self.value(subject, term, cls) for term in terms)
        if self.single is not True:
            return values
        return values[0] if values else None

    def value(self, subject, term, cls):
        """The value one term holds, if it is of this field's kind and in bounds."""
        if isinstance(term, Iri) and self.kind is Iri:
            return term.name
        if isinstance(term, Literal) and term.datatype == self.kind:
            rule = self.broken(term.value)
            if rule is not None:
                raise MissingEntityError(f"{_name(subject)} {self.predicate.name} {rule}, got {term.value}", "out-of-range")
            return term.value
        problem = "not-iri" if self.kind is Iri else f"not-{self.kind}"
        raise MissingEntityError(f"{_name(subject)} {self.predicate.name} is not {_KIND_NOUNS[self.kind]}", problem)

    def broken(self, value) -> str | None:
        """The rule ``value``, of this field's kind, breaks, such as "must be
        >= 1", "must be in 0..100" or "must be one of road, rail", or None
        when it keeps them all."""
        lo, hi = self.lo, self.hi
        if self.allowed is not None and value not in self.allowed:
            return "must be one of " + ", ".join(self.allowed)
        if (lo is not None and value < lo) or (hi is not None and value > hi):
            return f"must be >= {lo}" if hi is None else f"must be in {lo}..{hi}"
        return None


def _tier_class(kind: Iri | None) -> Iri:
    return v.SUPPLIER_TIER if kind == v.SUPPLIER else v.CUSTOMER_TIER


def tier_iri(kind: Iri, number: int) -> Iri:
    """The name of tier ``number`` (from 1) for nodes of class ``kind``:
    ``SupplierTier<n>`` for suppliers, ``CustomerTier<n>`` for every other
    class. These are the only tier names a node's shape reads."""
    return Iri(f"{_tier_class(kind).name}{number}")


_TIER_NUMBER = re.compile(r"[1-9]\d*")


class _TierField(Field):
    """The tier hook: a node's tier is the number in the name ``tier_iri``
    gives it for the node's class. Any other name, such as a supplier's
    ``CustomerTier1``, raises with ``problem`` "not-tier"."""

    __slots__ = ()

    def value(self, subject, term, cls):
        name = super().value(subject, term, cls)
        side = _tier_class(cls).name
        number = name[len(side) :]
        if not name.startswith(side) or not _TIER_NUMBER.fullmatch(number):
            raise MissingEntityError(f"{subject.name} {self.predicate.name} {name} is not named {side}<n>", "not-tier")
        return int(number)

    def term(self, value, view):
        return tier_iri(Iri(view.kind), value)


def _grouped(triples, side: str) -> dict:
    """The terms at ``side`` ("subject" or "object") of ``triples``, per
    predicate, in the canonical order of their triples. Only a predicate
    with two or more triples is sorted: ``triples`` comes unordered from an
    index bucket, and sorting each group by ``format_triple`` gives the
    order of the triples' lines in the serialized graph."""
    groups: dict = {}
    for t in triples:
        groups.setdefault(t.predicate, []).append(t)
    get = attrgetter(side)
    return {p: [get(t) for t in (sorted(g, key=format_triple) if len(g) > 1 else g)] for p, g in groups.items()}


def _delta(gone: list, added: list, old: list, new: list) -> None:
    """Add the triples only ``old`` holds to ``gone``, those only ``new`` holds to ``added``."""
    gone += [t for t in old if t not in new]
    added += [t for t in new if t not in old]


class Shape:
    """The one declaration of an entity: its view class, its ``fields`` in
    read order, its subject's class ``cls``, and two hooks. ``key`` names
    the subject: the view attribute holding its IRI's name, or (attribute,
    predicate, attribute) for a quoted triple of two IRIs, also written
    itself when ``asserted``. A node's ``kinds`` are the classes one of
    which its attribute ``kind`` names. A shape gives its view class
    ``to_triples`` and ``changes``."""

    def __init__(self, view, fields, cls=None, key="id", kinds=(), asserted=False):
        self.view, self.fields, self.cls, self.key, self.kinds, self.asserted = view, fields, cls, key, kinds, asserted
        self._pairs = tuple(sorted({f.attr for f in fields if sum(g.attr == f.attr for g in fields) > 1}))
        self.field = {f.attr: f for f in fields if f.attr not in self._pairs}  # by attribute
        view.to_triples, view.changes = self._writers()

    def scan(self, graph: Graph, subject, **given) -> tuple[dict, list]:
        """Every field of ``subject`` read in order from one scan of its
        triples: the attribute values (None where unreadable) and a (field,
        error) pair per broken rule, led by (None, error) for a node without
        its classes. ``given`` attributes, such as a record's owner, are not read."""
        objects = _grouped(graph.about(0, subject), "object")
        subjects = None  # of the triples into ``subject``, read for the first inward field
        if isinstance(self.key, str):
            values = {self.key: subject.name}
        else:
            values = {self.key[0]: subject.triple.subject.name, self.key[2]: subject.triple.object.name}
        values.update(given)
        problems = []
        cls = None
        if self.kinds:
            types = objects.get(v.RDF_TYPE, ())
            cls = next((k for k in self.kinds if k in types), None)
            values["kind"] = None if cls is None else cls.name
            if cls is None or self.cls not in types:
                problems.append((None, MissingEntityError(f"{_name(subject)} is not a typed supply-chain node")))
        for attr in self._pairs:
            values[attr] = []
        for f in self.fields:
            if f.attr in given:
                continue
            if f.inward:
                if subjects is None:
                    subjects = _grouped(graph.about(2, subject), "subject")
                terms = subjects.get(f.predicate, ())
            else:
                terms = objects.get(f.predicate, ())
            try:
                value = f.read(subject, terms, cls)
            except MissingEntityError as exc:
                problems.append((f, exc))
                value = None
            if f.attr not in self._pairs:
                values[f.attr] = value
            elif value is not None:
                values[f.attr].append((f.predicate.name, value))
        for attr in self._pairs:
            values[attr] = tuple(sorted(values[attr]))
        return values, problems

    def read(self, graph: Graph, subject, **given):
        """The view of ``subject``; raises the first problem ``scan`` finds."""
        values, problems = self.scan(graph, subject, **given)
        if problems:
            raise problems[0][1]
        return self.view(**values)

    def _writers(self):
        """The views' ``to_triples`` and ``changes``. ``view.to_triples()``
        gives the view's triples, exactly those its reader consumes.
        ``old.changes(new)`` gives (gone, added): for each attribute whose
        value differs, the triples that only ``old`` holds and those that
        only ``new`` holds; when the keys differ, all of both views'
        triples. Like ``dataclasses`` makes ``__init__``, both are made as
        Python source from one triple template per attribute, so that they
        run as fast as hand-written bodies."""
        env = {"Iri": Iri, "Literal": Literal, "Quoted": Quoted, "Triple": Triple, "TYPE": v.RDF_TYPE, "CLS": self.cls}
        env["delta"] = _delta
        if isinstance(self.key, str):
            keys, subject = [self.key], f"Iri({{v}}.{self.key})"
        else:
            a, env["KEY"], b = self.key
            keys, subject = [a, b], f"Quoted(Triple(Iri({{v}}.{a}), KEY, Iri({{v}}.{b})))"
        # (attribute, template of its triples: {x} a value, {v} the view, and
        # their number: "one", "opt" or the loop over a tuple's values)
        statements = [("kind", "Triple(s, TYPE, Iri({x}))", "one")] * bool(self.kinds)
        for i, f in enumerate(self.fields):
            env[f"F{i}"], env[f"P{i}"], env[f"K{i}"] = f, f.predicate, f.kind
            o = f"F{i}.term({{x}}, {{v}})" if type(f) is not Field else "Iri({x})" if f.kind is Iri else f"Literal({{x}}, K{i})"
            triple = f"Triple({o}, P{i}, s)" if f.inward else f"Triple(s, P{i}, {o})"
            if f.attr in self._pairs:
                form = f"for name, x in {{v}}.{f.attr} if name == {f.predicate.name!r}"
            else:
                form = "for x in {v}.%s" % f.attr if f.single is not True else "one" if f.required is True else "opt"
            statements.append((f.attr, triple, form))

        def listed(attr, triple, form, view):
            """Source of the list of ``view``'s triples of ``attr``."""
            single = triple.format(x=f"{view}.{attr}", v=view)
            if form == "one":
                return f"[{single}]"
            if form == "opt":
                return f"([{single}] if {view}.{attr} is not None else [])"
            return f"[{triple.format(x='x', v=view)} {form.format(v=view)}]"

        first = ["s.triple"] * self.asserted + ["Triple(s, TYPE, CLS)"] * (self.cls is not None)
        put, diff = [], []
        for attr, triple, form in statements:
            single = triple.format(x=f"view.{attr}", v="view")
            if form == "one":
                first.append(single)
            elif form == "opt":
                put.append(f"if view.{attr} is not None: out.append({single})")
            else:
                put.append(f"out += {listed(attr, triple, form, 'view')}")
            lists = f"delta(gone, added, {listed(attr, triple, form, 'old')}, {listed(attr, triple, form, 'new')})"
            # a hook's triple may read other attributes, so it is always compared
            diff.append(lists if "{v}" in triple else f"if old.{attr} != new.{attr}: {lists}")
        body = [f"s = {subject.format(v='view')}", f"out = [{', '.join(first)}]", *put, "return out"]
        exec("def to_triples(view):\n    " + "\n    ".join(body), env)
        moved = " or ".join(f"old.{k} != new.{k}" for k in keys)
        body = [f"if {moved}: return old.to_triples(), new.to_triples()", f"s = {subject.format(v='new')}"]
        body += ["gone, added = [], []", *diff, "return gone, added"]
        exec("def changes(old, new):\n    " + "\n    ".join(body), env)
        return env["to_triples"], env["changes"]


@dataclass(frozen=True, slots=True)
class NodeView:
    id: str
    kind: str
    tier: int | None
    saturation: int
    delivery_time: int
    group: int | None
    priority: int | None
    kpis: tuple[tuple[str, int], ...]
    co2: int | None
    longitude: int | None
    latitude: int | None
    transport_mode: str | None
    products: tuple[str, ...]


NODE_SHAPE = Shape(
    NodeView,
    (
        Field("saturation", v.HAS_SATURATION, INTEGER, lo=1, required=True),
        Field("delivery_time", v.HAS_DELIVERY_TIME, INTEGER, lo=1, required=True),
        Field("group", v.HAS_GROUP, INTEGER, lo=1),
        Field("priority", v.HAS_PRIORITY, INTEGER, lo=1, required=(v.CUSTOMER,)),
        *(Field("kpis", kpi, INTEGER, lo=0, hi=100) for kpi in v.KPI_PREDICATES),
        Field("co2", v.HAS_CO2, INTEGER),
        Field("longitude", v.HAS_LONGITUDE, INTEGER),
        Field("latitude", v.HAS_LATITUDE, INTEGER),
        _TierField("tier", v.BELONGS_TO_TIER, Iri),
        Field("transport_mode", v.HAS_TRANSPORT_MODE, STRING, allowed=v.TRANSPORT_MODES),
        Field("products", v.MANUFACTURES, Iri, required=(v.OEM,), single=(v.OEM,)),
    ),
    cls=v.NODE,
    kinds=(v.OEM, v.SUPPLIER, v.CUSTOMER),
)


def node(graph: Graph, iri: Iri) -> NodeView:
    return NODE_SHAPE.read(graph, iri)


def nodes_of_kind(graph: Graph, kind: Iri) -> list[Iri]:
    return [s for s in graph.subjects(v.RDF_TYPE, kind) if isinstance(s, Iri)]


def suppliers(graph: Graph, oem: Iri) -> list[Iri]:
    """The IRI subjects that ``hasOEM`` the OEM, in name order (their
    canonical order): the nodes the simulator books production on, each
    of which ``check_supplier`` checks."""
    return [s for s in graph.subjects(v.HAS_OEM, oem) if isinstance(s, Iri)]


def check_supplier(oem: str, node: str, kind: str | None) -> None:
    """Raise unless ``node``, a ``hasOEM`` subject of class ``kind``, may
    supply ``oem``: the OEM's suppliers are its ``hasOEM`` subjects of class
    Supplier, or the OEM itself. A node of no class is the node reader's to
    reject."""
    if kind not in (None, v.SUPPLIER.name) and node != oem:
        raise MissingEntityError(f"{node} hasOEM {oem} but is a {kind}, not a Supplier")


def the_oem(graph: Graph) -> Iri:
    oems = nodes_of_kind(graph, v.OEM)
    if len(oems) != 1:
        raise MissingEntityError(f"expected exactly one OEM node, found {len(oems)}")
    return oems[0]


@dataclass(frozen=True, slots=True)
class OrderView:
    id: str
    maker: str
    product: str
    quantity: int
    delivery_time: int
    fulfilled: bool | None
    supply_plan: str | None


ORDER_SHAPE = Shape(
    OrderView,
    (
        Field("maker", v.MAKES, Iri, required=True, inward=True),
        Field("product", v.HAS_PRODUCT, Iri, required=True),
        Field("delivery_time", v.HAS_DELIVERY_TIME, TIMESTEP, required=True),
        Field("fulfilled", v.IS_FULFILLED, BOOLEAN),
        Field("quantity", v.HAS_QUANTITY, INTEGER, lo=1, required=True),
        Field("supply_plan", v.HAS_SUPPLY_PLAN, Iri),
    ),
    cls=v.ORDER,
)


def orders(graph: Graph) -> list[OrderView]:
    """All orders, in canonical order-name order."""
    found = sorted(nodes_of_kind(graph, v.ORDER), key=lambda i: i.name)
    return [ORDER_SHAPE.read(graph, o) for o in found]


def due_schedule(graph: Graph, views: list[OrderView], oem_delivery_time: int) -> dict[int, list[OrderView]]:
    """The given orders keyed by the step at which production must start.

    An order is due at its delivery timestep minus the focal node's own
    delivery time. Within a step, orders are served by the making
    customer's priority (higher first), then order name.
    """
    priority = NODE_SHAPE.field["priority"]
    priorities: dict[str, int] = {}
    due: dict[int, list[OrderView]] = {}
    for o in views:
        if o.maker not in priorities:
            maker = Iri(o.maker)
            priorities[o.maker] = priority.read(maker, graph.objects(maker, priority.predicate), v.CUSTOMER)
        due.setdefault(o.delivery_time - oem_delivery_time, []).append(o)
    for step in due.values():
        step.sort(key=lambda o: (-priorities[o.maker], o.id))
    return due


def capacity_iri(node_id: str, t: int) -> Iri:
    """The name of the capacity record created for a node at step t."""
    return Iri(f"Cap{node_id}T{t}")


@dataclass(frozen=True, slots=True)
class CapacityView:
    id: str
    node: str
    product: str
    quantity: int
    timestep: int
    cost: int


CAPACITY_SHAPE = Shape(
    CapacityView,
    (
        Field("node", v.HAS_CAPACITY, Iri, required=True, inward=True),
        Field("product", v.HAS_PRODUCT, Iri, required=True),
        Field("timestep", v.HAS_TIME_STAMP, TIMESTEP, required=True),
        Field("quantity", v.HAS_QUANTITY, INTEGER, lo=0, required=True),
        Field("cost", v.HAS_COST, INTEGER, lo=0, required=True),
    ),
    cls=v.CAPACITY,
)


def capacity_records(graph: Graph, node_iri: Iri) -> list[CapacityView]:
    records = []
    for rec in graph.objects(node_iri, v.HAS_CAPACITY):
        if isinstance(rec, Iri):
            records.append(CAPACITY_SHAPE.read(graph, rec, node=node_iri.name))
    return sorted(records, key=lambda r: (r.timestep, r.id))


def capacity_by_step(graph: Graph, node_iri: Iri) -> dict[int, CapacityView]:
    """The node's capacity records keyed by timestep: at most one per step."""
    return one_per_step(node_iri.name, capacity_records(graph, node_iri))


def one_per_step(node: str, records) -> dict[int, CapacityView]:
    """The capacity records ``node`` links, keyed by timestep; two at one
    step raise, naming the first such step."""
    by_step: dict[int, CapacityView] = {}
    for record in sorted(records, key=lambda r: (r.timestep, r.id)):
        if record.timestep in by_step:
            raise MissingEntityError(f"{node} has more than one capacity record at step {record.timestep}")
        by_step[record.timestep] = record
    return by_step


@dataclass(frozen=True, slots=True)
class InventoryView:
    id: str
    node: str
    product: str
    quantity: int
    timestep: int


INVENTORY_SHAPE = Shape(
    InventoryView,
    (
        Field("node", v.HAS_INVENTORY, Iri, required=True, inward=True),
        Field("product", v.HAS_PRODUCT, Iri, required=True),
        Field("timestep", v.HAS_TIME_STAMP, TIMESTEP, required=True),
        Field("quantity", v.HAS_QUANTITY, INTEGER, lo=0, required=True),
    ),
    cls=v.INVENTORY,
)


def current_inventory(graph: Graph, node_iri: Iri) -> dict[str, InventoryView]:
    """The node's current inventory record per product name: of the records
    for one product, the latest (timestep, id) wins."""
    current: dict[str, InventoryView] = {}
    for rec in graph.objects(node_iri, v.HAS_INVENTORY):
        if isinstance(rec, Iri):
            view = INVENTORY_SHAPE.read(graph, rec, node=node_iri.name)
            held = current.get(view.product)
            if held is None or (view.timestep, view.id) > (held.timestep, held.id):
                current[view.product] = view
    return current


@dataclass(frozen=True, slots=True)
class PlanLine:
    """One line of an order's supply plan: ``quantity`` units of ``product``
    that ``node`` makes at ``timestep``. ``plan`` is None for an order
    without a supply plan, whose lines are never written."""

    plan: str | None
    node: str
    product: str
    timestep: int
    quantity: int
    unit_price: int


PLAN_LINE_SHAPE = Shape(
    PlanLine,
    (
        Field("product", v.GETS_PRODUCT, Iri, required=True),
        Field("timestep", v.HAS_TIME_STAMP, TIMESTEP, required=True),
        Field("quantity", v.HAS_QUANTITY, INTEGER, required=True),
        Field("unit_price", v.HAS_UNIT_PRICE, INTEGER, required=True),
    ),
    key=("plan", v.NEEDS_NODE, "node"),
)


@dataclass(frozen=True, slots=True)
class BomEdge:
    parent: str
    child: str
    quantity: int


BOM_EDGE_SHAPE = Shape(
    BomEdge,
    (Field("quantity", v.NEEDS_QUANTITY, INTEGER, lo=1, required=True),),
    key=("parent", v.NEEDS_PRODUCT, "child"),
    asserted=True,
)

# every shape, for code that walks them all
SHAPES = (NODE_SHAPE, ORDER_SHAPE, CAPACITY_SHAPE, INVENTORY_SHAPE, PLAN_LINE_SHAPE, BOM_EDGE_SHAPE)


def bom_edge(graph: Graph, parent: Iri, child: Iri) -> BomEdge:
    return BOM_EDGE_SHAPE.read(graph, Quoted(Triple(parent, v.NEEDS_PRODUCT, child)))


def bom(graph: Graph, parent: Iri) -> list[BomEdge]:
    """Direct components of a product, sorted by component name."""
    children = [c for c in graph.objects(parent, v.NEEDS_PRODUCT) if isinstance(c, Iri)]
    return sorted((bom_edge(graph, parent, c) for c in children), key=lambda e: e.child)
