"""Typed views over supply-chain graphs, plus ingest normalization.

The graph store itself is schema-free. This module is where the package's
domain conventions live:

* ``load_graph`` / ``normalize`` rewrite legacy predicate aliases to the
  canonical vocabulary and fold unit-suffixed quantity strings ("10m",
  "100 unit") into plain integers, so downstream code sees one spelling.
  ``load_graph`` parses into one graph and ``normalize`` rewrites it in
  place, replacing only the triples whose canonical form differs.
* The view dataclasses (``NodeView``, ``OrderView``, ``CapacityView``,
  ``InventoryView``, ``PlanLine``, ``BomEdge``) materialize one entity
  each. Every view has a ``to_triples`` that gives exactly the triples
  the accessor consumed (a plan line has no accessor: the simulator only
  writes it), and the generator and simulator write records only through
  it; ``capacity_iri`` names the capacity records they create, and
  ``tier_iri`` every tier, by the node class it holds: the only names
  ``tier_index`` reads for that class.
* ``due_schedule``, ``current_inventory`` and ``capacity_by_step`` are the
  one definition of when an order is due and in what order, which
  inventory record is current, and which capacity record a step books
  onto. The simulator builds its ledgers from them.
* The readers hold every value rule: ``NODE_INTS`` bounds each integer
  node property and says which node classes must carry it, the ``MIN_*``
  constants bound record, edge and order quantities, and every
  single-valued property (a tier, a transport mode, an order's product,
  due step, verdict and supply plan, a record's product and timestep,
  every integer) is read through one reader, ``_value``; a supplier's
  products, none or several, through ``supplier_products``.
  ``validation`` reports what the readers raise, and the generator's
  config check uses the same bounds.

Accessors raise ``MissingEntityError`` when a required entity or property
is absent, has more than one value, is of the wrong kind (an IRI, an
integer, a timestep, ...) or is out of range, never silently default.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import vocab as v
from .graph import Graph
from .serialization import parse_graph_file
from .terms import (
    BOOLEAN,
    INTEGER,
    STRING,
    TIMESTEP,
    Iri,
    Literal,
    Quoted,
    Triple,
    boolean,
    format_term,
    integer,
    timestep,
)


class MissingEntityError(KeyError):
    """A required entity or property is absent, or a value breaks a rule
    (``problem`` names which)."""

    def __init__(self, message, problem=None):
        super().__init__(message)
        self.message = message
        self.problem = problem

    def __str__(self):
        return self.message


_UNIT_RE = re.compile(r"^(\d+)\s*(" + "|".join(v.QUANTITY_UNITS) + r")$")

_QUANTITY_PREDICATES = {v.HAS_QUANTITY, v.NEEDS_QUANTITY}


def _fold_units(predicate, obj):
    if predicate in _QUANTITY_PREDICATES and isinstance(obj, Literal) and obj.datatype == STRING:
        m = _UNIT_RE.match(obj.value)
        if m:
            return integer(int(m.group(1)))
    return obj


def _rewrite(term):
    if isinstance(term, Quoted):
        inner = _normalize_triple(term.triple)
        return term if inner is term.triple else Quoted(inner)
    return term


def _normalize_triple(t: Triple) -> Triple:
    """``t`` in the canonical vocabulary: ``t`` itself when it already is."""
    pred = v.ALIASES.get(t.predicate, t.predicate)
    s, o = _rewrite(t.subject), _fold_units(pred, _rewrite(t.object))
    if s is t.subject and pred is t.predicate and o is t.object:
        return t
    return Triple(s, pred, o)


def normalize(graph: Graph) -> Graph:
    """Fold alias predicates and unit-suffixed quantities in place, and
    return the same graph: a triple whose canonical form differs is replaced
    by it, the rest stay. The loop walks the cached ``triples()`` list,
    which a write drops but never changes."""
    for t in graph.triples():
        canonical = _normalize_triple(t)
        if canonical is not t:
            graph.remove(t)
            graph.insert(canonical)
    return graph


def load_graph(path) -> Graph:
    """Parse a graph file into one graph and normalize it in place to the
    canonical vocabulary."""
    return normalize(parse_graph_file(path))


def outside(value: int, lo: int | None, hi: int | None) -> str | None:
    """The rule ``value`` breaks, e.g. "must be >= 1", or None when it lies in lo..hi."""
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        return f"must be >= {lo}" if hi is None else f"must be in {lo}..{hi}"
    return None


# What a value of each kind is called in a message: ``Iri`` or a literal datatype.
_KIND_NOUNS = {Iri: "an IRI", INTEGER: "an integer", STRING: "a string", BOOLEAN: "a boolean", TIMESTEP: "a timestep"}


def _name(subject):
    return subject.name if isinstance(subject, Iri) else format_term(subject)


def _wrong_kind(subject, predicate, kind):
    """The error for a value of ``predicate`` that is not of ``kind``."""
    problem = "not-iri" if kind is Iri else f"not-{kind}"
    return MissingEntityError(f"{_name(subject)} {predicate.name} is not {_KIND_NOUNS[kind]}", problem)


def _value(graph, subject, predicate, kind, required=True):
    """The one value of ``subject``'s ``predicate``, of ``kind``: an IRI's
    name, or the value of a literal of that datatype. None when it is absent
    and not ``required``. The error's ``problem`` names the rule broken:
    "missing", "multi-valued" or one for the wrong kind, such as "not-iri"."""
    values = graph.objects(subject, predicate)
    if len(values) == 1:
        term = values[0]
        if kind is Iri and isinstance(term, Iri):
            return term.name
        if isinstance(term, Literal) and term.datatype == kind:
            return term.value
        raise _wrong_kind(subject, predicate, kind)
    if values:
        problem, fault = "multi-valued", f"{predicate.name} must have a single value"
    elif required:
        problem, fault = "missing", f"has no {predicate.name}"
    else:
        return None
    raise MissingEntityError(f"{_name(subject)} {fault}", problem)


def _int_value(graph, subject, predicate, lo=None, hi=None, required=True):
    """The one integer value of ``subject``'s ``predicate``, within the
    inclusive bounds ``lo``..``hi`` (None leaves a side open), or None when
    it is absent and not ``required``. Besides ``_value``'s problems, the
    error's ``problem`` is "out-of-range" for a value outside the bounds."""
    value = _value(graph, subject, predicate, INTEGER, required)
    rule = None if value is None else outside(value, lo, hi)
    if rule is not None:
        raise MissingEntityError(f"{_name(subject)} {predicate.name} {rule}, got {value}", "out-of-range")
    return value


# Each integer node property: its inclusive bounds (None leaves a side
# open) and the node classes that must carry it.
NODE_INTS = {
    v.HAS_SATURATION: (1, None, (v.OEM, v.SUPPLIER, v.CUSTOMER)),
    v.HAS_DELIVERY_TIME: (1, None, (v.OEM, v.SUPPLIER, v.CUSTOMER)),
    v.HAS_GROUP: (1, None, ()),
    v.HAS_PRIORITY: (1, None, (v.CUSTOMER,)),
    **{kpi: (0, 100, ()) for kpi in v.KPI_PREDICATES},
    v.HAS_CO2: (None, None, ()),
    v.HAS_LONGITUDE: (None, None, ()),
    v.HAS_LATITUDE: (None, None, ()),
}

# The least quantity (and capacity cost) of a capacity or inventory record,
# of a bill-of-materials edge and of an order.
MIN_RECORD_VALUE = 0
MIN_BOM_QUANTITY = 1
MIN_ORDER_QUANTITY = 1


def node_int(graph: Graph, iri: Iri, predicate: Iri, kind: Iri | None) -> int | None:
    """A node's value of one ``NODE_INTS`` property, read as a node of
    class ``kind``: None when absent and not required for that class."""
    lo, hi, required_by = NODE_INTS[predicate]
    return _int_value(graph, iri, predicate, lo, hi, kind in required_by)


def node_kind(graph: Graph, iri: Iri):
    """The node's class among Supplier, Customer, OEM, or None."""
    types = set(graph.objects(iri, v.RDF_TYPE))
    for kind in (v.OEM, v.SUPPLIER, v.CUSTOMER):
        if kind in types:
            return kind
    return None


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

    @property
    def iri(self) -> Iri:
        return Iri(self.id)

    def tier_iri(self) -> Iri | None:
        if self.tier is None:
            return None
        return tier_iri(Iri(self.kind), self.tier)

    def to_triples(self) -> list[Triple]:
        n = self.iri
        out = [
            Triple(n, v.RDF_TYPE, v.NODE),
            Triple(n, v.RDF_TYPE, Iri(self.kind)),
            Triple(n, v.HAS_SATURATION, integer(self.saturation)),
            Triple(n, v.HAS_DELIVERY_TIME, integer(self.delivery_time)),
        ]
        tier = self.tier_iri()
        if tier is not None:
            out.append(Triple(n, v.BELONGS_TO_TIER, tier))
        if self.group is not None:
            out.append(Triple(n, v.HAS_GROUP, integer(self.group)))
        if self.priority is not None:
            out.append(Triple(n, v.HAS_PRIORITY, integer(self.priority)))
        for name, value in self.kpis:
            out.append(Triple(n, Iri(name), integer(value)))
        if self.co2 is not None:
            out.append(Triple(n, v.HAS_CO2, integer(self.co2)))
        if self.longitude is not None:
            out.append(Triple(n, v.HAS_LONGITUDE, integer(self.longitude)))
        if self.latitude is not None:
            out.append(Triple(n, v.HAS_LATITUDE, integer(self.latitude)))
        if self.transport_mode is not None:
            out.append(Triple(n, v.HAS_TRANSPORT_MODE, Literal(self.transport_mode, STRING)))
        return out


def _tier_class(kind: Iri | None) -> Iri:
    return v.SUPPLIER_TIER if kind == v.SUPPLIER else v.CUSTOMER_TIER


def tier_iri(kind: Iri, number: int) -> Iri:
    """The name of tier ``number`` (from 1) for nodes of class ``kind``:
    ``SupplierTier<n>`` for suppliers, ``CustomerTier<n>`` for every other
    class. These are the only tier names ``tier_index`` reads."""
    return Iri(f"{_tier_class(kind).name}{number}")


_TIER_NUMBER = re.compile(r"[1-9]\d*")


def tier_index(graph: Graph, iri: Iri, kind: Iri | None) -> int | None:
    """The number of the tier a node of class ``kind`` belongs to, or None
    without one. A tier that ``tier_iri`` does not name for that class, such
    as a supplier's ``CustomerTier1``, raises with ``problem`` "not-tier"."""
    name = _value(graph, iri, v.BELONGS_TO_TIER, Iri, required=False)
    if name is None:
        return None
    side = _tier_class(kind).name
    number = name[len(side) :]
    if not name.startswith(side) or not _TIER_NUMBER.fullmatch(number):
        raise MissingEntityError(f"{iri.name} {v.BELONGS_TO_TIER.name} {name} is not named {side}<n>", "not-tier")
    return int(number)


def transport_mode(graph: Graph, iri: Iri) -> str | None:
    """The node's transport mode, or None without one."""
    return _value(graph, iri, v.HAS_TRANSPORT_MODE, STRING, required=False)


def node(graph: Graph, iri: Iri) -> NodeView:
    kind = node_kind(graph, iri)
    if kind is None or v.NODE not in graph.objects(iri, v.RDF_TYPE):
        raise MissingEntityError(f"{iri.name} is not a typed supply-chain node")
    values = {pred: node_int(graph, iri, pred, kind) for pred in NODE_INTS}
    kpis = [(pred.name, values[pred]) for pred in v.KPI_PREDICATES if values[pred] is not None]
    return NodeView(
        id=iri.name,
        kind=kind.name,
        tier=tier_index(graph, iri, kind),
        saturation=values[v.HAS_SATURATION],
        delivery_time=values[v.HAS_DELIVERY_TIME],
        group=values[v.HAS_GROUP],
        priority=values[v.HAS_PRIORITY],
        kpis=tuple(sorted(kpis)),
        co2=values[v.HAS_CO2],
        longitude=values[v.HAS_LONGITUDE],
        latitude=values[v.HAS_LATITUDE],
        transport_mode=transport_mode(graph, iri),
    )


def nodes_of_kind(graph: Graph, kind: Iri) -> list[Iri]:
    return [s for s in graph.subjects(v.RDF_TYPE, kind) if isinstance(s, Iri)]


def the_oem(graph: Graph) -> Iri:
    oems = nodes_of_kind(graph, v.OEM)
    if len(oems) != 1:
        raise MissingEntityError(f"expected exactly one OEM node, found {len(oems)}")
    return oems[0]


def manufactured_product(graph: Graph, iri: Iri) -> str:
    """The name of the one product a node manufactures."""
    return _value(graph, iri, v.MANUFACTURES, Iri)


def supplier_products(graph: Graph, iri: Iri) -> list[str]:
    """The names of the products a supplier manufactures, in canonical
    order: none, one or several, each an IRI."""
    made = graph.objects(iri, v.MANUFACTURES)
    if not all(isinstance(p, Iri) for p in made):
        raise _wrong_kind(iri, v.MANUFACTURES, Iri)
    return [p.name for p in made]


@dataclass(frozen=True, slots=True)
class OrderView:
    id: str
    maker: str
    product: str
    quantity: int
    delivery_time: int
    fulfilled: bool | None
    supply_plan: str | None

    @property
    def iri(self) -> Iri:
        return Iri(self.id)

    def to_triples(self) -> list[Triple]:
        o = self.iri
        out = [
            Triple(o, v.RDF_TYPE, v.ORDER),
            Triple(Iri(self.maker), v.MAKES, o),
            Triple(o, v.HAS_PRODUCT, Iri(self.product)),
            Triple(o, v.HAS_QUANTITY, integer(self.quantity)),
            Triple(o, v.HAS_DELIVERY_TIME, timestep(self.delivery_time)),
        ]
        if self.fulfilled is not None:
            out.append(Triple(o, v.IS_FULFILLED, boolean(self.fulfilled)))
        if self.supply_plan is not None:
            out.append(Triple(o, v.HAS_SUPPLY_PLAN, Iri(self.supply_plan)))
        return out


def order(graph: Graph, iri: Iri) -> OrderView:
    if v.ORDER not in graph.objects(iri, v.RDF_TYPE):
        raise MissingEntityError(f"{iri.name} is not an order")
    makers = graph.subjects(v.MAKES, iri)
    if len(makers) != 1:
        raise MissingEntityError(f"{iri.name} must have exactly one maker, found {len(makers)}")
    return OrderView(
        id=iri.name,
        maker=makers[0].name,
        product=_value(graph, iri, v.HAS_PRODUCT, Iri),
        delivery_time=_value(graph, iri, v.HAS_DELIVERY_TIME, TIMESTEP),
        fulfilled=_value(graph, iri, v.IS_FULFILLED, BOOLEAN, required=False),
        quantity=_int_value(graph, iri, v.HAS_QUANTITY, MIN_ORDER_QUANTITY),
        supply_plan=_value(graph, iri, v.HAS_SUPPLY_PLAN, Iri, required=False),
    )


def orders(graph: Graph) -> list[OrderView]:
    """All orders, in canonical order-name order."""
    found = sorted(nodes_of_kind(graph, v.ORDER), key=lambda i: i.name)
    return [order(graph, o) for o in found]


def due_schedule(graph: Graph, views: list[OrderView], oem_delivery_time: int) -> dict[int, list[OrderView]]:
    """The given orders keyed by the step at which production must start.

    An order is due at its delivery timestep minus the focal node's own
    delivery time. Within a step, orders are served by the making
    customer's priority (higher first), then order name.
    """
    priorities: dict[str, int] = {}
    due: dict[int, list[OrderView]] = {}
    for o in views:
        if o.maker not in priorities:
            priorities[o.maker] = node_int(graph, Iri(o.maker), v.HAS_PRIORITY, v.CUSTOMER)
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

    @property
    def iri(self) -> Iri:
        return Iri(self.id)

    def to_triples(self) -> list[Triple]:
        c = self.iri
        return [
            Triple(c, v.RDF_TYPE, v.CAPACITY),
            Triple(Iri(self.node), v.HAS_CAPACITY, c),
            Triple(c, v.HAS_PRODUCT, Iri(self.product)),
            Triple(c, v.HAS_QUANTITY, integer(self.quantity)),
            Triple(c, v.HAS_TIME_STAMP, timestep(self.timestep)),
            Triple(c, v.HAS_COST, integer(self.cost)),
        ]


def _product_and_step(graph: Graph, record: Iri) -> tuple[str, int]:
    """The product and timestep every capacity or inventory record carries."""
    return _value(graph, record, v.HAS_PRODUCT, Iri), _value(graph, record, v.HAS_TIME_STAMP, TIMESTEP)


def capacity_record(graph: Graph, node_iri: Iri, record: Iri) -> CapacityView:
    product, step = _product_and_step(graph, record)
    return CapacityView(
        id=record.name,
        node=node_iri.name,
        product=product,
        quantity=_int_value(graph, record, v.HAS_QUANTITY, MIN_RECORD_VALUE),
        timestep=step,
        cost=_int_value(graph, record, v.HAS_COST, MIN_RECORD_VALUE),
    )


def capacity_records(graph: Graph, node_iri: Iri) -> list[CapacityView]:
    records = []
    for rec in graph.objects(node_iri, v.HAS_CAPACITY):
        if isinstance(rec, Iri):
            records.append(capacity_record(graph, node_iri, rec))
    return sorted(records, key=lambda r: (r.timestep, r.id))


def capacity_by_step(graph: Graph, node_iri: Iri) -> dict[int, CapacityView]:
    """The node's capacity records keyed by timestep: at most one per step."""
    by_step: dict[int, CapacityView] = {}
    for record in capacity_records(graph, node_iri):
        if record.timestep in by_step:
            raise MissingEntityError(
                f"{node_iri.name} has more than one capacity record at step {record.timestep}"
            )
        by_step[record.timestep] = record
    return by_step


@dataclass(frozen=True, slots=True)
class InventoryView:
    id: str
    node: str
    product: str
    quantity: int
    timestep: int

    @property
    def iri(self) -> Iri:
        return Iri(self.id)

    def to_triples(self) -> list[Triple]:
        i = self.iri
        return [
            Triple(i, v.RDF_TYPE, v.INVENTORY),
            Triple(Iri(self.node), v.HAS_INVENTORY, i),
            Triple(i, v.HAS_PRODUCT, Iri(self.product)),
            Triple(i, v.HAS_QUANTITY, integer(self.quantity)),
            Triple(i, v.HAS_TIME_STAMP, timestep(self.timestep)),
        ]


def inventory_record(graph: Graph, node_iri: Iri, record: Iri) -> InventoryView:
    product, step = _product_and_step(graph, record)
    return InventoryView(
        id=record.name,
        node=node_iri.name,
        product=product,
        quantity=_int_value(graph, record, v.HAS_QUANTITY, MIN_RECORD_VALUE),
        timestep=step,
    )


def current_inventory(graph: Graph, node_iri: Iri) -> dict[str, InventoryView]:
    """The node's current inventory record per product name: of the records
    for one product, the latest (timestep, id) wins."""
    current: dict[str, InventoryView] = {}
    for rec in graph.objects(node_iri, v.HAS_INVENTORY):
        if isinstance(rec, Iri):
            view = inventory_record(graph, node_iri, rec)
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

    def to_triples(self) -> list[Triple]:
        line = Quoted(Triple(Iri(self.plan), v.NEEDS_NODE, Iri(self.node)))
        return [
            Triple(line, v.GETS_PRODUCT, Iri(self.product)),
            Triple(line, v.HAS_TIME_STAMP, timestep(self.timestep)),
            Triple(line, v.HAS_QUANTITY, integer(self.quantity)),
            Triple(line, v.HAS_UNIT_PRICE, integer(self.unit_price)),
        ]


@dataclass(frozen=True, slots=True)
class BomEdge:
    parent: str
    child: str
    quantity: int

    def to_triples(self) -> list[Triple]:
        inner = Triple(Iri(self.parent), v.NEEDS_PRODUCT, Iri(self.child))
        return [inner, Triple(Quoted(inner), v.NEEDS_QUANTITY, integer(self.quantity))]


def bom_edge(graph: Graph, parent: Iri, child: Iri) -> BomEdge:
    edge = Quoted(Triple(parent, v.NEEDS_PRODUCT, child))
    quantity = _int_value(graph, edge, v.NEEDS_QUANTITY, MIN_BOM_QUANTITY)
    return BomEdge(parent=parent.name, child=child.name, quantity=quantity)


def bom(graph: Graph, parent: Iri) -> list[BomEdge]:
    """Direct components of a product, sorted by component name."""
    children = [c for c in graph.objects(parent, v.NEEDS_PRODUCT) if isinstance(c, Iri)]
    return sorted((bom_edge(graph, parent, c) for c in children), key=lambda e: e.child)
