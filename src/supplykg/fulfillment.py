"""Discrete-time demand fulfillment with backward scheduling.

The engine walks timesteps 0..horizon-1. An order becomes due at
t = DT(order) - LT(focal node): the latest step at which production can
start and still deliver on time. Due orders are served strictly by
customer priority (ties by order name):

1. If the focal node's stock covers the full quantity, the order is
   fulfilled from inventory and stock is drained by that quantity.
2. Otherwise the remainder (quantity minus stock) must be produced at
   step t. That requires the focal node's committed load at t plus the
   remainder to stay within its saturation, and for every direct
   component of the product a supplier whose committed load at
   t0 = t - LT(supplier) leaves room for the required amount. Among
   feasible suppliers the one with the most free capacity wins, ties by
   name. Selection is all-or-nothing: if any component cannot be placed,
   nothing is committed and the order is marked unfulfilled.

``Simulation`` reads the focal node and its suppliers once, into one
table of ``NodeView``s by name; a node books capacity for its first
product, priced at its cost (0 without one). ``_serve`` is the one path
of an order: it reads the stock once, then tries stock, production and
rejection in turn. Each allocation is a ``PlanLine``, committed onto its
node at its step. A product's bill of materials is read on first use
and kept: the simulation never writes one.

Every commitment, drain, plan line and isFulfilled verdict is written to
the graph as it happens, only through ``schema`` views: a write removes
and inserts the triples of the fields in which a view's old and new
values differ, or inserts a new record's triples. The ledgers hold the
capacity record per (node, timestep), none meaning zero load, and the
current inventory record per (node, product). An order without a supply
plan gets no plan lines. A malformed inventory or capacity record, two
capacity records for one node at one step, an OEM with no product or a
supplier's product that is not an IRI, or a ``hasOEM`` subject that is
neither a Supplier nor the OEM raise ``MissingEntityError``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

from . import schema
from . import vocab as v
from .graph import Graph
from .schema import PlanLine
from .terms import Iri


@dataclass(frozen=True, slots=True)
class StepReport:
    t: int
    considered: int
    from_stock: int
    produced: int
    unfulfilled: int
    triples_inserted: int


class Simulation:
    """Mutable simulation state bound to one graph."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self._inserted = 0

        oem_iri = schema.the_oem(graph)
        oem = schema.node(graph, oem_iri)
        self.oem = oem.id
        suppliers = [schema.node(graph, s) for s in schema.suppliers(graph, oem_iri)]
        for view in suppliers:
            schema.check_supplier(oem.id, view.id, view.kind)
        # the focal node and its suppliers by name
        self.nodes: dict[str, schema.NodeView] = {view.id: view for view in [oem, *suppliers]}
        self._cost = {name: dict(view.kpis).get(v.HAS_COST.name, 0) for name, view in self.nodes.items()}
        self._makers: dict[str, list[str]] = {}
        for view in suppliers:
            for made in view.products:
                self._makers.setdefault(made, []).append(view.id)
        self._bom = functools.cache(lambda product: schema.bom(graph, Iri(product)))

        self._capacity: dict[tuple[str, int], schema.CapacityView] = {}
        self._stock: dict[tuple[str, str], schema.InventoryView] = {}
        for name in self.nodes:
            self._capacity.update(((name, t), r) for t, r in schema.capacity_by_step(graph, Iri(name)).items())
            self._stock.update(((name, p), r) for p, r in schema.current_inventory(graph, Iri(name)).items())

        pending = [o for o in schema.orders(graph) if o.fulfilled is None]
        self._due = schema.due_schedule(graph, pending, oem.delivery_time)

    # -- bookkeeping that keeps graph and ledgers in lockstep --

    def _write(self, old, new) -> None:
        """Rewrite a view's triples from its old value (None for a new
        record) to its new one: remove the triples only the old view has,
        insert and count those only the new view has. An update builds
        only the triples of the fields that changed (``old.changes(new)``)."""
        gone, added = ([], new.to_triples()) if old is None else old.changes(new)
        for triple in gone:
            self.graph.remove(triple)
        for triple in added:
            if self.graph.insert(triple):
                self._inserted += 1

    def committed(self, node: str, t: int) -> int:
        record = self._capacity.get((node, t))
        return 0 if record is None else record.quantity

    def inventory_level(self, node: str, product: str) -> int:
        record = self._stock.get((node, product))
        return 0 if record is None else record.quantity

    def _commit(self, line: PlanLine) -> None:
        """Book a plan line's quantity onto its node's load at its step."""
        key = (line.node, line.timestep)
        old = self._capacity.get(key)
        if old is None:
            record = schema.capacity_iri(line.node, line.timestep).name
            product = self.nodes[line.node].products[0]
            new = schema.CapacityView(record, line.node, product, line.quantity, line.timestep, line.unit_price)
        else:
            new = replace(old, quantity=old.quantity + line.quantity)
        self._write(old, new)
        self._capacity[key] = new

    def _drain(self, node: str, product: str, new_level: int, t: int) -> None:
        key = (node, product)
        old = self._stock[key]
        new = replace(old, quantity=new_level, timestep=t)
        self._write(old, new)
        self._stock[key] = new

    def _resolve(self, order: schema.OrderView, fulfilled: bool, lines=()) -> None:
        """Write an order's plan lines, if it has a supply plan, then its verdict."""
        if order.supply_plan is not None:
            for line in lines:
                self._write(None, line)
        self._write(order, replace(order, fulfilled=fulfilled))

    # -- the algorithm --

    def select_suppliers(self, components, t: int, plan: str | None) -> list[PlanLine] | None:
        """Pick one supplier per (component name, required amount), or None
        if any cannot be placed; each pick is a line of the supply plan ``plan``.

        A supplier is feasible for a component when it manufactures it,
        supplies the focal node, and its saturation leaves room for the
        required amount at t0 = t - LT(supplier), counting amounts already
        tentatively placed on it for earlier components in this call.
        """
        pending: dict[tuple[str, int], int] = {}
        lines = []
        for component, required in components:
            best = None
            for s in self._makers.get(component, ()):
                node = self.nodes[s]
                t0 = t - node.delivery_time
                if t0 < 0:
                    continue
                free = node.saturation - self.committed(s, t0) - pending.get((s, t0), 0)
                if free >= required and (best is None or free > best[0]):
                    best = (free, s, t0)
            if best is None:
                return None
            _, s, t0 = best
            pending[(s, t0)] = pending.get((s, t0), 0) + required
            lines.append(PlanLine(plan, s, component, t0, required, self._cost[s]))
        return lines

    def _serve(self, order: schema.OrderView, t: int) -> str:
        """Serve one due order at step t and write its outcome: from stock,
        by production, or not at all. Returns the ``StepReport`` field it
        counts toward."""
        have = self.inventory_level(self.oem, order.product)
        from_stock = have >= order.quantity
        quantity = order.quantity if from_stock else order.quantity - have
        focal = PlanLine(order.supply_plan, self.oem, order.product, t, quantity, self._cost[self.oem])
        if from_stock:
            self._drain(self.oem, order.product, have - order.quantity, t)
            self._resolve(order, True, [focal])
            return "from_stock"
        if self.committed(self.oem, t) + focal.quantity <= self.nodes[self.oem].saturation:
            components = [(edge.child, edge.quantity * focal.quantity) for edge in self._bom(order.product)]
            lines = self.select_suppliers(components, t, order.supply_plan)
            if lines is not None:
                if have > 0:
                    self._drain(self.oem, order.product, 0, t)
                lines.insert(0, focal)
                for line in lines:
                    self._commit(line)
                self._resolve(order, True, lines)
                return "produced"
        self._resolve(order, False)
        return "unfulfilled"

    def step(self, t: int) -> StepReport:
        self._inserted = 0
        due = self._due.pop(t, [])
        counts = {"from_stock": 0, "produced": 0, "unfulfilled": 0}
        for order in due:
            counts[self._serve(order, t)] += 1
        return StepReport(t, len(due), **counts, triples_inserted=self._inserted)

    def run(self, horizon: int) -> list[StepReport]:
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        return [self.step(t) for t in range(horizon)]
