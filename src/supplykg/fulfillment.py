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

Commitments, inventory drains, supply-plan lines, and the isFulfilled
verdict are written back into the graph as they happen, so a serialized
final graph carries the complete outcome.

The simulation mutates the graph it is given, and only through ``schema``
views: every write is the difference between a view's old and new
triples. Its two ledgers hold the capacity record per (node, timestep), a
missing one meaning zero load, and the current inventory record per
(node, product); a booking or drain rewrites one record. Each allocation
is a new ``PlanLine`` (an order without a supply plan gets none), and a
verdict rewrites the order's view. Nodes without a cost property price
their allocations at 0. A malformed inventory or capacity record, two
capacity records for one node at one step, an OEM with no product or a
supplier's product that is not an IRI raise ``MissingEntityError``.
"""

from __future__ import annotations

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


def explode_bom(graph: Graph, product: Iri, quantity: int) -> list[tuple[Iri, int]]:
    """Direct components of ``product`` scaled to ``quantity`` units."""
    return [(Iri(edge.child), edge.quantity * quantity) for edge in schema.bom(graph, product)]


class Simulation:
    """Mutable simulation state bound to one graph."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self._inserted = 0

        self.oem = schema.the_oem(graph)
        oem_view = schema.node(graph, self.oem)
        self.oem_lead = oem_view.delivery_time
        self.oem_sat = oem_view.saturation

        self._sat: dict[str, int] = {}
        self._lead: dict[str, int] = {}
        self._cost: dict[str, int] = {}
        self._product_of: dict[str, str] = {}
        self._makers: dict[str, list[str]] = {}

        suppliers = sorted(graph.subjects(v.HAS_OEM, self.oem), key=lambda s: s.name)
        supplier_views = [schema.node(graph, s) for s in suppliers]
        for view in [oem_view, *supplier_views]:
            self._sat[view.id] = view.saturation
            self._lead[view.id] = view.delivery_time
            self._cost[view.id] = dict(view.kpis).get(v.HAS_COST.name, 0)
        for view in supplier_views:
            for made in view.products:
                self._makers.setdefault(made, []).append(view.id)
                self._product_of.setdefault(view.id, made)
        self._product_of[self.oem.name] = oem_view.products[0]

        self._capacity: dict[tuple[str, int], schema.CapacityView] = {}
        self._stock: dict[tuple[str, str], schema.InventoryView] = {}
        for name in self._sat:
            self._capacity.update(((name, t), r) for t, r in schema.capacity_by_step(graph, Iri(name)).items())
            self._stock.update(((name, p), r) for p, r in schema.current_inventory(graph, Iri(name)).items())

        all_orders = schema.orders(graph)
        self._resolved = {o.id for o in all_orders if o.fulfilled is not None}
        pending = [o for o in all_orders if o.fulfilled is None]
        self._due = schema.due_schedule(graph, pending, self.oem_lead)

    # -- bookkeeping that keeps graph and ledgers in lockstep --

    def _write(self, old, new) -> None:
        """Rewrite a view's triples from its old value (None for a new
        record) to its new one: remove the triples only the old view has,
        insert and count those only the new view has. A view holds a few
        triples, so list membership compares them without hashing."""
        before = old.to_triples() if old is not None else []
        after = new.to_triples()
        for triple in before:
            if triple not in after:
                self.graph.remove(triple)
        for triple in after:
            if triple not in before and self.graph.insert(triple):
                self._inserted += 1

    def committed(self, node: str, t: int) -> int:
        record = self._capacity.get((node, t))
        return 0 if record is None else record.quantity

    def inventory_level(self, node: str, product: str) -> int:
        record = self._stock.get((node, product))
        return 0 if record is None else record.quantity

    def _commit(self, node: str, t: int, quantity: int) -> None:
        key = (node, t)
        old = self._capacity.get(key)
        if old is None:
            new = schema.CapacityView(
                schema.capacity_iri(node, t).name, node, self._product_of[node], quantity, t, self._cost[node]
            )
        else:
            new = replace(old, quantity=old.quantity + quantity)
        self._write(old, new)
        self._capacity[key] = new

    def _drain(self, node: str, product: str, new_level: int, t: int) -> None:
        key = (node, product)
        old = self._stock[key]
        new = replace(old, quantity=new_level, timestep=t)
        self._write(old, new)
        self._stock[key] = new

    def _resolve(self, order: schema.OrderView, fulfilled: bool, allocations=()) -> None:
        """Write an order's plan lines, if it has a supply plan, then its verdict."""
        if order.supply_plan is not None:
            for allocation in allocations:
                self._write(None, allocation)
        self._write(order, replace(order, fulfilled=fulfilled))
        self._resolved.add(order.id)

    def _focal_line(self, order: schema.OrderView, t: int, quantity: int) -> PlanLine:
        oem = self.oem.name
        return PlanLine(order.supply_plan, oem, order.product, t, quantity, self._cost[oem])

    # -- the algorithm --

    def due_orders(self, t: int) -> list[schema.OrderView]:
        return [o for o in self._due.get(t, ()) if o.id not in self._resolved]

    def fulfill_from_inventory(self, order: schema.OrderView, t: int) -> int:
        """Try to serve the order from stock.

        Returns 0 when the order was fulfilled (stock drained, plan and
        verdict written); otherwise returns the remaining quantity to
        produce, with no state change.
        """
        have = self.inventory_level(self.oem.name, order.product)
        if have < order.quantity:
            return order.quantity - have
        self._drain(self.oem.name, order.product, have - order.quantity, t)
        self._resolve(order, True, [self._focal_line(order, t, order.quantity)])
        return 0

    def select_suppliers(self, components, t: int, plan: str | None) -> list[PlanLine] | None:
        """Pick one supplier per component, or None if any cannot be placed;
        each pick is a line of the supply plan ``plan``.

        A supplier is feasible for a component when it manufactures it,
        supplies the focal node, and its saturation leaves room for the
        required amount at t0 = t - LT(supplier), counting amounts already
        tentatively placed on it for earlier components in this call.
        """
        pending: dict[tuple[str, int], int] = {}
        allocations = []
        for component, required in components:
            best = None
            for s in self._makers.get(component.name, ()):
                t0 = t - self._lead[s]
                if t0 < 0:
                    continue
                used = self.committed(s, t0) + pending.get((s, t0), 0)
                free = self._sat[s] - used
                if free >= required and (best is None or free > best[0]):
                    best = (free, s, t0)
            if best is None:
                return None
            _, s, t0 = best
            pending[(s, t0)] = pending.get((s, t0), 0) + required
            allocations.append(PlanLine(plan, s, component.name, t0, required, self._cost[s]))
        return allocations

    def _try_production(self, order: schema.OrderView, t: int, remaining: int) -> bool:
        if self.committed(self.oem.name, t) + remaining > self.oem_sat:
            return False
        components = explode_bom(self.graph, Iri(order.product), remaining)
        allocations = self.select_suppliers(components, t, order.supply_plan)
        if allocations is None:
            return False
        stock = self.inventory_level(self.oem.name, order.product)
        if stock > 0:
            self._drain(self.oem.name, order.product, 0, t)
        allocations.insert(0, self._focal_line(order, t, remaining))
        for allocation in allocations:
            self._commit(allocation.node, allocation.timestep, allocation.quantity)
        self._resolve(order, True, allocations)
        return True

    def step(self, t: int) -> StepReport:
        self._inserted = 0
        due = self.due_orders(t)
        from_stock = produced = unfulfilled = 0
        for order in due:
            remaining = self.fulfill_from_inventory(order, t)
            if remaining == 0:
                from_stock += 1
            elif self._try_production(order, t, remaining):
                produced += 1
            else:
                self._resolve(order, False)
                unfulfilled += 1
        return StepReport(t, len(due), from_stock, produced, unfulfilled, self._inserted)

    def run(self, horizon: int) -> list[StepReport]:
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        return [self.step(t) for t in range(horizon)]
