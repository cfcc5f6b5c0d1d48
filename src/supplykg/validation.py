"""Structural validation for supply-chain graphs.

``validate`` walks a graph and returns a list of violations instead of
raising, so callers can render all findings at once. Severity is either
"error" (the graph will misbehave in the simulator or analytics) or
"warning" (unusual but workable, e.g. links that skip a tier).

Values are checked only by the ``schema`` readers that ``simulate`` runs:
``validate`` reads every node property (tier, transport mode and a
supplier's products included), record, order, bill-of-materials edge and
the OEM's product through them and reports what they raise, one finding
per value, so a property with a second value is a finding and never
stops the report. Its own checks span
entities: vocabulary, node classes, record owners, capacity against
saturation, tier links and bill-of-materials cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import schema
from . import vocab as v
from .graph import Graph
from .terms import Iri, Quoted


@dataclass(frozen=True, slots=True)
class Violation:
    code: str
    severity: str
    subject: str
    message: str


class _Report:
    def __init__(self):
        self.items: list[Violation] = []

    def error(self, code, subject, message):
        self.items.append(Violation(code, "error", subject, message))

    def warning(self, code, subject, message):
        self.items.append(Violation(code, "warning", subject, message))


def _check_vocabulary(graph, report, allow_unknown):
    def walk(triple):
        if triple.predicate not in v.KNOWN_PREDICATES:
            report.error(
                "unknown-predicate",
                triple.predicate.name,
                f"predicate {triple.predicate.name} is not in the vocabulary",
            )
        if (
            triple.predicate == v.RDF_TYPE
            and isinstance(triple.object, Iri)
            and triple.object not in v.KNOWN_CLASSES
        ):
            report.warning(
                "unknown-class",
                triple.object.name,
                f"class {triple.object.name} is not in the vocabulary",
            )
        for part in (triple.subject, triple.object):
            if isinstance(part, Quoted):
                walk(part.triple)

    if allow_unknown:
        return
    for t in graph.triples():
        walk(t)


# validate's code for each problem the node reader raises
_MISSING = {
    v.HAS_SATURATION: "missing-saturation",
    v.HAS_DELIVERY_TIME: "missing-delivery-time",
    v.HAS_PRIORITY: "missing-priority",
}
_BAD = {v.HAS_SATURATION: "bad-saturation", v.HAS_DELIVERY_TIME: "bad-delivery-time"}


def _node_code(predicate, problem):
    if problem == "multi-valued":
        return problem
    if problem == "missing":
        return _MISSING[predicate]
    if predicate in _BAD:
        return _BAD[predicate]
    if problem == "out-of-range" and predicate in v.KPI_PREDICATES:
        return "kpi-out-of-range"
    if problem == "not-tier":
        return "bad-tier"
    return "bad-literal-type"


def _check_node(graph, iri, report):
    kind = schema.node_kind(graph, iri)
    if kind is None:
        report.error("untyped-node", iri.name, "node has no Supplier/Customer/OEM class")
        return
    reads = [(p, schema.node_int, (p, kind)) for p in schema.NODE_INTS]
    reads += [(v.BELONGS_TO_TIER, schema.tier_index, ()), (v.HAS_TRANSPORT_MODE, schema.transport_mode, ())]
    if kind == v.SUPPLIER:
        reads.append((v.MANUFACTURES, schema.supplier_products, ()))
    for predicate, reader, args in reads:
        try:
            reader(graph, iri, *args)
        except schema.MissingEntityError as exc:
            report.error(_node_code(predicate, exc.problem), iri.name, str(exc))


def _check_records(graph, report):
    owners = {}
    for t in graph.triples():
        if t.predicate == v.HAS_CAPACITY and isinstance(t.object, Iri):
            owners.setdefault(t.object, []).append((t.subject, "capacity"))
        if t.predicate == v.HAS_INVENTORY and isinstance(t.object, Iri):
            owners.setdefault(t.object, []).append((t.subject, "inventory"))

    # nodes whose capacity records all read cleanly, each checked below for
    # two records at one step
    booked, unreadable = set(), set()
    for rec in schema.nodes_of_kind(graph, v.CAPACITY):
        if rec not in owners:
            report.error("orphan-record", rec.name, "capacity record has no owning node")
            continue
        owner = owners[rec][0][0]
        try:
            view = schema.capacity_record(graph, owner, rec)
        except schema.MissingEntityError as exc:
            report.error("bad-record", rec.name, str(exc))
            unreadable.add(owner)
            continue
        booked.add(owner)
        try:
            sat = schema.node_int(graph, owner, v.HAS_SATURATION, None)  # None when absent
        except schema.MissingEntityError:
            continue  # reported by _check_node
        if sat is not None and view.quantity > sat:
            report.error(
                "capacity-exceeds-saturation",
                rec.name,
                f"committed {view.quantity} exceeds saturation {sat} of {owner.name}",
            )

    for owner in booked - unreadable:
        try:
            schema.capacity_by_step(graph, owner)
        except schema.MissingEntityError as exc:
            report.error("bad-record", owner.name, str(exc))

    for rec in schema.nodes_of_kind(graph, v.INVENTORY):
        if rec not in owners:
            report.error("orphan-record", rec.name, "inventory record has no owning node")
            continue
        try:
            schema.inventory_record(graph, owners[rec][0][0], rec)
        except schema.MissingEntityError as exc:
            report.error("bad-record", rec.name, str(exc))


def _check_orders(graph, report):
    for iri in schema.nodes_of_kind(graph, v.ORDER):
        try:
            view = schema.order(graph, iri)
        except schema.MissingEntityError as exc:
            report.error("bad-order", iri.name, str(exc))
            continue
        maker = Iri(view.maker)
        if schema.node_kind(graph, maker) != v.CUSTOMER:
            report.error("bad-order", iri.name, f"maker {view.maker} is not a customer")


def _check_topology(graph, report):
    try:
        oem = schema.the_oem(graph)
    except schema.MissingEntityError as exc:
        report.error("oem-count", "", str(exc))
        return
    try:
        schema.manufactured_product(graph, oem)
    except schema.MissingEntityError as exc:
        report.error("multi-valued" if exc.problem == "multi-valued" else "missing-product", oem.name, str(exc))

    tiers = {}  # node -> its tier number, None without one it can read

    def tier(node):
        if node not in tiers:
            try:
                tiers[node] = schema.tier_index(graph, node)
            except schema.MissingEntityError:
                tiers[node] = None  # reported by _check_node
        return tiers[node]

    sup, cust = (
        {n: tier(n) for n in schema.nodes_of_kind(graph, kind) if tier(n) is not None}
        for kind in (v.SUPPLIER, v.CUSTOMER)
    )
    for s, t in sup.items():
        if t == 1 and oem not in graph.objects(s, v.HAS_OEM):
            report.error("missing-oem-link", s.name, "tier-1 supplier has no hasOEM link")
    for c, t in cust.items():
        if t == 1 and c not in graph.objects(oem, v.OEM_HAS_NODE):
            report.error("missing-oem-link", c.name, "tier-1 customer has no OEMhasNode link")

    def coverage(members, pred, label):
        top = max(members.values(), default=0)
        covered = set()
        for a, t in members.items():
            links = [b for b in graph.objects(a, pred) if isinstance(b, Iri)]
            covered.update(links)
            for b in links:
                if tier(b) is not None and tier(b) != t + 1:
                    report.warning(
                        "tier-skip", a.name, f"{pred.name} link to {b.name} skips from tier {t} to {tier(b)}"
                    )
            if t < top and t + 1 not in map(tier, links):
                report.error("tier-coverage", a.name, f"tier-{t} {label} has no {pred.name} link into tier {t + 1}")
        for a, t in members.items():
            if t > 1 and a not in covered:
                report.error("tier-coverage", a.name, f"tier-{t} {label} is not reachable from tier {t - 1}")

    coverage(sup, v.HAS_UPSTREAM_NODE, "supplier")
    coverage(cust, v.HAS_DOWNSTREAM_NODE, "customer")


def _check_bom(graph, report):
    edges = {}
    for t in graph.triples():
        if t.predicate == v.NEEDS_PRODUCT and isinstance(t.subject, Iri) and isinstance(t.object, Iri):
            edges.setdefault(t.subject, []).append(t.object)
    for parent, children in edges.items():
        for child in children:
            try:
                schema.bom_edge(graph, parent, child)
            except schema.MissingEntityError as exc:
                report.error("bad-bom-edge", parent.name, str(exc))

    # Depth-first search with an explicit stack, so a long chain cannot
    # exhaust the Python stack: ``path`` holds the products being visited
    # and ``children`` an iterator over the unvisited children of each.
    state = {}  # product -> 1 while on the path, 2 once done
    for root in sorted(edges, key=lambda i: i.name):
        if root in state:
            continue
        state[root] = 1
        path = [root]
        children = [iter(edges[root])]
        while path:
            for child in children[-1]:
                if state.get(child) == 1:
                    cycle = path[path.index(child):] + [child]
                    report.error(
                        "bom-cycle",
                        path[-1].name,
                        "bill of materials contains a cycle: " + " -> ".join(n.name for n in cycle),
                    )
                elif child not in state:
                    state[child] = 1
                    path.append(child)
                    children.append(iter(edges.get(child, ())))
                    break
            else:
                state[path.pop()] = 2
                children.pop()


_SEVERITY_RANK = {"error": 0, "warning": 1}


def validate(graph: Graph, allow_unknown: bool = False) -> list[Violation]:
    """Check a supply-chain graph and return all violations found."""
    report = _Report()
    _check_vocabulary(graph, report, allow_unknown)
    _check_topology(graph, report)
    for iri in sorted(schema.nodes_of_kind(graph, v.NODE), key=lambda i: i.name):
        _check_node(graph, iri, report)
    _check_records(graph, report)
    _check_orders(graph, report)
    _check_bom(graph, report)
    unique = sorted(
        set(report.items),
        key=lambda x: (_SEVERITY_RANK[x.severity], x.code, x.subject, x.message),
    )
    return unique
