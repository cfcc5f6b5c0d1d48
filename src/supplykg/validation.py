"""Structural validation for supply-chain graphs.

``validate`` walks a graph and returns a list of violations instead of
raising, so callers can render all findings at once. Severity is either
"error" (the graph will misbehave in the simulator or analytics) or
"warning" (unusual but workable, e.g. links that skip a tier).

The ``schema`` shapes hold every value rule. ``validate`` reads each node,
record, order and bill-of-materials edge through the shape ``simulate``
reads it with, and reports every problem of a node's fields (one finding
each) and the first of any other entity, so a second value is a finding
and never stops the report. Each node and each record is read once; the
checks that span entities take a node's class, tier and saturation from
that read: vocabulary, node classes, the OEM's suppliers, record owners,
capacity against saturation, tier links and bill-of-materials cycles.
No check sorts the graph. The vocabulary check reads the index keys, not
every triple: each distinct predicate, each ``rdf:type`` object and each
distinct quoted term, nested ones included, is checked once. Entities are
read from their unordered index buckets, and record links and
bill-of-materials edges come from their predicates' index lookups.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import schema
from . import vocab as v
from .graph import Graph
from .terms import Iri, Quoted, Triple, format_triple


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
    """Report each predicate and ``rdf:type`` class outside the vocabulary,
    also inside quoted triples. The findings are a set, so each distinct
    term is checked once: the predicate index's keys, the objects of the
    ``rdf:type`` bucket, and every quoted term the subject and object
    indexes hold, with the quoted triples nested in them."""

    def check(predicate, obj):
        if predicate not in v.KNOWN_PREDICATES:
            report.error("unknown-predicate", predicate.name, f"predicate {predicate.name} is not in the vocabulary")
        if predicate == v.RDF_TYPE and isinstance(obj, Iri) and obj not in v.KNOWN_CLASSES:
            report.warning("unknown-class", obj.name, f"class {obj.name} is not in the vocabulary")

    if allow_unknown:
        return
    for predicate in graph.keys(1):
        check(predicate, None)
    for t in graph.about(1, v.RDF_TYPE):
        check(t.predicate, t.object)
    seen = {term for position in (0, 2) for term in graph.keys(position) if isinstance(term, Quoted)}
    quoted = list(seen)
    while quoted:
        t = quoted.pop().triple
        check(t.predicate, t.object)
        for part in (t.subject, t.object):
            if isinstance(part, Quoted) and part not in seen:
                seen.add(part)
                quoted.append(part)


def _node_code(field, problem, kind):
    """The code of a node field's problem. The field's noun (``products``
    gives ``product``) names a missing value (or a required IRI that is not
    one), any problem of a value every node carries, a bad tier name, and a
    KPI out of range or a transport mode outside its allowed values."""
    noun = field.attr.rstrip("s").replace("_", "-")
    if problem == "multi-valued":
        return problem
    if problem == "missing" or (problem == "not-iri" and schema.holds(field.required, kind)):
        return f"missing-{noun}"
    if problem == "not-tier" or field.required is True:
        return f"bad-{noun}"
    if problem == "out-of-range" and (field.hi is not None or field.allowed is not None):
        return f"{noun}-out-of-range"
    return "bad-literal-type"


def _check_nodes(graph, nodes, report):
    """Walk every subject typed ``Node``, ``OEM``, ``Supplier`` or
    ``Customer``, and every supplier of an OEM, as ``simulate`` finds its
    suppliers. One without ``Node`` and a class is an untyped node; the
    fields of one with a class are checked by that class's rules, and a
    supplier's class by ``check_supplier``."""
    typed = {iri for cls in (v.NODE, *schema.NODE_SHAPE.kinds) for iri in schema.nodes_of_kind(graph, cls)}
    links = [(oem, s) for oem in schema.nodes_of_kind(graph, v.OEM) for s in schema.suppliers(graph, oem)]
    typed.update(s for _, s in links)
    for oem, s in links:
        try:
            schema.check_supplier(oem.name, s.name, nodes(s)[0]["kind"])
        except schema.MissingEntityError as exc:
            report.error("bad-oem-link", s.name, str(exc))
    for iri in sorted(typed, key=lambda i: i.name):
        values, problems = nodes(iri)
        for field, exc in problems:
            if field is None:
                report.error("untyped-node", iri.name, str(exc))
            elif values["kind"] is not None:
                report.error(_node_code(field, exc.problem, Iri(values["kind"])), iri.name, str(exc))


def _links(graph, predicate):
    """The (subject, object) IRI pairs of ``predicate`` in canonical order: a quoted triple links nothing."""
    triples = sorted(graph.about(1, predicate), key=format_triple)
    return [(t.subject, t.object) for t in triples if isinstance(t.subject, Iri) and isinstance(t.object, Iri)]


_RECORDS = (schema.CAPACITY_SHAPE, schema.INVENTORY_SHAPE)


def _check_records(graph, nodes, report):
    """Read each record of a shape, typed or linked by the shape's
    predicate, as ``simulate`` reads what a node links: through the shape,
    for its least-named owner. A capacity record must also fit its owner's
    saturation, one per step of each node that links it."""
    links = {shape: _links(graph, shape.field["node"].predicate) for shape in _RECORDS}
    owners = {}  # record -> the least-named node that links it
    for node, rec in (pair for pairs in links.values() for pair in pairs):
        if rec not in owners or node.name < owners[rec].name:
            owners[rec] = node
    for shape, pairs in links.items():
        capacity = shape is schema.CAPACITY_SHAPE
        views = {}  # record -> its view, None when unreadable
        for rec in {*schema.nodes_of_kind(graph, shape.cls), *(rec for _, rec in pairs)}:
            if rec not in owners:
                report.error("orphan-record", rec.name, f"{shape.cls.name.lower()} record has no owning node")
                continue
            owner = owners[rec]
            try:
                views[rec] = view = shape.read(graph, rec, node=owner.name)
            except schema.MissingEntityError as exc:
                report.error("bad-record", rec.name, str(exc))
                views[rec] = None
                continue
            sat = nodes(owner)[0]["saturation"] if capacity else None  # None also when absent or unreadable
            if sat is not None and view.quantity > sat:
                report.error(
                    "capacity-exceeds-saturation",
                    rec.name,
                    f"committed {view.quantity} exceeds saturation {sat} of {owner.name}",
                )
        if not capacity:
            continue
        linked = {}  # node -> its capacity records, as ``capacity_by_step`` groups them
        for node, rec in pairs:
            linked.setdefault(node, []).append(views[rec])
        for owner, group in linked.items():
            if None not in group:
                try:
                    schema.one_per_step(owner.name, group)
                except schema.MissingEntityError as exc:
                    report.error("bad-record", owner.name, str(exc))


def _check_orders(graph, nodes, report):
    for iri in schema.nodes_of_kind(graph, v.ORDER):
        try:
            view = schema.ORDER_SHAPE.read(graph, iri)
        except schema.MissingEntityError as exc:
            report.error("bad-order", iri.name, str(exc))
            continue
        if nodes(Iri(view.maker))[0]["kind"] != v.CUSTOMER.name:
            report.error("bad-order", iri.name, f"maker {view.maker} is not a customer")


def _check_topology(graph, nodes, report):
    try:
        oem = schema.the_oem(graph)
    except schema.MissingEntityError as exc:
        report.error("oem-count", "", str(exc))
        return

    def tier(node):  # None without a tier the node's shape can read
        return nodes(node)[0]["tier"]

    sup, cust = (
        {n: tier(n) for n in schema.nodes_of_kind(graph, kind) if tier(n) is not None}
        for kind in (v.SUPPLIER, v.CUSTOMER)
    )
    for s, t in sup.items():
        if t == 1 and Triple(s, v.HAS_OEM, oem) not in graph:
            report.error("missing-oem-link", s.name, "tier-1 supplier has no hasOEM link")
    for c, t in cust.items():
        if t == 1 and Triple(oem, v.OEM_HAS_NODE, c) not in graph:
            report.error("missing-oem-link", c.name, "tier-1 customer has no OEMhasNode link")

    def coverage(members, pred, label):
        top = max(members.values(), default=0)
        covered = set()
        for a, t in members.items():
            links = [x.object for x in graph.about(0, a) if x.predicate == pred and isinstance(x.object, Iri)]
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
    for parent, child in _links(graph, v.NEEDS_PRODUCT):
        edges.setdefault(parent, []).append(child)
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
    # each node's values and problems as its shape reads them, read once:
    # the node pass reports them, the other checks take a node's class,
    # tier and saturation from here
    nodes = functools.cache(lambda iri: schema.NODE_SHAPE.scan(graph, iri))
    _check_vocabulary(graph, report, allow_unknown)
    _check_topology(graph, nodes, report)
    _check_nodes(graph, nodes, report)
    _check_records(graph, nodes, report)
    _check_orders(graph, nodes, report)
    _check_bom(graph, report)
    unique = sorted(
        set(report.items),
        key=lambda x: (_SEVERITY_RANK[x.severity], x.code, x.subject, x.message),
    )
    return unique
