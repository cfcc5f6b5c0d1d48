"""Brute-force reference simulator for differential testing.

Deliberately naive: it reads a plain list of triples into dicts keyed by
predicate name and replays the rules of ``fulfillment``'s docstring with
no ``schema`` view, no ``Graph`` and no shared code. Only the term types
are shared, to tell IRIs, literals and quoted triples apart.

The rules:

* an order is due at its delivery step minus the focal node's delivery
  time, and the due orders of one step are served by the making
  customer's priority (higher first), then order name;
* the focal node's stock is used first: when it covers the order, the
  stock is drained by the order's quantity and the order is served;
* otherwise the remainder is produced at step t: the focal node needs
  room for it at t, and each direct component (in name order, scaled by
  the bill of materials) needs a supplier of the focal node that makes
  it and has room at t0 = t - lead(supplier) >= 0, counting what earlier
  components of the same order placed on it. The supplier with the most
  free room wins, ties by name. If any component cannot be placed,
  nothing is booked and the order is rejected; else the stock is drained
  to 0 and every line is booked.
"""

from supplykg.terms import Iri, Literal, Quoted


def _value(term):
    return term.name if isinstance(term, Iri) else term.value if isinstance(term, Literal) else term


def _index(triples):
    """(subject, predicate name) -> list of values, for plain subjects and
    for the (parent, child) pair of a quoted bill-of-materials edge."""
    out = {}
    for t in triples:
        if isinstance(t.subject, Quoted):
            inner = t.subject.triple
            key = ((inner.subject.name, inner.predicate.name, _value(inner.object)), t.predicate.name)
        else:
            key = (t.subject.name, t.predicate.name)
        out.setdefault(key, []).append(_value(t.object))
    return out


def _one(index, subject, predicate, default=None):
    values = index.get((subject, predicate), [])
    assert len(values) <= 1, (subject, predicate, values)
    return values[0] if values else default


def simulate(triples, horizon):
    """Replay the rules over ``triples`` for steps 0..horizon-1.

    Returns a dict with:

    * ``verdicts``: order name -> "stock", "produced" or "rejected", for
      the orders that had no verdict before the run and fell due;
    * ``lines``: order name -> its plan lines, each (node, product, step,
      quantity, unit price), focal line first (none when rejected);
    * ``capacity``: (node, step) -> committed load, for the focal node
      and its suppliers, records present before the run included;
    * ``stock``: (node, product) -> (quantity, step) of the current
      inventory record of each of those nodes;
    * ``reports``: per step (considered, from stock, produced, rejected);
    * ``ties``: how many placements more than one supplier could have
      taken with the same free room.
    """
    triples = list(triples)
    idx = _index(triples)
    typed = {}
    for t in triples:
        if t.predicate.name == "rdf:type" and isinstance(t.subject, Iri) and isinstance(t.object, Iri):
            typed.setdefault(t.object.name, []).append(t.subject.name)

    [oem] = typed["OEM"]
    suppliers = sorted({t.subject.name for t in triples if t.predicate.name == "hasOEM" and _value(t.object) == oem})
    nodes = [oem] + [s for s in suppliers if s != oem]
    sat = {n: _one(idx, n, "hasSaturation") for n in nodes}
    lead = {n: _one(idx, n, "hasDeliveryTime") for n in nodes}
    cost = {n: _one(idx, n, "hasCost", 0) for n in nodes}
    made = {n: sorted(idx.get((n, "manufactures"), [])) for n in nodes}

    capacity = {}
    stock = {}
    for n in nodes:
        for rec in idx.get((n, "hasCapacity"), []):
            capacity[(n, _one(idx, rec, "hasTimeStamp"))] = _one(idx, rec, "hasQuantity")
        current = {}
        for rec in idx.get((n, "hasInventory"), []):
            product = _one(idx, rec, "hasProduct")
            key = (_one(idx, rec, "hasTimeStamp"), rec)
            if product not in current or key > current[product][0]:
                current[product] = (key, _one(idx, rec, "hasQuantity"))
        for product, ((step, _), quantity) in current.items():
            stock[(n, product)] = (quantity, step)

    makers_of = {t.object.name: t.subject.name for t in triples if t.predicate.name == "makes"}
    due = {}
    for o in sorted(typed.get("Order", [])):
        if _one(idx, o, "isFulfilled") is not None:
            continue
        due.setdefault(_one(idx, o, "hasDeliveryTime") - lead[oem], []).append(o)

    def bom(product):
        children = sorted(c for c in idx.get((product, "needsProduct"), []))
        return [(c, _one(idx, ((product, "needsProduct", c)), "needsQuantity")) for c in children]

    result = {"verdicts": {}, "lines": {}, "reports": [], "ties": 0}
    for t in range(horizon):
        todo = sorted(due.get(t, []), key=lambda o: (-_one(idx, makers_of[o], "hasPriority"), o))
        counts = {"stock": 0, "produced": 0, "rejected": 0}
        for o in todo:
            product, quantity = _one(idx, o, "hasProduct"), _one(idx, o, "hasQuantity")
            have = stock.get((oem, product), (0, None))[0]
            verdict, lines = "rejected", []
            if have >= quantity:
                stock[(oem, product)] = (have - quantity, t)
                verdict, lines = "stock", [(oem, product, t, quantity, cost[oem])]
            else:
                remaining = quantity - have
                if capacity.get((oem, t), 0) + remaining <= sat[oem]:
                    placed = {}
                    picks = []
                    for component, per_unit in bom(product):
                        required = per_unit * remaining
                        options = []
                        for s in suppliers:
                            t0 = t - lead[s]
                            if component in made[s] and t0 >= 0:
                                free = sat[s] - capacity.get((s, t0), 0) - placed.get((s, t0), 0)
                                if free >= required:
                                    options.append((-free, s, t0))
                        if not options:
                            picks = None
                            break
                        options.sort()
                        result["ties"] += sum(1 for opt in options if opt[0] == options[0][0]) > 1
                        _, s, t0 = options[0]
                        placed[(s, t0)] = placed.get((s, t0), 0) + required
                        picks.append((s, component, t0, required, cost[s]))
                    if picks is not None:
                        if have > 0:
                            stock[(oem, product)] = (0, t)
                        lines = [(oem, product, t, remaining, cost[oem])] + picks
                        for node, _, step, amount, _ in lines:
                            capacity[(node, step)] = capacity.get((node, step), 0) + amount
                        verdict = "produced"
            counts[verdict] += 1
            result["verdicts"][o] = verdict
            result["lines"][o] = lines
        result["reports"].append((len(todo), counts["stock"], counts["produced"], counts["rejected"]))
    result["capacity"] = capacity
    result["stock"] = stock
    return result
