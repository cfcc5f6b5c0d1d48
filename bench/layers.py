"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces the public functions of each supplykg module
with timing wrappers and ``uninstall()`` puts the originals back. A
function is replaced in the module that defines it *and* in every other
``supplykg.*`` module that imported it by name (``cli`` imports
``serialize``; ``analytics`` imports ``evaluate``; ...), otherwise calls
made through those names would go unrecorded. Methods are replaced on
their class.

Every wrapped call becomes a span ``(id, parent id, name, start, end,
command)`` kept in memory; ``write_spans`` writes them out once the run
is over. Two very hot leaves, ``format_triple`` and the ``__hash__`` of
``Triple`` and ``Quoted``, are aggregated instead of recorded one span per
call: they run millions of times per pass. A span's self time is its
duration minus the time of the wrapped calls made inside it.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _has_bound_open_position(pattern, bindings) -> bool:
    """True when ``bindings`` fixes a variable the pattern leaves open:
    the case in which ``Graph.match`` scans a bucket chosen without it."""
    return bool(bindings) and any(name in bindings for name in pattern.variables())


# (metric prefix, module, attribute) of every traced function. Attributes
# with a dot are methods. The prefix is the layer name plus the function.
TRACED = (
    ("terms.format_triple", "supplykg.terms", "format_triple"),
    ("graph.insert", "supplykg.graph", "Graph.insert"),
    ("graph.remove", "supplykg.graph", "Graph.remove"),
    ("graph.match", "supplykg.graph", "Graph.match"),
    ("graph.triples", "supplykg.graph", "Graph.triples"),
    ("serialization.parse_graph", "supplykg.serialization", "parse_graph"),
    ("serialization.serialize", "supplykg.serialization", "serialize"),
    ("schema.normalize", "supplykg.schema", "normalize"),
    ("schema.orders", "supplykg.schema", "orders"),
    ("schema.node", "supplykg.schema", "node"),
    ("schema.bom", "supplykg.schema", "bom"),
    ("schema.capacity_records", "supplykg.schema", "capacity_records"),
    ("query.parse_query", "supplykg.query.parser", "parse_query"),
    ("query.evaluate", "supplykg.query.eval", "evaluate"),
    ("query.evaluate_update", "supplykg.query.eval", "evaluate_update"),
    ("generator.generate", "supplykg.generator", "generate"),
    ("fulfillment.init", "supplykg.fulfillment", "Simulation.__init__"),
    ("fulfillment.step", "supplykg.fulfillment", "Simulation.step"),
    ("fulfillment.select_suppliers", "supplykg.fulfillment", "Simulation.select_suppliers"),
    ("analytics.build_report", "supplykg.analytics", "build_report"),
    ("analytics.mean_utilization", "supplykg.analytics", "mean_utilization"),
    ("analytics.node_utilization", "supplykg.analytics", "node_utilization"),
    ("analytics.order_fulfillment", "supplykg.analytics", "order_fulfillment"),
    ("analytics.run_scenarios", "supplykg.analytics", "run_scenarios"),
    ("validation.validate", "supplykg.validation", "validate"),
    ("util.atomic_write_text", "supplykg.util", "atomic_write_text"),
)

_LEAVES = {"terms.format_triple"}


def _match_counts(result, args, kwargs, self_s):
    counts = {"graph.match.rows": len(result)}
    bindings = args[2] if len(args) > 2 else kwargs.get("bindings")
    if _has_bound_open_position(args[1], bindings):
        counts["graph.match.row_bound.calls"] = 1
        counts["graph.match.row_bound.self_s"] = self_s
    return counts


def _argument(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Counters read off a call once it returns:
# fn(result, args, kwargs, self_s) -> {metric: increment}.
_COUNTERS = {
    "graph.insert": lambda r, a, k, s: {"graph.insert.new": bool(r)},
    "graph.match": _match_counts,
    "serialization.parse_graph": lambda r, a, k, s: {
        "serialization.parse_graph.lines": len(_argument(a, k, 0, "text").splitlines())
    },
    "serialization.serialize": lambda r, a, k, s: {"serialization.serialize.bytes": len(r.encode("utf-8"))},
    "query.evaluate": lambda r, a, k, s: {"query.evaluate.rows": len(r.rows)},
    "query.evaluate_update": lambda r, a, k, s: {"query.evaluate_update.inserted": r},
    "fulfillment.select_suppliers": lambda r, a, k, s: {"fulfillment.select_suppliers.placed": r is not None},
    "validation.validate": lambda r, a, k, s: {"validation.validate.violations": len(r)},
    "util.atomic_write_text": lambda r, a, k, s: {
        "util.atomic_write_text.bytes": len(_argument(a, k, 1, "text").encode("utf-8"))
    },
    # order outcomes, from the StepReport each step returns
    "fulfillment.step": lambda r, a, k, s: {
        f"fulfillment.orders.{f}": getattr(r, f) for f in ("considered", "from_stock", "produced", "unfulfilled")
    },
}


class Tracer:
    """Span recorder; one per traced pass."""

    def __init__(self):
        self.stats: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.command: str | None = None
        self._stack: list[list] = []  # [child seconds, span id] per open span
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _open(self):
        self._next_id += 1
        parent = self._stack[-1][1] if self._stack else 0
        frame = [0.0, self._next_id]
        self._stack.append(frame)
        return frame, parent

    def _close(self, name, frame, parent, start, end):
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][0] += duration
        self.spans.append((frame[1], parent, name, start, end, self.command))
        stats = self.stats
        stats[name + ".calls"] += 1
        stats[name + ".total_s"] += duration
        self_s = duration - frame[0]
        stats[name + ".self_s"] += self_s
        return self_s

    @contextmanager
    def span(self, name: str, command: str):
        """A span the benchmark itself opens: one CLI command or one query
        of the mix. Spans inside it carry ``command`` as their command id."""
        self.command = command
        frame, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, parent, start, perf_counter())
            self.command = None

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)
        stats = self.stats
        stack = self._stack

        if name in _LEAVES:
            calls, total = name + ".calls", name + ".total_s"

            def leaf(*args, **kwargs):
                start = perf_counter()
                result = fn(*args, **kwargs)
                duration = perf_counter() - start
                stats[calls] += 1
                stats[total] += duration
                if stack:
                    stack[-1][0] += duration
                return result

            return leaf

        def wrapper(*args, **kwargs):
            frame, parent = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self_s = self._close(name, frame, parent, start, perf_counter())
            if counter is not None:
                for key, n in counter(result, args, kwargs, self_s).items():
                    stats[key] += n
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import supplykg.cli  # noqa: F401  -- load every module before patching
        from supplykg.terms import Quoted, Triple

        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("supplykg") and m is not None]
        for name, module_name, attr in TRACED:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, method, self._wrap(name, cls.__dict__[method]))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapped)

        stats = self.stats
        for cls in (Triple, Quoted):
            original = cls.__dict__["__hash__"]

            def counting_hash(obj, _original=original):
                stats["terms.hash.calls"] += 1
                return _original(obj)

            self._set(cls, "__hash__", counting_hash)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write_spans(self, path: str) -> None:
        """Write every recorded span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(["id", "parent", "name", "start", "end", "command"]) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
