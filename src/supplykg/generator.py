"""Seeded synthetic supply-chain network builder.

``generate`` turns a ``GeneratorConfig`` into a complete graph: tier
entities, one focal assembler node, supplier and customer nodes with all
performance properties, a layered bill of materials, capacity and
inventory records at step 0, and a demand stream of customer orders.
The same config (same seed included) always produces the byte-identical
serialized graph.

Determinism contract. A single splitmix64 stream drives every random
choice, and draws happen in one documented order:

1. focal node, then supplier tiers in index order (nodes in index order),
   then customer tiers likewise; per node the draws are: saturation,
   delivery time, group (suppliers only), priority (customers only), the
   five performance indicators in canonical order, CO2 balance, longitude,
   latitude, transport mode, process kind, initial inventory (manufacturing
   nodes only);
2. bill-of-materials quantities, parents before children, both in name
   order;
3. tier-link fill-ins for nodes the round-robin pass left uncovered.

Per-node overrides replace a drawn value after the draw, so overriding one
node never shifts any other node's values. Degenerate ranges like [85, 85]
also consume exactly one draw, which keeps scenario configs that pin a
value aligned with their unpinned siblings.

The module also reads configs from text. A config file holds ``key =
value`` lines, ``#`` comments and ``[a, b]`` integer lists; a scenario
file adds ``[Label]`` section headers, each section applied to the base
config the lines before any header give. Dotted keys address the two
map-valued fields, e.g. ``kpi_range_overrides.hasResponsiveness = [85,
85]`` and ``per_node_overrides.Node3.2.hasPriority = 3`` (the property is
the part after the last dot). The command line's ``--set key=value``
takes the same keys and values. Every source becomes (key, value, where)
items, and one function, ``_configure``, applies them to a config and
checks the result once; a fault names its ``where``: "line N" of a file
or "override N" of the command line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, replace

from . import schema
from . import vocab as v
from .graph import Graph
from .rng import SplitMix64
from .schema import BomEdge, CapacityView, InventoryView, NodeView, OrderView, capacity_iri, tier_iri
from .terms import INTEGER, Iri, Triple, string


class ConfigError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class GeneratorConfig:
    seed: int = 7
    supplier_tier_nodes: tuple[int, ...] = (2, 3, 5)
    customer_tier_nodes: tuple[int, ...] = (2, 2, 4)
    supplier_groups: tuple[int, ...] = (1, 2, 4)
    priority_range: tuple[int, int] = (1, 3)
    saturation_range: tuple[int, int] = (1_000_000, 3_000_000)
    delivery_time_range: tuple[int, int] = (1, 7)
    inventory_range: tuple[int, int] = (10_000, 50_000)
    initial_capacity: int = 1000
    kpi_range: tuple[int, int] = (0, 100)
    co2_range: tuple[int, int] = (30, 45)
    longitude_range: tuple[int, int] = (0, 180)
    latitude_range: tuple[int, int] = (0, 90)
    bom_quantity_range: tuple[int, int] = (1, 4)
    demand_frequency: int = 2
    order_quantity: int = 100_000
    horizon: int = 178
    kpi_range_overrides: tuple[tuple[str, tuple[int, int]], ...] = ()
    per_node_overrides: tuple[tuple[str, str, object], ...] = ()


def automotive() -> GeneratorConfig:
    """Three supplier tiers, three customer tiers, heavy infrequent orders."""
    return GeneratorConfig()


def dairy() -> GeneratorConfig:
    """One supplier tier, two customer tiers, frequent small orders."""
    return GeneratorConfig(
        supplier_tier_nodes=(3,),
        customer_tier_nodes=(2, 3),
        supplier_groups=(1,),
        saturation_range=(500_000, 1_000_000),
        delivery_time_range=(1, 3),
        inventory_range=(5_000, 10_000),
        longitude_range=(90, 180),
        latitude_range=(45, 90),
        demand_frequency=10,
        order_quantity=5_000,
        horizon=60,
    )


PRESETS = {"automotive": automotive, "dairy": dairy}

_OEM_NAME = "OEM1"

# The properties ``emit_node`` draws for each class of node: the ones a
# per_node_overrides entry may replace ("inventory" is the initial stock).
_DRAWN_FOR_ALL = {
    f.predicate.name for f in schema.NODE_SHAPE.fields if f.kind is not Iri and f.attr not in ("group", "priority")
}
_OVERRIDABLE = {
    v.OEM: _DRAWN_FOR_ALL | {"inventory"},
    v.SUPPLIER: _DRAWN_FOR_ALL | {v.HAS_GROUP.name, "inventory"},
    v.CUSTOMER: _DRAWN_FOR_ALL | {v.HAS_PRIORITY.name},
}


def _generated_kinds(config: GeneratorConfig) -> dict[str, Iri]:
    """The class of each node the config generates, by the node's name."""
    kinds = {_OEM_NAME: v.OEM}
    for kind, name, counts in (
        (v.SUPPLIER, supplier_name, config.supplier_tier_nodes),
        (v.CUSTOMER, customer_name, config.customer_tier_nodes),
    ):
        kinds.update((name(t, i), kind) for t, count in enumerate(counts, start=1) for i in range(1, count + 1))
    return kinds


def check_config(config: GeneratorConfig) -> None:
    def bad(message):
        raise ConfigError(message)

    if not config.supplier_tier_nodes or any(n < 1 for n in config.supplier_tier_nodes):
        bad("supplier_tier_nodes must list at least one tier with >= 1 nodes")
    if not config.customer_tier_nodes or any(n < 1 for n in config.customer_tier_nodes):
        bad("customer_tier_nodes must list at least one tier with >= 1 nodes")
    if len(config.supplier_groups) != len(config.supplier_tier_nodes):
        bad("supplier_groups must have one entry per supplier tier")
    if any(gcount < 1 for gcount in config.supplier_groups):
        bad("supplier group counts must be >= 1")
    for name in _RANGE_FIELDS:
        lo, hi = getattr(config, name)
        if lo > hi:
            bad(f"{name} is empty: [{lo}, {hi}]")
    if config.demand_frequency < 1:
        bad("demand_frequency must be >= 1")
    if config.horizon < 1:
        bad("horizon must be >= 1")
    for name, (lo, hi) in config.kpi_range_overrides:
        if not any(name == pred.name for pred in v.KPI_PREDICATES):
            bad(f"kpi_range_overrides names unknown indicator {name}")
        if lo > hi:
            bad(f"kpi_range_overrides.{name} is empty: [{lo}, {hi}]")
    kinds = _generated_kinds(config) if config.per_node_overrides else {}
    for node_id, prop, _ in config.per_node_overrides:
        kind = kinds.get(node_id)
        if kind is None:
            bad(f"per_node_overrides.{node_id}.{prop}: the config generates no node {node_id}")
        if prop not in _OVERRIDABLE[kind]:
            bad(f"per_node_overrides.{node_id}.{prop}: the generator draws no {prop} for {kind.name} nodes")

    # every value the generator writes must read back through its shape
    by_name = {f.predicate.name: f for f in schema.NODE_SHAPE.fields if f.kind is not Iri}
    by_name["inventory"] = schema.INVENTORY_SHAPE.field["quantity"]
    checks = [
        ("saturation_range", config.saturation_range, by_name[v.HAS_SATURATION.name]),
        ("delivery_time_range", config.delivery_time_range, by_name[v.HAS_DELIVERY_TIME.name]),
        ("priority_range", config.priority_range, by_name[v.HAS_PRIORITY.name]),
        *(("kpi_range", config.kpi_range, by_name[pred.name]) for pred in v.KPI_PREDICATES),
        *((f"kpi_range_overrides.{name}", span, by_name[name]) for name, span in config.kpi_range_overrides),
        ("inventory_range", config.inventory_range, by_name["inventory"]),
        ("initial_capacity", [config.initial_capacity], schema.CAPACITY_SHAPE.field["quantity"]),
        ("bom_quantity_range", config.bom_quantity_range, schema.BOM_EDGE_SHAPE.field["quantity"]),
        ("order_quantity", [config.order_quantity], schema.ORDER_SHAPE.field["quantity"]),
        *(
            (f"per_node_overrides.{node_id}.{prop}", [value], by_name[prop])
            for node_id, prop, value in config.per_node_overrides
        ),
    ]
    for name, values, field in checks:
        for value in values:
            integral = field.kind != INTEGER or isinstance(value, int)
            rule = field.broken(value) if integral else "must be an integer"
            if rule is not None:
                bad(f"{name} {rule}, got {value}")

    # the OEM and every supplier start with a capacity record of
    # initial_capacity, which their saturation must hold
    pinned = {
        node_id: value
        for node_id, prop, value in config.per_node_overrides
        if prop == v.HAS_SATURATION.name and kinds[node_id] is not v.CUSTOMER
    }
    lows = [(f"per_node_overrides.{node_id}.{v.HAS_SATURATION.name}", value) for node_id, value in pinned.items()]
    if len(pinned) < 1 + sum(config.supplier_tier_nodes):  # some draw from the range
        lows.insert(0, ("saturation_range low end", config.saturation_range[0]))
    for name, low in lows:
        if low < config.initial_capacity:
            bad(f"{name} must be >= initial_capacity {config.initial_capacity}, got {low}")


def supplier_name(tier: int, index: int) -> str:
    return f"SupplierNode{tier}.{index}"


def customer_name(tier: int, index: int) -> str:
    return f"Node{tier}.{index}"


def product_name(tier: int, group: int) -> str:
    return f"Product{tier}.{group}"


def generate(config: GeneratorConfig) -> Graph:
    check_config(config)
    rng = SplitMix64(config.seed)
    g = Graph()
    kpi_ranges = dict(config.kpi_range_overrides)
    node_overrides: dict[str, dict[str, object]] = {}
    for node_id, prop, value in config.per_node_overrides:
        node_overrides.setdefault(node_id, {})[prop] = value

    finished = Iri("Product")
    leads: dict[Iri, int] = {}  # node -> its delivery time

    def add(s, p, o):
        g.insert(Triple(s, p, o))

    def put(view):
        for triple in view.to_triples():
            g.insert(triple)

    def emit_node(name, kind, tier):
        """Create one node of class ``kind`` and return its IRI. A supplier
        draws its group, which names its product, a customer its priority;
        the OEM makes the finished product."""
        n = Iri(name)
        over = node_overrides.get(name, {})

        def pick(prop, drawn):
            return over.get(prop, drawn)

        sat = pick(v.HAS_SATURATION.name, rng.randint(*config.saturation_range))
        lead = pick(v.HAS_DELIVERY_TIME.name, rng.randint(*config.delivery_time_range))
        group = priority = None
        product = finished.name if kind == v.OEM else None
        if kind == v.SUPPLIER:
            group = pick(v.HAS_GROUP.name, rng.randint(1, config.supplier_groups[tier - 1]))
            product = product_name(tier, group)
        if kind == v.CUSTOMER:
            priority = pick(v.HAS_PRIORITY.name, rng.randint(*config.priority_range))
        kpis = {}
        for pred in v.KPI_PREDICATES:
            lo, hi = kpi_ranges.get(pred.name, config.kpi_range)
            kpis[pred] = pick(pred.name, rng.randint(lo, hi))
        co2 = pick(v.HAS_CO2.name, rng.randint(*config.co2_range))
        lon = pick(v.HAS_LONGITUDE.name, rng.randint(*config.longitude_range))
        lat = pick(v.HAS_LATITUDE.name, rng.randint(*config.latitude_range))
        mode = pick(v.HAS_TRANSPORT_MODE.name, rng.choice(v.TRANSPORT_MODES))
        kpi_values = tuple(sorted((pred.name, value) for pred, value in kpis.items()))
        made = () if product is None else (product,)
        put(NodeView(name, kind.name, tier, sat, lead, group, priority, kpi_values, co2, lon, lat, mode, made))
        process = Iri("Prcs" + name)
        add(n, v.HAS_PROCESS, process)
        add(process, v.RDF_TYPE, v.PROCESS)
        add(process, v.RDF_TYPE, rng.choice(v.PROCESS_KINDS))
        for pred in v.KPI_PREDICATES:
            add(n, v.HAS_SCOR_KPI, string(f"{v.KPI_LABELS[pred]}: {kpis[pred]}"))

        if product is not None:
            inv_qty = pick("inventory", rng.randint(*config.inventory_range))
            cap = capacity_iri(name, 0).name
            put(CapacityView(cap, name, product, config.initial_capacity, 0, kpis[v.HAS_COST]))
            put(InventoryView(f"Inv{name}", name, product, int(inv_qty), 0))
        leads[n] = lead
        return n

    oem = emit_node(_OEM_NAME, v.OEM, None)
    tiers: dict[Iri, list[list[Iri]]] = {}  # class -> its side's tiers of nodes, suppliers drawn first
    for kind, counts, name, tier_class, tier_link in (
        (v.SUPPLIER, config.supplier_tier_nodes, supplier_name, v.SUPPLIER_TIER, v.HAS_UPSTREAM_TIER),
        (v.CUSTOMER, config.customer_tier_nodes, customer_name, v.CUSTOMER_TIER, v.HAS_DOWNSTREAM_TIER),
    ):
        tiers[kind] = []
        for t, count in enumerate(counts, start=1):
            add(tier_iri(kind, t), v.RDF_TYPE, tier_class)
            if t > 1:
                add(tier_iri(kind, t - 1), tier_link, tier_iri(kind, t))
            tiers[kind].append([emit_node(name(t, m), kind, t) for m in range(1, count + 1)])
    supplier_tiers, customer_tiers = tiers[v.SUPPLIER], tiers[v.CUSTOMER]

    # products and the layered bill of materials
    add(finished, v.RDF_TYPE, v.PRODUCT)
    product_levels: list[list[Iri]] = [[finished]]
    for t, gcount in enumerate(config.supplier_groups, start=1):
        level = [Iri(product_name(t, grp)) for grp in range(1, gcount + 1)]
        for p in level:
            add(p, v.RDF_TYPE, v.PRODUCT)
        product_levels.append(level)
    for t in range(1, len(product_levels)):
        for parent in product_levels[t - 1]:
            for child in product_levels[t]:
                put(BomEdge(parent.name, child.name, rng.randint(*config.bom_quantity_range)))

    def link_tiers(lower, upper, pred, invert):
        """Connect adjacent tiers so both sides are fully covered.

        Round-robin gives every ``upper`` node one link; any ``lower``
        node still unlinked afterwards gets a randomly chosen partner.
        ``invert`` flips subject and object (the customer side points
        down the chain, the supplier side points up).
        """
        covered = set()
        for j, b in enumerate(upper):
            a = lower[j % len(lower)]
            covered.add(a)
            add(b, pred, a) if invert else add(a, pred, b)
        for a in lower:
            if a not in covered:
                b = rng.choice(upper)
                add(b, pred, a) if invert else add(a, pred, b)

    for t in range(len(supplier_tiers) - 1):
        link_tiers(supplier_tiers[t], supplier_tiers[t + 1], v.HAS_UPSTREAM_NODE, invert=False)
    for t in range(len(customer_tiers) - 1):
        link_tiers(customer_tiers[t + 1], customer_tiers[t], v.HAS_DOWNSTREAM_NODE, invert=True)

    for s in supplier_tiers[0]:
        add(s, v.HAS_OEM, oem)
        add(oem, v.HAS_UPSTREAM_NODE, s)
    for c in customer_tiers[0]:
        add(oem, v.OEM_HAS_NODE, c)
        add(oem, v.HAS_DOWNSTREAM_NODE, c)

    # demand stream from the most-downstream customers
    max_lead = max(leads[s] for tier in supplier_tiers for s in tier)
    number = 0
    for window in range(0, config.horizon, 10):
        for c in customer_tiers[-1]:
            for i in range(config.demand_frequency):
                issue = window + i * 10 // config.demand_frequency
                due = issue + leads[oem] + max_lead + 1
                if issue >= config.horizon or due >= config.horizon:
                    continue
                number += 1
                plan = f"SPOrder{number}"
                put(OrderView(f"Order{number}", c.name, finished.name, config.order_quantity, due, None, plan))
                add(Iri(plan), v.RDF_TYPE, v.SUPPLY_PLAN)
    return g


# --- config file parsing ---

_INT_RE = re.compile(r"^-?\d+$")
_LIST_RE = re.compile(r"^\[(.*)\]$")
_WORD_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.:-]*$")
_SECTION_RE = re.compile(r"^\[([A-Za-z_][A-Za-z0-9_.-]*)\]$")

_LIST_FIELDS = {"supplier_tier_nodes", "customer_tier_nodes", "supplier_groups"}
_RANGE_FIELDS = tuple(f.name for f in fields(GeneratorConfig) if f.name.endswith("_range"))
_INT_FIELDS = {f.name for f in fields(GeneratorConfig) if isinstance(f.default, int)}


def _parse_value(raw, where):
    raw = raw.strip()
    if _INT_RE.match(raw):
        return int(raw)
    m = _LIST_RE.match(raw)
    if m:
        items = [p.strip() for p in m.group(1).split(",")] if m.group(1).strip() else []
        for p in items:
            if not _INT_RE.match(p):
                raise ConfigError(f"{where}: list items must be integers, got {p!r}")
        return [int(p) for p in items]
    if _WORD_RE.match(raw):
        return raw
    raise ConfigError(f"{where}: cannot parse value {raw!r}")


def _sections(text: str, scenario: bool) -> list[tuple[str | None, list]]:
    """The (label, items) sections of a config text, in order, the lines
    before any ``[Label]`` header first, under None. Each item is (key,
    value, where). Only a ``scenario`` text may have headers, and its
    sections may not name a preset."""
    sections: list[tuple[str | None, list]] = [(None, [])]
    for lineno, line in enumerate(text.splitlines(), start=1):
        where = f"line {lineno}"
        stripped = line.split("#", 1)[0].strip()
        header = _SECTION_RE.match(stripped)
        if header:
            if not scenario:
                raise ConfigError(f"{where}: section headers are only valid in scenario files")
            if any(label == header[1] for label, _ in sections):
                raise ConfigError(f"{where}: duplicate scenario label {header[1]!r}")
            sections.append((header[1], []))
        elif "=" in stripped:
            key, raw = stripped.split("=", 1)
            key, value = key.strip(), _parse_value(raw, where)
            if key == "preset" and len(sections) > 1:
                raise ConfigError(f"{where}: preset is only valid in the base section")
            sections[-1][1].append((key, value, where))
        elif stripped:
            raise ConfigError(f"{where}: expected key = value")
    return sections


def _span(key, value, where) -> tuple[int, int]:
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{where}: {key} needs a [lo, hi] value")
    return tuple(value)


def _configure(config: GeneratorConfig, items, presets: bool = False) -> GeneratorConfig:
    """``config`` with the (key, value, where) items applied in order, then
    checked once. A key names a range, list or integer field, or one entry
    of a map-valued field after a dot; a value of the wrong kind is a fault
    at its ``where``. With ``presets``, a ``preset`` item names the config
    the other items apply to, wherever it stands."""
    changes, kpis, nodes = {}, {}, {}
    for key, value, where in items:
        if presets and key == "preset":
            if not (isinstance(value, str) and value in PRESETS):
                raise ConfigError(f"{where}: unknown preset {value!r}")
            config = PRESETS[value]()
        elif key.startswith("kpi_range_overrides."):
            kpis[key.split(".", 1)[1]] = _span(key, value, where)
        elif key.startswith("per_node_overrides."):
            node_id, dot, prop = key.split(".", 1)[1].rpartition(".")
            if not dot:
                raise ConfigError(f"{where}: {key} needs node and property parts")
            nodes[node_id, prop] = (node_id, prop, value)
        elif key in _RANGE_FIELDS:
            changes[key] = _span(key, value, where)
        elif key in _LIST_FIELDS:
            if not isinstance(value, list):
                raise ConfigError(f"{where}: {key} needs a [..] list value")
            changes[key] = tuple(value)
        elif key in _INT_FIELDS:
            if not isinstance(value, int):
                raise ConfigError(f"{where}: {key} needs an integer value")
            changes[key] = value
        else:
            raise ConfigError(f"{where}: unknown config key {key!r}")
    changes["kpi_range_overrides"] = tuple(sorted((dict(config.kpi_range_overrides) | kpis).items()))
    nodes = {entry[:2]: entry for entry in config.per_node_overrides} | nodes
    changes["per_node_overrides"] = tuple(nodes[key] for key in sorted(nodes))
    config = replace(config, **changes)
    check_config(config)
    return config


def parse_config_text(text: str) -> GeneratorConfig:
    [(_, items)] = _sections(text, scenario=False)
    return _configure(automotive(), items, presets=True)


def parse_scenario_text(text: str) -> tuple[GeneratorConfig, list[tuple[str, GeneratorConfig]]]:
    """Parse a scenario file: a base config followed by [Label] override blocks."""
    (_, items), *sections = _sections(text, scenario=True)
    base = _configure(automotive(), items, presets=True)
    if not sections:
        raise ConfigError("scenario file defines no [Label] sections")
    return base, [(label, _configure(base, items)) for label, items in sections]


def parse_config_file(path) -> GeneratorConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read())


def parse_scenario_file(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario_text(handle.read())


def with_updates(config: GeneratorConfig, assignments: list[str]) -> GeneratorConfig:
    """Apply command-line ``key=value`` overrides to a config: the keys and
    values of a config file's lines, each fault naming its "override N"."""
    items = []
    for i, assignment in enumerate(assignments, start=1):
        where = f"override {i}"
        if "=" not in assignment:
            raise ConfigError(f"{where}: expected key=value, got {assignment!r}")
        key, raw = assignment.split("=", 1)
        items.append((key.strip(), _parse_value(raw, where), where))
    return _configure(config, items)
