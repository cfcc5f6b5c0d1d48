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

The module also parses the config file format used by the command line:
``key = value`` lines, ``#`` comments, ``[a, b]`` integer lists, and
``[Label]`` section headers for scenario files. Dotted keys address the
two map-valued fields, e.g. ``kpi_range_overrides.hasResponsiveness =
[85, 85]`` and ``per_node_overrides.Node3.2.hasPriority = 3`` (the
property is the part after the last dot).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields

from . import schema
from . import vocab as v
from .graph import Graph
from .rng import SplitMix64
from .schema import BomEdge, CapacityView, InventoryView, NodeView, OrderView, capacity_iri, tier_iri
from .terms import Iri, Triple, string


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
_NODE_NAME_RE = re.compile(r"(Supplier)?Node([1-9][0-9]*)\.([1-9][0-9]*)")

# The properties ``emit_node`` draws for each class of node: the ones a
# per_node_overrides entry may replace ("inventory" is the initial stock).
_DRAWN_FOR_ALL = {
    v.HAS_TRANSPORT_MODE.name,
    *(pred.name for pred in schema.NODE_INTS if pred not in (v.HAS_GROUP, v.HAS_PRIORITY)),
}
_OVERRIDABLE = {
    v.OEM: _DRAWN_FOR_ALL | {"inventory"},
    v.SUPPLIER: _DRAWN_FOR_ALL | {v.HAS_GROUP.name, "inventory"},
    v.CUSTOMER: _DRAWN_FOR_ALL | {v.HAS_PRIORITY.name},
}


def _generated_kind(config: GeneratorConfig, node_id: str) -> Iri | None:
    """The class of the node the config generates under ``node_id``, or None."""
    if node_id == _OEM_NAME:
        return v.OEM
    m = _NODE_NAME_RE.fullmatch(node_id)
    if m:
        counts = config.supplier_tier_nodes if m[1] else config.customer_tier_nodes
        tier, index = int(m[2]), int(m[3])
        if tier <= len(counts) and index <= counts[tier - 1]:
            return v.SUPPLIER if m[1] else v.CUSTOMER
    return None


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
    for node_id, prop, _ in config.per_node_overrides:
        kind = _generated_kind(config, node_id)
        if kind is None:
            bad(f"per_node_overrides.{node_id}.{prop}: the config generates no node {node_id}")
        if prop not in _OVERRIDABLE[kind]:
            bad(f"per_node_overrides.{node_id}.{prop}: the generator draws no {prop} for {kind.name} nodes")

    # every value the generator writes must read back through the schema
    bounds = {pred.name: (lo, hi) for pred, (lo, hi, _) in schema.NODE_INTS.items()}
    bounds["inventory"] = (schema.MIN_RECORD_VALUE, None)
    checks = [
        ("saturation_range", config.saturation_range, bounds[v.HAS_SATURATION.name]),
        ("delivery_time_range", config.delivery_time_range, bounds[v.HAS_DELIVERY_TIME.name]),
        ("priority_range", config.priority_range, bounds[v.HAS_PRIORITY.name]),
        *(("kpi_range", config.kpi_range, bounds[pred.name]) for pred in v.KPI_PREDICATES),
        *((f"kpi_range_overrides.{name}", span, bounds[name]) for name, span in config.kpi_range_overrides),
        ("inventory_range", config.inventory_range, bounds["inventory"]),
        ("initial_capacity", [config.initial_capacity], (schema.MIN_RECORD_VALUE, None)),
        ("bom_quantity_range", config.bom_quantity_range, (schema.MIN_BOM_QUANTITY, None)),
        ("order_quantity", [config.order_quantity], (schema.MIN_ORDER_QUANTITY, None)),
        *(
            (f"per_node_overrides.{node_id}.{prop}", [value], bounds[prop])
            for node_id, prop, value in config.per_node_overrides
            if prop in bounds
        ),
    ]
    for name, values, (lo, hi) in checks:
        for value in values:
            rule = schema.outside(value, lo, hi) if isinstance(value, int) else "must be an integer"
            if rule is not None:
                bad(f"{name} {rule}, got {value}")


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

    def add(s, p, o):
        g.insert(Triple(s, p, o))

    def put(view):
        for triple in view.to_triples():
            g.insert(triple)

    def emit_node(name, kind, tier, *, customer=False, group_count=None, product_of=None):
        """Create one node; returns (iri, delivery time)."""
        n = Iri(name)
        over = node_overrides.get(name, {})

        def pick(prop, drawn):
            return over.get(prop, drawn)

        sat = pick(v.HAS_SATURATION.name, rng.randint(*config.saturation_range))
        lead = pick(v.HAS_DELIVERY_TIME.name, rng.randint(*config.delivery_time_range))
        group = pick(v.HAS_GROUP.name, rng.randint(1, group_count)) if group_count is not None else None
        priority = pick(v.HAS_PRIORITY.name, rng.randint(*config.priority_range)) if customer else None
        kpis = {}
        for pred in v.KPI_PREDICATES:
            lo, hi = kpi_ranges.get(pred.name, config.kpi_range)
            kpis[pred] = pick(pred.name, rng.randint(lo, hi))
        co2 = pick(v.HAS_CO2.name, rng.randint(*config.co2_range))
        lon = pick(v.HAS_LONGITUDE.name, rng.randint(*config.longitude_range))
        lat = pick(v.HAS_LATITUDE.name, rng.randint(*config.latitude_range))
        mode = str(pick(v.HAS_TRANSPORT_MODE.name, rng.choice(v.TRANSPORT_MODES)))
        kpi_values = tuple(sorted((pred.name, value) for pred, value in kpis.items()))
        put(NodeView(name, kind.name, tier, sat, lead, group, priority, kpi_values, co2, lon, lat, mode))
        process = Iri("Prcs" + name)
        add(n, v.HAS_PROCESS, process)
        add(process, v.RDF_TYPE, v.PROCESS)
        add(process, v.RDF_TYPE, rng.choice(v.PROCESS_KINDS))
        for pred in v.KPI_PREDICATES:
            add(n, v.HAS_SCOR_KPI, string(f"{v.KPI_LABELS[pred]}: {kpis[pred]}"))

        if product_of is not None:
            product = product_of(group)
            inv_qty = pick("inventory", rng.randint(*config.inventory_range))
            add(n, v.MANUFACTURES, product)
            cap = capacity_iri(name, 0).name
            put(CapacityView(cap, name, product.name, config.initial_capacity, 0, kpis[v.HAS_COST]))
            put(InventoryView(f"Inv{name}", name, product.name, int(inv_qty), 0))
        return n, lead

    finished = Iri("Product")
    oem, oem_lead = emit_node(_OEM_NAME, v.OEM, None, product_of=lambda _: finished)

    supplier_tiers: list[list[Iri]] = []
    supplier_leads: dict[Iri, int] = {}
    for t, count in enumerate(config.supplier_tier_nodes, start=1):
        tier = tier_iri(v.SUPPLIER_TIER, t)
        add(tier, v.RDF_TYPE, v.SUPPLIER_TIER)
        if t > 1:
            add(tier_iri(v.SUPPLIER_TIER, t - 1), v.HAS_UPSTREAM_TIER, tier)
        tier_nodes = []
        for m in range(1, count + 1):
            n, lead = emit_node(
                supplier_name(t, m),
                v.SUPPLIER,
                t,
                group_count=config.supplier_groups[t - 1],
                product_of=lambda grp, t=t: Iri(product_name(t, grp)),
            )
            supplier_leads[n] = lead
            tier_nodes.append(n)
        supplier_tiers.append(tier_nodes)

    customer_tiers: list[list[Iri]] = []
    for t, count in enumerate(config.customer_tier_nodes, start=1):
        tier = tier_iri(v.CUSTOMER_TIER, t)
        add(tier, v.RDF_TYPE, v.CUSTOMER_TIER)
        if t > 1:
            add(tier_iri(v.CUSTOMER_TIER, t - 1), v.HAS_DOWNSTREAM_TIER, tier)
        tier_nodes = []
        for m in range(1, count + 1):
            n, _ = emit_node(customer_name(t, m), v.CUSTOMER, t, customer=True)
            tier_nodes.append(n)
        customer_tiers.append(tier_nodes)

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
    max_lead = max(supplier_leads.values())
    number = 0
    for window in range(0, config.horizon, 10):
        for c in customer_tiers[-1]:
            for i in range(config.demand_frequency):
                issue = window + i * 10 // config.demand_frequency
                due = issue + oem_lead + max_lead + 1
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

_FIELD_TYPES = {f.name: f.type for f in fields(GeneratorConfig)}
_LIST_FIELDS = {"supplier_tier_nodes", "customer_tier_nodes", "supplier_groups"}
_RANGE_FIELDS = tuple(name for name in _FIELD_TYPES if name.endswith("_range"))


def _parse_value(raw, lineno):
    raw = raw.strip()
    if _INT_RE.match(raw):
        return int(raw)
    m = _LIST_RE.match(raw)
    if m:
        items = [p.strip() for p in m.group(1).split(",")] if m.group(1).strip() else []
        for p in items:
            if not _INT_RE.match(p):
                raise ConfigError(f"line {lineno}: list items must be integers, got {p!r}")
        return [int(p) for p in items]
    if _WORD_RE.match(raw):
        return raw
    raise ConfigError(f"line {lineno}: cannot parse value {raw!r}")


def _scan(text):
    """Yield (kind, payload, lineno) with kind in {'section', 'item'}."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        section = _SECTION_RE.match(stripped)
        if section and "=" not in stripped:
            yield "section", section.group(1), lineno
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, raw = stripped.split("=", 1)
        yield "item", (key.strip(), _parse_value(raw, lineno), lineno), None


class _Builder:
    def __init__(self, base: GeneratorConfig):
        self.kwargs = {f.name: getattr(base, f.name) for f in fields(GeneratorConfig)}
        self.kpi_overrides = dict(base.kpi_range_overrides)
        self.node_overrides = {(n, p): val for n, p, val in base.per_node_overrides}

    def apply(self, key, value, lineno):
        if key.startswith("kpi_range_overrides."):
            name = key.split(".", 1)[1]
            if not (isinstance(value, list) and len(value) == 2):
                raise ConfigError(f"line {lineno}: {key} needs a [lo, hi] value")
            self.kpi_overrides[name] = (value[0], value[1])
            return
        if key.startswith("per_node_overrides."):
            rest = key.split(".", 1)[1]
            if "." not in rest:
                raise ConfigError(f"line {lineno}: {key} needs node and property parts")
            node_id, prop = rest.rsplit(".", 1)
            self.node_overrides[(node_id, prop)] = value
            return
        if key not in _FIELD_TYPES or key in ("kpi_range_overrides", "per_node_overrides"):
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in _RANGE_FIELDS:
            if not (isinstance(value, list) and len(value) == 2):
                raise ConfigError(f"line {lineno}: {key} needs a [lo, hi] value")
            self.kwargs[key] = (value[0], value[1])
        elif key in _LIST_FIELDS:
            if not isinstance(value, list):
                raise ConfigError(f"line {lineno}: {key} needs a [..] list value")
            self.kwargs[key] = tuple(value)
        else:  # seed, initial_capacity, demand_frequency, order_quantity, horizon
            if not isinstance(value, int):
                raise ConfigError(f"line {lineno}: {key} needs an integer value")
            self.kwargs[key] = value

    def build(self) -> GeneratorConfig:
        self.kwargs["kpi_range_overrides"] = tuple(sorted(self.kpi_overrides.items()))
        self.kwargs["per_node_overrides"] = tuple(
            (n, p, val) for (n, p), val in sorted(self.node_overrides.items())
        )
        config = GeneratorConfig(**self.kwargs)
        check_config(config)
        return config


def _base_from_items(items):
    preset = "automotive"
    rest = []
    for key, value, lineno in items:
        if key == "preset":
            if not (isinstance(value, str) and value in PRESETS):
                raise ConfigError(f"line {lineno}: unknown preset {value!r}")
            preset = value
        else:
            rest.append((key, value, lineno))
    builder = _Builder(PRESETS[preset]())
    for key, value, lineno in rest:
        builder.apply(key, value, lineno)
    return builder.build()


def parse_config_text(text: str) -> GeneratorConfig:
    items = []
    for kind, payload, lineno in _scan(text):
        if kind == "section":
            raise ConfigError(f"line {lineno}: section headers are only valid in scenario files")
        items.append(payload)
    return _base_from_items(items)


def parse_scenario_text(text: str) -> tuple[GeneratorConfig, list[tuple[str, GeneratorConfig]]]:
    """Parse a scenario file: a base config followed by [Label] override blocks."""
    base_items = []
    sections: list[tuple[str, list]] = []
    for kind, payload, lineno in _scan(text):
        if kind == "section":
            if any(label == payload for label, _ in sections):
                raise ConfigError(f"line {lineno}: duplicate scenario label {payload!r}")
            sections.append((payload, []))
        elif sections:
            sections[-1][1].append(payload)
        else:
            base_items.append(payload)
    base = _base_from_items(base_items)
    if not sections:
        raise ConfigError("scenario file defines no [Label] sections")
    scenarios = []
    for label, items in sections:
        builder = _Builder(base)
        for key, value, lineno in items:
            if key == "preset":
                raise ConfigError(f"line {lineno}: preset is only valid in the base section")
            builder.apply(key, value, lineno)
        scenarios.append((label, builder.build()))
    return base, scenarios


def parse_config_file(path) -> GeneratorConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read())


def parse_scenario_file(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario_text(handle.read())


def with_updates(config: GeneratorConfig, assignments: list[str]) -> GeneratorConfig:
    """Apply command-line ``key=value`` overrides to a config."""
    builder = _Builder(config)
    for i, assignment in enumerate(assignments, start=1):
        if "=" not in assignment:
            raise ConfigError(f"override {i}: expected key=value, got {assignment!r}")
        key, raw = assignment.split("=", 1)
        builder.apply(key.strip(), _parse_value(raw, i), i)
    return builder.build()
