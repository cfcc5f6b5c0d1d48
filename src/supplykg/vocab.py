"""Vocabulary: the predicate and class names the supply-chain graphs use.

Everything here is an IRI local name. ALIASES maps legacy spellings that
appear in the wild onto the canonical names; schema.normalize applies them
to each triple schema.load_graph reads, so the rest of the package only
ever sees canonical vocabulary.
"""

from __future__ import annotations

from .terms import Iri

RDF_TYPE = Iri("rdf:type")

# classes
NODE = Iri("Node")
SUPPLIER = Iri("Supplier")
CUSTOMER = Iri("Customer")
OEM = Iri("OEM")
ORDER = Iri("Order")
SUPPLY_PLAN = Iri("SupplyPlan")
PRODUCT = Iri("Product")
CAPACITY = Iri("Capacity")
INVENTORY = Iri("Inventory")
PROCESS = Iri("Process")
SUPPLIER_TIER = Iri("SupplierTier")
CUSTOMER_TIER = Iri("CustomerTier")

# SCOR process classes a node's process instance can carry
PROCESS_KINDS = (
    Iri("Plan"),
    Iri("Source"),
    Iri("Make"),
    Iri("Deliver"),
    Iri("Enable"),
    Iri("Return"),
)

# topology
BELONGS_TO_TIER = Iri("belongsToTier")
HAS_UPSTREAM_NODE = Iri("hasUpStreamNode")
HAS_DOWNSTREAM_NODE = Iri("hasDownStreamNode")
HAS_OEM = Iri("hasOEM")
OEM_HAS_NODE = Iri("OEMhasNode")
HAS_UPSTREAM_TIER = Iri("hasUpStreamTier")
HAS_DOWNSTREAM_TIER = Iri("hasDownStreamTier")

# node properties
HAS_GROUP = Iri("hasGroup")
HAS_PRIORITY = Iri("hasPriority")
HAS_SATURATION = Iri("hasSaturation")
HAS_DELIVERY_TIME = Iri("hasDeliveryTime")
HAS_RESPONSIVENESS = Iri("hasResponsiveness")
HAS_RELIABILITY = Iri("hasReliability")
HAS_COST = Iri("hasCost")
HAS_AGILITY = Iri("hasAgility")
HAS_ASSET_MGMT = Iri("hasAssetManagementEfficiency")
HAS_CO2 = Iri("hasCO2Balance")
HAS_LONGITUDE = Iri("hasLongitude")
HAS_LATITUDE = Iri("hasLatitude")
HAS_TRANSPORT_MODE = Iri("hasTransportMode")
HAS_PROCESS = Iri("hasProcess")
HAS_SCOR_KPI = Iri("hasSCORKPI")
MANUFACTURES = Iri("manufactures")

# the five SCOR performance attributes, in canonical order
KPI_PREDICATES = (
    HAS_RESPONSIVENESS,
    HAS_RELIABILITY,
    HAS_COST,
    HAS_AGILITY,
    HAS_ASSET_MGMT,
)

KPI_LABELS = {
    HAS_RESPONSIVENESS: "Responsiveness",
    HAS_RELIABILITY: "Reliability",
    HAS_COST: "Cost",
    HAS_AGILITY: "Agility",
    HAS_ASSET_MGMT: "Asset Management Efficiency",
}

TRANSPORT_MODES = ("road", "rail", "sea", "air")

# bill of materials (both live on quoted statements)
NEEDS_PRODUCT = Iri("needsProduct")
NEEDS_QUANTITY = Iri("needsQuantity")

# orders
MAKES = Iri("makes")
HAS_PRODUCT = Iri("hasProduct")
HAS_QUANTITY = Iri("hasQuantity")
IS_FULFILLED = Iri("isFulfilled")
HAS_SUPPLY_PLAN = Iri("hasSupplyPlan")

# supply-plan allocations (on quoted statements about the plan)
NEEDS_NODE = Iri("needsNode")
GETS_PRODUCT = Iri("getsProduct")
HAS_TIME_STAMP = Iri("hasTimeStamp")
HAS_UNIT_PRICE = Iri("hasUnitPrice")

# capacity and inventory records
HAS_CAPACITY = Iri("hasCapacity")
HAS_INVENTORY = Iri("hasInventory")

ALIASES = {
    Iri("hasLeadTime"): HAS_DELIVERY_TIME,
    Iri("needsComponent"): NEEDS_PRODUCT,
    Iri("hasComponentQuantity"): NEEDS_QUANTITY,
}

# units tolerated on quantity literals like "10m" or "100 unit"
QUANTITY_UNITS = ("m", "unit", "units")

KNOWN_PREDICATES = frozenset(
    [
        RDF_TYPE,
        BELONGS_TO_TIER,
        HAS_UPSTREAM_NODE,
        HAS_DOWNSTREAM_NODE,
        HAS_OEM,
        OEM_HAS_NODE,
        HAS_UPSTREAM_TIER,
        HAS_DOWNSTREAM_TIER,
        HAS_GROUP,
        HAS_PRIORITY,
        HAS_SATURATION,
        HAS_DELIVERY_TIME,
        HAS_RESPONSIVENESS,
        HAS_RELIABILITY,
        HAS_COST,
        HAS_AGILITY,
        HAS_ASSET_MGMT,
        HAS_CO2,
        HAS_LONGITUDE,
        HAS_LATITUDE,
        HAS_TRANSPORT_MODE,
        HAS_PROCESS,
        HAS_SCOR_KPI,
        MANUFACTURES,
        NEEDS_PRODUCT,
        NEEDS_QUANTITY,
        MAKES,
        HAS_PRODUCT,
        HAS_QUANTITY,
        IS_FULFILLED,
        HAS_SUPPLY_PLAN,
        NEEDS_NODE,
        GETS_PRODUCT,
        HAS_TIME_STAMP,
        HAS_UNIT_PRICE,
        HAS_CAPACITY,
        HAS_INVENTORY,
    ]
)

KNOWN_CLASSES = frozenset(
    [
        NODE,
        SUPPLIER,
        CUSTOMER,
        OEM,
        ORDER,
        SUPPLY_PLAN,
        PRODUCT,
        CAPACITY,
        INVENTORY,
        PROCESS,
        SUPPLIER_TIER,
        CUSTOMER_TIER,
        *PROCESS_KINDS,
    ]
)
