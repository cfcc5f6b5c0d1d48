"""supplykg: quoted-triple knowledge graphs for synthetic supply-chain
networks, with a query language, a demand-fulfillment simulator, and
SCOR-style analytics on top."""

from .graph import Graph
from .serialization import GraphParseError, parse_graph, serialize
from .terms import (
    Iri,
    Literal,
    Quoted,
    Triple,
    TriplePattern,
    Variable,
    boolean,
    decimal,
    integer,
    string,
    timestep,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "GraphParseError",
    "Iri",
    "Literal",
    "Quoted",
    "Triple",
    "TriplePattern",
    "Variable",
    "boolean",
    "decimal",
    "integer",
    "parse_graph",
    "serialize",
    "string",
    "timestep",
    "__version__",
]
