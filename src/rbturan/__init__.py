"""Exhaustive search and verification toolkit for rainbow path-avoidance
problems on edge-colored planar graphs."""

__version__ = "0.1.0"

from .graphs import (
    ColoredGraph,
    Graph,
    GraphError,
    build_colored_graph,
    build_graph,
    disjoint_union,
    is_proper,
    normalize_colors,
    permute_colors,
)
from .codec import (
    CodecError,
    decode_colored,
    decode_graph6,
    encode_colored,
    encode_graph6,
)
from .planarity import PlanarityVerdict, is_planar
from .rainbow import RainbowWitness, find_rainbow_path
from .colorer import (
    BUDGET_EXCEEDED,
    SAT,
    UNSAT,
    SearchOutcome,
    find_coloring,
    find_colorings,
    iter_coloring_classes,
    oracle_enumerate,
)

__all__ = [
    "BUDGET_EXCEEDED",
    "CodecError",
    "ColoredGraph",
    "Graph",
    "GraphError",
    "PlanarityVerdict",
    "RainbowWitness",
    "SAT",
    "SearchOutcome",
    "UNSAT",
    "build_colored_graph",
    "build_graph",
    "decode_colored",
    "decode_graph6",
    "disjoint_union",
    "encode_colored",
    "encode_graph6",
    "find_coloring",
    "find_colorings",
    "find_rainbow_path",
    "is_planar",
    "is_proper",
    "iter_coloring_classes",
    "normalize_colors",
    "oracle_enumerate",
    "permute_colors",
]
