"""Simple graphs and proper edge-colorings on dense integer vertex ids.

Vertices are always 0..n-1.  Edges are stored canonically: each pair as
(min, max), the whole edge tuple sorted lexicographically.  Values are
immutable after construction and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

Edge = tuple[int, int]


class GraphError(ValueError):
    """Invalid graph or coloring input."""


def canonical_edge(u: int, v: int) -> Edge:
    if u == v:
        raise GraphError(f"loop edge ({u},{v})")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class PathSpec:
    """A path on k vertices (k-1 edges); rainbow detection and coloring
    search accept either a PathSpec or a bare int."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise GraphError(f"paths need k >= 2 vertices, got k={self.k}")

    def __index__(self) -> int:
        return self.k


def path_vertex_count(k: "int | PathSpec") -> int:
    return k.k if isinstance(k, PathSpec) else k


@dataclass(frozen=True)
class Graph:
    """An undirected simple graph: vertex count plus canonical edge tuple."""

    n: int
    edges: tuple[Edge, ...]

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Adjacency lists, neighbors in ascending order."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return canonical_edge(u, v) in self.edge_set


def build_graph(n: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    """Validate and canonicalize an edge list into a Graph.

    Rejects loops, duplicate edges (in either orientation) and endpoints
    outside 0..n-1.
    """
    if n < 0:
        raise GraphError(f"negative vertex count {n}")
    seen: set[Edge] = set()
    for u, v in edge_list:
        e = canonical_edge(u, v)
        if e[0] < 0 or e[1] >= n:
            raise GraphError(f"endpoint out of range in edge ({u},{v}) for n={n}")
        if e in seen:
            raise GraphError(f"duplicate edge ({u},{v})")
        seen.add(e)
    return Graph(n, tuple(sorted(seen)))


def components(g: Graph) -> list[list[int]]:
    """Vertex lists of the connected components in depth-first order, each
    starting at its smallest vertex."""
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in g.adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(comp)
    return comps


def neighborhoods(g: Graph, v: int) -> tuple[frozenset[int], frozenset[int]]:
    """Vertices at distance exactly 1 and exactly 2 from v."""
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range for n={g.n}")
    n1 = frozenset(g.adj[v])
    n2: set[int] = set()
    for u in n1:
        n2.update(g.adj[u])
    n2.discard(v)
    n2 -= n1
    return n1, frozenset(n2)


@dataclass(frozen=True)
class ColoredGraph:
    """A Graph with a total edge -> color assignment.

    ``colors[i]`` is the positive color id of ``graph.edges[i]``.
    """

    graph: Graph
    colors: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self.graph.edges

    @cached_property
    def color_map(self) -> dict[Edge, int]:
        return dict(zip(self.graph.edges, self.colors))

    def color_of(self, u: int, v: int) -> int:
        e = canonical_edge(u, v)
        try:
            return self.color_map[e]
        except KeyError:
            raise GraphError(f"({u},{v}) is not an edge") from None

    def colors_used(self) -> int:
        return len(set(self.colors))


def color_graph(g: Graph, coloring: Mapping[tuple[int, int], int] | Sequence[int]) -> ColoredGraph:
    """Attach a total coloring to g, given as an edge->color mapping or as a
    color sequence parallel to g.edges."""
    if isinstance(coloring, Mapping):
        normalized = {canonical_edge(u, v): c for (u, v), c in coloring.items()}
        missing = [e for e in g.edges if e not in normalized]
        if missing:
            raise GraphError(f"edges without a color: {missing[:3]}")
        extra = [e for e in normalized if e not in g.edge_set]
        if extra:
            raise GraphError(f"colored non-edges: {extra[:3]}")
        colors = tuple(normalized[e] for e in g.edges)
    else:
        colors = tuple(coloring)
        if len(colors) != len(g.edges):
            raise GraphError(
                f"{len(colors)} colors for {len(g.edges)} edges"
            )
    for c in colors:
        if not isinstance(c, int) or c <= 0:
            raise GraphError(f"color ids must be positive integers, got {c!r}")
    return ColoredGraph(g, colors)


def build_colored_graph(n: int, triples: Iterable[tuple[int, int, int]]) -> ColoredGraph:
    """Build graph and coloring together from (u, v, color) triples."""
    triples = list(triples)
    g = build_graph(n, [(u, v) for u, v, _ in triples])
    return color_graph(g, {(u, v): c for u, v, c in triples})


def is_proper(cg: ColoredGraph) -> bool:
    """True iff no two edges sharing an endpoint have the same color."""
    seen: list[set[int]] = [set() for _ in range(cg.n)]
    for (u, v), c in zip(cg.edges, cg.colors):
        if c in seen[u] or c in seen[v]:
            return False
        seen[u].add(c)
        seen[v].add(c)
    return True


def normalize_colors(cg: ColoredGraph) -> ColoredGraph:
    """Rename colors to 1..t in first-occurrence order over the canonical
    edge order.  Two colorings are equal up to renaming iff they normalize
    to the same value."""
    rename: dict[int, int] = {}
    out = []
    for c in cg.colors:
        if c not in rename:
            rename[c] = len(rename) + 1
        out.append(rename[c])
    return ColoredGraph(cg.graph, tuple(out))


def permute_colors(cg: ColoredGraph, mapping: Mapping[int, int]) -> ColoredGraph:
    """Apply a color bijection.  Must be defined and injective on the colors
    actually used."""
    used = set(cg.colors)
    missing = used - set(mapping)
    if missing:
        raise GraphError(f"mapping undefined on used colors {sorted(missing)}")
    image = [mapping[c] for c in sorted(used)]
    if len(set(image)) != len(image):
        raise GraphError("mapping is not injective on used colors")
    if any(not isinstance(c, int) or c <= 0 for c in image):
        raise GraphError("mapped color ids must be positive integers")
    return ColoredGraph(cg.graph, tuple(mapping[c] for c in cg.colors))


def disjoint_union(parts: Sequence[ColoredGraph]) -> ColoredGraph:
    """Disjoint union: vertex ids shifted per part, color ranges kept
    disjoint across parts (each part is normalized first, then offset)."""
    offset = 0
    color_offset = 0
    triples: list[tuple[int, int, int]] = []
    total = 0
    for part in parts:
        norm = normalize_colors(part)
        for (u, v), c in zip(norm.edges, norm.colors):
            triples.append((u + offset, v + offset, c + color_offset))
        offset += norm.n
        color_offset += len(set(norm.colors))
        total += norm.n
    return build_colored_graph(total, triples)
