"""Simple graphs and proper edge-colorings on dense integer vertex ids.

Vertices are always 0..n-1.  Edges are stored canonically: each pair as
(min, max), the whole edge tuple sorted lexicographically.  A `Graph` is
the tuple of exactly `n` and `edges`, so it holds no views beside them;
`masks()` and `degrees()` derive the adjacency bitmasks and the degree
sequence afresh on each call.  Values are immutable after construction.

The records here and across the package are `typing.NamedTuple`s: a
record equals the plain tuple of its fields, `_replace` makes a changed
copy and `_asdict` a dict of its fields.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Mapping, NamedTuple, Sequence

Edge = tuple[int, int]


class GraphError(ValueError):
    """Invalid graph or coloring input."""


def canonical_edge(u: int, v: int) -> Edge:
    if u == v:
        raise GraphError(f"loop edge ({u},{v})")
    return (u, v) if u < v else (v, u)


class Graph(NamedTuple):
    """An undirected simple graph: vertex count plus canonical edge tuple."""

    n: int
    edges: tuple[Edge, ...]

    def masks(self) -> list[int]:
        """Adjacency bitmask of every vertex, in a new list the caller may
        change."""
        adj = [0] * self.n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return adj

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)


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


class ColoredGraph(NamedTuple):
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

    def color_of(self, u: int, v: int) -> int:
        # the edges are sorted, so an edge is found by bisection
        e = canonical_edge(u, v)
        edges = self.graph.edges
        i = bisect_left(edges, e)
        if i == len(edges) or edges[i] != e:
            raise GraphError(f"({u},{v}) is not an edge")
        return self.colors[i]

    def colors_used(self) -> int:
        return len(set(self.colors))


def build_colored_graph(n: int, triples: Iterable[tuple[int, int, int]]) -> ColoredGraph:
    """Build graph and coloring together from (u, v, color) triples."""
    triples = list(triples)
    g = build_graph(n, [(u, v) for u, v, _ in triples])
    for u, v, c in triples:
        if not isinstance(c, int) or c <= 0:
            raise GraphError(f"color ids must be positive integers, got {c!r} on edge ({u},{v})")
    color = {canonical_edge(u, v): c for u, v, c in triples}
    return ColoredGraph(g, tuple(color[e] for e in g.edges))


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
    for part in parts:
        norm = normalize_colors(part)
        for (u, v), c in zip(norm.edges, norm.colors):
            triples.append((u + offset, v + offset, c + color_offset))
        offset += norm.n
        color_offset += len(set(norm.colors))
    return build_colored_graph(offset, triples)
