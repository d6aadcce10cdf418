"""Exact detection of rainbow paths in an edge-colored graph.

A rainbow P_k is a path on k distinct vertices whose k-1 edges carry
pairwise distinct colors.  Detection is depth-first extension from every
start vertex, neighbors in ascending id order, with used vertices and
used (normalized) colors carried together in one bitmask read from a
precomputed per-vertex adjacency; the returned witness is therefore the
lexicographically least one and reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import ColoredGraph, GraphError, normalize_colors


@dataclass(frozen=True)
class RainbowWitness:
    """An explicit rainbow path: the vertex sequence and its edge colors."""

    vertices: tuple[int, ...]
    colors: tuple[int, ...]


def _colored_adjacency(cg: ColoredGraph) -> list[list[tuple[int, int]]]:
    """Per vertex, (neighbour, bits) in ascending neighbour order.  One
    mask carries both what a step uses up: bit w for the neighbour w and
    bit n + c for the normalized color c of the edge."""
    n = cg.n
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v), c in zip(cg.edges, normalize_colors(cg).colors):
        cbit = 1 << (n + c)
        nbrs[u].append((v, (1 << v) | cbit))
        nbrs[v].append((u, (1 << u) | cbit))
    for lst in nbrs:
        lst.sort()
    return nbrs


def find_rainbow_path(cg: ColoredGraph, k: int) -> RainbowWitness | None:
    """Least rainbow P_k witness of cg, or None if cg is rainbow-P_k-free."""
    if k < 2:
        raise GraphError(f"paths need k >= 2 vertices, got k={k}")
    g = cg.graph
    if k > g.n:
        return None
    nbrs = _colored_adjacency(cg)
    path = [0] * k
    last = k - 1

    def extend(v: int, depth: int, used: int) -> bool:
        for w, bits in nbrs[v]:
            if used & bits:
                continue
            path[depth] = w
            if depth == last or extend(w, depth + 1, used | bits):
                return True
        return False

    for s in range(g.n):
        path[0] = s
        if extend(s, 1, 1 << s):
            cols = tuple(cg.color_of(path[i], path[i + 1]) for i in range(k - 1))
            return RainbowWitness(tuple(path), cols)
    return None

