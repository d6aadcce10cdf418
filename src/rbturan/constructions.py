"""Generators for the explicit extremal colored constructions, plus the
validation gate (edge count, properness, planarity, rainbow-freeness).

Families:

  matching      floor(n/2) disjoint edges in distinct colors, no rainbow P3
  k4-blocks     disjoint K4 blocks, one shared proper 3-coloring (n % 4 == 0)
  g5, g7        the fixed 5- and 7-vertex graphs with floor(3n/2) edges
  gn            floor(3n/2)-edge rainbow-P5-free family for any n >= 4:
                K4, g5, g7, a 3-colored prism for even n, and the disjoint
                union gn(n-5) + g5 for odd n >= 9
  double-wheel  (K1 u K1) + C_{n-2} with 2n-2 colors (n even), no rainbow P8
  k2-path       K2 + P_{n-2} with 2n-3 colors (n odd), no rainbow P8
  octahedron    4-regular on 6 vertices with a frozen proper 4-coloring
  icosahedron   5-regular on 12 vertices with a frozen proper 5-coloring
  disjoint-copies  t disjoint copies of a base family

FAMILY_TABLE states the facts of each family once: its builder, the k of
the rainbow P_k it avoids, its edge count as a function of n (floor(n/2),
floor(3n/2) or the planar maximum 3n-6), its fixed n if it has one, and
whether the extremal pipeline claims it as an achiever.  `make`, the `construct`
defaults and `extremal._claimed_achiever` all read it.

The prism coloring has two variants keyed on the parity of n/2; the
validator is the authority that certifies every instance, so a
transcription slip cannot pass silently.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from .graphs import (
    ColoredGraph,
    GraphError,
    build_colored_graph,
    build_graph,
    disjoint_union,
    is_proper,
)
from .planarity import is_planar, planar_edge_cap
from .rainbow import find_rainbow_path


class ValidationReport(NamedTuple):
    edge_count: int
    expected_edges: int
    proper: bool
    planar: bool
    rainbow_free: bool
    colors_used: int
    k: int

    @property
    def passed(self) -> bool:
        return (
            self.proper
            and self.planar
            and self.rainbow_free
            and self.edge_count == self.expected_edges
        )

    def to_doc(self) -> dict[str, Any]:
        return {**self._asdict(), "passed": self.passed}


def matching(n: int) -> ColoredGraph:
    """floor(n/2) disjoint edges, each in its own color."""
    if n < 1:
        raise GraphError(f"matching needs n >= 1, got n={n}")
    return build_colored_graph(n, [(2 * i, 2 * i + 1, 1 + i) for i in range(n // 2)])


def _k4_block() -> list[tuple[int, int, int]]:
    return [(0, 1, 1), (0, 2, 2), (0, 3, 3), (1, 2, 3), (1, 3, 2), (2, 3, 1)]


def k4_blocks(n: int) -> ColoredGraph:
    if n % 4 != 0 or n < 4:
        raise GraphError(f"k4-blocks needs n divisible by 4, got n={n}")
    triples = []
    for b in range(n // 4):
        triples.extend((u + 4 * b, v + 4 * b, c) for u, v, c in _k4_block())
    return build_colored_graph(n, triples)


def g5() -> ColoredGraph:
    return build_colored_graph(
        5,
        [
            (0, 1, 1), (0, 2, 2), (0, 3, 3), (2, 3, 4),
            (4, 1, 4), (4, 2, 3), (4, 3, 2),
        ],
    )


def g7() -> ColoredGraph:
    return build_colored_graph(
        7,
        [
            (0, 1, 1), (0, 3, 2), (0, 4, 3), (0, 5, 4),
            (1, 2, 3), (2, 3, 4),
            (6, 1, 2), (6, 3, 1), (6, 4, 4), (6, 5, 3),
        ],
    )


def _prism(n: int) -> ColoredGraph:
    """3-edge-colored prism on two (n/2)-cycles joined by rungs; the rung
    and closing-edge colors differ between the even and odd n/2 variants."""
    h = n // 2
    a = list(range(h))          # top cycle
    b = list(range(h, 2 * h))   # bottom cycle
    triples: list[tuple[int, int, int]] = []
    for row in (a, b):
        for i in range(h - 1):
            triples.append((row[i], row[i + 1], 1 if i % 2 == 0 else 2))
    if h % 2 == 0:
        triples.append((a[0], a[-1], 2))
        triples.append((b[0], b[-1], 2))
        triples.extend((a[i], b[i], 3) for i in range(h))
    else:
        triples.append((a[0], a[-1], 3))
        triples.append((b[0], b[-1], 3))
        triples.append((a[0], b[0], 2))
        triples.extend((a[i], b[i], 3) for i in range(1, h - 1))
        triples.append((a[-1], b[-1], 1))
    return build_colored_graph(n, triples)


def gn(n: int) -> ColoredGraph:
    """floor(3n/2)-edge rainbow-P5-free planar family, any n >= 4."""
    if n < 4:
        raise GraphError(f"gn needs n >= 4, got n={n}")
    if n == 4:
        return k4_blocks(4)
    if n == 5:
        return g5()
    if n == 7:
        return g7()
    if n % 2 == 0:
        return _prism(n)
    return disjoint_union([gn(n - 5), g5()])


def double_wheel(n: int) -> ColoredGraph:
    """(K1 u K1) + C_{n-2}: hubs u, w over an (n-2)-cycle, 2n-2 colors."""
    if n % 2 != 0 or n < 6:
        raise GraphError(f"double-wheel needs even n >= 6, got n={n}")
    u, w = n - 2, n - 1
    ring = list(range(n - 2))
    triples = []
    # spokes: one fresh color per edge
    for i, v in enumerate(ring):
        triples.append((u, v, 1 + i))
        triples.append((w, v, 1 + (n - 2) + i))
    ca, cb = 2 * n - 3, 2 * n - 2
    for i in range(n - 2):
        v, x = ring[i], ring[(i + 1) % (n - 2)]
        triples.append((v, x, ca if i % 2 == 0 else cb))
    return build_colored_graph(n, triples)


def k2_path(n: int) -> ColoredGraph:
    """K2 + P_{n-2}: adjacent hubs u, w over a path v1..v_{n-2}, 2n-3
    colors; u's two path-end spokes belong to the alternating even cycle
    u v1 ... v_{n-2} u."""
    if n % 2 != 1 or n < 5:
        raise GraphError(f"k2-path needs odd n >= 5, got n={n}")
    u, w = n - 2, n - 1
    path = list(range(n - 2))
    triples = []
    fresh = 1
    for i in range(1, n - 3):  # spokes u-v_i for inner i
        triples.append((u, path[i], fresh))
        fresh += 1
    for i in range(n - 2):  # spokes w-v_i, all fresh
        triples.append((w, path[i], fresh))
        fresh += 1
    d = fresh
    ca, cb = fresh + 1, fresh + 2
    triples.append((u, w, d))
    # even cycle u v1 v2 ... v_{n-2} u, alternately colored a, b
    cycle = [u] + path + [u]
    for j in range(len(cycle) - 1):
        triples.append((cycle[j], cycle[j + 1], ca if j % 2 == 0 else cb))
    return build_colored_graph(n, triples)


# Frozen proper Delta-edge-colorings, first found by the search itself
# (max_colors = Delta); a regeneration test re-derives them.
OCTAHEDRON_EDGES = (
    (0, 1), (0, 2), (0, 4), (0, 5), (1, 2), (1, 3),
    (1, 5), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5),
)
OCTAHEDRON_COLORS = (1, 2, 3, 4, 3, 4, 2, 1, 4, 2, 3, 1)

ICOSAHEDRON_EDGES = (
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
    (1, 2), (1, 5), (1, 6), (1, 7),
    (2, 3), (2, 7), (2, 8),
    (3, 4), (3, 8), (3, 9),
    (4, 5), (4, 9), (4, 10),
    (5, 6), (5, 10),
    (6, 7), (6, 10), (6, 11),
    (7, 8), (7, 11),
    (8, 9), (8, 11),
    (9, 10), (9, 11),
    (10, 11),
)
ICOSAHEDRON_COLORS = (
    1, 2, 3, 4, 5, 3, 2, 4, 5, 1, 4, 5, 2, 4, 5,
    1, 3, 5, 3, 4, 1, 2, 5, 3, 2, 2, 1, 1, 4, 3,
)


def octahedron() -> ColoredGraph:
    g = build_graph(6, OCTAHEDRON_EDGES)
    return ColoredGraph(g, OCTAHEDRON_COLORS)


def icosahedron() -> ColoredGraph:
    g = build_graph(12, ICOSAHEDRON_EDGES)
    return ColoredGraph(g, ICOSAHEDRON_COLORS)


class Family(NamedTuple):
    """The facts of one family, each stated once: its builder (called with
    n, or with nothing for a fixed graph), the k of the rainbow P_k it is
    built to avoid, its edge count as a function of n, its fixed vertex
    count if it has one, and whether the extremal pipeline claims it as an
    achiever."""

    build: Callable[..., ColoredGraph]
    avoids: int
    edges: Callable[[int], int]
    fixed_n: int | None = None
    claimed: bool = True


def _three_halves(n: int) -> int:
    return (3 * n) // 2


# g5 and g7 are gn at n=5 and n=7; the pipeline claims gn for them.
FAMILY_TABLE: dict[str, Family] = {
    "matching": Family(matching, 3, lambda n: n // 2),
    "k4-blocks": Family(k4_blocks, 4, _three_halves),
    "g5": Family(g5, 5, _three_halves, fixed_n=5, claimed=False),
    "g7": Family(g7, 5, _three_halves, fixed_n=7, claimed=False),
    "gn": Family(gn, 5, _three_halves),
    "double-wheel": Family(double_wheel, 8, planar_edge_cap),
    "k2-path": Family(k2_path, 8, planar_edge_cap),
    "octahedron": Family(octahedron, 6, planar_edge_cap, fixed_n=6),
    "icosahedron": Family(icosahedron, 7, planar_edge_cap, fixed_n=12),
}

FAMILIES = (*FAMILY_TABLE, "disjoint-copies")


def make(
    family: str, n: int | None = None, copies: int = 1, base: str | None = None
) -> ColoredGraph:
    """Build a family's colored graph on n vertices; disjoint-copies builds
    `copies` disjoint copies of the base family."""
    if family == "disjoint-copies":
        if base is None or base == "disjoint-copies":
            raise GraphError("disjoint-copies needs a base family")
        if copies < 1:
            raise GraphError(f"copies must be >= 1, got {copies}")
        return disjoint_union([make(base, n)] * copies)
    if copies != 1 or base is not None:
        raise GraphError(f"copies and base apply to disjoint-copies only, not {family}")
    if family not in FAMILY_TABLE:
        raise GraphError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    row = FAMILY_TABLE[family]
    if row.fixed_n is not None:
        if n not in (None, row.fixed_n):
            raise GraphError(f"{family} is a fixed {row.fixed_n}-vertex graph")
        return row.build()
    if n is None:
        raise GraphError(f"family {family!r} needs a vertex count")
    return row.build(n)


def validate_construction(cg: ColoredGraph, k: int, expected_edges: int) -> ValidationReport:
    """Gate-check a colored graph: exact edge count, properness, planarity
    and rainbow-P_k-freeness."""
    return ValidationReport(
        edge_count=len(cg.edges),
        expected_edges=expected_edges,
        proper=is_proper(cg),
        planar=bool(is_planar(cg.graph)),
        rainbow_free=find_rainbow_path(cg, k) is None,
        colors_used=cg.colors_used(),
        k=k,
    )
