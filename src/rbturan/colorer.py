"""Complete backtracking search for proper rainbow-P_k-free edge colorings.

Colors are assigned to edges in a fixed static order with the canonical
symmetry-breaking rule: the color of the next edge is at most one more
than the largest color used so far.  This enumerates exactly one
representative per color-renaming class, so with max_colors = e(g) an
UNSAT answer is unconditional.  Properness is maintained through
per-vertex used-color bitmasks; the rainbow constraint is enforced by
checking, after each assignment, every k-vertex path whose edges just
became fully colored.  Those paths form the bucket of the assigned
position j: the edge at j joined with two vertex-disjoint arms that use
only edges at earlier positions, both grown by one walk that hands over
from the left arm to the right one.  A bucket is stored bit-sliced, one
column per earlier position p whose bit i is set when path i uses the
edge at p, and is built the first time the search reaches j, so
positions the search never reaches cost nothing.

When the search enters position j it folds the bucket's columns by the
colors now at their positions: once[c] holds the paths whose arms use
color c, twice the paths whose arms repeat a color.  Color c then closes
a rainbow path exactly when (all paths & ~twice) & ~once[c] is nonzero,
two integer operations per tried color whatever the bucket's size, so
the order of the paths in a bucket never matters and none is ever moved.
The arms use only positions below j, so the fold stays valid while the
search tries further colors at j after backtracking.

One engine, `_Searcher.solutions`, yields the canonical solutions in
search order.  It runs in first mode (`find_coloring` takes the first
solution: SAT with a certificate, or UNSAT / BUDGET_EXCEEDED once the
engine is exhausted) or in all mode (`iter_coloring_classes` drains it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graphs import ColoredGraph, Graph, GraphError, normalize_colors

SAT = "SAT"
UNSAT = "UNSAT"
BUDGET_EXCEEDED = "BUDGET_EXCEEDED"


class OracleSizeError(GraphError):
    """Input too large for the naive enumeration oracle."""


# (mask of all paths, column of the paths using each earlier position)
Bucket = tuple[int, list[int]]


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # SAT | UNSAT | BUDGET_EXCEEDED
    certificate: ColoredGraph | None
    nodes: int

    @property
    def sat(self) -> bool:
        return self.status == SAT


def _order_positions(g: Graph) -> list[int]:
    """Static edge order: decreasing endpoint degree sum, ties by canonical
    edge order (fail-first and deterministic)."""
    deg = g.degrees()
    # g.edges is sorted, so the index breaks ties in canonical edge order
    keys = sorted((-(deg[u] + deg[v]), i) for i, (u, v) in enumerate(g.edges))
    return [i for _, i in keys]


class _Searcher:
    """The search over one graph: static edge order, lazy bit-sliced path
    buckets and the engine that yields canonical solutions."""

    def __init__(self, g: Graph, k: int, max_colors: int | None):
        if k < 3:
            raise GraphError(f"coloring search needs k >= 3, got k={k}")
        if max_colors is not None and max_colors < 1:
            raise GraphError(f"max_colors must be positive, got {max_colors}")
        self.g = g
        self.k = k
        m = len(g.edges)
        self.m = m
        self.max_colors = m if max_colors is None else max_colors
        self.order = _order_positions(g)
        self.endpoints = [g.edges[i] for i in self.order]
        # (position, neighbour) per vertex; positions ascend because the
        # pairs are appended in position order.
        self.nbrs: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
        for j, (u, v) in enumerate(self.endpoints):
            self.nbrs[u].append((j, v))
            self.nbrs[v].append((j, u))
        self._buckets: list[Bucket | None] = [None] * m
        self.nodes = 0

    def bucket(self, j: int) -> Bucket:
        """The k-vertex paths whose last-colored edge is the one at position
        j, bit-sliced: the mask of all paths and, per position p below j,
        the column of the paths that use the edge at p.  Path i is bit i;
        each path has k-2 edges besides the one at j.  Built the first time
        the search reaches j, then cached.

        Each path is the edge (a, b) at j with a left arm from a and a right
        arm from b, vertex-disjoint, k-2 edges in all, every edge at a
        position below j.  One walk builds both: it grows the left arm, and
        at each vertex of it first hands the edges still needed over to a
        right arm from b.  Fixing which end of the edge is a makes each
        path come out exactly once.  The walk numbers the paths in the
        order it completes them, so the paths that extend one partial arm
        are a run of consecutive bits, set in one operation.  The search
        folds the columns by the colors below j each time it enters j (see
        the module docstring)."""
        built = self._buckets[j]
        if built is not None:
            return built
        a, b = self.endpoints[j]
        nbrs = self.nbrs
        cols = [0] * j

        # returns the number of paths completed so far
        def walk(v: int, seen: int, need: int, count: int, on_left: bool) -> int:
            if on_left:
                count = walk(b, seen, need, count, False)
            for p, w in nbrs[v]:
                if p >= j:
                    break
                bit = 1 << w
                if seen & bit:
                    continue
                if need == 1:
                    cols[p] |= 1 << count
                    count += 1
                else:
                    start = count
                    count = walk(w, seen | bit, need - 1, count, on_left)
                    if count > start:
                        cols[p] |= ((1 << (count - start)) - 1) << start
            return count

        count = walk(a, (1 << a) | (1 << b), self.k - 2, 0, True)
        built = ((1 << count) - 1, cols)
        self._buckets[j] = built
        return built

    def positions_to_colored(self, colors_by_pos: list[int]) -> ColoredGraph:
        by_edge = [0] * self.m
        for j, ei in enumerate(self.order):
            by_edge[ei] = colors_by_pos[j]
        return normalize_colors(ColoredGraph(self.g, tuple(by_edge)))

    def solutions(self, node_budget: int | None = None) -> Iterator[list[int]]:
        """Each canonical solution, as colors by position, in search order.

        Once the generator is exhausted, self.status is UNSAT (every class
        was reached) or BUDGET_EXCEEDED (the search stopped after
        node_budget color assignments).  self.nodes counts the color
        assignments tried so far; it is current at every yield."""
        m = self.m
        endpoints = self.endpoints
        bucket = self.bucket
        max_colors = self.max_colors
        colors = [0] * m
        used = [0] * self.g.n
        nodes = 0

        # Iterative depth-first search over positions; frame state is the
        # next candidate color per position and the bucket fold made on
        # entering it: the paths with no repeated arm color, and per color
        # the paths whose arms use it.
        next_color = [1] * (m + 1)
        max_used = [0] * (m + 1)
        live_at = [0] * m
        once_at: list[dict[int, int]] = [{}] * m
        j = 0
        while True:
            if j == m:
                self.nodes = nodes
                yield colors[:]
            else:
                u, v = endpoints[j]
                forbid = used[u] | used[v]
                if next_color[j] == 1:
                    every, cols = bucket(j)
                    once: dict[int, int] = {}
                    twice = 0
                    if every:
                        for c, col in zip(colors, cols):
                            if col:
                                seen = once.get(c, 0)
                                twice |= seen & col
                                once[c] = seen | col
                    live_at[j] = live = every & ~twice
                    once_at[j] = once
                else:
                    live = live_at[j]
                    once = once_at[j]
                limit = max_colors if max_used[j] >= max_colors else max_used[j] + 1
                c = next_color[j]
                advanced = False
                while c <= limit:
                    bit = 1 << c
                    if not forbid & bit:
                        nodes += 1
                        if node_budget is not None and nodes > node_budget:
                            self.nodes, self.status = nodes, BUDGET_EXCEEDED
                            return
                        # a live path that avoids c would turn rainbow
                        if not live & ~once.get(c, 0):
                            colors[j] = c
                            used[u] = used[u] | bit
                            used[v] = used[v] | bit
                            next_color[j] = c + 1
                            j += 1
                            next_color[j] = 1
                            max_used[j] = max_used[j - 1] if c <= max_used[j - 1] else c
                            advanced = True
                            break
                    c += 1
                if advanced:
                    continue
            # no color left at position j, or a solution was just yielded:
            # backtrack
            j -= 1
            if j < 0:
                self.nodes, self.status = nodes, UNSAT
                return
            u, v = endpoints[j]
            bit = 1 << colors[j]
            used[u] &= ~bit
            used[v] &= ~bit


def find_coloring(
    g: Graph,
    k: int,
    max_colors: int | None = None,
    node_budget: int | None = None,
) -> SearchOutcome:
    """Decide whether g has a proper edge-coloring with at most max_colors
    colors (default e(g), which makes UNSAT unconditional) and no rainbow
    P_k.  Budget exhaustion is reported as BUDGET_EXCEEDED, never UNSAT.
    """
    searcher = _Searcher(g, k, max_colors)
    colors = next(searcher.solutions(node_budget), None)
    if colors is None:
        return SearchOutcome(searcher.status, None, searcher.nodes)
    return SearchOutcome(SAT, searcher.positions_to_colored(colors), searcher.nodes)


def iter_coloring_classes(g: Graph, k: int) -> list[ColoredGraph]:
    """All color-renaming classes of proper rainbow-P_k-free colorings
    with any number of colors, each as its canonical (first-occurrence
    over canonical edge order) representative, sorted for determinism."""
    searcher = _Searcher(g, k, None)
    reps = [searcher.positions_to_colored(sol) for sol in searcher.solutions()]
    reps.sort(key=lambda cg: cg.colors)
    return reps


def oracle_enumerate(g: Graph, k: int) -> int:
    """Independent cross-check: count color-renaming classes of proper
    rainbow-P_k-free colorings by plain exhaustive enumeration.

    Canonical colorings are enumerated over the canonical edge order with
    pairwise properness scans; each complete coloring is checked by a
    brute-force walk over all k-vertex sequences.  Guarded to e(g) <= 12.
    """
    m = len(g.edges)
    if m > 12:
        raise OracleSizeError(f"oracle_enumerate guard: e(g)={m} > 12")
    if k < 2:
        raise GraphError(f"paths need k >= 2 vertices, got k={k}")
    edges = g.edges
    incident = [
        [j for j in range(m) if j != i and set(edges[i]) & set(edges[j])]
        for i in range(m)
    ]
    adj = [[w for w in range(g.n) if mask >> w & 1] for mask in g.masks()]
    colors = [0] * m
    count = 0

    def leaf_has_rainbow() -> bool:
        if k > g.n:
            return False
        cmap = {e: colors[i] for i, e in enumerate(edges)}
        seq = [0] * k

        def walk(v: int, depth: int, used: int) -> bool:
            if depth == k:
                cs = {
                    cmap[(seq[i], seq[i + 1]) if seq[i] < seq[i + 1] else (seq[i + 1], seq[i])]
                    for i in range(k - 1)
                }
                return len(cs) == k - 1
            for w in adj[v]:
                bit = 1 << w
                if used & bit:
                    continue
                seq[depth] = w
                if walk(w, depth + 1, used | bit):
                    return True
            return False

        for s in range(g.n):
            seq[0] = s
            if walk(s, 1, 1 << s):
                return True
        return False

    def rec(i: int, max_used: int) -> None:
        nonlocal count
        if i == m:
            if not leaf_has_rainbow():
                count += 1
            return
        for c in range(1, max_used + 2):
            if any(colors[j] == c for j in incident[i]):
                continue
            colors[i] = c
            rec(i + 1, max_used if c <= max_used else c)
        colors[i] = 0

    rec(0, 0)
    return count
