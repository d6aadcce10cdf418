"""Planarity decision via the left-right criterion on a DFS orientation.

Boolean verdict only; no embedding or Kuratowski witness is produced.  The
edge count bound e <= 3n-6 short-circuits dense graphs before anything
else runs.  The graph is then reduced to its kernel on adjacency bitmasks,
repeating until no vertex qualifies:

* a vertex of degree 0 or 1 is deleted;
* a vertex v of degree 2 with neighbours u and w is smoothed: the path
  u-v-w becomes the edge u-w, or, when u and w are already adjacent, v is
  just deleted.

Each step keeps planarity in both directions.  A vertex of degree at most
one can always be redrawn next to its neighbour.  Smoothing replaces a
graph by one it is a subdivision of, and subdivision neither creates nor
destroys a subdivided K5 or K3,3 (Kuratowski).  A path u-v-w beside an
existing edge u-w can be drawn alongside that edge.  On the kernel the
Euler bound is applied again (reason "euler-bound" either way).  A kernel with at most 8 edges is planar
because every nonplanar graph contains a subdivided K3,3 (9 edges) or K5
(10 edges).  A kernel with at most 5 vertices that passed the Euler bound is
planar because K5, which the bound rejects, is the only nonplanar graph on
5 vertices.  Otherwise the left-right test runs on each component of the
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .graphs import Graph


@dataclass(frozen=True)
class PlanarityVerdict:
    planar: bool
    reason: str  # "euler-bound" or "combinatorial-test"

    def __bool__(self) -> bool:
        return self.planar


def planar_edge_cap(n: int) -> int:
    """Largest edge count a planar graph on n vertices can have."""
    full = n * (n - 1) // 2
    return full if n < 3 else min(full, 3 * n - 6)


def is_planar(g: Graph) -> PlanarityVerdict:
    """Decide whether g embeds in the plane."""
    if len(g.edges) > planar_edge_cap(g.n):
        return PlanarityVerdict(False, "euler-bound")
    adj = _kernel(g)
    kn = sum(1 for a in adj if a)
    km = sum(a.bit_count() for a in adj) // 2
    if km > planar_edge_cap(kn):
        return PlanarityVerdict(False, "euler-bound")
    if km > 8 and kn > 5:
        nbrs = [tuple(_bits(a)) for a in adj]
        for comp in _components(adj):
            if len(comp) >= 5 and not _LRTest(nbrs, comp).run():
                return PlanarityVerdict(False, "combinatorial-test")
    return PlanarityVerdict(True, "combinatorial-test")


def _bits(x: int) -> Iterator[int]:
    """Positions of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _kernel(g: Graph) -> list[int]:
    """Adjacency bitmasks of g after deleting every vertex of degree <= 1
    and smoothing every vertex of degree 2 until none is left; removed
    vertices have an empty mask."""
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    # degrees never grow, so a vertex is reducible from the moment it is
    # pushed; one that was reduced meanwhile has an empty mask
    todo = [v for v in range(g.n) if adj[v].bit_count() <= 2]
    while todo:
        v = todo.pop()
        nb = adj[v]
        if not nb:
            continue
        adj[v] = 0
        bv = 1 << v
        low = nb & -nb
        u = low.bit_length() - 1
        if nb == low:  # degree 1: delete v
            adj[u] ^= bv
            if adj[u].bit_count() <= 2:
                todo.append(u)
            continue
        w = (nb ^ low).bit_length() - 1
        if adj[u] >> w & 1:  # triangle u-v-w: delete v
            adj[u] ^= bv
            adj[w] ^= bv
            if adj[u].bit_count() <= 2:
                todo.append(u)
            if adj[w].bit_count() <= 2:
                todo.append(w)
        else:  # smooth u-v-w into u-w; degrees of u and w stay
            adj[u] ^= bv | (1 << w)
            adj[w] ^= bv | (1 << u)
    return adj


def _components(adj: list[int]) -> Iterator[list[int]]:
    """Vertex lists, ascending, of the components with at least one edge."""
    seen = 0
    for s, a in enumerate(adj):
        if not a or seen >> s & 1:
            continue
        comp = frontier = 1 << s
        while frontier:
            reach = 0
            for v in _bits(frontier):
                reach |= adj[v]
            frontier = reach & ~comp
            comp |= frontier
        seen |= comp
        yield list(_bits(comp))


class _Interval:
    """Consecutive back edges on one side of a conflict pair."""

    __slots__ = ("low", "high")

    def __init__(self, low=None, high=None):
        self.low = low
        self.high = high

    def empty(self) -> bool:
        return self.low is None and self.high is None


class _ConflictPair:
    __slots__ = ("L", "R")

    def __init__(self, L=None, R=None):
        self.L = L if L is not None else _Interval()
        self.R = R if R is not None else _Interval()

    def swap(self) -> None:
        self.L, self.R = self.R, self.L


class _NotPlanar(Exception):
    pass


class _LRTest:
    """Left-right planarity test on one connected component.

    First DFS orients the component and computes lowpoints and nesting
    order; the second DFS replays it with adjacency sorted by nesting depth
    while maintaining a stack of conflict pairs of back-edge intervals.
    """

    def __init__(self, adj: Sequence[Sequence[int]], comp: list[int]):
        self.adj = adj
        self.root = min(comp)
        self.comp = comp
        self.height: dict[int, int] = {}
        self.parent_edge: dict[int, tuple[int, int] | None] = {}
        self.lowpt: dict[tuple[int, int], int] = {}
        self.lowpt2: dict[tuple[int, int], int] = {}
        self.nesting: dict[tuple[int, int], int] = {}
        self.oriented: set[tuple[int, int]] = set()
        self.ref: dict[tuple[int, int], tuple[int, int] | None] = {}
        self.lowpt_edge: dict[tuple[int, int], tuple[int, int]] = {}
        self.stack: list[_ConflictPair] = []
        self.stack_bottom: dict[tuple[int, int], _ConflictPair | None] = {}
        self.ordered: dict[int, list[tuple[int, int]]] = {v: [] for v in comp}

    def run(self) -> bool:
        self.height[self.root] = 0
        self.parent_edge[self.root] = None
        self._dfs1(self.root)
        # one pass over the set, in its iteration order, so that ties keep
        # the order a per-vertex scan of the set would give them
        for e in self.oriented:
            self.ordered[e[0]].append(e)
        for edges in self.ordered.values():
            edges.sort(key=self.nesting.__getitem__)
        try:
            self._dfs2(self.root)
        except _NotPlanar:
            return False
        return True

    # -- phase 1: orientation ------------------------------------------

    def _dfs1(self, root: int) -> None:
        stack = [(root, iter(self.adj[root]))]
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                e = (v, w)
                if e in self.oriented or (w, v) in self.oriented:
                    continue
                self.oriented.add(e)
                self.lowpt[e] = self.height[v]
                self.lowpt2[e] = self.height[v]
                if w not in self.height:  # tree edge
                    self.parent_edge[w] = e
                    self.height[w] = self.height[v] + 1
                    stack.append((w, iter(self.adj[w])))
                    advanced = True
                    break
                self.lowpt[e] = self.height[w]  # back edge
                self._absorb(v, e)
            if not advanced:
                stack.pop()
                pe = self.parent_edge[v]
                if pe is not None:
                    self._absorb(pe[0], pe)

    def _absorb(self, v: int, e: tuple[int, int]) -> None:
        """Finalize nesting depth of e and fold its lowpoints into the
        parent edge of v."""
        self.nesting[e] = 2 * self.lowpt[e]
        if self.lowpt2[e] < self.height[v]:  # chordal
            self.nesting[e] += 1
        pe = self.parent_edge[v]
        if pe is not None:
            if self.lowpt[e] < self.lowpt[pe]:
                self.lowpt2[pe] = min(self.lowpt[pe], self.lowpt2[e])
                self.lowpt[pe] = self.lowpt[e]
            elif self.lowpt[e] > self.lowpt[pe]:
                self.lowpt2[pe] = min(self.lowpt2[pe], self.lowpt[e])
            else:
                self.lowpt2[pe] = min(self.lowpt2[pe], self.lowpt2[e])

    # -- phase 2: constraints ------------------------------------------

    def _dfs2(self, v: int) -> None:
        e = self.parent_edge[v]
        for idx, ei in enumerate(self.ordered[v]):
            w = ei[1]
            self.stack_bottom[ei] = self.stack[-1] if self.stack else None
            if self.parent_edge.get(w) == ei:  # tree edge
                self._dfs2(w)
            else:  # back edge
                self.lowpt_edge[ei] = ei
                self.stack.append(_ConflictPair(R=_Interval(ei, ei)))
            if self.lowpt[ei] < self.height[v]:  # ei has a return edge
                if idx == 0:
                    self.lowpt_edge[e] = self.lowpt_edge[ei]
                else:
                    self._add_constraints(ei, e)
        if e is not None:
            u = e[0]
            self._trim_back_edges(u)
            if self.lowpt[e] < self.height[u] and self.stack:
                hl = self.stack[-1].L.high
                hr = self.stack[-1].R.high
                if hl is not None and (hr is None or self.lowpt[hl] > self.lowpt[hr]):
                    self.ref[e] = hl
                else:
                    self.ref[e] = hr

    def _conflicting(self, interval: _Interval, b: tuple[int, int]) -> bool:
        return not interval.empty() and self.lowpt[interval.high] > self.lowpt[b]

    def _add_constraints(self, ei: tuple[int, int], e: tuple[int, int]) -> None:
        P = _ConflictPair()
        # merge return edges of ei into P.R
        while True:
            Q = self.stack.pop()
            if not Q.L.empty():
                Q.swap()
            if not Q.L.empty():
                raise _NotPlanar
            if self.lowpt[Q.R.low] > self.lowpt[e]:  # merge intervals
                if P.R.empty():
                    P.R.high = Q.R.high
                else:
                    self.ref[P.R.low] = Q.R.high
                P.R.low = Q.R.low
            else:  # align
                self.ref[Q.R.low] = self.lowpt_edge[e]
            top = self.stack[-1] if self.stack else None
            if top is self.stack_bottom[ei]:
                break
        # merge conflicting return edges of earlier siblings into P.L
        while self.stack and (
            self._conflicting(self.stack[-1].L, ei)
            or self._conflicting(self.stack[-1].R, ei)
        ):
            Q = self.stack.pop()
            if self._conflicting(Q.R, ei):
                Q.swap()
            if self._conflicting(Q.R, ei):
                raise _NotPlanar
            # merge interval below lowpt(ei) into P.R
            if P.R.low is not None:
                self.ref[P.R.low] = Q.R.high
            if Q.R.low is not None:
                P.R.low = Q.R.low
            if P.L.empty():
                P.L.high = Q.L.high
            else:
                self.ref[P.L.low] = Q.L.high
            P.L.low = Q.L.low
        if not (P.L.empty() and P.R.empty()):
            self.stack.append(P)

    def _lowest(self, P: _ConflictPair) -> int:
        if P.L.empty():
            return self.lowpt[P.R.low]
        if P.R.empty():
            return self.lowpt[P.L.low]
        return min(self.lowpt[P.L.low], self.lowpt[P.R.low])

    def _trim_back_edges(self, u: int) -> None:
        # drop entire conflict pairs returning to u
        while self.stack and self._lowest(self.stack[-1]) == self.height[u]:
            self.stack.pop()
        if self.stack:
            P = self.stack.pop()
            # trim left interval
            while P.L.high is not None and P.L.high[1] == u:
                P.L.high = self.ref.get(P.L.high)
            if P.L.high is None and P.L.low is not None:
                self.ref[P.L.low] = P.R.low
                P.L.low = None
            # trim right interval
            while P.R.high is not None and P.R.high[1] == u:
                P.R.high = self.ref.get(P.R.high)
            if P.R.high is None and P.R.low is not None:
                self.ref[P.R.low] = P.L.low
                P.R.low = None
            self.stack.append(P)
