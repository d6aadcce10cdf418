"""Isomorph-free exhaustive generation of small graphs by canonical augmentation.

Graphs on a fixed vertex count are generated level by level in the edge
count, one edge added at a time, along McKay's canonical construction path
("Isomorph-free exhaustive generation", J. Algorithms 1998).  A child G+e
of a parent class G is accepted only when e lies in the Aut(G+e)-orbit of
the child's canonical deletion edge: among the edges with the largest
invariant (sorted endpoint degrees, common-neighbour count), the one whose
endpoints, individualised as a pair, give the largest canonical code.
Every class then has exactly one accepted parent class, so isomorphic
children can only come from the same parent and are deduplicated there.

Canonical codes come from one individualisation-refinement routine in the
style of McKay & Piperno ("Practical graph isomorphism II", 2014): refine
an ordered vertex partition to an equitable one, individualise each vertex
of the first non-singleton cell in turn, refine again, and keep the largest
adjacency code over the leaves.  Inside the ladder graphs are tuples of
adjacency bitmasks; each class is emitted as a Graph in its canonical
labelling and every level is sorted by canonical code, so a level depends
only on the set of classes it holds.  This is meant for desk scale
(n <= 10); larger candidate sets come from graph6 files produced by
external generators.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import Graph, GraphError, build_graph

CANONICAL_MAX_N = 10


def relabel(g: Graph, perm: list[int] | tuple[int, ...]) -> Graph:
    """Image of g under the vertex relabeling v -> perm[v]."""
    if sorted(perm) != list(range(g.n)):
        raise GraphError("perm is not a permutation of the vertex ids")
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _masks(g: Graph) -> list[int]:
    """Adjacency bitmask of every vertex."""
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _refine(adj: Sequence[int], cells: list[int], queue: list[int]) -> list[int]:
    """Coarsest equitable refinement of an ordered partition.

    Cells are vertex bitmasks.  Each splitter taken from the queue splits
    every cell by the neighbour count of its vertices in the splitter; the
    parts replace the cell in ascending count order and join the queue.
    Every choice depends on cell positions and counts, never on vertex
    labels, so the result commutes with relabelling.
    """
    n = len(adj)
    i = 0
    while i < len(queue) and len(cells) < n:
        w = queue[i]
        i += 1
        out = []
        for c in cells:
            if not c & (c - 1):
                out.append(c)
                continue
            parts: dict[int, int] = {}
            x = c
            while x:
                b = x & -x
                x ^= b
                k = (adj[b.bit_length() - 1] & w).bit_count()
                parts[k] = parts.get(k, 0) | b
            if len(parts) == 1:
                out.append(c)
                continue
            for k in sorted(parts):
                out.append(parts[k])
                queue.append(parts[k])
        cells = out
    return cells


def _leaf_code(adj: Sequence[int], cells: list[int]) -> int:
    """Adjacency rows under the vertex order of a discrete partition,
    concatenated with row 0 most significant."""
    n = len(adj)
    lab = [c.bit_length() - 1 for c in cells]
    pos = [0] * n
    for i, v in enumerate(lab):
        pos[v] = i
    code = 0
    for v in lab:
        row = 0
        x = adj[v]
        while x:
            b = x & -x
            x ^= b
            row |= 1 << pos[b.bit_length() - 1]
        code = (code << n) | row
    return code


def _canonical_code(adj: Sequence[int], cells: list[int]) -> int:
    """Largest leaf code of the individualisation-refinement tree rooted at
    the ordered partition `cells`.

    Two vertices of one cell that have equal neighbourhoods outside each
    other are twins: swapping them is an automorphism fixing every
    individualised vertex, so only the first of them is individualised.
    """
    n = len(adj)
    best = 0
    stack = [_refine(adj, cells, list(cells))]
    while stack:
        cells = stack.pop()
        if len(cells) == n:
            best = max(best, _leaf_code(adj, cells))
            continue
        i = next(i for i, c in enumerate(cells) if c & (c - 1))
        target = cells[i]
        tried: list[tuple[int, int]] = []
        x = target
        while x:
            b = x & -x
            x ^= b
            av = adj[b.bit_length() - 1]
            if any(not (au ^ av) & ~(bu | b) for au, bu in tried):
                continue
            tried.append((av, b))
            stack.append(_refine(adj, cells[:i] + [b, target ^ b] + cells[i + 1 :], [b]))
    return best


def canonical_form(g: Graph) -> tuple[int, int]:
    """Canonical certificate: equal exactly for isomorphic graphs.

    The vertex count and the largest adjacency code over the leaves of the
    search tree rooted at the degree partition.
    """
    n = g.n
    if n > CANONICAL_MAX_N:
        raise GraphError(f"canonical_form guard: n={n} > {CANONICAL_MAX_N}")
    return (n, _canonical_code(_masks(g), [(1 << n) - 1] if n else []))


def _pair_code(adj: Sequence[int], x: int, y: int) -> int:
    """Canonical code of the graph with the pair {x, y} individualised as
    its first cell.  Equal for two edges iff an automorphism maps one onto
    the other."""
    pair = (1 << x) | (1 << y)
    return _canonical_code(adj, [pair, ((1 << len(adj)) - 1) ^ pair])


def _edge_key(adj: Sequence[int], deg: Sequence[int], x: int, y: int) -> int:
    """(smaller endpoint degree, larger endpoint degree, common-neighbour
    count), packed into one int (degrees stay below 16 for n <= 10)."""
    dx, dy = deg[x], deg[y]
    if dx > dy:
        dx, dy = dy, dx
    return (dx << 8) | (dy << 4) | (adj[x] & adj[y]).bit_count()


def _accepts(
    adj: Sequence[int], deg: Sequence[int], others: Sequence[tuple[int, int]], u: int, v: int
) -> bool:
    """Whether the new edge u-v of the child lies in the orbit of the child's
    canonical deletion edge; `others` are the child's remaining edges."""
    key = _edge_key(adj, deg, u, v)
    ties = []
    for x, y in others:
        k = _edge_key(adj, deg, x, y)
        if k > key:
            return False
        if k == key:
            ties.append((x, y))
    if not ties:
        return True
    code = _pair_code(adj, u, v)
    return all(_pair_code(adj, x, y) <= code for x, y in ties)


def _graph_of_code(n: int, code: int) -> Graph:
    """The graph whose adjacency rows a leaf code concatenates."""
    full = (1 << n) - 1
    rows = [(code >> (n * (n - 1 - i))) & full for i in range(n)]
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n) if rows[i] >> j & 1))


class LevelLadder:
    """All isomorphism classes of graphs on exactly n labeled-id vertices,
    grouped by edge count and built on demand by canonical augmentation.
    Each level lists its classes in canonical labelling, sorted by
    canonical code."""

    def __init__(self, n: int):
        if n < 0:
            raise GraphError(f"negative vertex count {n}")
        if n > CANONICAL_MAX_N:
            raise GraphError(
                f"built-in enumeration caps at n <= {CANONICAL_MAX_N}, got {n}"
            )
        self.n = n
        self._levels: list[list[Graph]] = [[Graph(n, ())]]

    def level(self, m: int) -> list[Graph]:
        if m < 0 or m > self.n * (self.n - 1) // 2:
            return []
        while len(self._levels) <= m:
            self._grow()
        return self._levels[m]

    def _grow(self) -> None:
        """Append level m+1, grown from the classes of level m."""
        n = self.n
        full = (1 << n) - 1
        codes: list[int] = []
        for parent in self._levels[-1]:
            padj = _masks(parent)
            pdeg = [a.bit_count() for a in padj]
            seen: set[int] = set()
            for u in range(n):
                for v in range(u + 1, n):
                    if padj[u] >> v & 1:
                        continue
                    adj = padj[:]
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                    deg = pdeg[:]
                    deg[u] += 1
                    deg[v] += 1
                    if not _accepts(adj, deg, parent.edges, u, v):
                        continue
                    code = _canonical_code(adj, [full])
                    if code not in seen:
                        seen.add(code)
                        codes.append(code)
        codes.sort()
        self._levels.append([_graph_of_code(n, code) for code in codes])
