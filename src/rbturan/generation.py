"""Isomorph-free exhaustive generation of small graphs by canonical augmentation.

Graphs on a fixed vertex count are generated level by level in the edge
count, one edge added at a time, along McKay's canonical construction path
("Isomorph-free exhaustive generation", J. Algorithms 1998).  A parent
class G adds one non-edge per orbit of Aut(G), so its children are
pairwise non-isomorphic.  A child G+e is accepted only when e lies in the
Aut(G+e)-orbit of the child's canonical deletion edge: among the edges
with the largest invariant (sorted endpoint degrees, common-neighbour
count), the one whose image in the child's canonical labelling is the
smallest pair.  Every class then has exactly one accepted parent class and
is accepted from it once, with no seen set and no second labelling.

Canonical codes come from one individualisation-refinement routine in the
style of McKay & Piperno ("Practical graph isomorphism II", 2014): refine
an ordered vertex partition to an equitable one, individualise each vertex
of the first non-singleton cell in turn, refine again, and keep the largest
adjacency code over the leaves.  The same search yields generators of the
automorphism group: one map per further leaf with the best code, and the
swaps of the twin vertices whose branches it prunes.  So each child costs
one labelling, which gives its code, its acceptance and, for the frontier
level only, the orbit representatives of its non-edges.  Inside the ladder
graphs are tuples of adjacency bitmasks; each class is emitted as a Graph
in its canonical labelling and every level is sorted by canonical code, so
a level depends only on the set of classes it holds.  The emitted graphs
take their edge tuples from one module-level table of (i, j) pairs, so a
level of many thousand graphs holds each pair once rather than once per
graph, and a pickled chunk of them carries each pair once as well.  This
is meant for desk scale (n <= 10); larger candidate sets come from graph6
files produced by external generators.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import Graph, GraphError

CANONICAL_MAX_N = 10


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
            b = c & -c
            first = (adj[b.bit_length() - 1] & w).bit_count()
            x = c ^ b
            while x:
                b = x & -x
                if (adj[b.bit_length() - 1] & w).bit_count() != first:
                    break
                x ^= b
            if not x:
                out.append(c)
                continue
            parts: dict[int, int] = {}
            x = c
            while x:
                b = x & -x
                x ^= b
                k = (adj[b.bit_length() - 1] & w).bit_count()
                parts[k] = parts.get(k, 0) | b
            for k in sorted(parts):
                out.append(parts[k])
                queue.append(parts[k])
        cells = out
    return cells


def _leaf_code(adj: Sequence[int], lab: list[int]) -> int:
    """Adjacency rows under the vertex order `lab` (a leaf's discrete
    partition), concatenated with row 0 most significant."""
    n = len(adj)
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


def _canonical_code(
    adj: Sequence[int], cells: list[int]
) -> tuple[int, list[int], list[list[int]]]:
    """Search the individualisation-refinement tree rooted at the ordered
    partition `cells`.  Returns the largest leaf code, the vertex order of
    the first leaf that gives it (position i holds the vertex that becomes
    vertex i of the canonical labelling), and generators, as vertex maps,
    of the automorphisms that fix every cell of `cells`.

    Two vertices of one cell that have equal neighbourhoods outside each
    other are twins: swapping them is an automorphism fixing every
    individualised vertex, so only the first of them is individualised and
    the swap joins the generators.  A leaf whose code equals the best so
    far gives the automorphism that maps the best leaf's order onto its
    own.  Together they generate the whole group: every pruned branch is
    the image of a visited one under a twin swap, and the group acts
    regularly on the best leaves of the unpruned tree.
    """
    n = len(adj)
    best = -1
    best_lab: list[int] = []
    gens: list[list[int]] = []
    swaps: set[int] = set()
    stack = [_refine(adj, cells, list(cells))]
    while stack:
        cells = stack.pop()
        if len(cells) == n:
            lab = [c.bit_length() - 1 for c in cells]
            code = _leaf_code(adj, lab)
            if code > best:
                best, best_lab = code, lab
            elif code == best:
                perm = [0] * n
                for a, b in zip(best_lab, lab):
                    perm[a] = b
                gens.append(perm)
            continue
        i = next(i for i, c in enumerate(cells) if c & (c - 1))
        target = cells[i]
        tried: list[tuple[int, int]] = []
        x = target
        while x:
            b = x & -x
            x ^= b
            av = adj[b.bit_length() - 1]
            twin = next((bu for au, bu in tried if not (au ^ av) & ~(bu | b)), 0)
            if twin:
                swaps.add(twin | b)
                continue
            tried.append((av, b))
            stack.append(_refine(adj, cells[:i] + [b, target ^ b] + cells[i + 1 :], [b]))
    for pair in swaps:
        low = pair & -pair
        u, v = low.bit_length() - 1, (pair ^ low).bit_length() - 1
        perm = list(range(n))
        perm[u], perm[v] = v, u
        gens.append(perm)
    return best, best_lab, gens


def canonical_form(g: Graph) -> tuple[int, int]:
    """Canonical certificate: equal exactly for isomorphic graphs.

    The vertex count and the largest adjacency code over the leaves of the
    search tree rooted at the degree partition.
    """
    n = g.n
    if n > CANONICAL_MAX_N:
        raise GraphError(f"canonical_form guard: n={n} > {CANONICAL_MAX_N}")
    return (n, _canonical_code(g.masks(), [(1 << n) - 1] if n else [])[0])


def _orbit(gens: list[list[int]], x: int, y: int) -> set[tuple[int, int]]:
    """The orbit of the vertex pair x < y under the group the vertex maps
    `gens` generate, each pair as (smaller, larger)."""
    seen = {(x, y)}
    todo = [(x, y)]
    while todo:
        a, b = todo.pop()
        for g in gens:
            c, d = g[a], g[b]
            p = (c, d) if c < d else (d, c)
            if p not in seen:
                seen.add(p)
                todo.append(p)
    return seen


def _non_edge_reps(adj: Sequence[int], pos: list[int], gens: list[list[int]]) -> int:
    """One non-edge per automorphism orbit, in the canonical labelling that
    maps vertex v to pos[v]: bit i*n + j set for the canonical pair i < j."""
    n = len(adj)
    reps = 0
    done: set[tuple[int, int]] = set()
    for x in range(n):
        for y in range(x + 1, n):
            if adj[x] >> y & 1 or (x, y) in done:
                continue
            if gens:
                done |= _orbit(gens, x, y)
            i, j = pos[x], pos[y]
            reps |= 1 << (i * n + j if i < j else j * n + i)
    return reps


# _PAIRS[i][j] is the tuple (i, j), one object per pair that every ladder
# graph shares; edges use the entries with i < j < CANONICAL_MAX_N
_PAIRS = [[(i, j) for j in range(CANONICAL_MAX_N)] for i in range(CANONICAL_MAX_N)]


def _graph_of_code(n: int, code: int) -> Graph:
    """The graph whose adjacency rows a leaf code concatenates.  Its edges
    are the tuples of the shared `_PAIRS` table, not copies, so a level of
    many graphs holds each of the at most n(n-1)/2 pairs once."""
    full = (1 << n) - 1
    rows = [(code >> (n * (n - 1 - i))) & full for i in range(n)]
    return Graph(
        n, tuple(_PAIRS[i][j] for i in range(n) for j in range(i + 1, n) if rows[i] >> j & 1)
    )


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
        empty = Graph(n, ())
        self._levels: list[list[Graph]] = [[empty]]
        # non-edge orbit representatives of the frontier level's classes,
        # as _non_edge_reps gives them; the edgeless graph has one orbit
        self._reps: dict[Graph, int] = {empty: 1 << 1 if n > 1 else 0}

    def level(self, m: int) -> list[Graph]:
        if m < 0 or m > self.n * (self.n - 1) // 2:
            return []
        while len(self._levels) <= m:
            self._grow()
        return self._levels[m]

    def _grow(self) -> None:
        """Append level m+1, grown from the classes of level m.

        Each parent adds one non-edge per orbit of its automorphism group,
        so its accepted children are pairwise non-isomorphic.  A child is
        accepted iff its new edge has the largest edge invariant and lies
        in the automorphism orbit of the canonical deletion edge: of the
        edges with that invariant, the one whose image in the child's
        canonical labelling is the smallest pair.  Every class then has
        exactly one accepted parent class, so the level holds each class
        once."""
        n = self.n
        full = (1 << n) - 1
        children: list[tuple[int, int]] = []
        for parent in self._levels[-1]:
            padj = parent.masks()
            pdeg = [a.bit_count() for a in padj]
            reps = self._reps[parent]
            while reps:
                b = reps & -reps
                reps ^= b
                u, v = divmod(b.bit_length() - 1, n)
                adj = padj[:]
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                deg = pdeg[:]
                deg[u] += 1
                deg[v] += 1
                # edge invariant: (smaller endpoint degree, larger endpoint
                # degree, common-neighbour count) packed into one int;
                # degrees stay below 16 for n <= 10
                du, dv = deg[u], deg[v]
                key = ((du << 8) | (dv << 4) if du < dv else (dv << 8) | (du << 4)) | (
                    adj[u] & adj[v]
                ).bit_count()
                ties = []
                for x, y in parent.edges:
                    dx, dy = deg[x], deg[y]
                    k = ((dx << 8) | (dy << 4) if dx < dy else (dy << 8) | (dx << 4)) | (
                        adj[x] & adj[y]
                    ).bit_count()
                    if k > key:
                        break
                    if k == key:
                        ties.append((x, y))
                else:
                    code, lab, gens = _canonical_code(adj, [full])
                    pos = [0] * n
                    for i, w in enumerate(lab):
                        pos[w] = i
                    if ties:
                        ties.append((u, v))
                        d = min(ties, key=lambda e: sorted((pos[e[0]], pos[e[1]])))
                        if d != (u, v) and (u, v) not in _orbit(gens, *d):
                            continue
                    children.append((code, _non_edge_reps(adj, pos, gens)))
        children.sort()
        level = [_graph_of_code(n, code) for code, _ in children]
        self._reps = {g: reps for g, (_, reps) in zip(level, children)}
        self._levels.append(level)
