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
graph.  This is meant for desk scale (n <= 10); larger candidate sets
come from graph6 files produced by external generators.

A ladder either keeps every level it builds, for callers that walk the
levels, or is a degree window: it builds towards one target level M,
keeps only its frontier, and drops every class that has no descendant of
minimum degree >= d = WINDOW_MIN_DEGREE at M (see `LevelLadder._grow`
for the rules and why they are sound).  Its target level is then exactly the min-degree >= d
classes of the full level M, in the same labelling and order.  The number
of all classes at a level is not read off a ladder but counted by
`class_count`, which sums over the cycle types of S_n (Pólya/Burnside)
and enumerates nothing.
"""

from __future__ import annotations

from math import factorial, gcd
from typing import Sequence

from .graphs import Graph, GraphError

CANONICAL_MAX_N = 10

# the minimum degree d a degree window keeps at its target level: a reduced
# graph has minimum degree >= 2
WINDOW_MIN_DEGREE = 2


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


def _partitions(n: int, top: int) -> list[tuple[int, ...]]:
    """The partitions of n into parts of at most `top`, parts descending."""
    if n == 0:
        return [()]
    return [(a,) + rest for a in range(min(n, top), 0, -1) for rest in _partitions(n - a, a)]


def class_count(n: int, m: int) -> int:
    """The number of isomorphism classes of graphs with n vertices and m
    edges, counted without enumerating them (Harary & Palmer, "Graphical
    Enumeration", 1973).

    By Burnside's lemma it is the average over S_n of the number of m-edge
    graphs a permutation fixes.  A permutation fixes exactly the edge sets
    that are unions of its cycles on vertex pairs, and those cycles depend
    only on its cycle type: a vertex cycle of length a splits its own pairs
    into (a - 1) // 2 cycles of length a, plus one of length a/2 when a is
    even, and two vertex cycles of lengths a and b share gcd(a, b) pair
    cycles of length lcm(a, b).  So the sum runs over the partitions of n,
    each weighted by the n!/z permutations of that type, in integers only.
    """
    if m < 0 or m > n * (n - 1) // 2:
        return 0
    total = 0
    for parts in _partitions(n, n):
        lengths: list[int] = []
        for i, a in enumerate(parts):
            lengths += [a] * ((a - 1) // 2) + ([a // 2] if a % 2 == 0 else [])
            for b in parts[i + 1 :]:
                g = gcd(a, b)
                lengths += [a * b // g] * g
        # fixed[e]: the unions of pair cycles with e pairs in all
        fixed = [1] + [0] * m
        for length in lengths:
            for e in range(m, length - 1, -1):
                fixed[e] += fixed[e - length]
        # z = prod over part sizes a of a^c * c!, c the parts of size a
        z = 1
        for a in set(parts):
            c = parts.count(a)
            z *= a**c * factorial(c)
        total += factorial(n) // z * fixed[m]
    return total // factorial(n)


class LevelLadder:
    """Isomorphism classes of graphs on exactly n labeled-id vertices,
    grouped by edge count and built on demand by canonical augmentation.
    Each level lists its classes in canonical labelling, sorted by
    canonical code.

    `LevelLadder(n)` is the full ladder: it keeps every level it builds,
    and `level(m)` gives all classes with m edges.  With a `target` level
    M it is a degree window instead: it keeps only its frontier, prunes
    with d = WINDOW_MIN_DEGREE (rules in `_grow`), and `level(M)` gives
    exactly the classes of the full level M with minimum degree >= d, in
    the same labelling and order; it gives no other level.
    """

    def __init__(self, n: int, *, target: int | None = None):
        if n < 0:
            raise GraphError(f"negative vertex count {n}")
        if n > CANONICAL_MAX_N:
            raise GraphError(
                f"built-in enumeration caps at n <= {CANONICAL_MAX_N}, got {n}"
            )
        self.n = n
        self.target = target
        empty = Graph(n, ())
        # rule C of _grow on level 0: the edgeless graph's deficit is n*d
        self._levels: list[list[Graph]] = [
            [empty] if target is None or n * WINDOW_MIN_DEGREE <= 2 * target else []
        ]
        # non-edge orbit representatives of the frontier level's classes,
        # as _non_edge_reps gives them; the edgeless graph has one orbit
        self._reps: dict[Graph, int] = {empty: 1 << 1 if n > 1 else 0}

    def level(self, m: int) -> list[Graph]:
        if self.target is not None and m != self.target:
            raise GraphError(f"a window ladder gives only its target level {self.target}, not {m}")
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
        once.

        A window ladder (target M, d = WINDOW_MIN_DEGREE) drops a child,
        before labelling it, when either rule holds on its degrees:

        A. Some vertex w has degree < d and some edge xy has both endpoint
           degrees > d.  The first edge any descendant adds at w has
           smaller endpoint degree <= d, while xy, still there, has a
           smaller endpoint degree > d; degrees never fall.  The invariant
           packing below puts the smaller endpoint degree first, so that
           edge is never the largest and never accepted, and no
           descendant reaches minimum degree d.  A change to the packing
           must keep this.
        C. The deficit, the sum of d - deg v over vertices of degree < d,
           exceeds 2 (M - m - 1).  One edge lowers it by at most 2, so no
           class at level M above this child has minimum degree d.

        Neither rule drops an ancestor, on the construction path, of a
        class at level M with minimum degree >= d, so the target level is
        exactly those classes.  The full ladder applies neither rule.  The
        target level gets no orbit representatives, because nothing grows
        from it, and a window keeps only its frontier."""
        n, d = self.n, WINDOW_MIN_DEGREE
        window = self.target is not None
        full = (1 << n) - 1
        m = len(self._levels)  # edge count of the level being built
        top = m == self.target
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
                if window:
                    deficit = sum(d - x for x in deg if x < d)
                    if deficit > 2 * (self.target - m) or (
                        deficit
                        and (
                            deg[u] > d and deg[v] > d
                            or any(deg[x] > d and deg[y] > d for x, y in parent.edges)
                        )
                    ):
                        continue
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
                        best = min(ties, key=lambda e: sorted((pos[e[0]], pos[e[1]])))
                        if best != (u, v) and (u, v) not in _orbit(gens, *best):
                            continue
                    children.append((code, 0 if top else _non_edge_reps(adj, pos, gens)))
        children.sort()
        level = [_graph_of_code(n, code) for code, _ in children]
        self._reps = {} if top else {g: reps for g, (_, reps) in zip(level, children)}
        if window:
            self._levels[-1] = []
        self._levels.append(level)
