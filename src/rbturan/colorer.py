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

The graphs of a level are searched together.  The search at position j
depends on the positions up to j only through how their edges meet, so
each graph's static order, with its vertices renamed by first occurrence
along it, gives a key of one code per position, the index of its pair of
names, and graphs whose keys agree through position j take the same
steps up to j.  A group of graphs with one number of edges is built from
their keys alone, sorted into a prefix trie: a node is the run of
members that share its prefix, and its bucket is built once for all of
them.  One depth-first walk over (trie node, partial coloring) tries the
colors at a node, then at its next sibling under the same colors.  A
member's own search is the walk restricted to its path, so its nodes
are the color tries made at the nodes of its path.  A member that
reaches a complete coloring is SAT, with the tries on the stack at
that moment and a certificate read through its own static order; it
then leaves the walk, which enters no node whose members have all left.
So every member's status, nodes and certificate are those of its own
search.  A node budget bounds the tries of one graph, so a budgeted
search takes its graphs one at a time, each a group of one.  A member's
graph is needed only once it is SAT, for its certificate, so a caller
that holds keys (`search_keys`) need hold no graph until then.

One engine, `_Group.walk`, yields the canonical solutions in search
order.  It runs in first mode (`find_colorings`, and `find_coloring` as
a group of one: members leave at their first solution, and the rest are
UNSAT, or BUDGET_EXCEEDED, once the walk ends) or in all mode
(`iter_coloring_classes` drains it for a group of one and retires
nobody).  The walk is iterative and only the bucket walk recurses, k-2
deep, so the depth of the search is not bounded by the recursion limit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterator

from .graphs import ColoredGraph, Graph, GraphError, normalize_colors

SAT = "SAT"
UNSAT = "UNSAT"
BUDGET_EXCEEDED = "BUDGET_EXCEEDED"


class OracleSizeError(GraphError):
    """Input too large for the naive enumeration oracle."""


# the column of the paths using each earlier position
Bucket = tuple[int, ...]


@dataclass(frozen=True, slots=True)
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
    sums = [deg[u] + deg[v] for u, v in g.edges]
    # a stable sort, reversed or not, keeps equal sums in index order, which
    # is canonical edge order because g.edges is sorted
    return sorted(range(len(sums)), key=sums.__getitem__, reverse=True)


def search_key(g: Graph, n: int | None = None) -> bytes:
    """One code per position of g's static order: the edge's endpoints,
    with the vertices renamed 0, 1, ... by first occurrence along that
    order, as the index b(b-1)/2 + a of the pair a < b (see `_pairs`).
    The search at a position depends on the positions up to it only
    through this prefix.  The codes are bytes that sort as the codes do,
    `_code_bytes(n)` a code, high byte first, for a group of graphs on up
    to n vertices (default g.n): one byte a code up to 23 vertices."""
    names = [-1] * g.n
    key: list[int] = []
    count = 0
    edges = g.edges
    for i in _order_positions(g):
        u, v = edges[i]
        a = names[u]
        if a < 0:
            a = names[u] = count
            count += 1
        b = names[v]
        if b < 0:
            b = names[v] = count
            count += 1
        key.append(b * (b - 1) // 2 + a if a < b else a * (a - 1) // 2 + b)
    width = _code_bytes(g.n if n is None else n)
    return bytes(key) if width == 1 else b"".join(code.to_bytes(width, "big") for code in key)


def _code_bytes(n: int) -> int:
    """The bytes of a key code of graphs on n vertices: the codes lie
    below n(n-1)/2."""
    return max(1, ((n * (n - 1) // 2 - 1).bit_length() + 7) // 8)


@functools.cache
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The pair (a, b) of each key code below n(n-1)/2, the codes of
    graphs on n vertices: for each b in turn, a from 0 up to b - 1."""
    return tuple((a, b) for b in range(n) for a in range(b))


def _arms(
    nbrs: list[list[tuple[int, int]]],
    cols: list[int],
    b: int,
    v: int,
    seen: int,
    need: int,
    count: int,
    on_left: bool,
) -> int:
    """Grow an arm from v by `need` more edges (see `_bucket`); returns the
    number of paths completed so far."""
    if on_left:
        count = _arms(nbrs, cols, b, b, seen, need, count, False)
    for p, w in nbrs[v]:
        bit = 1 << w
        if seen & bit:
            continue
        if need == 1:
            cols[p] |= 1 << count
            count += 1
        else:
            start = count
            count = _arms(nbrs, cols, b, w, seen | bit, need - 1, count, on_left)
            if count > start:
                cols[p] |= ((1 << (count - start)) - 1) << start
    return count


def _bucket(endpoints: list[tuple[int, int]], k: int) -> Bucket:
    """The k-vertex paths whose last-colored edge is the last of
    `endpoints`, at position j = len(endpoints) - 1, bit-sliced: per
    position p below j, the column of the paths that use the edge at p.
    Path i is bit i; each path has k-2 >= 1 edges besides the one at j,
    so the columns' union is every path, and a position that ends no
    path has the empty tuple.

    Each path is the edge (a, b) at j with a left arm from a and a right
    arm from b, vertex-disjoint, k-2 edges in all, every edge at a
    position below j.  One walk builds both: it grows the left arm, and
    at each vertex of it first hands the edges still needed over to a
    right arm from b.  Fixing which end of the edge is a makes each path
    come out exactly once.  The walk numbers the paths in the order it
    completes them, so the paths that extend one partial arm are a run of
    consecutive bits, set in one operation."""
    j = len(endpoints) - 1
    a, b = endpoints[j]
    # (position, neighbour) per vertex, positions ascending
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(1 + max(map(max, endpoints)))]
    for p in range(j):
        u, v = endpoints[p]
        nbrs[u].append((p, v))
        nbrs[v].append((p, u))
    cols = [0] * j
    count = _arms(nbrs, cols, b, a, (1 << a) | (1 << b), k - 2, 0, True)
    return tuple(cols) if count else ()


def _colored(g: Graph, order: list[int], colors_by_pos: list[int]) -> ColoredGraph:
    """g colored by position in its static order."""
    by_edge = [0] * len(order)
    for j, ei in enumerate(order):
        by_edge[ei] = colors_by_pos[j]
    return normalize_colors(ColoredGraph(g, tuple(by_edge)))


class _Group:
    """Graphs with the same number of edges m, searched together.

    A group is built from its members' keys alone (see `search_key`),
    sorted and joined, m codes per member; a member is its slot in that
    order.  Codes of more than one byte are read into a list of ints.
    A trie node at depth j+1 stands for the members whose keys agree
    through position j, a run of slots from lo[node] up to hi[node], and
    holds the edge at j.  Node 0 is the root.  A node's children are the
    nodes first[node] up to last[node], made in key order the first time
    the walk descends below it, so the long tails of single members that
    the search never reaches are never made.  Every field is a flat list
    indexed by node; a bucket is built the first time the walk enters its
    node."""

    def __init__(self, keys: bytes, size: int, n: int, k: int, max_colors: int | None):
        if k < 3:
            raise GraphError(f"coloring search needs k >= 3, got k={k}")
        if max_colors is not None and max_colors < 1:
            raise GraphError(f"max_colors must be positive, got {max_colors}")
        width = _code_bytes(n)
        self.keys = keys if width == 1 else [
            int.from_bytes(keys[at : at + width], "big") for at in range(0, len(keys), width)
        ]
        self.size = size
        self.k = k
        self.m = m = len(self.keys) // size
        self.n = n
        self.pairs = _pairs(n)
        self.max_colors = m if max_colors is None else max_colors
        self.eu, self.ev = [0], [0]
        self.lo, self.hi = [0], [size]
        self.first, self.last = [0], [0]
        self.alive = [size]
        self.tries = [0]
        self.buckets: list[Bucket | None] = [None]
        self.status = UNSAT

    def _expand(self, node: int, j: int) -> int:
        """Make the children of node, whose edges are at position j; returns
        the first."""
        keys, pairs, eu, ev, lo, hi = self.keys, self.pairs, self.eu, self.ev, self.lo, self.hi
        m = self.m
        self.first[node] = len(eu)
        slot, end = lo[node], hi[node]
        while slot < end:
            at = slot * m + j
            code = keys[at]
            start = slot
            slot += 1
            at += m
            while slot < end and keys[at] == code:
                slot += 1
                at += m
            a, b = pairs[code]
            eu.append(a)
            ev.append(b)
            lo.append(start)
            hi.append(slot)
            # no member below node has reached a leaf yet
            self.alive.append(slot - start)
        count = len(eu)
        grown = count - len(self.first)
        self.first += [0] * grown
        self.last += [0] * grown
        self.tries += [0] * grown
        self.buckets += [None] * grown
        self.last[node] = count
        return self.first[node]

    def walk(
        self, retire: bool, node_budget: int | None = None
    ) -> Iterator[tuple[int, list[int], int]]:
        """Yield (leaf, colors by position, tries on the path) for each
        canonical solution, in search order.  With `retire` the members at
        the leaf leave the search after the yield, and it ends once none
        is left; without it nobody leaves and the tries read 0, since
        nothing is credited with them.

        One depth-first search over (trie node, partial coloring): at
        position j it tries the colors at the node on the stack, then at
        the node's next sibling that still has a member, under the same
        colors at 0..j-1.  A member's own search is this one restricted to
        its path, so its nodes are the tries made at the nodes of that
        path.  Once the generator is exhausted, self.status is UNSAT, or
        BUDGET_EXCEEDED when it stopped after node_budget color
        assignments, which counts every try of the group."""
        m = self.m
        eu, ev, first, last, alive, tries, buckets = (
            self.eu, self.ev, self.first, self.last, self.alive, self.tries, self.buckets
        )
        expand = self._expand
        k = self.k
        max_colors = self.max_colors
        colors = [0] * m
        used = [0] * self.n
        nodes = 0

        # Iterative depth-first search over positions; frame state is the
        # trie node, the next candidate color per position and the bucket
        # fold made on entering the node: the paths with no repeated arm
        # color, and per color the paths whose arms use it.
        at = [0] * (m + 1)  # at[j + 1]: the node whose edge is at position j
        if m:
            at[1] = expand(0, 0)
        next_color = [1] * (m + 1)
        max_used = [0] * (m + 1)
        live_at = [0] * m
        once_at: list[dict[int, int]] = [{}] * m
        j = 0
        while True:
            if j == m:
                if retire:
                    yield at[m], colors[:], sum([tries[t] for t in at])
                    gone = alive[at[m]]
                    for t in at:
                        alive[t] -= gone
                    if not alive[0]:
                        return
                else:
                    yield at[m], colors[:], 0
            else:
                node = at[j + 1]
                if alive[node]:
                    u = eu[node]
                    v = ev[node]
                    forbid = used[u] | used[v]
                    if next_color[j] == 1:
                        cols = buckets[node]
                        if cols is None:
                            cols = buckets[node] = _bucket(
                                [(eu[t], ev[t]) for t in at[1 : j + 2]], k
                            )
                        once: dict[int, int] = {}
                        twice = every = 0
                        for c, col in zip(colors, cols):
                            if col:
                                seen = once.get(c, 0)
                                twice |= seen & col
                                once[c] = seen | col
                        for seen in once.values():
                            every |= seen
                        live_at[j] = live = every & ~twice
                        once_at[j] = once
                    else:
                        live = live_at[j]
                        once = once_at[j]
                    limit = max_colors if max_used[j] >= max_colors else max_used[j] + 1
                    c = next_color[j]
                    start = nodes
                    advanced = False
                    while c <= limit:
                        bit = 1 << c
                        if not forbid & bit:
                            nodes += 1
                            if node_budget is not None and nodes > node_budget:
                                tries[node] += nodes - start
                                self.status = BUDGET_EXCEEDED
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
                    tries[node] += nodes - start
                    if advanced:
                        if j < m:  # on to the first child
                            at[j + 1] = first[node] or expand(node, j)
                        continue
                # no color left at this node, or no member: its next sibling
                # with a member, under the same colors
                sibling = node + 1
                stop = last[at[j]]
                while sibling < stop and not alive[sibling]:
                    sibling += 1
                if sibling < stop:
                    at[j + 1] = sibling
                    next_color[j] = 1
                    continue
            # no sibling left at position j, or a solution was just yielded:
            # backtrack
            j -= 1
            if j < 0:
                return
            node = at[j + 1]
            bit = 1 << colors[j]
            used[eu[node]] &= ~bit
            used[ev[node]] &= ~bit

    def outcomes(
        self, graph_of: Callable[[int], Graph], node_budget: int | None = None
    ) -> list[SearchOutcome]:
        """Run the walk in first mode: the outcome of each member, by slot.
        A SAT member's nodes are the tries on the stack when it reached its
        first solution, and its certificate is read through the static
        order of its graph, graph_of(slot); every other member's nodes are
        the tries on its path once the walk ends, none below the last node
        made on it."""
        lo, hi = self.lo, self.hi
        found: list[SearchOutcome | None] = [None] * self.size
        for leaf, colors, nodes in self.walk(True, node_budget):
            for slot in range(lo[leaf], hi[leaf]):
                g = graph_of(slot)
                found[slot] = SearchOutcome(SAT, _colored(g, _order_positions(g), colors), nodes)
        # tries on the path to each node; children are made after parents
        first, last = self.first, self.last
        total = self.tries[:]
        for node in range(len(total)):
            if first[node] == last[node]:  # a leaf, or a node never expanded
                for slot in range(lo[node], hi[node]):
                    if found[slot] is None:
                        found[slot] = SearchOutcome(self.status, None, total[node])
            for child in range(first[node], last[node]):
                total[child] += total[node]
        return found  # type: ignore[return-value]


def search_keys(
    keys: bytes, size: int, n: int, k: int, graph_of: Callable[[int], Graph]
) -> list[SearchOutcome]:
    """`find_coloring` with the default color bound on each of `size`
    graphs on n vertices with one number of edges, given by their keys
    alone, sorted and joined (see `search_key`), in one search over their
    shared position prefixes: the outcome of each, in key order.
    graph_of(i) gives the graph of the i-th key; it is asked for only when
    that graph is SAT, for its certificate."""
    return _Group(keys, size, n, k, None).outcomes(graph_of) if size else []


def find_colorings(
    graphs: list[Graph], k: int, node_budget: int | None = None
) -> list[SearchOutcome]:
    """`find_coloring` with the default color bound on each of graphs,
    which share one number of edges, in one search over their shared
    position prefixes (`search_keys`); the outcomes, in input order, equal
    the graph-by-graph ones.  A node budget holds for each graph on its
    own, so a budgeted call searches the graphs one by one."""
    if node_budget is not None:
        return [find_coloring(g, k, node_budget=node_budget) for g in graphs]
    if any(len(g.edges) != len(graphs[0].edges) for g in graphs):
        raise GraphError("a group search needs graphs with the same number of edges")
    n = max((g.n for g in graphs), default=0)
    keys = [search_key(g, n) for g in graphs]
    order = sorted(range(len(graphs)), key=keys.__getitem__)
    joined = b"".join(keys[i] for i in order)
    outs = search_keys(joined, len(graphs), n, k, lambda slot: graphs[order[slot]])
    found: list[SearchOutcome] = [None] * len(graphs)  # type: ignore[list-item]
    for i, out in zip(order, outs):
        found[i] = out
    return found


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
    group = _Group(search_key(g), 1, g.n, k, max_colors)
    return group.outcomes(lambda slot: g, node_budget)[0]


def iter_coloring_classes(g: Graph, k: int) -> list[ColoredGraph]:
    """All color-renaming classes of proper rainbow-P_k-free colorings
    with any number of colors, each as its canonical (first-occurrence
    over canonical edge order) representative, sorted for determinism."""
    order = _order_positions(g)
    group = _Group(search_key(g), 1, g.n, k, None)
    reps = [_colored(g, order, colors) for _, colors, _ in group.walk(False)]
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
