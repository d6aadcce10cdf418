"""Exact detection of rainbow paths in an edge-colored graph.

A rainbow P_k is a path on k distinct vertices whose k-1 edges carry
pairwise distinct colors.  One walker, `_walks`, extends a path depth
first, neighbours in ascending id order, with used vertices and used
(normalized) colors carried together in one bitmask read from a
precomputed per-vertex adjacency.

Existence is decided by meet in the middle.  A rainbow P_k has a middle
vertex (k-1 even) or a middle edge (k-1 odd), and from it two rainbow
arms of (k-1)//2 edges that share no vertex and no color.  The arms of
each vertex come from the walker, are built once for every middle at
that vertex, and are stored bit-sliced: per vertex or color bit, the
column of the arms that use it.  One loop meets the arms of each middle
in turn.  A middle is two arm sets and the bits each side must avoid: a
middle vertex is its own arm set twice with nothing to avoid, a middle
edge the arm sets of its ends, each closed to the edge's color and far
end.  An arm is met against all arms of the other side at once by ORing
the other side's columns of its own bits; a path exists exactly when
some arm leaves an arm of the other side outside that union.

The returned witness always comes from the walker run from every start
vertex in turn, so it is the lexicographically least one and
reproducible across runs.  That walk and the meet in the middle advance
in turn, one step each: a graph without the path is settled by the meet
in the middle long before the walk would exhaust it, and a dense graph
whose least path is found at once never builds the arms in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graphs import ColoredGraph, GraphError, normalize_colors


@dataclass(frozen=True)
class RainbowWitness:
    """An explicit rainbow path: the vertex sequence and its edge colors."""

    vertices: tuple[int, ...]
    colors: tuple[int, ...]


# per vertex, (neighbour, bits) pairs
Adjacency = list[list[tuple[int, int]]]


def _colored_adjacency(cg: ColoredGraph) -> Adjacency:
    """Per vertex, (neighbour, bits) in ascending neighbour order.  One
    mask carries both what a step uses up: bit w for the neighbour w and
    bit n + c for the normalized color c of the edge."""
    n = cg.n
    nbrs: Adjacency = [[] for _ in range(n)]
    for (u, v), c in zip(cg.edges, normalize_colors(cg).colors):
        cbit = 1 << (n + c)
        nbrs[u].append((v, (1 << v) | cbit))
        nbrs[v].append((u, (1 << u) | cbit))
    for lst in nbrs:
        lst.sort()
    return nbrs


def _walks(nbrs: Adjacency, path: list[int], used: int) -> Iterator[int]:
    """Each rainbow path from path[0] that fills the whole of path, in
    ascending neighbour order.  Yields the used mask of the vertices and
    colors when path is complete, and 0 after each step that does not
    complete it, so a caller can interleave the walk with other work."""
    last = len(path) - 1
    if last == 0:
        yield used
        return
    # per depth d >= 1: the neighbours still to try for path[d], and the
    # used mask of path[:d]
    todo = [iter(nbrs[path[0]])]
    masks = [used]
    while todo:
        mask = masks[-1]
        for w, bits in todo[-1]:
            if not mask & bits:
                break
        else:
            todo.pop()
            masks.pop()
            continue
        depth = len(todo)
        path[depth] = w
        if depth == last:
            yield mask | bits
        else:
            yield 0
            todo.append(iter(nbrs[w]))
            masks.append(mask | bits)


class _ArmSet:
    """The rainbow arms of one length from one vertex, built one at a time
    in walk order and bit-sliced.  Each arm is its mask of vertex and color
    bits, the start vertex left out; arm i is bit i of `every`, and `cols`
    maps each single-bit int to the column of the arms that use that bit."""

    def __init__(self, nbrs: Adjacency, v: int, length: int):
        self.start = 1 << v
        self.walk = _walks(nbrs, [v] * (length + 1), self.start)
        self.arms: list[int] = []
        self.every = 0
        self.cols: dict[int, int] = {}
        self.done = False

    def grow(self) -> int | None:
        """Build the next arm and return it, or None once all are built."""
        for used in self.walk:
            if used:
                break
        else:
            self.done = True
            return None
        arm = rest = used ^ self.start
        bit = 1 << len(self.arms)
        cols = self.cols
        while rest:
            low = rest & -rest
            cols[low] = cols.get(low, 0) | bit
            rest ^= low
        self.every |= bit
        self.arms.append(arm)
        return arm

    def free(self, mask: int) -> int:
        """The arms built so far that share no bit with mask."""
        every = self.every
        cols = self.cols
        while mask and every:
            low = mask & -mask
            every &= ~cols.get(low, 0)
            mask ^= low
        return every


def _meet_in_the_middle(nbrs: Adjacency, k: int) -> Iterator[bool | None]:
    """Whether the graph holds a rainbow P_k: yields None after each arm
    built or met in vain, then the answer.

    Per middle, the arms built for earlier middles are met first, the side
    with fewer running the loop; then the sides grow in turn, each new arm
    met against the other side's arms so far."""
    length = (k - 1) // 2
    built: list[_ArmSet | None] = [None] * len(nbrs)

    def arms_of(v: int) -> _ArmSet:
        arms = built[v]
        if arms is None:
            arms = built[v] = _ArmSet(nbrs, v, length)
        return arms

    if (k - 1) % 2 == 0:
        # a middle vertex meets its own arms; a new arm meets itself, so
        # only earlier arms can be free
        middles = ((arms_of(v), 0, arms_of(v), 0) for v in range(len(nbrs)))
    else:
        # a middle edge (a, b) closes its color and its far end to each
        # side: bits holds b and the color, and b's side swaps b for a
        middles = (
            (arms_of(a), bits, arms_of(b), bits ^ (1 << a) ^ (1 << b))
            for a, lst in enumerate(nbrs)
            for b, bits in lst
            if a < b
        )
    for x, x_avoid, y, y_avoid in middles:
        sides = ((x, x_avoid, y, y_avoid), (y, y_avoid, x, x_avoid))
        near, avoid, other, other_avoid = min(sides, key=lambda side: len(side[0].arms))
        for arm in near.arms:
            if not arm & avoid and other.free(arm | other_avoid):
                yield True
                return
            yield None
        while not (x.done and y.done):
            for near, avoid, other, other_avoid in sides:
                if (arm := near.grow()) is not None:
                    if not arm & avoid and other.free(arm | other_avoid):
                        yield True
                        return
                    yield None
    yield False


def find_rainbow_path(cg: ColoredGraph, k: int) -> RainbowWitness | None:
    """Least rainbow P_k witness of cg, or None if cg is rainbow-P_k-free."""
    if k < 2:
        raise GraphError(f"paths need k >= 2 vertices, got k={k}")
    if k > cg.n:
        return None
    nbrs = _colored_adjacency(cg)
    path = [0] * k
    meet = _meet_in_the_middle(nbrs, k)
    exists = None
    for s in range(cg.n):
        path[0] = s
        for used in _walks(nbrs, path, 1 << s):
            if used:
                cols = tuple(cg.color_of(path[i], path[i + 1]) for i in range(k - 1))
                return RainbowWitness(tuple(path), cols)
            if exists is None:
                exists = next(meet)
                if exists is False:
                    return None
    if exists:
        raise AssertionError("meet in the middle found a rainbow path the walk did not")
    return None
