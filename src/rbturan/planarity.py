"""Planarity decision by path addition on the graph's kernel.

Boolean verdict only; no embedding or Kuratowski witness is produced.  The
graph is first reduced to its kernel on adjacency bitmasks, repeating
until no vertex qualifies:

* a vertex of degree 0 or 1 is deleted;
* a vertex v of degree 2 with neighbours u and w is smoothed: the path
  u-v-w becomes the edge u-w, or, when u and w are already adjacent, v is
  just deleted.

Each step keeps planarity in both directions.  A vertex of degree at most
one can always be redrawn next to its neighbour.  Smoothing replaces a
graph by one it is a subdivision of, and subdivision neither creates nor
destroys a subdivided K5 or K3,3 (Kuratowski).  A path u-v-w beside an
existing edge u-w can be drawn alongside that edge.

The Euler bound e <= 3n-6 is tested once, on the kernel.  No step lowers
e - 3n (each takes away one vertex and at most two edges), and an input
on n >= 3 vertices with an empty kernel passed through a 3-vertex graph,
which meets the bound, so that test rejects every input above it too.  A
kernel with at most 5 vertices that passed the bound is planar because
K5, which the bound rejects, is the only nonplanar graph on 5 vertices.
That covers every kernel with at most 8 edges: each kernel vertex has
degree 0 or at least 3, so 3 kn <= 2 km <= 16 and kn <= 5.

Any other kernel is drawn by path addition (Demoucron, Malgrange and
Pertuiset, 1964).  One cycle is drawn as two faces.  A fragment is an
undrawn edge between drawn vertices, or a component of undrawn vertices
together with the edges that attach it to drawn ones.

* A fragment with at most one attachment is a block of its own (another
  component, or a block hanging at a cut vertex).  A graph is planar iff
  each of its blocks is, so the fragment is reduced to its kernel and
  tested recursively.
* Every other fragment must fit a face that holds all of its attachments,
  or the graph is nonplanar.  A path between two attachments of a fragment
  with the fewest such faces is drawn in one of them, splitting that face
  in two.  When the block is planar, some plane embedding of it extends
  the drawing after every such step, so a fragment that fits no face is
  proof of nonplanarity.

The drawing stays 2-connected, so every face is a cycle of vertices.

The path-addition verdict of a kernel is kept in a memo of at most
DRAWS_MEMO entries, the least recently used dropped first.  Its key is
the kernel's exact tuple of adjacency masks, removed vertices included
as 0, and the drawing reads nothing else, so a verdict is only ever
reused for the same labelled graph.  A key coarser than that, such as the
vertex and edge counts or the degree sequence, would not be sound: K3,3
and the triangular prism share both.  A level repeats kernels often,
because pendant trees and subdivided edges leave the kernel and the
labels of what is left often agree: the 13,093 planar (9,14) classes
need 5,812 drawings, of only 1,716 distinct kernels.
"""
from __future__ import annotations

import functools
from typing import NamedTuple

from .graphs import Graph

# the most kernels whose path-addition verdict the memo keeps
DRAWS_MEMO = 4096


class PlanarityVerdict(NamedTuple):
    planar: bool

    def __bool__(self) -> bool:
        return self.planar


def planar_edge_cap(n: int) -> int:
    """Largest edge count a planar graph on n vertices can have."""
    return n * (n - 1) // 2 if n < 3 else 3 * n - 6


def is_planar(g: Graph) -> PlanarityVerdict:
    """Decide whether g embeds in the plane."""
    return PlanarityVerdict(_verdict(_kernel(g.masks())))


def _verdict(adj: list[int]) -> bool:
    """Whether a kernel given as adjacency bitmasks embeds in the plane."""
    kn = len(adj) - adj.count(0)
    km = sum(map(int.bit_count, adj)) // 2
    return km <= planar_edge_cap(kn) and (kn <= 5 or _draws(tuple(adj)))


def _kernel(adj: list[int]) -> list[int]:
    """Reduce adjacency bitmasks in place, deleting every vertex of degree
    <= 1 and smoothing every vertex of degree 2 until none is left, and
    return them; removed vertices have an empty mask."""
    # degrees never grow, so a vertex is reducible from the moment it is
    # pushed; one that was reduced meanwhile has an empty mask
    todo = [v for v, a in enumerate(adj) if a.bit_count() <= 2]
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


def _cycle(adj: list[int]) -> list[int]:
    """A cycle of a kernel, found by walking without turning back until a
    vertex repeats; every kernel vertex has degree 0 or at least 3."""
    v = next(v for v, a in enumerate(adj) if a)
    walk, at, back = [v], {v: 0}, 0
    while True:
        nb = adj[v] & ~back
        w = (nb & -nb).bit_length() - 1
        if w in at:
            return walk[at[w]:]
        at[w] = len(walk)
        walk.append(w)
        back, v = 1 << v, w


def _erase(left: list[int], path: list[int]) -> None:
    """Remove the edges of a drawn path from the undrawn adjacency."""
    for v, w in zip(path, path[1:]):
        left[v] &= ~(1 << w)
        left[w] &= ~(1 << v)


def _path(left: list[int], drawn: int, att: int, frag: int) -> list[int]:
    """A shortest path from the lowest attachment a of a fragment, through
    its undrawn vertices, to another attachment; one exists because the
    fragment is connected and has at least two attachments."""
    a = (att & -att).bit_length() - 1
    if not frag:
        return [a, att.bit_length() - 1]
    prev = {}
    seen = 1 << a
    queue = [a]
    for v in queue:
        ends = left[v] & drawn & ~seen
        if v != a and ends:
            path = [(ends & -ends).bit_length() - 1]
            while v != a:
                path.append(v)
                v = prev[v]
            return path + [a]
        new = left[v] & frag & ~seen
        seen |= new
        while new:
            low = new & -new
            new ^= low
            w = low.bit_length() - 1
            prev[w] = v
            queue.append(w)


@functools.lru_cache(maxsize=DRAWS_MEMO)
def _draws(adj: tuple[int, ...]) -> bool:
    """Path addition on a kernel: True iff it embeds in the plane."""
    left = list(adj)  # edges not drawn yet
    on = [0] * len(adj)  # on[v]: bitmask of the faces v lies on
    cycle = _cycle(adj)
    faces = [cycle, cycle[:]]
    drawn = 0
    for v in cycle:
        on[v] = 3
        drawn |= 1 << v
    _erase(left, cycle + cycle[:1])
    # undrawn kernel vertices, none of whose edges is drawn yet
    undrawn = 0
    for v, a in enumerate(adj):
        if a:
            undrawn |= 1 << v
    undrawn &= ~drawn
    while True:
        # the fragment to draw a path of: the first to fit a single face,
        # else the first, with the fragments taken in order: first every
        # undrawn edge between drawn vertices, then every component of
        # undrawn vertices
        pick, single = None, False
        above = drawn
        while above:
            low = above & -above
            above ^= low  # the drawn vertices past v
            v = low.bit_length() - 1
            ends = left[v] & above
            while ends:
                end = ends & -ends
                ends ^= end
                fits = on[v] & on[end.bit_length() - 1]
                if not fits:
                    return False
                single = fits & (fits - 1) == 0
                if pick is None or single:
                    pick = fits, low | end, 0
                    if single:
                        above = ends = 0
        if not single:
            rest = undrawn
            while rest:
                frag = frontier = rest & -rest
                att = 0
                while frontier:
                    reach = 0
                    while frontier:
                        low = frontier & -frontier
                        frontier ^= low
                        reach |= left[low.bit_length() - 1]
                    att |= reach & drawn
                    frontier = reach & rest & ~frag
                    frag |= frontier
                rest &= ~frag
                if att & (att - 1) == 0:  # at most one attachment: its own block
                    piece = att | frag
                    sub = [a & piece if piece >> v & 1 else 0 for v, a in enumerate(left)]
                    if not _verdict(_kernel(sub)):
                        return False
                    undrawn &= ~frag
                    while frag:
                        low = frag & -frag
                        frag ^= low
                        left[low.bit_length() - 1] = 0
                    if att:
                        left[att.bit_length() - 1] &= ~piece
                    continue
                fits = -1
                ends = att
                while ends:
                    end = ends & -ends
                    ends ^= end
                    fits &= on[end.bit_length() - 1]
                if not fits:
                    return False
                single = fits & (fits - 1) == 0
                if pick is None or single:
                    pick = fits, att, frag
                    if single:
                        break
        if pick is None:
            return True
        fits, att, frag = pick
        path = _path(left, drawn, att, frag)
        _erase(left, path)
        a, b, inner = path[0], path[-1], path[1:-1]
        f = (fits & -fits).bit_length() - 1
        cyc = faces[f]
        i = cyc.index(a)
        cyc = cyc[i:] + cyc[:i]
        j = cyc.index(b)
        bf, bg = 1 << f, 1 << len(faces)
        faces[f] = cyc[: j + 1] + inner[::-1]
        faces.append(cyc[j:] + cyc[:1] + inner)
        for v in cyc[j + 1:]:
            on[v] ^= bf | bg
        on[a] |= bg
        on[b] |= bg
        for v in inner:
            on[v] = bf | bg
            drawn |= 1 << v
        undrawn &= ~drawn
