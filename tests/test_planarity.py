from __future__ import annotations

import itertools
import random

import networkx as nx

from rbturan.codec import decode_graph6
from rbturan.constructions import double_wheel, gn, icosahedron
from rbturan.generation import LevelLadder
from rbturan.graphs import Graph, build_graph
from rbturan.planarity import PlanarityVerdict, _draws, _kernel, is_planar

# ---------------------------------------------------------------------------
# Independent oracle: non-planar iff a K5 or K3,3 minor exists (checked by
# recursive edge contraction down to a subgraph test).
# ---------------------------------------------------------------------------


def _contract(g: Graph, u: int, v: int) -> Graph:
    def mp(x: int) -> int:
        if x == v:
            return u
        return x if x < v else x - 1

    edges = {(min(mp(a), mp(b)), max(mp(a), mp(b))) for a, b in g.edges if mp(a) != mp(b)}
    return build_graph(g.n - 1, sorted(edges))


def _has_k5_subgraph(g: Graph) -> bool:
    masks = g.masks()
    return any(
        all(masks[a] >> b & 1 for a, b in itertools.combinations(sub, 2))
        for sub in itertools.combinations(range(g.n), 5)
    )


def _has_k33_subgraph(g: Graph) -> bool:
    vs = range(g.n)
    masks = g.masks()
    for left in itertools.combinations(vs, 3):
        rest = [v for v in vs if v not in left]
        for right in itertools.combinations(rest, 3):
            if all(masks[a] >> b & 1 for a in left for b in right):
                return True
    return False


def _has_minor(g: Graph, subgraph_test, min_vertices: int) -> bool:
    if g.n < min_vertices:
        return False
    if subgraph_test(g):
        return True
    return any(_has_minor(_contract(g, u, v), subgraph_test, min_vertices) for u, v in g.edges)


def brute_planar(g: Graph) -> bool:
    return not (_has_minor(g, _has_k5_subgraph, 5) or _has_minor(g, _has_k33_subgraph, 6))


def test_agrees_with_minor_oracle_on_all_graphs_up_to_7_vertices():
    for n in range(8):
        ladder = LevelLadder(n)
        for m in range(n * (n - 1) // 2 + 1):
            for g in ladder.level(m):
                assert bool(is_planar(g)) == brute_planar(g), (n, m, g.edges)


def test_classics():
    k4 = build_graph(4, list(itertools.combinations(range(4), 2)))
    assert is_planar(k4).planar
    k5 = build_graph(5, list(itertools.combinations(range(5), 2)))
    assert not is_planar(k5).planar
    k33 = build_graph(6, [(a, b) for a in range(3) for b in range(3, 6)])
    assert not is_planar(k33).planar
    petersen = build_graph(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, 5 + i) for i in range(5)],
    )
    assert not is_planar(petersen).planar


def test_constructions_are_planar():
    assert is_planar(gn(7).graph).planar  # the fixed 7-vertex member
    assert is_planar(gn(30).graph).planar
    assert is_planar(double_wheel(20).graph).planar
    assert is_planar(icosahedron().graph).planar


def test_subgraph_monotonicity():
    rng = random.Random(11)
    for base in (gn(14).graph, double_wheel(12).graph, icosahedron().graph):
        assert is_planar(base).planar
        edges = list(base.edges)
        for _ in range(12):
            keep = [e for e in edges if rng.random() < 0.7]
            assert is_planar(build_graph(base.n, keep)).planar


def test_disconnected_handling():
    # planar + planar stays planar; planar + K5 does not
    two_wheels = build_graph(
        12,
        list(double_wheel(6).graph.edges)
        + [(a + 6, b + 6) for a, b in double_wheel(6).graph.edges],
    )
    assert is_planar(two_wheels).planar
    with_k5 = build_graph(
        11,
        list(double_wheel(6).graph.edges)
        + [(a + 6, b + 6) for a, b in itertools.combinations(range(5), 2)],
    )
    assert not is_planar(with_k5).planar


def test_random_agreement_with_networkx():
    rng = random.Random(23)
    for _ in range(800):
        n = rng.randint(1, 14)
        p = rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = build_graph(n, edges)
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(edges)
        assert bool(is_planar(g)) == nx.check_planarity(G, counterexample=False)[0]


def test_relabel_stability():
    rng = random.Random(5)
    g = gn(12).graph
    for _ in range(10):
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        assert is_planar(relabeled).planar == is_planar(g).planar


def _networkx_planar(g: Graph) -> bool:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    return nx.check_planarity(G, counterexample=False)[0]


def test_agrees_with_networkx_on_every_class_on_7_vertices():
    ladder = LevelLadder(7)
    for m in range(22):
        for g in ladder.level(m):
            assert bool(is_planar(g)) == _networkx_planar(g), (m, g.edges)


# every class on at most 8 vertices whose drawing meets an undrawn edge
# between two drawn vertices that lie on no common face; all have 8
CHORD_REJECTED = [
    "GGM^ew", "GGM^e{", "G@]]nK", "G@U}vK", "G@U}v[", "G@U}~o",
    "G@]~e{", "G@U}~[", "G@U}~s", "G@U}v{", "G@]~no",
]


def test_chord_with_no_common_face_is_rejected():
    for text in CHORD_REJECTED:
        _draws.cache_clear()  # so the drawing runs rather than a kept verdict
        g = decode_graph6(text)
        assert bool(is_planar(g)) == _networkx_planar(g), text


def _kernel_size(g: Graph) -> tuple[int, int]:
    adj = _kernel(g.masks())
    return sum(1 for a in adj if a), sum(a.bit_count() for a in adj) // 2


def _dress(core: list[tuple[int, int]], n: int, seed: int) -> Graph:
    """core with every edge subdivided 0-2 times and a pendant tree hung on
    every vertex, subdivision vertices included; vertices shuffled."""
    rng = random.Random(seed)
    edges = []
    for u, v in core:
        for _ in range(rng.randint(0, 2)):
            edges.append((u, n))
            u, n = n, n + 1
        edges.append((u, v))
    for v in range(n):
        tip = v
        for _ in range(rng.randint(0, 2)):
            edges.append((tip, n))
            tip = rng.choice([tip, n])
            n += 1
    perm = list(range(n))
    rng.shuffle(perm)
    return build_graph(n, [(perm[u], perm[v]) for u, v in edges])


K5_EDGES = list(itertools.combinations(range(5), 2))
K33_EDGES = [(a, b) for a in range(3) for b in range(3, 6)]


def test_subdivided_kuratowski_graphs_with_pendant_trees_stay_nonplanar():
    for seed in range(20):
        k5 = _dress(K5_EDGES, 5, seed)
        assert not is_planar(k5).planar, seed
        assert _kernel_size(k5) == (5, 10)
        k33 = _dress(K33_EDGES, 6, seed)
        assert not is_planar(k33).planar, seed
        assert _kernel_size(k33) == (6, 9)
        assert not _networkx_planar(k5) and not _networkx_planar(k33)


def test_kernel_vertices_have_degree_0_or_at_least_3():
    # the verdict relies on it: 3 kn <= 2 km, so a kernel with at most 8
    # edges has at most 5 vertices
    graphs = []
    for n in range(8):
        ladder = LevelLadder(n)
        for m in range(n * (n - 1) // 2 + 1):
            graphs += ladder.level(m)
    for seed in range(20):
        graphs += [_dress(K5_EDGES, 5, seed), _dress(K33_EDGES, 6, seed)]
    for g in graphs:
        degrees = [a.bit_count() for a in _kernel(g.masks())]
        assert all(d == 0 or d >= 3 for d in degrees), g.edges


def test_k5_with_a_vertex_on_both_ends_of_an_edge_stays_nonplanar():
    # the extra vertex sits beside the edge (0, 1) and is deleted, not
    # smoothed into a second copy of it; the input passes the Euler bound
    g = build_graph(6, K5_EDGES + [(0, 5), (1, 5)])
    assert len(g.edges) <= 3 * g.n - 6
    assert not is_planar(g).planar
    assert _kernel_size(g) == (5, 10)


def test_cycles_with_chords_stay_planar():
    # outerplanar graphs always have a vertex of degree <= 2, so their
    # kernel is empty; one crossing chord pair on a cycle is still planar
    rng = random.Random(3)
    for n in range(4, 16):
        edges = [(i, (i + 1) % n) for i in range(n)]
        chords, stack = [], [(0, n - 1)]
        while stack:  # nested, non-crossing chords
            lo, hi = stack.pop()
            if hi - lo >= 2 and rng.random() < 0.8:
                mid = rng.randint(lo + 1, hi - 1)
                chords += [(lo, mid)] if mid - lo >= 2 else []
                chords += [(mid, hi)] if hi - mid >= 2 else []
                stack += [(lo, mid), (mid, hi)]
        g = build_graph(n, edges + [c for c in chords if c != (0, n - 1)])
        assert is_planar(g).planar and _kernel_size(g) == (0, 0), g.edges
        assert _networkx_planar(g)
    crossed = build_graph(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (1, 4)])
    assert is_planar(crossed).planar and _networkx_planar(crossed)


K4_EDGES = list(itertools.combinations(range(4), 2))


def _glued(first: list[tuple[int, int]], n: int, second: list[tuple[int, int]]):
    """Edges and vertex count of first (on 0..n-1) and second sharing their
    vertex 0; second's other vertices follow first's."""
    def mp(v: int) -> int:
        return 0 if v == 0 else v + n - 1

    edges = first + [(mp(u), mp(v)) for u, v in second]
    return edges, 1 + max(max(e) for e in edges)


def _shuffled(edges: list[tuple[int, int]], n: int, seed: int) -> Graph:
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return build_graph(n, [(perm[u], perm[v]) for u, v in edges])


def test_nonplanar_block_at_a_cut_vertex_is_found():
    # the kernel is both blocks; which block the drawing starts in depends
    # on the labels, so the other block is the one tested recursively in
    # some of the shuffles
    for block, size in ((K5_EDGES, 5), (K33_EDGES, 6)):
        for edges, n in (_glued(block, size, K4_EDGES), _glued(K4_EDGES, 4, block)):
            assert len(edges) <= 3 * n - 6 and _kernel_size(build_graph(n, edges)) == (n, len(edges))
            for seed in range(24):
                for g in (_shuffled(edges, n, seed), _dress(edges, n, seed)):
                    assert is_planar(g) == PlanarityVerdict(False), seed
                    assert not _networkx_planar(g)


def test_planar_blocks_at_a_cut_vertex_stay_planar():
    ico = list(icosahedron().graph.edges)
    edges, n = _glued(ico, 12, ico)
    assert n == 23 and len(edges) == 60
    for seed in range(12):
        for g in (_shuffled(edges, n, seed), _dress(edges, n, seed)):
            assert is_planar(g).planar and _networkx_planar(g), seed


def _stacked_triangulation(n: int, rng: random.Random) -> set[tuple[int, int]]:
    """A random maximal planar graph: each new vertex goes into a random
    triangular face and is joined to its three corners."""
    edges = {(0, 1), (0, 2), (1, 2)}
    faces = [(0, 1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges |= {(a, v), (b, v), (c, v)}
        faces += [(a, b, v), (b, c, v), (a, c, v)]
    return edges


def test_near_triangulations_agree_with_networkx():
    # stacked triangulations up to n=62, with some edges removed and a few
    # random chords added, shuffled
    rng = random.Random(62)
    verdicts = []
    for i in range(80):
        n = 62 if i % 8 == 0 else rng.randint(6, 62)
        edges = _stacked_triangulation(n, rng)
        for e in rng.sample(sorted(edges), rng.randint(0, 8)):
            edges.discard(e)
        for _ in range(rng.randint(0, 3)):
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
        g = _shuffled(sorted(edges), n, i)
        verdicts.append(bool(is_planar(g)))
        assert verdicts[-1] == _networkx_planar(g), (n, g.edges)
    assert 10 < sum(verdicts) < 70


# kernels that pass the Euler bound and reach path addition, each
# nonplanar one beside a planar look-alike with the same vertex and edge
# counts and the same degree at every vertex
LOOKALIKES = [
    (  # K3,3 and the triangular prism
        6,
        K33_EDGES,
        [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)],
    ),
    (  # the Wagner graph and the cube: an 8-cycle with 4 chords each
        8,
        [(i, i + 1) for i in range(7)] + [(0, 7)] + [(i, i + 4) for i in range(4)],
        [(i, i + 1) for i in range(7)] + [(0, 7), (0, 3), (4, 7), (1, 6), (2, 5)],
    ),
    (  # K5 with two opposite edges subdivided and the new vertices joined
        7,
        [e for e in K5_EDGES if e not in ((0, 1), (2, 3))]
        + [(0, 5), (1, 5), (2, 6), (3, 6), (5, 6)],
        [(0, 1), (0, 2), (0, 4), (0, 5), (1, 3), (1, 4), (1, 6),
         (2, 3), (2, 4), (2, 5), (3, 5), (3, 6), (4, 6)],
    ),
]


def _disguised(core: list[tuple[int, int]], n: int, perm_seed: int, dress_seed: int) -> Graph:
    """core relabelled by a permutation drawn from perm_seed, then given
    four more vertices from dress_seed, each subdividing an edge or hung
    as a leaf.  The extra vertices keep the labels n..n+3 and leave the
    kernel, so two graphs from one core and one perm_seed have the same
    labelled kernel."""
    perm = list(range(n))
    random.Random(perm_seed).shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in core]
    rng = random.Random(dress_seed)
    for extra in range(n, n + 4):
        if rng.random() < 0.5:
            u, v = edges.pop(rng.randrange(len(edges)))
            edges += [(u, extra), (extra, v)]
        else:
            edges.append((rng.randrange(extra), extra))
    return build_graph(n + 4, edges)


def test_alternating_lookalike_kernels_get_their_own_verdicts():
    # planar and nonplanar kernels of one shape, in turn, relabelled and
    # dressed: a verdict kept for one kernel must never answer for another
    _draws.cache_clear()
    for perm_seed in range(6):
        for dress_seed in range(3):
            for n, bad, good in LOOKALIKES:
                for core, planar in ((bad, False), (good, True)):
                    g = _disguised(core, n, perm_seed, dress_seed)
                    assert is_planar(g) == PlanarityVerdict(planar), (
                        perm_seed, dress_seed, g.edges
                    )
                    assert _networkx_planar(g) == planar
    info = _draws.cache_info()
    assert info.misses == 6 * 3 * 2  # one per labelled kernel ...
    assert info.hits == 6 * 2 * 3 * 2  # ... and each met again for every further dress_seed
