from __future__ import annotations

import itertools
import random

import pytest

from rbturan.colorer import iter_coloring_classes
from rbturan.graphs import (
    ColoredGraph,
    GraphError,
    build_colored_graph,
    permute_colors,
)
from rbturan import rainbow
from rbturan.rainbow import (
    RainbowWitness,
    _colored_adjacency,
    _meet_in_the_middle,
    find_rainbow_path,
)

from helpers import replay_witness

FIGURE_K4 = [(0, 1, 1), (0, 2, 2), (0, 3, 3), (1, 2, 3), (1, 3, 2), (2, 3, 1)]
G5_TRIPLES = [
    (0, 1, 1), (0, 2, 2), (0, 3, 3), (2, 3, 4), (4, 1, 4), (4, 2, 3), (4, 3, 2),
]


def brute_has_rainbow(cg: ColoredGraph, k: int) -> bool:
    """Brute force over all vertex sequences (adjacency filtered, colors
    checked only on complete sequences)."""
    g = cg.graph
    if k > g.n:
        return False

    def walk(seq: list[int]) -> bool:
        if len(seq) == k:
            cols = {cg.color_of(seq[i], seq[i + 1]) for i in range(k - 1)}
            return len(cols) == k - 1
        for w in g.adj[seq[-1]]:
            if w not in seq:
                if walk(seq + [w]):
                    return True
        return False

    return any(walk([s]) for s in range(g.n))


def all_colorings(g, max_classes=None):
    """Every canonical total coloring of g (all set partitions of the edge
    list, not only proper ones)."""
    m = len(g.edges)
    out = []

    def rec(i, colors, used):
        if i == m:
            out.append(ColoredGraph(g, tuple(colors)))
            return
        for c in range(1, used + 2):
            colors.append(c)
            rec(i + 1, colors, max(used, c))
            colors.pop()

    rec(0, [], 0)
    return out


def test_rainbow_path_on_rainbow_p5():
    cg = build_colored_graph(5, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4)])
    w = find_rainbow_path(cg, 5)
    assert w == RainbowWitness((0, 1, 2, 3, 4), (1, 2, 3, 4))
    assert replay_witness(cg, w, 5)


def test_figure_k4_has_no_rainbow_p4():
    cg = build_colored_graph(4, FIGURE_K4)
    assert find_rainbow_path(cg, 4) is None


def test_g5_is_rainbow_p5_free():
    cg = build_colored_graph(5, G5_TRIPLES)
    assert find_rainbow_path(cg, 5) is None


def test_witness_is_lexicographically_least():
    # two rainbow P3s exist; the least starts at 0
    cg = build_colored_graph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3)])
    assert find_rainbow_path(cg, 3).vertices == (0, 1, 2)


def test_k_below_2_rejected():
    cg = build_colored_graph(2, [(0, 1, 1)])
    with pytest.raises(GraphError):
        find_rainbow_path(cg, 1)


def test_single_edge_is_rainbow_p2():
    cg = build_colored_graph(4, FIGURE_K4)
    w = find_rainbow_path(cg, 2)
    assert w == RainbowWitness((0, 1), (1,))


def test_exhaustive_agreement_with_brute_force(edge_corpus):
    """Detector vs color-blind sequence enumeration over every canonical
    coloring of every graph with at most 6 edges, k = 2..7."""
    for m in range(7):
        for g in edge_corpus[m]:
            for cg in all_colorings(g):
                for k in range(2, 8):
                    got = find_rainbow_path(cg, k)
                    want = brute_has_rainbow(cg, k)
                    assert (got is not None) == want, (g.edges, cg.colors, k)
                    if got is not None:
                        assert replay_witness(cg, got, k)


def test_agreement_with_raw_permutation_enumeration(edge_corpus):
    """On the tiniest graphs, also compare against itertools.permutations
    with no adjacency shortcut at all."""
    for m in range(5):
        for g in edge_corpus[m]:
            if g.n > 8:
                continue
            for cg in all_colorings(g):
                for k in (2, 3, 4):
                    want = any(
                        all(g.has_edge(seq[i], seq[i + 1]) for i in range(k - 1))
                        and len({cg.color_of(seq[i], seq[i + 1]) for i in range(k - 1)})
                        == k - 1
                        for seq in itertools.permutations(range(g.n), min(k, g.n))
                        if len(seq) == k
                    )
                    assert (find_rainbow_path(cg, k) is not None) == want


def test_k_monotonicity(edge_corpus):
    """If no rainbow P_k exists then no rainbow P_k' for k' > k."""
    for m in range(2, 7):
        for g in edge_corpus[m][:20]:
            for cg in all_colorings(g)[:30]:
                free_from = None
                for k in range(2, 8):
                    if find_rainbow_path(cg, k) is None:
                        free_from = k
                        break
                if free_from is not None:
                    for k2 in range(free_from, 9):
                        assert find_rainbow_path(cg, k2) is None


def test_subgraph_monotonicity(edge_corpus):
    """Deleting a colored edge never creates a rainbow path."""
    for g in edge_corpus[6][:25]:
        for cg in all_colorings(g)[:12]:
            for k in (3, 4, 5):
                if find_rainbow_path(cg, k) is None:
                    for drop in range(len(g.edges)):
                        edges = [
                            (u, v, c)
                            for i, ((u, v), c) in enumerate(zip(cg.edges, cg.colors))
                            if i != drop
                        ]
                        sub = build_colored_graph(g.n, edges)
                        assert find_rainbow_path(sub, k) is None


def test_color_permutation_invariance(edge_corpus):
    rng = random.Random(9)
    for g in edge_corpus[6][:25]:
        for cg in all_colorings(g)[:12]:
            used = sorted(set(cg.colors))
            image = used[:]
            rng.shuffle(image)
            pi = dict(zip(used, image))
            permuted = permute_colors(cg, pi)
            for k in (3, 4, 5):
                assert (find_rainbow_path(cg, k) is None) == (
                    find_rainbow_path(permuted, k) is None
                )


def test_proper_class_representatives_stay_rainbow_free(edge_corpus):
    """Cross-module: every enumerated valid class replays as such."""
    for g in edge_corpus[5][:10]:
        for rep in iter_coloring_classes(g, 4):
            assert find_rainbow_path(rep, 4) is None


def _random_colored_graph(rng: random.Random) -> ColoredGraph:
    """A random graph on at most 10 vertices, any density, with a random
    proper coloring or a random coloring that may repeat colors at a
    vertex; palettes run from tight to loose."""
    n = rng.randint(2, 10)
    density = rng.random()
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
    if not edges:
        edges = [(0, 1)]
    rng.shuffle(edges)
    if rng.random() < 0.5:
        palette = rng.randint(1, len(edges))
        colors = [rng.randint(1, palette) for _ in edges]
    else:
        colors = []
        at = [set() for _ in range(n)]
        palette = rng.randint(1, 2 * n)
        for u, v in edges:
            free = [c for c in range(1, palette + 1) if c not in at[u] | at[v]]
            c = rng.choice(free) if free else max(at[u] | at[v]) + 1
            at[u].add(c)
            at[v].add(c)
            colors.append(c)
    return build_colored_graph(n, [(u, v, c) for (u, v), c in zip(edges, colors)])


def test_seeded_random_graphs_agree_with_brute_force():
    """Detector vs brute force on random colored graphs up to 10 vertices,
    proper and improper, k = 2..9: both meeting shapes (middle vertex and
    middle edge) at every arm length up to 4.  The meet in the middle is
    also run to its own answer, which the detector skips whenever its walk
    settles first.  Brute force runs until the first k without a rainbow
    P_k; from there on, and wherever fewer than k-1 colors are used, no
    rainbow P_k can exist."""
    rng = random.Random(2024)
    for _ in range(1600):
        cg = _random_colored_graph(rng)
        nbrs = _colored_adjacency(cg)
        palette = len(set(cg.colors))
        want = True
        for k in range(2, 10):
            want = want and palette >= k - 1 and brute_has_rainbow(cg, k)
            got = find_rainbow_path(cg, k)
            assert (got is not None) == want, (cg.edges, cg.colors, k)
            if got is not None:
                assert replay_witness(cg, got, k)
            *_, met = _meet_in_the_middle(nbrs, k)
            assert met == want, (cg.edges, cg.colors, k)


def _round_robin_k(n: int) -> ColoredGraph:
    """K_n, n even, in the round-robin proper 1-factorization: vertex n-1
    is fixed and round r pairs it with r and r+i with r-i mod n-1."""
    odd = n - 1
    triples = [(u, odd, u + 1) for u in range(odd)]
    triples += [
        (u, v, (u + v) * (odd + 1) // 2 % odd + 1)
        for u, v in itertools.combinations(range(odd), 2)
    ]
    return build_colored_graph(n, triples)


@pytest.mark.parametrize("n, k", [(16, 12), (18, 14)])
def test_least_path_found_at_once_builds_few_arms(monkeypatch, n, k):
    """The walk and the meet in the middle advance in turn: on a dense
    graph whose least path 0, 1, ..., k-1 is the walk's first, at most one
    arm is built per walk step.  Deciding existence before walking instead
    would build the arms of K18 at k=14 in full (minutes), so the count
    stops the run at the first arm over k."""
    grown = 0
    grow = rainbow._ArmSet.grow

    def counted(self):
        nonlocal grown
        grown += 1
        assert grown <= k, "arms built ahead of the walk"
        return grow(self)

    monkeypatch.setattr(rainbow._ArmSet, "grow", counted)
    cg = _round_robin_k(n)
    witness = find_rainbow_path(cg, k)
    assert witness is not None and witness.vertices == tuple(range(k))
