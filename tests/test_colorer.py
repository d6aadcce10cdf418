from __future__ import annotations

import gc
import itertools
import random
import sys
from collections import Counter

import pytest

from rbturan.colorer import (
    BUDGET_EXCEEDED,
    UNSAT,
    OracleSizeError,
    _bucket,
    _order_positions,
    _pairs,
    find_coloring,
    find_colorings,
    iter_coloring_classes,
    oracle_enumerate,
    search_key,
)
from rbturan.constructions import double_wheel
from rbturan.generation import LevelLadder
from rbturan.graphs import GraphError, build_graph, is_proper
from rbturan.planarity import is_planar
from rbturan.rainbow import find_rainbow_path

from helpers import enumerate_candidates, relabel

K4 = build_graph(4, list(itertools.combinations(range(4), 2)))
C4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
BOW_TIE = build_graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
PRISM6 = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])


def test_k4_sat_with_three_colors():
    out = find_coloring(K4, 5, 6)
    assert out.sat
    assert out.certificate.colors_used() == 3
    assert is_proper(out.certificate)
    assert find_rainbow_path(out.certificate, 5) is None


def test_c4_unsat_for_p3():
    assert find_coloring(C4, 3, 4).status == UNSAT


def test_bow_tie_with_pendant_unsat():
    g = build_graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (2, 5)])
    assert find_coloring(g, 5, 7).status == UNSAT


def test_prism_sat():
    out = find_coloring(PRISM6, 5, 9)
    assert out.sat
    assert is_proper(out.certificate)
    assert find_rainbow_path(out.certificate, 5) is None


def test_preconditions():
    with pytest.raises(GraphError):
        find_coloring(K4, 2, 6)
    with pytest.raises(GraphError):
        find_coloring(K4, 5, 0)


def test_budget_reported_not_unsat():
    g = build_graph(8, [(i, j) for i in range(8) for j in range(i + 1, 8) if (i + j) % 3])
    out = find_coloring(g, 5, len(g.edges), node_budget=3)
    assert out.status == BUDGET_EXCEEDED
    assert out.certificate is None


def test_budget_counts_color_assignments_exactly():
    # a budget of exactly the nodes a search needs is enough; one less is not
    for g in (PRISM6, BOW_TIE, C4):
        full = find_coloring(g, 4)
        assert full.nodes > 0
        assert find_coloring(g, 4, node_budget=full.nodes) == full
        short = find_coloring(g, 4, node_budget=full.nodes - 1)
        assert short.status == BUDGET_EXCEEDED and short.nodes == full.nodes


def test_empty_graph_is_sat():
    g = build_graph(3, [])
    out = find_coloring(g, 5, 1)
    assert out.sat and out.certificate.colors == ()


def test_oracle_examples():
    tri = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    assert oracle_enumerate(tri, 5) == 1
    assert oracle_enumerate(BOW_TIE, 5) == 1
    assert oracle_enumerate(C4, 3) == 0


def test_oracle_guard():
    g = build_graph(13, [(i, i + 1) for i in range(12)] + [(0, 12)])
    with pytest.raises(OracleSizeError):
        oracle_enumerate(g, 5)


def test_status_matches_oracle_positivity(edge_corpus):
    for m in range(7):
        for g in edge_corpus[m]:
            for k in (3, 4, 5):
                assert find_coloring(g, k).sat == (oracle_enumerate(g, k) > 0)


def test_class_enumeration_matches_oracle_counts(edge_corpus):
    for m in range(7):
        for g in edge_corpus[m][:30]:
            for k in (3, 4, 5):
                classes = iter_coloring_classes(g, k)
                assert len(classes) == oracle_enumerate(g, k)
                assert len({cg.colors for cg in classes}) == len(classes)
                for cg in classes:
                    assert is_proper(cg)
                    assert find_rainbow_path(cg, k) is None


def test_relabel_invariance(edge_corpus):
    rng = random.Random(17)
    flat = [g for m in range(4, 7) for g in edge_corpus[m] if g.n <= 8]
    rng.shuffle(flat)
    for g in flat[:40]:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        for k in (4, 5):
            assert find_coloring(g, k).sat == find_coloring(h, k).sat


def test_edge_deletion_monotonicity(edge_corpus):
    for g in edge_corpus[6][:25]:
        for k in (4, 5):
            if find_coloring(g, k).sat:
                for drop in range(len(g.edges)):
                    sub = build_graph(
                        g.n, [e for i, e in enumerate(g.edges) if i != drop]
                    )
                    assert find_coloring(sub, k).sat


def test_k_monotonicity(edge_corpus):
    for g in edge_corpus[6][:25]:
        for k in (3, 4, 5, 6):
            if find_coloring(g, k).sat:
                for k2 in range(k + 1, 8):
                    assert find_coloring(g, k2).sat


def test_determinism():
    a = find_coloring(PRISM6, 5, 9)
    b = find_coloring(PRISM6, 5, 9)
    assert a.certificate == b.certificate
    assert a.nodes == b.nodes


def test_decision_agrees_with_full_enumeration_on_refutation_instances():
    # the iterative decision search and the recursive all-solutions
    # enumerator must agree on every planar (6,10) candidate
    graphs, _ = enumerate_candidates(6, 10, planar=True)
    for g in graphs:
        assert find_coloring(g, 5).status == UNSAT
        assert iter_coloring_classes(g, 5) == []


def test_max_colors_caps_search():
    # the double-wheel on 6 vertices needs 2n-2 = 10 colors; with only
    # three colors properness already fails at the degree-4 hub
    g = build_graph(6, [(4, i) for i in range(4)] + [(5, i) for i in range(4)]
                    + [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert find_coloring(g, 8, 3).status == UNSAT
    assert find_coloring(g, 8, len(g.edges)).sat


def _brute_force_paths(g, k):
    """Edge sets of the k-vertex paths of g, by trying every vertex sequence."""
    paths = set()
    edge_set = frozenset(g.edges)
    for seq in itertools.permutations(range(g.n), k):
        if seq[0] < seq[-1]:
            edges = frozenset(tuple(sorted(seq[i : i + 2])) for i in range(k - 1))
            if edges <= edge_set:
                paths.add(edges)
    return paths


def _bucket_paths(endpoints, j, k):
    """The paths of the bit-sliced bucket at position j, each as the list
    of positions whose column holds its bit."""
    cols = _bucket(endpoints[: j + 1], k)
    assert len(cols) == j or cols == ()
    every = 0
    for col in cols:
        every |= col
    assert every & (every + 1) == 0  # paths are the bits 0 .. count-1
    return [
        [p for p, col in enumerate(cols) if col >> i & 1]
        for i in range(every.bit_length())
    ]


def test_buckets_hold_every_path_once_at_its_largest_position():
    # buckets are built from the renamed key, and their positions read
    # back through the static order must give every path of g once; they
    # take no color bound, so a search with fewer than k - 1 colors, where
    # no path can turn rainbow, still checks every path
    ladder = LevelLadder(6)
    for m in range(16):
        for g in ladder.level(m):
            endpoints = [_pairs(g.n)[code] for code in search_key(g)]
            order = _order_positions(g)
            for k in (3, 4, 5, 6):
                paths = _brute_force_paths(g, k)
                seen = Counter()
                for j in range(m):
                    for path in _bucket_paths(endpoints, j, k):
                        assert len(path) == k - 2 and max(path) < j, (g, k, j, path)
                        edges = [g.edges[order[p]] for p in path + [j]]
                        seen[frozenset(edges)] += 1
                assert set(seen) == paths, (g, k)
                assert set(seen.values()) <= {1}, (g, k)


def test_static_order_keeps_canonical_edge_order_among_equal_degree_sums():
    # every edge of a regular graph has one degree sum, so the static order
    # is the canonical edge order, and the key names vertices along it
    c6 = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    for g in (K4, C4, PRISM6, c6, build_graph(6, [(a, b) for a in range(3) for b in range(3, 6)])):
        assert _order_positions(g) == list(range(len(g.edges))), g
    assert c6.edges == ((0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5))
    pairs = [_pairs(6)[code] for code in search_key(c6)]
    assert pairs == [(0, 1), (0, 2), (1, 3), (3, 4), (4, 5), (2, 5)]
    # a pair's code is its index in the table: b(b-1)/2 + a
    assert search_key(c6) == bytes([0, 1, 4, 9, 14, 12])
    # with few distinct sums, each run of equal sums stays in edge order
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(5, 12)
        g = build_graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.35])
        deg = g.degrees()
        sums = [deg[u] + deg[v] for u, v in g.edges]
        assert _order_positions(g) == sorted(range(len(sums)), key=lambda i: (-sums[i], i))


def test_keys_past_23_vertices_take_two_bytes_a_code():
    # on 24 vertices the codes reach 275, so each takes two bytes, high
    # byte first, which sort as the codes do; a graph moved onto vertices
    # 24..29 of 30 has the codes it has alone and searches as it does alone
    def moved(g):
        return build_graph(30, [(u + 24, v + 24) for u, v in g.edges])

    wide = moved(PRISM6)
    assert search_key(wide) == b"".join(code.to_bytes(2, "big") for code in search_key(PRISM6))
    for k in (4, 5):
        out, alone = find_coloring(wide, k), find_coloring(PRISM6, k)
        assert (out.status, out.nodes) == (alone.status, alone.nodes)
    # a group with graphs on 6 and on 30 vertices: each its own outcome
    level = [g for g in LevelLadder(6).level(9) if is_planar(g)]
    group = [moved(g) for g in level] + level
    outs = find_colorings(group, 5)
    assert outs == [find_coloring(g, 5) for g in group]
    assert any(out.sat for out in outs) and not all(out.sat for out in outs)


def test_double_wheel_k8_search_tree_is_frozen():
    # double_wheel(18) at k=8 is SAT; its node count pins the static edge
    # order, the symmetry breaking and the bucket contents together
    g = double_wheel(18).graph
    out = find_coloring(g, 8)
    assert out.sat and out.nodes == 12288
    assert is_proper(out.certificate)
    assert find_rainbow_path(out.certificate, 8) is None
    # the budget edge: one node short stops the search, the exact count
    # reaches the same certificate
    short = find_coloring(g, 8, node_budget=12287)
    assert short.status == BUDGET_EXCEEDED and short.certificate is None
    assert find_coloring(g, 8, node_budget=12288) == out


def _planar_levels():
    """Every planar (6,m) and (7,m) level, in ladder order."""
    for n in (6, 7):
        ladder = LevelLadder(n)
        for m in range(3 * n - 5):
            level = [g for g in ladder.level(m) if is_planar(g).planar]
            if level:
                yield level


def test_group_search_equals_the_search_of_each_graph():
    # a member's search is the group's restricted to its path, so status,
    # nodes and the first certificate match the graph's own search, in
    # any order, in any split into groups, and for a graph given twice
    rng = random.Random(7)
    sat = 0
    for level in _planar_levels():
        for k in (4, 5, 6):
            alone = [find_coloring(g, k) for g in level]
            sat += sum(out.sat for out in alone)
            assert find_colorings(level, k) == alone
            assert find_colorings(level[::-1], k) == alone[::-1]
            cuts = sorted(rng.sample(range(1, len(level)), min(3, len(level) - 1)))
            parts = [
                find_colorings(level[a:b], k)
                for a, b in zip([0] + cuts, cuts + [len(level)])
            ]
            assert [out for part in parts for out in part] == alone
            twice = rng.randrange(len(level))
            assert find_colorings(level + [level[twice]], k) == alone + [alone[twice]]
    assert sat > 1000  # the check covers many first certificates


def test_group_arguments():
    assert find_colorings([], 5) == []
    with pytest.raises(GraphError, match="same number of edges"):
        find_colorings([K4, C4], 5)
    with pytest.raises(GraphError):
        find_colorings([K4, K4], 2)
    # a budget holds per graph: K4 is SAT in 6 nodes and the bow tie
    # UNSAT in 7, so a budget of 6 stops only the bow tie
    full = find_colorings([K4, BOW_TIE], 4)
    assert [(out.status, out.nodes) for out in full] == [("SAT", 6), (UNSAT, 7)]
    capped = find_colorings([K4, BOW_TIE], 4, node_budget=6)
    assert capped == [full[0], find_coloring(BOW_TIE, 4, node_budget=6)]
    assert capped[1].status == BUDGET_EXCEEDED


def test_search_leaves_no_reference_cycles():
    # with the collector off, a cycle would outlive the search as garbage
    level = [g for g in LevelLadder(7).level(10) if is_planar(g).planar]
    rng = random.Random(3)
    group = []
    while len(group) < 1024:
        g = rng.choice(level)
        perm = list(range(g.n))
        rng.shuffle(perm)
        group.append(relabel(g, perm))
    gc.collect()
    gc.disable()
    try:
        find_coloring(double_wheel(10).graph, 5)
        outs = find_colorings(group, 5)
        iter_coloring_classes(PRISM6, 5)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert any(out.sat for out in outs) and not all(out.sat for out in outs)


@pytest.mark.parametrize("length", [61, 200])
def test_long_path_search_needs_no_deep_recursion(length):
    # the search and its trie are iterative: a path is SAT in one try per
    # edge within a few frames of its caller (past 128 edges the keys are
    # tuples, not bytes)
    g = build_graph(length + 1, [(i, i + 1) for i in range(length)])
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        out = find_coloring(g, 5)
    finally:
        sys.setrecursionlimit(limit)
    assert out.sat and out.nodes == length
