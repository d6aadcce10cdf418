from __future__ import annotations

import itertools
import pickle
import random

import pytest

from rbturan.generation import LevelLadder
from rbturan.graphs import (
    Graph,
    GraphError,
    build_colored_graph,
    build_graph,
    disjoint_union,
    is_proper,
    normalize_colors,
    permute_colors,
)

K4_EDGES = list(itertools.combinations(range(4), 2))
FIGURE_K4 = [(0, 1, 1), (0, 2, 2), (0, 3, 3), (1, 2, 3), (1, 3, 2), (2, 3, 1)]


def test_build_k4():
    g = build_graph(4, K4_EDGES)
    assert g.n == 4
    assert len(g.edges) == 6
    assert g.degrees() == (3, 3, 3, 3)


def test_graph_is_a_slotted_value():
    g = Graph(3, ((0, 1),))
    assert not hasattr(g, "__dict__")
    assert Graph.__slots__ == ("n", "edges")


def test_ladder_level_round_trips_through_pickle():
    # the pool ships ladder graphs to its workers pickled
    level = LevelLadder(7).level(9)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(level, protocol)) == level, protocol


def test_build_path():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.edges == ((0, 1), (1, 2))


def test_build_rejects_duplicate():
    with pytest.raises(GraphError, match="duplicate"):
        build_graph(3, [(0, 1), (0, 1)])
    with pytest.raises(GraphError, match="duplicate"):
        build_graph(3, [(0, 1), (1, 0)])


def test_build_rejects_loop_and_range():
    with pytest.raises(GraphError, match="loop"):
        build_graph(3, [(1, 1)])
    with pytest.raises(GraphError, match="range"):
        build_graph(3, [(0, 3)])


def test_canonical_storage_under_input_permutation():
    rng = random.Random(0)
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
    g = build_graph(4, edges)
    for _ in range(10):
        shuffled = edges[:]
        rng.shuffle(shuffled)
        flipped = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in shuffled]
        assert build_graph(4, flipped) == g


def test_is_proper_figure_k4():
    assert is_proper(build_colored_graph(4, FIGURE_K4))


def test_is_proper_rejects_incident_repeat():
    cg = build_colored_graph(3, [(0, 1, 1), (1, 2, 1)])
    assert not is_proper(cg)


def test_is_proper_edgeless():
    assert is_proper(build_colored_graph(3, []))


def test_degree_sum_is_twice_edges(edge_corpus):
    for graphs in edge_corpus.values():
        for g in graphs:
            assert sum(g.degrees()) == 2 * len(g.edges)


def test_permute_colors_roundtrip():
    cg = build_colored_graph(4, FIGURE_K4)
    pi = {1: 2, 2: 3, 3: 1}
    inv = {v: k for k, v in pi.items()}
    back = permute_colors(permute_colors(cg, pi), inv)
    assert back == cg


def test_permute_colors_preserves_properness():
    cg = build_colored_graph(4, FIGURE_K4)
    assert is_proper(permute_colors(cg, {1: 2, 2: 1, 3: 3}))


def test_permute_colors_rejects_partial_or_noninjective():
    cg = build_colored_graph(4, FIGURE_K4)
    with pytest.raises(GraphError, match="undefined"):
        permute_colors(cg, {1: 2, 2: 1})
    with pytest.raises(GraphError, match="injective"):
        permute_colors(cg, {1: 1, 2: 1, 3: 3})


def test_normalize_colors_first_occurrence():
    cg = build_colored_graph(3, [(0, 1, 7), (1, 2, 3)])
    assert normalize_colors(cg).colors == (1, 2)


def test_disjoint_union_shifts_and_separates():
    k4 = build_colored_graph(4, FIGURE_K4)
    g5 = build_colored_graph(
        5,
        [(0, 1, 1), (0, 2, 2), (0, 3, 3), (2, 3, 4), (4, 1, 4), (4, 2, 3), (4, 3, 2)],
    )
    u = disjoint_union([k4, g5])
    assert u.n == 9
    assert len(u.edges) == 13
    assert is_proper(u)
    # parts keep disjoint color ranges
    left = {u.color_of(a, b) for a, b in u.edges if b < 4}
    right = {u.color_of(a, b) for a, b in u.edges if a >= 4}
    assert not left & right


def test_disjoint_union_with_empty_is_identity_up_to_relabel():
    x = build_colored_graph(3, [(0, 1, 1), (1, 2, 2)])
    empty = build_colored_graph(0, [])
    u = disjoint_union([x, empty])
    assert u.n == x.n and u.colors == normalize_colors(x).colors


def test_disjoint_union_many_k4_blocks():
    k4 = build_colored_graph(4, FIGURE_K4)
    t = 5
    u = disjoint_union([k4] * t)
    assert u.n == 4 * t and len(u.edges) == 6 * t
    assert is_proper(u)


def test_build_colored_graph_needs_positive_colors():
    for bad in (0, -1, "1"):
        with pytest.raises(GraphError, match="positive"):
            build_colored_graph(3, [(0, 1, 1), (2, 1, bad)])


def test_every_public_name_resolves():
    import rbturan

    assert [name for name in rbturan.__all__ if not hasattr(rbturan, name)] == []
