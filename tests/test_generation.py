from __future__ import annotations

import itertools
import random

import networkx as nx
import pytest

from rbturan.generation import (
    LevelLadder,
    _graph_of_code,
    canonical_form,
    component_certificate,
    relabel,
)
from rbturan.graphs import GraphError, build_graph

# graphs on n vertices by edge count
LEVEL_COUNTS = {
    4: [1, 1, 2, 3, 2, 1, 1],
    5: [1, 1, 2, 4, 6, 6, 6, 4, 2, 1, 1],
    6: [1, 1, 2, 5, 9, 15, 21, 24, 24, 21, 15, 9, 5, 2, 1, 1],
    7: [1, 1, 2, 5, 10, 21, 41, 65, 97, 131, 148, 148, 131, 97, 65, 41, 21, 10, 5, 2, 1, 1],
}

# graphs on 9 vertices with m = 0..12 edges (OEIS A008406)
LEVEL_COUNTS_9 = [1, 1, 2, 5, 11, 25, 63, 148, 345, 771, 1637, 3252, 5995]

# graphs with m edges and no isolated vertices
EDGE_COUNTS = [1, 1, 2, 5, 11, 26, 68, 177]


def test_level_counts_match_reference_tables():
    for n, want in LEVEL_COUNTS.items():
        ladder = LevelLadder(n)
        got = [len(ladder.level(m)) for m in range(len(want))]
        assert got == want


def test_level_counts_n8_prefix():
    ladder = LevelLadder(8)
    got = [len(ladder.level(m)) for m in range(14)]
    assert got == [1, 1, 2, 5, 11, 24, 56, 115, 221, 402, 663, 980, 1312, 1557]


def test_level_counts_n9_prefix():
    ladder = LevelLadder(9)
    assert [len(ladder.level(m)) for m in range(13)] == LEVEL_COUNTS_9


@pytest.mark.filterwarnings("ignore:The hashes produced")
def test_level_8_13_pairwise_non_isomorphic_under_networkx():
    """Checked with networkx alone: graphs whose Weisfeiler-Lehman hashes
    differ are non-isomorphic, and each hash bucket is compared pairwise."""
    buckets: dict[str, list[nx.Graph]] = {}
    for g in LevelLadder(8).level(13):
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges)
        buckets.setdefault(nx.weisfeiler_lehman_graph_hash(G), []).append(G)
    assert sum(len(b) for b in buckets.values()) == 1557
    for bucket in buckets.values():
        for G1, G2 in itertools.combinations(bucket, 2):
            assert not nx.is_isomorphic(G1, G2)


def test_levels_are_emitted_in_canonical_labelling_sorted_by_code():
    ladder = LevelLadder(6)
    for m in range(16):
        graphs = ladder.level(m)
        forms = [canonical_form(g) for g in graphs]
        assert forms == sorted(forms)
        for g in graphs:
            # any relabelling of an emitted class has a canonical code
            # that rebuilds the emitted graph itself
            h = relabel(g, [5, 3, 1, 0, 2, 4])
            assert canonical_form(h) == canonical_form(g)
            assert _graph_of_code(g.n, canonical_form(h)[1]) == g


def test_enumeration_complete_against_published_atlas():
    """The atlas shipped with networkx is an independent census of all
    graphs on up to 7 vertices; the ladder must reproduce it level by
    level, and every atlas member must hash to a generated class."""
    per_level: dict[tuple[int, int], list[nx.Graph]] = {}
    for G in nx.graph_atlas_g():
        per_level.setdefault((G.number_of_nodes(), G.number_of_edges()), []).append(G)
    for n in range(8):
        ladder = LevelLadder(n)
        for m in range(n * (n - 1) // 2 + 1):
            ours = ladder.level(m)
            theirs = per_level.get((n, m), [])
            assert len(ours) == len(theirs), (n, m)
            forms = {canonical_form(g) for g in ours}
            for G in theirs:
                relabeled = nx.convert_node_labels_to_integers(G)
                g = build_graph(n, list(relabeled.edges()))
                assert canonical_form(g) in forms, (n, m, sorted(G.edges()))


def test_levels_are_pairwise_non_isomorphic():
    ladder = LevelLadder(6)
    for m in (5, 7, 9):
        forms = [canonical_form(g) for g in ladder.level(m)]
        assert len(set(forms)) == len(forms)


def test_level_out_of_range_is_empty():
    ladder = LevelLadder(4)
    assert ladder.level(7) == []
    assert ladder.level(-1) == []


def test_ladder_guard():
    with pytest.raises(GraphError, match="caps"):
        LevelLadder(11)


def test_canonical_form_relabel_invariance():
    rng = random.Random(41)
    for _ in range(500):
        n = rng.randint(1, 8)
        p = rng.choice([0.2, 0.5, 0.8])
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = build_graph(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm)) == canonical_form(g)


def test_canonical_form_separates_non_isomorphic():
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randint(2, 7)
        e1 = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        e2 = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g1, g2 = build_graph(n, e1), build_graph(n, e2)
        G1 = nx.Graph()
        G1.add_nodes_from(range(n))
        G1.add_edges_from(e1)
        G2 = nx.Graph()
        G2.add_nodes_from(range(n))
        G2.add_edges_from(e2)
        assert (canonical_form(g1) == canonical_form(g2)) == nx.is_isomorphic(G1, G2)


def test_edge_corpus_counts(edge_corpus):
    got = [len(edge_corpus[m]) for m in range(8)]
    assert got == EDGE_COUNTS


def test_edge_corpus_has_no_isolated_vertices(edge_corpus):
    for m, graphs in edge_corpus.items():
        for g in graphs:
            if m:
                assert min(g.degrees()) >= 1


def test_edge_corpus_contains_the_disjoint_matchings(edge_corpus):
    for m in range(1, 8):
        matching = build_graph(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])
        cert = component_certificate(matching)
        assert any(component_certificate(g) == cert for g in edge_corpus[m])


def test_component_certificate_handles_large_disconnected():
    # 14 vertices: beyond the one-shot canonical guard, fine per component
    g = build_graph(14, [(2 * i, 2 * i + 1) for i in range(7)])
    h = build_graph(14, [(i, i + 7) for i in range(7)])
    assert component_certificate(g) == component_certificate(h)


def test_ladder_is_deterministic():
    a = [g.edges for g in LevelLadder(6).level(8)]
    b = [g.edges for g in LevelLadder(6).level(8)]
    assert a == b


def test_k4_level_unique():
    assert [g.edges for g in LevelLadder(4).level(6)] == [
        tuple(itertools.combinations(range(4), 2))
    ]
