from __future__ import annotations

import itertools
import pickle
import random

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from rbturan.generation import (
    LevelLadder,
    _canonical_code,
    _graph_of_code,
    canonical_form,
    class_count,
)
from rbturan.graphs import Graph, GraphError, build_graph
from rbturan.planarity import is_planar

from helpers import component_certificate, relabel

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

# graphs on n = 0..10 vertices (OEIS A000088)
GRAPH_COUNTS = [1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668, 12005168]


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


def test_class_count_is_the_number_of_classes():
    """Pólya counting, which enumerates nothing, agrees with the
    reference tables, with the ladder at every level for n <= 7, and with
    the totals of A000088 for n <= 10; a level beyond the complete graph
    or below the empty one has no class."""
    for n, want in LEVEL_COUNTS.items():
        assert [class_count(n, m) for m in range(len(want))] == want
    assert [class_count(9, m) for m in range(len(LEVEL_COUNTS_9))] == LEVEL_COUNTS_9
    for n in range(8):
        ladder = LevelLadder(n)
        for m in range(n * (n - 1) // 2 + 1):
            assert class_count(n, m) == len(ladder.level(m)), (n, m)
    totals = [sum(class_count(n, m) for m in range(n * (n - 1) // 2 + 1)) for n in range(11)]
    assert totals == GRAPH_COUNTS
    assert class_count(4, 7) == class_count(4, -1) == 0


def test_window_target_level_is_the_min_degree_filtered_full_level():
    """A degree window's target level is the full level filtered to
    minimum degree >= d, as a list: same classes, labelling and order.
    A rule A that fires at >= d, or a rule C without its factor 2, drops
    some of them and fails this."""
    for n in range(1, 8):
        full = LevelLadder(n)
        for m in range(n * (n - 1) // 2 + 1):
            want = [g for g in full.level(m) if min(g.degrees()) >= 2]
            assert LevelLadder(n, target=m).level(m) == want, (n, m)
    want = [g for g in LevelLadder(8).level(13) if min(g.degrees()) >= 2]
    window = LevelLadder(8, target=13)
    assert window.level(13) == want
    # it kept only its frontier, and gave the target no orbit representatives
    assert window._levels[:-1] == [[]] * 13
    assert set(window._reps.values()) == {0}


def test_window_gives_only_its_target_level():
    window = LevelLadder(5, target=6)
    for m in (5, 11):
        with pytest.raises(GraphError, match="only its target level 6"):
            window.level(m)


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


def test_ladder_graphs_share_one_tuple_per_edge_pair():
    """Every graph a ladder emits takes its edges from the shared pair
    table: across all levels of one n there are at most n(n-1)/2 distinct
    edge objects, and each graph is canonical and sorted.  A chunk pickled
    as the pool sends it still compares equal and still shares its pairs."""
    for n in range(9):
        ladder = LevelLadder(n)
        ids: set[int] = set()
        for m in range(n * (n - 1) // 2 + 1):
            for g in ladder.level(m):
                assert g == build_graph(n, g.edges), (n, m, g.edges)
                ids.update(map(id, g.edges))
        assert len(ids) <= n * (n - 1) // 2, n
    chunk = LevelLadder(6).level(10)
    back, k, budget = pickle.loads(pickle.dumps((chunk, 5, None)))
    assert (back, k, budget) == (chunk, 5, None)
    assert len({id(e) for g in back for e in g.edges}) <= 15


def test_k4_level_unique():
    assert [g.edges for g in LevelLadder(4).level(6)] == [
        tuple(itertools.combinations(range(4), 2))
    ]


def test_complements_of_every_n8_level_are_the_mirrored_level():
    """Complementation maps the classes with m edges one-to-one onto the
    classes with 28 - m edges, so every level of the full n=8 ladder must
    be the complement of its mirror level, class for class."""
    ladder = LevelLadder(8)
    pairs = set(itertools.combinations(range(8), 2))
    total = 0
    for m in range(29):
        mirrored = sorted(
            canonical_form(Graph(8, tuple(sorted(pairs.difference(g.edges)))))
            for g in ladder.level(m)
        )
        assert mirrored == [canonical_form(g) for g in ladder.level(28 - m)], m
        total += len(mirrored)
    assert total == 12346


def _pair_orbits(n: int, perms) -> set[frozenset[tuple[int, int]]]:
    """Orbits of the vertex pairs under the group the vertex maps `perms`
    generate, closed by repeated application."""
    orbits = set()
    done: set[tuple[int, int]] = set()
    for pair in itertools.combinations(range(n), 2):
        if pair in done:
            continue
        orbit = {pair}
        todo = [pair]
        while todo:
            x, y = todo.pop()
            for p in perms:
                image = tuple(sorted((p[x], p[y])))
                if image not in orbit:
                    orbit.add(image)
                    todo.append(image)
        done |= orbit
        orbits.add(frozenset(orbit))
    return orbits


def test_automorphism_generators_give_the_orbits_networkx_enumerates():
    """For every class with n <= 6, the vertex-pair orbits under the
    generators the canonical search returns must equal the orbits under
    every automorphism networkx's matcher enumerates; and the ladder must
    extend each class by exactly one non-edge per non-edge orbit."""
    for n in range(1, 7):
        ladder = LevelLadder(n)
        for m in range(n * (n - 1) // 2 + 1):
            for g in ladder.level(m):
                G = nx.Graph()
                G.add_nodes_from(range(n))
                G.add_edges_from(g.edges)
                auts = [
                    [iso[v] for v in range(n)]
                    for iso in GraphMatcher(G, G).isomorphisms_iter()
                ]
                want = _pair_orbits(n, auts)
                _, _, gens = _canonical_code(g.masks(), [(1 << n) - 1])
                assert _pair_orbits(n, gens) == want, (n, g.edges)
                reps = ladder._reps[g]
                picked = {divmod(i, n) for i in range(n * n) if reps >> i & 1}
                non_edge_orbits = [o for o in want if o.isdisjoint(g.edges)]
                assert len(picked) == len(non_edge_orbits), (n, g.edges)
                assert all(len(o & picked) == 1 for o in non_edge_orbits), (n, g.edges)


class _PlanarLadder(LevelLadder):
    """Keeps the planar classes of each level, by filtering the frontier
    after the parent class has grown it."""

    def _grow(self) -> None:
        super()._grow()
        self._levels[-1] = [g for g in self._levels[-1] if is_planar(g)]


def test_filtering_the_frontier_after_each_level_gives_the_filtered_ladder():
    """A subclass may filter the level `_grow` just appended, as
    bench/make_refute9_input.py does with planarity: the pruned ladder
    must equal the full one filtered afterwards, classes and order."""
    for n in range(1, 7):
        full, pruned = LevelLadder(n), _PlanarLadder(n)
        for m in range(n * (n - 1) // 2 + 1):
            assert pruned.level(m) == [g for g in full.level(m) if is_planar(g)], (n, m)
