from __future__ import annotations

import gc
import hashlib
import itertools

import networkx as nx
import pytest

from rbturan import codec, extremal
from rbturan.codec import decode_graph6, encode_graph6
from rbturan.colorer import BUDGET_EXCEEDED, SAT, UNSAT, find_coloring, oracle_enumerate
from rbturan.constructions import validate_construction
from rbturan.extremal import (
    compute_extremal,
    is_reduced,
    planar_edge_cap,
    run_level,
)
from rbturan.generation import LevelLadder
from rbturan.graphs import Graph, GraphError, build_graph
from rbturan.planarity import is_planar

from helpers import enumerate_candidates


def test_is_reduced_examples():
    k4 = build_graph(4, list(itertools.combinations(range(4), 2)))
    assert is_reduced(k4)
    p3 = build_graph(3, [(0, 1), (1, 2)])
    assert not is_reduced(p3)  # degree-1 endpoints
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert not is_reduced(c4)  # adjacent degree-2 vertices


def test_planar_edge_cap():
    assert planar_edge_cap(1) == 0
    assert planar_edge_cap(2) == 1
    assert planar_edge_cap(3) == 3
    assert planar_edge_cap(4) == 6
    assert planar_edge_cap(8) == 18


def test_enumerate_unique_k4():
    graphs, counts = enumerate_candidates(4, 6)
    assert counts["candidates"] == 1
    assert graphs[0].edges == tuple(itertools.combinations(range(4), 2))


def test_enumerate_empty_when_overfull():
    graphs, counts = enumerate_candidates(4, 7)
    assert counts["candidates"] == 0 and not graphs


def test_enumerate_cap_without_file():
    with pytest.raises(GraphError, match="graph6"):
        enumerate_candidates(9, 5)


def naive_level_5_8():
    """Independent check for the (5,8) filtered count: all labeled graphs,
    networkx isomorphism dedup, minor-oracle-free planarity via networkx."""
    pairs = list(itertools.combinations(range(5), 2))
    reps = []
    for chosen in itertools.combinations(pairs, 8):
        G = nx.Graph()
        G.add_nodes_from(range(5))
        G.add_edges_from(chosen)
        if any(nx.is_isomorphic(G, H) for H in reps):
            continue
        reps.append(G)
    out = 0
    for G in reps:
        degs = dict(G.degree())
        if min(degs.values()) < 2:
            continue
        if any(degs[u] == 2 and degs[v] == 2 for u, v in G.edges):
            continue
        if nx.check_planarity(G, counterexample=False)[0]:
            out += 1
    return out


def test_level_5_8_golden_count():
    _, counts = enumerate_candidates(5, 8, reduced=True, planar=True)
    assert counts["planar"] == naive_level_5_8() == 2


def test_refute_levels_just_above_the_p5_bound():
    assert run_level(4, 7, 5, reduced=True).status == "PASS"  # vacuous
    lv = run_level(5, 8, 5, reduced=True)
    assert lv.status == "PASS" and lv.counts["unsat"] == 2
    lv = run_level(6, 10, 5, reduced=True)
    assert lv.status == "PASS" and lv.counts["unsat"] == lv.counts["planar"] == 11


def test_reduction_filter_agrees_with_unfiltered_refutation():
    # empirical soundness spot check at small n
    for n in (5, 6):
        m = (3 * n) // 2 + 1
        with_filters = run_level(n, m, 5, reduced=True)
        without = run_level(n, m, 5, reduced=False)
        assert with_filters.status == without.status == "PASS"
        assert without.counts["planar"] >= with_filters.counts["planar"]


def test_downward_edge_monotonicity():
    # if a level has a SAT candidate then so does the level below
    sat_by_m = {}
    for m in range(planar_edge_cap(6), 1, -1):
        lv = run_level(6, m, 5, reduced=False, planar=True)
        sat_by_m[m] = lv.counts["sat"] > 0
    for m in range(planar_edge_cap(6), 2, -1):
        if sat_by_m[m]:
            assert sat_by_m[m - 1]


def test_compute_extremal_k5_small():
    for n in (4, 5, 6):
        rep = compute_extremal(n, 5)
        assert rep.value == (3 * n) // 2
        assert rep.status == "OK"
        cert = rep.achiever
        assert len(cert.edges) == rep.value
        assert is_planar(cert.graph).planar
    rep = compute_extremal(4, 5)
    assert rep.refutation is None  # 6 edges is the planar cap at n=4


def test_compute_extremal_k3():
    for n in (3, 4, 5, 6):
        rep = compute_extremal(n, 3)
        assert rep.value == n // 2
        assert rep.status == "OK"


def test_compute_extremal_tiny_n():
    # paths need k vertices, so small graphs are vacuously safe
    assert compute_extremal(1, 5).value == 0
    assert compute_extremal(2, 5).value == 1
    assert compute_extremal(3, 5).value == 3
    assert compute_extremal(3, 4).value == 3
    assert compute_extremal(2, 3).value == 1


def test_compute_extremal_k4_at_4():
    rep = compute_extremal(4, 4)
    assert rep.value == 6
    assert rep.achiever_provenance == "construction:k4-blocks"


def test_compute_extremal_long_paths_hit_planar_cap():
    # for k >= 8 and n >= k the maximal planar constructions settle it
    rep = compute_extremal(8, 8)
    assert rep.value == 18 and rep.refutation is None
    assert rep.achiever_provenance == "construction:double-wheel"
    rep = compute_extremal(9, 8)
    assert rep.value == 21 and rep.refutation is None
    assert rep.achiever_provenance == "construction:k2-path"
    rep = compute_extremal(6, 6)
    assert rep.value == 12
    assert rep.achiever_provenance == "construction:octahedron"
    rep = compute_extremal(12, 7)
    assert rep.value == 30
    assert rep.achiever_provenance == "construction:icosahedron"


def test_compute_extremal_from_graph6_top_level(tmp_path):
    level = LevelLadder(7).level(11)
    path = tmp_path / "level_7_11.g6"
    path.write_text("".join(encode_graph6(g) + "\n" for g in level))
    rep = compute_extremal(7, 5, graph6_path=str(path))
    assert rep.value == 10 and rep.status == "OK"
    assert rep.source == f"graph6:{path}"
    assert rep.refutation.source == f"graph6:{path}"
    # the smaller chain levels stay built-in
    assert rep.chain[0].source == "built-in"


def test_compute_extremal_search_fallback():
    # no claimed construction for k=4, n=5: level descent must find 6
    # (K4 plus an isolated vertex is rainbow-P4-free colorable)
    rep = compute_extremal(5, 4)
    assert rep.value >= 6
    assert rep.achiever_provenance.startswith("search:")
    assert rep.status == "OK"


def test_every_small_report_is_certified():
    # claimed plans and level descent end in the same report shape: a
    # validated achiever with exactly `value` edges, and a refutation one
    # edge above it unless the value is the planar maximum
    for n in range(1, 8):
        for k in range(3, 8):
            rep = compute_extremal(n, k)
            assert rep.status == "OK"
            assert validate_construction(rep.achiever, k, rep.value).passed
            if rep.refutation is None:
                assert rep.value == planar_edge_cap(n)
            else:
                assert rep.refutation.m == rep.value + 1
                assert rep.refutation.status == "PASS"
            assert rep.achiever_provenance.startswith(("construction:", "search:"))


def test_every_chain_level_is_one_block():
    # so each chain level's candidates are searched as one group
    for n in range(4, extremal.BUILTIN_MAX_N + 1):
        blocks = list(extremal.candidate_blocks(n, 3 * n // 2 + 1, {}, reduced=True, planar=True))
        assert len(blocks) <= 1


def test_budget_poisons_level():
    lv = run_level(6, 10, 5, reduced=True, planar=True, node_budget=3)
    assert lv.status == "BUDGET"
    assert lv.counts["budget_exceeded"] > 0


def test_budget_between_members_gives_each_graph_its_own_outcome():
    # a budget holds per graph, so a level searched in groups gets the
    # outcome each graph gets alone
    graphs = [g for g in LevelLadder(6).level(9) if is_planar(g).planar]
    alone = [find_coloring(g, 5) for g in graphs]
    counts = sorted({out.nodes for out in alone})
    budget = counts[len(counts) // 2]
    assert counts[0] < budget < counts[-1]
    outs = [find_coloring(g, 5, node_budget=budget) for g in graphs]
    lv = run_level(6, 9, 5, reduced=False, node_budget=budget)
    assert lv.nodes == sum(out.nodes for out in outs)
    for status in (SAT, UNSAT, BUDGET_EXCEEDED):
        assert lv.counts[status.lower()] == sum(out.status == status for out in outs) > 0
    index = next(i for i, out in enumerate(outs) if out.sat)
    assert lv.first_sat == (index, outs[index].certificate)


def test_budget_propagates_to_extremal_status():
    rep = compute_extremal(6, 5, node_budget=3)
    assert rep.status == "BUDGET"
    assert rep.value == 9  # the achiever is still valid; only the bound is open


def test_graph6_source_roundtrip(tmp_path):
    level = LevelLadder(6).level(10)
    path = tmp_path / "level_6_10.g6"
    path.write_text("".join(encode_graph6(g) + "\n" for g in level))
    via_file = run_level(6, 10, 5, reduced=True, graph6_path=str(path))
    builtin = run_level(6, 10, 5, reduced=True)
    assert via_file.status == "PASS"
    assert via_file.digest == builtin.digest
    # read from the file or counted by class_count over a degree window
    assert via_file.counts == builtin.counts
    assert via_file.source == f"graph6:{path}"


def test_graph6_source_rejects_mismatched_level(tmp_path):
    path = tmp_path / "wrong.g6"
    path.write_text(encode_graph6(build_graph(5, [(0, 1)])) + "\n")
    with pytest.raises(GraphError, match="expected") as exc:
        enumerate_candidates(6, 10, graph6_path=str(path))
    # the message names the file and the bad candidate's graph6 text
    assert str(path) in str(exc.value) and "D_?" in str(exc.value)


def _write_level_6_9(path, passes: int) -> None:
    """The (6,9) level as a graph6 file, written forward then backward, one
    pass after another.  Each pass holds 8 classes that are not reduced,
    K3,3 (reduced, not planar) and 12 reduced planar classes, 3 of them SAT
    at k=5."""
    lines = [encode_graph6(g) for g in LevelLadder(6).level(9)]
    path.write_text("".join(
        line + "\n" for i in range(passes) for line in (lines[::-1] if i % 2 else lines)
    ))


def test_blocks_of_a_file_fed_level_add_up_to_the_whole_level(monkeypatch, tmp_path):
    monkeypatch.setattr(extremal, "BLOCK", 5)
    path = tmp_path / "level_6_9.g6"
    _write_level_6_9(path, 2)
    lv = run_level(6, 9, 5, reduced=True, graph6_path=str(path))
    # reference: the whole file at once, one search per filtered graph
    lines = path.read_text().split()
    reduced = [line for line in lines if is_reduced(decode_graph6(line))]
    planar = [line for line in reduced if is_planar(decode_graph6(line))]
    outcomes = [find_coloring(decode_graph6(line), 5) for line in planar]
    statuses = [out.status for out in outcomes]
    sat = [i for i, status in enumerate(statuses) if status == SAT]
    # every filter drops lines, and SAT candidates sit in three blocks
    # after the first
    assert len(lines) > len(reduced) > len(planar)
    assert sorted({i // 5 for i in sat}) == [1, 2, 3]
    assert lv.counts == {
        "candidates": len(lines),
        "reduced": len(reduced),
        "planar": len(planar),
        "unsat": statuses.count(UNSAT),
        "sat": len(sat),
        "budget_exceeded": 0,
    }
    assert lv.nodes == sum(out.nodes for out in outcomes)
    assert lv.status == "FAIL"
    joined = "\n".join(
        f"{i}:{line}:{status}" for i, (line, status) in enumerate(zip(planar, statuses))
    )
    assert lv.digest == hashlib.sha256(joined.encode()).hexdigest()
    assert lv.first_sat == (sat[0], outcomes[sat[0]].certificate)


def _live_graphs() -> int:
    return sum(isinstance(obj, Graph) for obj in gc.get_objects())


def test_file_fed_level_holds_one_block_of_graphs(monkeypatch, tmp_path):
    monkeypatch.setattr(extremal, "BLOCK", 5)
    path = tmp_path / "level_6_9.g6"
    _write_level_6_9(path, 4)
    live: dict[str, list[int]] = {"read": [], "search": []}

    def counting(stage, fn):
        def counted(*args):
            live[stage].append(_live_graphs())
            return fn(*args)

        return counted

    # count as each line is decoded and as each block is searched
    monkeypatch.setattr(codec, "decode_graph6", counting("read", codec.decode_graph6))
    monkeypatch.setattr(extremal, "_solve_chunk", counting("search", extremal._solve_chunk))
    gc.collect()
    before = _live_graphs()
    lv = run_level(6, 9, 5, reduced=False, graph6_path=str(path))
    # beyond the block: the last candidate of the block before and the
    # first SAT candidate
    assert max(live["read"] + live["search"]) - before <= 5 + 2
    assert len(live["read"]) == lv.counts["candidates"] == 84
    assert len(live["search"]) == lv.counts["planar"] // 5 == 16


@pytest.mark.parametrize("n,k,want", [(5, 5, 7), (6, 5, 9), (5, 3, 2), (4, 4, 6)])
def test_independent_replication_via_atlas_and_oracle(n, k, want):
    """Recompute the certified value with none of the pipeline machinery:
    published atlas census, networkx planarity, naive coloring oracle."""
    best = -1
    for G in nx.graph_atlas_g():
        if G.number_of_nodes() != n:
            continue
        if not nx.check_planarity(G, counterexample=False)[0]:
            continue
        H = nx.convert_node_labels_to_integers(G)
        g = build_graph(n, list(H.edges()))
        if len(g.edges) <= best:
            continue
        if oracle_enumerate(g, k) > 0:
            best = len(g.edges)
    assert best == want == compute_extremal(n, k).value


def test_extremal_report_doc_shape():
    doc = compute_extremal(5, 5).to_doc()
    assert doc["value"] == 7
    assert doc["achiever"]["meta"]["provenance"] == "construction:gn"
    assert doc["refutation"]["counts"]["unsat"] == 2
    assert [lvl["m"] for lvl in doc["chain"]] == [7, 8]
