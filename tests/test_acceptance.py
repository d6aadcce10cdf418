"""Acceptance suite: one test per exit criterion, each printing a single
PASS/FAIL line and enforcing the stated time budget."""

from __future__ import annotations

import json
import random
import time

import networkx as nx

from rbturan.cli import run
from rbturan.codec import decode_graph6, encode_graph6
from rbturan.colorer import find_coloring, oracle_enumerate
from rbturan.constructions import (
    double_wheel,
    gn,
    icosahedron,
    k2_path,
    octahedron,
    validate_construction,
)
from rbturan.generation import LevelLadder
from rbturan.graphs import ColoredGraph, build_colored_graph, permute_colors
from rbturan.lemmas import LEMMA_IDS, template, verify_lemma
from rbturan.rainbow import find_rainbow_path

from helpers import replay_witness


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _cli_json(capsys, *argv) -> tuple[int, dict]:
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_1_p5_extremal_values(capsys):
    """extremal -n N -k 5 equals floor(3N/2) for N=4..7 (10 min budget
    each); the (8,13) level refutation completes with reduction filters
    (2 h budget)."""
    timings = []
    for n in (4, 5, 6, 7):
        t0 = time.monotonic()
        code, doc = _cli_json(capsys, "extremal", "-n", str(n), "-k", "5")
        elapsed = time.monotonic() - t0
        timings.append(elapsed)
        assert code == 0
        assert doc["value"] == (3 * n) // 2, (n, doc["value"])
        assert elapsed < 600
    t0 = time.monotonic()
    code, doc = _cli_json(capsys, "extremal", "-n", "8", "-k", "5", "--jobs", "8")
    elapsed8 = time.monotonic() - t0
    assert code == 0
    assert doc["value"] == 12
    top = doc["refutation"]
    assert top["n"] == 8 and top["m"] == 13
    assert top["filters"] == ["reduced", "planar"]
    assert top["status"] == "PASS"
    assert top["counts"]["unsat"] == top["counts"]["planar"] > 0
    # the search tree of every chain level is frozen
    nodes = {(lv["n"], lv["m"]): lv["nodes"] for lv in doc["chain"]}
    assert nodes == {(4, 7): 0, (5, 8): 69, (6, 10): 444, (7, 11): 2979, (8, 13): 26385}
    assert elapsed8 < 7200
    _verdict(
        "1",
        True,
        f"floor(3N/2) for N=4..7 in {sum(timings):.1f}s; "
        f"(8,13) refuted ({top['counts']['unsat']} UNSAT) in {elapsed8:.1f}s",
    )


def test_criterion_2_gn_gate():
    """make(gn, n) validates for every n in 4..60 within 60 seconds."""
    t0 = time.monotonic()
    for n in range(4, 61):
        rep = validate_construction(gn(n), 5, (3 * n) // 2)
        assert rep.passed, (n, rep)
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _verdict("2", True, f"gn validates for n=4..60 in {elapsed:.1f}s")


def test_criterion_3_long_path_maximal_constructions():
    """Double-wheel (even 8..40) and K2+path (odd 9..39): 3n-6 edges,
    proper, planar, no rainbow P8, exactly 2n-2 resp. 2n-3 colors."""
    t0 = time.monotonic()
    for n in range(8, 41, 2):
        rep = validate_construction(double_wheel(n), 8, 3 * n - 6)
        assert rep.passed and rep.colors_used == 2 * n - 2, (n, rep)
    for n in range(9, 40, 2):
        rep = validate_construction(k2_path(n), 8, 3 * n - 6)
        assert rep.passed and rep.colors_used == 2 * n - 3, (n, rep)
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _verdict("3", True, f"double-wheel 8..40 and k2-path 9..39 in {elapsed:.1f}s")


def test_criterion_4_lemma_suite():
    """All four scheme lemmas PASS by complete enumeration, each under
    10 s; the bow tie class count is 1 and matches oracle_enumerate."""
    details = []
    for lemma_id in LEMMA_IDS:
        t0 = time.monotonic()
        rep = verify_lemma(lemma_id)
        elapsed = time.monotonic() - t0
        assert rep.passed, (lemma_id, rep.violations)
        assert elapsed < 10
        details.append(f"{lemma_id} ({rep.class_count} classes, {elapsed:.2f}s)")
    bow = verify_lemma("bowtie-5.2")
    assert bow.class_count == 1 == oracle_enumerate(template("bow-tie").graph, 5)
    _verdict("4", True, "; ".join(details))


def test_criterion_5_short_path_values(capsys):
    """extremal -n N -k 3 equals floor(N/2) for N=3..6; -n 4 -k 4 is 6."""
    for n in (3, 4, 5, 6):
        code, doc = _cli_json(capsys, "extremal", "-n", str(n), "-k", "3")
        assert code == 0 and doc["value"] == n // 2, (n, doc["value"])
    code, doc = _cli_json(capsys, "extremal", "-n", "4", "-k", "4")
    assert code == 0 and doc["value"] == 6
    _verdict("5", True, "k=3 values for N=3..6 and the (4, k=4) value check out")


def test_criterion_6_conjecture_witnesses():
    """Octahedron: 12 edges, 4 colors, no rainbow P6.  Icosahedron: 30
    edges, 5 colors, no rainbow P7."""
    oc = validate_construction(octahedron(), 6, 12)
    assert oc.passed and oc.colors_used == 4, oc
    ic = validate_construction(icosahedron(), 7, 30)
    assert ic.passed and ic.colors_used == 5, ic
    _verdict("6", True, "octahedron (12e, 4c, P6-free) and icosahedron (30e, 5c, P7-free)")


def test_criterion_7_oracle_equivalence(edge_corpus):
    """find_coloring status agrees with oracle_enumerate positivity on
    every graph with at most 7 edges, k in {3,4,5}; zero disagreements."""
    t0 = time.monotonic()
    checked = 0
    disagreements = []
    for m in range(8):
        for g in edge_corpus[m]:
            for k in (3, 4, 5):
                sat = find_coloring(g, k).sat
                count = oracle_enumerate(g, k)
                checked += 1
                if sat != (count > 0):
                    disagreements.append((g.n, g.edges, k))
    elapsed = time.monotonic() - t0
    _verdict(
        "7",
        not disagreements,
        f"{checked} (graph, k) pairs over all {sum(len(v) for v in edge_corpus.values())} "
        f"classes with <=7 edges, {len(disagreements)} disagreements, {elapsed:.1f}s",
    )


def test_criterion_8_property_suites(capsys):
    """Witness replay, k-monotonicity, subgraph monotonicity, color
    permutation invariance, byte-exact graph6 over all graphs on <= 6
    vertices, and report determinism across --jobs 1 vs --jobs 8."""
    rng = random.Random(2024)

    # witness replay + monotonicity properties over random colorings
    pool = [gn(9), gn(12), double_wheel(10), k2_path(9)]
    for base in pool:
        for trial in range(6):
            colors = tuple(rng.randint(1, 5) for _ in base.edges)
            cg = ColoredGraph(base.graph, colors)
            for k in (3, 4, 5, 6):
                w = find_rainbow_path(cg, k)
                if w is not None:
                    assert replay_witness(cg, w, k)
            free_from = next(
                (k for k in range(3, 8) if find_rainbow_path(cg, k) is None), None
            )
            if free_from is not None:
                for k2 in range(free_from, 9):  # k-monotonicity
                    assert find_rainbow_path(cg, k2) is None
                drop = rng.randrange(len(cg.edges))  # subgraph monotonicity
                sub = build_colored_graph(
                    cg.n,
                    [
                        (u, v, c)
                        for i, ((u, v), c) in enumerate(zip(cg.edges, cg.colors))
                        if i != drop
                    ],
                )
                assert find_rainbow_path(sub, free_from) is None
            used = sorted(set(colors))  # color-permutation invariance
            image = used[:]
            rng.shuffle(image)
            permuted = permute_colors(cg, dict(zip(used, image)))
            for k in (4, 5):
                assert (find_rainbow_path(cg, k) is None) == (
                    find_rainbow_path(permuted, k) is None
                )

    # graph6 roundtrip, byte-exact against reference tooling, all n <= 6
    count = 0
    for n in range(7):
        ladder = LevelLadder(n)
        for m in range(n * (n - 1) // 2 + 1):
            for g in ladder.level(m):
                line = encode_graph6(g)
                G = nx.Graph()
                G.add_nodes_from(range(n))
                G.add_edges_from(g.edges)
                ref = nx.to_graph6_bytes(G, header=False).decode().strip()
                assert line == ref and decode_graph6(line) == g
                count += 1

    # reports differ across --jobs only in the echoed config
    code1 = run(["extremal", "-n", "6", "-k", "5", "--jobs", "1"])
    out1 = capsys.readouterr().out
    code8 = run(["extremal", "-n", "6", "-k", "5", "--jobs", "8"])
    out8 = capsys.readouterr().out
    assert code1 == code8 == 0
    body1, body8 = json.loads(out1), json.loads(out8)
    body1.pop("config")
    body8.pop("config")
    assert body1 == body8
    rerun = run(["extremal", "-n", "6", "-k", "5", "--jobs", "1"])
    assert rerun == 0
    assert capsys.readouterr().out == out1  # byte-identical across runs

    _verdict(
        "8",
        True,
        f"replay/monotonicity/permutation suites, graph6 byte-exact on {count} graphs, "
        "reports identical for --jobs 1 vs --jobs 8",
    )
