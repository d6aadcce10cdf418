from __future__ import annotations

import json

import pytest

from rbturan.cli import run
from rbturan.constructions import (
    FAMILY_TABLE,
    double_wheel,
    g5,
    g7,
    gn,
    icosahedron,
    k2_path,
    k4_blocks,
    make,
    octahedron,
    validate_construction,
)
from rbturan.graphs import GraphError, build_colored_graph, normalize_colors
from rbturan.rainbow import find_rainbow_path

from helpers import components, regenerate_frozen


def test_g5_shape():
    cg = g5()
    rep = validate_construction(cg, 5, 7)
    assert rep.passed and rep.colors_used == 4


def test_g7_shape():
    cg = g7()
    rep = validate_construction(cg, 5, 10)
    assert rep.passed and rep.colors_used == 4


def test_gn_small_values():
    assert gn(4).graph.degrees() == (3, 3, 3, 3)
    assert len(gn(5).edges) == 7
    assert len(gn(6).edges) == 9
    assert gn(6).graph.degrees() == (3,) * 6
    assert len(gn(7).edges) == 10


def test_gn_is_three_regular_for_even_n():
    for n in (6, 8, 10, 14, 20):
        cg = gn(n)
        assert cg.graph.degrees() == (3,) * n
        assert cg.colors_used() == 3


def test_gn_odd_is_disjoint_union():
    cg = gn(9)
    assert cg.n == 9 and len(cg.edges) == 13
    comps = sorted(len(c) for c in components(cg.graph))
    assert comps == [4, 5]


def test_gn_gate_over_modest_range():
    for n in range(4, 25):
        assert validate_construction(gn(n), 5, (3 * n) // 2).passed, n


def test_gn_domain():
    with pytest.raises(GraphError):
        gn(3)


def test_k4_blocks():
    cg = k4_blocks(8)
    rep = validate_construction(cg, 4, 12)
    assert rep.passed and rep.colors_used == 3
    with pytest.raises(GraphError):
        k4_blocks(6)


def test_double_wheel_shape_and_colors():
    n = 10
    cg = double_wheel(n)
    rep = validate_construction(cg, 8, 3 * n - 6)
    assert rep.passed
    assert rep.colors_used == 2 * n - 2
    degrees = sorted(cg.graph.degrees())
    assert degrees == [4] * (n - 2) + [n - 2, n - 2]
    with pytest.raises(GraphError):
        double_wheel(9)


def test_double_wheel_hubs_not_adjacent():
    cg = double_wheel(8)
    assert (6, 7) not in cg.graph.edges


def test_k2_path_shape_and_colors():
    n = 11
    cg = k2_path(n)
    rep = validate_construction(cg, 8, 3 * n - 6)
    assert rep.passed
    assert rep.colors_used == 2 * n - 3
    assert (n - 2, n - 1) in cg.graph.edges  # the K2 hub edge
    with pytest.raises(GraphError):
        k2_path(8)


def test_double_wheel_excludes_exactly_the_long_paths():
    # the coloring still contains rainbow P7s; P8 and longer are excluded
    cg = double_wheel(12)
    assert find_rainbow_path(cg, 7) is not None
    assert find_rainbow_path(cg, 8) is None
    assert find_rainbow_path(cg, 9) is None


def test_octahedron_gate():
    rep = validate_construction(octahedron(), 6, 12)
    assert rep.passed and rep.colors_used == 4


def test_icosahedron_gate():
    rep = validate_construction(icosahedron(), 7, 30)
    assert rep.passed and rep.colors_used == 5


def test_frozen_colorings_regenerate():
    assert regenerate_frozen("octahedron").colors == normalize_colors(octahedron()).colors
    assert regenerate_frozen("icosahedron").colors == normalize_colors(icosahedron()).colors


def test_make_dispatch_and_domains():
    assert make("gn", n=12).n == 12
    assert make("octahedron").n == 6
    with pytest.raises(GraphError):
        make("octahedron", n=7)
    with pytest.raises(GraphError):
        make("gn")
    with pytest.raises(GraphError):
        make("no-such-family", n=4)


def test_disjoint_copies():
    cg = make("disjoint-copies", base="octahedron", copies=3)
    assert cg.n == 18 and len(cg.edges) == 36
    assert validate_construction(cg, 6, 36).passed
    with pytest.raises(GraphError):
        make("disjoint-copies", copies=2)


def test_disjoint_copies_of_rainbow_free_part_stays_rainbow_free():
    for base, k in (("g5", 5), ("icosahedron", 7)):
        cg = make("disjoint-copies", base=base, copies=2)
        assert find_rainbow_path(cg, k) is None


def test_corrupted_coloring_fails_gate():
    cg = gn(6)
    triples = [(u, v, c) for (u, v), c in zip(cg.edges, cg.colors)]
    # recolor one edge to collide with an incident edge
    (u0, v0, _) = triples[0]
    other = next(c for (u, v, c) in triples[1:] if u in (u0, v0) or v in (u0, v0))
    triples[0] = (u0, v0, other)
    bad = build_colored_graph(6, triples)
    rep = validate_construction(bad, 5, 9)
    assert not rep.proper and not rep.passed


def test_matching_validates_through_the_cli(capsys):
    assert make("matching", 7).edges == ((0, 1), (2, 3), (4, 5))
    assert run(["construct", "matching", "-n", "7", "--validate"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["k"] == 3
    assert doc["validation"]["edge_count"] == 3 and doc["validation"]["passed"]


def test_default_avoids_registry():
    assert FAMILY_TABLE["matching"].avoids == 3
    assert FAMILY_TABLE["gn"].avoids == 5
    assert FAMILY_TABLE["double-wheel"].avoids == 8
    assert FAMILY_TABLE["octahedron"].avoids == 6
    assert FAMILY_TABLE["icosahedron"].avoids == 7
