from __future__ import annotations

import itertools

import pytest

from rbturan.colorer import BUDGET_EXCEEDED, SAT, UNSAT, find_coloring, oracle_enumerate
from rbturan.graphs import GraphError, build_graph, is_proper
from rbturan.lemmas import LEMMA_IDS, enumerate_schemes, template, verify_lemma
from rbturan.rainbow import find_rainbow_path

# class counts computed by oracle_enumerate (golden values)
GOLDEN_CLASSES = {"bow-tie": 1, "fish": 2, "medium-pair": 5, "heavy-pair": 3}


def test_template_shapes():
    bow = template("bow-tie")
    assert bow.graph.n == 5 and len(bow.graph.edges) == 6
    assert bow.graph.degrees()[bow.labels["u"]] == 4
    fish = template("fish")
    assert fish.graph.n == 6 and len(fish.graph.edges) == 7
    fish_degrees = fish.graph.degrees()
    assert fish_degrees[fish.labels["u"]] == 4
    assert fish_degrees[fish.labels["w"]] == 2
    medium = template("medium-pair")
    assert medium.graph.degrees() == (3, 3, 2, 2, 2)  # K_{2,3}
    heavy = template("heavy-pair")
    assert heavy.graph.degrees() == (4, 4, 2, 2, 2, 2)  # K_{2,4}


def test_unknown_template_and_lemma():
    with pytest.raises(GraphError):
        template("house")
    with pytest.raises(GraphError, match="unknown lemma"):
        verify_lemma("bowtie-9.9")


@pytest.mark.parametrize("lemma_id", LEMMA_IDS)
def test_lemma_passes(lemma_id):
    rep = verify_lemma(lemma_id)
    assert rep.passed, rep.violations
    assert rep.class_count == GOLDEN_CLASSES[rep.template_id]


@pytest.mark.parametrize("template_id", sorted(GOLDEN_CLASSES))
def test_scheme_count_matches_oracle(template_id):
    t = template(template_id)
    schemes = enumerate_schemes(t, 5)
    assert len(schemes) == oracle_enumerate(t.graph, 5) == GOLDEN_CLASSES[template_id]


def test_scheme_representatives_replay():
    for template_id in GOLDEN_CLASSES:
        t = template(template_id)
        for sc in enumerate_schemes(t, 5):
            assert is_proper(sc.representative)
            assert find_rainbow_path(sc.representative, 5) is None


def test_bow_tie_unique_scheme_structure():
    t = template("bow-tie")
    (sc,) = enumerate_schemes(t, 5)
    cg = sc.representative
    spokes = {t.color(cg, "u", f"u{i}") for i in range(1, 5)}
    assert len(spokes) == 4
    tip = t.color(cg, "u1", "u2")
    assert tip == t.color(cg, "u3", "u4")
    assert tip not in spokes


def test_medium_pair_finer_structure_is_reported_not_asserted():
    t = template("medium-pair")
    schemes = enumerate_schemes(t, 5)
    three = [sc for sc in schemes if sc.predicate_flags["three-color-scheme"]]
    four = [sc for sc in schemes if sc.predicate_flags["four-color-scheme"]]
    assert len(three) + len(four) == len(schemes)
    for sc in three:
        assert "three-scheme-derangement" in sc.predicate_flags


def test_fish_enumeration_respects_labels():
    t = template("fish")
    for sc in enumerate_schemes(t, 5):
        cg = sc.representative
        assert t.color(cg, "w", "u3") == t.color(cg, "u", "u4")
        assert t.color(cg, "w", "u4") == t.color(cg, "u", "u3")


def test_refute_examples():
    bow_pendant = build_graph(
        6, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (2, 5)]
    )
    assert find_coloring(bow_pendant, 5).status == UNSAT
    k23_two_pendants = build_graph(
        7, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (0, 5), (0, 6)]
    )
    assert find_coloring(k23_two_pendants, 5).status == UNSAT
    k4 = build_graph(4, list(itertools.combinations(range(4), 2)))
    assert find_coloring(k4, 5).status == SAT


def test_refute_budget_error():
    g = build_graph(8, [(i, j) for i in range(8) for j in range(i + 1, 8) if (i + j) % 3])
    assert find_coloring(g, 5, node_budget=2).status == BUDGET_EXCEEDED


def test_templates_agree_for_other_k():
    # the machinery accepts other path lengths as well
    t = template("bow-tie")
    assert len(enumerate_schemes(t, 4)) == oracle_enumerate(t.graph, 4)
    assert len(enumerate_schemes(t, 6)) == oracle_enumerate(t.graph, 6)


def test_fail_path_carries_violations():
    # at k=6 no path constraint bites a 5-vertex template, so colorings
    # with two fresh tip colors appear and the tip predicate truly fails
    rep = verify_lemma("bowtie-5.2", k=6)
    assert not rep.passed
    assert rep.violations
    assert rep.class_count == oracle_enumerate(template("bow-tie").graph, 6)
    for sc in rep.violations:
        assert not sc.predicate_flags["tips-share-one-fresh-color"]
