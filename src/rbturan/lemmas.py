"""Mechanical verification of small coloring-scheme facts.

Each fact concerns a fixed labeled template (bow tie, fish, medium-pair,
heavy-pair) and states structure that every proper rainbow-P5-free
coloring of the template must have.  Verification enumerates every
color-renaming class by complete search and checks the stated predicate
on each class; classes are taken up to color renaming only, never up to
graph automorphism, because the facts are phrased on labeled vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .colorer import iter_coloring_classes
from .graphs import ColoredGraph, Graph, GraphError, build_graph


@dataclass(frozen=True)
class Template:
    """A labeled graph and its predicates: coloring -> named flags."""

    graph: Graph
    labels: dict[str, int] = field(hash=False)
    predicates: Callable[[Template, ColoredGraph], dict[str, bool]] = field(hash=False)

    def color(self, cg: ColoredGraph, a: str, b: str) -> int:
        return cg.color_of(self.labels[a], self.labels[b])


def _bow_tie_flags(t: Template, cg: ColoredGraph) -> dict[str, bool]:
    c = t.color
    spokes = {c(cg, "u", f"u{i}") for i in range(1, 5)}
    tip1, tip2 = c(cg, "u1", "u2"), c(cg, "u3", "u4")
    return {"tips-share-one-fresh-color": tip1 == tip2 and tip1 not in spokes}


def _fish_flags(t: Template, cg: ColoredGraph) -> dict[str, bool]:
    c = t.color
    return {
        "four-cycle-colors-swap": (
            c(cg, "w", "u3") == c(cg, "u", "u4")
            and c(cg, "w", "u4") == c(cg, "u", "u3")
        ),
        "triangle-reuses-a-cycle-spoke": c(cg, "u1", "u2") in (c(cg, "u", "u3"), c(cg, "u", "u4")),
    }


def _medium_pair_flags(t: Template, cg: ColoredGraph) -> dict[str, bool]:
    c = t.color
    total = cg.colors_used()
    v_side = [c(cg, "v", f"u{i}") for i in range(1, 4)]
    w_side = [c(cg, "w", f"u{i}") for i in range(1, 4)]
    swap = any(
        v_side[i] == w_side[j] and v_side[j] == w_side[i]
        for i in range(3)
        for j in range(3)
        if i < j
    )
    three = total == 3 and all(x in w_side for x in v_side)
    four = total == 4 and swap
    return {
        "four-color-scheme": four,
        "three-color-scheme": three,
        "scheme-dichotomy": four or three,
        # finer structure, reported but not part of the verified clause
        "three-scheme-derangement": three and all(v_side[i] != w_side[i] for i in range(3)),
    }


def _heavy_pair_flags(t: Template, cg: ColoredGraph) -> dict[str, bool]:
    c = t.color
    total = cg.colors_used()
    v_side = [c(cg, "v", f"u{i}") for i in range(1, 5)]
    w_side = [c(cg, "w", f"u{i}") for i in range(1, 5)]

    def swapped(i: int, j: int) -> bool:
        return v_side[i] == w_side[j] and v_side[j] == w_side[i]

    pairing = any(
        swapped(i, j) and swapped(l, m)
        for (i, j, l, m) in [(0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)]
    )
    return {"four-colors-fully-paired": total == 4 and pairing}


TEMPLATES: dict[str, Template] = {
    # two triangles sharing exactly one vertex u
    "bow-tie": Template(
        build_graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]),
        {"u": 0, "u1": 1, "u2": 2, "u3": 3, "u4": 4},
        _bow_tie_flags,
    ),
    # a triangle u u1 u2 and a 4-cycle u u3 w u4 sharing exactly vertex u
    "fish": Template(
        build_graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 5), (4, 5)]),
        {"u": 0, "u1": 1, "u2": 2, "u3": 3, "u4": 4, "w": 5},
        _fish_flags,
    ),
    # three cherries v u_i w with common ends: K_{2,3}
    "medium-pair": Template(
        build_graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),
        {"v": 0, "w": 1, "u1": 2, "u2": 3, "u3": 4},
        _medium_pair_flags,
    ),
    # four cherries v u_i w with common ends: K_{2,4}
    "heavy-pair": Template(
        build_graph(6, [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5)]),
        {"v": 0, "w": 1, "u1": 2, "u2": 3, "u3": 4, "u4": 5},
        _heavy_pair_flags,
    ),
}

# lemma id -> (template id, flags every class must satisfy)
LEMMAS: dict[str, tuple[str, tuple[str, ...]]] = {
    "bowtie-5.2": ("bow-tie", ("tips-share-one-fresh-color",)),
    "fish-5.4": ("fish", ("four-cycle-colors-swap", "triangle-reuses-a-cycle-spoke")),
    "medium-5.5": ("medium-pair", ("scheme-dichotomy",)),
    "heavy-5.7": ("heavy-pair", ("four-colors-fully-paired",)),
}

LEMMA_IDS = tuple(LEMMAS)


def template(template_id: str) -> Template:
    try:
        return TEMPLATES[template_id]
    except KeyError:
        raise GraphError(f"unknown template {template_id!r}") from None


@dataclass(frozen=True)
class SchemeClass:
    """One color-renaming class of valid colorings of a template, with the
    per-lemma predicate flags it satisfies."""

    representative: ColoredGraph
    predicate_flags: dict[str, bool] = field(hash=False)


def enumerate_schemes(t: Template, k: int = 5) -> list[SchemeClass]:
    """Complete list of color-renaming classes of proper rainbow-P_k-free
    colorings of the template, each flagged by the lemma predicates."""
    return [SchemeClass(rep, t.predicates(t, rep)) for rep in iter_coloring_classes(t.graph, k)]


@dataclass(frozen=True)
class LemmaReport:
    lemma_id: str
    template_id: str
    k: int
    class_count: int
    passed: bool
    checked_flags: tuple[str, ...]
    classes: tuple[SchemeClass, ...]
    violations: tuple[SchemeClass, ...]


def verify_lemma(lemma_id: str, k: int = 5) -> LemmaReport:
    """PASS iff every enumerated coloring class of the lemma's template
    satisfies the lemma's predicate; FAIL carries the violating classes."""
    try:
        template_id, required = LEMMAS[lemma_id]
    except KeyError:
        raise GraphError(
            f"unknown lemma {lemma_id!r}; known: {', '.join(LEMMA_IDS)}"
        ) from None
    t = template(template_id)
    classes = enumerate_schemes(t, k)
    violations = tuple(
        sc for sc in classes if not all(sc.predicate_flags[f] for f in required)
    )
    return LemmaReport(
        lemma_id=lemma_id,
        template_id=template_id,
        k=k,
        class_count=len(classes),
        passed=not violations,
        checked_flags=required,
        classes=tuple(classes),
        violations=violations,
    )
