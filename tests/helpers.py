"""Reference code the tests share: an edge-by-edge generator of small
graphs without isolated vertices, independent of the canonical-augmentation
ladder, a re-derivation of the frozen construction colorings, vertex
relabelling, rainbow-witness replay, a whole filtered level at once, and
a fresh interpreter that imports this checkout's rbturan."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import rbturan
from rbturan.colorer import find_coloring
from rbturan.constructions import FAMILY_TABLE
from rbturan.extremal import candidate_blocks
from rbturan.generation import canonical_form
from rbturan.graphs import ColoredGraph, Graph, GraphError, build_graph
from rbturan.rainbow import RainbowWitness


def relabel(g: Graph, perm: list[int] | tuple[int, ...]) -> Graph:
    """Image of g under the vertex relabeling v -> perm[v]."""
    if sorted(perm) != list(range(g.n)):
        raise GraphError("perm is not a permutation of the vertex ids")
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def enumerate_candidates(
    n: int,
    m: int,
    reduced: bool = False,
    planar: bool = False,
    graph6_path: str | None = None,
) -> tuple[tuple[Graph, ...], dict[str, int]]:
    """Every filtered candidate of the (n, m) level and the count after
    each stage, drained from the level's block stream."""
    counts: dict[str, int] = {}
    blocks = candidate_blocks(
        n, m, counts, reduced=reduced, planar=planar, graph6_path=graph6_path
    )
    return tuple(g for block in blocks for _, g in block), counts


def replay_witness(cg: ColoredGraph, w: RainbowWitness, k: int) -> bool:
    """Check a witness against the colored graph it claims to refute."""
    vs = w.vertices
    if len(vs) != k or len(set(vs)) != k or len(w.colors) != k - 1:
        return False
    for i in range(k - 1):
        try:
            if cg.color_of(vs[i], vs[i + 1]) != w.colors[i]:
                return False
        except GraphError:  # a non-edge has no color
            return False
    return len(set(w.colors)) == k - 1


def components(g: Graph) -> list[list[int]]:
    """Vertex lists of the connected components in depth-first order, each
    starting at its smallest vertex."""
    masks = g.masks()
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in range(g.n):
                if masks[v] >> w & 1 and not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(comp)
    return comps


def component_certificate(g: Graph) -> tuple:
    """Isomorphism certificate for graphs of any vertex count whose
    connected components each fit the canonical-form guard."""
    certs = []
    for comp in components(g):
        pos = {v: i for i, v in enumerate(comp)}
        sub = build_graph(
            len(comp),
            [(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos],
        )
        certs.append((sub.n, canonical_form(sub)))
    return tuple(sorted(certs))


def graphs_with_at_most_edges(max_m: int) -> dict[int, list[Graph]]:
    """All isomorphism classes with m <= max_m edges and no isolated
    vertices, keyed by edge count.  Components of an m-edge graph have at
    most m+1 vertices, so the per-component canonical form stays within
    the guard for max_m <= 9."""
    levels: dict[int, list[Graph]] = {0: [Graph(0, ())]}
    for m in range(max_m):
        seen: set[tuple] = set()
        out: list[Graph] = []
        for parent in levels[m]:
            n = parent.n
            present = set(parent.edges)
            extensions: list[tuple[int, tuple[tuple[int, int], ...]]] = []
            for u in range(n):
                for v in range(u + 1, n):
                    if (u, v) not in present:
                        extensions.append((n, parent.edges + ((u, v),)))
            for u in range(n):
                extensions.append((n + 1, parent.edges + ((u, n),)))
            extensions.append((n + 2, parent.edges + ((n, n + 1),)))
            for nn, edges in extensions:
                child = build_graph(nn, edges)
                cert = component_certificate(child)
                if cert in seen:
                    continue
                seen.add(cert)
                out.append(child)
        levels[m + 1] = out
    return levels


def regenerate_frozen(family: str) -> ColoredGraph:
    """Re-derive a frozen coloring with the search (max_colors = Delta),
    avoiding the family's own path length."""
    if family not in ("octahedron", "icosahedron"):
        raise GraphError(f"no frozen coloring for family {family!r}")
    row = FAMILY_TABLE[family]
    g = row.build().graph
    out = find_coloring(g, row.avoids, max(g.degrees()))
    if not out.sat:  # pragma: no cover - both graphs are class 1
        raise GraphError(f"{family} admits no proper Delta-edge-coloring?")
    return out.certificate


def fresh_python(*argv: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's rbturan."""
    src = str(Path(rbturan.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
