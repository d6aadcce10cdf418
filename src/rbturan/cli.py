"""Command-line entry point.

One binary, subcommand style: detect, color, lemma, construct, extremal,
refute, validate.  Machine-readable JSON goes to standard output (byte
identical across runs and worker counts), a human summary to standard
error.  Exit status encodes the verdict: 0 pass / found as expected,
1 property fails or mismatch, 2 usage error, 3 search budget exceeded.

Options can be overridden through RBTURAN_-prefixed environment
variables (RBTURAN_JOBS, RBTURAN_BUDGET_NODES).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any

from . import __version__
from .codec import CodecError, colored_to_doc, decode_colored, decode_graph6
from .colorer import find_coloring
from .constructions import (
    DEFAULT_AVOIDS,
    FAMILIES,
    ConstructionSpec,
    make,
    validate_construction,
)
from .extremal import compute_extremal, refute_level
from .graphs import GraphError, is_proper
from .lemmas import LEMMA_IDS, verify_lemma
from .rainbow import find_rainbow_path

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _int_at_least(low: int, env: str):
    """argparse type for an integer option >= low.  argparse also applies it
    to a string default, so a malformed RBTURAN_<env> value is a usage error
    (exit 2) just like a malformed flag."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
            if value >= low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"expected an integer >= {low} (default from RBTURAN_{env}), got {raw!r}"
        )

    return parse


def _emit(doc: dict[str, Any], summary: str) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    sys.stderr.write(summary + "\n")


def _report(subcommand: str, config: dict[str, Any], body: dict[str, Any]) -> dict[str, Any]:
    return {
        "tool": {"name": "rbturan", "version": __version__},
        "subcommand": subcommand,
        "config": config,
        **body,
    }


def _read_colored(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return decode_colored(fh.read())


def _cmd_detect(args) -> int:
    cg = _read_colored(args.input)
    proper = is_proper(cg)
    witness = find_rainbow_path(cg, args.k) if proper else None
    body: dict[str, Any] = {"proper": proper}
    if proper:
        body["rainbow_free"] = witness is None
        if witness is not None:
            body["witness"] = {
                "vertices": list(witness.vertices),
                "colors": list(witness.colors),
            }
    doc = _report("detect", {"k": args.k, "input": args.input}, body)
    if not proper:
        _emit(doc, "input coloring is not proper")
        return EXIT_MISMATCH
    if witness is None:
        _emit(doc, f"no rainbow P{args.k}")
        return EXIT_OK
    _emit(doc, f"rainbow P{args.k} found: {'-'.join(map(str, witness.vertices))}")
    return EXIT_MISMATCH


def _load_graph(args):
    if args.graph6 is not None:
        return decode_graph6(args.graph6)
    if args.input is None:
        raise GraphError("supply --graph6 TEXT or --input FILE")
    with open(args.input, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.strip()
    if stripped.startswith("{"):
        return decode_colored(text).graph
    return decode_graph6(stripped.splitlines()[0])


def _cmd_color(args) -> int:
    g = _load_graph(args)
    max_colors = args.max_colors if args.max_colors is not None else len(g.edges)
    t0 = time.monotonic()
    out = find_coloring(g, args.k, max_colors, node_budget=args.budget_nodes)
    secs = time.monotonic() - t0
    config = {
        "k": args.k,
        "max_colors": max_colors,
        "budget_nodes": args.budget_nodes,
    }
    body: dict[str, Any] = {"status": out.status, "nodes": out.nodes}
    if out.sat:
        body["certificate"] = colored_to_doc(
            out.certificate,
            meta={
                "k": args.k,
                "max_colors": max_colors,
                "stats": {"nodes": out.nodes, "colors_used": out.max_colors_used},
            },
        )
    doc = _report("color", config, body)
    _emit(doc, f"{out.status} ({out.nodes} nodes, {secs:.2f}s)")
    if out.sat:
        return EXIT_OK
    return EXIT_BUDGET if out.status == "BUDGET_EXCEEDED" else EXIT_MISMATCH


def _scheme_doc(sc) -> dict[str, Any]:
    return {
        "representative": colored_to_doc(sc.representative),
        "flags": dict(sorted(sc.predicate_flags.items())),
    }


def _cmd_lemma(args) -> int:
    ids = LEMMA_IDS if args.lemma_id == "all" else (args.lemma_id,)
    reports = [verify_lemma(lid, args.k) for lid in ids]
    body = {
        "lemmas": [
            {
                "lemma": rep.lemma_id,
                "template": rep.template_id,
                "k": rep.k,
                "classes": rep.class_count,
                "status": "PASS" if rep.passed else "FAIL",
                "checked_flags": list(rep.checked_flags),
                "representatives": [_scheme_doc(sc) for sc in rep.classes],
                "violations": [_scheme_doc(sc) for sc in rep.violations],
            }
            for rep in reports
        ]
    }
    doc = _report("lemma", {"lemma": args.lemma_id, "k": args.k}, body)
    lines = ", ".join(
        f"{rep.lemma_id}: {'PASS' if rep.passed else 'FAIL'} ({rep.class_count} classes)"
        for rep in reports
    )
    _emit(doc, lines)
    return EXIT_OK if all(rep.passed for rep in reports) else EXIT_MISMATCH


def _default_edges(args, cg) -> int:
    fam = args.family
    n = cg.n
    if fam in ("gn", "g5", "g7", "k4-blocks"):
        return (3 * n) // 2
    if fam in ("double-wheel", "k2-path"):
        return 3 * n - 6
    if fam == "octahedron":
        return 12
    if fam == "icosahedron":
        return 30
    return len(cg.edges)  # disjoint-copies: edge count follows the parts


def _cmd_construct(args) -> int:
    spec = ConstructionSpec(args.family, n=args.n, copies=args.copies, base=args.base)
    cg = make(spec)
    k = args.k
    if k is None:
        base_family = args.base if args.family == "disjoint-copies" else args.family
        k = DEFAULT_AVOIDS.get(base_family, 5)
    config = {
        "family": args.family,
        "n": args.n,
        "copies": args.copies,
        "base": args.base,
        "k": k,
    }
    body: dict[str, Any] = {"graph": colored_to_doc(cg, meta={"family": args.family})}
    if not args.validate:
        doc = _report("construct", config, body)
        _emit(doc, f"{args.family}: n={cg.n}, {len(cg.edges)} edges")
        return EXIT_OK
    expected = args.expect_edges if args.expect_edges is not None else _default_edges(args, cg)
    rep = validate_construction(cg, k, expected)
    body["validation"] = {
        "edge_count": rep.edge_count,
        "expected_edges": rep.expected_edges,
        "proper": rep.proper,
        "planar": rep.planar,
        "rainbow_free": rep.rainbow_free,
        "colors_used": rep.colors_used,
        "k": rep.k,
        "passed": rep.passed,
    }
    doc = _report("construct", config, body)
    _emit(
        doc,
        f"{args.family}: n={cg.n}, {rep.edge_count} edges, "
        f"{'pass' if rep.passed else 'FAIL'}",
    )
    return EXIT_OK if rep.passed else EXIT_MISMATCH


def _cmd_extremal(args) -> int:
    t0 = time.monotonic()
    rep = compute_extremal(
        args.n,
        args.k,
        jobs=args.jobs,
        node_budget=args.budget_nodes,
        graph6_path=args.from_graph6,
    )
    secs = time.monotonic() - t0
    config = {
        "n": args.n,
        "k": args.k,
        "jobs": args.jobs,
        "budget_nodes": args.budget_nodes,
        "from_graph6": args.from_graph6,
        "expect": args.expect,
    }
    doc = _report("extremal", config, rep.to_doc())
    _emit(doc, f"extremal(n={args.n}, k={args.k}) = {rep.value} [{rep.status}] in {secs:.1f}s")
    if rep.status == "BUDGET":
        return EXIT_BUDGET
    if rep.status != "OK":
        return EXIT_MISMATCH
    if args.expect is not None and rep.value != args.expect:
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_refute(args) -> int:
    t0 = time.monotonic()
    rep = refute_level(
        args.n,
        args.m,
        args.k,
        reduced=not args.no_reduced,
        planar=not args.no_planar,
        jobs=args.jobs,
        node_budget=args.budget_nodes,
        graph6_path=args.from_graph6,
    )
    secs = time.monotonic() - t0
    config = {
        "n": args.n,
        "m": args.m,
        "k": args.k,
        "jobs": args.jobs,
        "budget_nodes": args.budget_nodes,
        "from_graph6": args.from_graph6,
        "filters": list(rep.filters),
    }
    doc = _report("refute", config, rep.to_doc())
    _emit(
        doc,
        f"level ({args.n},{args.m}) k={args.k}: {rep.status} "
        f"({rep.unsat} UNSAT of {rep.after_planarity}) in {secs:.1f}s",
    )
    if rep.status == "PASS":
        return EXIT_OK
    return EXIT_BUDGET if rep.status == "BUDGET" else EXIT_MISMATCH


def _cmd_validate(args) -> int:
    cg = _read_colored(args.input)
    expected = args.expect_edges if args.expect_edges is not None else len(cg.edges)
    rep = validate_construction(cg, args.k, expected)
    config = {"input": args.input, "k": args.k, "expect_edges": args.expect_edges}
    body = {
        "edge_count": rep.edge_count,
        "expected_edges": rep.expected_edges,
        "proper": rep.proper,
        "planar": rep.planar,
        "rainbow_free": rep.rainbow_free,
        "colors_used": rep.colors_used,
        "passed": rep.passed,
    }
    doc = _report("validate", config, body)
    _emit(doc, "pass" if rep.passed else "FAIL")
    return EXIT_OK if rep.passed else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbturan",
        description=(
            "Exhaustive search and verification for rainbow path avoidance "
            "on edge-colored planar graphs"
        ),
    )
    parser.add_argument("--version", action="version", version=f"rbturan {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    jobs = _int_at_least(1, "JOBS")
    budget = _int_at_least(0, "BUDGET_NODES")

    p = sub.add_parser("detect", help="find a rainbow path in a colored graph")
    p.add_argument("-k", type=int, required=True, help="path vertex count")
    p.add_argument("--input", required=True, help="colored-graph JSON file")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("color", help="search for a rainbow-free proper coloring")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--graph6", help="inline graph6 text")
    p.add_argument("--input", help="graph6 or colored-graph JSON file")
    p.add_argument("--max-colors", type=int, default=None)
    p.add_argument("--budget-nodes", type=budget, default=os.environ.get("RBTURAN_BUDGET_NODES"))
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("lemma", help="verify a coloring-scheme lemma by enumeration")
    p.add_argument("lemma_id", choices=LEMMA_IDS + ("all",))
    p.add_argument("-k", type=int, default=5)
    p.set_defaults(func=_cmd_lemma)

    p = sub.add_parser("construct", help="emit a named colored construction")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--copies", type=int, default=1)
    p.add_argument("--base", choices=FAMILIES, default=None)
    p.add_argument("--validate", action="store_true", help="run the validation gate")
    p.add_argument("-k", type=int, default=None, help="path length gate (family default)")
    p.add_argument("--expect-edges", type=int, default=None)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("extremal", help="compute the certified extremal value")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--jobs", type=jobs, default=os.environ.get("RBTURAN_JOBS", "1"))
    p.add_argument("--budget-nodes", type=budget, default=os.environ.get("RBTURAN_BUDGET_NODES"))
    p.add_argument("--from-graph6", default=None, help="candidate source file")
    p.add_argument("--expect", type=int, default=None, help="fail unless value matches")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("refute", help="show every candidate of a level is UNSAT")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--jobs", type=jobs, default=os.environ.get("RBTURAN_JOBS", "1"))
    p.add_argument("--budget-nodes", type=budget, default=os.environ.get("RBTURAN_BUDGET_NODES"))
    p.add_argument("--from-graph6", default=None)
    p.add_argument("--no-reduced", action="store_true", help="drop the reduction filter")
    p.add_argument("--no-planar", action="store_true", help="drop the planarity filter")
    p.set_defaults(func=_cmd_refute)

    p = sub.add_parser("validate", help="re-validate a colored-graph certificate")
    p.add_argument("--input", required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--expect-edges", type=int, default=None)
    p.set_defaults(func=_cmd_validate)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, CodecError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def main() -> None:  # pragma: no cover - thin wrapper
    raise SystemExit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
