"""Command-line entry point.

One binary, subcommand style: detect, color, lemma, construct, extremal,
refute, validate.  A subcommand returns its report and writes nothing;
``run`` writes it once: one JSON line to standard output (byte identical
across runs), a human summary to standard error.  ``--jobs`` is accepted
and echoed in ``config`` but selects nothing: every search runs in this
one process.  Exit status encodes the verdict: 0 pass / found as
expected, 1 property fails or mismatch, 2 usage error, 3 search budget
exceeded.

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
from .codec import CodecError, colored_to_doc, decode_colored, decode_graph6, read_graph6_file
from .colorer import find_coloring
from .constructions import FAMILIES, FAMILY_TABLE, make, validate_construction
from .extremal import BudgetExhausted, compute_extremal, run_level
from .graphs import GraphError, is_proper
from .lemmas import LEMMA_IDS, verify_lemma
from .rainbow import find_rainbow_path

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# exit code of a search verdict; a status not listed (UNSAT, FAIL) is a mismatch
STATUS_EXIT = {
    "SAT": EXIT_OK,
    "PASS": EXIT_OK,
    "OK": EXIT_OK,
    "BUDGET": EXIT_BUDGET,
    "BUDGET_EXCEEDED": EXIT_BUDGET,
}


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


# what a subcommand returns: config, report body, stderr summary, exit code
Report = tuple[dict[str, Any], dict[str, Any], str, int]


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise CodecError(f"{path} is not UTF-8 text") from None


def _cmd_detect(args) -> Report:
    cg = decode_colored(_read_text(args.input))
    config = {"k": args.k, "input": args.input}
    if not is_proper(cg):
        return config, {"proper": False}, "input coloring is not proper", EXIT_MISMATCH
    witness = find_rainbow_path(cg, args.k)
    if witness is None:
        return config, {"proper": True, "rainbow_free": True}, f"no rainbow P{args.k}", EXIT_OK
    body = {
        "proper": True,
        "rainbow_free": False,
        "witness": {"vertices": list(witness.vertices), "colors": list(witness.colors)},
    }
    path = "-".join(map(str, witness.vertices))
    return config, body, f"rainbow P{args.k} found: {path}", EXIT_MISMATCH


def _load_graph(args):
    if args.graph6 is not None:
        return decode_graph6(args.graph6)
    if args.input is None:
        raise GraphError("supply --graph6 TEXT or --input FILE")
    text = _read_text(args.input).strip()
    if not text:
        raise CodecError(f"{args.input} is empty")
    # "{" is also the graph6 size byte of n=60, but no graph6 line holds '"'
    if text.startswith("{") and '"' in text:
        return decode_colored(text).graph
    graphs = list(read_graph6_file(args.input))
    if len(graphs) > 1:
        raise CodecError(
            f"{args.input} holds {len(graphs)} graph6 lines; color searches one graph"
        )
    return graphs[0]


def _cmd_color(args) -> Report:
    g = _load_graph(args)
    t0 = time.monotonic()
    out = find_coloring(g, args.k, args.max_colors, node_budget=args.budget_nodes)
    secs = time.monotonic() - t0
    max_colors = args.max_colors if args.max_colors is not None else len(g.edges)
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
                "stats": {"nodes": out.nodes, "colors_used": out.certificate.colors_used()},
            },
        )
    summary = f"{out.status} ({out.nodes} nodes, {secs:.2f}s)"
    return config, body, summary, STATUS_EXIT.get(out.status, EXIT_MISMATCH)


def _scheme_doc(sc) -> dict[str, Any]:
    return {
        "representative": colored_to_doc(sc.representative),
        "flags": dict(sorted(sc.predicate_flags.items())),
    }


def _cmd_lemma(args) -> Report:
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
    summary = ", ".join(
        f"{rep.lemma_id}: {'PASS' if rep.passed else 'FAIL'} ({rep.class_count} classes)"
        for rep in reports
    )
    code = EXIT_OK if all(rep.passed for rep in reports) else EXIT_MISMATCH
    return {"lemma": args.lemma_id, "k": args.k}, body, summary, code


def _cmd_construct(args) -> Report:
    cg = make(args.family, args.n, args.copies, args.base)
    # make() accepts a base for disjoint-copies only, and requires it there
    row = FAMILY_TABLE[args.base or args.family]
    k = args.k if args.k is not None else row.avoids
    config = {
        "family": args.family,
        "n": args.n,
        "copies": args.copies,
        "base": args.base,
        "k": k,
    }
    body: dict[str, Any] = {"graph": colored_to_doc(cg, meta={"family": args.family})}
    if not args.validate:
        return config, body, f"{args.family}: n={cg.n}, {len(cg.edges)} edges", EXIT_OK
    expected = args.expect_edges
    if expected is None:  # copies is 1 outside disjoint-copies
        expected = args.copies * row.edges(cg.n // args.copies)
    rep = validate_construction(cg, k, expected)
    body["validation"] = rep.to_doc()
    verdict = "pass" if rep.passed else "FAIL"
    summary = f"{args.family}: n={cg.n}, {rep.edge_count} edges, {verdict}"
    return config, body, summary, EXIT_OK if rep.passed else EXIT_MISMATCH


def _cmd_extremal(args) -> Report:
    t0 = time.monotonic()
    rep = compute_extremal(
        args.n,
        args.k,
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
    summary = f"extremal(n={args.n}, k={args.k}) = {rep.value} [{rep.status}] in {secs:.1f}s"
    code = STATUS_EXIT.get(rep.status, EXIT_MISMATCH)
    if code == EXIT_OK and args.expect is not None and rep.value != args.expect:
        code = EXIT_MISMATCH
    return config, rep.to_doc(), summary, code


def _cmd_refute(args) -> Report:
    t0 = time.monotonic()
    rep = run_level(
        args.n,
        args.m,
        args.k,
        reduced=not args.no_reduced,
        planar=not args.no_planar,
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
    summary = (
        f"level ({args.n},{args.m}) k={args.k}: {rep.status} "
        f"({rep.counts['unsat']} UNSAT of {rep.counts['planar']}) in {secs:.1f}s"
    )
    return config, rep.to_doc(), summary, STATUS_EXIT.get(rep.status, EXIT_MISMATCH)


def _cmd_validate(args) -> Report:
    cg = decode_colored(_read_text(args.input))
    expected = args.expect_edges if args.expect_edges is not None else len(cg.edges)
    rep = validate_construction(cg, args.k, expected)
    config = {"input": args.input, "k": args.k, "expect_edges": args.expect_edges}
    body = rep.to_doc()
    del body["k"]  # validate reports k in its config only
    return config, body, "pass" if rep.passed else "FAIL", EXIT_OK if rep.passed else EXIT_MISMATCH


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
    # Flags shared by several subcommands, declared once.  The parents are
    # built per call so the RBTURAN_* defaults are read on every run.
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument(
        "--budget-nodes",
        type=_int_at_least(0, "BUDGET_NODES"),
        default=os.environ.get("RBTURAN_BUDGET_NODES"),
    )
    levels = argparse.ArgumentParser(add_help=False)
    levels.add_argument(
        "--jobs", type=_int_at_least(1, "JOBS"), default=os.environ.get("RBTURAN_JOBS", "1")
    )
    levels.add_argument("--from-graph6", default=None, help="candidate source file")

    p = sub.add_parser("detect", help="find a rainbow path in a colored graph")
    p.add_argument("-k", type=int, required=True, help="path vertex count")
    p.add_argument("--input", required=True, help="colored-graph JSON file")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("color", parents=[budget], help="search for a rainbow-free proper coloring")
    p.add_argument("-k", type=int, required=True)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--graph6", help="inline graph6 text")
    source.add_argument("--input", help="graph6 or colored-graph JSON file")
    p.add_argument("--max-colors", type=int, default=None)
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

    p = sub.add_parser(
        "extremal", parents=[budget, levels], help="compute the certified extremal value"
    )
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--expect", type=int, default=None, help="fail unless value matches")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser(
        "refute", parents=[budget, levels], help="show every candidate of a level is UNSAT"
    )
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
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
        config, body, summary, code = args.func(args)
        tool = {"name": "rbturan", "version": __version__}
        doc = {"tool": tool, "subcommand": args.subcommand, "config": config, **body}
        sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        sys.stderr.write(summary + "\n")
        return code
    except (BudgetExhausted, GraphError, CodecError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BUDGET if isinstance(exc, BudgetExhausted) else EXIT_USAGE
