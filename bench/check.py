"""Semantic correctness checks for the reports the workloads print.

The checks compare verdicts and class counts, never bytes: level digests
and search provenance may change when the generator changes, while the
mathematical content may not.  ``problems`` returns one message per
violation; an empty list means the run is correct.
"""

from __future__ import annotations

import json
from typing import Any

import workloads  # noqa: F401  (puts the checkout's src on sys.path)
from rbturan.codec import CodecError, colored_from_doc
from rbturan.graphs import GraphError, is_proper
from rbturan.rainbow import find_rainbow_path

COUNT_KEYS = ("candidates", "reduced", "planar", "unsat", "sat", "budget_exceeded")

# reduced planar chain (n', floor(3n'/2) + 1) for n' = 4..8, at k = 5
CHAIN8_LEVELS = {
    (4, 7): (0, 0, 0, 0, 0, 0),
    (5, 8): (2, 2, 2, 2, 0, 0),
    (6, 10): (15, 12, 11, 11, 0, 0),
    (7, 11): (148, 76, 71, 71, 0, 0),
    (8, 13): (1557, 705, 600, 600, 0, 0),
}
# refute9 drops the reduction filter: all 13,093 planar classes are searched
REFUTE9_COUNTS = (13093, 13093, 13093, 13093, 0, 0)


def _counts(level: dict[str, Any]) -> tuple[int, ...]:
    return tuple(level["counts"][key] for key in COUNT_KEYS)


def _level_problems(level: dict[str, Any], want: tuple[int, ...]) -> list[str]:
    where = f"level ({level['n']},{level['m']})"
    out = []
    if level["status"] != "PASS":
        out.append(f"{where}: status {level['status']}, expected PASS")
    got = _counts(level)
    if got != want:
        out.append(f"{where}: counts {dict(zip(COUNT_KEYS, got))}, expected {dict(zip(COUNT_KEYS, want))}")
    return out


def _chain8(doc: dict[str, Any], _edges) -> list[str]:
    out = []
    if doc["value"] != 12 or doc["status"] != "OK":
        out.append(f"value {doc['value']} [{doc['status']}], expected 12 [OK]")
    chain = {(lv["n"], lv["m"]): lv for lv in doc.get("chain", [])}
    if set(chain) != set(CHAIN8_LEVELS):
        out.append(f"chain levels {sorted(chain)}, expected {sorted(CHAIN8_LEVELS)}")
        return out
    for key, want in CHAIN8_LEVELS.items():
        out += _level_problems(chain[key], want)
    return out


def _refute9(doc: dict[str, Any], _edges) -> list[str]:
    if (doc["n"], doc["m"], doc["k"]) != (9, 14, 5):
        return [f"level ({doc['n']},{doc['m']}) k={doc['k']}, expected (9,14) k=5"]
    return _level_problems(doc, REFUTE9_COUNTS)


def _validate(doc: dict[str, Any], _edges) -> list[str]:
    if doc["passed"] is not True or doc["edge_count"] != 114:
        return [f"validate passed={doc['passed']} edge_count={doc['edge_count']}, expected true/114"]
    return []


def _color(doc: dict[str, Any], edges) -> list[str]:
    if doc["status"] != "SAT":
        return [f"color status {doc['status']}, expected SAT"]
    try:
        cert = colored_from_doc(doc["certificate"])
    except (CodecError, GraphError) as exc:
        return [f"certificate does not parse: {exc}"]
    if set(cert.edges) != edges:
        return ["certificate edges differ from the input graph"]
    if not is_proper(cert):
        return ["certificate coloring is not proper"]
    witness = find_rainbow_path(cert, 8)
    if witness is not None:
        return [f"certificate has a rainbow P8 on {list(witness.vertices)}"]
    return []


CHECKS = {"chain8": _chain8, "refute9": _refute9, "validate": _validate, "color": _color}


def problems(kind: str, returncode: int, stdout: str, input_edges=None) -> list[str]:
    """Every way one step's exit code and report break the workload's contract."""
    out = [] if returncode == 0 else [f"exit code {returncode}, expected 0"]
    try:
        doc = json.loads(stdout)
        out += CHECKS[kind](doc, input_edges)
    except (ValueError, KeyError, TypeError) as exc:
        out.append(f"malformed report: {type(exc).__name__}: {exc}")
    return out
