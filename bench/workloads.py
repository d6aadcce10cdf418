"""The benchmark's workloads and their seeded inputs.

A workload is a fixed list of ``python -m rbturan`` command lines (steps)
plus the input files they read.  The seed only shapes the input files; the
program never sees it.  ``build`` writes the inputs for one seed into a
work directory and returns the steps with the SHA-256 of every input.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from rbturan.codec import encode_colored, encode_graph6  # noqa: E402
from rbturan.constructions import double_wheel  # noqa: E402
from rbturan.graphs import build_colored_graph  # noqa: E402

# every planar (9, 14) isomorphism class, made by make_refute9_input.py
FROZEN = BENCH / "data" / "planar_9_14.g6"
FROZEN_SHA256 = "a250c85afcd829710abe03bdbe0245403521a3f41bfcea4d564f68e0333f823a"
FROZEN_LINES = 13093

VALIDATE_N = 40  # double_wheel(40): 114 edges, exhaustive rainbow-P8 search
COLOR_N = 18  # double_wheel(18): 48 edges, k=8 search ends SAT

WORKLOADS = ("certify", "refute9")


@dataclass(frozen=True)
class Step:
    """One program run: ``kind`` names the correctness check for its report."""

    kind: str
    args: tuple[str, ...]
    input_edges: frozenset[tuple[int, int]] | None = None  # color: the input graph


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int  # the most program processes that run at once
    steps: tuple[Step, ...]
    seed_note: str
    inputs: dict[str, str] = field(default_factory=dict)  # path -> sha256


class SetupError(RuntimeError):
    """The benchmark cannot run from this directory."""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write(workdir: Path, name: str, text: str) -> tuple[str, str]:
    path = workdir / name
    data = text.encode("ascii")
    path.write_bytes(data)
    return os.path.relpath(path, ROOT), _sha256(data)


def _permutation(n: int, seed: int) -> list[int]:
    """Identity for seed 0, otherwise a seeded shuffle of range(n)."""
    perm = list(range(n))
    if seed:
        random.Random(seed).shuffle(perm)
    return perm


def frozen_lines() -> list[str]:
    """The frozen refute9 candidates, after checking the file's hash and size."""
    try:
        data = FROZEN.read_bytes()
    except OSError as exc:
        raise SetupError(f"frozen input missing: {exc}") from None
    if _sha256(data) != FROZEN_SHA256:
        raise SetupError(f"{FROZEN.name}: SHA-256 differs from the frozen value")
    lines = data.decode("ascii").splitlines()
    if len(lines) != FROZEN_LINES:
        raise SetupError(f"{FROZEN.name}: {len(lines)} lines, expected {FROZEN_LINES}")
    return lines


def build(name: str, seed: int, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "certify":
        # the headline chain, then the long-path steps: a certificate check and a k=8 coloring
        cert = double_wheel(VALIDATE_N)
        perm = _permutation(VALIDATE_N, seed)
        relabelled = build_colored_graph(
            VALIDATE_N, [(perm[u], perm[v], c) for (u, v), c in zip(cert.edges, cert.colors)]
        )
        cert_path, cert_sha = _write(workdir, "validate.json", encode_colored(relabelled) + "\n")
        graph = double_wheel(COLOR_N).graph
        g6_path, g6_sha = _write(workdir, "color.g6", encode_graph6(graph) + "\n")
        steps = (
            Step("chain8", ("extremal", "-n", "8", "-k", "5", "--expect", "12", "--jobs", "2")),
            Step("validate", ("validate", "-k", "8", "--expect-edges", "114", "--input", cert_path)),
            Step("color", ("color", "-k", "8", "--input", g6_path), frozenset(graph.edges)),
        )
        note = ("relabels the validate certificate's vertices; the extremal step has no input "
                "and the color input keeps its natural labelling")
        return Workload(name, 2, steps, note, {cert_path: cert_sha, g6_path: g6_sha})
    if name == "refute9":
        lines = frozen_lines()
        lines = [lines[i] for i in _permutation(len(lines), seed)]
        path, digest = _write(workdir, "refute9.g6", "".join(ln + "\n" for ln in lines))
        step = Step(
            "refute9",
            ("refute", "-n", "9", "-m", "14", "-k", "5", "--no-reduced",
             "--jobs", "1", "--from-graph6", path),
        )
        return Workload(name, 1, (step,), "permutes the line order of the frozen file",
                        {path: digest})
    raise SetupError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
