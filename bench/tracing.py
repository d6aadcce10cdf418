"""Span tracing of one rbturan command, recorded from outside the package.

As a script it runs one CLI command in-process, exactly as
``python -m rbturan`` would (same parser, same call order), after wrapping
the public functions each layer exports with span recorders:

    python3 bench/tracing.py SPANS.jsonl refute -n 9 -m 14 -k 5 --from-graph6 F

Spans stay in memory and are written to SPANS.jsonl when the command ends.
Forked pool workers inherit the wrappers; each worker appends its own spans
to ``SPANS.jsonl.<pid>`` after every chunk, and a chunk's parent is the
``run_level`` span that started the pool, so worker time is attributed
across processes rather than hidden in the pool.

As a module it turns the span files into per-layer metrics.  A span's self
time is its duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# (module, attribute, span name, value recorded from the result)
TARGETS = (
    ("rbturan.generation", "LevelLadder.level", "generation.level", len),
    ("rbturan.extremal", "is_reduced", "extremal.is_reduced", int),
    ("rbturan.planarity", "is_planar", "planarity.is_planar", lambda v: int(v.planar)),
    ("rbturan.codec", "decode_graph6", "codec.decode_graph6", None),
    ("rbturan.codec", "encode_graph6", "codec.encode_graph6", None),
    ("rbturan.colorer", "find_coloring", "colorer.find_coloring", lambda out: out.nodes),
    ("rbturan.extremal", "compute_extremal", "extremal.compute_extremal", None),
    ("rbturan.extremal", "run_level", "extremal.run_level", None),
    ("rbturan.extremal", "_solve_chunk", "extremal.solve_chunk", None),
    ("rbturan.rainbow", "find_rainbow_path", "rainbow.find_rainbow_path", None),
    ("rbturan.constructions", "validate_construction", "constructions.validate", None),
)


class Recorder:
    """In-memory span list: [id, parent id, name, start, end, value] per span,
    ids being [pid, sequence number] so that they stay unique across forks."""

    def __init__(self, path: str):
        self.path = path
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[list[int]] = []
        self.seq = 0

    def wrap(self, name: str, fn, value):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pid = os.getpid()
            if pid != rec.pid:  # first span in a forked worker
                rec.pid, rec.spans = pid, []
            rec.seq += 1
            sid = [pid, rec.seq]
            parent = rec.stack[-1] if rec.stack else None
            rec.stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                rec.stack.pop()
                got = value(result) if value is not None and result is not None else None
                rec.spans.append([sid, parent, name, t0, t1, got])
                if parent is not None and parent[0] != pid:  # a worker's chunk ended
                    rec.flush(f"{rec.path}.{pid}")

        return traced

    def install(self) -> None:
        import rbturan.cli  # noqa: F401  (loads every module the CLI uses)

        for module_name, attr, name, value in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), value))
                continue
            orig = getattr(owner, attr)
            traced = self.wrap(name, orig, value)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "rbturan":
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, traced)

    def flush(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []


def load(path: Path) -> list[list]:
    """Spans of the traced process and of every worker it forked."""
    spans = []
    for part in sorted(path.parent.glob(path.name + "*")):
        with open(part, encoding="utf-8") as fh:
            spans += [json.loads(line) for line in fh]
    return spans


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[list]) -> list[float]:
    children = defaultdict(list)
    for sid, parent, _name, t0, t1, _v in spans:
        if parent is not None:
            children[tuple(parent)].append((t0, t1))
    return [
        (t1 - t0) - _covered([(max(a, t0), min(b, t1)) for a, b in children[tuple(sid)]])
        for sid, _p, _n, t0, t1, _v in spans
    ]


def layer_metrics(spans: list[list], traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced workload run (all its processes)."""
    own = defaultdict(float)
    calls = defaultdict(int)
    values = defaultdict(int)
    longest = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        name, t0, t1, value = span[2], span[3], span[4], span[5]
        own[name] += self_s
        calls[name] += 1
        values[name] += value or 0
        longest[name] = max(longest[name], t1 - t0)

    def per(a: float, b: float) -> float:
        return a / b if b else 0.0

    top = [(s[3], s[4]) for s in spans if s[1] is None]
    ladder, search = own["generation.level"], own["colorer.find_coloring"]
    return {
        "generation.ladder_s": ladder,
        "generation.classes": values["generation.level"],
        "generation.classes_per_s": per(values["generation.level"], ladder),
        "generation.share": per(ladder, traced_wall),
        "extremal.reduce_s": own["extremal.is_reduced"],
        "extremal.reduced_ratio": per(values["extremal.is_reduced"], calls["extremal.is_reduced"]),
        "extremal.orchestration_s": own["extremal.compute_extremal"]
        + own["extremal.run_level"] + own["extremal.solve_chunk"],
        "planarity.test_s": own["planarity.is_planar"],
        "planarity.tests": calls["planarity.is_planar"],
        "planarity.planar_ratio": per(values["planarity.is_planar"], calls["planarity.is_planar"]),
        "codec.decode_s": own["codec.decode_graph6"],
        "codec.encode_s": own["codec.encode_graph6"],
        "codec.lines": calls["codec.decode_graph6"] + calls["codec.encode_graph6"],
        "colorer.search_s": search,
        "colorer.graphs": calls["colorer.find_coloring"],
        "colorer.nodes": values["colorer.find_coloring"],
        "colorer.nodes_per_s": per(values["colorer.find_coloring"], search),
        "colorer.slowest_graph_s": longest["colorer.find_coloring"],
        "colorer.share": per(search, traced_wall),
        "rainbow.detect_s": own["rainbow.find_rainbow_path"],
        "rainbow.calls": calls["rainbow.find_rainbow_path"],
        "trace.unattributed_s": traced_wall - _covered(top),
        "trace.overhead_s": traced_wall - untraced_wall,
    }


def main(argv: list[str]) -> int:
    rec = Recorder(argv[0])
    rec.install()
    from rbturan.cli import run

    try:
        return run(argv[1:])
    finally:
        sys.stdout.flush()
        rec.flush(rec.path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
