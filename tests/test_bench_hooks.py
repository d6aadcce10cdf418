"""The benchmark's tracer wraps functions of the package by name and records
a value from some of their results (bench/tracing.py, TARGETS).  A renamed
function or result field would otherwise surface only in a traced benchmark
run."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from rbturan.colorer import find_coloring
from rbturan.extremal import is_reduced
from rbturan.generation import LevelLadder
from rbturan.graphs import build_graph
from rbturan.planarity import is_planar

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


def test_every_tracer_target_resolves():
    for module_name, attr, name, _value in _targets():
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), (module_name, attr, name)
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr, name)


def test_tracer_values_read_the_results_they_name():
    k4 = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    k5 = build_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    # (call, the value the tracer must record from its result)
    expected = {
        # 4 vertices, 3 edges: a triangle and an isolated vertex, a path, a star
        "generation.level": (lambda: LevelLadder(4).level(3), 3),
        "extremal.is_reduced": (lambda: is_reduced(k4), 1),
        "planarity.is_planar": (lambda: is_planar(k5), 0),
        "colorer.find_coloring": (lambda: find_coloring(k4, 4), find_coloring(k4, 4).nodes),
    }
    recorded = {name: value for _m, _a, name, value in _targets() if value is not None}
    assert set(recorded) == set(expected)
    assert expected["colorer.find_coloring"][1] > 0
    for name, value in recorded.items():
        call, want = expected[name]
        assert value(call()) == want, name
