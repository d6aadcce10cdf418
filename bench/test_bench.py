"""Tests of the benchmark's own pieces: the correctness checker must reject
tampered reports, span self times must be computed correctly, the seeded
inputs must be deterministic and the launcher must measure and time out.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys

import pytest

import check
import tracing
import workloads
from rbturan.codec import colored_to_doc
from rbturan.constructions import double_wheel
from rbturan.graphs import build_colored_graph


def _level(n, m, counts, status="PASS"):
    return {"n": n, "m": m, "k": 5, "status": status, "nodes": 0, "digest": "x",
            "counts": dict(zip(check.COUNT_KEYS, counts))}


def _chain8_doc():
    chain = [_level(n, m, c) for (n, m), c in check.CHAIN8_LEVELS.items()]
    return {"subcommand": "extremal", "value": 12, "status": "OK", "chain": chain,
            "refutation": chain[-1]}


def _refute9_doc():
    return {"subcommand": "refute", **_level(9, 14, check.REFUTE9_COUNTS)}


def _color_doc(cert):
    return {"subcommand": "color", "status": "SAT", "nodes": 1, "certificate": colored_to_doc(cert)}


WHEEL = double_wheel(workloads.COLOR_N)
EDGES = frozenset(WHEEL.edges)
GOOD = {
    "chain8": _chain8_doc(),
    "refute9": _refute9_doc(),
    "validate": {"subcommand": "validate", "passed": True, "edge_count": 114},
    "color": _color_doc(WHEEL),
}


def _problems(kind, doc, rc=0):
    return check.problems(kind, rc, json.dumps(doc) + "\n", EDGES if kind == "color" else None)


@pytest.mark.parametrize("kind", sorted(GOOD))
def test_good_reports_pass(kind):
    assert _problems(kind, GOOD[kind]) == []


@pytest.mark.parametrize("kind", sorted(GOOD))
def test_wrong_exit_code_fails(kind):
    assert _problems(kind, GOOD[kind], rc=1)


@pytest.mark.parametrize("kind", sorted(GOOD))
def test_unparsable_report_fails(kind):
    assert check.problems(kind, 0, "Traceback (most recent call last):\n", EDGES)


def test_sat_inside_refute9_fails():
    doc = copy.deepcopy(GOOD["refute9"])
    doc["counts"]["unsat"] -= 1
    doc["counts"]["sat"] += 1
    assert _problems("refute9", doc)
    doc["status"] = "FAIL"
    assert _problems("refute9", doc)


@pytest.mark.parametrize("key", check.COUNT_KEYS)
def test_count_off_by_one_fails(key):
    doc = copy.deepcopy(GOOD["chain8"])
    doc["chain"][-1]["counts"][key] += 1
    assert _problems("chain8", doc)
    doc = copy.deepcopy(GOOD["refute9"])
    doc["counts"][key] -= 1
    assert _problems("refute9", doc)


def test_missing_chain_level_fails():
    doc = copy.deepcopy(GOOD["chain8"])
    del doc["chain"][0]
    assert _problems("chain8", doc)


def test_wrong_value_or_validation_fails():
    assert _problems("chain8", {**GOOD["chain8"], "value": 13})
    assert _problems("validate", {**GOOD["validate"], "passed": False})
    assert _problems("validate", {**GOOD["validate"], "edge_count": 113})


def test_color_certificate_with_rainbow_p8_fails():
    # every edge its own color: proper, and every 8-vertex path is rainbow
    rainbow = build_colored_graph(
        WHEEL.n, [(u, v, i + 1) for i, (u, v) in enumerate(WHEEL.edges)])
    problems = _problems("color", _color_doc(rainbow))
    assert problems and "rainbow P8" in problems[0]


def test_color_certificate_improper_or_other_graph_fails():
    colors = list(WHEEL.colors)
    colors[1] = colors[0]  # edges 0 and 1 share the hub vertex
    bad = build_colored_graph(WHEEL.n, [(u, v, c) for (u, v), c in zip(WHEEL.edges, colors)])
    assert _problems("color", _color_doc(bad))
    smaller = build_colored_graph(WHEEL.n, [(u, v, c) for (u, v), c in
                                            list(zip(WHEEL.edges, WHEEL.colors))[1:]])
    assert _problems("color", _color_doc(smaller))
    assert _problems("color", {"subcommand": "color", "status": "UNSAT", "nodes": 5})


def test_self_time_subtracts_union_of_children():
    spans = [
        [[1, 1], None, "extremal.run_level", 0.0, 10.0, None],
        # two workers' chunks overlap in time; their parent lives in another process
        [[2, 1], [1, 1], "extremal.solve_chunk", 1.0, 6.0, None],
        [[3, 1], [1, 1], "extremal.solve_chunk", 2.0, 7.0, None],
        [[2, 2], [2, 1], "colorer.find_coloring", 1.5, 5.5, 40],
        [[3, 2], [3, 1], "colorer.find_coloring", 2.5, 4.5, 2],
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 2.0])
    m = tracing.layer_metrics(spans, traced_wall=12.0, untraced_wall=11.0)
    assert m["colorer.search_s"] == pytest.approx(6.0)
    assert m["colorer.nodes"] == 42 and m["colorer.graphs"] == 2
    assert m["colorer.slowest_graph_s"] == pytest.approx(4.0)
    assert m["extremal.orchestration_s"] == pytest.approx(8.0)
    assert m["trace.unattributed_s"] == pytest.approx(2.0)
    assert m["trace.overhead_s"] == pytest.approx(1.0)
    assert m["generation.classes_per_s"] == 0.0  # idle layer, no division by zero


def test_recorder_wraps_and_nests():
    rec = tracing.Recorder("unused")
    inner = rec.wrap("codec.decode_graph6", lambda: 3, None)
    outer = rec.wrap("generation.level", lambda: [inner(), inner()], len)
    assert outer() == [3, 3]
    (a, pa, *_), (b, pb, *_), (c, pc, name, t0, t1, value) = rec.spans
    assert pa == pb == c and pc is None and (name, value) == ("generation.level", 2)


def test_inputs_are_seeded(tmp_path):
    frozen = workloads.frozen_lines()
    natural = workloads.build("refute9", 0, tmp_path / "a")
    (path, digest), = natural.inputs.items()
    assert digest == workloads.FROZEN_SHA256
    shuffled = workloads.build("refute9", 7, tmp_path / "b")
    again = workloads.build("refute9", 7, tmp_path / "c")
    assert list(shuffled.inputs.values()) == list(again.inputs.values()) != [digest]
    lines = (workloads.ROOT / next(iter(shuffled.inputs))).read_text().splitlines()
    assert sorted(lines) == sorted(frozen)
    lp0 = workloads.build("certify", 0, tmp_path / "d")
    lp7 = workloads.build("certify", 7, tmp_path / "e")
    sha0, sha7 = list(lp0.inputs.values()), list(lp7.inputs.values())
    assert sha0[0] != sha7[0] and sha0[1] == sha7[1]  # only the certificate is relabelled
    with pytest.raises(workloads.SetupError):
        workloads.build("nope", 0, tmp_path / "f")


def _launch(tmp_path, limit, *command):
    out = subprocess.run(
        [sys.executable, str(workloads.BENCH / "launch.py"), str(limit),
         str(tmp_path / "out"), str(tmp_path / "err"), *command],
        capture_output=True, text=True, timeout=30, check=True)
    return json.loads(out.stdout)


def test_launcher_reports_child_and_kills_at_limit(tmp_path):
    used = _launch(tmp_path, 30, sys.executable, "-c", "print('hi'); raise SystemExit(3)")
    assert used["returncode"] == 3 and (tmp_path / "out").read_text() == "hi\n"
    assert used["wall_s"] > 0 and used["cpu_s"] > 0 and used["rss_mb"] > 1
    used = _launch(tmp_path, 0.5, sys.executable, "-c", "import time; time.sleep(20)")
    assert used["returncode"] == -9 and used["wall_s"] < 10


def test_declared_metrics_match_what_is_measured():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    measured = tracing.layer_metrics([], traced_wall=1.0, untraced_wall=1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(measured)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}
    assert spec["paths"] == ["bench"] and set(spec["command"]) == {"python3", "bench/run.py"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
