from __future__ import annotations

import json

import pytest

from rbturan import __version__
from rbturan.cli import run
from rbturan.codec import encode_colored, encode_graph6
from rbturan.constructions import g5, gn
from rbturan.graphs import build_graph


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse(out: str) -> dict:
    return json.loads(out)


def test_extremal_expected_value(capsys):
    code, out, err = invoke(capsys, "extremal", "-n", "5", "-k", "5", "--expect", "7")
    assert code == 0
    doc = parse(out)
    assert doc["value"] == 7
    assert doc["tool"] == {"name": "rbturan", "version": __version__}
    assert doc["config"]["n"] == 5
    assert "= 7" in err


def test_extremal_expect_mismatch_exits_1(capsys):
    code, out, _ = invoke(capsys, "extremal", "-n", "5", "-k", "5", "--expect", "8")
    assert code == 1
    assert parse(out)["value"] == 7


def test_extremal_stdout_byte_identical_across_runs_and_jobs(capsys):
    _, out1, _ = invoke(capsys, "extremal", "-n", "6", "-k", "5")
    _, out2, _ = invoke(capsys, "extremal", "-n", "6", "-k", "5")
    assert out1 == out2
    _, out_jobs, _ = invoke(capsys, "extremal", "-n", "6", "-k", "5", "--jobs", "4")
    a, b = parse(out1), parse(out_jobs)
    a.pop("config")
    b.pop("config")
    assert a == b


def test_lemma_pass(capsys):
    code, out, err = invoke(capsys, "lemma", "bowtie-5.2")
    assert code == 0
    doc = parse(out)
    assert doc["lemmas"][0]["status"] == "PASS"
    assert doc["lemmas"][0]["classes"] == 1
    assert "PASS" in err


def test_lemma_all(capsys):
    code, out, _ = invoke(capsys, "lemma", "all")
    assert code == 0
    doc = parse(out)
    assert [rep["status"] for rep in doc["lemmas"]] == ["PASS"] * 4


def test_lemma_representatives_are_valid_documents(capsys):
    from rbturan.codec import colored_from_doc
    from rbturan.graphs import is_proper

    code, out, _ = invoke(capsys, "lemma", "all")
    assert code == 0
    for rep in parse(out)["lemmas"]:
        for item in rep["representatives"]:
            cg = colored_from_doc(item["representative"])
            assert is_proper(cg)


def test_lemma_fail_exits_1(capsys):
    # with k=6 the tip predicate genuinely fails on the bow tie
    code, out, _ = invoke(capsys, "lemma", "bowtie-5.2", "-k", "6")
    assert code == 1
    doc = parse(out)
    assert doc["lemmas"][0]["status"] == "FAIL"
    assert doc["lemmas"][0]["violations"]


def test_detect_clean_and_corrupted(capsys, tmp_path):
    clean = tmp_path / "g5.json"
    clean.write_text(encode_colored(g5()))
    code, out, err = invoke(capsys, "detect", "-k", "5", "--input", str(clean))
    assert code == 0
    assert parse(out)["rainbow_free"] is True
    assert "no rainbow P5" in err

    doc = json.loads(encode_colored(g5()))
    doc["edges"][0][2] = doc["edges"][1][2]  # two incident edges, same color
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "detect", "-k", "5", "--input", str(bad))
    assert code == 1
    assert parse(out)["proper"] is False


def test_detect_reports_witness(capsys, tmp_path):
    rainbow = tmp_path / "p5.json"
    rainbow.write_text(
        json.dumps({"n": 5, "edges": [[0, 1, 1], [1, 2, 2], [2, 3, 3], [3, 4, 4]]})
    )
    code, out, _ = invoke(capsys, "detect", "-k", "5", "--input", str(rainbow))
    assert code == 1
    assert parse(out)["witness"]["vertices"] == [0, 1, 2, 3, 4]


def test_color_sat_and_unsat(capsys):
    code, out, _ = invoke(capsys, "color", "-k", "5", "--graph6", "C~")
    assert code == 0
    doc = parse(out)
    assert doc["status"] == "SAT"
    assert doc["certificate"]["meta"]["stats"]["colors_used"] == 3
    # C4: graph6 "Cr"
    code, out, _ = invoke(capsys, "color", "-k", "3", "--graph6", "Cr")
    assert code == 1
    assert parse(out)["status"] == "UNSAT"


def test_color_budget_exit_3(capsys):
    g = build_graph(8, [(i, j) for i in range(8) for j in range(i + 1, 8) if (i + j) % 3])
    code, out, _ = invoke(
        capsys, "color", "-k", "5", "--graph6", encode_graph6(g), "--budget-nodes", "2"
    )
    assert code == 3
    assert parse(out)["status"] == "BUDGET_EXCEEDED"


def test_construct_validate(capsys):
    code, out, _ = invoke(capsys, "construct", "gn", "-n", "12", "--validate")
    assert code == 0
    doc = parse(out)
    assert doc["validation"]["passed"] is True
    assert doc["validation"]["edge_count"] == 18


def test_construct_emits_graph(capsys):
    code, out, _ = invoke(capsys, "construct", "octahedron")
    assert code == 0
    doc = parse(out)
    assert doc["graph"]["n"] == 6 and len(doc["graph"]["edges"]) == 12


def test_construct_disjoint_copies(capsys):
    code, out, _ = invoke(
        capsys,
        "construct", "disjoint-copies", "--base", "icosahedron", "--copies", "2",
        "--validate",
    )
    assert code == 0
    assert parse(out)["validation"]["edge_count"] == 60


def test_refute_pass(capsys):
    code, out, err = invoke(capsys, "refute", "-n", "6", "-m", "10", "-k", "5")
    assert code == 0
    doc = parse(out)
    assert doc["status"] == "PASS" and doc["counts"]["unsat"] == 11
    assert "PASS" in err


def test_validate_roundtrips_certificates(capsys, tmp_path):
    path = tmp_path / "gn20.json"
    path.write_text(encode_colored(gn(20)))
    code, out, _ = invoke(
        capsys, "validate", "--input", str(path), "-k", "5", "--expect-edges", "30"
    )
    assert code == 0
    assert parse(out)["passed"] is True
    code, out, _ = invoke(
        capsys, "validate", "--input", str(path), "-k", "5", "--expect-edges", "31"
    )
    assert code == 1


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["no-such-subcommand"])
    assert exc.value.code == 2
    code, _, err = invoke(capsys, "detect", "-k", "5", "--input", "/nonexistent.json")
    assert code == 2
    assert "error:" in err


def test_env_override_jobs(capsys, monkeypatch):
    monkeypatch.setenv("RBTURAN_JOBS", "2")
    code, out, _ = invoke(capsys, "extremal", "-n", "5", "-k", "5")
    assert code == 0
    assert parse(out)["config"]["jobs"] == 2


@pytest.mark.parametrize(
    "name, value, argv",
    [
        ("RBTURAN_JOBS", "two", ["extremal", "-n", "5", "-k", "5"]),
        ("RBTURAN_JOBS", "0", ["refute", "-n", "5", "-m", "8", "-k", "5"]),
        ("RBTURAN_BUDGET_NODES", "1e6", ["refute", "-n", "5", "-m", "8", "-k", "5"]),
        ("RBTURAN_BUDGET_NODES", "-5", ["color", "-k", "5", "--graph6", "C~"]),
    ],
)
def test_malformed_env_is_usage_error(capsys, monkeypatch, name, value, argv):
    monkeypatch.setenv(name, value)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_must_be_positive(capsys, jobs):
    for argv in (["extremal", "-n", "5", "-k", "5"], ["refute", "-n", "5", "-m", "8", "-k", "5"]):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err


def test_negative_budget_is_usage_error(capsys):
    for argv in (
        ["refute", "-n", "6", "-m", "10", "-k", "5"],
        ["extremal", "-n", "5", "-k", "5"],
        ["color", "-k", "5", "--graph6", "C~"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--budget-nodes", "-1"])
        assert exc.value.code == 2
        assert "--budget-nodes" in capsys.readouterr().err


def test_refute_budget_exits_3(capsys):
    code, out, _ = invoke(
        capsys, "refute", "-n", "6", "-m", "10", "-k", "5", "--budget-nodes", "3"
    )
    assert code == 3
    assert parse(out)["status"] == "BUDGET"


def test_refute_filter_flags(capsys):
    code, out, _ = invoke(capsys, "refute", "-n", "5", "-m", "8", "-k", "5", "--no-reduced")
    assert code == 0
    doc = parse(out)
    assert doc["filters"] == ["planar"]
    assert doc["counts"]["unsat"] == doc["counts"]["planar"]


def test_refute_from_graph6_file(capsys, tmp_path):
    from rbturan.generation import LevelLadder

    path = tmp_path / "level.g6"
    path.write_text(
        "".join(encode_graph6(g) + "\n" for g in LevelLadder(6).level(10))
    )
    code, out, _ = invoke(
        capsys, "refute", "-n", "6", "-m", "10", "-k", "5", "--from-graph6", str(path)
    )
    assert code == 0
    doc = parse(out)
    assert doc["status"] == "PASS"
    assert doc["source"] == f"graph6:{path}"
