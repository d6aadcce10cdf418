from __future__ import annotations

import itertools
import json

import pytest

from rbturan import __version__, cli, extremal
from rbturan.cli import run
from rbturan.codec import encode_colored, encode_graph6
from rbturan.constructions import double_wheel, g5, gn
from rbturan.generation import LevelLadder
from rbturan.graphs import ColoredGraph, GraphError, build_graph

from helpers import fresh_python


# the built-in cap; the cap tests derive every case from it
CAP = extremal.BUILTIN_MAX_N
# the first n above the cap with no claimed k=4 construction (k4-blocks needs 4 | n)
DESCENT_N = next(n for n in itertools.count(CAP + 1) if n % 4)


def invoke(capsys, *argv):
    """Run the CLI and check its stdout contract: a usage error writes
    nothing, and any other output is one JSON line naming the tool and the
    subcommand."""
    code = run(list(argv))
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == ""
    if captured.out:
        assert captured.out.endswith("\n") and captured.out.count("\n") == 1
        doc = json.loads(captured.out)
        assert doc["tool"] == {"name": "rbturan", "version": __version__}
        assert doc["subcommand"] == argv[0]
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


@pytest.mark.parametrize("graph6", ["@", "A?"])
def test_color_edgeless_graph_is_sat(capsys, graph6):
    # max_colors defaults to e(g) = 0, and the empty coloring is SAT
    code, out, _ = invoke(capsys, "color", "-k", "5", "--graph6", graph6)
    assert code == 0
    doc = parse(out)
    assert doc["status"] == "SAT" and doc["config"]["max_colors"] == 0
    assert doc["certificate"]["edges"] == []
    code, out, err = invoke(capsys, "color", "-k", "5", "--graph6", graph6, "--max-colors", "0")
    assert code == 2 and out == "" and "max_colors" in err


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


def test_construct_disjoint_copies_validates_the_edge_count(capsys, monkeypatch):
    # the expected count is copies x the base family's count, not the union's own
    real_make = cli.make

    def make_minus_one_edge(*args):
        cg = real_make(*args)
        return ColoredGraph(build_graph(cg.n, cg.edges[:-1]), cg.colors[:-1])

    monkeypatch.setattr(cli, "make", make_minus_one_edge)
    code, out, err = invoke(
        capsys,
        "construct", "disjoint-copies", "--base", "octahedron", "--copies", "3",
        "--validate",
    )
    assert code == 1 and "FAIL" in err
    validation = parse(out)["validation"]
    assert validation["edge_count"] == 35 and validation["expected_edges"] == 36


def test_refute_pass(capsys):
    code, out, err = invoke(capsys, "refute", "-n", "6", "-m", "10", "-k", "5")
    assert code == 0
    doc = parse(out)
    assert doc["status"] == "PASS" and doc["counts"]["unsat"] == 11
    assert "PASS" in err


@pytest.mark.parametrize(
    "n, m, k, message", [("5", "-1", "5", "m >= 0"), ("4", "7", "1", "k >= 3")]
)
def test_refute_rejects_malformed_level(capsys, n, m, k, message):
    code, out, err = invoke(capsys, "refute", "-n", n, "-m", m, "-k", k)
    assert code == 2 and out == ""
    assert message in err


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


@pytest.mark.parametrize(
    "name, value",
    [
        ("RBTURAN_JOBS", "2"),
        ("RBTURAN_JOBS", "two"),
        ("RBTURAN_BUDGET_NODES", "1"),
        ("RBTURAN_BUDGET_NODES", "two"),
    ],
)
def test_settings_are_not_read_from_the_environment(capsys, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    code, out, _ = invoke(capsys, "extremal", "-n", "5", "-k", "5")
    assert code == 0
    config = parse(out)["config"]
    assert (config["jobs"], config["budget_nodes"]) == (1, None)


@pytest.mark.parametrize("subcommand", ["extremal", "refute"])
def test_help_says_jobs_is_only_echoed(capsys, subcommand):
    with pytest.raises(SystemExit) as exc:
        run([subcommand, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # argparse wraps the help
    assert (
        "--jobs JOBS kept for command lines that pass it: accepted (N >= 1) and echoed in "
        "config; every search runs in one process"
    ) in text


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


def test_chain_beyond_builtin_cap_names_its_levels(capsys, tmp_path):
    code, out, err = invoke(capsys, "extremal", "-n", "70", "-k", "5")
    assert code == 2 and out == ""
    assert f"n'={CAP + 1}..70" in err
    # a file feeds only the top level, so n'=CAP+1 still needs built-in generation
    top = CAP + 2
    path = tmp_path / "level.g6"
    path.write_text(encode_graph6(gn(top).graph) + "\n")
    code, out, err = invoke(
        capsys, "extremal", "-n", str(top), "-k", "5", "--from-graph6", str(path)
    )
    assert code == 2 and out == ""
    assert f"n'={CAP + 1}," in err and f"top level n'={top}" in err
    # no construction at (DESCENT_N, k=4): level descent has no file to read
    code, out, err = invoke(capsys, "extremal", "-n", str(DESCENT_N), "-k", "4")
    assert code == 2 and out == ""
    assert "level descent is built-in only" in err


def test_single_level_beyond_builtin_cap_asks_for_that_level(capsys, tmp_path):
    # k=3: the matching gives n//2, so the plan is the one level (n, n//2 + 1)
    code, out, err = invoke(capsys, "extremal", "-n", "40", "-k", "3")
    assert code == 2 and out == ""
    assert "level (40,21)" in err and "--from-graph6" in err
    assert f"n'={CAP + 1}" not in err and "top level" not in err
    n, m = CAP + 1, (CAP + 1) // 2 + 1
    code, out, err = invoke(capsys, "extremal", "-n", str(n), "-k", "3")
    assert code == 2 and out == ""
    assert f"level ({n},{m})" in err and "top level" not in err
    # and following the hint works
    path = tmp_path / "level.g6"
    path.write_text("".join(encode_graph6(g) + "\n" for g in LevelLadder(n).level(m)))
    code, out, _ = invoke(capsys, "extremal", "-n", str(n), "-k", "3", "--from-graph6", str(path))
    assert code == 0
    assert parse(out)["refutation"]["status"] == "PASS"


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["-n", "70", "-k", "5"],
            "refuting the value 105 at n=70, k=5 needs built-in generation for "
            f"n'={CAP + 1}..70, beyond the cap n <= {CAP}; --from-graph6 feeds only the "
            "top level n'=70",
        ),
        (
            ["-n", str(DESCENT_N), "-k", "4"],
            f"no known construction for n={DESCENT_N}, k=4, so level descent needs built-in "
            f"generation for n'={DESCENT_N}, beyond the cap n <= {CAP}; level descent is "
            "built-in only",
        ),
        (
            ["-n", "40", "-k", "3"],
            "refuting the value 20 at n=40, k=3 needs built-in generation for n'=40, "
            f"beyond the cap n <= {CAP}; supply the level (40,21) with --from-graph6",
        ),
        (
            ["-n", str(CAP + 1), "-k", "3"],
            f"refuting the value {(CAP + 1) // 2} at n={CAP + 1}, k=3 needs built-in "
            f"generation for n'={CAP + 1}, beyond the cap n <= {CAP}; supply the level "
            f"({CAP + 1},{(CAP + 1) // 2 + 1}) with --from-graph6",
        ),
        (
            ["-n", "6", "-k", "4", "--from-graph6", "F"],
            "level descent is built-in only, and --from-graph6 F would not be read",
        ),
        (
            ["-n", "6", "-k", "6", "--from-graph6", "F"],
            "the value 12 at n=6, k=6 is the planar edge maximum, so no level is "
            "refuted, and --from-graph6 F would not be read",
        ),
        (
            ["-n", str(CAP + 2), "-k", "5", "--from-graph6", "F"],
            f"refuting the value {3 * (CAP + 2) // 2} at n={CAP + 2}, k=5 needs built-in "
            f"generation for n'={CAP + 1}, beyond the cap n <= {CAP}; --from-graph6 feeds "
            f"only the top level n'={CAP + 2}",
        ),
    ],
    ids=[
        "chain-70", "descent-9", "level-40", "level-9",
        "descent-file", "planar-max-file", "chain-10-file",
    ],
)
def test_candidate_source_rule_refuses_before_any_level(capsys, monkeypatch, argv, message):
    # one rule: a file feeds only the top level of a claimed plan, every other
    # level is built-in up to the cap; both checks run before any level does
    def no_level(*args, **kwargs):
        raise AssertionError("a level ran")

    monkeypatch.setattr(extremal, "run_level", no_level)
    code, out, err = invoke(capsys, "extremal", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_searched_achiever_passes_the_construction_gate(capsys, monkeypatch):
    # a descent's achiever, the first SAT certificate of its highest SAT
    # level, passes the gate a claimed construction passes: one whose
    # edges all share one color is improper, and the run is a usage error
    solve = extremal._solve_chunk

    def monochrome(cert):
        return ColoredGraph(cert.graph, (1,) * len(cert.edges))

    def one_color(*args):
        return [
            out._replace(certificate=monochrome(out.certificate)) if out.sat else out
            for out in solve(*args)
        ]

    monkeypatch.setattr(extremal, "_solve_chunk", one_color)
    with pytest.raises(GraphError, match="achiever search:index-0 failed validation"):
        extremal.compute_extremal(5, 4)
    code, out, err = invoke(capsys, "extremal", "-n", "5", "-k", "4")
    assert (code, out) == (2, "") and "achiever search:index-0" in err


def test_refute_budget_exits_3(capsys):
    code, out, _ = invoke(
        capsys, "refute", "-n", "6", "-m", "10", "-k", "5", "--budget-nodes", "3"
    )
    assert code == 3
    assert parse(out)["status"] == "BUDGET"


def test_extremal_descent_budget_exits_3(capsys):
    # no construction is known at (6, k=4), so the value comes from level
    # descent, and a level that runs out of budget leaves no value to report
    code, out, err = invoke(capsys, "extremal", "-n", "6", "-k", "4", "--budget-nodes", "1")
    assert code == 3 and out == ""
    assert "level (6,12) exhausted the search budget" in err


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


@pytest.mark.parametrize(
    "late, message",
    [
        ("D?", "{path}:22: graph6 body has 1 characters, expected 2 for n=5"),
        ("D_?", "{path}: graph6 candidate D_? has n=5, m=1; expected (6,9)"),
    ],
    ids=["malformed", "wrong-shape"],
)
def test_graph6_file_error_after_the_first_block(capsys, monkeypatch, tmp_path, late, message):
    # with blocks of 5, the 12 reduced planar (6,9) classes before line 22
    # fill two blocks, but a level is searched in key order only once the
    # whole file is read, so no block is searched before line 22 fails
    monkeypatch.setattr(extremal, "BLOCK", 5)
    lines = [encode_graph6(g) for g in LevelLadder(6).level(9)]
    path = tmp_path / "level.g6"
    path.write_text("".join(line + "\n" for line in lines + [late] + lines))
    solve, searched = extremal._solve_chunk, []
    monkeypatch.setattr(
        extremal, "_solve_chunk", lambda block, *rest: searched.append(block) or solve(block, *rest)
    )
    code, out, err = invoke(
        capsys, "refute", "-n", "6", "-m", "9", "-k", "5", "--from-graph6", str(path)
    )
    assert code == 2 and out == ""
    assert searched == []
    assert err == "error: " + message.format(path=path) + "\n"


def test_budgeted_graph6_file_error_before_any_search(capsys, monkeypatch, tmp_path):
    # a budgeted level is searched in key order too, one key at a time, so
    # a bad line fails before any candidate is searched
    lines = [encode_graph6(g) for g in LevelLadder(6).level(9)]
    path = tmp_path / "level.g6"
    path.write_text("".join(line + "\n" for line in lines + ["D?"]))
    solve, searched = extremal._solve_chunk, []
    monkeypatch.setattr(
        extremal, "_solve_chunk", lambda block, *rest: searched.append(block) or solve(block, *rest)
    )
    argv = ["refute", "-n", "6", "-m", "9", "-k", "5", "--from-graph6", str(path)]
    code, out, err = invoke(capsys, *argv, "--budget-nodes", "1000")
    assert (code, out, searched) == (2, "", [])
    bad_line = len(lines) + 1
    assert err == f"error: {path}:{bad_line}: graph6 body has 1 characters, expected 2 for n=5\n"
    # and with the bad line gone, every candidate is a group of its own
    path.write_text("".join(line + "\n" for line in lines))
    code, out, _ = invoke(capsys, *argv, "--budget-nodes", "1000")
    # 9 edges is floor(3n/2) at n=6, so some candidate is SAT
    assert code == 1 and len(searched) == parse(out)["counts"]["planar"] > 1


# three (9,14) graphs: a path with six chords from one vertex
NINE_FOURTEEN = [
    encode_graph6(build_graph(9, [(i, i + 1) for i in range(8)] + [(s, j) for j in chords]))
    for s, chords in ((0, range(2, 8)), (1, range(3, 9)), (0, range(3, 9)))
]


@pytest.mark.parametrize(
    "lines, message",
    [
        ([], "{path} holds no graph6 line"),
        (NINE_FOURTEEN + ["H?"], "{path}:4: graph6 body has 1 characters, expected 6 for n=9"),
    ],
    ids=["empty", "bad-last-line"],
)
def test_file_fed_level_runs_before_the_builtin_ones(capsys, monkeypatch, tmp_path, lines, message):
    # a bad file is an error before any built-in chain level is searched
    path = tmp_path / "level.g6"
    path.write_text("".join(line + "\n" for line in lines))
    real, calls = extremal.run_level, []

    def recorded(n, m, k, **kwargs):
        calls.append((n, m, kwargs["graph6_path"]))
        return real(n, m, k, **kwargs)

    monkeypatch.setattr(extremal, "run_level", recorded)
    code, out, err = invoke(
        capsys, "extremal", "-n", "9", "-k", "5", "--from-graph6", str(path)
    )
    assert (code, out, err) == (2, "", "error: " + message.format(path=path) + "\n")
    assert calls == [(9, 14, str(path))]


def test_extremal_rejects_from_graph6_it_would_not_read(capsys):
    # no construction at (6, k=4): level descent is built-in only
    code, out, err = invoke(
        capsys, "extremal", "-n", "6", "-k", "4", "--from-graph6", "/nonexistent.g6"
    )
    assert code == 2 and out == ""
    assert "level descent is built-in only" in err
    # the octahedron reaches the planar maximum: no level is refuted
    code, out, err = invoke(
        capsys, "extremal", "-n", "6", "-k", "6", "--from-graph6", "/nonexistent.g6"
    )
    assert code == 2 and out == ""
    assert "planar edge maximum" in err and "would not be read" in err


def test_color_empty_input_is_usage_error(capsys, tmp_path):
    path = tmp_path / "empty.g6"
    path.write_text("")
    code, out, err = invoke(capsys, "color", "-k", "5", "--input", str(path))
    assert code == 2 and out == ""
    assert "is empty" in err


def test_color_non_utf8_input_is_usage_error(capsys, tmp_path):
    path = tmp_path / "latin1.g6"
    path.write_bytes(b"C\xff\n")
    code, out, err = invoke(capsys, "color", "-k", "5", "--input", str(path))
    assert code == 2 and out == ""
    assert "not UTF-8" in err


def test_refute_non_ascii_graph6_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "level.g6"
    path.write_bytes("Eé\n".encode("utf-8"))
    code, out, err = invoke(
        capsys, "refute", "-n", "6", "-m", "10", "-k", "5", "--from-graph6", str(path)
    )
    assert code == 2 and out == ""
    assert "non-ASCII" in err


def test_graph6_line_with_a_set_padding_bit_is_usage_error(capsys, tmp_path):
    # "Dhd" would read as the 5-cycle "Dhc" if its padding were dropped
    path = tmp_path / "level.g6"
    path.write_text("Dhd\n")
    code, out, err = invoke(
        capsys, "refute", "-n", "5", "-m", "5", "-k", "5", "--no-reduced", "--from-graph6", str(path)
    )
    assert code == 2 and out == ""
    assert err == f"error: {path}:1: graph6 padding bits are not zero\n"
    code, out, err = invoke(capsys, "color", "-k", "5", "--graph6", "Dhd")
    assert code == 2 and out == ""
    assert "padding bits are not zero" in err


@pytest.mark.parametrize("subcommand", ["detect", "validate"])
def test_edges_that_are_not_a_list_are_usage_error(capsys, tmp_path, subcommand):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3, "edges": 5}')
    code, out, err = invoke(capsys, subcommand, "-k", "5", "--input", str(path))
    assert code == 2 and out == ""
    assert "edges must be a list" in err


@pytest.mark.parametrize("subcommand", ["detect", "validate", "color"])
def test_deeply_nested_json_is_usage_error(capsys, tmp_path, subcommand):
    # the JSON parser recurses per nesting level; running out of stack is
    # malformed input, not a property that fails
    depth = 100_000
    path = tmp_path / "deep.json"
    path.write_text('{"n": ' + "[" * depth + "]" * depth + "}")
    code, out, err = invoke(capsys, subcommand, "-k", "3", "--input", str(path))
    assert code == 2 and out == ""
    assert err.count("error:") == 1 and "nested too deeply" in err


@pytest.mark.parametrize("family, n", [("g5", 9), ("g7", 5), ("octahedron", 7), ("icosahedron", 6)])
def test_fixed_size_family_rejects_other_n(capsys, family, n):
    code, out, err = invoke(capsys, "construct", family, "-n", str(n), "--validate")
    assert code == 2 and out == ""
    assert "fixed" in err


def test_color_multi_line_graph6_input_is_usage_error(capsys, tmp_path):
    # a level file is not one graph: searching only its first line would
    # report one verdict for a file of several graphs
    path = tmp_path / "two.g6"
    path.write_text("C~\n\nCr\n")
    code, out, err = invoke(capsys, "color", "-k", "3", "--input", str(path))
    assert code == 2 and out == ""
    assert "holds 2 graph6 lines" in err
    # blank lines around a single graph do not count
    path.write_text("\nCr\n\n")
    code, out, _ = invoke(capsys, "color", "-k", "3", "--input", str(path))
    assert code == 1 and parse(out)["status"] == "UNSAT"


def test_validate_boolean_vertex_count_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bool.json"
    path.write_text('{"n": true, "edges": []}')
    code, out, err = invoke(capsys, "validate", "-k", "5", "--input", str(path))
    assert code == 2 and out == ""
    assert "invalid vertex count" in err


def test_color_rejects_both_graph_sources(capsys):
    # the file named by --input would otherwise go unread
    with pytest.raises(SystemExit) as exc:
        run(["color", "-k", "5", "--graph6", "C~", "--input", "/nonexistent.g6"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not allowed with argument" in captured.err


@pytest.mark.parametrize(
    "extra", [["--copies", "3", "--base", "octahedron"], ["--copies", "3"], ["--base", "g5"]]
)
def test_construct_rejects_copies_and_base_outside_disjoint_copies(capsys, extra):
    code, out, err = invoke(capsys, "construct", "gn", "-n", "8", *extra)
    assert code == 2 and out == ""
    assert "disjoint-copies only" in err


@pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank"])
@pytest.mark.parametrize(
    "argv",
    [["extremal", "-n", "9", "-k", "5", "--expect", "13"], ["refute", "-n", "9", "-m", "14", "-k", "5"]],
    ids=["extremal", "refute"],
)
def test_graph6_candidate_file_without_graphs_is_usage_error(capsys, tmp_path, text, argv):
    # a level with no candidates would otherwise be refuted vacuously
    path = tmp_path / "empty.g6"
    path.write_text(text)
    code, out, err = invoke(capsys, *argv, "--from-graph6", str(path))
    assert code == 2 and out == ""
    assert "holds no graph6 line" in err


def test_color_input_reads_a_60_vertex_graph6_file_as_graph6(capsys, tmp_path):
    # "{" is the graph6 size byte of n=60, so the text starts like JSON
    text = encode_graph6(build_graph(60, [(i, i + 1) for i in range(59)]))
    assert text.startswith("{")
    path = tmp_path / "p60.g6"
    path.write_text(text + "\n")
    code, out, err = invoke(capsys, "color", "-k", "3", "--input", str(path))
    assert code == 1, err
    assert invoke(capsys, "color", "-k", "3", "--graph6", text)[:2] == (1, out)
    assert parse(out)["status"] == "UNSAT"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["extremal", "-n", "5", "-k", "5", "--budget-nodes", "two"],
         "argument --budget-nodes: expected an integer >= 0, got 'two'"),
        (["extremal", "-n", "5", "-k", "5", "--jobs", "two"],
         "argument --jobs: expected an integer >= 1, got 'two'"),
        (["color", "-k", "5"], "supply --graph6 TEXT or --input FILE"),
        (["color", "-k", "5", "--graph6", ""], "empty graph6 line"),
        (["color", "-k", "5", "--graph6", "&B?"], "digraph6 input is not supported"),
        (["validate", "-k", "5", "--input", "list.json"], "document must be a JSON object"),
        (["construct", "matching", "-n", "0"], "matching needs n >= 1, got n=0"),
        (["construct", "disjoint-copies", "--base", "g5", "--copies", "0"],
         "copies must be >= 1, got 0"),
        (["extremal", "-n", "0", "-k", "5"], "need n >= 1, got n=0"),
        (["extremal", "-n", "5", "-k", "2"], "need k >= 3, got k=2"),
    ],
    ids=[
        "budget-not-int", "jobs-not-int", "color-no-source", "color-empty-graph6",
        "color-digraph6", "validate-list", "matching-n-0", "copies-0", "extremal-n-0",
        "extremal-k-2",
    ],
)
def test_usage_error_exits_2_with_its_message(capsys, monkeypatch, tmp_path, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.json").write_text("[]")
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse rejects a flag's value itself
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.endswith(f"error: {message}\n"), captured.err


def test_module_entry_exits_with_the_verdict():
    """`python -m rbturan` hands run()'s exit code to the interpreter."""
    done = fresh_python("-m", "rbturan", "--version")
    assert done.returncode == 0 and __version__ in done.stdout
    done = fresh_python("-m", "rbturan", "extremal", "-n", "6", "-k", "3", "--expect", "4")
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["subcommand"] == "extremal"
    done = fresh_python("-m", "rbturan", "refute", "-n", "5", "-m", "8", "-k", "2")
    assert done.returncode == 2 and done.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [["-c", "import rbturan.cli"], ["-m", "rbturan", "--version"]],
    ids=["import", "version"],
)
def test_cli_start_does_not_import_multiprocessing(argv):
    """Every search runs in one process, so starting the CLI loads no
    process machinery."""
    done = fresh_python("-X", "importtime", *argv)
    assert done.returncode == 0, done.stderr
    # -X importtime writes one "import time: self | cumulative | name" line per module
    names = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
             if line.startswith("import time:")}
    assert "rbturan.cli" in names
    assert "multiprocessing" not in names


# runs cli.run in the child, then names on stderr, as its last line, each
# module of `unwanted` that the run loaded
_RUN_AND_LIST_UNWANTED = """\
import sys
from rbturan.cli import run
try:
    run(sys.argv[1:])
except SystemExit:  # --version exits from the parser
    pass
unwanted = ("_hashlib", "hashlib", "dataclasses", "inspect")
sys.stderr.write("\\n" + " ".join(m for m in unwanted if m in sys.modules))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["--version"],
        ["refute", "-n", "6", "-m", "10", "-k", "5"],
        ["extremal", "-n", "6", "-k", "5"],
        ["validate", "-k", "8", "--input", "{cert}"],
        ["color", "-k", "5", "--input", "{g6}"],
    ],
    ids=["version", "refute", "extremal", "validate", "color"],
)
def test_no_run_loads_openssl(tmp_path, argv):
    """The level digest takes SHA-256 from the interpreter's own module, so
    no subcommand maps OpenSSL's libcrypto; and the records are NamedTuples,
    so none imports dataclasses, or inspect through it."""
    cert, g6 = tmp_path / "cert.json", tmp_path / "g.g6"
    cert.write_text(encode_colored(double_wheel(10)) + "\n")
    g6.write_text(encode_graph6(gn(8).graph) + "\n")
    argv = [arg.format(cert=cert, g6=g6) for arg in argv]
    done = fresh_python("-c", _RUN_AND_LIST_UNWANTED, *argv)
    assert done.returncode == 0, done.stderr
    assert done.stderr.rsplit("\n", 1)[1] == "", done.stderr
