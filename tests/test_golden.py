"""Golden stdout: the SHA-256 of the report bytes and the exit code of a
fixed list of CLI commands.

The digests pin the deterministic stdout contract across refactors: a
change that alters report bytes must update this table on purpose.  File
commands run from a temporary directory with a relative path, so the
``config.input`` bytes do not depend on where the suite runs.

Regenerate (only when a byte change is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from rbturan.cli import run
from rbturan.codec import encode_graph6
from rbturan.constructions import double_wheel
from rbturan.generation import LevelLadder

CERT = "gn12.json"
WHEEL = "double_wheel_20.json"
LEVEL = "level_6_10.g6"
ONE_GRAPH = "c.g6"

COMMANDS: dict[str, list[str]] = {
    "extremal-5-5-expect": ["extremal", "-n", "5", "-k", "5", "--expect", "7"],
    "extremal-6-4-descent": ["extremal", "-n", "6", "-k", "4"],
    "extremal-6-4-descent-jobs-2": ["extremal", "-n", "6", "-k", "4", "--jobs", "2"],
    "extremal-6-3-matching": ["extremal", "-n", "6", "-k", "3"],
    "extremal-4-4-k4-blocks": ["extremal", "-n", "4", "-k", "4"],
    "extremal-6-6-octahedron": ["extremal", "-n", "6", "-k", "6"],
    "extremal-12-7-icosahedron": ["extremal", "-n", "12", "-k", "7"],
    "extremal-10-8-double-wheel": ["extremal", "-n", "10", "-k", "8"],
    "extremal-9-8-k2-path": ["extremal", "-n", "9", "-k", "8"],
    "extremal-7-5-chain": ["extremal", "-n", "7", "-k", "5"],
    "extremal-8-5-jobs-2": ["extremal", "-n", "8", "-k", "5", "--jobs", "2"],
    "extremal-6-5-jobs-2": ["extremal", "-n", "6", "-k", "5", "--jobs", "2"],
    "extremal-6-5-from-graph6": [
        "extremal", "-n", "6", "-k", "5", "--from-graph6", LEVEL,
    ],
    "refute-6-10-5": ["refute", "-n", "6", "-m", "10", "-k", "5"],
    "refute-5-8-5-unfiltered": [
        "refute", "-n", "5", "-m", "8", "-k", "5", "--no-reduced", "--no-planar",
    ],
    "color-5-C~": ["color", "-k", "5", "--graph6", "C~"],
    "color-5-input-C~": ["color", "-k", "5", "--input", ONE_GRAPH],
    "color-8-double-wheel-18": [
        "color", "-k", "8", "--graph6", encode_graph6(double_wheel(18).graph),
    ],
    "lemma-all": ["lemma", "all"],
    "lemma-bowtie-k6-violations": ["lemma", "bowtie-5.2", "-k", "6"],
    "construct-k4-blocks": ["construct", "k4-blocks", "-n", "8", "--validate"],
    "construct-g5": ["construct", "g5", "--validate"],
    "construct-g7": ["construct", "g7", "--validate"],
    "construct-gn": ["construct", "gn", "-n", "30", "--validate"],
    "construct-double-wheel": ["construct", "double-wheel", "-n", "20", "--validate"],
    "construct-k2-path": ["construct", "k2-path", "-n", "21", "--validate"],
    "construct-octahedron": ["construct", "octahedron", "--validate"],
    "construct-icosahedron": ["construct", "icosahedron", "--validate"],
    "construct-disjoint-copies": [
        "construct", "disjoint-copies", "--base", "octahedron", "--copies", "3",
        "--validate",
    ],
    "detect-gn12": ["detect", "-k", "5", "--input", CERT],
    # rainbow paths exist: 3 and 6 edges meet at a middle edge, 4 at a
    # middle vertex; the digests pin the least witness
    "detect-double-wheel-20-k4": ["detect", "-k", "4", "--input", WHEEL],
    "detect-double-wheel-20-k5": ["detect", "-k", "5", "--input", WHEEL],
    "detect-double-wheel-20-k7": ["detect", "-k", "7", "--input", WHEEL],
    "validate-gn12": ["validate", "--input", CERT, "-k", "5", "--expect-edges", "18"],
}

# (exit code, SHA-256 of stdout) per command.
GOLDEN: dict[str, tuple[int, str]] = {
    "color-5-C~": (0, "d4f8e6382b6ab5b77f7846f5dbe88d0118917ef8bd71acfdb06ad614b4cfd824"),
    "color-5-input-C~": (0, "d4f8e6382b6ab5b77f7846f5dbe88d0118917ef8bd71acfdb06ad614b4cfd824"),
    "color-8-double-wheel-18": (0, "f9d0d8db8bb9396f262c9d03652cd916bef5344b3ce848da98f72d470924c91a"),
    "construct-disjoint-copies": (0, "9a10ca386cb7d3014ce0310f12d21199c5e11c1932ab2b45323b83859784c3ad"),
    "construct-double-wheel": (0, "84b409b0c576bc9d7081625827805c2a1a649bdb0db418d5620317209a24c318"),
    "construct-g5": (0, "f25f38099cf14350022b675066457494694a39371f80b3699e6f58e254a32660"),
    "construct-g7": (0, "0ed0de0e42b2779a72c86dea94696ea8bfcb02468892b7a2e81ebbe87b33350e"),
    "construct-gn": (0, "12ee3aa93420ec31b1a3e543da7c72579f817f8b61c06f4e744484a829eee139"),
    "construct-icosahedron": (0, "2b23cde96b072806452b7ca9ab83f636c947012cb934f0e3b5a582dec30c3693"),
    "construct-k2-path": (0, "7a4fd16a2f8d76ce2632048490e3cf27ad9dcabef978d8ef87e4f89b3cf4dd5f"),
    "construct-k4-blocks": (0, "701a4be28cf7f20b8276300fa1b67f085ef10d1c9952723d8ba067a796e9acc3"),
    "construct-octahedron": (0, "2c4da4c54d811d82f95dc7c5ebd96ec5bc64c437d5a07eb15616d443ba94f122"),
    "detect-double-wheel-20-k4": (1, "9deb9475e46f1bf1a0d82f85098ac39a9e1d3cc89847055f76eb2353d5408315"),
    "detect-double-wheel-20-k5": (1, "daa1a4adc4ca28be5a6476f4cd9686fc6528e33395c0d4cc5195cbdfce51386a"),
    "detect-double-wheel-20-k7": (1, "99f75b46cf7e7aa54430bb8a0a139ea9fcc21ed852b17c271c2dc3b7e2c1b1bd"),
    "detect-gn12": (0, "4ab15061d0b58f9bf8bf7b7c96a3e7f890843338a00296a3d6f69762172ca8a9"),
    "extremal-10-8-double-wheel": (0, "ff7ffe1c48714044a03690d9696a6167d10abcec115ea9fed81d2a9b00f09587"),
    "extremal-12-7-icosahedron": (0, "af9f9da93887e684aac9f0ca7353fcc29599b0c0452623db489191395556b80d"),
    "extremal-4-4-k4-blocks": (0, "0ba84c0e084d11b66ebc6887c7ad6df185191db9a03a35a2fc621c376e2ddae5"),
    "extremal-5-5-expect": (0, "8cc209f7f04212ae41aa49189ad39c069afd4faff87158a10a49da069dad9f37"),
    "extremal-6-3-matching": (0, "99d3ade027ee223d568f3eacf479bb304649c60d24e415166a2ef2e6ec8f67c5"),
    "extremal-6-4-descent": (0, "778cf1ff37d1b5796ac411dc1046498901ab6883e4f3037d0b0dbbbd4ba9987b"),
    "extremal-6-4-descent-jobs-2": (0, "dc6772aa04e0c1e9692c1f89f958f43c6bbc7bf966f3fea45dedb2b34729815d"),
    "extremal-6-5-from-graph6": (0, "a557f7f3aad390cd33f072577c9917f3616bb5f5430cbf4aee74e7008388913a"),
    "extremal-6-5-jobs-2": (0, "bcd1aeee9bd3ece5da360dc03a1ae2c6e8a8ecc74e4ff6d4db4991eae413d59c"),
    "extremal-6-6-octahedron": (0, "a53f83d0b075c0042f82c175ab05a2c186b6b7ed90b1a2caea718c10e45b1979"),
    "extremal-7-5-chain": (0, "2b16139446c81daa0b4bf4f455b0e4700250e01d19f3dce418c7a0ec3cd2aca6"),
    "extremal-8-5-jobs-2": (0, "38f26fc1d274f4be84346d87951931676f59ea9f0e95268f4f385748d241024d"),
    "extremal-9-8-k2-path": (0, "9910dc84d9946d4bc4dd94451b6dcd5c0d2e23d53fbb031cfeccda6424efa843"),
    "lemma-all": (0, "47dc47e682821b8a26394badc7736b537d1154b67723c283a8873522a8383ea2"),
    "lemma-bowtie-k6-violations": (1, "1dd45f72ba254364321aa9d6703fc5713a73d33181c66ae301150e99d88315ba"),
    "refute-5-8-5-unfiltered": (0, "05fc893bb2718ef762a84de7a66221e68a6e3db993abb8a73426da0acca769ae"),
    "refute-6-10-5": (0, "8fe2b641d1bb20818a82c4294b0582b1d19088f423b5bf8efaacecf3d09fb01f"),
    "validate-gn12": (0, "ce33f846f0e12c58808fa6b1361e0cbcbd28ae098f20fb8aed1b898085be56eb"),
}


def _run(argv: list[str]) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue().encode()


def _write_inputs(directory: str) -> None:
    """The gn(12) and double_wheel(20) certificates as `construct` emits
    them, the built-in (6,10) level as a graph6 file, and a graph6 file
    holding one graph."""
    for name, argv in ((CERT, ["gn", "-n", "12"]), (WHEEL, ["double-wheel", "-n", "20"])):
        code, out = _run(["construct", *argv])
        assert code == 0
        graph = json.loads(out)["graph"]
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(graph))
    with open(os.path.join(directory, LEVEL), "w", encoding="ascii") as fh:
        fh.write("".join(encode_graph6(g) + "\n" for g in LevelLadder(6).level(10)))
    with open(os.path.join(directory, ONE_GRAPH), "w", encoding="ascii") as fh:
        fh.write("C~\n")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    _write_inputs(str(path))
    return path


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_digest(name, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    code, out = _run(COMMANDS[name])
    assert (code, hashlib.sha256(out).hexdigest()) == GOLDEN[name]


def main() -> None:
    """Print the current table in the format of GOLDEN."""
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        _write_inputs(directory)
        here = os.getcwd()
        os.chdir(directory)
        try:
            for name in sorted(COMMANDS):
                code, out = _run(COMMANDS[name])
                print(f'    "{name}": ({code}, "{hashlib.sha256(out).hexdigest()}"),')
        finally:
            os.chdir(here)


if __name__ == "__main__":
    sys.exit(main())
