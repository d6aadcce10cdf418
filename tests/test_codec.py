from __future__ import annotations

import itertools
import json
import random
import re

import networkx as nx
import pytest

from rbturan.codec import (
    CodecError,
    colored_to_doc,
    decode_colored,
    decode_graph6,
    encode_colored,
    encode_graph6,
    read_graph6_file,
)
from rbturan.generation import LevelLadder
from rbturan.graphs import build_colored_graph, build_graph


def quadratic_graph6(g) -> str:
    """The encoder as it was before it set one bit per edge: one probe of
    the edge set per vertex pair, in column-major order."""
    n = g.n
    bits = 0
    nbits = n * (n - 1) // 2
    edge_set = set(g.edges)
    idx = nbits - 1
    for v in range(1, n):
        for u in range(v):
            if (u, v) in edge_set:
                bits |= 1 << idx
            idx -= 1
    need = (nbits + 5) // 6
    bits <<= need * 6 - nbits
    chars = [chr(n + 63)]
    for i in range(need - 1, -1, -1):
        chars.append(chr(((bits >> (6 * i)) & 63) + 63))
    return "".join(chars)


def all_bits_decode_graph6(line: str):
    """The decoder as it was before it walked only the set bits: one test
    per vertex pair, in column-major order, after dropping the padding
    unchecked.  Valid lines only."""
    data = [ord(ch) - 63 for ch in line]
    n, body = data[0], data[1:]
    nbits = n * (n - 1) // 2
    bits = 0
    for b in body:
        bits = (bits << 6) | b
    bits >>= len(body) * 6 - nbits
    edges = []
    idx = nbits - 1
    for v in range(1, n):
        for u in range(v):
            if bits >> idx & 1:
                edges.append((u, v))
            idx -= 1
    return build_graph(n, edges)


def reference_graph6(g) -> str:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    return nx.to_graph6_bytes(G, header=False).decode().strip()


def test_hand_decoded_examples():
    k4 = decode_graph6("C~")
    assert k4.n == 4 and len(k4.edges) == 6
    single = decode_graph6("A_")
    assert single.n == 2 and single.edges == ((0, 1),)
    lone = decode_graph6("@")
    assert lone.n == 1 and lone.edges == ()


def test_encode_examples():
    assert encode_graph6(build_graph(4, list(itertools.combinations(range(4), 2)))) == "C~"
    assert encode_graph6(build_graph(5, [])) == "D??"


def test_header_tolerated():
    assert decode_graph6(">>graph6<<C~").n == 4


def test_sparse6_rejected_distinctly():
    with pytest.raises(CodecError, match="sparse6"):
        decode_graph6(":Fa@x^")


def test_out_of_range_character():
    with pytest.raises(CodecError, match="range"):
        decode_graph6("C!!")


@pytest.mark.parametrize("text", ["", "\n  \n"])
def test_graph6_file_without_graphs_is_rejected(tmp_path, text):
    path = tmp_path / "empty.g6"
    path.write_text(text)
    with pytest.raises(CodecError, match="holds no graph6 line"):
        list(read_graph6_file(str(path)))


def test_graph6_file_error_names_file_and_line(tmp_path):
    # line numbers are 1-based and count blank lines
    path = tmp_path / "bad.g6"
    where = re.escape(str(path))
    path.write_text("C~\nD?\n")
    with pytest.raises(CodecError, match=rf"^{where}:2: graph6 body has 1 characters"):
        list(read_graph6_file(str(path)))
    path.write_text("C~\n\nD?\n")
    with pytest.raises(CodecError, match=rf"^{where}:3: "):
        list(read_graph6_file(str(path)))


def test_truncated_body():
    with pytest.raises(CodecError, match="expected"):
        decode_graph6("F??")  # n=7 needs 4 body characters


def test_size_limit():
    # "~" opens the long size field of n >= 63: beyond the n <= 62 support
    with pytest.raises(CodecError, match="size field"):
        decode_graph6("~??~" + "?" * 326)  # the edgeless 63-vertex graph
    big = build_graph(63, [])
    with pytest.raises(CodecError, match="size field"):
        encode_graph6(big)


def test_roundtrip_all_graphs_up_to_5_vertices():
    for n in range(6):
        ladder = LevelLadder(n)
        for m in range(n * (n - 1) // 2 + 1):
            for g in ladder.level(m):
                line = encode_graph6(g)
                assert decode_graph6(line) == g
                assert line == reference_graph6(g)


def test_encoder_matches_quadratic_reference_on_all_graphs_up_to_7_vertices():
    # and the decoder matches the all-bits one
    for n in range(8):
        ladder = LevelLadder(n)
        for m in range(n * (n - 1) // 2 + 1):
            for g in ladder.level(m):
                line = encode_graph6(g)
                assert line == quadratic_graph6(g), g
                assert decode_graph6(line) == all_bits_decode_graph6(line) == g


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 40, 62])
def test_encoder_matches_quadratic_reference_on_random_graphs(n):
    # and the decoder matches the all-bits one
    rng = random.Random(n)
    pairs = list(itertools.combinations(range(n), 2))
    for p in (0.0, 0.05, 0.3, 0.7, 1.0):
        for _ in range(5):
            g = build_graph(n, [e for e in pairs if rng.random() < p])
            line = encode_graph6(g)
            assert line == quadratic_graph6(g), (n, p)
            assert decode_graph6(line) == all_bits_decode_graph6(line) == g


def test_decoded_graphs_share_their_edge_tuples():
    a, b = decode_graph6("C~"), decode_graph6("Cr")
    assert all(any(e is f for f in a.edges) for e in b.edges)


@pytest.mark.parametrize("n", range(13))
def test_nonzero_padding_bits_are_rejected(n):
    # a line ends in (-n(n-1)/2) % 6 padding bits, which graph6 sets to 0;
    # with any of them set the line names no graph, so it is refused
    # instead of being read as the graph with them cleared
    pad = -(n * (n - 1) // 2) % 6
    line = encode_graph6(build_graph(n, list(itertools.combinations(range(n), 2))[::2]))
    assert decode_graph6(line).n == n
    for extra in range(1, 1 << pad):
        bad = line[:-1] + chr(ord(line[-1]) + extra)
        assert all_bits_decode_graph6(bad) == decode_graph6(line)
        with pytest.raises(CodecError, match="padding bits are not zero"):
            decode_graph6(bad)


def test_decode_encode_identity_on_reference_lines():
    # encode(decode(line)) must reproduce the exact bytes
    for n in range(1, 7):
        G = nx.path_graph(n)
        line = nx.to_graph6_bytes(G, header=False).decode().strip()
        assert encode_graph6(decode_graph6(line)) == line


G5_TRIPLES = [
    (0, 1, 1), (0, 2, 2), (0, 3, 3), (2, 3, 4), (4, 1, 4), (4, 2, 3), (4, 3, 2),
]


def test_colored_roundtrip():
    cg = build_colored_graph(5, G5_TRIPLES)
    doc = encode_colored(cg, meta={"note": "fixture"})
    back = decode_colored(doc)
    assert back == cg
    parsed = json.loads(doc)
    assert parsed["meta"] == {"note": "fixture"}
    assert parsed["n"] == 5


def test_colored_rejects_color_zero():
    doc = json.dumps({"n": 2, "edges": [[0, 1, 0]]})
    with pytest.raises(CodecError, match="positive"):
        decode_colored(doc)


def test_colored_rejects_loop():
    doc = json.dumps({"n": 3, "edges": [[2, 2, 1]]})
    with pytest.raises(CodecError, match="loop"):
        decode_colored(doc)


def test_colored_rejects_malformed():
    with pytest.raises(CodecError, match="JSON"):
        decode_colored("{not json")
    with pytest.raises(CodecError, match="missing"):
        decode_colored(json.dumps({"n": 2}))
    with pytest.raises(CodecError, match="entry"):
        decode_colored(json.dumps({"n": 2, "edges": [[0, 1]]}))


@pytest.mark.parametrize(
    "doc",
    [
        {"n": True, "edges": []},
        {"n": 3, "edges": [[False, 1, 1]]},
        {"n": 3, "edges": [[0, True, 1]]},
        {"n": 3, "edges": [[0, 2, True]]},
    ],
    ids=["n", "u", "v", "color"],
)
def test_colored_rejects_booleans(doc):
    # json booleans are Python bools, which are ints; they must not pass
    # as a vertex count, an endpoint or a color
    with pytest.raises(CodecError, match="invalid vertex count|non-integer"):
        decode_colored(json.dumps(doc))


def test_encode_colored_is_deterministic():
    cg = build_colored_graph(5, G5_TRIPLES)
    assert encode_colored(cg) == encode_colored(cg)


def test_colored_doc_is_the_parsed_encoding():
    cg = build_colored_graph(5, G5_TRIPLES)
    for meta in (None, {"note": "fixture", "stats": {"nodes": 3}}):
        doc = colored_to_doc(cg, meta=meta)
        assert doc == json.loads(encode_colored(cg, meta=meta))
        assert ("meta" in doc) == (meta is not None)
