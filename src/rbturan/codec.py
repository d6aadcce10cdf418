"""graph6 text format and the colored-graph JSON document format.

graph6 support is bit-exact for the short size field (n <= 62), which is
all that desk-scale enumeration ever produces.  sparse6 input is rejected
explicitly instead of being misparsed.  graph6 carries no colors; colored
graphs and certificates travel as JSON documents:

    {"n": 5, "edges": [[0, 1, 3], ...], "meta": {...}}

where each entry of "edges" is [u, v, color].
"""

from __future__ import annotations

import json
from typing import Any

from .graphs import ColoredGraph, Graph, GraphError, build_colored_graph

GRAPH6_HEADER = ">>graph6<<"
MAX_N = 62


class CodecError(ValueError):
    """Malformed graph6 line or colored-graph document."""


def decode_graph6(line: str) -> Graph:
    """Decode one graph6 line (optional '>>graph6<<' header tolerated)."""
    s = line.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):].strip()
    if not s:
        raise CodecError("empty graph6 line")
    if s[0] == ":" or s[0] == ";":
        raise CodecError("sparse6 input is not supported")
    if s[0] == "&":
        raise CodecError("digraph6 input is not supported")
    data = [ord(ch) - 63 for ch in s]
    if any(b < 0 or b > 63 for b in data):
        raise CodecError("character out of graph6 range 63..126")
    n = data[0]
    if n == 63:
        # long size field: n >= 63
        raise CodecError(f"graph6 size field exceeds supported n <= {MAX_N}")
    body = data[1:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise CodecError(
            f"graph6 body has {len(body)} characters, expected {need} for n={n}"
        )
    bits = 0
    for b in body:
        bits = (bits << 6) | b
    bits >>= need * 6 - nbits  # drop padding
    edges = []
    # column-major upper triangle: (0,1), (0,2), (1,2), (0,3), ...
    idx = nbits - 1
    for v in range(1, n):
        for u in range(v):
            if bits >> idx & 1:
                edges.append((u, v))
            idx -= 1
    # the bit layout admits no loop, duplicate or out-of-range edge
    return Graph(n, tuple(sorted(edges)))


def encode_graph6(g: Graph) -> str:
    """Encode a Graph as one graph6 line (n <= 62)."""
    if g.n > MAX_N:
        raise CodecError(f"n={g.n} exceeds single-byte graph6 size field")
    n = g.n
    bits = 0
    nbits = n * (n - 1) // 2
    # column-major upper triangle: pair (u, v), u < v, is bit v(v-1)/2 + u
    # counted from the most significant end
    top = nbits - 1
    for u, v in g.edges:
        bits |= 1 << (top - (v * (v - 1) // 2 + u))
    need = (nbits + 5) // 6
    bits <<= need * 6 - nbits
    chars = [chr(n + 63)]
    for i in range(need - 1, -1, -1):
        chars.append(chr(((bits >> (6 * i)) & 63) + 63))
    return "".join(chars)


def read_graph6_file(path: str) -> list[Graph]:
    """Read a file with one graph6 line per graph; blank lines skipped.  A
    file with no graph6 line is rejected; a bad line is reported as path:line."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [line.strip() for line in fh]
    except UnicodeDecodeError:
        raise CodecError(f"{path} is not a graph6 file: it holds non-ASCII bytes") from None
    graphs = []
    for number, line in enumerate(lines, 1):  # 1-based, blank lines counted
        if line:
            try:
                graphs.append(decode_graph6(line))
            except CodecError as exc:
                raise CodecError(f"{path}:{number}: {exc}") from None
    if not graphs:
        raise CodecError(f"{path} holds no graph6 line")
    return graphs


def encode_colored(cg: ColoredGraph, meta: dict[str, Any] | None = None) -> str:
    """Serialize a ColoredGraph to its JSON document (deterministic bytes)."""
    return json.dumps(colored_to_doc(cg, meta), sort_keys=True, separators=(",", ":"))


def decode_colored(text: str) -> ColoredGraph:
    """Parse a colored-graph JSON document; loops, duplicate edges, missing
    or non-positive colors are rejected."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CodecError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise CodecError("JSON nested too deeply") from None
    return colored_from_doc(doc)


def _is_int(x: Any) -> bool:
    """A JSON integer; true and false are not (bool subclasses int)."""
    return isinstance(x, int) and not isinstance(x, bool)


def colored_from_doc(doc: Any) -> ColoredGraph:
    if not isinstance(doc, dict):
        raise CodecError("document must be a JSON object")
    try:
        n = doc["n"]
        raw_edges = doc["edges"]
    except KeyError as exc:
        raise CodecError(f"missing field {exc}") from None
    if not _is_int(n) or n < 0:
        raise CodecError(f"invalid vertex count {n!r}")
    if not isinstance(raw_edges, list):
        raise CodecError(f"edges must be a list of [u, v, color], got {raw_edges!r}")
    triples = []
    for entry in raw_edges:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise CodecError(f"edge entry {entry!r} is not [u, v, color]")
        u, v, c = entry
        if not all(_is_int(x) for x in (u, v, c)):
            raise CodecError(f"non-integer edge entry {entry!r}")
        triples.append((u, v, c))
    try:
        return build_colored_graph(n, triples)
    except GraphError as exc:
        raise CodecError(str(exc)) from None


def colored_to_doc(cg: ColoredGraph, meta: dict[str, Any] | None = None) -> dict[str, Any]:
    """The JSON document of a ColoredGraph, as a dict."""
    doc: dict[str, Any] = {
        "n": cg.n,
        "edges": [[u, v, c] for (u, v), c in zip(cg.edges, cg.colors)],
    }
    if meta is not None:
        doc["meta"] = meta
    return doc
