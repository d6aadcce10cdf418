"""Exhaustive computation of the planar rainbow path-avoidance extremal
value: isomorph-free candidate enumeration, reduction and planarity
filters, complete coloring search per candidate, and certified
reporting.

A level (n, m) is *refuted* when every candidate surviving the filters is
UNSAT.  Refuting with the reduction filter (minimum degree >= 2, no edge
between two degree-2 vertices) is sound against the bound floor(3n/2):
deleting a degree-<=1 vertex loses at most 1 edge while the bound drops
by at least 1, and deleting an adjacent degree-2 pair loses at most 3
edges while the bound drops by exactly 3, and colorability is preserved
under taking subgraphs.  So a minimal counterexample above the bound is
reduced, and refuting all reduced planar levels (n', floor(3n'/2)+1) for
n' <= N refutes every planar graph above the bound for every n' <= N.
Values claimed at other bounds are refuted without the reduction filter.

A level is searched in key order.  Its candidates stream through the
filters in blocks of at most BLOCK (1024) graphs, and of each survivor
only its graph6 line, its search key in its block's sorted run of keys
(the part not shared with the key before it, behind 3 bytes) and then
its outcome stay, in flat bytes: no object per candidate, and 15.5 bytes
on average over the (9,14) classes of `bench/data/planar_9_14.g6` in its
line order, 17.3 shuffled.  The blocks' sorted runs are then merged, and
every BLOCK consecutive keys are searched as one group, so the groups,
and the search work, do not depend on the order of the source.  A SAT
candidate's graph is decoded again from its line for its certificate;
the tallies, the digest and the first SAT are made in source order.  So
a level fed from a graph6 file, read a line at a time, holds at most one
block of graphs however long the file is; a built-in level's graphs are
held by the ladder that made them: the full ladder of its vertex count,
kept for the process, or for a reduced level a degree-window ladder that
holds only that level and goes with it.  A node budget holds per graph,
so a budgeted level is searched in key order too, each key a group of
one under its own budget.
"""

from __future__ import annotations

import functools
import heapq
from itertools import islice
from typing import Any, Iterator, NamedTuple

from .codec import (
    colored_to_doc,
    decode_graph6,
    encode_graph6,
    graph6_width,
    read_graph6_file,
)
from .colorer import (
    BUDGET_EXCEEDED,
    SAT,
    UNSAT,
    SearchOutcome,
    search_key,
    search_keys,
)
from .constructions import FAMILY_TABLE, make, validate_construction
from .generation import LevelLadder, class_count
from .graphs import ColoredGraph, Graph, GraphError
from .planarity import is_planar, planar_edge_cap

# The level digest's SHA-256 comes from the interpreter's own module:
# hashlib would map OpenSSL's libcrypto, about 3.5 MB of every run's
# peak RSS, for one digest per level.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

BUILTIN_MAX_N = 8
# The most filtered candidates a level holds as graphs at once, and the
# most it searches as one group.  Every level of the reduced chain up to
# BUILTIN_MAX_N is one block (the largest, (8,13), has 600); a level of
# more blocks is grouped in key order, whatever order its source is in.
BLOCK = 1024


class BudgetExhausted(Exception):
    """A level descent ran out of search budget before it found a value."""


def is_reduced(g: Graph) -> bool:
    """Minimum degree >= 2 and no edge joining two degree-2 vertices."""
    deg = g.degrees()
    if g.n and min(deg) < 2:
        return False
    return not any(deg[u] == 2 and deg[v] == 2 for u, v in g.edges)


# one ladder per vertex count, kept for the life of the process
_ladder = functools.cache(LevelLadder)


def _candidate_source(graph6_path: str | None) -> str:
    """Provenance of a level's candidates: built-in generation or a file."""
    return "built-in" if graph6_path is None else f"graph6:{graph6_path}"


def candidate_blocks(
    n: int,
    m: int,
    counts: dict[str, int],
    *,
    reduced: bool = False,
    planar: bool = False,
    graph6_path: str | None = None,
) -> Iterator[list[tuple[str, Graph]]]:
    """Pairwise non-isomorphic (n, m) graphs surviving the requested
    filters, each with its graph6 line, in source order and in blocks of
    at most BLOCK.  ``counts`` gets the count after each stage, keyed as
    in a level report: ``candidates`` (all classes), ``reduced`` and
    ``planar``; a filter that is off leaves the count unchanged.  The
    counts are final once the blocks run out.

    A graph6 file's ``candidates`` are the lines read, and each graph
    comes with its own line.  A built-in level's are the number of (n, m)
    classes from ``class_count``, which enumerates nothing: a reduced
    built-in level generates only the classes of minimum degree >= 2 (a
    degree-window ladder), which hold every reduced class in the order
    and labelling of the full level, and any other built-in level is the
    full ladder's; a built-in graph is encoded once it passes the
    filters.  ``reduced`` and ``planar`` count the graphs that pass each
    filter.

    Filters run in cost order: the degree-based reduction filter first,
    then the Euler bound inside the full planarity test.  Built-in
    generation covers n <= BUILTIN_MAX_N; larger n must come from a
    graph6 file, which is trusted to be complete and isomorph-free
    (recorded in the report's source).  The file is read as the blocks
    are taken, so a bad line or a graph of another shape is an error only
    once every block before it has been taken.
    """
    if graph6_path is not None:
        source = read_graph6_file(graph6_path)
    elif n > BUILTIN_MAX_N:
        raise GraphError(
            f"built-in enumeration caps at n <= {BUILTIN_MAX_N}; "
            f"supply --from-graph6 for n={n}"
        )
    elif reduced:  # the reduced classes lie among those of minimum degree >= 2
        source = (("", g) for g in LevelLadder(n, target=m).level(m))
    else:
        source = (("", g) for g in _ladder(n).level(m))
    counts.update(
        candidates=0 if graph6_path is not None else class_count(n, m), reduced=0, planar=0
    )
    block: list[tuple[str, Graph]] = []
    # decoding and each filter run over a whole batch, which is cheaper than
    # taking one graph through every phase; a batch is never more than the
    # room left in the block, so no more than BLOCK graphs are held
    while batch := list(islice(source, BLOCK - len(block))):
        for line, g in batch:
            if g.n != n or len(g.edges) != m:  # only a file can hold such a graph
                raise GraphError(
                    f"{graph6_path}: graph6 candidate {line} has "
                    f"n={g.n}, m={len(g.edges)}; expected ({n},{m})"
                )
        if graph6_path is not None:
            counts["candidates"] += len(batch)
        if reduced:
            batch = [c for c in batch if is_reduced(c[1])]
        counts["reduced"] += len(batch)
        if planar:
            batch = [c for c in batch if is_planar(c[1])]
        counts["planar"] += len(batch)
        if graph6_path is None:
            batch = [(encode_graph6(g), g) for _, g in batch]
        block += batch
        del batch  # only the block holds these graphs, so its reader can let them go
        if len(block) == BLOCK:
            yield block
            block = []
    if block:
        yield block


class LevelReport(NamedTuple):
    """Outcome of running the coloring search on every candidate of one
    (n, m) level."""

    n: int
    m: int
    k: int
    filters: tuple[str, ...]
    source: str
    # candidates, reduced, planar (see candidate_blocks), then the
    # search outcomes unsat, sat and budget_exceeded
    counts: dict[str, int]
    nodes: int
    status: str  # PASS | FAIL | BUDGET
    digest: str
    first_sat: tuple[int, ColoredGraph] | None  # candidate index, certificate

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def to_doc(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "m": self.m,
            "k": self.k,
            "filters": list(self.filters),
            "source": self.source,
            "counts": dict(self.counts),
            "nodes": self.nodes,
            "status": self.status,
            "digest": self.digest,
        }


# a level's search outcomes, stored one byte per candidate as an index here
_STATUSES = (UNSAT, SAT, BUDGET_EXCEEDED)


# a function of its own because bench/tracing.py wraps it by name to time each block's search
def _solve_chunk(
    keys: bytes, lines: bytes, n: int, k: int, node_budget: int | None = None
) -> list[SearchOutcome]:
    """Run the coloring search on one block of candidates as one group
    (see `colorer.search_keys`), given by their keys and by their graph6
    lines, each joined in key order: the outcome of each, in that order.
    A SAT candidate's graph, which its certificate needs, is decoded again
    from its line."""
    width = graph6_width(n)

    def graph_of(i: int) -> Graph:
        return decode_graph6(lines[i * width : i * width + width].decode())

    return search_keys(keys, len(lines) // width, n, k, graph_of, node_budget)


def _front_coded(keys: list[bytes]) -> bytes:
    """keys in sorted order, each a record: the length of the prefix it
    shares with the key before it (at most 255), its index in keys in two
    bytes (BLOCK < 2**16), then the rest of it."""
    run = bytearray()
    last = None
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        key = keys[i]
        value = int.from_bytes(key, "big")
        # keys have one length, so the bytes they share end at the
        # highest bit where they differ
        same = 0 if last is None else len(key) - ((value ^ last).bit_length() + 7) // 8
        same = min(same, 255)
        run += bytes((same, i >> 8, i & 255))
        run += key[same:]
        last = value
    return bytes(run)


def _decoded(run: bytes, length: int, base: int) -> Iterator[tuple[bytes, int]]:
    """The keys of a `_front_coded` run of keys of `length` bytes, in
    order, each with base plus its index."""
    key = bytearray(length)
    at = 0
    while at < len(run):
        same, i = run[at], run[at + 1] << 8 | run[at + 2]
        at += 3 + length - same
        key[same:] = run[at - length + same : at]
        yield bytes(key), base + i


def _search_in_key_order(
    blocks: Iterator[list[tuple[str, Graph]]], n: int, k: int, node_budget: int | None
) -> tuple[bytearray, bytearray, int, tuple[int, ColoredGraph] | None]:
    """Search every candidate of blocks, in blocks of BLOCK consecutive
    keys, or one key at a time under a node budget, which holds per
    graph: the candidates' graph6 lines joined and their outcomes
    (indices into _STATUSES), both in source order, the node total and
    the first SAT candidate with its certificate.

    As the blocks stream in, each candidate leaves its line and, in its
    block's run of keys sorted and front-coded, its key, and its graph is
    let go.  The runs are then merged lazily, one key per run held at a
    time, and each BLOCK keys in turn are searched as one group, so graphs
    that share a key prefix share its search whichever blocks of the
    source they came in."""
    width = graph6_width(n)
    lines = bytearray()
    runs: list[Iterator[tuple[bytes, int]]] = []
    count = 0
    for block in blocks:
        keys = [search_key(g) for _, g in block]
        lines += "".join(line for line, _ in block).encode()
        # let go of the graphs before the run is made: the block's list
        # stays in candidate_blocks until the next block is asked for
        block.clear()
        runs.append(_decoded(_front_coded(keys), len(keys[0]), count))
        count += len(keys)
        del keys
    merged = heapq.merge(*runs)
    statuses = bytearray(count)
    nodes, first_sat = 0, None
    size = BLOCK if node_budget is None else 1
    while True:
        group, members = bytearray(), []
        for key, i in islice(merged, size):
            group += key
            members.append(i)
        if not members:
            break
        joined = b"".join([lines[i * width : i * width + width] for i in members])
        for i, out in zip(members, _solve_chunk(group, joined, n, k, node_budget)):
            statuses[i] = _STATUSES.index(out.status)
            nodes += out.nodes
            if out.sat and (first_sat is None or i < first_sat[0]):
                first_sat = (i, out.certificate)
    return lines, statuses, nodes, first_sat


def run_level(
    n: int,
    m: int,
    k: int,
    *,
    reduced: bool,
    planar: bool = True,
    node_budget: int | None = None,
    graph6_path: str | None = None,
) -> LevelReport:
    """Run the complete coloring search over every filtered candidate of
    the (n, m) level.  The level PASSes when every candidate is UNSAT;
    any budget-exceeded outcome poisons the level (BUDGET), it is never
    silently dropped.  The candidates are searched in key order, and the
    report is made in source order."""
    if m < 0:
        raise GraphError(f"need m >= 0, got m={m}")
    if k < 3:
        raise GraphError(f"need k >= 3, got k={k}")
    counts: dict[str, int] = {}
    blocks = candidate_blocks(n, m, counts, reduced=reduced, planar=planar, graph6_path=graph6_path)
    lines, statuses, nodes, first_sat = _search_in_key_order(blocks, n, k, node_budget)
    width = graph6_width(n)
    names = [status.encode() for status in _STATUSES]
    digest = sha256()  # over the lines "i:graph6:status", joined by "\n"
    for i, code in enumerate(statuses):
        at = i * width
        digest.update(b"%s%d:%s:%s" % (b"\n" if i else b"", i, lines[at : at + width], names[code]))
    tally = {status: statuses.count(code) for code, status in enumerate(_STATUSES)}
    counts.update(unsat=tally[UNSAT], sat=tally[SAT], budget_exceeded=tally[BUDGET_EXCEEDED])
    if tally[SAT]:
        status = "FAIL"
    elif tally[BUDGET_EXCEEDED]:
        status = "BUDGET"
    else:
        status = "PASS"
    return LevelReport(
        n=n,
        m=m,
        k=k,
        filters=tuple(name for name, on in (("reduced", reduced), ("planar", planar)) if on),
        source=_candidate_source(graph6_path),
        counts=counts,
        nodes=nodes,
        status=status,
        digest=digest.hexdigest(),
        first_sat=first_sat,
    )


class ExtremalReport(NamedTuple):
    n: int
    k: int
    value: int
    achiever: ColoredGraph
    achiever_provenance: str
    refutation: LevelReport | None  # at (n, value + 1); None iff vacuous
    chain: tuple[LevelReport, ...]
    source: str
    status: str  # OK | FAIL | BUDGET

    def to_doc(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "n": self.n,
            "k": self.k,
            "value": self.value,
            "status": self.status,
            "achiever": colored_to_doc(
                self.achiever, meta={"provenance": self.achiever_provenance}
            ),
            "provenance": self.source,
        }
        if self.refutation is None:
            doc["refutation"] = {
                "vacuous": True,
                "note": "value equals the planar edge maximum",
            }
        else:
            doc["refutation"] = self.refutation.to_doc()
        if self.chain:
            doc["chain"] = [lv.to_doc() for lv in self.chain]
        return doc


def _claimed_achiever(n: int, k: int) -> tuple[ColoredGraph, str] | None:
    """A construction known to achieve the extremal value at (n, k), or
    None when the value must be found by level descent.

    Every claimed family of the table is tried in table order at the k it
    avoids.  A family at the planar maximum is also tried for every longer
    path up to n vertices: it avoids those too, and no planar graph has
    more edges.  The first family that builds at n wins."""
    for name, fam in FAMILY_TABLE.items():
        reach = range(fam.avoids, n + 1) if fam.edges is planar_edge_cap else (fam.avoids,)
        if fam.claimed and k in reach:
            try:
                return make(name, n), name
            except GraphError:
                continue
    return None


def compute_extremal(
    n: int,
    k: int,
    *,
    node_budget: int | None = None,
    graph6_path: str | None = None,
) -> ExtremalReport:
    """Certified extremal value: the largest m such that some planar
    n-vertex m-edge graph admits a proper rainbow-P_k-free coloring.

    The lower bound comes from an achiever, a known construction when one
    applies or else the first SAT certificate of the highest SAT level of
    the descent; either kind passes `validate_construction` after the
    levels run, or the run is a GraphError naming its provenance.  The
    upper bound comes from refuting level value+1, which settles all
    higher levels because SAT survives edge deletion.  When the value
    is floor(3n/2) the refutation runs the reduction-filtered level
    (n', floor(3n'/2)+1) for every n' in 4..n (see module docstring).

    A graph6 file feeds only the top level (n' = n) of a claimed plan and
    every other level is built-in up to BUILTIN_MAX_N; a file no level
    reads, or a level beyond the cap, is an error before any level runs.
    """
    if n < 1:
        raise GraphError(f"need n >= 1, got n={n}")
    if k < 3:
        raise GraphError(f"need k >= 3, got k={k}")
    cap = planar_edge_cap(n)
    claim = _claimed_achiever(n, k)
    if claim is None:
        # No known construction: descend the levels from the planar cap.
        plan = [(n, m, False) for m in range(cap, -1, -1)]
        what = f"no known construction for n={n}, k={k}, so level descent"
        fed, unread = None, "level descent is built-in only"
    else:
        achiever, label = claim
        value = len(achiever.edges)
        provenance = f"construction:{label}"
        if value == cap:  # no planar graph has more edges: nothing to refute
            plan = []
        elif value == (3 * n) // 2:  # the reduced minimality chain over n' <= n
            plan = [(n2, (3 * n2) // 2 + 1, True) for n2 in range(4, n + 1)]
        else:
            plan = [(n, value + 1, False)]
        what = f"refuting the value {value} at n={n}, k={k}"
        fed, unread = n, (
            f"the value {value} at n={n}, k={k} is the planar edge maximum, "
            "so no level is refuted"
        )
    # the file feeds the level n' = fed (the top level of a claimed plan,
    # none of a descent); every other level is built-in
    source = {n2: graph6_path if n2 == fed else None for n2, _, _ in plan}
    if graph6_path is not None and fed not in source:
        raise GraphError(f"{unread}, and --from-graph6 {graph6_path} would not be read")
    beyond = [n2 for n2, path in source.items() if n2 > BUILTIN_MAX_N and path is None]
    if beyond:
        span = f"{beyond[0]}..{beyond[-1]}" if len(beyond) > 1 else f"{beyond[0]}"
        if fed is None:
            hint = unread
        elif beyond == [fed]:
            hint = f"supply the level ({n},{plan[-1][1]}) with --from-graph6"
        else:
            hint = f"--from-graph6 feeds only the top level n'={n}"
        raise GraphError(
            f"{what} needs built-in generation for n'={span}, "
            f"beyond the cap n <= {BUILTIN_MAX_N}; {hint}"
        )
    levels: list[LevelReport] = []
    # the file-fed level runs first, so a bad file fails before any built-in one
    for n2, m2, reduced in sorted(plan, key=lambda level: source[level[0]] is None):
        level = run_level(
            n2, m2, k, reduced=reduced, node_budget=node_budget, graph6_path=source[n2]
        )
        if claim is None:
            # descent: a level without a verdict leaves no value, and the
            # first SAT level is the value with its first SAT candidate
            if level.status == "BUDGET":
                raise BudgetExhausted(
                    f"level ({n},{level.m}) exhausted the search budget; "
                    "rerun with a larger --budget-nodes"
                )
            if level.first_sat is not None:
                index, achiever = level.first_sat
                value, provenance = m2, f"search:index-{index}"
                break
        levels.append(level)
    levels.sort(key=lambda level: level.n)  # back in plan order: n' never falls along a plan
    gate = validate_construction(achiever, k, value)
    if not gate.passed:
        raise GraphError(f"achiever {provenance} failed validation: {gate}")
    bad = [lv for lv in levels if not lv.passed]
    status = "OK"
    if bad:
        status = "BUDGET" if all(lv.status == "BUDGET" for lv in bad) else "FAIL"
    return ExtremalReport(
        n=n,
        k=k,
        value=value,
        achiever=achiever,
        achiever_provenance=provenance,
        refutation=levels[-1] if levels else None,
        chain=tuple(levels) if plan and plan[0][2] else (),  # a reduced plan is the chain
        source=_candidate_source(graph6_path),
        status=status,
    )
