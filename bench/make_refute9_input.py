"""Regenerate the frozen refute9 input: every planar 9-vertex 14-edge graph.

Usage, from the repository root:

    python3 bench/make_refute9_input.py            # writes bench/data/planar_9_14.g6
    python3 bench/make_refute9_input.py --check-only

The file holds one graph6 line per isomorphism class, in the order the
repository's own ``LevelLadder(9)`` produces them.  The ladder is pruned
to planar graphs after every level; this is sound because planarity is
closed under subgraphs, so every planar (n, m+1) class is an edge
augmentation of some planar (n, m) class.  Before generating, the pruning
is checked against the unpruned ladder filtered by ``is_planar`` for every
n <= 7 and every m.  The generated per-m counts must equal the frozen
``COUNTS_9`` below.  Takes about a minute on one core.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rbturan.codec import encode_graph6  # noqa: E402
from rbturan.extremal import is_reduced  # noqa: E402
from rbturan.generation import LevelLadder, canonical_form  # noqa: E402
from rbturan.planarity import is_planar  # noqa: E402

# planar isomorphism classes on 9 vertices with m = 0..14 edges
COUNTS_9 = (1, 1, 2, 5, 11, 25, 63, 148, 345, 770, 1632, 3225, 5848, 9439, 13093)
REDUCED_9_14 = 3227
OUT = ROOT / "bench" / "data" / "planar_9_14.g6"


class PlanarLadder(LevelLadder):
    """LevelLadder that keeps only the planar classes of each level."""

    def _grow(self) -> None:
        super()._grow()
        self._levels[-1] = [g for g in self._levels[-1] if is_planar(g)]


def check_pruning(max_n: int = 7) -> None:
    for n in range(1, max_n + 1):
        full, pruned = LevelLadder(n), PlanarLadder(n)
        for m in range(n * (n - 1) // 2 + 1):
            want = {canonical_form(g) for g in full.level(m) if is_planar(g)}
            got = [canonical_form(g) for g in pruned.level(m)]
            if len(got) != len(want) or set(got) != want:
                raise SystemExit(f"pruned ladder differs from the filtered one at n={n} m={m}")
    print(f"pruned ladder agrees with the filtered full ladder for n <= {max_n}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check-only", action="store_true", help="only check the pruning")
    args = ap.parse_args()
    check_pruning()
    if args.check_only:
        return
    ladder = PlanarLadder(9)
    counts = tuple(len(ladder.level(m)) for m in range(len(COUNTS_9)))
    if counts != COUNTS_9:
        raise SystemExit(f"per-m planar counts {counts} != frozen {COUNTS_9}")
    top = ladder.level(14)
    reduced = sum(1 for g in top if is_reduced(g))
    if reduced != REDUCED_9_14:
        raise SystemExit(f"{reduced} reduced classes, expected {REDUCED_9_14}")
    text = "".join(encode_graph6(g) + "\n" for g in top)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(text, encoding="ascii")
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    print(f"wrote {OUT.relative_to(ROOT)}: {len(top)} lines, sha256 {digest}")


if __name__ == "__main__":
    main()
