#!/usr/bin/env python3
"""Rebuild the packaged corpus entries and their expected-value blocks.

Each entry is reconstructed from its pinned seed, its gin and invariant
table are recomputed, and the expected values are cross-checked against
the Hilbert counts of the staircase before being written back.  Run from
the repository root:

    python scripts/regenerate_corpus.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gintools.corpus import BUILDERS, CorpusEntry, expected_values, render_entry
from gintools.gin import gin, variety_invariants

PRIME = 32003
SEED = 0

TAGS = {
    "twisted-cubic": "codim2, hypothesis, integral",
    "rational-quartic": "codim2, hypothesis, integral",
    "points-3": "codim2, general-position, hypothesis",
    "points-5": "codim2, general-position, hypothesis",
    "points-4-collinear": "codim2, degenerate",
    "elliptic-quartic": "codim2, hypothesis, integral",
    "genus4-ci": "codim2, hypothesis, integral",
    "genus10-ci": "codim2, hypothesis, integral",
    "ci-surface": "codim2, hypothesis, integral",
    "scroll-surface": "codim2, hypothesis, integral",
}

COMMENTS = {
    "twisted-cubic": [
        "Twisted cubic curve in P^3, the three 2x2 minors of its defining matrix.",
        "integral: classical (rational normal curve).",
    ],
    "rational-quartic": [
        "Smooth rational quartic curve (s^4, s^3 t, s t^3, t^4) in P^3.",
        "integral: image of an injective morphism of P^1.",
    ],
    "points-3": ["3 uniformly random points in P^2, seed-pinned."],
    "points-5": ["5 uniformly random points in P^2, seed-pinned."],
    "points-4-collinear": [
        "4 random points on a random line in P^2: a degenerate configuration",
        "kept for its internal gap degrees.",
    ],
    "elliptic-quartic": [
        "Random complete intersection of two quadrics in P^3 (elliptic quartic).",
        "integral: assumed generic; quotient dimensions match the Koszul pattern.",
    ],
    "genus4-ci": [
        "Random complete intersection of a quadric and a cubic in P^3.",
        "integral: assumed generic; quotient dimensions match the Koszul pattern.",
    ],
    "genus10-ci": [
        "Random complete intersection of two cubics in P^3: a three-step staircase.",
        "integral: assumed generic; quotient dimensions match the Koszul pattern.",
    ],
    "ci-surface": [
        "Random complete intersection of two quadrics in P^4.",
        "integral: assumed generic; quotient dimensions match the Koszul pattern.",
    ],
    "scroll-surface": [
        "2x2 minors of a random 2x3 matrix of linear forms in P^4 (cubic scroll).",
        "integral: assumed generic; quotient dimensions match the Eagon-Northcott pattern.",
    ],
}


def regenerate(data_dir: Path):
    data_dir.mkdir(parents=True, exist_ok=True)
    for name, build in sorted(BUILDERS.items()):
        ideal = build(SEED, PRIME)
        n = ideal.ring.nvars - 1
        result = gin(ideal, seed=SEED, votes=5)
        assert result.agreed, name
        expect = expected_values(result, variety_invariants(ideal, gin_result=result))
        tags = frozenset(t.strip() for t in TAGS[name].split(","))
        entry = CorpusEntry(name, n, PRIME, SEED, ideal.gens, tags, expect)
        comments = COMMENTS[name] + [
            "expected values: derived by the gin pipeline at the pinned seed and",
            "cross-checked against independent rank computations in the test suite.",
        ]
        path = data_dir / f"{name}.ideal"
        path.write_text(render_entry(entry, comments))
        print(f"wrote {path.name}: gin = {expect['gin']}; "
              f"s_Z={expect['s_Z']} s_Gamma={expect['s_Gamma']} gaps={expect['gaps']}")


if __name__ == "__main__":
    regenerate(ROOT / "src" / "gintools" / "data")
