#!/usr/bin/env python3
"""Survey the staircase profiles of N random plane points.

For each N the script builds a random configuration, computes its gin,
reads off the profile (s, lambda_0..lambda_{s-1}), and checks the jump
condition between consecutive lambda values.  Quotient dimensions are
printed alongside so the staircase can be eyeballed against the counts.

    python scripts/points_survey.py [--max-n 12] [--seed 0]
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gintools.corpus import general_points
from gintools.gin import gin, variety_invariants
from gintools.parsing import render_monomial_ideal
from gintools.staircase import hilbert_function, is_connected


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-n", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"{'N':>3}  {'gin':<34} {'s':>2}  {'lambda':<16} connected  quotient dims")
    for N in range(1, args.max_n + 1):
        I = general_points(N, seed=args.seed)
        result = gin(I, seed=0, votes=3)
        if N == 1:
            print(f"{N:>3}  {render_monomial_ideal(result.gin):<34}"
                  f"  -  {'-':<16} -          1, 1, 1, ...")
            continue
        inv = variety_invariants(I, gin_result=result)
        ((_, prof),) = inv.table.entries
        ok, _ = is_connected(prof)
        dims = ", ".join(map(str, hilbert_function(result.gin)))
        lam = "(" + ", ".join(map(str, prof.lambdas)) + ")"
        print(f"{N:>3}  {render_monomial_ideal(result.gin):<34} {prof.s:>2}"
              f"  {lam:<16} {'yes' if ok else 'NO':<9}  {dims}")


if __name__ == "__main__":
    main()
