#!/usr/bin/env python3
"""Mutation gate: one-line semantic mutants that the tier-1 suite must kill.

Each mutant names a file, an exact piece of its text and a replacement.
For each one the script copies the repository to a temporary directory,
applies the mutant there, and runs the tier-1 suite with ``-x -q``; the
mutant is killed when a test fails.  The suite's files are named one by
one, ``tests/test_ring.py`` first: it fails within seconds on the
packing mutants, which elsewhere first make a division loop, and pytest
collects in the order of its arguments only when every file is named.  A suite that runs past four times
the unmutated run plus a minute is stopped, and its mutant counts as
surviving: a fault that makes a division loop must be caught by a
failing test, not by the wall clock.  A test that loops fails on its own
at the suite's per-test time limit (``tests/conftest.py``), which lies
well inside that bound.  The unmutated copy is run first
and must pass, so a broken environment cannot pass for a killed mutant.
A mutant whose text does not occur exactly once fails the script before
any suite runs, so a refactor that moves the code must move the mutant
with it; ``tests/test_mutants.py`` runs that check in tier-1, and is the
one test file left out of the mutated runs, where it would fail on the
mutated text alone.  The repository itself is never written.

Run from anywhere, with the test extra installed:

    python scripts/mutants.py

It exits 0 when every mutant is killed and 1 otherwise.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file, text, replacement)
MUTANTS = [
    ("the lower-triangular check accepts an entry just above the diagonal",
     "src/gintools/ring.py",
     "if any(any(row[i + 1:]) for i, row in enumerate(rows)):",
     "if any(any(row[i + 2:]) for i, row in enumerate(rows)):"),
    ("_check_lcm never raises",
     "src/gintools/groebner.py",
     "    if lcm & DEGREE_BOUND:",
     "    if False:"),
    ("the packed divisibility test ignores the guard bit of the last variable",
     "src/gintools/ring.py",
     "self.guards = sum(_GUARD << s for s in self._shifts)",
     "self.guards = sum(_GUARD << s for s in self._shifts[:-1])"),
    ("the packed divisibility test ignores the guard bit of x0",
     "src/gintools/ring.py",
     "self.guards = sum(_GUARD << s for s in self._shifts)",
     "self.guards = sum(_GUARD << s for s in self._shifts[1:])"),
    ("Gebauer-Moeller's B criterion is dropped",
     "src/gintools/groebner.py",
     "if (((lij | guards) - lmf) & guards != guards",
     "if (True or ((lij | guards) - lmf) & guards != guards"),
    ("a point meet targets t^(e+1) * (1-t)^(n-1) for t^e * (1-t)^(n-1)",
     "src/gintools/groebner.py",
     "point = (0,) * e + _koszul_numerator",
     "point = (0,) * (e + 1) + _koszul_numerator"),
    ("the point meet's lead check is dropped",
     "src/gintools/groebner.py",
     "    return lead < subtracted",
     "    return True"),
    ("the coprime-leads criterion is dropped",
     "src/gintools/groebner.py",
     "if not any(lcm == reducers[i][0] + lmf for i in by_lcm[lcm]):",
     "if True:"),
    ("the M criterion is dropped",
     "src/gintools/groebner.py",
     "if not any(((lcm | guards) - seen) & guards == guards for seen in minimal):",
     "if True:"),
    ("a point meet takes g* of greatest degree",
     "src/gintools/groebner.py",
     "star = min(hits, key=",
     "star = max(hits, key="),
    ("a point meet leaves out the a_i * g*",
     "src/gintools/groebner.py",
     "gens += [a * g_star for a in A.gens]",
     "gens += []"),
    ("the point test accepts linear forms whose leads repeat",
     "src/gintools/groebner.py",
     "return (len(I.gens) == len(leads) == I.ring.nvars - 1",
     "return (len(I.gens) == I.ring.nvars - 1"),
    ("gin() reads the last level's Hilbert function in three variables",
     "src/gintools/gin.py",
     "_series_values(target, 2, bound)",
     "_series_values(target, 3, bound)"),
    ("the Koszul floor is taken for nvars + 1 forms",
     "src/gintools/groebner.py",
     "ring.graded and len(gens) <= ring.nvars:",
     "ring.graded and len(gens) <= ring.nvars + 1:"),
    ("truncate keeps only the generators of degree below the cutoff",
     "src/gintools/groebner.py",
     "kept = [g for g in I.gens if g.degree <= delta]",
     "kept = [g for g in I.gens if g.degree < delta]"),
    ("_largest_sample keeps the smallest sample",
     "src/gintools/gin.py",
     "if all(a <= b for theirs in parts.values()",
     "if all(a >= b for theirs in parts.values()"),
    ("the lead ideal is read off the generators, not the basis",
     "src/gintools/groebner.py",
     "(g.lead_monomial for g in self._basis())",
     "(g.lead_monomial for g in self.gens)"),
    ("the floor's final coefficients are read through degree d",
     "src/gintools/groebner.py",
     "if floor and (N + (0,) * d)[:d] != (target + (0,) * d)[:d]:",
     "if floor and (N + (0,) * (d + 1))[:d + 1] != "
     "(target + (0,) * (d + 1))[:d + 1]:"),
    ("_stable_ideal_with_hilbert is off by one",
     "src/gintools/gin.py",
     "for d, h in enumerate(values) for i in range(d + 1 - h)",
     "for d, h in enumerate(values) for i in range(d - h)"),
    ("two_variable_trace slices with < for <=",
     "src/gintools/staircase.py",
     "if all(map(le, g[2:], p_tilde))",
     "if all(a < b for a, b in zip(g[2:], p_tilde))"),
    ("last_image accepts a form with no x_n term",
     "src/gintools/ring.py",
     "    if coeffs[-1] == 0:\n        raise ValueError",
     "    if False:\n        raise ValueError"),
]

# what a test run leaves behind, and the benchmark's own output
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".hypothesis", ".benchmarks", "results")


def check_texts():
    """Refuse to run when a mutant's text is not in its file exactly once."""
    missing = []
    for name, path, text, _ in MUTANTS:
        count = (ROOT / path).read_text().count(text)
        if count != 1:
            missing.append(f"{name}: {path} holds its text {count} times, "
                           "not once")
    if missing:
        sys.exit("mutants out of date:\n  " + "\n  ".join(missing))


def test_files(tree):
    """Tier-1's test files but ``tests/test_mutants.py``, relative to
    ``tree``, ``tests/test_ring.py`` first and the rest in the order of
    their names."""
    first = tree / "tests" / "test_ring.py"
    rest = sorted(p for p in (tree / "tests").glob("test_*.py")
                  if p not in (first, tree / "tests" / "test_mutants.py"))
    return [str(p.relative_to(tree)) for p in [first, *rest]]


def run_suite(tree, limit=None):
    """Tier-1 in ``tree``, stopping at the first failure or after ``limit``
    seconds; (outcome, seconds), the outcome "passed", "failed" or
    "timed out"."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # no stale bytecode
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", "--continue-on-collection-errors",
             *test_files(tree)],
            cwd=tree, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=limit)
        outcome = "failed" if result.returncode else "passed"
    except subprocess.TimeoutExpired:
        outcome = "timed out"
    return outcome, time.perf_counter() - start


def main():
    check_texts()
    survivors = []
    with tempfile.TemporaryDirectory(prefix="gintools-mutants-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        outcome, baseline = run_suite(tree)
        if outcome != "passed":
            sys.exit("the suite fails on the unmutated copy: nothing to gate")
        print(f"unmutated copy passes ({baseline:.1f} s)")
        for name, path, text, replacement in MUTANTS:
            target = tree / path
            original = target.read_text()
            target.write_text(original.replace(text, replacement))
            try:
                outcome, seconds = run_suite(tree, 4 * baseline + 60)
            finally:
                target.write_text(original)
            if outcome != "failed":
                survivors.append(name)
            verdict = ("killed" if outcome == "failed"
                       else f"SURVIVED, {outcome}")
            print(f"{verdict}: {name} ({seconds:.1f} s)")
    if survivors:
        sys.exit(f"{len(survivors)} of {len(MUTANTS)} mutants survived")
    print(f"all {len(MUTANTS)} mutants killed")


if __name__ == "__main__":
    main()
