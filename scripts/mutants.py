#!/usr/bin/env python3
"""Mutation gate: one-line semantic mutants that the tier-1 suite must kill.

Each mutant names a file, an exact piece of its text and a replacement.
For each one the script copies the repository to a temporary directory,
applies the mutant there, and runs the tier-1 suite with ``-x -q``; the
mutant is killed when a test fails.  A suite that runs past four times
the unmutated run plus a minute is stopped, and its mutant counts as
surviving: a fault that makes a division loop must be caught by a
failing test, not by the wall clock.  A test that loops fails on its own
at the suite's per-test time limit (``tests/conftest.py``), which lies
well inside that bound.  The unmutated copy is run first
and must pass, so a broken environment cannot pass for a killed mutant.
A mutant whose text does not occur exactly once fails the script before
any suite runs, so a refactor that moves the code must move the mutant
with it.  The repository itself is never written.

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
    ("intersect's known rows skip one pair too many",
     "src/gintools/groebner.py",
     "return rows if rows and not ring.exponent(r[0][0], -1) else 0",
     "return rows + 1 if rows and not ring.exponent(r[0][0], -1) else 0"),
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
             "no:cacheprovider", "--continue-on-collection-errors"],
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
