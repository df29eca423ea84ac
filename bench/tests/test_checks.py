"""Hand-checked cases for the benchmark's correctness checks.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
Each check is shown to pass on a known-good value and to fail on a
corrupted one, so a wrong gin or Hilbert function cannot slip through.
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import workloads  # noqa: E402

P = 32003
TWISTED_CUBIC_GIN = [(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)]
RATIONAL_QUARTIC_GIN = [(2, 0, 0, 0), (1, 2, 0, 0), (0, 3, 0, 0), (1, 1, 1, 0)]


def test_monomial_helpers():
    assert len(checks.monomials(3, 2)) == 6
    assert checks.monomials(2, -1) == []
    assert checks.parse_monomial("x0^2*x1", 3) == (2, 1, 0)
    assert checks.parse_monomial("1", 3) == (0, 0, 0)
    assert checks.parse_poly("x0*x2 - x1^2", 4, 7) == {(1, 0, 1, 0): 1, (0, 2, 0, 0): 6}
    assert checks.parse_poly("-3*x0 + 10 + x0", 2, 7) == {(1, 0): 5, (0, 0): 3}


def test_borel_fixed_gin_passes():
    assert checks.check_gin(TWISTED_CUBIC_GIN) == []
    assert checks.check_gin(RATIONAL_QUARTIC_GIN) == []


def test_corrupted_gin_is_not_borel_fixed():
    # x0*x1 moved from x1 to x0 gives x0^2, which is gone
    problems = checks.check_gin(TWISTED_CUBIC_GIN[1:])
    assert problems and "Borel" in problems[0]
    assert checks.borel_violation([(0, 1, 0)]) == ((0, 1, 0), 0, 1)


def test_gin_involving_last_variable_is_flagged():
    # (x0, x1, x2) is Borel-fixed but not the gin of a saturated ideal
    problems = checks.check_gin([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert problems == ["gin has a generator involving the last variable"]


def test_hilbert_of_monomial_ideal():
    # the twisted cubic: 3d + 1
    assert checks.hilbert_of_monomial_ideal(TWISTED_CUBIC_GIN, 4, 3) == [1, 4, 7, 10]


def test_hilbert_by_rank_from_generators():
    polys = [checks.parse_poly(g, 4, P) for g in
             ("x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2")]
    assert checks.hilbert_by_rank(polys, 4, P, 4) == [1, 4, 7, 10, 13]


def test_corrupted_hilbert_function_is_flagged():
    assert checks.check_hilbert(TWISTED_CUBIC_GIN, 4, [1, 4, 7, 10], "x") == []
    assert checks.check_hilbert(TWISTED_CUBIC_GIN, 4, [1, 4, 7, 11], "x")
    # a wrong gin with the right oracle
    wrong = [(2, 0, 0, 0), (1, 1, 0, 0), (0, 3, 0, 0)]
    assert checks.check_hilbert(wrong, 4, [1, 4, 7, 10], "x")


def test_koszul_and_eagon_northcott_patterns():
    # genus-4 curve, quadric and cubic in P^3
    assert checks.koszul_pattern(3, 2, 3, 4) == [1, 4, 9, 15, 21]
    # a monomial complete intersection has the same Hilbert function
    assert checks.hilbert_by_rank([{(2, 0, 0, 0): 1}, {(0, 3, 0, 0): 1}],
                                  4, P, 4) == [1, 4, 9, 15, 21]
    # twisted cubic in P^3 (3d + 1), cubic scroll surface in P^4
    assert checks.eagon_northcott_pattern(3, 3) == [1, 4, 7, 10]
    assert checks.eagon_northcott_pattern(4, 3) == [1, 5, 12, 22]


def test_points_hilbert_and_vanishing():
    assert checks.points_hilbert([(1, 0, 0), (0, 1, 0), (0, 0, 1)], P, 3) == [1, 3, 3, 3]
    collinear = [(0, 1, 0), (0, 0, 1), (0, 1, 1), (0, 1, 2)]
    assert checks.points_hilbert(collinear, P, 4) == [1, 2, 3, 4, 4]
    line = {(1, 0, 0): 1, (0, 1, 0): P - 1}
    assert checks.evaluate(line, (1, 1, 0), P) == 0
    assert checks.evaluate(line, (1, 2, 0), P) != 0


def test_invariant_table_of_the_rational_quartic():
    table, s_z, s_gamma = checks.invariant_table(RATIONAL_QUARTIC_GIN, 4)
    assert table == {(0,): (2, (3, 2)), (1,): (2, (3, 1)), (2,): (2, (3, 1))}
    assert (s_z, s_gamma) == (2, 2)
    assert checks.check_theorem(RATIONAL_QUARTIC_GIN, 4) == []


def test_disconnected_profile_breaks_the_theorem():
    gens = [(2, 0, 0, 0), (1, 2, 0, 0), (0, 5, 0, 0)]   # lambda = (5, 2)
    assert checks.check_theorem(gens, 4)


def test_theorem_is_not_asserted_without_its_hypothesis():
    # s_Z = 2 at p = 0 but s_Gamma = 1: (4, 4) is disconnected and allowed
    gens = [(2, 0, 0, 0), (1, 0, 1, 0), (0, 4, 0, 0)]
    _, s_z, s_gamma = checks.invariant_table(gens, 4)
    assert (s_z, s_gamma) == (2, 1)
    assert checks.check_theorem(gens, 4) == []


def test_reported_table_is_compared():
    good = [((0,), 2, (3, 2)), ((1,), 2, (3, 1)), ((2,), 2, (3, 1))]
    assert checks.check_reported_table(RATIONAL_QUARTIC_GIN, 4, good, 2, 2) == []
    bad = [((0,), 2, (3, 2)), ((1,), 2, (3, 2)), ((2,), 2, (3, 1))]
    assert checks.check_reported_table(RATIONAL_QUARTIC_GIN, 4, bad, 2, 2)
    assert checks.check_reported_table(RATIONAL_QUARTIC_GIN, 4, good, 2, 1)


# ---------------------------------------------------------------------------
# the workloads' checkers on hand-made outputs

TWISTED_CUBIC_FILE = """\
name: twisted-cubic
n: 3
prime: 32003
tags: codim2, hypothesis, integral
gens:
x0*x2 - x1^2
x0*x3 - x1*x2
x1*x3 - x2^2
expect:
gin: x0^2, x0*x1, x1^2
"""


def corpus_output(gin, lambdas, all_passed=True):
    table = [{"p_hat": [p], "s": len(lambdas), "lambda": list(lambdas)}
             for p in (0, 1)]
    payload = {"all_passed": all_passed,
               "entries": [{"gin": gin, "invariant_table": table,
                            "s_Z": len(lambdas), "s_Gamma": len(lambdas)}]}
    return 0, json.dumps(payload)


def corpus_checker(tmp_path):
    (tmp_path / "twisted-cubic.ideal").write_text(TWISTED_CUBIC_FILE)
    return workloads.Corpus().checker({"data": tmp_path})


def test_corpus_checker_accepts_the_true_gin(tmp_path):
    check = corpus_checker(tmp_path)
    output = corpus_output(["x0^2", "x0*x1", "x1^2"], (2, 1))
    assert check("twisted-cubic", output) == []
    assert check("twisted-cubic", output) == []


def test_corpus_checker_rejects_a_corrupted_gin(tmp_path):
    check = corpus_checker(tmp_path)
    # Borel-fixed, consistent table, but the wrong Hilbert function
    problems = check("twisted-cubic", corpus_output(["x0^2", "x0*x1", "x1^3"], (3, 1)))
    assert any("Hilbert" in p for p in problems)


def test_corpus_checker_rejects_a_gin_that_changes_with_the_seed(tmp_path):
    check = corpus_checker(tmp_path)
    assert check("twisted-cubic", corpus_output(["x0^2", "x0*x1", "x1^2"], (2, 1))) == []
    problems = check("twisted-cubic", corpus_output(["x0^2", "x0*x1", "x1^3"], (3, 1)))
    assert any("another seed" in p for p in problems)


def test_corpus_checker_rejects_failed_checks(tmp_path):
    check = corpus_checker(tmp_path)
    output = corpus_output(["x0^2", "x0*x1", "x1^2"], (2, 1), all_passed=False)
    assert check("twisted-cubic", output) == ["all_passed is false"]


def invariants_result(gens, nvars):
    table, s_z, s_gamma = checks.invariant_table(gens, nvars)
    entries = [(p_hat, SimpleNamespace(s=s, lambdas=lam))
               for p_hat, (s, lam) in table.items()]
    return SimpleNamespace(gin_result=SimpleNamespace(gin=SimpleNamespace(gens=gens)),
                           table=SimpleNamespace(entries=entries),
                           s_Z=s_z, s_Gamma=s_gamma)


def test_heavy_checker_compares_with_the_koszul_pattern():
    check = workloads.Heavy().checker({})
    label = (("ci", 2, 2, 4), "invariants")
    # two quadrics in P^4
    good = [(2, 0, 0, 0, 0), (1, 1, 0, 0, 0), (0, 3, 0, 0, 0)]
    assert check(label, invariants_result(good, 5)) == []
    check = workloads.Heavy().checker({})
    wrong = [(2, 0, 0, 0, 0), (1, 1, 0, 0, 0), (0, 4, 0, 0, 0)]
    problems = check(label, invariants_result(wrong, 5))
    assert any("Koszul" in p for p in problems)


def test_heavy_checker_compares_with_the_eagon_northcott_pattern():
    check = workloads.Heavy().checker({})
    label = (("det", 4), "invariants")
    good = [(2, 0, 0, 0, 0), (1, 1, 0, 0, 0), (0, 2, 0, 0, 0)]
    assert check(label, invariants_result(good, 5)) == []
    wrong = [(2, 0, 0, 0, 0), (1, 1, 0, 0, 0), (0, 3, 0, 0, 0)]
    problems = workloads.Heavy().checker({})(label, invariants_result(wrong, 5))
    assert any("Eagon-Northcott" in p for p in problems)


def test_points_checker_needs_vanishing_and_the_rank_count():
    check = workloads.Points().checker({})
    points = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    gin = [(2, 0, 0), (1, 1, 0), (0, 2, 0)]
    ideal = SimpleNamespace(gens=[SimpleNamespace(terms=((m, 1),))
                                  for m in ((1, 1, 0), (1, 0, 1), (0, 1, 1))])
    assert check(3, (points, ideal, invariants_result(gin, 3))) == []
    off = SimpleNamespace(gens=[SimpleNamespace(terms=(((1, 1, 0), 1), ((0, 0, 2), 1)))])
    problems = check(3, (points, off, invariants_result(gin, 3)))
    assert any("vanish" in p for p in problems)
    wrong = [(2, 0, 0), (1, 1, 0), (0, 3, 0)]
    problems = check(3, (points, ideal, invariants_result(wrong, 3)))
    assert any("evaluation matrix" in p for p in problems)
