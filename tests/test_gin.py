import functools
import importlib
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles

from gintools.ring import LinearChange, PolyRing, drop_last
from gintools.groebner import (Ideal, _SliceBasis, initial_ideal,
                               restrict_ideal)
from gintools.cli import main
from gintools.corpus import (complete_intersection, determinantal,
                             determinantal_from_matrix)
from gintools.gin import (ComputationError, GinUnstableError, _sampled_gin,
                          check_connectedness, child_rng,
                          connectedness_from_table, gin,
                          run_trace, variety_invariants,
                          verify_gap_truncation, verify_slice_identity)
from gintools.parsing import parse_ideal, parse_polynomial
from gintools.staircase import (InvariantProfile, InvariantTable,
                                MonomialIdeal, UnsaturatedIdealError,
                                elementary_move, hilbert_function,
                                is_borel_fixed, is_connected, profile_at,
                                restrict_last)

R3 = PolyRing(3)
R4 = PolyRing(4)


def poly(ring, text):
    return parse_polynomial(text, ring)


def ideal(ring, text):
    return parse_ideal(text, ring.nvars, ring.prime)


def twisted_cubic():
    return ideal(R4, "x0*x2 - x1^2, x0*x3 - x1*x2, x1*x3 - x2^2")


def staircase(nvars, *gens):
    return MonomialIdeal.from_monomials(nvars, gens)


QUADRIC_STAIRCASE = staircase(4, (2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0))


# ---------------------------------------------------------------------------
# the vote

def test_gin_fixes_borel_monomial_ideal():
    gens = [R4.monomial(m) for m in QUADRIC_STAIRCASE.gens]
    result = gin(Ideal(R4, gens), seed=3, votes=5)
    assert result.agreed
    assert result.gin == QUADRIC_STAIRCASE


def test_gin_of_generic_linear_form():
    rng = random.Random(11)
    I = Ideal(R3, [R3.linear_form([rng.randrange(R3.prime) for _ in range(3)])])
    result = gin(I, seed=0)
    assert result.gin == staircase(3, (1, 0, 0))


def test_gin_deterministic_for_fixed_seed():
    a = gin(twisted_cubic(), seed=9, votes=3)
    b = gin(twisted_cubic(), seed=9, votes=3)
    assert a == b


def test_gin_changes_presentation_independent():
    I = twisted_cubic()
    change = LinearChange.random(R4, random.Random(4))
    J = Ideal(R4, [change.apply(g) for g in I.gens])
    assert gin(I, seed=1).gin == gin(J, seed=1).gin


def test_gin_result_is_borel_fixed_on_corpus(corpus_gins):
    for name, result in corpus_gins.items():
        ok, witness = is_borel_fixed(result.gin)
        assert ok, (name, witness)


def test_gin_is_idempotent_on_corpus_gins(corpus_gins):
    """Feeding a gin back in returns it: Borel ideals are generic fixed points."""
    for name, result in corpus_gins.items():
        ring = PolyRing(result.gin.nvars)
        I = Ideal(ring, [ring.monomial(g) for g in result.gin.gens])
        assert gin(I, seed=4, votes=3).gin == result.gin, name


def test_small_field_escalates_or_fails():
    """Over F_2 the vote escalates, gives up, or hard-fails; never lies."""
    from gintools.gin import ComputationError
    ring = PolyRing(2, 2)
    I = Ideal(ring, [poly(ring, "x0 + x1")])
    saw_escalation = False
    for seed in range(60):
        try:
            result = _sampled_gin(I, seed=seed, votes=2)
        except GinUnstableError:
            saw_escalation = True
            continue
        except ComputationError:
            # unanimously wrong votes: possible over a two-element field
            continue
        ok, _ = is_borel_fixed(result.gin)
        assert ok
        if not result.agreed:
            assert result.samples_used == 5
            saw_escalation = True
    assert saw_escalation


def test_votes_below_two_rejected():
    with pytest.raises(ValueError):
        gin(twisted_cubic(), votes=1)


class _DenseChange:
    """A uniform invertible matrix, drawn by rejection, whose ``apply`` is
    the term-by-term oracle: ``LinearChange`` takes lower-triangular
    matrices only."""

    def __init__(self, ring, rng):
        while True:
            self.matrix = tuple(tuple(rng.randrange(ring.prime)
                                      for _ in range(ring.nvars))
                                for _ in range(ring.nvars))
            if oracles.det_mod(self.matrix, ring.prime):
                break
        self.ring = ring

    def apply(self, f):
        return self.ring.from_dict(dict(oracles.expand_change(
            f.terms, self.matrix, self.ring.prime)))


def _special_complete_intersection(a, b, n):
    """x_n^a, x_{n-1}^b: in these coordinates the transposed triangle,
    which fixes x_n, keeps it in K[x_{n-1}, x_n]."""
    ring = PolyRing(n + 1)
    return Ideal(ring, [ring.variable(n) ** a, ring.variable(n - 1) ** b])


def _special_determinantal(n):
    """The minors of a 2x3 Hankel matrix in the last four variables, taken
    from x_n down: a twisted cubic, or a cone over one, in special
    coordinates."""
    ring = PolyRing(n + 1)
    x = [ring.variable(n - i) for i in range(4)]
    return determinantal_from_matrix([x[:3], x[1:]])


@pytest.mark.parametrize("build", [
    lambda s: complete_intersection(2, 2, 3, seed=s),
    lambda s: complete_intersection(2, 3, 3, seed=s),
    lambda s: complete_intersection(3, 3, 4, seed=s),
    lambda s: complete_intersection(2, 3, 5, seed=s),
    lambda s: determinantal(3, seed=s),
    lambda s: determinantal(4, seed=s),
    lambda s: determinantal(5, seed=s),
    lambda s: _special_complete_intersection(2, 3, 3),
    lambda s: _special_complete_intersection(3, 3, 5),
    lambda s: _special_determinantal(3),
    lambda s: _special_determinantal(5),
], ids=["ci-223", "ci-233", "ci-334", "ci-235", "det-3", "det-4", "det-5",
        "special-ci-233", "special-ci-335", "special-det-3", "special-det-5"])
def test_unipotent_samples_give_the_gin_of_dense_ones(build):
    """The unipotent draws of ``LinearChange.random`` find the same gin as
    the largest initial ideal under three dense invertible changes, on the
    random ideals of ``corpus`` in P^3 to P^5 and on ideals in special
    coordinates, whose own initial ideal is not the gin."""
    module = importlib.import_module("gintools.gin")
    for seed in range(3):
        I = build(seed)
        target = initial_ideal(I).numerator
        rng = random.Random(seed)
        dense = [module._sample_initial_ideal(I, _DenseChange(I.ring, rng),
                                              target) for _ in range(3)]
        expected = module._largest_sample(dense, I.ring)
        assert _sampled_gin(Ideal(I.ring, I.gens), seed=seed).gin == expected


# ---------------------------------------------------------------------------
# enumeration oracle for the twisted cubic gin

def _move_stable(subset, nvars):
    subset = set(subset)
    for m in subset:
        for j in range(1, nvars):
            moved = elementary_move(m, j)
            if moved is not None and moved not in subset:
                return False
    return True


def _monos(nvars, d):
    from gintools.ring import monomials_of_degree
    return list(monomials_of_degree(nvars, d))


def enumerate_candidate_gins():
    """Borel-fixed saturated monomial ideals in four variables whose
    quotient counts 3d+1 points, generated in degrees <= 4, no linear
    generator.  Saturated means x3-free, so the search runs in three
    variables where the quotient must count 1, 3, 3, 3, ...
    """
    from oracles import monomial_product as product
    candidates = []
    deg2 = _monos(3, 2)
    for s2 in itertools.combinations(deg2, 3):
        if not _move_stable(s2, 3):
            continue
        forced3 = {product(m, v) for m in s2 for v in _monos(3, 1)}
        for extra3 in itertools.combinations([m for m in _monos(3, 3)
                                              if m not in forced3],
                                             7 - len(forced3)):
            s3 = forced3 | set(extra3)
            if not _move_stable(s3, 3):
                continue
            forced4 = {product(m, v) for m in s3 for v in _monos(3, 1)}
            for extra4 in itertools.combinations([m for m in _monos(3, 4)
                                                  if m not in forced4],
                                                 12 - len(forced4)):
                s4 = forced4 | set(extra4)
                if not _move_stable(s4, 3):
                    continue
                M = MonomialIdeal.from_monomials(3, set(s2) | s3 | s4)
                if list(hilbert_function(M, 6)) != [1, 3, 3, 3, 3, 3, 3]:
                    continue
                lifted = MonomialIdeal.from_monomials(
                    4, [g + (0,) for g in M.gens])
                candidates.append(lifted)
    return candidates


def test_twisted_cubic_gin_against_enumeration():
    computed = gin(twisted_cubic(), seed=0, votes=5).gin
    candidates = enumerate_candidate_gins()
    assert computed in candidates
    # the count alone admits more than one staircase; the section of the
    # twisted cubic is three non-collinear points, so its stable slice has
    # no linear generator, which pins the answer down uniquely
    survivors = [M for M in candidates
                 if profile_at(M, (M.max_exponent(2) + 1, 0)).s == 2]
    assert survivors == [computed]
    assert computed == QUADRIC_STAIRCASE


# ---------------------------------------------------------------------------
# variety invariants

def test_twisted_cubic_invariants():
    inv = variety_invariants(twisted_cubic(), seed=0)
    assert inv.s_Z == inv.s_Gamma == 2
    assert {prof for _, prof in inv.table.entries} == \
        {InvariantProfile(2, (2, 1))}


def test_five_points_profile():
    from gintools.corpus import general_points
    inv = variety_invariants(general_points(5, seed=1), seed=0)
    assert inv.table.entries[0][1] == InvariantProfile(2, (3, 2))


def test_complete_intersection_minimal_degrees():
    from gintools.corpus import complete_intersection
    inv = variety_invariants(complete_intersection(2, 3, 3, seed=2), seed=0)
    assert inv.s_Z == inv.s_Gamma == 2


def test_unsaturated_input_rejected():
    I = ideal(R3, "x0*x2, x0*x1, x0^2")  # x0 * irrelevant, not saturated
    with pytest.raises(UnsaturatedIdealError):
        variety_invariants(I, seed=0)


def test_variety_invariants_reuse_a_given_gin(monkeypatch):
    I = twisted_cubic()
    result = gin(I, seed=3)
    fresh = variety_invariants(I, seed=3)

    def no_draw(*args, **kwargs):
        raise AssertionError("a coordinate change was drawn")

    monkeypatch.setattr(LinearChange, "random", no_draw)
    reused = variety_invariants(I, gin_result=result)
    assert reused.gin_result is result
    assert reused.table == fresh.table
    assert (reused.s_Z, reused.s_Gamma) == (fresh.s_Z, fresh.s_Gamma)


def test_stable_profile_matches_section_invariants():
    """The stabilized entry agrees with the invariants of a hyperplane cut."""
    I = ideal(R4, "x1*x2 - x0*x3, x1^3 - x0^2*x2, "
                  "x2^3 - x1*x3^2, x0*x2^2 - x1^2*x3")
    inv = variety_invariants(I, seed=0)
    rng = child_rng(17, "section")
    section = restrict_ideal(I, I.ring.general_linear_form(rng))
    N = gin(section, seed=0).gin
    level = max(N.max_exponent(2) + 1, 1)
    assert profile_at(N, (level,)) == inv.table.stable_profile


# ---------------------------------------------------------------------------
# connectedness reports

def test_corpus_reports_connected(corpus_entries):
    for name, entry in corpus_entries.items():
        report = check_connectedness(entry.ideal(), seed=0)
        if "hypothesis" in entry.tags:
            assert report.hypothesis, name
            assert report.all_connected, name


def test_curve_low_level_rows(corpus_entries):
    for name, entry in corpus_entries.items():
        if entry.n != 3:
            continue
        report = check_connectedness(entry.ideal(), seed=0)
        assert report.low_levels_ok, name


def one_profile_report(lambdas):
    """Connectedness of a one-entry table (P^2) holding this profile."""
    prof = InvariantProfile(len(lambdas), tuple(lambdas))
    return connectedness_from_table(InvariantTable(3, (), (), (((), prof),)))


@pytest.mark.parametrize("lambdas,index,low_ok", [
    ((5, 1), 0, False),
    ((4, 3, 3), 1, False),
    ((5, 4, 3, 3), 2, True),
    ((3, 2, 1), None, True),
    ((1,), None, True),
])
def test_low_levels_follow_the_first_violation(lambdas, index, low_ok):
    report = one_profile_report(lambdas)
    assert report.violations == ((((), index),) if index is not None else ())
    assert report.low_levels_ok is low_ok


def test_low_levels_equal_the_jump_test_at_indices_0_and_1():
    """Every profile with s <= 5 and every lambda <= 7."""
    def jump_ok(lam, i):
        return i + 1 >= len(lam) or lam[i + 1] + 1 <= lam[i] <= lam[i + 1] + 2

    for s in range(1, 6):
        for lam in itertools.product(range(1, 8), repeat=s):
            expected = jump_ok(lam, 0) and jump_ok(lam, 1)
            assert one_profile_report(lam).low_levels_ok == expected, lam


def test_disconnected_synthetic_staircase():
    prof = profile_at(staircase(4, (3, 0, 0, 0), (2, 1, 0, 0),
                                (1, 6, 0, 0), (0, 8, 0, 0)), (0, 0))
    ok, index = is_connected(prof)
    assert prof.lambdas == (8, 6, 1)
    assert not ok and index == 1


def test_hilbert_tail_is_polynomial_on_corpus(corpus_entries, corpus_gins):
    """Past the default bound the counts follow a polynomial of the right
    degree: differences of order n-1 vanish at the tail (codimension two
    means dimension n-2)."""
    def tail_differences(values, order):
        vals = list(values)
        for _ in range(order):
            vals = [b - a for a, b in zip(vals, vals[1:])]
        return vals

    for name, entry in corpus_entries.items():
        M = corpus_gins[name].gin
        values = list(hilbert_function(M, M.max_degree() + M.nvars + 3))
        diffs = tail_differences(values, entry.n - 1)
        assert diffs[-3:] == [0, 0, 0], (name, values)


def test_concurrent_votes_match_sequential():
    """Labeled seed splitting keeps results identical under concurrency."""
    from concurrent.futures import ThreadPoolExecutor
    I = twisted_cubic()
    expected = gin(I, seed=21, votes=3)
    ideals = [ideal(R4, "x0*x2 - x1^2, x0*x3 - x1*x2, x1*x3 - x2^2")
              for _ in range(4)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda J: gin(J, seed=21, votes=3), ideals))
    assert all(r == expected for r in results)


def test_saturation_generator_test_agrees_with_fixed_point():
    """x_n-free generators iff the colon by x_n fixes the ideal."""
    from gintools.gin import is_saturated_gin
    from gintools.groebner import saturate
    cases = [
        staircase(3, (2, 0, 0), (1, 1, 0), (0, 2, 0)),
        staircase(3, (2, 0, 0), (1, 1, 0), (1, 0, 1)),
        staircase(3, (1, 0, 0), (0, 1, 1)),
        staircase(3, (1, 0, 0), (0, 4, 0)),
    ]
    for M in cases:
        I = Ideal(R3, [R3.monomial(g) for g in M.gens])
        fixed = saturate(I, R3.variable(2)).same_ideal(I)
        assert is_saturated_gin(M) == fixed, M


# ---------------------------------------------------------------------------
# slicing identity

def test_slice_identity_twisted_cubic():
    report = verify_slice_identity(twisted_cubic(), p_max=3, forms=3, seed=0)
    assert report.passed
    assert len(report.cases) == 12


@pytest.mark.parametrize("p_max, forms", [(-1, 3), (3, 0), (-5, -3)])
def test_slice_identity_refuses_a_check_with_no_cases(monkeypatch, p_max,
                                                      forms):
    """Refused before the gin is computed, not passed with 0 cases."""
    gin_module = importlib.import_module("gintools.gin")

    def no_gin(*args):
        raise AssertionError("the gin was computed")

    monkeypatch.setattr(gin_module, "_stable_gin", no_gin)
    with pytest.raises(ValueError):
        verify_slice_identity(twisted_cubic(), p_max=p_max, forms=forms)


def test_slice_identity_level_zero_drops_last_variable():
    I = twisted_cubic()
    result = gin(I, seed=0)
    report = verify_slice_identity(I, p_max=0, forms=1, seed=0,
                                   gin_result=result)
    (case,) = report.cases
    assert case.equal
    assert case.rhs == restrict_last(result.gin)


def test_slice_identity_computes_one_gin_per_distinct_section(monkeypatch):
    """A saturated ideal has (I : h^p) = I, so every level of a form shares
    one section and one gin.  The sections' gins are sampled."""
    import importlib
    # the attribute gintools.gin is the function the package re-exports
    gin_module = importlib.import_module("gintools.gin")
    calls = []

    def counted(compute):
        def call(*args, **kwargs):
            calls.append(args[0])
            return compute(*args, **kwargs)
        return call

    monkeypatch.setattr(gin_module, "gin", counted(gin))
    monkeypatch.setattr(gin_module, "_sampled_gin",
                        counted(gin_module._sampled_gin))
    report = verify_slice_identity(twisted_cubic(), p_max=3, forms=2, seed=0)
    assert report.passed
    assert len(report.cases) == 8
    assert len(calls) == 1 + 2


def test_slice_identity_on_borel_monomial_input():
    gens = [R4.monomial(m) for m in QUADRIC_STAIRCASE.gens]
    report = verify_slice_identity(Ideal(R4, gens), p_max=2, forms=2, seed=0)
    assert report.passed


@pytest.mark.parametrize("seed", range(8))
def test_slice_identity_on_random_small_ideals(seed):
    """The identity holds for arbitrary homogeneous input, not just corpus."""
    rng = random.Random(seed)
    gens = [R3.random_form(rng.randint(1, 2), rng)
            for _ in range(rng.randint(1, 2))]
    report = verify_slice_identity(Ideal(R3, gens), p_max=2, forms=1,
                                   seed=seed)
    assert report.passed


def test_slice_identity_with_nontrivial_colon_levels():
    """Unsaturated inputs make the colon on both sides do real work."""
    unsat = ideal(R3, "x0^2, x0*x1, x0*x2")
    report = verify_slice_identity(unsat, p_max=2, forms=2, seed=0)
    assert report.passed
    levels = {case.level: case.rhs for case in report.cases}
    assert levels[0] != levels[1]  # the colon genuinely changes the slice

    rng = child_rng(3, "section-form")
    section = restrict_ideal(twisted_cubic(), R4.general_linear_form(rng))
    report = verify_slice_identity(section, p_max=3, forms=2, seed=0)
    assert report.passed


# ---------------------------------------------------------------------------
# gap truncation

def test_gap_truncation_vacuous_without_gaps():
    report = verify_gap_truncation(twisted_cubic(), seed=0)
    assert report.vacuous and report.passed and report.gaps == ()


def test_gap_truncation_on_collinear_points(corpus_entries):
    entry = corpus_entries["points-4-collinear"]
    report = verify_gap_truncation(entry.ideal(), seed=0)
    assert not report.vacuous
    assert report.gaps == (2, 3)
    assert report.passed


def test_gap_truncation_computes_one_gin_per_distinct_truncation(
        corpus_entries, monkeypatch):
    """Both gaps of four points with three on a line cut the basis after
    the line, so the two truncations share one gin."""
    import importlib
    gin_module = importlib.import_module("gintools.gin")
    I = corpus_entries["points-4-collinear"].ideal()
    result = gin(I, seed=0)
    calls = []
    sampled = gin_module._sampled_gin

    def counted(*args, **kwargs):
        calls.append(args[0])
        return sampled(*args, **kwargs)

    monkeypatch.setattr(gin_module, "_sampled_gin", counted)
    report = verify_gap_truncation(I, seed=0, gin_result=result)
    assert report.gaps == (2, 3) and report.passed
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the degree of a two-variable gcd

R2 = PolyRing(2)
_gcd_degree = importlib.import_module("gintools.gin")._gcd_degree


def test_gcd_idempotent():
    f = poly(R2, "3*x0^2*x1 - 6*x1^3")
    assert _gcd_degree(Ideal(R2, [f, f])) == 3


def test_gcd_coprime():
    assert _gcd_degree(Ideal(R2, [poly(R2, "x0^2"), poly(R2, "x1^2")])) == 0


def test_gcd_with_common_factor():
    f = poly(R2, "x0^2*x1 - x0*x1^2")    # x0 x1 (x0 - x1)
    g = poly(R2, "x0^3 - x0*x1^2")       # x0 (x0 - x1)(x0 + x1)
    assert _gcd_degree(Ideal(R2, [f, g])) == 2  # x0 (x0 - x1)


def test_gcd_synthetic_pair():
    f = poly(R2, "x0^3 + x0^2*x1")  # x0^2 (x0 + x1)
    g = poly(R2, "x0^2*x1^2")
    assert _gcd_degree(Ideal(R2, [f, g])) == 2  # x0^2


def test_gcd_of_single_generator_is_itself():
    f = poly(R2, "5*x0^2*x1 + 5*x1^3")
    assert _gcd_degree(Ideal(R2, [f])) == f.degree


@settings(max_examples=40)
@given(st.integers(0, 10 ** 6), st.sampled_from([7, 32003]))
def test_gcd_degree_is_the_multiplicity_by_rank(seed, p):
    """For large d, dim (R/J)_d is the degree of the gcd; at twice the
    largest degree the quotient has reached it.  The oracle counts it by
    ranks of multiplication matrices."""
    ring = PolyRing(2, p)
    rng = random.Random(seed)
    F = ring.random_form(rng.randint(0, 3), rng)
    forms = [F * ring.random_form(rng.randint(0, 3), rng)
             for _ in range(rng.randint(1, 3))]
    dmax = 2 * max(f.degree for f in forms)
    assert _gcd_degree(Ideal(ring, forms)) == \
        oracles.quotient_ring_dims(forms, dmax, 2, p)[dmax]


# ---------------------------------------------------------------------------
# the quotient-restriction trace

def test_trace_twisted_cubic_all_levels():
    I = twisted_cubic()
    for level in (0, 1, 2):
        result = run_trace(I, (level,), seed=0)
        assert result.passed
        assert result.analytic_gin == result.slice_gin


def test_trace_level_zero_matches_profile():
    result = run_trace(twisted_cubic(), (0,), seed=0)
    assert result.delta == 3
    assert not result.delta_is_internal_gap
    assert result.gcd_degree == 0  # a unit gcd: consistent with connectedness
    assert result.expected_gcd_degree == 0


def test_trace_consistent_across_specializations():
    result = run_trace(twisted_cubic(), (1,), seed=5)
    assert result.consistent
    assert len(result.specialization_degrees) == 3


def test_trace_needs_dimension_three():
    from gintools.corpus import general_points
    with pytest.raises(ValueError):
        run_trace(general_points(4, seed=0), (0,), seed=0)


def test_trace_surface_levels(corpus_entries):
    entry = corpus_entries["ci-surface"]
    result = run_trace(entry.ideal(), (1, 1), seed=0)
    assert result.passed


def test_trace_exposes_proper_factor_on_disconnected_staircase():
    """A disconnected staircase forces a gap and a low-degree gcd.

    With lambdas (8, 6, 1) the jump at index 1 exceeds two; the largest
    internal gap is 6 and the gcd of the generators up to it must drop to
    degree 2, one more than the violating index.
    """
    M = staircase(4, (3, 0, 0, 0), (2, 1, 0, 0), (1, 6, 0, 0), (0, 8, 0, 0))
    I = Ideal(R4, [R4.monomial(g) for g in M.gens])
    result = run_trace(I, (0,), seed=0)
    assert result.step1_ok and result.step2_ok and result.consistent
    assert result.delta == 6
    assert result.delta_is_internal_gap
    assert result.gcd_degree == 2


def test_a_draw_kept_whole_gets_its_gcd_degree_from_its_own_basis(
        monkeypatch):
    """With no internal gap delta lies past every generator, so each
    draw's truncation is the draw itself, and its gcd degree is read off
    the leads of the basis the draw already holds: each draw makes its one
    Buchberger run and no other.  Under a gap the truncation drops
    generators and gets one run of its own per draw."""
    groebner = importlib.import_module("gintools.groebner")
    run = groebner._groebner_basis
    runs = []

    def recording(gens, ring, target=None):
        runs.append(len(gens))
        return run(gens, ring, target)

    cubic = twisted_cubic()
    M = staircase(4, (3, 0, 0, 0), (2, 1, 0, 0), (1, 6, 0, 0), (0, 8, 0, 0))
    gapped = Ideal(R4, [R4.monomial(g) for g in M.gens])
    gins = [gin(cubic, seed=0), gin(gapped, seed=0)]
    monkeypatch.setattr(groebner, "_groebner_basis", recording)
    result = run_trace(cubic, (0,), seed=0, gin_result=gins[0])
    assert not result.delta_is_internal_gap and result.passed
    assert runs == [3] * 3  # the three draws' own runs
    runs.clear()
    result = run_trace(gapped, (0,), seed=0, gin_result=gins[1])
    assert result.delta_is_internal_gap and result.passed
    assert result.specialization_degrees == (2, 2, 2) and len(runs) == 6
    assert all(kept < whole for whole, kept in zip(runs[:3], runs[3:]))


# Draws whose forms are special: ci-surface at gin seed 85 (the line of draw
# 0 gives Hilbert function (1, 2, 1, 1, ...) against the generic
# (1, 2, 1, 0, ...)) and elliptic-quartic at seed 104005001 (the line of
# draw 2 meets the curve).
RARE_SEEDS = [("ci-surface", (0, 0), 85), ("elliptic-quartic", (0,), 104005001)]


def _record_draws(monkeypatch, replace=lambda label, J: J):
    """Patch the trace's draws through ``replace``; return them by label."""
    module = importlib.import_module("gintools.gin")
    original = module._iterated_restriction
    drawn = {}

    def draw(I, levels, seed, label):
        drawn[label] = replace(label, original(I, levels, seed, label))
        return drawn[label]

    monkeypatch.setattr(module, "_iterated_restriction", draw)
    return drawn


@pytest.mark.parametrize("name,levels,seed", RARE_SEEDS)
def test_trace_redraws_special_forms(corpus_entries, monkeypatch, name,
                                     levels, seed):
    drawn = _record_draws(monkeypatch)
    result = run_trace(corpus_entries[name].ideal(), levels, seed=seed,
                       votes=5)
    assert result.passed
    assert max(drawn) == 3  # one redraw, under the next label


def test_trace_fails_when_every_draw_is_special(corpus_entries, monkeypatch):
    """The same special form on every draw leaves nothing to compare with."""
    module = importlib.import_module("gintools.gin")
    original = module._iterated_restriction
    monkeypatch.setattr(module, "_iterated_restriction",
                        lambda I, levels, seed, label: original(I, levels, seed, 0))
    result = run_trace(corpus_entries["ci-surface"].ideal(), (0, 0), seed=85,
                       votes=5)
    assert not result.step1_ok
    assert not result.passed


def _first(J, k):
    """A smaller ideal, so a larger Hilbert function: k generators of J.

    The three quadrics of a twisted-cubic draw span all of degree 2; two of
    them leave (1, 2, 1, 0, ...) with a unit gcd, one leaves (1, 2, 2, ...).
    """
    return Ideal(J.ring, J.gens[:k])


def test_trace_takes_the_first_generic_draw(monkeypatch):
    """Step 1 reads the gin of draw 1 off its Hilbert function, with no gin.

    Draw 0 is special, (1, 2, 1, 0, ...); its gin would be x0^2, x0*x1, x1^3.
    The gins to compare with are sampled, which builds no ideal from a
    Hilbert function.
    """
    drawn = _record_draws(
        monkeypatch, lambda label, J: _first(J, 2) if label == 0 else J)
    module = importlib.import_module("gintools.gin")
    seen, built = [], []
    original_gin = module._sampled_gin
    original_build = module._stable_ideal_with_hilbert

    def recording_gin(I, *args, **kwargs):
        seen.append(I)
        return original_gin(I, *args, **kwargs)

    def recording_build(values):
        built.append(values)
        return original_build(values)

    monkeypatch.setattr(module, "gin", recording_gin)
    monkeypatch.setattr(module, "_sampled_gin", recording_gin)
    monkeypatch.setattr(module, "_stable_ideal_with_hilbert", recording_build)
    I = twisted_cubic()
    result = run_trace(I, (0,), seed=0, gin_result=original_gin(I, seed=0))
    assert result.passed
    assert seen == []
    bound = len(built[0]) - 1
    assert built == [hilbert_function(initial_ideal(drawn[1]), bound)]
    assert result.analytic_gin == original_gin(drawn[1]).gin
    assert result.analytic_gin != original_gin(drawn[0]).gin
    assert sorted(drawn) == [0, 1, 2, 3]


@pytest.mark.parametrize("seed", range(12))
def test_stable_ideal_with_hilbert_is_the_gin_in_two_variables(seed):
    """Random ideals of K[x0, x1], some with a common factor: the gin is
    fixed by the Hilbert function up to the greatest x0- plus the greatest
    x1-exponent of in(J)."""
    rng = random.Random(seed)
    ring = PolyRing(2)
    common = ring.random_form(rng.randint(0, 2), rng)
    J = Ideal(ring, [common * ring.random_form(rng.randint(1, 4), rng)
                     for _ in range(rng.randint(1, 3))])
    L = initial_ideal(J)
    bound = L.max_exponent(0) + L.max_exponent(1)
    build = importlib.import_module("gintools.gin")._stable_ideal_with_hilbert
    assert build(hilbert_function(L, bound)) == gin(J, seed=seed, votes=3).gin


def test_trace_is_inconsistent_when_the_redraws_run_out(monkeypatch):
    """Special draws with the generic gcd degree still fail the trace."""
    drawn = _record_draws(
        monkeypatch, lambda label, J: J if label == 0 else _first(J, 2))
    result = run_trace(twisted_cubic(), (0,), seed=0)
    assert result.step1_ok and result.step2_ok
    assert set(result.specialization_degrees) == {0}
    assert not result.consistent and not result.passed
    assert max(drawn) == importlib.import_module("gintools.gin")._MAX_TRACE_DRAWS - 1


def test_trace_runs_step_one_on_a_draw_at_the_minimum(monkeypatch):
    """The last draw undercuts the one kept in front of it."""
    last = importlib.import_module("gintools.gin")._MAX_TRACE_DRAWS - 1
    _record_draws(monkeypatch, lambda label, J: (
        _first(J, 2) if label == 0 else J if label == last else _first(J, 1)))
    result = run_trace(twisted_cubic(), (0,), seed=0)
    assert result.step1_ok
    assert not result.consistent


@pytest.mark.parametrize("seed", range(5))
def test_gcd_recovers_planted_factor(seed):
    rng = random.Random(seed)
    F = R2.random_form(rng.randint(1, 3), rng)
    fs = [F * R2.random_form(rng.randint(1, 2), rng) for _ in range(3)]
    # cofactors at these pinned seeds share no factor, so the gcd is F itself
    assert _gcd_degree(Ideal(R2, fs)) == F.degree


# ---------------------------------------------------------------------------
# the gin as the largest sample

def _grevlex_greater(m, n):
    """m > n in grevlex for monomials of one degree: the last nonzero entry
    of m - n is negative."""
    return next(a - b for a, b in zip(m[::-1], n[::-1]) if a != b) < 0


def _at_most_in_every_degree(A, B, top):
    """A_d <= B_d for every d <= top, each degree-d part listed greatest
    first and compared at its first difference."""
    order = functools.cmp_to_key(
        lambda m, n: -1 if _grevlex_greater(m, n) else 1)
    for d in range(top + 1):
        parts = [sorted((m for m in _monos(M.nvars, d) if M.contains(m)),
                        key=order) for M in (A, B)]
        for a, b in zip(*parts):
            if a != b:
                if _grevlex_greater(a, b):
                    return False
                break
    return True


# elliptic quartic at gin seed 196: one special sample among five
QUARTIC_GIN = staircase(4, (2, 0, 0, 0), (1, 1, 0, 0), (0, 3, 0, 0))
QUARTIC_SPECIAL = staircase(4, (2, 0, 0, 0), (0, 2, 0, 0))


def test_largest_sample_does_not_depend_on_the_order_of_the_samples():
    largest = importlib.import_module("gintools.gin")._largest_sample
    samples = [QUARTIC_SPECIAL] + [QUARTIC_GIN] * 4
    for order in set(itertools.permutations(samples)):
        assert largest(list(order), R4) == QUARTIC_GIN


def test_largest_sample_raises_when_no_sample_dominates():
    # a has the greater quadric, b the greater cubic (x0^3)
    a = staircase(3, (1, 1, 0), (0, 0, 3))
    b = staircase(3, (1, 0, 1), (3, 0, 0))
    assert not _at_most_in_every_degree(a, b, 3)
    assert not _at_most_in_every_degree(b, a, 3)
    for samples in ([a, b], [b, a, a]):
        with pytest.raises(GinUnstableError, match="p=32003"):
            importlib.import_module("gintools.gin")._largest_sample(samples, R3)


@settings(max_examples=30)
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.sampled_from([7, 11]))
def test_every_sample_is_at_most_the_kept_one(seed, count, p):
    ring = PolyRing(3, p)
    rng = random.Random(seed)
    I = Ideal(ring, [ring.random_form(rng.randint(1, 2), rng)
                     for _ in range(count)])
    module = importlib.import_module("gintools.gin")
    sample = module._sample_initial_ideal
    samples = []

    def recording(*args):
        samples.append(sample(*args))
        return samples[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "_sample_initial_ideal", recording)
        try:
            kept = _sampled_gin(I, seed=seed).gin
        except GinUnstableError:
            return
    top = max(M.max_degree() for M in samples)
    for M in samples:
        assert _at_most_in_every_degree(M, kept, top), (M, kept)


# ---------------------------------------------------------------------------
# samples stopped by the Hilbert series

def recorded_targets(I, monkeypatch):
    """The target series each sample's Buchberger run of the sampled gin
    of I gets."""
    module = importlib.import_module("gintools.gin")
    run = module._groebner_basis
    targets = []

    def recording(gens, ring, target=None):
        targets.append(target)
        return run(gens, ring, target)

    monkeypatch.setattr(module, "_groebner_basis", recording)
    _sampled_gin(I, seed=3)
    return targets


def test_every_sample_stops_at_the_series_of_the_ideal(monkeypatch):
    """Sample 0 included: the series comes from I's own basis."""
    I = twisted_cubic()
    targets = recorded_targets(I, monkeypatch)
    expected = initial_ideal(I).numerator
    assert targets == [expected, expected]


def test_every_sample_of_an_ideal_with_its_basis_stops(monkeypatch):
    """A section read off a slice basis holds its reduced basis."""
    section = _SliceBasis(twisted_cubic(), R4.variable(3)).section(0)
    targets = recorded_targets(section, monkeypatch)
    assert targets == [initial_ideal(section).numerator] * 2


def test_a_sample_short_of_the_series_is_refused(capsys, monkeypatch):
    """A kernel that loses a generator after the first sample ends short
    of the series: exit 4, naming the prime."""
    module = importlib.import_module("gintools.gin")
    run = module._groebner_basis

    def lossy(gens, ring, target=None):
        return run(gens if target is None else gens[:-1], ring, target)

    monkeypatch.setattr(module, "_groebner_basis", lossy)
    code = main(["gin", "--gens", "x0*x2 - x1^2, x0*x3 - x1*x2, x1*x3 - x2^2",
                 "--n", "3", "--prime", "11"])
    assert code == 4
    assert "p=11" in capsys.readouterr().err


def test_slice_and_gap_refuse_a_gin_that_is_only_p_borel():
    I = ideal(PolyRing(4, 2), "x0^2, x1^2")
    for check in (verify_slice_identity, verify_gap_truncation):
        with pytest.raises(ComputationError,
                           match="not strongly stable.*p=2"):
            check(I)


# ---------------------------------------------------------------------------
# the gin read off a chain of certified sections

@st.composite
def small_ideals(draw):
    """Random ideals in 2-5 variables; half of them times (x0, ..., xn),
    which is not saturated."""
    nvars = draw(st.integers(2, 5))
    prime = draw(st.sampled_from([7, 11, 101, 32003]))
    ring = PolyRing(nvars, prime)
    rng = random.Random(draw(st.integers(0, 10 ** 9)))
    gens = [ring.random_form(rng.randint(1, 2), rng)
            for _ in range(rng.randint(1, 3))]
    if draw(st.booleans()):
        gens = [g * ring.variable(i) for g in gens for i in range(nvars)]
    return Ideal(ring, gens), draw(st.integers(0, 10 ** 6))


def _gin_or_refusal(I, seed, compute):
    try:
        return compute(I, seed=seed).gin
    except GinUnstableError:
        return None


@settings(max_examples=60, derandomize=True)
@given(small_ideals())
def test_the_chain_gives_the_sampled_gin(case):
    """Equal gins at p = 101 and 32003.  At p = 7 and 11 a special draw
    can make one side refuse, but the two never give different gins."""
    I, seed = case
    chained = _gin_or_refusal(I, seed, gin)
    sampled = _gin_or_refusal(Ideal(I.ring, I.gens), seed, _sampled_gin)
    if I.ring.prime > 100:
        assert chained is not None and chained == sampled
    elif chained is not None and sampled is not None:
        assert chained == sampled


def _sampled_levels(monkeypatch):
    """The number of variables of each ideal that gin() samples."""
    module = importlib.import_module("gintools.gin")
    sampled = module._sampled_gin
    levels = []

    def recording(J, *args, **kwargs):
        levels.append(J.ring.nvars)
        return sampled(J, *args, **kwargs)

    monkeypatch.setattr(module, "_sampled_gin", recording)
    return levels


def test_cohen_macaulay_entries_draw_no_sample(corpus_gins):
    """Only the rational quartic, of depth 1, is sampled."""
    sampled = {name for name, r in corpus_gins.items() if r.samples_used}
    assert sampled == {"rational-quartic"}
    assert all(r.agreed for r in corpus_gins.values())


def test_the_last_level_of_a_chain_keeps_the_series_of_i(corpus_entries,
                                                         monkeypatch):
    """gin() reads the Hilbert function of the chain's last level, in
    K[x0, x1], off N, the numerator of I's series, without computing that
    level's own: every level keeps N.  Checked on every packaged entry
    whose gin is read off the chain, by the numerator of each last level's
    lead ideal."""
    module = importlib.import_module("gintools.gin")
    levels = []
    restrict, run = module.restrict_last, module._groebner_basis

    def restricted(L):
        levels.append(restrict(L))
        return levels[-1]

    def basis(gens, ring, target=None):
        G = run(gens, ring, target)
        levels.append(MonomialIdeal.from_monomials(
            ring.nvars, (g.lead_monomial for g in G)))
        return G

    monkeypatch.setattr(module, "restrict_last", restricted)
    monkeypatch.setattr(module, "_groebner_basis", basis)
    read = set()
    for name, entry in corpus_entries.items():
        I = entry.ideal()
        levels.clear()
        if gin(I, seed=0, votes=5).samples_used:
            continue
        read.add(name)
        assert levels[-1].nvars == 2
        assert levels[-1].numerator == I.lead_ideal().numerator
    assert read == set(corpus_entries) - {"rational-quartic"}


def test_a_chain_without_its_certificate_loses_a_generator(corpus_entries,
                                                         monkeypatch):
    """Without the target, the rational quartic's second section is taken
    although its form is a zero divisor, and the gin read off K[x0, x1]
    misses x0*x1*x2."""
    I = corpus_entries["rational-quartic"].ideal()
    assert gin(I, seed=0).gin.contains((1, 1, 1, 0))
    module = importlib.import_module("gintools.gin")
    run = module._groebner_basis
    monkeypatch.setattr(module, "_groebner_basis",
                        lambda gens, ring, target=None: run(gens, ring))
    uncertified = gin(I, seed=0)
    assert uncertified.samples_used == 0
    assert not uncertified.gin.contains((1, 1, 1, 0))


def _recorded_restrictions(monkeypatch):
    """The (J, form) pairs of every ``restrict_ideal`` call gin() makes."""
    module = importlib.import_module("gintools.gin")
    restrict = module.restrict_ideal
    calls = []

    def recording(J, form):
        calls.append((J, form))
        return restrict(J, form)

    monkeypatch.setattr(module, "restrict_ideal", recording)
    return calls


def test_a_regular_but_special_first_section_is_not_sampled(corpus_entries,
                                                           monkeypatch):
    """x3 = 0 is the tangent plane at (1:0:0:0) of the quadric
    x1*x2 - x0*x3 through the rational quartic, and meets the quartic only
    there.  No generator of in(I) involves x3, so x3 is regular and the
    chain takes that section without drawing a form, although it is not
    generic.  The form drawn at three variables is a zero divisor, so the
    chain stops at depth 1, and I, not that section, is sampled."""
    calls = _recorded_restrictions(monkeypatch)
    levels = _sampled_levels(monkeypatch)
    I = corpus_entries["rational-quartic"].ideal()
    result = gin(I, seed=0)
    assert [J.ring.nvars for J, _ in calls] == [3] and levels == [4]
    J, form = calls[0]
    assert any(oracles.colon_dim(J.gens, form, d, 3, J.ring.prime)
               > oracles.ideal_dim(J.gens, d, 3, J.ring.prime)
               for d in range(1, 5))
    assert result.gin == staircase(4, (2, 0, 0, 0), (1, 2, 0, 0),
                                   (0, 3, 0, 0), (1, 1, 1, 0))


def _counted_calls(monkeypatch, module, *names):
    """The number of calls of each named function of ``module`` (a module
    name) through that module's binding."""
    module = importlib.import_module(module)
    counts = dict.fromkeys(names, 0)

    def counted(name):
        run = getattr(module, name)

        def counting(*args, **kwargs):
            counts[name] += 1
            return run(*args, **kwargs)
        return counting

    for name in names:
        monkeypatch.setattr(module, name, counted(name))
    return counts


@pytest.mark.parametrize("build", [
    lambda: complete_intersection(2, 3, 5, 0),
    lambda: determinantal(5, 0),
], ids=["ci-2-3-P5", "determinantal-P5"])
def test_a_chain_of_coordinate_sections_runs_no_buchberger(build,
                                                           monkeypatch):
    """in(I) is generated in K[x0, x1], so every section of the chain is
    by a coordinate hyperplane and is read off I's own basis: no
    Buchberger run and no restricted generator.  A fresh I makes its one
    run for its leads and never reduces it."""
    I = build()
    sampled = _sampled_gin(I, votes=5).gin
    counts = _counted_calls(monkeypatch, "gintools.gin", "_groebner_basis",
                            "restrict_ideal", "drop_last")
    result = gin(I, seed=0)
    assert counts == {"_groebner_basis": 0, "restrict_ideal": 0,
                      "drop_last": 0}
    assert result.samples_used == 0 and result.gin == sampled
    fresh = Ideal(I.ring, I.gens)
    runs = _counted_calls(monkeypatch, "gintools.groebner",
                          "_groebner_basis", "_reduce_basis")
    assert gin(fresh, seed=0) == result
    assert runs == {"_groebner_basis": 1, "_reduce_basis": 0}
    assert fresh._gb is None


def test_the_twisted_cubic_draws_one_chain_form(capsys, monkeypatch):
    """in(I) = (x1^2, x1*x2, x2^2): x3 is regular, x2 is not, so one form
    is drawn, at three variables, and the gin is the golden one."""
    calls = _recorded_restrictions(monkeypatch)
    data = Path(__file__).resolve().parent.parent / "src" / "gintools" / "data"
    golden = Path(__file__).resolve().parent / "golden"
    assert main(["gin", "--in", str(data / "twisted-cubic.ideal"),
                 "--seed", "0", "--json"]) == 0
    assert [J.ring.nvars for J, _ in calls] == [3]
    assert capsys.readouterr().out == \
        (golden / "gin_twisted_cubic_seed0.json").read_text()


@st.composite
def monomial_ideals(draw):
    nvars = draw(st.integers(3, 5))
    exponents = st.tuples(*[st.integers(0, 3)] * nvars)
    return MonomialIdeal.from_monomials(
        nvars, draw(st.lists(exponents, min_size=1, max_size=5)))


@settings(max_examples=100, derandomize=True)
@given(monomial_ideals())
def test_no_generator_on_x_last_is_the_numerator_certificate(L):
    """x_last is regular on R/L exactly when the section keeps the
    numerator of the Hilbert series, the certificate a drawn form gets."""
    n = L.nvars - 1
    regular = all(g[-1] == 0 for g in L.gens)
    assert regular == (restrict_last(L).numerator == L.numerator)


@st.composite
def small_polynomial_ideals(draw):
    nvars = draw(st.integers(3, 5))
    ring = PolyRing(nvars, draw(st.sampled_from([7, 32003])))
    rng = random.Random(draw(st.integers(0, 10 ** 9)))
    gens = [ring.random_form(rng.randint(1, 3), rng)
            for _ in range(rng.randint(1, 3))]
    if draw(st.booleans()):  # forms in fewer variables: x_last divides out
        gens = [g * ring.variable(nvars - 1) for g in gens[:1]] + gens[1:]
    return Ideal(ring, gens)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(small_polynomial_ideals())
def test_every_coordinate_section_is_by_a_nonzerodivisor(I):
    """By rank alone: (J : x_last)_d = J_d up to the top degree of in(J)'s
    generators, where in(J : x_last) = in(J) : x_last is generated, at
    every level where the chain cuts by x_last.  The generators of a level
    are those of I, or of the last drawn section above it, restricted to
    x_last = 0 once per level between."""
    module = importlib.import_module("gintools.gin")
    cut, restrict, cuts, sources = module.restrict_last, \
        module.restrict_ideal, {}, [I]

    def recording_cut(L):
        cuts[L.nvars] = L
        return cut(L)

    def recording_restrict(J, form):
        sources.append(restrict(J, form))
        return sources[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "restrict_last", recording_cut)
        patch.setattr(module, "restrict_ideal", recording_restrict)
        _gin_or_refusal(I, 0, gin)
    p = I.ring.prime
    for nvars, L in cuts.items():
        J = min((S for S in sources if S.ring.nvars >= nvars),
                key=lambda S: S.ring.nvars)
        ring, gens = J.ring, list(J.gens)
        while ring.nvars > nvars:
            ring = ring.restricted()
            gens = [r for r in map(drop_last, gens) if not r.is_zero()]
        x_last = ring.variable(nvars - 1)
        for d in range(L.max_degree() + 1):
            assert oracles.colon_dim(gens, x_last, d, nvars, p) == \
                oracles.ideal_dim(gens, d, nvars, p), (nvars, d)


def test_an_unsaturated_ideal_is_sampled_at_level_zero(monkeypatch):
    I = ideal(R3, "x0^2, x0*x1, x0*x2")
    levels = _sampled_levels(monkeypatch)
    result = gin(I, seed=0)
    assert levels == [3]
    assert result == _sampled_gin(ideal(R3, "x0^2, x0*x1, x0*x2"), seed=0)


def test_two_skew_lines_stop_the_chain_at_depth_one(monkeypatch):
    """(x0, x1) meet (x2, x3): R/I has depth 1, so one section is certified,
    the second form is a zero divisor, and I is sampled."""
    I = ideal(R4, "x0*x2, x0*x3, x1*x2, x1*x3")
    levels = _sampled_levels(monkeypatch)
    result = gin(I, seed=0)
    assert levels == [4]
    assert result.samples_used >= 2
    assert result.gin == _sampled_gin(
        ideal(R4, "x0*x2, x0*x3, x1*x2, x1*x3"), seed=0).gin


def test_a_prime_below_the_degree_bound_is_sampled(monkeypatch):
    """At p = 11 the gin of (x0^7, x1^7) is 11-Borel but not strongly
    stable.  The chain reaches K[x0, x1], but the ideal its Hilbert
    function gives would be wrong, so I is sampled."""
    ring = PolyRing(3, 11)
    levels = _sampled_levels(monkeypatch)
    result = gin(ideal(ring, "x0^7, x1^7"), seed=0)
    assert levels == [3]
    assert result.gin == staircase(3, (7, 0, 0), (6, 1, 0), (5, 3, 0),
                                   (4, 5, 0), (3, 7, 0), (0, 11, 0))
    build = importlib.import_module("gintools.gin")._stable_ideal_with_hilbert
    read_off = build(hilbert_function(restrict_last(result.gin), 14))
    assert read_off != restrict_last(result.gin)
