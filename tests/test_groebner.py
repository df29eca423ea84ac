import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from gintools.ring import (DEGREE_MASK, LinearChange, Poly, PolyRing,
                           last_image, mono_div, mono_divides,
                           monomials_of_degree, restrict, revlex_key)
from gintools.corpus import complete_intersection, general_points, point_ideal
from gintools.groebner import (Ideal, _EliminationRing, _SliceBasis,
                               _divide, _groebner_basis, _lift,
                               _reduce_basis, _reducer, _s_pair,
                               buchberger, ideal_quotient, initial_ideal,
                               intersect, normal_form, restrict_ideal,
                               saturate, truncate)
from gintools.parsing import parse_ideal, parse_polynomial
from gintools.staircase import (GinUnstableError, MonomialIdeal,
                                _koszul_numerator, _numerator,
                                hilbert_function)

R3 = PolyRing(3)
R4 = PolyRing(4)


def poly(ring, text):
    return parse_polynomial(text, ring)


def ideal(ring, text):
    return parse_ideal(text, ring.nvars, ring.prime)


def twisted_cubic():
    return ideal(R4, "x0*x2 - x1^2, x0*x3 - x1*x2, x1*x3 - x2^2")


def random_ideal(seed, ring=R3, max_gens=2, max_degree=2):
    rng = random.Random(seed)
    k = rng.randint(1, max_gens)
    return Ideal(ring, [ring.random_form(rng.randint(1, max_degree), rng)
                        for _ in range(k)])


# ---------------------------------------------------------------------------
# normal form

def test_self_reduction():
    g = poly(R3, "x1^2 - x0*x2")
    assert normal_form(g, [g]).is_zero()


def test_empty_divisor_set():
    f = poly(R3, "x0^2 + x1*x2")
    assert normal_form(f, []) == f


def test_zero_divisors_are_dropped():
    """A zero polynomial in the basis divides nothing, as Ideal and
    buchberger drop zero generators; it used to raise IndexError."""
    f = poly(R3, "x0*x1 + x2^2")
    x0 = R3.variable(0)
    assert normal_form(f, [R3.zero(), x0]) == normal_form(f, [x0]) \
        == poly(R3, "x2^2")
    assert normal_form(f, [R3.zero()]) == f


def test_single_step_division():
    f = poly(R3, "x1^3")
    g = poly(R3, "x1^2 - x0*x2")
    r = normal_form(f, [g])
    # remainder has no term divisible by the head x1^2, and f - r in (g)
    assert all(not (m[1] >= 2) for m, _ in r.terms)
    assert oracles.is_member(f - r, [g], 3, R3.prime)


def test_no_remainder_term_divisible_by_heads():
    I = twisted_cubic()
    gb = I.groebner_basis()
    f = poly(R4, "x1^2*x3 + x0*x2^2 + x2^3")
    r = normal_form(f, gb)
    heads = [g.lead_monomial for g in gb]
    from gintools.ring import mono_divides
    assert all(not mono_divides(h, m) for h in heads for m, _ in r.terms)


def sparse_poly(ring, rng, degrees, max_terms=8):
    """A random polynomial with a few terms whose degrees lie in ``degrees``."""
    monos = [m for d in degrees for m in monomials_of_degree(ring.nvars, d)]
    picked = rng.sample(monos, min(len(monos), rng.randint(1, max_terms)))
    return ring.from_dict({m: rng.randrange(1, ring.prime) for m in picked})


def homogeneous_division_case(seed, nvars):
    """A grevlex ring over F_7, where cancellations are frequent, a random
    form f and divisors: a few random forms, or their Groebner basis."""
    rng = random.Random(seed)
    ring = PolyRing(nvars, 7)
    divisors = [sparse_poly(ring, rng, [rng.randint(1, 2)])
                for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        divisors = list(buchberger(divisors, ring))
    f = sparse_poly(ring, rng, [rng.randint(2, 4)], max_terms=15)
    return ring, f, divisors


def x_homogeneous_poly(big, rng, x_degree, max_terms=8):
    """A random polynomial of the elimination ring, homogeneous in x of the
    given x-degree, with t to powers 0 to 2: the only kind ``intersect``
    makes."""
    monos = [m + (k,) for m in monomials_of_degree(big.nvars - 1, x_degree)
             for k in range(3)]
    picked = rng.sample(monos, min(len(monos), rng.randint(1, max_terms)))
    return big.from_dict({m: rng.randrange(1, big.prime) for m in picked})


def elimination_division_case(seed, big):
    """The same in the elimination ring, with polynomials homogeneous in x
    but not in x and t."""
    rng = random.Random(seed)
    divisors = [x_homogeneous_poly(big, rng, rng.randint(1, 2), max_terms=4)
                for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        divisors = list(buchberger(divisors, big))
    f = x_homogeneous_poly(big, rng, rng.randint(1, 3), max_terms=15)
    return big, f, divisors


@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3, 4]))
@settings(max_examples=40)
def test_heap_normal_form_matches_scan_division_in_grevlex(seed, nvars):
    ring, f, divisors = homogeneous_division_case(seed, nvars)
    expected = oracles.scan_normal_form(f.terms, [g.terms for g in divisors],
                                        ring.prime, oracles.grevlex_order)
    assert normal_form(f, divisors).terms == expected


@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]))
@settings(max_examples=40)
def test_heap_normal_form_matches_scan_division_in_elimination_order(seed,
                                                                     nvars):
    big = _EliminationRing(PolyRing(nvars, 7))
    _, f, divisors = elimination_division_case(seed, big)
    expected = oracles.scan_normal_form(f.terms, [g.terms for g in divisors],
                                        big.prime,
                                        oracles.x_degree_first_order)
    assert normal_form(f, divisors).terms == expected


def test_division_rejects_a_ring_with_other_nvars():
    f = poly(R3, "x0^2 + x1*x2")
    with pytest.raises(ValueError, match="different lengths"):
        normal_form(f, [poly(R4, "x0 + x3")])
    with pytest.raises(ValueError, match="different lengths"):
        normal_form(f, [poly(R3, "x1"), poly(R4, "x0 + x3")])


def test_buchberger_rejects_a_generator_with_other_nvars():
    """Every generator is checked, the first one too, before the division
    adds its exponent tuples unchecked."""
    for gens in ([poly(R3, "x0^2 + x1*x2"), poly(R4, "x0 + x3")],
                 [poly(R4, "x0 + x3"), poly(R3, "x0^2 + x1*x2")],
                 [poly(R4, "x0 + x3")]):
        with pytest.raises(ValueError, match="different lengths: 4 vs 3"):
            buchberger(gens, R3)
    # the same number of variables over another field
    with pytest.raises(ValueError, match="polynomials from different rings"):
        buchberger([poly(PolyRing(3, 7), "x0^2 + x1*x2")], R3)


def s_polynomial_terms(f, g, p):
    """u*f - v*g for monic f and g, u*lm(f) = v*lm(g) their lcm, as
    (monomial, coefficient) pairs with the zero coefficients dropped."""
    lcm = oracles.monomial_lcm(f.lead_monomial, g.lead_monomial)
    coeffs = {}
    for h, sign in ((f, 1), (g, -1)):
        u = mono_div(lcm, h.lead_monomial)
        for m, c in h.terms:
            mm = tuple(a + b for a, b in zip(m, u))
            coeffs[mm] = (coeffs.get(mm, 0) + sign * c) % p
    return [(m, c) for m, c in coeffs.items() if c]


def check_s_pair_remainder(ring, order, rng):
    """The S-pair that Buchberger forms in the division's dict, divided by
    a reducer table, against the scan division of an S-polynomial built
    here; the oracle's S-polynomial of Poly products against the same
    S-polynomial.  Over F_7,
    where cancellations are frequent; forms in a graded ring, polynomials
    homogeneous in x in the elimination ring."""
    p = ring.prime

    def monic_poly():
        if ring.graded:
            f = sparse_poly(ring, rng, [rng.randint(1, 3)], max_terms=4)
        else:
            f = x_homogeneous_poly(ring, rng, rng.randint(1, 2), max_terms=4)
        return f.monic()

    f, g = monic_poly(), monic_poly()
    basis = [monic_poly() for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        basis = list(buchberger(basis + [f, g], ring))
    s = s_polynomial_terms(f, g, p)
    expected = oracles.scan_normal_form(s, [b.terms for b in basis], p, order)
    table = [_reducer(b) for b in basis]
    lcm = ring.sort_key(oracles.monomial_lcm(f.lead_monomial, g.lead_monomial))
    remainder = _divide(_s_pair(_reducer(f), _reducer(g), lcm, p), table, ring)
    assert Poly(ring, remainder).terms == expected
    sorted_s = oracles.scan_normal_form(s, [], p, order)
    assert oracles.s_polynomial(f.scale(3), g.scale(5)).terms == sorted_s


@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3, 4]))
@settings(max_examples=40)
def test_s_pair_remainder_matches_scan_division_in_grevlex(seed, nvars):
    check_s_pair_remainder(PolyRing(nvars, 7), oracles.grevlex_order,
                           random.Random(seed))


@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]))
@settings(max_examples=40)
def test_s_pair_remainder_matches_scan_division_in_elimination_order(seed,
                                                                     nvars):
    check_s_pair_remainder(_EliminationRing(PolyRing(nvars, 7)),
                           oracles.x_degree_first_order, random.Random(seed))


# ---------------------------------------------------------------------------
# buchberger

def test_monomial_ideal_is_its_own_basis():
    I = ideal(R3, "x0, x1")
    assert [g.terms for g in I.groebner_basis()] == \
        [g.terms for g in (poly(R3, "x0"), poly(R3, "x1"))]


def test_principal_ideal_basis_is_monic_generator():
    I = Ideal(R3, [poly(R3, "7*x1^2 - 14*x0*x2")])
    (g,) = I.groebner_basis()
    assert g.lead_coeff == 1
    assert g == poly(R3, "x1^2 - 4573*x0*x2").monic() or g.terms[0][1] == 1


def test_twisted_cubic_hilbert_against_ranks():
    I = twisted_cubic()
    counts = oracles.quotient_ring_dims(list(I.gens), 5, 4, R4.prime)
    assert counts == [1, 4, 7, 10, 13, 16]
    assert counts[1:] == [3 * d + 1 for d in range(1, 6)]
    assert list(hilbert_function(initial_ideal(I), 5)) == counts


def test_spoly_certificate_on_corpus_basis():
    gb = twisted_cubic().groebner_basis()
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            s = oracles.s_polynomial(gb[i], gb[j])
            assert normal_form(s, gb).is_zero()


@given(st.integers(0, 1000))
@settings(max_examples=25)
def test_buchberger_certificates_random(seed):
    I = random_ideal(seed)
    gb = I.groebner_basis()
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            s = oracles.s_polynomial(gb[i], gb[j])
            assert normal_form(s, gb).is_zero()
    for g in I.gens:
        assert normal_form(g, gb).is_zero()
    for g in gb:
        assert oracles.is_member(g, list(I.gens), 3, R3.prime)


@pytest.mark.parametrize("seed", range(3))
def test_buchberger_takes_pairs_by_increasing_lcm(seed, monkeypatch):
    """The normal strategy on homogeneous input: the lcm degree of the
    processed pairs never falls."""
    import gintools.groebner as gb
    degrees = []

    def recorded(f, g, lcm, p):
        assert R4.unpack(lcm) == oracles.monomial_lcm(R4.unpack(f[0]),
                                                      R4.unpack(g[0]))
        degrees.append(sum(R4.unpack(lcm)))
        return _s_pair(f, g, lcm, p)

    monkeypatch.setattr(gb, "_s_pair", recorded)
    rng = random.Random(seed)
    buchberger([R4.random_form(d, rng) for d in (2, 2, 3)], R4)
    assert len(set(degrees)) > 1
    assert degrees == sorted(degrees)


@pytest.mark.parametrize("seed, pairs", [(0, 12), (1, 9), (3, 11)])
def test_buchberger_processes_a_pinned_number_of_s_pairs(seed, pairs,
                                                         monkeypatch):
    """Five random quadrics and cubics in P^2, more forms than variables,
    so no floor stops the run: the S-pairs processed are pinned.  Dropping
    Gebauer-Moeller's B criterion adds one at seed 0 and two at seeds 1
    and 3; dropping its M criterion adds five at seed 0 and four at 3."""
    import gintools.groebner as gb
    calls = []
    monkeypatch.setattr(gb, "_s_pair",
                        lambda *args: calls.append(args) or _s_pair(*args))
    rng = random.Random(seed)
    gens = [R3.random_form(rng.randint(2, 3), rng) for _ in range(5)]
    assert as_sympy(buchberger(gens, R3)) == \
        oracles.sympy_reduced_basis(gens, R3)
    assert len(calls) == pairs


# ---------------------------------------------------------------------------
# initial ideals

def test_initial_ideal_of_monomial_ideal():
    assert initial_ideal(ideal(R3, "x0")) == \
        MonomialIdeal.from_monomials(3, [(1, 0, 0)])


def test_initial_ideal_of_principal_quadric():
    assert initial_ideal(ideal(R3, "x1^2 - x0*x2")) == \
        MonomialIdeal.from_monomials(3, [(0, 2, 0)])


def test_initial_ideal_of_linear_forms_row_reduces():
    assert initial_ideal(ideal(R3, "x0 + x1, x1 + x2")) == \
        MonomialIdeal.from_monomials(3, [(1, 0, 0), (0, 1, 0)])


def test_an_ideal_keeps_its_lead_ideal_through_reduction():
    """The lead ideal is read off the run's unreduced basis once and kept:
    after the reduced basis is built it is the same object, and its
    generators are the reduced basis' leads, not the generators' leads."""
    I = ideal(R3, "x0^2 + x1*x2, x1^2 + x0*x2, x2^2 + x0*x1")
    L = I.lead_ideal()
    assert I._gb is None and initial_ideal(I) is L
    basis = I.groebner_basis()
    assert I.lead_ideal() is L and initial_ideal(I) is L
    assert sorted(L.gens) == sorted(g.lead_monomial for g in basis)


@given(st.integers(0, 1000))
@settings(max_examples=20)
def test_hilbert_function_preserved_by_initial_ideal(seed):
    I = random_ideal(seed)
    dmax = 5
    assert list(hilbert_function(initial_ideal(I), dmax)) == \
        oracles.quotient_ring_dims(list(I.gens), dmax, 3, R3.prime)


# ---------------------------------------------------------------------------
# hilbert function of monomial ideals

def test_hilbert_of_zero_ideal():
    assert list(hilbert_function(MonomialIdeal(3, ()), 4)) == [1, 3, 6, 10, 15]


def test_hilbert_of_quadric_staircase_in_p3():
    M = MonomialIdeal.from_monomials(4, [(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)])
    values = list(hilbert_function(M, 6))
    assert values[0] == 1
    assert values[1:] == [3 * d + 1 for d in range(1, 7)]


def test_hilbert_of_principal_variable():
    M = MonomialIdeal.from_monomials(2, [(1, 0)])
    assert hilbert_function(M, 5) == (1,) * 6


def test_hilbert_rejects_generators_of_the_wrong_length():
    with pytest.raises(ValueError):
        hilbert_function(MonomialIdeal(3, ((1, 0),)), 2)


def test_hilbert_of_unit_ideal_is_zero():
    assert hilbert_function(MonomialIdeal(3, ((0, 0, 0),)), 3) == (0,) * 4


MONOMIAL_IDEALS = st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=7)))


@given(MONOMIAL_IDEALS, st.integers(0, 14))
@settings(max_examples=200)
def test_hilbert_function_matches_enumeration(ideal_gens, dmax):
    nvars, gens = ideal_gens
    M = MonomialIdeal.from_monomials(nvars, gens)
    assert list(hilbert_function(M, dmax)) == \
        oracles.hilbert_by_enumeration(gens, nvars, dmax)


# ---------------------------------------------------------------------------
# Buchberger stopped by a known Hilbert series

def as_sympy(basis):
    """A reduced basis in the form ``oracles.sympy_reduced_basis`` gives."""
    return sorted(tuple(sorted(g.terms)) for g in basis)


def lead_ideal(basis, nvars):
    return MonomialIdeal.from_monomials(nvars,
                                        (g.lead_monomial for g in basis))


def sparse_form(ring, degree, rng):
    """Two or three terms of one degree: sparse ideals have bases that
    skip degrees, which dense ones in general coordinates seldom do."""
    terms = {}
    for _ in range(rng.randint(2, 3)):
        m = [0] * ring.nvars
        for _ in range(degree):
            m[rng.randrange(ring.nvars)] += 1
        terms[tuple(m)] = rng.randrange(1, ring.prime)
    return ring.from_dict(terms)


@given(st.integers(0, 10 ** 6), st.sampled_from([7, 11, 32003]),
       st.sampled_from([3, 4]), st.booleans())
@settings(max_examples=80)
def test_early_stopped_lead_ideal_equals_the_full_one(seed, p, nvars, move):
    """A coordinate change keeps the Hilbert series, so the series of I
    stops the run on g(I); its lead monomials are in(g(I)) all the same."""
    rng = random.Random(seed)
    ring = PolyRing(nvars, p)
    I = Ideal(ring, [sparse_form(ring, rng.randint(1, 4), rng)
                     for _ in range(rng.randint(2, 3))])
    identity = tuple(tuple(int(i == j) for j in range(nvars))
                     for i in range(nvars))
    change = (LinearChange.random(ring, rng) if move
              else LinearChange(ring, identity))
    moved = [change.apply(g) for g in I.gens]
    stopped = _groebner_basis(moved, ring, initial_ideal(I).numerator)
    assert lead_ideal(stopped, nvars) == initial_ideal(Ideal(ring, moved))


def test_stop_needs_the_whole_series_not_the_values_so_far():
    """The basis gains x0*x2^3 in degree 4 and x1^3*x2^3 in degree 6.  At
    the degree-5 boundary the leads found so far have the right Hilbert
    values up to degree 5, but not the right series."""
    I = ideal(R3, "x0^2 - x0*x1, x0*x1^2 - x2^3")
    full = initial_ideal(I)
    assert (0, 3, 3) in full.gens
    stopped = _groebner_basis(I.gens, R3, full.numerator)
    assert lead_ideal(stopped, 3) == full


def test_a_basis_with_its_series_processes_no_pair(monkeypatch):
    import gintools.groebner as gb
    I = twisted_cubic()
    target = initial_ideal(I).numerator
    calls = []

    def recorded(f, g, lcm, p):
        calls.append((f, g))
        return _s_pair(f, g, lcm, p)

    monkeypatch.setattr(gb, "_s_pair", recorded)
    assert len(_groebner_basis(I.groebner_basis(), R4, target)) == 3
    assert calls == []
    # the hook sees the pairs of the same basis run without its series
    assert len(_groebner_basis(I.groebner_basis(), R4)) == 3
    assert calls


def test_a_series_never_reached_raises_naming_the_prime():
    ring = PolyRing(3, 7)
    I = ideal(ring, "x0^2 + x1*x2, x1^2")
    wrong = MonomialIdeal.from_monomials(3, [(2, 0, 0)]).numerator
    with pytest.raises(GinUnstableError, match="p=7"):
        _groebner_basis(I.gens, ring, wrong)


# ---------------------------------------------------------------------------
# the Koszul floor: r <= nvars forms stop at prod (1 - t^d_i)

def floor_forms(kind, ring, rng):
    """At most nvars forms, often not a regular sequence."""
    n = ring.nvars

    def form():
        return ring.random_form(rng.randint(1, 4 - n // 2), rng)

    if kind == "random":
        return [form() for _ in range(rng.randint(1, n))]
    if kind == "r = nvars":
        return [form() for _ in range(n)]
    f = form()
    if kind == "common factor":
        return [f * ring.random_form(rng.randint(0, 1), rng)
                for _ in range(rng.randint(2, n))]
    if kind == "repeated form":
        return [f, form(), f][:n]
    # a form that is a multiple of another, which comes first
    return [form() * f, f, form()][:n]


def unfloored_basis(forms, ring):
    """The run on the forms padded to nvars + 1 with copies of x0 times the
    first: the same ideal, but more forms than variables have no Koszul
    floor, so the run processes every pair.  The copies reduce to zero as
    they join and make no pair."""
    pad = forms[0] * ring.variable(0)
    return _groebner_basis(forms + [pad] * (ring.nvars + 1 - len(forms)),
                           ring)


@given(st.integers(0, 10 ** 6), st.sampled_from([2, 7, 32003]),
       st.sampled_from([2, 3, 4]),
       st.sampled_from(["random", "r = nvars", "common factor",
                        "repeated form", "multiple"]))
@settings(max_examples=60, derandomize=True)
def test_the_floored_basis_is_the_full_one(seed, p, nvars, kind):
    """Stopped at the floor or not, the reduced basis is byte-identical
    to the one from a run of the same ideal that processes every pair, and
    the lead ideal of a fresh ideal, read off its floored basis unreduced,
    has the leads of that reduced basis as its generators."""
    ring = PolyRing(nvars, p)
    forms = floor_forms(kind, ring, random.Random(seed))
    assert len(forms) <= nvars
    full = _reduce_basis(unfloored_basis(forms, ring), ring)
    assert [g.packed for g in buchberger(forms, ring)] == \
        [g.packed for g in full]
    # a fresh ideal reads its leads off the floored basis, unreduced
    assert sorted(initial_ideal(Ideal(ring, forms)).gens) == \
        sorted(g.lead_monomial for g in full)


def test_a_floor_never_reached_returns_the_full_basis(monkeypatch):
    """Three quadrics with two linear syzygies: 1 - 3t^2 + 2t^3 lies above
    the floor (1 - t^2)^3, so the run takes every pair the unfloored run
    takes and raises nothing, where the same numerator as a target
    raises."""
    import gintools.groebner as gb
    I = twisted_cubic()
    floor = _koszul_numerator((2, 2, 2))
    pairs = []

    def recorded(f, g, lcm, p):
        pairs.append(lcm)
        return _s_pair(f, g, lcm, p)

    monkeypatch.setattr(gb, "_s_pair", recorded)
    G = _groebner_basis(I.gens, R4)
    assert lead_ideal(G, 4).numerator == (1, 0, -3, 2) != floor
    assert as_sympy(_reduce_basis(G, R4)) == \
        oracles.sympy_reduced_basis(I.gens, R4)
    floored = list(pairs)
    pairs.clear()
    unfloored_basis(list(I.gens), R4)
    assert floored == pairs and pairs
    with pytest.raises(GinUnstableError):
        _groebner_basis(I.gens, R4, floor)


def test_a_floor_out_of_reach_is_checked_once(monkeypatch):
    """x1 divides two of the forms.  The basis gains a quartic, and at the
    degree-5 boundary its numerator already differs from the floor's
    below degree 5, which is final; the quintic it gains next costs no
    second check."""
    import gintools.groebner as gb
    I = ideal(R3, "x0*x1 + x1*x2, x1^3 - x0*x1*x2, x0*x2^2 + x1*x2^2")
    numerators = []

    def recorded(gens, nvars):
        numerators.append(_numerator(gens, nvars))
        return numerators[-1]

    monkeypatch.setattr(gb, "_numerator", recorded)
    basis = buchberger(I.gens, R3)
    assert [g.degree for g in basis] == [2, 3, 3, 4, 5]
    floor = _koszul_numerator((2, 3, 3))
    assert len(numerators) == 1 and numerators[0][:5] != floor[:5]
    assert basis == _reduce_basis(unfloored_basis(list(I.gens), R3), R3)


def test_a_floor_met_below_the_boundary_degree_is_checked_again(monkeypatch):
    """Three quadrics in P^2.  At the degree-4 boundary the leads'
    numerator agrees with the floor (1 - t^2)^3 below degree 4 and not at
    t^4, which the quartics still to come can change, so the checks go on;
    the next boundary meets the floor and leaves the pairs past degree 4,
    which the run without a floor takes."""
    import gintools.groebner as gb
    I = ideal(R3, "x0^2 + x1*x2, x1^2 + x0*x2, x2^2 + x0*x1")
    numerators, degrees = [], []

    def recorded(gens, nvars):
        numerators.append(_numerator(gens, nvars))
        return numerators[-1]

    def paired(f, g, lcm, p):
        degrees.append(lcm & DEGREE_MASK)
        return _s_pair(f, g, lcm, p)

    monkeypatch.setattr(gb, "_numerator", recorded)
    monkeypatch.setattr(gb, "_s_pair", paired)
    floored = buchberger(I.gens, R3)
    assert numerators == [(1, 0, -3, 0, 4, -2), _koszul_numerator((2, 2, 2))]
    assert max(degrees) == 4
    degrees.clear()
    assert _reduce_basis(unfloored_basis(list(I.gens), R3), R3) == floored
    assert max(degrees) > 4


def test_a_complete_intersection_stops_at_its_floor(monkeypatch):
    """A (2,3) complete intersection in P^4: its one pair adds a quartic,
    and the leads reach the floor at the next degree boundary, so the
    quintic pair the quartic makes is left.  That boundary is the one
    check: the generators' own leads are not checked.  The run without a
    floor takes both pairs, and the basis is sympy's."""
    import gintools.groebner as gb
    I = complete_intersection(2, 3, 4, seed=7)
    calls, checks = [], []

    def recorded(f, g, lcm, p):
        calls.append((f, g))
        return _s_pair(f, g, lcm, p)

    def checked(gens, nvars):
        checks.append(list(gens))
        return _numerator(gens, nvars)

    monkeypatch.setattr(gb, "_s_pair", recorded)
    monkeypatch.setattr(gb, "_numerator", checked)
    floored = buchberger(I.gens, I.ring)
    assert len(calls) == 1 and len(checks) == 1 and len(checks[0]) == 3
    assert as_sympy(floored) == oracles.sympy_reduced_basis(I.gens, I.ring)
    calls.clear()
    assert _reduce_basis(unfloored_basis(list(I.gens), I.ring),
                         I.ring) == floored
    assert len(calls) == 2


def test_more_forms_than_variables_take_no_floor(monkeypatch):
    """Two forms of a complete intersection in P^2 and two multiples of the
    first are four forms in three variables: they have no Koszul floor, so
    their run computes no Hilbert numerator, and ends at the basis the two
    forms reach at theirs."""
    import gintools.groebner as gb
    I = ideal(R3, "x0^2 - x0*x1, x0*x1^2 - x2^3")
    f = I.gens[0]
    padded = list(I.gens) + [f * R3.variable(0), f * R3.variable(1)]
    numerators = []

    def recorded(gens, nvars):
        numerators.append(_numerator(gens, nvars))
        return numerators[-1]

    monkeypatch.setattr(gb, "_numerator", recorded)
    full = buchberger(padded, R3)
    assert numerators == []
    assert buchberger(I.gens, R3) == full and numerators


@given(st.integers(0, 10 ** 6), st.sampled_from([7, 32003]),
       st.sampled_from(["random", "common factor", "nvars + 1 forms"]))
@settings(max_examples=20, derandomize=True)
def test_buchberger_matches_sympy_term_for_term(seed, p, kind):
    """sympy's reduced grevlex basis, on forms that reach the floor, forms
    that do not, and more forms than variables, which get no floor."""
    rng = random.Random(seed)
    ring = PolyRing(rng.choice([3, 4]), p)
    if kind == "nvars + 1 forms":
        forms = [ring.random_form(rng.randint(1, 2), rng)
                 for _ in range(ring.nvars + 1)]
    else:
        forms = floor_forms(kind, ring, rng)
    assert as_sympy(buchberger(forms, ring)) == \
        oracles.sympy_reduced_basis(forms, ring)


# ---------------------------------------------------------------------------
# quotients, saturation, intersection

def test_quotient_by_unit():
    """A nonzero constant is not a linear form, so it is refused."""
    with pytest.raises(ValueError, match="linear forms only"):
        ideal_quotient(twisted_cubic(), R4.one().scale(5))


def test_quotient_principal_monomials():
    I = ideal(R3, "x1*x2")
    assert ideal_quotient(I, poly(R3, "x2")).same_ideal(ideal(R3, "x1"))


def test_quotient_example():
    I = ideal(R3, "x2^2, x1^2*x2")
    Q = ideal_quotient(I, poly(R3, "x2"))
    assert Q.same_ideal(ideal(R3, "x2, x1^2"))


def test_quotient_by_zero_raises():
    with pytest.raises(ValueError):
        ideal_quotient(ideal(R3, "x0"), R3.zero())


def test_quotient_by_power_zero_is_identity():
    I = ideal(R3, "x0^2, x2^3")
    assert _SliceBasis(I, poly(R3, "x2")).quotient(0).same_ideal(I)


def test_quotient_by_power_principal():
    I = ideal(R3, "x2^3")
    Q = _SliceBasis(I, poly(R3, "x2")).quotient(2)
    assert Q.same_ideal(ideal(R3, "x2"))


def test_colons_of_a_saturated_ideal_are_its_basis():
    """The twisted cubic is saturated, so after the change that sends a
    general h to x_n no lead involves x_n: every colon is the basis object
    itself, not a reduction of it."""
    I = ideal(R4, "x0*x2 - x1^2, x0*x3 - x1*x2, x1*x3 - x2^2")
    slices = _SliceBasis(I, R4.general_linear_form(random.Random(0)))
    assert not any(g.lead_monomial[-1] for g in slices.basis)
    assert slices.colon(1) is slices.basis
    assert slices.colon(None) is slices.basis
    divided = _SliceBasis(ideal(R3, "x2^2, x1^2*x2"), poly(R3, "x2"))
    assert divided.colon(1) is not divided.basis


@given(st.integers(0, 1000))
@settings(max_examples=10)
def test_iterated_quotient_matches_square(seed):
    I = random_ideal(seed)
    rng = random.Random(seed + 77)
    h = R3.general_linear_form(rng)
    double = ideal_quotient(ideal_quotient(I, h), h)
    assert _SliceBasis(I, h).quotient(2).same_ideal(double)


@given(st.integers(0, 1000))
@settings(max_examples=10)
def test_quotient_order_independence(seed):
    I = random_ideal(seed)
    rng = random.Random(seed + 123)
    h = R3.general_linear_form(rng)
    l = R3.general_linear_form(rng)
    a = ideal_quotient(ideal_quotient(I, h), l)
    b = ideal_quotient(ideal_quotient(I, l), h)
    assert a.same_ideal(b)


def test_saturate_fixed_point():
    I = ideal(R3, "x0, x1")
    xn = poly(R3, "x2")
    S = saturate(I, xn)
    assert S.same_ideal(I)
    assert ideal_quotient(S, xn).same_ideal(S)


def test_saturate_example():
    I = ideal(R3, "x0*x2, x1*x2")
    assert saturate(I, poly(R3, "x2")).same_ideal(ideal(R3, "x0, x1"))


def test_quotients_refuse_a_quadric_and_the_zero_form():
    I = ideal(R3, "x0^2 + x1*x2")
    for f in (poly(R3, "x0^2 + x1*x2"), R3.zero()):
        with pytest.raises(ValueError, match="linear forms only"):
            ideal_quotient(I, f)
        with pytest.raises(ValueError, match="linear forms only"):
            _SliceBasis(I, f).quotient(2)
        with pytest.raises(ValueError, match="linear forms only"):
            saturate(I, f)


QUADRIC = poly(R3, "x0^2 + x1*x2")
# the "lex" kind's ring, which is not graded: intersection's elimination
# ring, whose weight rows compare lexicographically, x-degree before the
# power of t
UNGRADED = _EliminationRing(PolyRing(2))
# kind -> (a generator, h, the words of h's refusal) for every kind of form
# that ``last_image`` refuses
CONTRACT_FORMS = {
    "zero": (QUADRIC, R3.zero(), "linear forms only"),
    "constant": (QUADRIC, R3.one().scale(5), "linear forms only"),
    "quadric": (QUADRIC, QUADRIC, "linear forms only"),
    "inhomogeneous": (QUADRIC, R3.from_dict({(1, 0, 0): 1, (0, 0, 1): 2,
                                             (0, 0, 0): 1}),
                      "linear forms only"),
    "no_xn": (QUADRIC, poly(R3, "x0"), "no x_n term"),
    "lex": (poly(UNGRADED, "x0*x2 + x1^2"), UNGRADED.variable(2), "graded"),
}
CONTRACT_ENTRY_POINTS = {
    "last_image": lambda f, h: last_image(h),
    "restrict": restrict,
    "restrict_ideal": lambda f, h: restrict_ideal(Ideal(f.ring, [f]), h),
    "restrict_ideal_of_zero": lambda f, h: restrict_ideal(Ideal(f.ring, []), h),
    "_SliceBasis": lambda f, h: _SliceBasis(Ideal(f.ring, [f]), h),
    "ideal_quotient": lambda f, h: ideal_quotient(Ideal(f.ring, [f]), h),
    "saturate": lambda f, h: saturate(Ideal(f.ring, [f]), h),
}


@pytest.mark.parametrize("entry", sorted(CONTRACT_ENTRY_POINTS))
@pytest.mark.parametrize("kind", sorted(CONTRACT_FORMS))
def test_every_entry_point_refuses_a_form_as_last_image_does(entry, kind):
    """``last_image`` is the one check on a linear form: every entry point
    that takes one refuses the same forms with the same message."""
    f, h, words = CONTRACT_FORMS[kind]
    with pytest.raises(ValueError, match=words) as expected:
        last_image(h)
    with pytest.raises(ValueError) as got:
        CONTRACT_ENTRY_POINTS[entry](f, h)
    assert str(got.value) == str(expected.value)


def test_intersect_idempotent():
    I = twisted_cubic()
    assert intersect(I, I).same_ideal(I)


def test_intersect_coprime_principal():
    got = intersect(ideal(R3, "x0"), ideal(R3, "x1"))
    assert got.same_ideal(ideal(R3, "x0*x1"))


def test_intersect_two_points():
    # [0:0:1] and [0:1:0]
    got = intersect(ideal(R3, "x0, x1"), ideal(R3, "x0, x2"))
    assert got.same_ideal(ideal(R3, "x0, x1*x2"))


def test_a_point_given_by_forms_of_one_lead_is_met_by_elimination():
    """(x0 + x1, x0 + x2) is the ideal of (1:-1:-1), but both forms lead
    with x0, so division by them does not evaluate: the meet goes through
    elimination and equals the one with the point's echelon form."""
    I = ideal(R3, "x0 + x1, x0 + x2")
    B = general_points(3, seed=0)
    expected = intersect(point_ideal(R3, (1, -1, -1)), B).gens
    assert intersect(I, B).gens == intersect(B, I).gens == expected


@given(st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3),
                min_size=1, max_size=3),
       st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3),
                min_size=1, max_size=3))
@settings(max_examples=25)
def test_intersect_matches_lcm_construction_on_monomials(mons_a, mons_b):
    """For monomial ideals the meet is the pairwise-lcm ideal."""
    from gintools.staircase import MonomialIdeal as MI
    from gintools.groebner import initial_ideal
    A = Ideal(R3, [R3.monomial(tuple(m)) for m in mons_a])
    B = Ideal(R3, [R3.monomial(tuple(m)) for m in mons_b])
    meet = intersect(A, B)
    expected = MI.from_monomials(3, [oracles.monomial_lcm(tuple(a), tuple(b))
                                     for a in mons_a for b in mons_b])
    assert initial_ideal(meet) == expected
    assert all(len(g.terms) == 1 for g in meet.gens)


MEET_RINGS = {(n, p): PolyRing(n, p) for n in (3, 4) for p in (7, 32003)}
MEET_CASES = (st.integers(0, 10 ** 6), st.sampled_from(sorted(MEET_RINGS)))


def random_forms(rng, ring, top=3):
    """One to three random forms of degree one to ``top``."""
    return [ring.random_form(rng.randint(1, top), rng)
            for _ in range(rng.randint(1, 3))]


def random_point(rng, ring):
    while True:
        pt = tuple(rng.randrange(ring.prime) for _ in range(ring.nvars))
        if any(pt):
            return pt


def point_chain(rng, ring, count):
    """The ideal of count - 1 random points, built by a chain of
    intersects, and the ideal of one more point."""
    pts = [random_point(rng, ring) for _ in range(count)]
    I = point_ideal(ring, pts[0])
    for pt in pts[1:-1]:
        I = intersect(I, point_ideal(ring, pt))
    return I, point_ideal(ring, pts[-1])


def points_or_forms(rng, ring, points, top=3):
    """(I, J): the ideal of one to four points and that of one more point,
    or two ideals of random forms of degree up to ``top``."""
    if points:
        return point_chain(rng, ring, rng.randint(2, 5))
    return (Ideal(ring, random_forms(rng, ring, top)),
            Ideal(ring, random_forms(rng, ring, top)))


def random_line(rng, ring):
    """A line of P^2 or P^3: the n - 2 forms x_i plus a form in the last
    two variables, i < n - 2.  They are fewer than a point's n - 1, so a
    meet with a line takes the elimination run."""
    n = ring.nvars
    return Ideal(ring, [ring.linear_form(
        [int(j == i) if j < n - 2 else rng.randrange(ring.prime)
         for j in range(n)]) for i in range(n - 2)])


def line_chain(rng, ring, count):
    """The ideal of count - 1 random lines, built by a chain of intersects,
    and the ideal of one more line."""
    I = random_line(rng, ring)
    for _ in range(count - 2):
        I = intersect(I, random_line(rng, ring))
    return I, random_line(rng, ring)


def is_point_ideal(I):
    """n - 1 linear forms whose leads are n - 1 distinct variables: the
    ideals ``intersect`` meets by evaluation."""
    leads = {g.lead_monomial for g in I.gens}
    return (len(I.gens) == len(leads) == I.ring.nvars - 1
            and all(g.degree == 1 for g in I.gens))


@given(*MEET_CASES, st.booleans())
@settings(max_examples=25)
def test_intersect_matches_block_order_elimination_and_ranks(seed, key,
                                                             points):
    """The x-degree-first elimination against sympy's elimination of t in
    a block order (powers of t first), term for term, on random forms,
    whose top degrees come out lower, higher or tied, or on a set of one
    to four points against one more point.  t goes on either side, and the
    reduced basis is the same.  The forms go up to cubics in P^2 and to
    quadrics in P^3, where sympy's basis of cubics can take a minute.  The
    ranks are checked too, up to the degree of a product of two forms."""
    ring = MEET_RINGS[key]
    top = 3 if ring.nvars == 3 else 2
    I, J = points_or_forms(random.Random(seed), ring, points, top)
    meet = intersect(I, J)
    assert meet.gens == intersect(J, I).gens
    assert as_sympy(meet.groebner_basis()) == \
        oracles.sympy_intersection(I.gens, J.gens, ring)
    for d in range(2 * top + 1):
        assert oracles.ideal_dim(list(meet.gens), d, ring.nvars, ring.prime) \
            == oracles.intersection_dim(list(I.gens), list(J.gens), d,
                                        ring.nvars, ring.prime)


@given(*MEET_CASES)
@settings(max_examples=20)
def test_meet_with_the_maximal_ideal_is_the_other_ideal(seed, key):
    """Every form lies in (x0, ..., x_n), so its meet with forms B is B, on
    either side, whichever ideal carries t in the elimination run."""
    ring = MEET_RINGS[key]
    maximal = Ideal(ring, [ring.variable(i) for i in range(ring.nvars)])
    B = Ideal(ring, random_forms(random.Random(seed), ring))
    assert intersect(maximal, B).same_ideal(B)
    assert intersect(B, maximal).same_ideal(B)


def test_intersect_puts_t_on_the_ideal_of_lower_top_degree(monkeypatch):
    """The generators intersect hands to Buchberger are t*a for a in the
    ideal of lower top degree, I on a tie, and (1-t)*b for the other's:
    three skew lines of P^3 against a line, and two lines."""
    import gintools.groebner as groebner_module
    ring = PolyRing(4)
    rng = random.Random(3)
    three, _ = line_chain(rng, ring, 4)
    a, b = random_line(rng, ring), random_line(rng, ring)
    received = []
    real = groebner_module._groebner_basis
    monkeypatch.setattr(groebner_module, "_groebner_basis",
                        lambda gens, ring, target=None:
                        received.append(gens) or real(gens, ring, target))
    big = _EliminationRing(ring)
    assert max(g.degree for g in three.gens) == 3

    def lifted(with_t, without_t):
        return ([_lift(f, big, extra=1) for f in with_t.gens]
                + [_lift(g, big) - _lift(g, big, extra=1)
                   for g in without_t.gens])
    for I, J, carrier, other in ((three, a, a, three), (a, three, a, three),
                                 (a, b, a, b), (b, a, b, a)):
        received.clear()
        intersect(I, J)
        assert received == [lifted(carrier, other)]


MEET_KINDS = {"points": "point", "linear space": "elimination",
              "coprime monomials": "elimination", "shared lead": "elimination"}


def meet_case(kind, rng, ring):
    """(I, J) of one kind.  In "points" I is the ideal of a point, which
    ``intersect`` meets by evaluation; in every other kind I carries t in
    the elimination run: a linear space of codimension below a point's,
    powers of variables, or two dense forms whose leads share a
    variable."""
    n = ring.nvars

    def forms(low):  # sympy's elimination basis grows fast with degree
        return [ring.random_form(rng.randint(low, max(low, 2)), rng)
                for _ in range(rng.randint(1, 2))]
    if kind == "points":
        chain, point = point_chain(rng, ring, rng.randint(2, 3))
        return point, chain
    if kind == "linear space":  # of codimension below a point's n - 1
        r = rng.randint(1, n - 2)  # x_i plus a form in x_r..x_n, i < r
        A = [ring.linear_form([int(j == i) if j < r else rng.randrange(
            ring.prime) for j in range(n)]) for i in range(r)]
        return Ideal(ring, A), Ideal(ring, forms(1))
    if kind == "coprime monomials":
        chosen = rng.sample(range(n), rng.randint(1, n))
        A = [ring.variable(i) ** rng.randint(1, 2) for i in chosen]
        return Ideal(ring, A), Ideal(ring, forms(max(g.degree for g in A)))
    while True:
        A = [ring.random_form(rng.randint(1, 2), rng) for _ in range(2)]
        leads = [g.lead_monomial for g in A]
        if any(map(min, *leads)):
            return Ideal(ring, A), Ideal(ring, forms(2))


P2_RINGS = {p: PolyRing(3, p) for p in (2, 7, 32003)}


@given(st.integers(0, 10 ** 6), st.sampled_from(sorted(P2_RINGS)),
       st.sampled_from(sorted(MEET_KINDS)))
@settings(max_examples=30)
def test_intersect_matches_sympy_term_for_term(seed, p, kind):
    """sympy's elimination of t, then its reduced grevlex basis, term
    for term, in P^2, where the meet takes the elimination run and where a
    point is met by evaluation with no elimination run.  A draw of another
    kind whose J, or whose monomials, are a point's takes that path too.
    Every kind of ``meet_case`` can be built over F_2 too, where a form's
    coefficients are 0 or 1 and points repeat, so no kind is left out at
    p = 2."""
    import gintools.groebner as gb
    ring = P2_RINGS[p]
    I, J = meet_case(kind, random.Random(seed), ring)
    runs = []
    real = gb._groebner_basis
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gb, "_groebner_basis", lambda gens, ring, *args:
                   runs.append(ring) or real(gens, ring, *args))
        meet = intersect(I, J)
    path = "point" if is_point_ideal(I) or is_point_ideal(J) \
        else MEET_KINDS[kind]
    if path == "point":
        assert all(r == ring for r in runs)
    else:
        assert runs[-1] == _EliminationRing(ring)
    assert as_sympy(meet.groebner_basis()) == \
        oracles.sympy_intersection(I.gens, J.gens, ring)


@given(*MEET_CASES, st.booleans())
@settings(max_examples=20)
def test_every_polynomial_of_an_intersect_run_leads_at_its_top_degree(
        seed, key, lines):
    """Why the reducer rows need no degree check: every polynomial the
    elimination run meets is homogeneous in x, so its lead, the term with
    the most t, has its greatest total degree, and no reduction writes a
    term of higher degree than the one it removes.  Checked on the lifted
    rows t*a, each (1-t)*b and each element the run returns, on chains of
    lines and dense forms in P^2 and P^3.  Forms that happen to be a
    point's are met by evaluation, with no elimination run to check."""
    import gintools.groebner as gb
    ring = MEET_RINGS[key]
    rng = random.Random(seed)
    if lines:
        I, J = line_chain(rng, ring, rng.randint(2, 4))
    else:
        I, J = points_or_forms(rng, ring, False)
    assume(not is_point_ideal(I) and not is_point_ideal(J))
    seen = []
    real = gb._groebner_basis

    def recording(gens, big, **kw):
        basis = real(gens, big, **kw)
        seen.extend(gens)
        seen.extend(basis)
        return basis
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gb, "_groebner_basis", recording)
        intersect(I, J)
    assert len(seen) > len(I.gens) + len(J.gens)
    for g in seen:
        assert g.ring == _EliminationRing(ring)
        assert len({sum(m[:-1]) for m, _ in g.terms}) == 1
        assert sum(g.lead_monomial) == g.degree


def test_a_chain_of_lines_meets_as_the_ranks_say():
    """On a fixed chain of eight lines in P^3, met one by one by
    elimination, each meet has the ranks dim I_d + dim J_d - dim (I + J)_d
    through its top degree; the leads of the four-line meet are pinned,
    and the eight-line meet lies in it."""
    ring = PolyRing(4, 32003)
    rng = random.Random(11)
    lines = [random_line(rng, ring) for _ in range(8)]
    I = lines[0]
    for k, line in enumerate(lines[1:], 2):
        meet = intersect(I, line)
        for d in range(max(g.degree for g in meet.gens) + 1):
            assert oracles.ideal_dim(list(meet.gens), d, 4, ring.prime) \
                == oracles.intersection_dim(list(I.gens), list(line.gens), d,
                                            4, ring.prime)
        I = meet
        if k == 4:
            four = I
    assert [g.lead_monomial for g in four.gens] == [
        (3, 0, 0, 0), (2, 1, 0, 0), (1, 2, 0, 0), (0, 3, 0, 0), (2, 0, 2, 0),
        (1, 1, 2, 0)]
    assert intersect(four, I).same_ideal(I)


POINT_RINGS = {(n, p): PolyRing(n, p) for n in (3, 4) for p in (2, 7, 32003)}
POINT_PARTNERS = ("points", "point", "line", "through", "zero", "forms")


def point_partner(kind, rng, ring, A):
    """The ideal a point's ideal A meets: one to three random points, one
    point, a line, forms in A (the meet is the partner), the zero ideal
    (likewise), or random forms."""
    if kind == "points":
        return point_chain(rng, ring, rng.randint(2, 4))[0]
    if kind == "point":
        return point_ideal(ring, random_point(rng, ring))
    if kind == "line":
        return random_line(rng, ring)
    if kind == "through":
        return Ideal(ring, [a * ring.random_form(rng.randint(0, 1), rng)
                            for a in A.gens if rng.random() < 0.7])
    if kind == "zero":
        return Ideal(ring, [])
    return Ideal(ring, random_forms(rng, ring, top=2))


@given(st.integers(0, 10 ** 6), st.sampled_from(sorted(POINT_RINGS)),
       st.sampled_from(["random", 0, 1, 2]), st.sampled_from(POINT_PARTNERS),
       st.booleans())
@settings(max_examples=80)
def test_a_point_meet_matches_sympy_term_for_term_and_ranks(seed, key, axis,
                                                           kind, first):
    """A meet with a point's ideal, taken by evaluation with no elimination
    run, against sympy's elimination of t term for term and against the
    ranks dim I_d + dim J_d - dim (I + J)_d, in P^2 and P^3 at p = 2, 7 and
    32003.  The point is random or a coordinate point, (1:0:0), (0:1:0) or
    (0:0:1) in P^2, and it comes first or second; it meets points, one
    point, a line, random forms, an ideal inside its own, where the meet is
    that ideal, and the zero ideal."""
    import gintools.groebner as gb
    ring = POINT_RINGS[key]
    rng = random.Random(seed)
    pt = (random_point(rng, ring) if axis == "random"
          else tuple(int(i == axis) for i in range(ring.nvars)))
    A = point_ideal(ring, pt)
    B = point_partner(kind, rng, ring, A)
    I, J = (A, B) if first else (B, A)
    runs = []
    real = gb._groebner_basis
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gb, "_groebner_basis", lambda gens, ring, *args, **kw:
                   runs.append(ring) or real(gens, ring, *args, **kw))
        meet = intersect(I, J)
    assert all(r == ring for r in runs)
    assert meet.gens == meet.groebner_basis() == intersect(J, I).gens
    assert as_sympy(meet.groebner_basis()) == \
        oracles.sympy_intersection(I.gens, J.gens, ring)
    for d in range(5):
        assert oracles.ideal_dim(list(meet.gens), d, ring.nvars, ring.prime) \
            == oracles.intersection_dim(list(I.gens), list(J.gens), d,
                                        ring.nvars, ring.prime)
    if kind in ("through", "zero"):
        assert meet.same_ideal(B)


def test_a_point_meet_runs_no_elimination_and_targets_its_series(
        monkeypatch):
    """The twisted cubic meets the point (1:2:3:5) off it, where
    x0*x2 - x1^2 is -1, so e = 2.  Every combination keeps its lead, so the
    meet is read off with no Buchberger run and no elimination ring, and
    its series is N_B + t^2 * (1-t)^3.  Two points on the line x0 = x1 meet
    (1:2:0) off it: x1 * (x0 - x1) outranks x1^2 + x1*x2, so that meet
    takes the one targeted run, handed N_B + t * (1-t)^2."""
    import gintools.groebner as gb
    from math import comb
    ring = PolyRing(4, 7)
    B = parse_ideal("x0*x2 - x1^2, x0*x3 - x1*x2, x1*x3 - x2^2", 4, 7)
    A = point_ideal(ring, (1, 2, 3, 5))
    N_B = B.lead_ideal().numerator
    assert N_B == (1, 0, -3, 2)
    built, runs = [], []
    monkeypatch.setattr(gb, "_EliminationRing",
                        lambda r: built.append(r) or pytest.fail("built"))
    real = gb._groebner_basis
    monkeypatch.setattr(gb, "_groebner_basis",
                        lambda gens, ring, target=None:
                        runs.append((ring, target))
                        or real(gens, ring, target))
    expected = list(N_B) + [0, 0]
    for j in range(4):
        expected[2 + j] += (-1) ** j * comb(3, j)
    assert tuple(expected) == (1, 0, -2, -1, 3, -1)
    for I, J in ((B, A), (A, B)):
        meet = intersect(I, J)
        assert initial_ideal(meet).numerator == tuple(expected)
    assert runs == []
    line = PolyRing(3, 7)
    B = intersect(point_ideal(line, (0, 0, 3)), point_ideal(line, (3, 3, 4)))
    assert [str(g) for g in B.gens] == ["x0 - x1", "x1^2 + x1*x2"]
    assert B.lead_ideal().numerator == (1, -1, -1, 1)
    runs.clear()  # the first point's own basis
    meet = intersect(B, point_ideal(line, (1, 2, 0)))
    assert runs == [(line, (1, 0, -3, 2))]
    assert initial_ideal(meet).numerator == (1, 0, -3, 2)
    assert built == []


CHAIN_RINGS = {p: PolyRing(3, p) for p in (2, 3, 7, 32003)}


def small_points(rng, ring, collinear):
    """Up to nine points of P^2 with coordinates below 5, the coordinate
    points among the candidates; or points a*P + b*Q on the line through
    two such points, a and b below 5, and one more such point, on the line
    or off it.  Zero vectors mod p are dropped, repeats kept."""
    small = [pt for pt in itertools.product(range(5), repeat=3)
             if any(c % ring.prime for c in pt)]
    if collinear:
        P, Q = rng.sample(small, 2)
        pts = [tuple(a * x + b * y for x, y in zip(P, Q))
               for a, b in (rng.sample(range(5), 2)
                            for _ in range(rng.randint(1, 7)))]
        pts.append(rng.choice(small))
    else:
        pts = [rng.choice(small) for _ in range(rng.randint(2, 9))]
    return [pt for pt in pts if any(c % ring.prime for c in pt)]


def test_point_chains_read_off_the_same_bases_as_the_targeted_run():
    """Chains of point meets through ``intersect``, as
    ``corpus._distinct_points`` builds them, at p = 2, 3, 7 and 32003, on
    points with coordinates below 5 and on collinear sets.  Each meet's
    reduced basis equals the one of the same chain with the lead check
    forced off, so that every meet takes the targeted run, and its Hilbert
    function equals the rank of evaluation at the points so far.  Over the
    examples some meets are read off and some run."""
    import gintools.groebner as gb
    branches = {"read off": 0, "run": 0, "inside": 0}

    @given(st.integers(0, 10 ** 6), st.sampled_from(sorted(CHAIN_RINGS)),
           st.booleans())
    @settings(max_examples=60)
    def chain(seed, p, collinear):
        ring = CHAIN_RINGS[p]
        pts = small_points(random.Random(seed), ring, collinear)
        assume(len(pts) >= 2)
        meet_point, targeted = gb._meet_point, []

        def spy(A, B):
            runs = len(targeted)
            reduced = meet_point(A, B)
            branches["run" if len(targeted) > runs else "read off"
                     if reduced != B.groebner_basis() else "inside"] += 1
            return reduced
        def build():
            ideals = [point_ideal(ring, pts[0])]
            for pt in pts[1:]:
                ideals.append(intersect(ideals[-1], point_ideal(ring, pt)))
            return ideals
        real = gb._groebner_basis
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gb, "_meet_point", spy)
            mp.setattr(gb, "_groebner_basis", lambda gens, ring, target=None:
                       (target is not None and targeted.append(target))
                       or real(gens, ring, target))
            read = build()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gb, "_keeps_lead", lambda lead, subtracted: False)
            run = build()
        for k, (I, J) in enumerate(zip(read, run)):
            assert I.groebner_basis() == J.groebner_basis()
            assert list(hilbert_function(I.lead_ideal(), k + 1)) == \
                oracles.evaluation_ranks(pts[:k + 1], k + 1, 3, p)

    chain()
    assert branches["read off"] and branches["run"]


@given(st.integers(0, 10 ** 6), st.sampled_from([3, 4]))
@settings(max_examples=25)
def test_reduce_basis_divides_each_element_by_the_others(seed, nvars):
    """One reducer table gives what a normal form by the other minimal
    elements gives, element by element, in the same output order."""
    ring = PolyRing(nvars, 7)
    G = _groebner_basis(random_forms(random.Random(seed), ring), ring)
    # each element joins reduced by the ones before it, so leads differ
    minimal = [g for g in G if not any(
        h is not g and mono_divides(h.lead_monomial, g.lead_monomial)
        for h in G)]
    minimal.sort(key=lambda h: h.packed[0][0], reverse=True)
    expected = sorted(
        (normal_form(g, minimal[:i] + minimal[i + 1:]).monic()
         for i, g in enumerate(minimal)),
        key=lambda h: revlex_key(h.lead_monomial), reverse=True)
    assert _reduce_basis(G, ring) == tuple(expected)


def test_elimination_ring_makes_no_primality_test(monkeypatch):
    """The elimination ring that ``intersect`` builds takes the ring's own
    checked modulus, with no primality test of its own."""
    import gintools.groebner as gb
    import gintools.ring as ring_module
    I, J = ideal(PolyRing(3, 7), "x0"), ideal(PolyRing(3, 7), "x1 + x2")
    expected = ideal(I.ring, "x0*x1 + x0*x2")
    tested, built = [], []
    monkeypatch.setattr(ring_module, "_is_prime",
                        lambda p: tested.append(p) or True)
    real = gb._EliminationRing
    monkeypatch.setattr(gb, "_EliminationRing",
                        lambda r: built.append(r) or real(r))
    assert intersect(I, J).same_ideal(expected)
    assert built == [I.ring] and tested == []


def test_intersect_refuses_a_ring_that_is_not_graded():
    """The elimination order eliminates t only on homogeneous generators,
    and in(J : x_n) = in(J) : x_n is a fact of grevlex."""
    ring = _EliminationRing(PolyRing(2, 7))
    x0, x2 = ring.variable(0), ring.variable(2)
    I = Ideal(ring, [x0 * ring.variable(1) + x2 * x2])
    with pytest.raises(ValueError, match="graded"):
        intersect(I, Ideal(ring, [x0]))
    with pytest.raises(ValueError, match="graded"):
        ideal_quotient(I, x2)


def test_quotients_and_sections_refuse_a_ring_that_is_not_graded():
    """Dividing x_n out of a basis gives the colon in grevlex only; the
    elimination ring, which is not graded, is refused."""
    big = _EliminationRing(PolyRing(2))
    x0, x1, x2 = (big.variable(i) for i in range(3))
    I = Ideal(big, [x0 * x2 + x1 * x1, x1 * x2])
    for h in (x2, x0):  # the ring is refused before the form is read
        with pytest.raises(ValueError, match="graded"):
            ideal_quotient(I, h)
        with pytest.raises(ValueError, match="graded"):
            _SliceBasis(I, h).quotient(2)
        with pytest.raises(ValueError, match="graded"):
            saturate(I, h)
    with pytest.raises(ValueError, match="graded"):
        _SliceBasis(I, x2)
    with pytest.raises(ValueError, match="graded"):
        restrict_ideal(I, x2)


# ---------------------------------------------------------------------------
# restriction and truncation

def test_restrict_ideal_absent_variable():
    I = ideal(R4, "x0^2 - x1*x2")
    got = restrict_ideal(I, poly(R4, "x3"))
    assert got.same_ideal(ideal(R3, "x0^2 - x1*x2"))


def test_restrict_ideal_sets_variable_to_zero():
    I = ideal(R4, "x0*x3 - x1*x2")
    got = restrict_ideal(I, poly(R4, "x3"))
    assert got.same_ideal(ideal(R3, "x1*x2"))


def test_restrict_ideal_of_zero_refuses_a_form_from_another_ring():
    with pytest.raises(ValueError, match="different ring"):
        restrict_ideal(Ideal(R3, []), poly(R4, "x3"))


def test_restricted_curve_section_has_degree_many_points():
    """Saturating the restricted twisted cubic by a general form, which
    misses its points, gives deg C = 3 points."""
    I = twisted_cubic()
    rng = random.Random(5)
    h = R4.general_linear_form(rng)
    J = restrict_ideal(I, h)
    sat = saturate(J, J.ring.general_linear_form(rng))
    values = hilbert_function(initial_ideal(sat), 6)
    assert values[5] == values[6] == 3


def test_truncate_no_op_past_generators():
    """A truncation that keeps every generator is the ideal itself, with
    the basis it holds; one that drops a generator is a new ideal."""
    I = twisted_cubic()
    assert truncate(I, 5) is I and truncate(I, 2) is I
    assert truncate(I, 1) is not I


def test_truncate_drops_higher_generators():
    I = ideal(R3, "x0, x1^3")
    assert truncate(I, 2).same_ideal(ideal(R3, "x0"))


def test_truncate_below_everything_is_zero():
    I = ideal(R3, "x0^2")
    assert truncate(I, 1).is_zero()


def test_is_zero_reads_the_generators_without_a_basis():
    I = ideal(R3, "x0^2 + x1^2, x2^3")
    assert not I.is_zero() and I._gb is None
    Z = Ideal(R3, [R3.zero()])
    assert Z.is_zero() and Z._gb is None


def test_truncation_generates_from_basis_elements_below_cutoff():
    """Presentation choice: generated by I's generators under the cutoff."""
    I = twisted_cubic()
    T = truncate(I, 2)
    assert all(g.degree <= 2 for g in T.gens)
    for g in T.gens:
        assert oracles.is_member(g, list(I.gens), 4, R4.prime)
    # generators that are not a basis are kept, and no basis is computed
    J = ideal(R3, "x0^2 + x1^2, x0^2, x2^3")
    assert truncate(J, 2).gens == J.gens[:2] and J._gb is None


# ---------------------------------------------------------------------------
# brute-force agreement on random ideals

@given(st.integers(0, 10 ** 6))
@settings(max_examples=10)
def test_quotient_matches_bruteforce(seed):
    I = random_ideal(seed)
    rng = random.Random(seed ^ 0xbeef)
    f = R3.general_linear_form(rng)
    Q = ideal_quotient(I, f)
    for g in Q.gens:
        assert oracles.is_member(g * f, list(I.gens), 3, R3.prime)
    for d in range(5):
        assert oracles.ideal_dim(list(Q.gens), d, 3, R3.prime) == \
            oracles.colon_dim(list(I.gens), f, d, 3, R3.prime)


# ---------------------------------------------------------------------------
# quotients by a linear form (Bayer-Stillman) against elimination

RINGS = {3: R3, 4: R4}
FORM_KINDS = st.sampled_from(["general", "no_xn", "variable"])


def linear_form(rng, ring, kind):
    """A random linear form; ``no_xn`` and ``variable`` have no x_n term."""
    n = ring.nvars - 1
    if kind == "general":
        return ring.general_linear_form(rng)
    if kind == "variable":
        return ring.variable(rng.randrange(n))
    coeffs = [rng.randrange(ring.prime) for _ in range(n)] + [0]
    coeffs[rng.randrange(n)] = rng.randrange(1, ring.prime)
    return ring.linear_form(coeffs)


def ideal_with_h_torsion(rng, ring, h, top=3):
    """Generators h^e * f of degree up to ``top``, with e up to 2, so that
    the colons by h move."""
    gens = []
    for _ in range(rng.randint(2, 3)):
        e = rng.randint(0, min(2, top - 1))
        gens.append(h ** e * ring.random_form(rng.randint(1, top - e), rng))
    return Ideal(ring, gens)


def eliminated_quotient(I, h):
    """(I : h) by the elimination construction: I meet (h), divided by h
    with the oracle's scan division."""
    meet = intersect(I, Ideal(I.ring, [h]))
    return Ideal(I.ring, [I.ring.from_dict(dict(oracles.scan_exact_divide(
        g.terms, h.terms, I.ring.prime, oracles.grevlex_order)))
        for g in meet.gens])


def random_case(seed, nvars, kind):
    rng = random.Random(seed)
    ring = RINGS[nvars]
    h = linear_form(rng, ring, kind)
    return ideal_with_h_torsion(rng, ring, h), h


@given(st.integers(0, 10 ** 6), st.sampled_from([3, 4]), FORM_KINDS)
@settings(max_examples=20)
def test_linear_colon_matches_elimination_and_ranks(seed, nvars, kind):
    """A general form's colon matches elimination and the ranks; a form
    without x_n is refused."""
    I, h = random_case(seed, nvars, kind)
    if kind != "general":
        with pytest.raises(ValueError, match="no x_n term"):
            ideal_quotient(I, h)
        return
    Q = ideal_quotient(I, h)
    assert Q.same_ideal(eliminated_quotient(I, h))
    for d in range(4):
        assert oracles.ideal_dim(list(Q.gens), d, nvars, R3.prime) == \
            oracles.colon_dim(list(I.gens), h, d, nvars, R3.prime)


@given(*MEET_CASES, st.sampled_from(["h torsion", "random", "common factor"]))
@settings(max_examples=20)
def test_quotient_and_saturation_match_sympy_term_for_term(seed, key, kind):
    """(I : h) against sympy's: the meet of I and (h) by sympy's
    elimination, each generator divided by h, then its reduced grevlex
    basis; (I : h^infinity) against the fixed point of those quotients.  I
    is generated by h^e * f, so that the colons move, or by at most nvars
    forms (``floor_forms``), whose slice basis, built with no series,
    reaches its Koszul floor or, with a common factor, misses it.  Degrees
    go up to 3 in P^2 and up to 2 in P^3, where sympy's basis of cubics
    takes seconds."""
    ring = MEET_RINGS[key]
    rng = random.Random(seed)
    h = ring.general_linear_form(rng)
    if kind == "h torsion":
        I = ideal_with_h_torsion(rng, ring, h, top=3 if ring.nvars == 3
                                 else 2)
    else:
        I = Ideal(ring, floor_forms(kind, ring, rng))
    quotient = oracles.sympy_quotient(I.gens, h, ring)
    assert as_sympy(ideal_quotient(I, h).groebner_basis()) == quotient
    saturation = None
    while quotient != saturation:
        saturation = quotient
        quotient = oracles.sympy_quotient(
            [ring.from_dict(dict(q)) for q in saturation], h, ring)
    assert as_sympy(saturate(I, h).groebner_basis()) == saturation


@given(st.integers(0, 10 ** 6), st.sampled_from([3, 4]), FORM_KINDS)
@settings(max_examples=15)
def test_linear_power_quotient_and_saturation_match_iterates(seed, nvars,
                                                             kind):
    I, h = random_case(seed, nvars, kind)
    if kind != "general":
        with pytest.raises(ValueError, match="no x_n term"):
            _SliceBasis(I, h)
        with pytest.raises(ValueError, match="no x_n term"):
            saturate(I, h)
        return
    slices = _SliceBasis(I, h)
    assert slices.quotient(0).same_ideal(I)
    iterated, eliminated = I, I
    for p in range(1, 4):
        iterated = ideal_quotient(iterated, h)
        eliminated = eliminated_quotient(eliminated, h)
        Q = slices.quotient(p)
        assert Q.same_ideal(iterated)
        assert Q.same_ideal(eliminated)
    while True:
        step = eliminated_quotient(eliminated, h)
        if step.same_ideal(eliminated):
            break
        eliminated = step
    assert saturate(I, h).same_ideal(eliminated)


@given(st.integers(0, 10 ** 6), st.sampled_from([3, 4]))
@settings(max_examples=15)
def test_sections_are_reduced_bases_of_restricted_quotients(seed, nvars):
    I, h = random_case(seed, nvars, "general")
    slices = _SliceBasis(I, h)
    for p in range(4):
        expected = restrict_ideal(slices.quotient(p), h)
        section = slices.section(p)
        assert section.groebner_basis() == \
            buchberger(expected.gens, expected.ring)


@given(st.integers(0, 10 ** 6), st.sampled_from([3, 4]), st.integers(1, 3))
@settings(max_examples=25)
def test_restrict_is_psi_then_drop_xn(seed, nvars, degree):
    """psi, written out as a full matrix, sends h to x_n and fixes x0..x_{n-1}."""
    rng = random.Random(seed)
    ring = RINGS[nvars]
    n = nvars - 1
    f = ring.random_form(degree, rng)
    h = ring.general_linear_form(rng)
    coeffs = dict(h.terms)
    hn = coeffs.get(tuple(int(i == n) for i in range(nvars)), 0)
    inv = ring.inv(hn)
    image = [(-coeffs.get(tuple(int(i == j) for i in range(nvars)), 0) * inv)
             % ring.prime for j in range(n)] + [inv]
    rows = tuple(tuple(int(i == j) for j in range(nvars)) for i in range(n))
    psi = LinearChange(ring, rows + (tuple(image),))
    assert psi.apply(h) == ring.variable(n)
    moved = psi.apply(f)
    kept = {m[:n]: c for m, c in moved.terms if m[n] == 0}
    assert restrict(f, h) == ring.restricted().from_dict(kept)
