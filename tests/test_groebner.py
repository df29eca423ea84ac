import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from gintools.ring import (LinearChange, Poly, PolyRing, last_image,
                           mono_div, mono_divides, mono_lcm,
                           monomials_of_degree, restrict, revlex_key)
from gintools.corpus import complete_intersection, general_points, point_ideal
from gintools.groebner import (Ideal, _SliceBasis, _divide,
                               _elimination_ring, _groebner_basis,
                               _hilbert_numerator, _koszul_numerator,
                               _lift, _one_minus_t,
                               _reduce_basis, _reducer, _s_pair,
                               buchberger, hilbert_function,
                               ideal_quotient, initial_ideal, intersect,
                               normal_form, restrict_ideal, saturate, spoly,
                               truncate)
from gintools.parsing import parse_ideal, parse_polynomial
from gintools.staircase import GinUnstableError, MonomialIdeal

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


def elimination_rings(nvars):
    """The elimination ring over F_7, x-degree first, and a ring in the
    block order it replaced, each with its larger-is-greater oracle order."""
    return [(_elimination_ring(PolyRing(nvars, 7)), oracles.x_degree_first_order),
            (PolyRing(nvars + 1, 7, order=oracles.block_order(nvars + 1)),
             oracles.elimination_order)]


def elimination_division_case(seed, big):
    """The same in an elimination ring, with inhomogeneous polynomials."""
    rng = random.Random(seed)
    divisors = [sparse_poly(big, rng, [1, 2], max_terms=4)
                for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        divisors = list(buchberger(divisors, big))
    f = sparse_poly(big, rng, [1, 2, 3], max_terms=15)
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
    for big, order in elimination_rings(nvars):
        _, f, divisors = elimination_division_case(seed, big)
        expected = oracles.scan_normal_form(
            f.terms, [g.terms for g in divisors], big.prime, order)
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


def s_polynomial_terms(f, g, p):
    """u*f - v*g for monic f and g, u*lm(f) = v*lm(g) their lcm, as
    (monomial, coefficient) pairs with the zero coefficients dropped."""
    lcm = mono_lcm(f.lead_monomial, g.lead_monomial)
    coeffs = {}
    for h, sign in ((f, 1), (g, -1)):
        u = mono_div(lcm, h.lead_monomial)
        for m, c in h.terms:
            mm = tuple(a + b for a, b in zip(m, u))
            coeffs[mm] = (coeffs.get(mm, 0) + sign * c) % p
    return [(m, c) for m, c in coeffs.items() if c]


def check_s_pair_remainder(ring, order, rng, homogeneous):
    """The S-pair that Buchberger forms in the division's dict, divided by
    a reducer table, against the scan division of an S-polynomial built
    here; the public ``spoly`` against the same S-polynomial.  Over F_7,
    where cancellations are frequent."""
    p = ring.prime

    def monic_poly():
        degrees = [rng.randint(1, 3)] if homogeneous else [1, 2]
        return sparse_poly(ring, rng, degrees, max_terms=4).monic()

    f, g = monic_poly(), monic_poly()
    basis = [monic_poly() for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        basis = list(buchberger(basis + [f, g], ring))
    s = s_polynomial_terms(f, g, p)
    expected = oracles.scan_normal_form(s, [b.terms for b in basis], p, order)
    table = [_reducer(b) for b in basis]
    lcm = ring.sort_key(mono_lcm(f.lead_monomial, g.lead_monomial))
    remainder = _divide(_s_pair(_reducer(f), _reducer(g), lcm, p), table, ring)
    assert Poly(ring, remainder).terms == expected
    sorted_s = oracles.scan_normal_form(s, [], p, order)
    assert spoly(f, g).terms == sorted_s
    assert spoly(f.scale(3), g.scale(5)).terms == sorted_s


def test_spoly_rejects_polynomials_from_different_rings():
    with pytest.raises(ValueError, match="different rings"):
        spoly(poly(R3, "x0^2 + x1*x2"), poly(R4, "x0*x1 + x3^2"))


@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3, 4]))
@settings(max_examples=40)
def test_s_pair_remainder_matches_scan_division_in_grevlex(seed, nvars):
    check_s_pair_remainder(PolyRing(nvars, 7), oracles.grevlex_order,
                           random.Random(seed), homogeneous=True)


@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]))
@settings(max_examples=40)
def test_s_pair_remainder_matches_scan_division_in_elimination_order(seed,
                                                                     nvars):
    rng = random.Random(seed)
    for big, order in elimination_rings(nvars):
        check_s_pair_remainder(big, order, rng, homogeneous=False)


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
            assert normal_form(spoly(gb[i], gb[j]), gb).is_zero()


@given(st.integers(0, 1000))
@settings(max_examples=25)
def test_buchberger_certificates_random(seed):
    I = random_ideal(seed)
    gb = I.groebner_basis()
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            assert normal_form(spoly(gb[i], gb[j]), gb).is_zero()
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
        assert R4.unpack(lcm) == mono_lcm(R4.unpack(f[0]), R4.unpack(g[0]))
        degrees.append(sum(R4.unpack(lcm)))
        return _s_pair(f, g, lcm, p)

    monkeypatch.setattr(gb, "_s_pair", recorded)
    rng = random.Random(seed)
    buchberger([R4.random_form(d, rng) for d in (2, 2, 3)], R4)
    assert len(set(degrees)) > 1
    assert degrees == sorted(degrees)


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

def series(M):
    return _hilbert_numerator(M.gens, M.nvars)


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
    stopped = _groebner_basis(moved, ring, series(initial_ideal(I)))
    assert lead_ideal(stopped, nvars) == initial_ideal(Ideal(ring, moved))


def test_stop_needs_the_whole_series_not_the_values_so_far():
    """The basis gains x0*x2^3 in degree 4 and x1^3*x2^3 in degree 6.  At
    the degree-5 boundary the leads found so far have the right Hilbert
    values up to degree 5, but not the right series."""
    I = ideal(R3, "x0^2 - x0*x1, x0*x1^2 - x2^3")
    full = initial_ideal(I)
    assert (0, 3, 3) in full.gens
    stopped = _groebner_basis(I.gens, R3, series(full))
    assert lead_ideal(stopped, 3) == full


def test_a_basis_with_its_series_processes_no_pair(monkeypatch):
    import gintools.groebner as gb
    I = twisted_cubic()
    target = series(initial_ideal(I))
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
    wrong = series(MonomialIdeal.from_monomials(3, [(2, 0, 0)]))
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


@given(st.integers(0, 10 ** 6), st.sampled_from([2, 7, 32003]),
       st.sampled_from([2, 3, 4]),
       st.sampled_from(["random", "r = nvars", "common factor",
                        "repeated form", "multiple"]))
@settings(max_examples=60, derandomize=True)
def test_the_floored_basis_is_the_full_one(seed, p, nvars, kind):
    """Stopped at the floor or not, the reduced basis is byte-identical
    to the one from the run that processes every pair, and the lead ideal
    of a fresh ideal, read off its floored basis unreduced, has the leads
    of that reduced basis as its generators."""
    ring = PolyRing(nvars, p)
    forms = floor_forms(kind, ring, random.Random(seed))
    assert len(forms) <= nvars
    full = _reduce_basis(_groebner_basis(forms, ring), ring)
    assert [g.packed for g in buchberger(forms, ring)] == \
        [g.packed for g in full]
    # a fresh ideal reads its leads off the floored basis, unreduced
    assert sorted(initial_ideal(Ideal(ring, forms)).gens) == \
        sorted(g.lead_monomial for g in full)


def test_a_floor_never_reached_returns_the_full_basis():
    """Three quadrics with two linear syzygies: 1 - 3t^2 + 2t^3 lies above
    the floor (1 - t^2)^3, so the run takes every pair and raises
    nothing, where the same numerator as a target raises."""
    I = twisted_cubic()
    floor = _koszul_numerator((2, 2, 2))
    assert floor != series(initial_ideal(I))
    G = _groebner_basis(I.gens, R4, floor, floor=True)
    assert lead_ideal(G, 4) == initial_ideal(I)
    assert buchberger(I.gens, R4) == \
        _reduce_basis(_groebner_basis(I.gens, R4), R4)
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

    def recorded(monos, nvars):
        numerators.append(_hilbert_numerator(monos, nvars))
        return numerators[-1]

    monkeypatch.setattr(gb, "_hilbert_numerator", recorded)
    basis = buchberger(I.gens, R3)
    assert [g.degree for g in basis] == [2, 3, 3, 4, 5]
    floor = _koszul_numerator((2, 3, 3))
    assert len(numerators) == 1 and numerators[0][:5] != floor[:5]
    assert basis == _reduce_basis(_groebner_basis(I.gens, R3), R3)


def test_a_complete_intersection_stops_at_its_floor(monkeypatch):
    """A (2,3) complete intersection in P^4: its one pair adds a quartic,
    and the leads reach the floor at the next degree boundary, so the
    quintic pair the quartic makes is left.  That boundary is the one
    check: the generators' own leads are not checked."""
    import gintools.groebner as gb
    I = complete_intersection(2, 3, 4, seed=7)
    calls, checks = [], []

    def recorded(f, g, lcm, p):
        calls.append((f, g))
        return _s_pair(f, g, lcm, p)

    def checked(monos, nvars):
        checks.append(list(monos))
        return _hilbert_numerator(monos, nvars)

    monkeypatch.setattr(gb, "_s_pair", recorded)
    monkeypatch.setattr(gb, "_hilbert_numerator", checked)
    floored = buchberger(I.gens, I.ring)
    assert len(calls) == 1 and len(checks) == 1 and len(checks[0]) == 3
    calls.clear()
    assert _reduce_basis(_groebner_basis(I.gens, I.ring), I.ring) == floored
    assert len(calls) == 2


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
    ours = sorted(tuple(sorted(g.terms)) for g in buchberger(forms, ring))
    assert ours == oracles.sympy_reduced_basis(forms, ring)


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


LEX3 = PolyRing(3, order=((-1, 0, 0), (0, -1, 0), (0, 0, -1)))
QUADRIC = poly(R3, "x0^2 + x1*x2")
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
    "lex": (poly(LEX3, "x0*x2 + x1^2"), LEX3.variable(2), "graded"),
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


@given(st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3),
                min_size=1, max_size=3),
       st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3),
                min_size=1, max_size=3))
@settings(max_examples=25)
def test_intersect_matches_lcm_construction_on_monomials(mons_a, mons_b):
    """For monomial ideals the meet is the pairwise-lcm ideal."""
    from gintools.ring import mono_lcm
    from gintools.staircase import MonomialIdeal as MI
    from gintools.groebner import initial_ideal
    A = Ideal(R3, [R3.monomial(tuple(m)) for m in mons_a])
    B = Ideal(R3, [R3.monomial(tuple(m)) for m in mons_b])
    meet = intersect(A, B)
    expected = MI.from_monomials(3, [mono_lcm(tuple(a), tuple(b))
                                     for a in mons_a for b in mons_b])
    assert initial_ideal(meet) == expected
    assert all(len(g.terms) == 1 for g in meet.gens)


MEET_RINGS = {(n, p): PolyRing(n, p) for n in (3, 4) for p in (7, 32003)}
MEET_CASES = (st.integers(0, 10 ** 6), st.sampled_from(sorted(MEET_RINGS)))


def random_forms(rng, ring):
    """One to three random forms of degree one to three."""
    return [ring.random_form(rng.randint(1, 3), rng)
            for _ in range(rng.randint(1, 3))]


def random_point(rng, ring):
    while True:
        pt = tuple(rng.randrange(ring.prime) for _ in range(ring.nvars))
        if any(pt):
            return pt


@given(*MEET_CASES, st.booleans())
@settings(max_examples=25)
def test_intersect_matches_block_order_elimination_and_ranks(seed, key,
                                                             points):
    """The x-degree-first elimination against the block order it replaced,
    on random forms, whose top degrees come out lower, higher or tied, or
    on a set of one to four points against one more point.  t goes on
    either side, and the reduced basis is the same."""
    ring = MEET_RINGS[key]
    rng = random.Random(seed)
    if points:
        pts = [random_point(rng, ring) for _ in range(rng.randint(2, 5))]
        I = point_ideal(ring, pts[0])
        for pt in pts[1:-1]:
            I = intersect(I, point_ideal(ring, pt))
        J = point_ideal(ring, pts[-1])
    else:
        I = Ideal(ring, random_forms(rng, ring))
        J = Ideal(ring, random_forms(rng, ring))
    meet = intersect(I, J)
    assert meet.gens == intersect(J, I).gens
    assert meet.groebner_basis() == oracles.block_elimination_meet(
        I.gens, J.gens, ring)
    for d in range(6):
        assert oracles.ideal_dim(list(meet.gens), d, ring.nvars, ring.prime) \
            == oracles.intersection_dim(list(I.gens), list(J.gens), d,
                                        ring.nvars, ring.prime)


def test_intersect_puts_t_on_the_ideal_of_lower_top_degree(monkeypatch):
    """The generators intersect hands to Buchberger are t*a for a in the
    ideal of lower top degree, I on a tie, and (1-t)*b for the other's."""
    import gintools.groebner as groebner_module
    received = []
    real = groebner_module._groebner_basis
    monkeypatch.setattr(groebner_module, "_groebner_basis",
                        lambda gens, ring, target=None:
                        received.append(gens) or real(gens, ring, target))
    six = general_points(6, seed=3)
    ring = six.ring
    big = _elimination_ring(ring)
    a, b = point_ideal(ring, (1, 2, 3)), point_ideal(ring, (4, 5, 6))
    assert max(g.degree for g in six.gens) == 3

    def lifted(with_t, without_t):
        return ([_lift(f, big, extra=1) for f in with_t.gens]
                + [_one_minus_t(g, big) for g in without_t.gens])
    for I, J, carrier, other in ((six, a, a, six), (a, six, a, six),
                                 (a, b, a, b), (b, a, b, a)):
        received.clear()
        intersect(I, J)
        assert received == [lifted(carrier, other)]


@given(st.integers(0, 10 ** 6), st.integers(2, 5),
       st.sampled_from([2, 7, 32003]))
@settings(max_examples=40)
def test_one_minus_t_matches_the_subtraction(seed, nvars, p):
    """(1-t)*g built term by term is the Poly difference g - t*g."""
    rng = random.Random(seed)
    ring = PolyRing(nvars, p)
    big = _elimination_ring(ring)
    g = sparse_poly(ring, rng, [rng.randint(0, 4)])
    assert _one_minus_t(g, big) == _lift(g, big) - _lift(g, big, extra=1)


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


def test_elimination_ring_is_built_once_per_ring(monkeypatch):
    """Intersections share one elimination ring, so its modulus is tested
    for primality once."""
    import gintools.ring as ring_module
    I, J = ideal(PolyRing(3, 7), "x0, x1"), ideal(PolyRing(3, 7), "x1, x2")
    ring = I.ring
    tested = []
    monkeypatch.setattr(ring_module, "_is_prime",
                        lambda p: tested.append(p) or True)
    assert _elimination_ring(ring) is _elimination_ring(ring)
    for _ in range(3):
        intersect(I, J)
    assert tested == [7]


def test_intersect_refuses_a_ring_that_is_not_graded():
    """The elimination order eliminates t only on homogeneous generators,
    and in(J : x_n) = in(J) : x_n is a fact of grevlex."""
    ring = PolyRing(3, 7, order=((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    x0, x2 = ring.variable(0), ring.variable(2)
    I = Ideal(ring, [x0 * ring.variable(1) + x2 * x2])
    with pytest.raises(ValueError, match="graded"):
        intersect(I, Ideal(ring, [x0]))
    with pytest.raises(ValueError, match="graded"):
        ideal_quotient(I, x2)


def test_quotients_and_sections_refuse_a_ring_that_is_not_graded():
    """In lex, (x0*x2 + x1^2, x1*x2) : x2 came out as (x0 + x1^2, x1),
    which is inhomogeneous, and x0 + x1^2 is not in the colon."""
    lex = PolyRing(3, order=((-1, 0, 0), (0, -1, 0), (0, 0, -1)))
    x0, x1, x2 = (lex.variable(i) for i in range(3))
    I = Ideal(lex, [x0 * x2 + x1 * x1, x1 * x2])
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
    I = twisted_cubic()
    assert truncate(I, 5).same_ideal(I)


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


def ideal_with_h_torsion(rng, ring, h):
    """Generators h^e * f with e up to 2, so that the colons by h move."""
    gens = []
    for _ in range(rng.randint(2, 3)):
        e = rng.randint(0, 2)
        gens.append(h ** e * ring.random_form(rng.randint(1, 3 - e), rng))
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
