import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import oracles
from oracles import monomial_product as product
from gintools.groebner import buchberger
from gintools.parsing import parse_ideal
from gintools.ring import (DEGREE_BOUND, MAX_NVARS, LinearChange, Poly,
                           PolyRing, drop_last, last_image, mono_div,
                           mono_divides, mono_gcd, monomials_of_degree,
                           restrict, revlex_key, substitute_last)
from gintools.staircase import MonomialIdeal

R3 = PolyRing(3)
R4 = PolyRing(4)


def mono(nvars, **exps):
    e = [0] * nvars
    for name, v in exps.items():
        e[int(name[1:])] = v
    return tuple(e)


def poly(ring, text):
    from gintools.parsing import parse_polynomial
    return parse_polynomial(text, ring)


# ---------------------------------------------------------------------------
# revlex order

def test_equal_degree_comparison():
    # x0^2 beats x0*x1: first difference from the right at index 1, 0 < 1
    assert revlex_key((2, 0, 0)) > revlex_key((1, 1, 0))


def test_reflexive():
    assert revlex_key((1, 2, 3)) == revlex_key((1, 2, 3))


def test_lower_degree_is_greater():
    assert revlex_key((1, 0, 0)) > revlex_key((2, 0, 0))


def test_mismatched_lengths_rejected():
    for op in (mono_div, mono_gcd):
        with pytest.raises(ValueError, match="different lengths"):
            op((1, 0), (1, 0, 0))
    with pytest.raises(ValueError, match="wrong number of variables"):
        MonomialIdeal.from_monomials(3, [(1, 0, 0), (1, 0)])


def all_monomials_up_to(nvars, dmax):
    out = []
    for d in range(dmax + 1):
        out.extend(monomials_of_degree(nvars, d))
    return out


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_total_order_exhaustive(nvars):
    """Distinct monomials of degree <= 4 get distinct keys, so comparing
    keys orders them totally and antisymmetrically."""
    monos = all_monomials_up_to(nvars, 4)
    for a, b in itertools.combinations(monos, 2):
        assert revlex_key(a) != revlex_key(b)


def test_transitivity_spot_check():
    monos = all_monomials_up_to(3, 3)
    for a, b, c in itertools.permutations(monos, 3):
        if revlex_key(a) > revlex_key(b) > revlex_key(c):
            assert revlex_key(a) > revlex_key(c)


small_mono = st.lists(st.integers(0, 4), min_size=3, max_size=3).map(tuple)


@given(small_mono, small_mono, small_mono)
def test_multiplicative_within_degree(a, b, m):
    if sum(a) != sum(b) or a == b:
        return
    c = revlex_key(a) > revlex_key(b)
    assert (revlex_key(product(a, m)) > revlex_key(product(b, m))) == c


# ---------------------------------------------------------------------------
# monomial arithmetic

def test_gcd():
    assert mono_gcd((2, 1, 0), (1, 3, 0)) == (1, 1, 0)


def test_divides_false():
    assert not mono_divides((1, 0, 1), (2, 0, 0))


def test_monomial_operations_reject_other_lengths():
    with pytest.raises(ValueError, match="different lengths"):
        mono_divides((1, 0, 0), (1, 0))


def test_div_on_non_divisor_raises():
    with pytest.raises(ValueError):
        mono_div((2, 0, 0), (1, 0, 1))


@given(small_mono, small_mono)
def test_mul_div_roundtrip(a, b):
    assert mono_div(product(a, b), b) == a
    assert mono_divides(b, product(a, b))


# ---------------------------------------------------------------------------
# polynomial arithmetic

def test_additive_inverse():
    f = poly(R3, "x0^2 + 3*x1*x2")
    assert (f + (-f)).is_zero()


def test_difference_of_squares():
    f = poly(R3, "x0 + x1") * poly(R3, "x0 - x1")
    assert f == poly(R3, "x0^2 - x1^2")


def test_multiplicative_identity():
    f = poly(R3, "x0*x2 - 5*x1^2")
    assert R3.one() * f == f


def test_inhomogeneous_sum_rejected():
    with pytest.raises(ValueError):
        poly(R3, "x0") + poly(R3, "x0^2")
    with pytest.raises(ValueError, match="degrees 2 and 1"):
        poly(R3, "x0^2") + poly(R3, "x1")


def test_sum_with_zero_is_fine():
    f = poly(R3, "x0^2")
    assert f + R3.zero() == f


def test_cross_ring_rejected():
    with pytest.raises(ValueError):
        poly(R3, "x0") + poly(R4, "x0")


def test_products_reject_a_ring_with_other_nvars():
    with pytest.raises(ValueError):
        poly(R3, "x0 + x1") * poly(R4, "x0 + x3")
    with pytest.raises(ValueError, match="different lengths"):
        poly(R3, "x0 + x1") * R3.monomial((1, 0, 0, 0))
    with pytest.raises(ValueError, match="different rings"):
        substitute_last(poly(R3, "x2^2"), poly(R4, "x0 + x3"))


def test_composite_modulus_rejected():
    # over Z/9 the Fermat inverse would be wrong: 2^7 = 2 mod 9, but 2*5 = 1
    with pytest.raises(ValueError, match="not prime"):
        PolyRing(3, 9)
    with pytest.raises(ValueError):
        PolyRing(3, 1)


def test_strong_pseudoprime_to_the_twelve_bases_rejected():
    """399165290221 * 798330580441 passes Miller-Rabin at bases 2..37."""
    with pytest.raises(ValueError, match="need p < 318665857834031151167461"):
        PolyRing(2, 399165290221 * 798330580441)
    assert PolyRing(2, 2 ** 61 - 1).prime == 2 ** 61 - 1


@given(st.integers(0, 31))
def test_scalar_arithmetic_matches_field(k):
    p = 31
    ring = PolyRing(2, p)
    f = ring.one().scale(k)
    assert f.is_zero() == (k % p == 0)
    if k % p:
        assert f.monic() == ring.one()


def random_homogeneous(ring, degree, rng_seed):
    rng = random.Random(rng_seed)
    return ring.random_form(degree, rng)


@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 10 ** 6))
def test_initial_monomial_multiplicative(d1, d2, seed):
    f = random_homogeneous(R3, d1, seed)
    g = random_homogeneous(R3, d2, seed + 1)
    assert (f * g).lead_monomial == product(f.lead_monomial,
                                            g.lead_monomial)


def test_initial_monomial_examples():
    assert poly(R3, "x1^2 - x0*x2").lead_monomial == (0, 2, 0)
    assert poly(R3, "7*x0^2*x1").lead_monomial == (2, 1, 0)
    assert poly(R4, "x0*x3 - x1*x2").lead_monomial == (0, 1, 1, 0)


def test_initial_monomial_of_zero_raises():
    with pytest.raises(ValueError):
        R3.zero().lead_monomial


# ---------------------------------------------------------------------------
# linear changes

def test_identity_change():
    f = poly(R3, "x0*x2 - x1^2")
    assert LinearChange(R3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))).apply(f) == f


def test_binomial_expansion():
    g = LinearChange(R3, ((1, 0, 0), (1, 1, 0), (0, 0, 1)))
    assert g.apply(poly(R3, "x1^2")) == poly(R3, "x0^2 + 2*x0*x1 + x1^2")


def test_a_matrix_of_the_wrong_shape_is_refused():
    for matrix in (((1, 0), (0, 1)), ((1, 0, 0), (0, 1), (0, 0, 1)),
                   ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0))):
        with pytest.raises(ValueError, match="wrong shape"):
            LinearChange(R3, matrix)


def test_an_entry_above_the_diagonal_is_refused():
    """Only lower-triangular changes are taken, each entry above the
    diagonal checked, and checked mod p: 7 is zero in F_7."""
    for i, j in ((0, 1), (0, 2), (1, 2)):
        matrix = [[int(a == b) for b in range(3)] for a in range(3)]
        matrix[i][j] = 3
        with pytest.raises(ValueError, match="not lower triangular"):
            LinearChange(R3, tuple(map(tuple, matrix)))
    F7 = PolyRing(3, 7)
    change = LinearChange(F7, ((1, 7, 0), (2, 1, 14), (0, 0, 1)))
    assert change.apply(F7.variable(1)) == poly(F7, "2*x0 + x1")


def test_singular_matrix_rejected():
    """A lower-triangular matrix is singular exactly when its diagonal holds
    a zero, read mod p."""
    for i in range(3):
        matrix = [[int(a == b) for b in range(3)] for a in range(3)]
        matrix[i][i] = R3.prime
        with pytest.raises(ValueError, match="zero on the diagonal"):
            LinearChange(R3, tuple(map(tuple, matrix)))


def _sparse_rows(rng, nvars, p):
    """Lower-triangular rows with a nonzero diagonal and sparse entries
    below it."""
    return [[rng.choice((0, 0, 1, rng.randrange(p))) for _ in range(i)]
            + [rng.randrange(1, p)] + [0] * (nvars - 1 - i)
            for i in range(nvars)]


@given(st.integers(0, 10 ** 6), st.sampled_from(["sparse", "unipotent"]),
       st.integers(1, 6), st.integers(0, 4))
def test_change_matches_term_by_term_expansion(seed, kind, nvars, degree):
    """Against the oracle: sparse lower-triangular matrices, with a
    diagonal that need not be 1, and sparse inputs over F_7, so that terms
    cancel and some variables are absent; and unipotent draws at
    p = 32003 on dense forms, the shape of every gin sample."""
    rng = random.Random(seed)
    p = 32003 if kind == "unipotent" else 7
    ring = PolyRing(nvars, p)
    if kind == "unipotent":
        change = LinearChange.random(ring, rng)
        f = ring.random_form(degree, rng)
    else:
        rows = _sparse_rows(rng, nvars, p)
        change = LinearChange(ring, tuple(map(tuple, rows)))
        monos = list(monomials_of_degree(nvars, degree))
        picked = rng.sample(monos, min(len(monos), rng.randint(1, 10)))
        f = ring.from_dict({m: rng.randrange(1, p) for m in picked})
    expected = oracles.expand_change(f.terms, change.matrix, p)
    assert change.apply(f).terms == expected
    assert change.apply(f).terms == expected  # again, from its cached powers


class _RecordingRandom(random.Random):
    """A seeded stream that records its ``randrange`` calls and values."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = []

    def randrange(self, *args):
        value = super().randrange(*args)
        self.calls.append((args, value))
        return value


def test_random_change_is_unipotent():
    """Row i is i draws from F_p, then 1 on the diagonal, then zeros: the
    n(n-1)/2 draws come in row order, and the determinant is 1."""
    for (nvars, p), seed in itertools.product(
            [(1, 7), (2, 2), (4, 7), (6, 32003)], range(5)):
        rng = _RecordingRandom(seed)
        matrix = LinearChange.random(PolyRing(nvars, p), rng).matrix
        assert len(rng.calls) == nvars * (nvars - 1) // 2
        assert all(args == (p,) for args, _ in rng.calls)
        drawn = iter(value for _, value in rng.calls)
        assert matrix == tuple(
            tuple(next(drawn) for _ in range(i)) + (1,) + (0,) * (nvars - 1 - i)
            for i in range(nvars))
        assert oracles.det_mod(matrix, p) == 1


def test_variable_counts_past_the_bound_are_refused_before_allocation():
    """10^8 variables would need gigabytes of weights; the count is
    refused before any of them is built."""
    assert PolyRing(MAX_NVARS).nvars == MAX_NVARS
    with pytest.raises(ValueError, match="at most"):
        PolyRing(MAX_NVARS + 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="at most"):
            parse_ideal("x100000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_rings_with_equal_rows_are_equal():
    """Two rings of one size and modulus pack monomials alike and are
    equal; rings of another size or modulus are not.  A ring takes no
    weight rows: grevlex is the one order."""
    a, b = PolyRing(4), PolyRing(4)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a._weights == b._weights
    assert a != PolyRing(3) and a._weights != PolyRing(3)._weights
    assert a != PolyRing(4, 7)
    assert R3.restricted() == PolyRing(2)
    with pytest.raises(TypeError):
        PolyRing(3, 7, ((-1, -1, -1),))


def test_restricted_ring_is_built_once_per_ring():
    assert R4.restricted() is R4.restricted()
    assert R4.restricted().restricted() is R4.restricted().restricted()


# ---------------------------------------------------------------------------
# restriction

def test_restrict_absent_variable():
    f = poly(R4, "x0*x1 - x2^2")
    h = poly(R4, "x3")
    small = PolyRing(3)
    assert restrict(f, h) == poly(small, "x0*x1 - x2^2")


def test_restrict_kills_terms():
    f = poly(R4, "x0*x3 - x1*x2")
    assert restrict(f, poly(R4, "x3")) == poly(PolyRing(3), "-x1*x2")


def test_restrict_substitution():
    f = poly(R3, "x2^2")
    h = poly(R3, "x2 - x0")
    assert restrict(f, h) == poly(PolyRing(2), "x0^2")


def test_restrict_needs_last_variable():
    with pytest.raises(ValueError):
        restrict(poly(R3, "x0^2"), poly(R3, "x0 + x1"))


def test_restrict_rejects_zero_and_nonlinear():
    with pytest.raises(ValueError):
        restrict(poly(R3, "x0"), R3.zero())
    with pytest.raises(ValueError):
        restrict(poly(R3, "x0"), poly(R3, "x2^2"))


@given(st.integers(0, 10 ** 6), st.integers(2, 5),
       st.sampled_from((2, 7, 32003)), st.integers(0, 4), st.booleans())
def test_restrict_matches_substituting_then_dropping(seed, nvars, p, degree,
                                                    only_last):
    """Substituting in the restricted ring gives the terms, in order, of the
    full substitution with its x_n terms dropped.  Coefficients are often
    0, in f and in h; with ``only_last``, h = c*x_n, whose image is 0."""
    rng = random.Random(seed)
    ring = PolyRing(nvars, p)
    f = ring.from_dict({m: rng.choice((0, 1, rng.randrange(p)))
                        for m in monomials_of_degree(nvars, degree)})
    head = [0 if only_last else rng.choice((0, 1, rng.randrange(p)))
            for _ in range(nvars - 1)]
    h = ring.linear_form(head + [rng.randrange(1, p)])
    expected = drop_last(substitute_last(f, last_image(h)))
    got = restrict(f, h)
    assert got.ring == expected.ring == ring.restricted()
    assert got.terms == expected.terms


@given(st.integers(0, 10 ** 6), st.integers(1, 2), st.integers(1, 2))
def test_restrict_is_a_ring_map(seed, d1, d2):
    rng = random.Random(seed)
    f = R3.random_form(d1, rng)
    g = R3.random_form(d2, rng)
    h = R3.general_linear_form(rng)
    assert restrict(f * g, h) == restrict(f, h) * restrict(g, h)
    if d1 == d2:
        assert restrict(f + g, h) == restrict(f, h) + restrict(g, h)


# ---------------------------------------------------------------------------
# packed monomials

# small exponents tie often; large ones fill the 16-bit fields, and five of
# them, or the sum of two, stay below the degree bound
exponents = st.one_of(st.integers(0, 3), st.integers(0, 3000))


def monomial_lists(nvars, **kwargs):
    return st.lists(st.tuples(*[exponents] * nvars), **kwargs)


@given(st.data(), st.sampled_from([2, 3, 4, 5]))
def test_packed_keys_sort_as_the_oracle_orders(data, nvars):
    monos = data.draw(monomial_lists(nvars, min_size=2, max_size=12,
                                     unique=True))
    assert sorted(monos, key=PolyRing(nvars).sort_key) == \
        sorted(monos, key=oracles.grevlex_order, reverse=True)


@given(st.data(), st.sampled_from([2, 3, 4, 5]))
def test_packed_keys_unpack_add_and_divide_as_monomials(data, nvars):
    """A key unpacks to its monomial, the sum of two keys is the key of the
    product, and the guard test on keys agrees with ``mono_divides``."""
    a, b, c = data.draw(monomial_lists(nvars, min_size=3, max_size=3))
    ring = PolyRing(nvars)
    key, G = ring.sort_key, ring.guards
    for m in (a, b, product(a, b)):
        assert ring.unpack(key(m)) == m
        assert key(m) == ring.monomial(m).packed[0][0]
    assert key(a) + key(b) == key(product(a, b))
    for l, m in ((a, b), (b, a), (a, product(a, c)), (c, product(a, c))):
        assert (((key(m) | G) - key(l)) & G == G) == mono_divides(l, m)


def test_degrees_stay_below_the_packing_bound():
    top = DEGREE_BOUND - 1
    assert DEGREE_BOUND == 2 ** 15
    x0, x1 = R3.variable(0), R3.variable(1)
    power = R3.monomial((top, 0, 0))
    assert power == x0 ** top and power.degree == top
    assert power.lead_monomial == (top, 0, 0)
    assert R3.from_dict({(0, top, 0): 1, (top, 0, 0): 2}).terms == \
        (((top, 0, 0), 2), ((0, top, 0), 1))
    assert R3.monomial((1, top - 1, 0)) == x1 * R3.monomial((1, top - 2, 0))
    for build in (lambda: R3.monomial((DEGREE_BOUND, 0, 0)),
                  lambda: R3.from_dict({(1, top, 0): 1}),
                  lambda: x0 ** DEGREE_BOUND,
                  lambda: power * x1,
                  lambda: power * R3.monomial((0, 0, 1))):
        with pytest.raises(ValueError, match=f"below {DEGREE_BOUND}"):
            build()
    with pytest.raises(ValueError, match="negative"):
        R3.monomial((-1, 2, 0))


def test_random_form_refuses_degrees_it_cannot_build(monkeypatch):
    """A negative degree has no monomial in two or more variables, so the
    draw would repeat the zero form forever; a degree at the bound has
    about C(d + n - 1, n - 1) monomials, none of which packs.  Both are
    refused before any monomial is listed."""
    import gintools.ring as ring_module

    def no_listing(nvars, d):
        raise AssertionError(f"monomials of degree {d} listed")

    rng = random.Random(0)
    monkeypatch.setattr(ring_module, "monomials_of_degree", no_listing)
    for ring in (PolyRing(1), R3, R4):
        with pytest.raises(ValueError, match="negative degree -1"):
            ring.random_form(-1, rng)
        with pytest.raises(ValueError, match=f"below {DEGREE_BOUND}"):
            ring.random_form(DEGREE_BOUND, rng)
    monkeypatch.undo()
    top = DEGREE_BOUND - 1
    assert PolyRing(2).random_form(top, rng).degree == top
    assert R3.random_form(0, rng).degree == 0


def test_a_power_of_a_constant_is_taken_at_once(monkeypatch):
    """No degree bound stops a constant's power, so it is not a loop of
    products: 2^k is pow(2, k, p), the zero polynomial stays zero for
    k >= 1, and k = 0 gives 1."""
    k, p = 10 ** 9, R3.prime

    def no_product(self, other):
        raise AssertionError("a constant's power multiplied")
    monkeypatch.setattr(Poly, "__mul__", no_product)
    assert R3.one().scale(2) ** k == R3.one().scale(pow(2, k, p))
    assert R3.zero() ** k == R3.zero()
    assert R3.zero() ** 0 == R3.one() == R3.one().scale(3) ** 0
    monkeypatch.undo()
    x0 = R3.variable(0)
    assert poly(R3, "2^1000000000*x0") == x0.scale(pow(2, k, p))
    assert poly(R3, "(x0 - x0)^1000000000 + x0") == x0


def test_an_s_pair_lcm_past_the_bound_is_refused():
    half = DEGREE_BOUND // 2
    a = R3.monomial((half, 0, 0))
    # the one pair has an lcm of degree 32767, and then of 32768
    assert len(buchberger([a, R3.monomial((1, half - 1, 0))], R3)) == 2
    with pytest.raises(ValueError, match="S-pair lcm of degree 32768"):
        buchberger([a, R3.monomial((1, half, 0))], R3)
    top = R3.monomial((DEGREE_BOUND - 1, 0, 0))
    # coprime leads form no pair, so nothing crosses the bound
    assert len(buchberger([top, R3.monomial((0, 0, 1))], R3)) == 2
    with pytest.raises(ValueError, match="S-pair lcm of degree 32768"):
        buchberger([top, R3.monomial((1, 1, 0)) + R3.monomial((0, 0, 2))], R3)


def test_kernel_results_hold_the_packed_form_only():
    """``terms`` is derived when read, so sections and products that nobody
    reads keep one form."""
    f = poly(R4, "x0^2 - x1*x3 + x2^2")
    g = f * poly(R4, "x0 + x3")
    section = restrict(g, poly(R4, "x0 + 2*x3"))
    assert g._terms is None and section._terms is None
    assert section.terms[0] == (section.lead_monomial, section.lead_coeff)
    assert section._terms is not None
