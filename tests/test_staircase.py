import itertools

import pytest
from hypothesis import given, settings, strategies as st

from gintools.ring import LinearChange, PolyRing, mono_divides, revlex_key
from gintools.staircase import (DegenerateProfileError, InvariantProfile,
                                MonomialIdeal, UnsaturatedIdealError,
                                colon_by_monomial, elementary_move,
                                gap_degrees, invariant_table,
                                is_borel_fixed, is_connected, is_p_borel_fixed,
                                profile_from_two_vars, restrict_last,
                                slice_level, truncate_monomial,
                                two_variable_trace)


def M(nvars, *gens):
    return MonomialIdeal.from_monomials(nvars, gens)


def borel_closure(nvars, seeds):
    """Close a monomial set under elementary moves."""
    todo = [tuple(s) for s in seeds]
    seen = set(todo)
    while todo:
        m = todo.pop()
        for j in range(1, nvars):
            moved = elementary_move(m, j)
            if moved is not None and moved not in seen:
                seen.add(moved)
                todo.append(moved)
    return MonomialIdeal.from_monomials(nvars, seen)


# ---------------------------------------------------------------------------
# minimal generators

@given(st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3)
                .map(tuple), max_size=8),
       st.integers(0, 3), st.booleans())
def test_from_monomials_keeps_the_minimal_ones_in_canonical_order(
        monos, repeats, unit):
    """Against the definition: a monomial no other one of the list divides,
    greatest first in the reverse lex order; duplicates and 1 included."""
    monos = monos + monos[:repeats] + ([(0, 0, 0)] if unit else [])
    distinct = set(monos)
    minimal = [m for m in distinct
               if not any(g != m and mono_divides(g, m) for g in distinct)]
    expected = tuple(sorted(minimal, key=revlex_key, reverse=True))
    assert MonomialIdeal.from_monomials(3, monos).gens == expected


# ---------------------------------------------------------------------------
# elementary moves and Borel fixedness

def test_move_swaps_into_previous_variable():
    assert elementary_move((0, 2, 0), 1) == (1, 1, 0)


def test_move_on_missing_variable_is_none():
    assert elementary_move((2, 0, 0), 2) is None


def test_move_twice():
    m = elementary_move((0, 2, 0), 1)
    assert elementary_move(m, 1) == (2, 0, 0)


def test_move_index_out_of_range():
    with pytest.raises(ValueError):
        elementary_move((1, 0, 0), 0)
    with pytest.raises(ValueError):
        elementary_move((1, 0, 0), 3)


def test_principal_x0_is_borel():
    ok, witness = is_borel_fixed(M(3, (1, 0, 0)))
    assert ok and witness is None


def test_principal_x1_is_not_borel():
    ok, witness = is_borel_fixed(M(3, (0, 1, 0)))
    assert not ok
    assert witness == ((0, 1, 0), 1)


def test_quadric_staircase_is_borel():
    ok, _ = is_borel_fixed(M(4, (2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)))
    assert ok


@given(st.lists(st.lists(st.integers(0, 4), min_size=4, max_size=4),
                min_size=1, max_size=4))
def test_borel_closure_is_borel_fixed(seeds):
    ideal = borel_closure(4, seeds)
    ok, _ = is_borel_fixed(ideal)
    assert ok


# ---------------------------------------------------------------------------
# Borel-fixedness in characteristic p

def fixed_by_transvections(M, p):
    """Whether every x_j -> x_j + x_i with i < j maps each generator into
    M over F_p.  With the diagonal matrices, which fix every monomial
    ideal, these generate the Borel group; the coefficient of each moved
    monomial is a binomial coefficient, nonzero for c = 1 exactly when it
    is for any nonzero c."""
    ring = PolyRing(M.nvars, p)
    for i, j in itertools.combinations(range(M.nvars), 2):
        matrix = [[int(a == b) for b in range(M.nvars)] for a in range(M.nvars)]
        matrix[j][i] = 1
        change = LinearChange(ring, tuple(map(tuple, matrix)))
        for g in M.gens:
            if not all(M.contains(m) for m, _ in
                       change.apply(ring.monomial(g)).terms):
                return False
    return True


def frobenius_power(M, q):
    return MonomialIdeal.from_monomials(
        M.nvars, (tuple(q * a for a in g) for g in M.gens))


SMALL_PRIMES = st.sampled_from([2, 3, 5])
EXPONENT_LISTS = st.lists(st.lists(st.integers(0, 5), min_size=3, max_size=3),
                          min_size=1, max_size=4)


@given(EXPONENT_LISTS, SMALL_PRIMES, st.integers(0, 2))
def test_p_borel_test_matches_the_transvections(seeds, p, frobenius):
    """On random ideals, and on Frobenius powers of strongly stable ones,
    which are p-Borel without being strongly stable."""
    stable = borel_closure(3, seeds)
    for ideal in (M(3, *map(tuple, seeds)),
                  frobenius_power(stable, p ** frobenius)):
        ok, witness = is_p_borel_fixed(ideal, p)
        assert ok == fixed_by_transvections(ideal, p)
        assert (witness is None) == ok


def test_p_borel_is_strong_stability_below_p():
    assert is_p_borel_fixed(M(2, (7, 0), (0, 7)), 11) == \
        (False, ((0, 7), 1))
    assert is_p_borel_fixed(M(2, (7, 0), (0, 7)), 7) == (True, None)


def test_p_borel_witness_is_the_move_that_leaves_the_ideal():
    # C(2, 1) = 2 vanishes mod 2, but x1^2 -> x0^2 is still required
    assert is_p_borel_fixed(M(2, (0, 2)), 2) == (False, ((0, 2), (2, 0)))


# ---------------------------------------------------------------------------
# colon, restriction, slices

def test_colon_by_unit():
    ideal = M(3, (2, 0, 0), (0, 3, 0))
    assert colon_by_monomial(ideal, (0, 0, 0)) == ideal


def test_colon_example():
    ideal = M(3, (2, 0, 0), (1, 2, 0), (0, 3, 0))
    assert colon_by_monomial(ideal, (0, 1, 0)) == \
        M(3, (2, 0, 0), (1, 1, 0), (0, 2, 0))


def test_colon_to_unit():
    assert colon_by_monomial(M(3, (1, 0, 0)), (1, 0, 0)).gens == ((0, 0, 0),)


def test_colon_refuses_a_negative_exponent():
    """(M : x2^-1) is no colon: u / gcd(u, m) would multiply by x2."""
    with pytest.raises(ValueError, match=r"negative exponent in \(0, 0, -1, 0\)"):
        colon_by_monomial(M(4, (1, 0, 0, 0)), (0, 0, -1, 0))


@given(st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4),
                min_size=1, max_size=3),
       st.lists(st.integers(0, 2), min_size=4, max_size=4))
def test_borel_closed_under_colon(seeds, colon):
    ideal = borel_closure(4, seeds)
    ok, _ = is_borel_fixed(colon_by_monomial(ideal, tuple(colon)))
    assert ok


@given(st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3),
                min_size=1, max_size=4),
       st.lists(st.integers(0, 4), min_size=3, max_size=3))
def test_colon_membership_agrees_with_bruteforce(gens, probe):
    """u in (M : m) iff u*m in M, checked on a random probe monomial."""
    from oracles import monomial_product as product
    ideal = M(3, *map(tuple, gens))
    m = (1, 2, 0)
    probe = tuple(probe)
    assert colon_by_monomial(ideal, m).contains(probe) == \
        ideal.contains(product(probe, m))


def test_restrict_last_saturated_unchanged():
    ideal = M(3, (2, 0, 0), (1, 1, 0))
    assert restrict_last(ideal) == M(2, (2, 0), (1, 1))


def test_restrict_last_kills_generators():
    assert restrict_last(M(3, (1, 0, 0), (0, 1, 1))) == M(2, (1, 0))


def test_restrict_last_unit():
    assert restrict_last(M(3, (0, 0, 0))).gens == ((0, 0),)


@settings(derandomize=True)
@given(st.integers(2, 5).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=6)))
def test_restrict_last_keeps_the_generators_minimal_and_sorted(gens):
    """Without ``minimalize``, the kept generators of a minimal set are
    the canonical generators of the restriction, in canonical order."""
    ideal = M(len(gens[0]), *gens)
    assert restrict_last(ideal) == MonomialIdeal.from_monomials(
        ideal.nvars - 1, (g[:-1] for g in ideal.gens if g[-1] == 0))


def test_slice_example():
    ideal = M(4, (2, 0, 0, 0), (1, 1, 0, 0), (0, 3, 0, 0), (0, 2, 1, 0))
    assert slice_level(ideal, 2, 1) == \
        M(3, (2, 0, 0), (1, 1, 0), (0, 2, 0))


def test_slice_level_zero_of_saturated():
    ideal = M(3, (2, 0, 0), (1, 1, 0), (0, 2, 0))
    assert slice_level(ideal, 2, 0) == M(2, (2, 0), (1, 1), (0, 2))


def test_slice_ignores_untouched_axis():
    ideal = M(4, (2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0))
    for level in range(3):
        assert slice_level(ideal, 2, level) == M(3, (2, 0, 0), (1, 1, 0), (0, 2, 0))


def test_slice_axis_range():
    with pytest.raises(ValueError):
        slice_level(M(3, (1, 0, 0)), 1, 0)


@given(st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4),
                min_size=1, max_size=3),
       st.integers(0, 4))
def test_slice_two_routes_agree(seeds, level):
    """Colon-then-restrict equals dropping the axis from the colon gens."""
    from oracles import monomial_product as product
    ideal = borel_closure(4, seeds)
    axis = 3
    sliced = slice_level(ideal, axis, level)
    power = tuple(level if i == axis else 0 for i in range(4))
    for m in itertools.product(range(4), repeat=3):
        lifted = m + (0,)
        expected = ideal.contains(product(lifted, power))
        assert sliced.contains(m) == expected


# ---------------------------------------------------------------------------
# gaps and truncation

def test_no_gap_single_degree():
    assert gap_degrees(M(3, (2, 0, 0), (1, 1, 0), (0, 2, 0))) == ()


def test_no_gap_consecutive_degrees():
    assert gap_degrees(M(3, (2, 0, 0), (1, 2, 0), (0, 3, 0))) == ()


def test_internal_gap():
    assert gap_degrees(M(2, (3, 0), (2, 1), (1, 2), (0, 5))) == (4,)


def test_truncate_below_min_is_zero():
    assert truncate_monomial(M(3, (2, 0, 0)), 1).is_zero()


def test_truncate_above_max_is_identity():
    ideal = M(3, (2, 0, 0), (0, 3, 0))
    assert truncate_monomial(ideal, 9) == ideal


def test_truncate_filters_by_degree():
    ideal = M(3, (2, 0, 0), (1, 2, 0), (0, 3, 0))
    assert truncate_monomial(ideal, 2) == M(3, (2, 0, 0))


# ---------------------------------------------------------------------------
# profiles

def test_profile_of_quadric_staircase():
    prof = invariant_table(
        M(4, (2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0))).profile((0,))
    assert prof == InvariantProfile(2, (2, 1))


def test_profile_five_points_staircase():
    prof = invariant_table(M(3, (2, 0, 0), (1, 2, 0), (0, 3, 0))).profile(())
    assert prof == InvariantProfile(2, (3, 2))


def test_unsaturated_input_rejected():
    with pytest.raises(UnsaturatedIdealError):
        invariant_table(M(3, (2, 0, 0), (1, 1, 0), (0, 1, 1), (0, 2, 0)))


@pytest.mark.parametrize("ideal,error,match", [
    (M(3, (2, 0, 0), (1, 1, 0), (0, 1, 1), (0, 2, 0)), UnsaturatedIdealError,
     "last variable"),
    (M(4, (0, 2, 0, 0), (1, 1, 0, 0)), ValueError, "not Borel-fixed"),
])
def test_invariant_table_rejects_unsaturated_and_non_borel_input(
        ideal, error, match):
    with pytest.raises(error, match=match):
        invariant_table(ideal)


def test_invariants_need_three_variables():
    with pytest.raises(ValueError, match="two-variable"):
        invariant_table(M(2, (2, 0), (0, 2)))


def test_two_variable_trace_refuses_a_short_or_negative_multi_index():
    ideal = M(4, (2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0))
    with pytest.raises(ValueError, match="cover x2..xn"):
        two_variable_trace(ideal, (0,))
    with pytest.raises(ValueError, match="non-negative"):
        two_variable_trace(ideal, (-1, 0))


def test_degenerate_profile_rejected():
    with pytest.raises(DegenerateProfileError):
        profile_from_two_vars(M(2, (1, 0)))
    with pytest.raises(DegenerateProfileError):
        profile_from_two_vars(MonomialIdeal(2, ()))


def test_two_variable_trace_keeps_supported_generators():
    ideal = M(4, (2, 0, 0, 0), (0, 3, 0, 0), (1, 0, 1, 0))
    assert two_variable_trace(ideal, (0, 0)) == M(2, (2, 0), (0, 3))
    assert two_variable_trace(ideal, (1, 0)) == M(2, (1, 0), (0, 3))


@given(st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4),
                min_size=1, max_size=4),
       st.lists(st.integers(0, 3), min_size=2, max_size=2))
def test_two_variable_trace_is_the_colon_met_with_two_variables(gens, p):
    """m lies in the trace at p exactly when m * x2^p2 x3^p3 lies in M."""
    from oracles import monomial_product as product
    ideal = M(4, *map(tuple, gens))
    trace = two_variable_trace(ideal, tuple(p))
    for m in itertools.product(range(5), repeat=2):
        assert trace.contains(m) == ideal.contains(product(m + (0, 0),
                                                           (0, 0) + tuple(p)))


def _colon_slice(ideal, axis, level):
    """The slice by way of the colon ideal: (M : x_axis^level), then x_axis
    set to zero."""
    power = tuple(level if i == axis else 0 for i in range(ideal.nvars))
    coloned = colon_by_monomial(ideal, power)
    return MonomialIdeal.from_monomials(
        ideal.nvars - 1, (g[:axis] + g[axis + 1:] for g in coloned.gens
                          if g[axis] == 0))


@given(st.lists(st.lists(st.integers(0, 3), min_size=5, max_size=5),
                min_size=1, max_size=4),
       st.lists(st.integers(0, 3), min_size=2, max_size=2))
def test_two_variable_trace_matches_the_chain_of_colon_slices(gens, levels):
    """Setting x4 to zero and then slicing x3 and x2 by colons, one axis at a
    time, gives the trace at (levels, 0)."""
    ideal = M(5, *map(tuple, gens))
    chained = restrict_last(ideal)
    for axis in (3, 2):
        chained = _colon_slice(chained, axis, levels[axis - 2])
    assert two_variable_trace(ideal, tuple(levels) + (0,)) == chained
    assert slice_level(ideal, 3, levels[1]) == _colon_slice(ideal, 3, levels[1])


profiles = st.integers(1, 5).flatmap(
    lambda s: st.lists(st.integers(1, 3), min_size=s, max_size=s).map(
        lambda jumps: InvariantProfile(
            s, tuple(itertools.accumulate(jumps[::-1]))[::-1])))


@given(profiles)
def test_profile_generator_roundtrip(prof):
    assert profile_from_two_vars(prof.generators()) == prof


def staircase_seeds(seeds):
    """Saturated seeds with weight on {x0, x1}: the codimension-two shape."""
    fixed = []
    for s in seeds:
        s = list(s[:3]) + [0]
        if s[0] + s[1] == 0:
            s[1] = 1
        fixed.append(s)
    return fixed


@given(st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4),
                min_size=1, max_size=3))
def test_computed_profiles_respect_borel_bound(seeds):
    """lambda_i >= lambda_{i+1} + 1 on every tabulated profile."""
    ideal = borel_closure(4, staircase_seeds(seeds) + [[0, 2, 0, 0]])
    table = invariant_table(ideal)
    for _, prof in table.entries:
        lam = prof.lambdas
        assert all(lam[i] >= lam[i + 1] + 1 for i in range(prof.s - 1))


@given(st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4),
                min_size=1, max_size=3))
def test_table_monotone_and_stabilized(seeds):
    ideal = borel_closure(4, staircase_seeds(seeds) + [[0, 3, 0, 0]])
    table = invariant_table(ideal)
    lookup = dict(table.entries)
    for p_hat, prof in table.entries:
        for q_hat, qrof in table.entries:
            if all(a <= b for a, b in zip(p_hat, q_hat)):
                assert prof.s >= qrof.s
    # the sentinel level equals the one below it on each axis
    for axis_pos, bound in enumerate(table.bounds):
        if bound == 0:
            continue
        for p_hat, prof in table.entries:
            if p_hat[axis_pos] == bound:
                below = list(p_hat)
                below[axis_pos] -= 1
                assert lookup[tuple(below)] == prof


@given(st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4),
                min_size=1, max_size=3),
       st.integers(0, 2), st.integers(1, 4))
def test_profile_ignores_last_exponent_on_saturated_input(seeds, level, pn):
    """With x3-free generators the colon never sees x3, so the profile at
    (p2, pn) matches the one at (p2, 0); this is what lets invariant_table
    pin the last exponent to zero."""
    ideal = borel_closure(4, staircase_seeds(seeds) + [[0, 2, 0, 0]])
    from gintools.staircase import profile_at
    assert profile_at(ideal, (level, pn)) == profile_at(ideal, (level, 0))


def test_s_at_zero_is_min_generator_degree():
    ideal = M(4, (2, 0, 0, 0), (1, 1, 0, 0), (0, 3, 0, 0))
    table = invariant_table(ideal)
    assert table.s_at_zero == 2 == min(map(sum, ideal.gens))


def test_constant_table_when_no_late_variables():
    table = invariant_table(M(4, (2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)))
    profs = {prof for _, prof in table.entries}
    assert profs == {InvariantProfile(2, (2, 1))}


# ---------------------------------------------------------------------------
# connectedness predicate

def test_connected_single_jump():
    assert is_connected(InvariantProfile(2, (2, 1))) == (True, None)


def test_connected_mixed_jumps():
    assert is_connected(InvariantProfile(3, (5, 3, 2))) == (True, None)


def test_disconnected_reports_first_violation():
    assert is_connected(InvariantProfile(2, (6, 3))) == (False, 0)


def test_synthetic_disconnected_staircase():
    prof = profile_from_two_vars(M(2, (3, 0), (2, 1), (1, 6), (0, 8)))
    assert prof == InvariantProfile(3, (8, 6, 1))
    ok, index = is_connected(prof)
    assert not ok and index == 1


def test_vacuously_connected_when_s_is_one():
    assert is_connected(InvariantProfile(1, (4,))) == (True, None)
