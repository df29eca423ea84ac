"""Generic initial ideals by depth and by sampling, with verification.

``gin`` first cuts I by a chain of hyperplanes, each certified regular on
the level above.  The coordinate hyperplane x_last = 0 is tried first: in
grevlex it is regular exactly when no generator of the level's lead ideal
involves x_last, and then the section's lead ideal is that ideal with the
slot dropped, so the section is read off I's own basis without a
Buchberger run.  Only where x_last is a zero divisor is a random form
drawn, and certified by the Hilbert series of I.  A chain down to
K[x0, x1] proves depth(R/I) >= n - 1, and in revlex depth(R/gin(I)) =
depth(R/I) (Bayer and Stillman), so the gin is generated in K[x0, x1],
where a strongly stable ideal is fixed by its Hilbert function: a
codimension-2 arithmetically Cohen-Macaulay ideal needs no coordinate
change at all.  Otherwise I itself is sampled, not a certified section,
since gin(I)|_{x_n=0} = gin(I|_H) (Green) needs a generic H.  The samples
are random changes
x_i -> x_i + sum_{j<i} c_ij x_j of the unipotent group, which meets the
open set of changes that give the gin (``LinearChange.random``).  For
every invertible coordinate change g, in(gI) lies at or below gin(I) in
each degree (Bayer and Stillman), so the gin is the largest sample: equal
Borel-fixed samples are returned at once, anything else escalates the
sample count and keeps the sample that is greatest in every degree, which
must be Borel-fixed in the characteristic of the field.  Every sample has
the Hilbert series of I, so its Buchberger run stops once its lead
monomials reach it.  On top of that sit the harnesses that check the
slicing identity, gap truncation, the connectedness of invariant tables,
and the quotient-restriction trace, which reproduces the computable steps
behind the connectedness statement and reads its gin, its special draws
and its gcd degree off Hilbert series in K[x0, x1].  The harnesses sample
the gins they compare with gin(I), so they do not rest on the chain.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .ring import (LinearChange, drop_last, mono_degree,
                   monomials_of_degree)
# intersect is unused here: bench/tests/test_tracer.py asserts its binding
from .groebner import (Ideal, _SliceBasis, initial_ideal, intersect,
                       restrict_ideal, truncate)
from .staircase import (ComputationError, GinUnstableError, InvariantTable,
                        MonomialIdeal, _series_values, gap_degrees,
                        hilbert_function, invariant_table, is_borel_fixed,
                        is_connected, is_p_borel_fixed, restrict_last,
                        truncate_monomial, two_variable_trace,
                        UnsaturatedIdealError)


class DegenerateTraceError(ComputationError):
    pass


def child_rng(seed, *labels) -> random.Random:
    """Deterministic stream derived from the master seed by labeled splitting."""
    tag = "/".join(str(l) for l in labels)
    digest = hashlib.sha256(f"{seed}/{tag}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# ---------------------------------------------------------------------------
# the gin by depth, and as the largest sample

@dataclass(frozen=True)
class GinResult:
    gin: MonomialIdeal
    samples_used: int
    agreed: bool


_MAX_SAMPLES = 5


def _degree_part(M: MonomialIdeal, d, sort_key):
    """Sort keys of the degree-d monomials of M, greatest monomial first."""
    return sorted(sort_key(m) for m in monomials_of_degree(M.nvars, d)
                  if M.contains(m))


def _largest_sample(samples, ring) -> MonomialIdeal:
    """The sample that is greatest in every degree up to the top generator
    degree among the samples.

    Degree-d parts compare as lists of monomials sorted greatest first by
    the ring's order: the first place where they differ decides.  Every
    in(gI) is at most gin(I) in each degree, so a draw of the gin is kept.
    Raises ``GinUnstableError`` when no sample is greatest in every degree.
    """
    top = max(M.max_degree() for M in samples)
    parts = {M: [_degree_part(M, d, ring.sort_key) for d in range(top + 1)]
             for M in samples}
    for M, mine in parts.items():
        if all(a <= b for theirs in parts.values()
               for a, b in zip(mine, theirs)):
            return M
    raise GinUnstableError(f"no sample is greatest in every degree among "
                           f"{len(samples)} samples at p={ring.prime}")


def gin(I: Ideal, seed=0, votes=2) -> GinResult:
    """The generic initial ideal of I, read off a chain of certified
    hyperplane sections when the chain reaches K[x0, x1], and sampled
    otherwise.

    L, the lead ideal of the chain's first level, is the one I keeps
    (``Ideal.lead_ideal``), and N, the numerator of the Hilbert series of
    I, is the one L keeps.  Level k + 1 of the chain is level k, J,
    restricted by a linear form, and the coordinate hyperplane x_last = 0
    is tried first.  Two facts of grevlex (Bayer and Stillman, see
    ``groebner``) make it free: in(J : x_last) = in(J) : x_last, so x_last
    is a nonzerodivisor on R/J exactly when no minimal generator of
    L = in(J) involves x_last; and a basis of J restricted to x_last = 0 is
    a basis of the section, so its lead ideal is then L with the x_last
    slot dropped (``restrict_last``).  Such a level updates L alone: J's
    generators are restricted only when a later level draws a form.  The
    depth argument below needs some regular sequence, not a generic one.

    Where a generator of L involves x_last, J is restricted by a random
    form h (``restrict_ideal``, the form drawn from
    ``child_rng(seed, "gin-chain", k)``, so a coordinate level shifts no
    other level's draw).  The series of a section is at least
    N / (1 - t)^(n - k) in every degree, with equality exactly when h is a
    nonzerodivisor on J; the section is built as an ``Ideal`` with N as
    its target, so reaching N certifies the level, and L becomes that
    Ideal's lead ideal.  A run that ends short of N raises
    ``GinUnstableError``, and the chain stops at the level above: an
    unsaturated I stops at level 0.

    A chain down to K[x0, x1] proves depth(R/I) >= n - 1.  In revlex
    depth(R/gin(I)) = depth(R/I) (Bayer and Stillman, Invent. Math. 87
    (1987)), so no generator of gin(I) involves x2, ..., xn, and gin(I) in
    K[x0, x1] has the series N / (1 - t)^2 of the last level.  With p above
    the bound on the gin's generator degrees (the greatest x0- plus the
    greatest x1-exponent of that level's lead ideal, see ``run_trace``),
    the gin is strongly stable, since a p-Borel-fixed ideal generated below
    degree p is, and so fixed by that Hilbert function
    (``_stable_ideal_with_hilbert``): no sample is drawn.

    Otherwise I itself is sampled (``_sampled_gin``), every sample stopping
    at N.  A section is not sampled in place of I: gin(I)|_{x_n=0} =
    gin(I|_H) needs a generic hyperplane H (M. Green, Generic initial
    ideals, in Six Lectures on Commutative Algebra, 1998), and the
    certificate proves a form regular, not generic: a section by a special
    regular form, such as a coordinate hyperplane, has the right Hilbert
    series, but its gin is only known to follow from that series in
    K[x0, x1].

    ``samples_used`` counts the coordinate changes drawn, 0 for a gin read
    off the Hilbert function; ``agreed`` is true when no two samples
    differed.  ``votes`` must be at least 2 even when no sample is drawn.
    """
    if votes < 2:
        raise ValueError("need at least two votes")
    # not initial_ideal(I): the benchmark's tracer counts each of its calls
    # under gin() as a drawn sample
    L = I.lead_ideal()
    target = L.numerator
    J = I  # the last level whose generators are written out
    while L.nvars > 2:
        if all(g[-1] == 0 for g in L.gens):  # x_last is regular on R/J
            L = restrict_last(L)
            continue
        while J.ring.nvars > L.nvars:  # the coordinate levels since J
            J = Ideal(J.ring.restricted(), [drop_last(g) for g in J.gens])
        depth = I.ring.nvars - L.nvars
        form = J.ring.general_linear_form(child_rng(seed, "gin-chain", depth))
        section = restrict_ideal(J, form)
        try:
            L = Ideal(section.ring, section.gens, target).lead_ideal()
        except GinUnstableError:
            break  # the form is a zero divisor on R/J
        J = section
    if L.nvars == 2:
        bound = L.max_exponent(0) + L.max_exponent(1)
        if I.ring.prime > bound:
            pad = (0,) * (I.ring.nvars - 2)
            # every level keeps I's numerator, so L's is not computed
            M = _stable_ideal_with_hilbert(_series_values(target, 2, bound))
            # zeros appended keep the generators minimal and in order
            return GinResult(MonomialIdeal(
                I.ring.nvars, tuple(g + pad for g in M.gens)), 0, True)
    return _sampled_gin(I, seed, votes)


def _sampled_gin(I: Ideal, seed=0, votes=2) -> GinResult:
    """The gin of I as the largest of its sampled initial ideals.

    ``votes`` independent coordinate changes are drawn from the unipotent
    group x_i -> x_i + sum_{j<i} c_ij x_j (``LinearChange.random``: it
    meets the open set of changes that give the gin); if their initial
    ideals are equal and Borel-fixed in characteristic p
    (``is_p_borel_fixed``), that ideal is returned with ``agreed=True``.
    Otherwise the sample count escalates to ``_MAX_SAMPLES`` and the sample
    greatest in every degree is kept (``_largest_sample``); it is returned
    with ``agreed=False`` if it is Borel-fixed, and ``GinUnstableError`` is
    raised if it is not.

    Every sample has the Hilbert series of I, the one I's lead ideal keeps
    (already computed once ``gin`` has run on I), and is an ``Ideal`` with
    that series as its target: its Buchberger run stops as soon as its
    lead monomials reach it, and a run that ends short of the series
    raises ``GinUnstableError``.  No sample's basis is reduced.
    The harnesses call this path directly, so the gins they compare with
    gin(I) are independent of the section chain.
    """
    if votes < 2:
        raise ValueError("need at least two votes")

    target = I.lead_ideal().numerator

    def sample(k):
        change = LinearChange.random(I.ring, child_rng(seed, "gin-sample", k))
        return initial_ideal(Ideal(I.ring, [change.apply(g) for g in I.gens],
                                   target))

    results = [sample(k) for k in range(votes)]
    prime = I.ring.prime
    if (all(r == results[0] for r in results[1:])
            and is_p_borel_fixed(results[0], prime)[0]):
        return GinResult(results[0], votes, True)
    while len(results) < max(votes, _MAX_SAMPLES):
        results.append(sample(len(results)))
    kept = _largest_sample(results, I.ring)
    ok, witness = is_p_borel_fixed(kept, prime)
    if not ok:
        raise GinUnstableError(
            f"the largest of {len(results)} samples is not Borel-fixed "
            f"(witness {witness}) at p={prime}")
    return GinResult(kept, len(results), False)


def _stable_gin(I: Ideal, seed, votes, gin_result) -> GinResult:
    """gin(I), or the ``gin_result`` given for I, if it is strongly stable.

    The staircase checks rest on strong stability, which a gin in
    characteristic p has only up to the p-Borel moves; one that lacks it
    is refused with a ``ComputationError`` that names the prime.
    """
    result = gin_result or gin(I, seed=seed, votes=votes)
    ok, witness = is_borel_fixed(result.gin)
    if not ok:
        p = I.ring.prime
        raise ComputationError(
            f"the gin is {p}-Borel-fixed but not strongly stable (witness "
            f"{witness}) at p={p}; the staircase checks need a strongly "
            "stable gin, so use a larger prime")
    return result


def is_saturated_gin(M: MonomialIdeal) -> bool:
    """Saturation is visible on a gin: no generator touches x_n."""
    return all(g[-1] == 0 for g in M.gens)


# ---------------------------------------------------------------------------
# variety invariants and connectedness

@dataclass(frozen=True)
class VarietyInvariants:
    gin_result: GinResult
    table: InvariantTable
    s_Z: int
    s_Gamma: int


def variety_invariants(I: Ideal, seed=0, votes=2,
                       gin_result=None) -> VarietyInvariants:
    """Gin, full invariant table, and the two minimal-degree readings.

    s_Z is the profile s at the zero multi-index; s_Gamma is read from the
    stabilized entry, which matches the generic 2-plane section.  A
    ``gin_result`` already computed for I is used as it is.  A gin that is
    not strongly stable is refused (``_stable_gin``).
    """
    result = _stable_gin(I, seed, votes, gin_result)
    if not is_saturated_gin(result.gin):
        raise UnsaturatedIdealError(
            "gin has a generator containing the last variable; saturate first")
    table = invariant_table(result.gin)
    return VarietyInvariants(result, table, table.s_at_zero,
                             table.stable_profile.s)


@dataclass(frozen=True)
class ConnectednessReport:
    s_Z: int
    s_Gamma: int
    hypothesis: bool     # s_Z == s_Gamma
    violations: tuple    # (p_hat, index) pairs
    low_levels_ok: bool  # no entry's first violation is at index 0 or 1

    @property
    def all_connected(self):
        return not self.violations

    def to_json(self):
        return {
            "s_Z": self.s_Z,
            "s_Gamma": self.s_Gamma,
            "hypothesis": self.hypothesis,
            "connected": self.all_connected,
            "low_levels_connected": self.low_levels_ok,
            "violations": [{"p_hat": list(p), "index": i}
                           for p, i in self.violations],
        }


def connectedness_from_table(table: InvariantTable) -> ConnectednessReport:
    checked = ((p_hat, *is_connected(prof)) for p_hat, prof in table.entries)
    violations = tuple((p_hat, index) for p_hat, ok, index in checked if not ok)
    low_ok = all(index > 1 for _, index in violations)
    s_z, s_gamma = table.s_at_zero, table.stable_profile.s
    return ConnectednessReport(s_z, s_gamma, s_z == s_gamma,
                               violations, low_ok)


def check_connectedness(I: Ideal, seed=0, votes=2) -> ConnectednessReport:
    """Connectedness verdict for every profile in the invariant table.

    The adjacent pairs at indices 0 and 1 are reported separately: those
    rows are expected to be connected even when the s_Z == s_Gamma
    hypothesis fails.
    """
    inv = variety_invariants(I, seed=seed, votes=votes)
    return connectedness_from_table(inv.table)


# ---------------------------------------------------------------------------
# slicing identity

@dataclass(frozen=True)
class SliceCase:
    form_index: int
    level: int
    equal: bool
    lhs: MonomialIdeal
    rhs: MonomialIdeal


@dataclass(frozen=True)
class SliceIdentityReport:
    cases: tuple
    passed: bool


def verify_slice_identity(I: Ideal, p_max=3, forms=3, seed=0, votes=2,
                          gin_result=None) -> SliceIdentityReport:
    """Compare gin((I : h^p)|_h) against (gin(I) : x_n^p)|_{x_n}.

    The left side runs the analytic pipeline (ideal quotient, restriction,
    then a fresh gin), every level read off one Groebner basis per form,
    whose run stops at I's Hilbert series once I holds its lead ideal, as
    it does after gin(I) (see ``_SliceBasis``); the right side is read off
    the generators of gin(I), as every slice is: those g with g_n <= p,
    that slot dropped.  Random general forms h are drawn per trial.  Levels whose sections have the
    same reduced basis share one gin; for a saturated I that is every level
    of a form.  A check with no cases would pass vacuously, so ``p_max``
    must be non-negative and ``forms`` positive.
    """
    if p_max < 0:
        raise ValueError("p_max must be non-negative")
    if forms < 1:
        raise ValueError("need at least one form")
    n = I.ring.nvars - 1
    M = _stable_gin(I, seed, votes, gin_result).gin
    section_gins = {}
    cases = []
    for trial in range(forms):
        rng = child_rng(seed, "slice-form", trial)
        slices = _SliceBasis(I, I.ring.general_linear_form(rng))
        for p in range(p_max + 1):
            section = slices.section(p)
            key = tuple(g.packed for g in section.groebner_basis())
            if key not in section_gins:
                section_gins[key] = _sampled_gin(section, seed, votes).gin
            lhs = section_gins[key]
            rhs = MonomialIdeal.from_monomials(
                n, (g[:-1] for g in M.gens if g[-1] <= p))
            cases.append(SliceCase(trial, p, lhs == rhs, lhs, rhs))
    return SliceIdentityReport(tuple(cases), all(c.equal for c in cases))


# ---------------------------------------------------------------------------
# gap truncation

@dataclass(frozen=True)
class GapTruncationReport:
    gaps: tuple
    cases: tuple   # (delta, equal, lhs, rhs)
    vacuous: bool
    passed: bool


def verify_gap_truncation(I: Ideal, seed=0, votes=2,
                          gin_result=None) -> GapTruncationReport:
    """At every internal gap degree, gin of the truncation must equal the
    truncated gin.

    Gaps whose truncations keep the same generators share one gin.
    """
    M = _stable_gin(I, seed, votes, gin_result).gin
    gaps = gap_degrees(M)
    truncation_gins = {}
    cases = []
    for delta in gaps:
        truncated = truncate(I, delta)
        key = tuple(g.packed for g in truncated.gens)
        if key not in truncation_gins:
            truncation_gins[key] = _sampled_gin(truncated, seed, votes).gin
        lhs = truncation_gins[key]
        rhs = truncate_monomial(M, delta)
        cases.append((delta, lhs == rhs, lhs, rhs))
    return GapTruncationReport(gaps, tuple(cases), not gaps,
                               all(c[1] for c in cases))


# ---------------------------------------------------------------------------
# the degree of a gcd in two variables

def _gcd_degree(J: Ideal) -> int:
    """The degree of the gcd g of the generators of the nonzero ideal J of
    K[x0, x1].

    The generators divided by g have no common factor, so they generate an
    ideal primary to (x0, x1), and J saturates to (g): dim (R/J)_d = deg g
    for large d.  With HS(R/J) = N(t) / (1 - t)^2 that multiplicity is
    -N'(1), read off the lead ideal J keeps.
    """
    N = J.lead_ideal().numerator
    return -sum(k * c for k, c in enumerate(N))


# ---------------------------------------------------------------------------
# quotient-restriction trace

@dataclass(frozen=True)
class TraceResult:
    levels: tuple                 # colon exponents, one per axis x2..x_{n-1}
    slice_gin: MonomialIdeal      # combinatorial side, in K[x0, x1]
    analytic_gin: MonomialIdeal   # gin of the iterated quotient-restriction
    step1_ok: bool                # the two sides agree
    delta: int
    delta_is_internal_gap: bool
    gcd_degree: int               # of the <=delta generators: their multiplicity
    expected_gcd_degree: int      # min x0-exponent among <=delta generators
    step2_ok: bool
    specialization_degrees: tuple
    consistent: bool              # generic draws found, all with the same degree

    @property
    def passed(self):
        return self.step1_ok and self.step2_ok and self.consistent

    def to_json(self):
        return {
            "levels": list(self.levels),
            "delta": self.delta,
            "delta_is_internal_gap": self.delta_is_internal_gap,
            "gcd_degree": self.gcd_degree,
            "expected_gcd_degree": self.expected_gcd_degree,
            "step1": self.step1_ok,
            "step2": self.step2_ok,
            "consistent": self.consistent,
            "passed": self.passed,
        }


def _iterated_restriction(I: Ideal, levels, seed, label):
    """((I|_h : l^levels[-1])|_l : ...)|_..., down to K[x0, x1]."""
    rng = child_rng(seed, "trace-form", label)
    current = restrict_ideal(I, I.ring.general_linear_form(rng))
    for step, level in enumerate(reversed(levels)):
        rng = child_rng(seed, "trace-form", label, step)
        form = current.ring.general_linear_form(rng)
        if level > 0:
            current = _SliceBasis(current, form).section(level)
        else:
            current = restrict_ideal(current, form)
    return current


_TRACE_SPECIALIZATIONS = 3
_MAX_TRACE_DRAWS = 9


def _stable_ideal_with_hilbert(values) -> MonomialIdeal:
    """The strongly stable ideal of K[x0, x1] with these Hilbert values.

    In two variables such an ideal is fixed by its Hilbert function: its
    degree-d part is the top d + 1 - h(d) monomials x0^(d-i) x1^i.  Only
    generators up to the last degree given are found.
    """
    return MonomialIdeal.from_monomials(2, (
        (d - i, i) for d, h in enumerate(values) for i in range(d + 1 - h)))


def run_trace(I: Ideal, levels, seed=0, votes=2,
              gin_result=None) -> TraceResult:
    """Reproduce the computable steps of the connectedness argument.

    The ideal is restricted once per ambient axis above x1, with a colon
    at the requested level before each restriction after the first; the
    result lives in K[x0, x1].  Its gin must equal the same slice of
    gin(I), ``two_variable_trace`` at the levels and 0 on x_n (step 1).
    The gcd of its generators up to the chosen gap degree must have degree
    equal to the least x0-exponent on the staircase there (step 2); that
    degree is the multiplicity of the ideal the generators span, read off
    its Hilbert numerator (``_gcd_degree``).  A truncation that keeps every
    generator is the draw itself, whose lead ideal has computed its
    numerator for the Hilbert function already: its gcd runs no engine.

    The forms are drawn ``_TRACE_SPECIALIZATIONS`` times.  Dimensions of
    restrictions are upper semicontinuous in the forms, so a draw whose
    Hilbert function exceeds the pointwise minimum over the draws is
    special; it is dropped and redrawn under the next label, up to
    ``_MAX_TRACE_DRAWS`` draws in all.  The functions are compared up to
    the largest sum, over the draws, of the greatest x0- and x1-exponents
    among the generators of the draw's initial ideal: past it, the Hilbert
    function of a monomial ideal of K[x0, x1] is constant.  Step 1 runs on
    the first draw at the minimum, and the gcd degree must not vary over the
    draws; a special draw left when the bound runs out makes the trace
    inconsistent.

    The gin of that draw needs no coordinate changes: it is strongly stable
    in K[x0, x1], so its Hilbert function, already computed up to the
    bound, fixes it.  No generator lies past the bound: the gin's
    generators lie at or below the regularity of the draw, which is at most
    that of its initial ideal, and a monomial ideal of K[x0, x1] has
    regularity at most its greatest x0- plus greatest x1-exponent.
    """
    n = I.ring.nvars - 1
    if n < 3:
        raise ValueError("trace needs ambient projective dimension >= 3")
    levels = tuple(levels)
    if len(levels) != n - 2:
        raise ValueError(f"need one level per axis x2..x{n - 1}")
    if any(l < 0 for l in levels):
        raise ValueError("levels must be non-negative")

    M = _stable_gin(I, seed, votes, gin_result).gin
    combinatorial = two_variable_trace(M, levels + (0,))

    draws = [_iterated_restriction(I, levels, seed, k)
             for k in range(_TRACE_SPECIALIZATIONS)]
    label = _TRACE_SPECIALIZATIONS
    while True:
        leads = [initial_ideal(D) for D in draws]
        bound = max(L.max_exponent(0) + L.max_exponent(1) for L in leads)
        hilberts = [hilbert_function(L, bound) for L in leads]
        floor = tuple(min(values) for values in zip(*hilberts))
        generic = [D for D, h in zip(draws, hilberts) if h == floor]
        special = len(draws) - len(generic)
        if not special or label + special > _MAX_TRACE_DRAWS:
            break
        draws = generic + [_iterated_restriction(I, levels, seed, label + k)
                           for k in range(special)]
        label += special
    first = hilberts.index(floor) if floor in hilberts else 0
    J = draws[first]
    if J.is_zero():
        raise DegenerateTraceError("iterated restriction collapsed to zero")
    analytic = _stable_ideal_with_hilbert(hilberts[first])
    step1_ok = analytic == combinatorial

    internal = gap_degrees(analytic)
    if internal:
        delta = max(internal)
        is_gap = True
    else:
        delta = analytic.max_degree() + 1
        is_gap = False

    def gcd_degree_of(D):
        truncated = truncate(D, delta)
        if truncated.is_zero():
            raise DegenerateTraceError("no generators up to the gap degree")
        return _gcd_degree(truncated)

    degrees = [gcd_degree_of(D) for D in draws]
    consistent = not special and all(d == degrees[0] for d in degrees)

    eligible = [g for g in analytic.gens if mono_degree(g) <= delta]
    expected = min(g[0] for g in eligible) if eligible else 0
    step2_ok = degrees[first] == expected

    return TraceResult(levels, combinatorial, analytic, step1_ok, delta,
                       is_gap, degrees[first], expected, step2_ok,
                       tuple(degrees), consistent)
