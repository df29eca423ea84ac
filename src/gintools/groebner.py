"""Groebner bases and ideal arithmetic for homogeneous ideals.

Buchberger with the normal selection strategy and Gebauer-Moeller pair
elimination.  Quotients and saturations are taken by linear forms only,
as the colons behind the monomial invariants are, and follow Bayer and
Stillman: a substitution psi of the last variable sends h to x_n, and in
grevlex with x_n last two facts hold for a homogeneous ideal J with
reduced basis G:

* in(J : x_n) = in(J) : x_n, so dividing x_n^p out of each element of G
  (as far as it divides) gives a basis of J : x_n^p;
* G|_{x_n=0} is a basis of J|_{x_n=0}.

One basis of psi(I) therefore gives every (I : h^p) and every section
(I : h^p)|_h; a form of higher degree is refused.  Intersections go
through the one-auxiliary-variable elimination construction: adjoin t,
form t*I + (1-t)*J, and eliminate t.  The order gives t weight 0: x-degree
first, then the power of t, then grevlex on x.  Every polynomial the
construction meets is homogeneous in x, and there the order picks the
same leads as the block order with t greatest, so the t-free elements of
a Groebner basis form one of I meet J (Cox, Little and O'Shea, Ideals,
Varieties, and Algorithms, ch. 3 sec. 3 and ch. 8 sec. 3).  The normal
strategy takes pairs by x-degree, which is their sugar degree (Giovini,
Mora, Niesi, Robbiano and Traverso, One sugar cube, please, ISSAC 1991),
and only the t-free elements are reduced.  That order lives here and
nowhere else.

Every comparison uses the ring's ascending sort key (see ``ring``), in
which the smallest key is the greatest monomial.  Division keeps its
pending terms in a dict of coefficients and a heap of (key, monomial)
entries, each key computed once when its monomial first appears (Monagan
and Pearce, Sparse polynomial division using a heap, J. Symbolic Comput.
46 (2011)); a term that cancels stays in the heap and is skipped when
popped.  Its divisors come as a table of (lead, inverse lead coefficient,
tail) rows.  Buchberger builds no intermediate polynomial: it keeps that
table with its basis, one row added as each monic element joins, and
writes each S-pair u*tail(f) - v*tail(g) straight into the division's
dict, where the leads would cancel.  It keys each pair's lcm once, when
the pair is made.

Hilbert series come from the numerator N(t) of HS(R/M) = N(t)/(1-t)^n
for a monomial ideal M, by the Bayer-Stillman recursion on a Bigatti
pivot; ``hilbert_function`` reads its values off N.  A Buchberger run
that knows the series of its ideal in advance (a gin sample after the
first, or a slice basis, whose coordinate change keeps the series) stops
as soon as the lead monomials reach it (Traverso, Hilbert functions and
the Buchberger algorithm, J. Symbolic Comput. 22 (1996)): pairs come in
increasing lcm degree, so at each degree boundary where the basis has
grown, HS(R/<lead G>) is compared with the target, and equality ends the
run.  This is exact: <lead G> lies in in(I), and equal Hilbert series
force equality, so G is already a Groebner basis.  The pairs left would
all reduce to zero.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import accumulate
from operator import add, le, sub

from .ring import (Poly, PolyRing, drop_last, last_image, mono_divides,
                   restrict, revlex_key, substitute_last)
from .staircase import GinUnstableError, MonomialIdeal, minimal_monomials


class Ideal:
    """Homogeneous ideal with a cached reduced Groebner basis."""

    def __init__(self, ring, gens):
        self.ring = ring
        cleaned = []
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
            if g.is_zero():
                continue
            if ring.graded and not g.is_homogeneous():
                raise ValueError(f"inhomogeneous generator: {g}")
            cleaned.append(g)
        self.gens = tuple(cleaned)
        self._gb = None

    def groebner_basis(self):
        if self._gb is None:
            self._gb = buchberger(self.gens, self.ring)
        return self._gb

    def is_zero(self):
        return not self.groebner_basis()

    def contains(self, f):
        return normal_form(f, self.groebner_basis()).is_zero()

    def same_ideal(self, other):
        if self.ring != other.ring:
            raise ValueError("ideals from different rings")
        return self.groebner_basis() == other.groebner_basis()

    def __repr__(self):
        inside = ", ".join(repr(g) for g in self.gens) or "0"
        return f"Ideal({inside})"


# ---------------------------------------------------------------------------
# division and Buchberger

def normal_form(f: Poly, basis) -> Poly:
    """Remainder of f under division by the polynomials in basis.

    Each term goes to the first divisor whose lead divides it.  No term of
    the result is divisible by any lead monomial of the basis; the
    difference f - result lies in the ideal the basis generates.  Terms are
    popped greatest first, so the remainder comes out in term order.
    """
    if f.is_zero() or not basis:
        return f
    ring = f.ring
    for g in basis:  # the division adds exponent tuples unchecked
        if g.ring.nvars != ring.nvars:
            raise ValueError("exponent vectors of different lengths: "
                             f"{ring.nvars} vs {g.ring.nvars}")
    return Poly(ring, _divide(dict(f.terms), [_reducer(g) for g in basis],
                              ring.sort_key, ring.prime))


def _reducer(g: Poly) -> tuple:
    """The row of g in a division's reducer table: lead, inverse of the
    lead coefficient, tail."""
    # Buchberger's basis elements are monic, and inverting 1 is not free
    lc = g.lead_coeff
    return g.lead_monomial, 1 if lc == 1 else g.ring.inv(lc), g.terms[1:]


def _divide(work, reducers, key, p) -> tuple:
    """The remainder, in term order, of the polynomial whose nonzero
    coefficients ``work`` holds, by the rows of ``reducers``.

    ``work`` is consumed.  ``key`` is the ring's ascending sort key.
    """
    get = work.get
    heap = [(key(m), m) for m in work]
    heapify(heap)
    out = []
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m)
        if not c:
            continue  # cancelled after it was pushed
        for lm, lc_inv, tail in reducers:
            if all(map(le, lm, m)):
                shift = tuple(map(sub, m, lm))
                factor = p - c * lc_inv % p
                for gm, gc in tail:
                    mm = tuple(map(add, gm, shift))
                    v = get(mm)
                    if v is None:
                        work[mm] = factor * gc % p
                        heappush(heap, (key(mm), mm))
                    else:
                        work[mm] = (v + factor * gc) % p
                break
        else:
            out.append((m, c))
    return tuple(out)


def _s_pair(f: Poly, g: Poly, p) -> dict:
    """The nonzero coefficients of the S-polynomial u*f - v*g of monic f
    and g, where u*lm(f) = v*lm(g) = lcm: u*tail(f) - v*tail(g).  The
    leads cancel and are never written."""
    lf, lg = f.lead_monomial, g.lead_monomial
    lcm = tuple(map(max, lf, lg))
    u = tuple(map(sub, lcm, lf))
    v = tuple(map(sub, lcm, lg))
    work = {tuple(map(add, m, u)): c for m, c in f.terms[1:]}
    get = work.get
    for m, c in g.terms[1:]:
        mm = tuple(map(add, m, v))
        w = get(mm)
        if w is None:
            work[mm] = p - c
        elif w == c:
            del work[mm]
        else:
            work[mm] = (w - c) % p
    return work


def spoly(f: Poly, g: Poly) -> Poly:
    """The S-polynomial of f and g, made monic first."""
    f._check_ring(g)
    f, g = f.monic(), g.monic()
    return f.ring.from_dict(_s_pair(f, g, f.ring.prime))


def _update(G, P, f, lead, reducers, pair_lcm):
    """Add the monic f to the basis, pruning pairs by the Gebauer-Moeller
    criteria.

    ``lead`` and ``reducers`` hold each element's lead and its row of the
    division's reducer table.  ``pair_lcm`` maps each pair in P to its
    lcm's sort key and the lcm; the entries of pruned pairs are removed
    here, and those of new pairs added.
    """
    lmf = f.lead_monomial
    kept = set()
    for ij in P:
        lij = pair_lcm[ij][1]
        if (not all(map(le, lmf, lij))
                or lij == tuple(map(max, lead[ij[0]], lmf))
                or lij == tuple(map(max, lead[ij[1]], lmf))):
            kept.add(ij)
        else:
            del pair_lcm[ij]
    new_index = len(G)
    by_lcm = {}
    for i in range(new_index):
        by_lcm.setdefault(tuple(map(max, lead[i], lmf)), []).append(i)
    keys = {lcm: f.ring.sort_key(lcm) for lcm in by_lcm}
    minimal = []
    for lcm in sorted(by_lcm, key=keys.__getitem__, reverse=True):
        if not any(all(map(le, seen, lcm)) for seen in minimal):
            minimal.append(lcm)
    for lcm in minimal:
        if not any(lcm == tuple(map(add, lead[i], lmf)) for i in by_lcm[lcm]):
            pair = (min(by_lcm[lcm]), new_index)
            pair_lcm[pair] = (keys[lcm], lcm)
            kept.add(pair)
    G.append(f)
    lead.append(lmf)
    reducers.append(_reducer(f))
    return kept


def buchberger(gens, ring) -> tuple:
    """The reduced Groebner basis of the given generators.

    The result is auto-reduced, monic, and sorted with the lowest-degree
    leads first.
    """
    return _reduce_basis(_groebner_basis(gens, ring), ring)


def _groebner_basis(gens, ring, target=None) -> list:
    """A monic Groebner basis of the given generators, not reduced.

    Pairs are processed in increasing order of their lcm (the normal
    strategy), which is the largest sort key.  ``target``, in a graded
    ring, is the numerator of the Hilbert series of the ideal, known in
    advance: the run stops at the first degree boundary where the lead
    monomials reach it (see the module docstring).  Pairs that run out
    before they do raise ``GinUnstableError``: the series was wrong, so a
    coordinate change or this kernel is.
    """
    G, lead, reducers, P, pair_lcm = [], [], [], set(), {}
    key, p = ring.sort_key, ring.prime
    for f in gens:
        if f.is_zero():
            continue
        # the division adds exponent tuples unchecked
        if f.ring.nvars != ring.nvars:
            raise ValueError("exponent vectors of different lengths: "
                             f"{f.ring.nvars} vs {ring.nvars}")
        r = _divide(dict(f.terms), reducers, key, p)
        if r:
            P = _update(G, P, Poly(ring, r).monic(), lead, reducers, pair_lcm)
    degree = checked = -1
    while P:
        pair = max(P, key=pair_lcm.__getitem__)
        if target is not None and (d := sum(pair_lcm[pair][1])) > degree:
            degree = d
            if len(G) > checked:
                checked = len(G)
                if _hilbert_numerator(lead, ring.nvars) == target:
                    return G
        P.discard(pair)
        del pair_lcm[pair]
        r = _divide(_s_pair(G[pair[0]], G[pair[1]], p), reducers, key, p)
        if r:
            P = _update(G, P, Poly(ring, r).monic(), lead, reducers, pair_lcm)
    if target is not None and _hilbert_numerator(lead, ring.nvars) != target:
        raise GinUnstableError(
            "the Groebner basis is complete but its Hilbert series is not "
            f"the one expected at p={ring.prime}: a coordinate change or the "
            "Groebner kernel is wrong")
    return G


def _reduce_basis(G, ring):
    minimal = []
    for g in sorted(G, key=lambda h: ring.sort_key(h.lead_monomial), reverse=True):
        if not any(mono_divides(h.lead_monomial, g.lead_monomial) for h in minimal):
            minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        reduced.append(normal_form(g, others).monic())
    reduced.sort(key=lambda h: revlex_key(h.lead_monomial), reverse=True)
    return tuple(reduced)


def initial_ideal(I: Ideal) -> MonomialIdeal:
    """Minimal monomial generators of the ideal of lead monomials."""
    return MonomialIdeal.from_monomials(
        I.ring.nvars, (g.lead_monomial for g in I.groebner_basis()))


# ---------------------------------------------------------------------------
# Hilbert functions

def default_dmax(M: MonomialIdeal) -> int:
    """Past max generator degree + nvars the function is polynomial here."""
    return M.max_degree() + M.nvars


def hilbert_function(M: MonomialIdeal, dmax=None) -> tuple:
    """Quotient dimensions dim (R/M)_d for 0 <= d <= dmax.

    Read off the numerator N(t) of the Hilbert series: dividing by
    (1 - t) is a running sum, done once per variable.
    """
    if dmax is None:
        dmax = default_dmax(M)
    if dmax < 0:
        raise ValueError("negative degree bound")
    if any(len(g) != M.nvars for g in M.gens):
        raise ValueError("generator has wrong number of variables")
    values = _hilbert_numerator(M.gens, M.nvars) + [0] * (dmax + 1)
    values = values[:dmax + 1]
    for _ in range(M.nvars):
        values = accumulate(values)
    return tuple(values)


def _hilbert_numerator(monos, nvars) -> list:
    """N(t), lowest degree first and without trailing zeros, where
    HS(R/M) = N(t) / (1 - t)^nvars for the ideal M the monomials generate.

    N is unique once nvars is fixed, so two ideals of one ring have the
    same Hilbert series exactly when their numerators are equal lists.
    """
    N = _numerator(minimal_monomials(monos), nvars)
    while N and not N[-1]:
        N.pop()
    return N


def _numerator(gens, nvars) -> list:
    """The numerator for minimal generators ``gens``.

    Bayer and Stillman's recursion on a pivot p = x_i^e,
    HS(R/M) = HS(R/(M + (p))) + t^e HS(R/(M : p)), with Bigatti's choice of
    pivot (J. Pure Appl. Algebra 119 (1997)): x_i occurs in the most
    generators, and e is the lower median of its exponents there.  A pure
    power of x_i among the generators is the unique largest exponent, so p
    is not in M and both branches are strictly larger ideals; the
    recursion therefore ends.  It stops at generators with pairwise
    disjoint supports, whose numerator is the product of the 1 - t^deg(g).
    Nothing is kept between calls.
    """
    counts = [0] * nvars
    for g in gens:
        for i, a in enumerate(g):
            if a:
                counts[i] += 1
    most = max(counts)
    if most <= 1:
        if gens and not most:
            return []  # the unit ideal
        N = [1]
        for g in gens:
            d = sum(g)
            N += [0] * d
            for k in range(len(N) - 1, d - 1, -1):
                N[k] -= N[k - d]
        return N
    i = counts.index(most)
    e = sorted(g[i] for g in gens if g[i])[(most - 1) // 2]
    pivot = (0,) * i + (e,) + (0,) * (nvars - i - 1)
    N = _numerator([g for g in gens if g[i] < e] + [pivot], nvars)
    colon = _numerator(minimal_monomials(
        g if g[i] == 0 else g[:i] + (max(g[i] - e, 0),) + g[i + 1:]
        for g in gens), nvars)
    N += [0] * (len(colon) + e - len(N))
    for k, c in enumerate(colon, e):
        N[k] += c
    return N


# ---------------------------------------------------------------------------
# intersection, quotient, saturation

def _elim_sort_key(m):
    """Ascending key of the elimination order, t the last exponent.

    x-degree first, then the power of t, then grevlex on x.  On a
    polynomial homogeneous in x all terms share one x-degree, so the power
    of t decides first, as in the block order with t greatest; the
    generators of t*I + (1-t)*J are such polynomials, and S-polynomials and
    reductions of them stay so.  Hence t is eliminated, though the order is
    not a block order.
    """
    return (-sum(m[:-1]), -m[-1], m[-2::-1])


def _elimination_ring(ring):
    return PolyRing(ring.nvars + 1, ring.prime, sort_key=_elim_sort_key)


def _lift(f, big, extra=0):
    return Poly(big, tuple((m + (extra,), c) for m, c in f.terms))


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I meet J via elimination of t from t*I + (1-t)*J.

    The ring must be graded: the elimination order eliminates t only on
    generators homogeneous in x.  The t-free elements of any Groebner basis
    in that order form a basis of the intersection, so only they are
    reduced.
    """
    if I.ring != J.ring:
        raise ValueError("ideals from different rings")
    ring = I.ring
    if not ring.graded:
        raise ValueError("intersection needs a graded ring: elimination "
                         "by x-degree first needs homogeneous generators")
    big = _elimination_ring(ring)
    gens = [_lift(f, big, extra=1) for f in I.gens]
    for g in J.gens:
        gens.append(_lift(g, big) - _lift(g, big, extra=1))
    # each kept element at t = 0: itself, written without t
    kept = [Poly(ring, tuple((m[:-1], c) for m, c in g.terms if not m[-1]))
            for g in _groebner_basis(gens, big) if g.lead_monomial[-1] == 0]
    reduced = _reduce_basis(kept, ring)
    result = Ideal(ring, reduced)
    result._gb = reduced  # elimination returns a basis of the intersection
    return result


def ideal_quotient(I: Ideal, f: Poly) -> Ideal:
    """(I : f) for a linear form f (see ``_linear_quotient``)."""
    return _linear_quotient(I, f, 1)


def quotient_by_power(I: Ideal, f: Poly, power: int) -> Ideal:
    """(I : f^power) for a linear form f; power 0 returns I itself."""
    if power < 0:
        raise ValueError("negative power")
    return _linear_quotient(I, f, power)


def saturate(I: Ideal, f: Poly) -> Ideal:
    """(I : f^infinity) for a linear form f."""
    return _linear_quotient(I, f, None)


class _SliceBasis:
    """The reduced basis of psi(I), for the change psi that sends h to x_n.

    psi substitutes x_n -> (x_n - sum_{i<n} h_i x_i) / h_n (see
    ``ring.last_image``), so h needs a nonzero coefficient on x_n, and the
    ring must be graded: both facts of the module docstring are facts of
    grevlex.  Every colon of I by a power of h, and every section of one by
    h, is read off this one basis.  ``target``, the numerator of I's
    Hilbert series when known, stops its Buchberger run early: psi keeps
    the series.
    """

    def __init__(self, I: Ideal, h: Poly, target=None):
        if not I.ring.graded:
            raise ValueError("a colon by a linear form needs a graded "
                             "ring: in(J : x_n) = in(J) : x_n is a fact of "
                             "grevlex")
        self.ring = I.ring
        self.h = h
        image = last_image(h)
        self.basis = _reduce_basis(_groebner_basis(
            [substitute_last(g, image) for g in I.gens], self.ring, target),
            self.ring)

    def colon(self, power) -> tuple:
        """The reduced basis of psi(I : h^power); ``None`` saturates."""
        if power == 0:
            return self.basis
        divided = []
        for g in self.basis:
            k = g.lead_monomial[-1]  # in grevlex x_n^k divides all of g
            if power is not None:
                k = min(k, power)
            divided.append(g if k == 0 else Poly(self.ring, tuple(
                (m[:-1] + (m[-1] - k,), c) for m, c in g.terms)))
        return _reduce_basis(divided, self.ring)

    def quotient(self, power) -> Ideal:
        """(I : h^power) in the original coordinates."""
        return Ideal(self.ring, [substitute_last(g, self.h)
                                 for g in self.colon(power)])

    def section(self, power) -> Ideal:
        """(I : h^power)|_h, in one fewer variable, with its reduced basis."""
        kept = tuple(r for r in (drop_last(g) for g in self.colon(power))
                     if not r.is_zero())
        result = Ideal(self.ring.restricted(), kept)
        result._gb = kept  # restricting a grevlex basis at x_n keeps it reduced
        return result


def _linear_quotient(I: Ideal, h: Poly, power) -> Ideal:
    """(I : h^power) for a linear form h; ``None`` saturates.

    A nonzero constant h gives I.  Any other h that is not a linear form,
    the zero polynomial among them, raises ``ValueError``.  A form without
    x_n first trades places with the last variable it involves, which keeps
    psi a substitution of x_n alone.
    """
    if h.degree == 0:
        return I
    if h.degree != 1 or not h.is_homogeneous():
        raise ValueError(f"quotients are by linear forms only, not by {h}")
    if power == 0:
        return I
    k = max(m.index(1) for m, _ in h.terms)
    if k == I.ring.nvars - 1:
        return _SliceBasis(I, h).quotient(power)
    swapped = Ideal(I.ring, [_swap_last(g, k) for g in I.gens])
    moved = _SliceBasis(swapped, _swap_last(h, k)).quotient(power)
    return Ideal(I.ring, [_swap_last(g, k) for g in moved.gens])


def _swap_last(f: Poly, k: int) -> Poly:
    """f with the variables x_k and x_n exchanged."""
    def swap(m):
        return m[:k] + (m[-1],) + m[k + 1:-1] + (m[k],)
    return f.ring.from_dict({swap(m): c for m, c in f.terms})


def restrict_ideal(I: Ideal, h: Poly) -> Ideal:
    """The ideal generated by the restrictions of I's generators modulo h.

    No saturation is applied; the result can be strictly smaller than the
    full ideal of the hyperplane section.
    """
    restricted = [restrict(g, h) for g in I.gens]
    return Ideal(I.ring.restricted(), [g for g in restricted if not g.is_zero()])


def truncate(I: Ideal, delta: int) -> Ideal:
    """The ideal generated by the elements of I of degree <= delta.

    Generated by the reduced-basis elements up to the cutoff: homogeneous
    reduction never raises degree, so those span every graded piece up to
    it.
    """
    if delta < 0:
        raise ValueError("negative truncation degree")
    return Ideal(I.ring, [g for g in I.groebner_basis() if g.degree <= delta])
