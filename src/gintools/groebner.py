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
(I : h^p)|_h, ``ideal_quotient`` and ``saturate`` among them.
``ring.last_image``, which builds psi, is the one check on h: it takes a
linear form with a nonzero x_n coefficient, as
``PolyRing.general_linear_form`` draws, and refuses anything else.

Intersections go through the one-auxiliary-variable elimination
construction: adjoin t, form t*A + (1-t)*B, and eliminate t.  The order
gives t weight 0: x-degree first, then the power of t, then grevlex on x.
Every polynomial the construction meets is homogeneous in x, and there
the order picks the same leads as the block order with t greatest, so the
t-free elements of a Groebner basis form one of A meet B (Cox, Little and
O'Shea, Ideals, Varieties, and Algorithms, ch. 3 sec. 3 and ch. 8 sec. 3).
Such an element has no t in any term, since its t-free lead is its
greatest power of t.  The normal strategy takes pairs by x-degree, which is their
sugar degree (Giovini, Mora, Niesi, Robbiano and Traverso, One sugar
cube, please, ISSAC 1991), and only the t-free elements are reduced.
That order lives here and nowhere else.  Either ideal may carry t, and
A, the one whose generators have the lower top degree, does: the t-parts
a run carries live in R/A (see ``intersect``).

When the rows t*a enter the run as t times a Groebner basis of A
(generators whose leads are pairwise coprime, as for a point or a linear
space in echelon form), the run forms no pair of two rows, nor of a row
and an element h with a t-free lead.  Such an h has no t, so it lies in
(t*A + (1-t)*B) meet K[x] = A meet B, inside A.  The S-polynomial of t*a
with h, or with t*a', is then t*S for S = S(a, h) or S(a, a') in A.  As
the a form a Groebner basis of A, S = sum q_k*a_k with every
lm(q_k*a_k) <= lm(S), so t*S = sum q_k*(t*a_k) has every term below the
pair's lcm, and the pair may be dropped: that is Buchberger's
criterion in its lcm-representation form (Cox, Little and O'Shea, ch. 2
sec. 9), and it sits with the Gebauer-Moeller pruning (Gebauer and
Moeller, J. Symbolic Comput. 6 (1988)).  The pair would have reduced to
zero by the rows, which come first in the division's table, so the run
adds what it adds without the rule.  The rows are divided by the rows
before them as they join, which keeps them a Groebner basis of t*A: a
lead that an earlier row divides was in the ideal of the earlier leads.

The kernel works on packed monomials (see ``ring``): one int per
monomial is its exponents and its sort key, the smallest key the greatest
monomial, and a product is a sum of keys.  Division keeps its pending
terms in a dict of coefficients keyed by packed monomials and a heap of
the same ints (Monagan and Pearce, Sparse polynomial division using a
heap, J. Symbolic Comput. 46 (2011), who pack exponent vectors into words
the same way); a term that cancels stays in the heap and is skipped when
popped.  A lead divides a term when the guard bits of their difference
say so.  Its divisors come as a table of (lead, inverse lead coefficient,
tail) rows.  Every polynomial the kernel meets has its lead at its
greatest total degree: a form of a graded ring has one degree, and in
the elimination ring each polynomial is homogeneous in x, so its lead is
the term with the most t.  No reduction therefore writes a term of
higher degree than the one it removes, and only an S-pair's lcm can
cross the degree bound.  Buchberger builds no intermediate polynomial:
it keeps that table with its basis, one row added as each monic element
joins, and writes each S-pair u*tail(f) - v*tail(g) straight into the
division's dict, where the leads would cancel.  Each pair's packed lcm
is formed once, when the pair is made; it orders the pairs, and u and v
are the lcm minus each lead.  A pair whose lcm reaches the degree bound
raises ``ValueError``.  Reducing a basis builds the table once, and each element
divides by it without its own row.  Polynomials are read out as exponent
tuples only at the edges: lead monomials for Hilbert series and initial
ideals.

Hilbert series come from the numerator N(t) of HS(R/M) = N(t)/(1-t)^n
for a monomial ideal M, by the Bayer-Stillman recursion on a Bigatti
pivot; ``hilbert_function`` reads its values off N.  A Buchberger run
that knows the series of its ideal in advance (a gin sample, or a slice
basis, whose coordinate change keeps the series) stops
as soon as the lead monomials reach it (Traverso, Hilbert functions and
the Buchberger algorithm, J. Symbolic Comput. 22 (1996)): pairs come in
increasing lcm degree, so at each degree boundary where the basis has
grown, HS(R/<lead G>) is compared with the target, and equality ends the
run.  This is exact: <lead G> lies in in(I), and equal Hilbert series
force equality, so G is already a Groebner basis.  The pairs left would
all reduce to zero.

A run with no such target still has a floor when its generators are
r <= nvars forms of degrees d_i: HS(R/I) >= prod (1 - t^d_i) / (1-t)^nvars
in every degree, with equality exactly for a regular sequence (Froberg,
An inequality for Hilbert series of graded algebras, Math. Scand. 56
(1985)).  dim I_d is at most its value for generic forms, by
semicontinuity, and generic forms with r <= nvars are regular.  As
HS(R/<lead G>) >= HS(R/I), leads whose numerator meets the floor's are
in(I), and ``_groebner_basis`` takes the floor itself whenever it is given
no target in a graded ring, and stops there the same way: I's own basis,
``buchberger``, a slice basis built without a series and a trace's gcd
all do.  ``intersect``'s elimination ring is not graded, so its run takes
none.  A floor never met costs nothing in answers, and the run ends with
every pair.  Two rules keep the checks cheap.  The generators' own leads
are not checked: they meet the floor only if pairwise coprime, and then
they make no pair.  And at a boundary into degree d every element still
to come has degree >= d, so the numerator's coefficients below d are
final; once they differ from the floor's, the checks end.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import accumulate

from .ring import (DEGREE_BOUND, DEGREE_MASK, Poly, PolyRing, drop_last,
                   key_offset, last_image, restrict, revlex_key,
                   substitute_last)
from .staircase import GinUnstableError, MonomialIdeal, minimal_monomials


class Ideal:
    """Homogeneous ideal holding the basis of its one Buchberger run
    (``_groebner_basis``, stopped at the Koszul floor when its generators
    reach it) unreduced, as the minimal leads of any Groebner basis are
    those of the reduced one.  ``groebner_basis()`` reduces it
    on demand and keeps the result, which intersections and sections set.
    """

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
        self._gb = None  # reduced
        self._held = None  # as the run returned it

    def _basis(self):
        """The reduced basis if built, else the run's, run once."""
        if self._gb is None and self._held is None:
            self._held = _groebner_basis(self.gens, self.ring)
        return self._held if self._gb is None else self._gb

    def leads(self) -> list:
        """Lead monomials of a Groebner basis, not all minimal."""
        return [g.lead_monomial for g in self._basis()]

    def groebner_basis(self):
        if self._gb is None:
            self._gb = _reduce_basis(self._basis(), self.ring)
        return self._gb

    def is_zero(self):
        return not self.gens  # the constructor drops zero generators

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
    for g in basis:  # the division adds the packed monomials of one ring
        _check_packing(g.ring, ring)
    # a zero polynomial divides nothing: Ideal and buchberger drop it too
    return Poly(ring, _divide(dict(f.packed), [_reducer(g) for g in basis
                                               if not g.is_zero()], ring))


def _check_packing(ring, other):
    """Refuse to mix the packed monomials of two rings."""
    if ring.nvars != other.nvars:
        raise ValueError("exponent vectors of different lengths: "
                         f"{ring.nvars} vs {other.nvars}")
    if ring != other:
        raise ValueError("polynomials from different rings")


def _reducer(g: Poly) -> tuple:
    """The row of g in a division's reducer table: lead, inverse of the
    lead coefficient, and tail."""
    lead, lc = g.packed[0]
    # Buchberger's basis elements are monic, and inverting 1 is not free
    return lead, 1 if lc == 1 else g.ring.inv(lc), g.packed[1:]


def _divide(work, reducers, ring) -> tuple:
    """The remainder, packed and in term order, of the polynomial whose
    nonzero coefficients ``work`` holds, keyed by packed monomials of
    ``ring``, by the rows of ``reducers``.

    ``work`` is consumed.
    """
    p, guards = ring.prime, ring.guards
    get = work.get
    heap = list(work)
    heapify(heap)
    out = []
    while heap:
        m = heappop(heap)
        c = work.pop(m)
        if not c:
            continue  # cancelled after it was pushed
        mg = m | guards
        for lm, lc_inv, tail in reducers:
            if (mg - lm) & guards == guards:
                shift = m - lm
                factor = p - c * lc_inv % p
                for gm, gc in tail:
                    mm = gm + shift
                    v = get(mm)
                    if v is None:
                        work[mm] = factor * gc % p
                        heappush(heap, mm)
                    else:
                        work[mm] = (v + factor * gc) % p
                break
        else:
            out.append((m, c))
    return tuple(out)


def _check_lcm(lcm):
    """Refuse an S-pair whose packed lcm crosses the degree bound."""
    if lcm & DEGREE_BOUND:  # two leads in bounds cannot carry past the field
        raise ValueError(f"an S-pair lcm of degree {lcm & DEGREE_MASK}: "
                         f"degrees must stay below {DEGREE_BOUND}")


def _s_pair(f, g, lcm, p) -> dict:
    """The nonzero coefficients of the S-polynomial u*f - v*g of the monic
    f and g, given by their reducer rows, where u*lm(f) = v*lm(g) = lcm,
    all packed: u*tail(f) - v*tail(g).  The leads cancel and are never
    written."""
    lf, _, tail_f = f
    lg, _, tail_g = g
    u, v = lcm - lf, lcm - lg
    work = {m + u: c for m, c in tail_f}
    get = work.get
    for m, c in tail_g:
        mm = m + v
        w = get(mm)
        if w is None:
            work[mm] = p - c
        elif w == c:
            del work[mm]
        else:
            work[mm] = (w - c) % p
    return work


def _update(G, P, f, lead, reducers, pair_lcm, skip=0):
    """Add the monic f to the basis, pruning pairs by the Gebauer-Moeller
    criteria.

    ``lead`` and ``reducers`` hold each element's lead as an exponent tuple
    and its row of the division's reducer table.  ``pair_lcm`` maps each
    pair in P to its packed lcm, which orders the pairs and shifts the
    S-pair's tails; the entries of pruned pairs are removed here, and those
    of new pairs added.  No pair of f with one of the first ``skip``
    elements is formed: the caller knows that their S-polynomials reduce to
    zero, so each counts as processed.
    """
    ring = f.ring
    guards = ring.guards
    row = _reducer(f)
    lmf, lmf_exps = row[0], f.lead_monomial
    # beyond the bound a packed lcm stays exact, as its degree is below
    # 2^16; only the pairs that are formed must stay within it
    lcms = [ring.sort_key(map(max, a, lmf_exps)) for a in lead]
    kept = set()
    for ij in P:
        lij = pair_lcm[ij]
        if (((lij | guards) - lmf) & guards != guards
                or lij == lcms[ij[0]] or lij == lcms[ij[1]]):
            kept.add(ij)
        else:
            del pair_lcm[ij]
    new_index = len(G)
    by_lcm = {}
    for i, lcm in enumerate(lcms):
        by_lcm.setdefault(lcm, []).append(i)
    minimal = []
    for lcm in sorted(by_lcm, reverse=True):
        if not any(((lcm | guards) - seen) & guards == guards for seen in minimal):
            minimal.append(lcm)
    for lcm in minimal:
        if (not any(lcm == reducers[i][0] + lmf for i in by_lcm[lcm])
                and (first := min(by_lcm[lcm])) >= skip):
            _check_lcm(lcm)
            pair = (first, new_index)
            pair_lcm[pair] = lcm
            kept.add(pair)
    G.append(f)
    lead.append(lmf_exps)
    reducers.append(row)
    return kept


def buchberger(gens, ring) -> tuple:
    """The reduced Groebner basis of the given generators, monic, with the
    lowest-degree leads first: ``_groebner_basis``, reduced."""
    return _reduce_basis(_groebner_basis(gens, ring), ring)


def _groebner_basis(gens, ring, target=None, known=0) -> list:
    """A monic Groebner basis of the given generators, not reduced.

    Pairs are processed in increasing order of their lcm (the normal
    strategy), which is the largest sort key.  ``target``, in a graded
    ring, is the numerator of the Hilbert series of the ideal, known in
    advance: the run stops at the first degree boundary where the lead
    monomials reach it (see the module docstring).  Pairs that run out
    before they do raise ``GinUnstableError``: the series was wrong, so a
    coordinate change or this kernel is.

    With no ``target``, r <= nvars forms of degrees d_i in a graded ring
    take their Koszul floor prod (1 - t^d_i) as a lower bound on the
    series: reaching it stops the run all the same, which is exact, and
    pairs that run out return the basis.

    ``known``, for ``intersect``, says that the first ``known`` generators
    are t times a Groebner basis of an ideal A, t the last variable, and
    that every element whose lead has no t lies in A.  No pair of two such
    rows, nor of a row and an element with a t-free lead, is formed: each
    S-polynomial is t times one in A, which the rows reduce to zero (see
    the module docstring).
    """
    gens = [f for f in gens if not f.is_zero()]
    floor = False
    if target is None and ring.graded and len(gens) <= ring.nvars:
        # in grevlex the first term has the greatest degree, the last the least
        degrees = [f.packed[0][0] & DEGREE_MASK for f in gens]
        floor = degrees == [f.packed[-1][0] & DEGREE_MASK for f in gens]
        if floor:
            target = _koszul_numerator(degrees)
    G, lead, reducers, P, pair_lcm = [], [], [], set(), {}
    rows = 0  # the rows of t*A in G, counted once all have joined

    def skip(r):  # the rows a new element, packed as r, forms no pair with
        return rows if rows and not ring.exponent(r[0][0], -1) else 0

    for i, f in enumerate(gens):
        if i == known:
            rows = len(G)
        _check_packing(f.ring, ring)
        r = _divide(dict(f.packed), reducers, ring)
        if r:
            P = _update(G, P, Poly(ring, r).monic(), lead, reducers, pair_lcm,
                        len(G) if i < known else skip(r))
    # the generators' leads meet a floor only if pairwise coprime, and
    # then they made no pair
    degree, checked = -1, len(G) if floor else -1
    while P:
        pair = max(P, key=pair_lcm.__getitem__)
        lcm = pair_lcm.pop(pair)
        if target is not None and (d := lcm & DEGREE_MASK) > degree:
            degree = d
            if len(G) > checked:
                checked = len(G)
                N = _hilbert_numerator(lead, ring.nvars)
                if N == target:
                    return G
                # elements still to come have degree >= d
                if floor and (N + [0] * d)[:d] != (target + [0] * d)[:d]:
                    target = None  # the floor is out of reach
        P.discard(pair)
        r = _divide(_s_pair(reducers[pair[0]], reducers[pair[1]], lcm,
                            ring.prime), reducers, ring)
        if r:
            P = _update(G, P, Poly(ring, r).monic(), lead, reducers, pair_lcm,
                        skip(r))
    if (target is not None and not floor
            and _hilbert_numerator(lead, ring.nvars) != target):
        raise GinUnstableError(
            "the Groebner basis is complete but its Hilbert series is not "
            f"the one expected at p={ring.prime}: a coordinate change or the "
            "Groebner kernel is wrong")
    return G


def _reduce_basis(G, ring):
    """The reduced basis, lowest-degree leads first, of the monic
    Groebner basis G: the minimal elements, each divided by the others.

    The reducer table is built once; each element divides by it without
    its own row.
    """
    guards = ring.guards
    minimal = []
    for g in sorted(G, key=lambda h: h.packed[0][0], reverse=True):
        lg = g.packed[0][0]
        if not any(((lg | guards) - h.packed[0][0]) & guards == guards
                   for h in minimal):
            minimal.append(g)
    rows = [_reducer(g) for g in minimal]
    reduced = [Poly(ring, _divide(dict(g.packed), rows[:i] + rows[i + 1:],
                                  ring)).monic()
               for i, g in enumerate(minimal)]
    reduced.sort(key=lambda h: revlex_key(h.lead_monomial), reverse=True)
    return tuple(reduced)


def initial_ideal(I: Ideal) -> MonomialIdeal:
    """Minimal monomial generators of the ideal of lead monomials, read off
    whichever basis I holds."""
    return MonomialIdeal.from_monomials(I.ring.nvars, I.leads())


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
        return _koszul_numerator(sum(g) for g in gens)
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


def _koszul_numerator(degrees) -> list:
    """prod (1 - t^d) over the degrees, lowest degree first and without
    trailing zeros: the numerator of a complete intersection of forms of
    those degrees, and the floor below every ideal generated by at most
    nvars such forms (see the module docstring)."""
    N = [1]
    for d in degrees:
        N += [0] * d
        for k in range(len(N) - 1, d - 1, -1):
            N[k] -= N[k - d]
    while N and not N[-1]:
        N.pop()  # a factor of degree 0 is the zero polynomial
    return N


# ---------------------------------------------------------------------------
# intersection, quotient, saturation

class _EliminationRing(PolyRing):
    """K[x, t] for the graded ring K[x], t last, in the elimination order:
    x-degree first, then the power of t, then grevlex on x.

    On a polynomial homogeneous in x all terms share one x-degree, so the
    power of t decides first, as in the block order with t greatest; the
    generators of t*I + (1-t)*J are such polynomials, and S-polynomials and
    reductions of them stay so.  Hence t is eliminated, though the order is
    not a block order.  Its sums may mix degrees, so it is not graded.
    """

    graded = False

    def __init__(self, ring):  # ring has checked the modulus
        n = ring.nvars
        self._pack(n + 1, ring.prime, ((-1,) * n + (0,), (0,) * n + (-1,)))


def _elimination_ring(ring):
    """The ``_EliminationRing`` of the graded ``ring``, built once per ring."""
    if ring._elimination is None:
        ring._elimination = _EliminationRing(ring)
    return ring._elimination


def _lift(f, big, extra=0):
    """f in ``big``, times t^extra; with t's power fixed the order is
    grevlex on x, so the terms keep their order."""
    offset = key_offset(f.ring, big)
    t = extra * big.variable(big.nvars - 1).packed[0][0]
    return Poly(big, tuple((m + (m & DEGREE_MASK) * offset + t, c)
                           for m, c in f.packed))


def _one_minus_t(g, big):
    """(1 - t)*g in ``big`` for a form g, without a sort: every t-term has
    g's x-degree and one more power of t than every plain term, so it is
    the greater, and the terms are -t*g followed by g."""
    plain = _lift(g, big).packed
    t, p = big.variable(big.nvars - 1).packed[0][0], big.prime
    return Poly(big, tuple((m + t, p - c) for m, c in plain) + plain)


def _top_degree(I: Ideal) -> int:
    return max((g.degree for g in I.gens), default=-1)


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I meet J via elimination of t from t*A + (1-t)*B.

    A is the argument whose generators have the lower top degree, I on a
    tie.  Each (1-t)*b reduces against the t-rows to b - t*NF_A(b), so the
    t-parts the run carries live in R/A.  The top degree stands in, for
    free, for the smaller quotient (a point has one standard monomial in
    every degree); a rule that compares Groebner bases costs more than it
    saves.  The reduced basis of the meet is unique, so the choice changes
    only the work.

    The ring must be graded: the elimination order eliminates t only on
    generators homogeneous in x.  The t-free elements of any Groebner basis
    in that order form a basis of the intersection, so only they are
    reduced.  Every element is homogeneous in x, so one with a t-free lead
    has no t at all.

    When A's generators have pairwise coprime leads, they are a Groebner
    basis of A (Buchberger's first criterion), as for every point and
    every linear space in echelon form.  Then the run forms no pair of two
    rows, nor of a row and an element h with a t-free lead: h has no t, so
    it lies in A meet B, inside A, and each such S-polynomial is t*S(a, .)
    with S(a, .) in A, which the rows represent below the pair's lcm (see
    the module docstring).  No Buchberger run is made on A for this.
    """
    if I.ring != J.ring:
        raise ValueError("ideals from different rings")
    ring = I.ring
    if not ring.graded:
        raise ValueError("intersection needs a graded ring: elimination "
                         "by x-degree first needs homogeneous generators")
    A, B = (J, I) if _top_degree(J) < _top_degree(I) else (I, J)
    leads = [g.lead_monomial for g in A.gens]
    coprime = sum(map(max, zip(*leads))) == sum(map(sum, leads))
    big = _elimination_ring(ring)
    gens = [_lift(f, big, extra=1) for f in A.gens]
    gens += [_one_minus_t(g, big) for g in B.gens]
    # each kept element written without t
    offset = key_offset(big, ring)
    kept = [Poly(ring, tuple((m + (m & DEGREE_MASK) * offset, c)
                             for m, c in g.packed))
            for g in _groebner_basis(
                gens, big, known=len(A.gens) if coprime else 0)
            if not big.exponent(g.packed[0][0], -1)]
    reduced = _reduce_basis(kept, ring)
    result = Ideal(ring, reduced)
    result._gb = reduced  # elimination returns a basis of the intersection
    return result


def ideal_quotient(I: Ideal, f: Poly) -> Ideal:
    """(I : f) for a linear form f with a nonzero x_n coefficient (see
    ``ring.last_image``)."""
    return _SliceBasis(I, f).quotient(1)


def saturate(I: Ideal, f: Poly) -> Ideal:
    """(I : f^infinity) for a linear form f with a nonzero x_n coefficient."""
    return _SliceBasis(I, f).quotient(None)


class _SliceBasis:
    """The reduced basis of psi(I), for the change psi that sends h to x_n.

    psi substitutes x_n -> (x_n - sum_{i<n} h_i x_i) / h_n, and
    ``ring.last_image``, which builds it, refuses any h that is not a
    linear form with a nonzero coefficient on x_n, and any ring that is not
    graded: both facts of the module docstring are facts of grevlex.  Every
    colon of I by a power of h, and every section of one by h, is read off
    this one basis.  ``target``, the numerator of I's Hilbert series when
    known, stops its Buchberger run early: psi keeps the series.
    """

    def __init__(self, I: Ideal, h: Poly, target=None):
        image = last_image(h)
        self.ring = I.ring
        self.h = h
        self.basis = _reduce_basis(_groebner_basis(
            [substitute_last(g, image) for g in I.gens], self.ring, target),
            self.ring)

    def colon(self, power) -> tuple:
        """The reduced basis of psi(I : h^power); ``None`` saturates."""
        if power == 0 or not any(g.lead_monomial[-1] for g in self.basis):
            return self.basis  # nothing to divide: psi(I) is x_n-saturated
        divided = []
        last = self.ring.variable(self.ring.nvars - 1).packed[0][0]
        for g in self.basis:
            k = g.lead_monomial[-1]  # in grevlex x_n^k divides all of g
            if power is not None:
                k = min(k, power)
            divided.append(g if k == 0 else Poly(self.ring, tuple(
                (m - k * last, c) for m, c in g.packed)))
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


def restrict_ideal(I: Ideal, h: Poly) -> Ideal:
    """The ideal generated by the restrictions of I's generators modulo h.

    No saturation is applied; the result can be strictly smaller than the
    full ideal of the hyperplane section.  h is checked by ``last_image``
    once, so the zero ideal refuses the forms every other ideal refuses.
    """
    if h.ring != I.ring:
        raise ValueError("form from a different ring")
    last_image(h)
    return Ideal(I.ring.restricted(), [restrict(g, h) for g in I.gens])


def truncate(I: Ideal, delta: int) -> Ideal:
    """The ideal generated by the elements of I of degree <= delta.

    Generated by I's generators up to the cutoff: an element of I_d is a
    sum of a_i * g_i with deg a_i = d - deg g_i, so only generators of
    degree <= d take part.  No Groebner basis is needed.  When every
    generator is kept the result is I itself, with whatever basis it holds.
    """
    if delta < 0:
        raise ValueError("negative truncation degree")
    kept = [g for g in I.gens if g.degree <= delta]
    return I if len(kept) == len(I.gens) else Ideal(I.ring, kept)
