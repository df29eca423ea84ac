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

An intersection with the ideal A of a point p is taken in the ring itself,
with no variable adjoined, as the kernel of evaluation at p (Abbott,
Bigatti, Kreuzer and Robbiano, Computing ideals of points, J. Symbolic
Comput. 30 (2000)).  A's n - 1 linear forms lead with n - 1 distinct
variables, and division by them sends a form g to g(p) * x_k^deg(g), x_k the
variable left over.  With g* an element of B's basis of least degree e among
those not vanishing at p, A meet B is generated by the a_i * g* and by each
other element g minus (g(p) / g*(p)) * x_k^(deg g - e) * g*.  When each of
these differences keeps lm(g) as its lead, the generators are already a
Groebner basis, and no Buchberger run is made (see ``intersect``).  Otherwise
they go to one plain Buchberger run.

Every other intersection goes through the one-auxiliary-variable
elimination construction: adjoin t, form K = t*I + (1-t)*J, and eliminate
t (Cox, Little and O'Shea, Ideals, Varieties, and Algorithms, ch. 3 sec. 3
and ch. 8 sec. 3).  The run is plain grevlex on K[x, t], t last, and needs
no block order.  Take a polynomial homogeneous in x.  Its terms share one
x-degree, so total degree = x-degree + power of t, and in grevlex the
higher power of t wins, as in the block order with t greatest.  When the
powers of t are equal, grevlex reads t first, ties there, and falls to
grevlex on x, as the block order does.  K is graded by x-degree, so in(K)
is spanned by the leads of its x-homogeneous elements and is the same
ideal in both orders; the run's elements, built from x-homogeneous
generators, are x-homogeneous too.  A grevlex Groebner basis of K is
therefore an elimination basis, and its t-free elements form a basis of
I meet J.  Such an element has no t in any term, since its lead has its
greatest power of t.  The normal strategy takes pairs by the total degree
of their lcm, and only the t-free elements are reduced.

The kernel works on packed monomials (see ``ring``): one int per
monomial is its exponents and its sort key, the smallest key the greatest
monomial, and a product is a sum of keys.  Division keeps its pending
terms in a dict of coefficients keyed by packed monomials and a heap of
the same ints (Monagan and Pearce, Sparse polynomial division using a
heap, J. Symbolic Comput. 46 (2011), who pack exponent vectors into words
the same way); a term that cancels stays in the heap and is skipped when
popped.  A lead divides a term when the guard bits of their difference
say so.  Its divisors come as a table of (lead, inverse lead coefficient,
tail) rows.  Every polynomial the kernel meets has its lead at its greatest
total degree, as grevlex ranks the higher degree first.  No reduction
therefore writes a term of higher degree than the one it removes, and only
an S-pair's lcm can cross the degree bound.  Buchberger builds no
intermediate polynomial: it keeps that table with its basis, one row added
as each monic element joins, and writes each S-pair u*tail(f) - v*tail(g)
straight into the division's dict, where the leads would cancel.  Each pair's
packed lcm is formed once, when the pair is made; it orders the pairs, and u
and v are the lcm minus each lead.  A pair whose lcm reaches the degree bound
raises ``ValueError``.  Reducing a basis builds the table once, and each
element divides by it without its own row.  Polynomials are read out as
exponent tuples only at the edges: lead monomials for Hilbert series and
initial ideals.

A Buchberger run that knows the Hilbert series of its ideal in advance
(an ``Ideal`` given it as its target: a gin sample or a slice basis,
whose coordinate change keeps the series, or a section of the gin chain,
whose form the target certifies) stops as soon as the lead monomials
reach it (Traverso, Hilbert functions and the Buchberger algorithm,
J. Symbolic Comput. 22 (1996)):
pairs come in increasing lcm degree, so at each degree boundary where
the basis has grown, the numerator of HS(R/<lead G>) (see ``staircase``)
is compared with the target, and equality ends the run.
This is exact: <lead G> lies in in(I), and equal Hilbert series force
equality, so G is already a Groebner basis.  The pairs left would all
reduce to zero.

A run with no such target still has a floor when its generators are
r <= nvars forms of degrees d_i: HS(R/I) >= prod (1 - t^d_i) / (1-t)^nvars
in every degree, with equality exactly for a regular sequence (Froberg,
An inequality for Hilbert series of graded algebras, Math. Scand. 56
(1985)).  dim I_d is at most its value for generic forms, by semicontinuity,
and generic forms with r <= nvars are regular.  As HS(R/<lead G>) >= HS(R/I),
leads whose numerator meets the floor's are in(I), and ``_groebner_basis``
takes the floor itself whenever it is given no target, and stops there the
same way: I's own basis, ``buchberger``, a slice basis of an ideal that
holds no lead ideal and a trace's gcd all do, and so does ``intersect``'s
run on t*I when J is zero.  A floor never met costs nothing in answers,
and the run ends with every pair.  Two rules keep the checks cheap.  The generators' own leads are
not checked: they meet the floor only if pairwise coprime, and then they
make no pair.  And at a boundary into degree d every element still to come
has degree >= d, so the numerator's coefficients below d are final; once
they differ from the floor's, the checks end.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .ring import (DEGREE_BOUND, DEGREE_MASK, Poly, PolyRing, drop_last,
                   key_offset, last_image, revlex_key, substitute_last)
from .staircase import (GinUnstableError, MonomialIdeal, _koszul_numerator,
                        _numerator, minimal_monomials)


class Ideal:
    """Homogeneous ideal holding the basis of its one Buchberger run
    (``_groebner_basis``) unreduced, as the minimal leads of any Groebner
    basis are those of the reduced one.  ``target``, the numerator of the
    ideal's Hilbert series when known in advance, stops the run as soon as
    the leads reach it, and a run that ends short of it raises
    ``GinUnstableError`` and leaves no basis held; with none the run stops
    at the Koszul floor when its generators reach it.  ``groebner_basis()``
    reduces the run's basis on demand and keeps the result, which
    intersections and sections set.

    The constructor is where an inhomogeneous generator is refused: sums
    refuse only summands of different lead degrees (``ring.add_into``).
    """

    def __init__(self, ring, gens, target=None):
        self.ring = ring
        cleaned = []
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
            if g.is_zero():
                continue
            if not g.is_homogeneous():
                raise ValueError(f"inhomogeneous generator: {g}")
            cleaned.append(g)
        self.gens = tuple(cleaned)
        self._target = target
        self._gb = None  # reduced
        self._held = None  # as the run returned it
        self._lead_ideal = None

    def _basis(self):
        """The reduced basis if built, else the run's, run once."""
        if self._gb is None and self._held is None:
            self._held = _groebner_basis(self.gens, self.ring, self._target)
        return self._held if self._gb is None else self._gb

    def lead_ideal(self) -> MonomialIdeal:
        """The ideal of lead monomials, read off whichever basis the ideal
        holds and then kept: every Groebner basis has the same minimal
        leads, so the reduced basis built later leaves it valid."""
        if self._lead_ideal is None:
            self._lead_ideal = MonomialIdeal.from_monomials(
                self.ring.nvars, (g.lead_monomial for g in self._basis()))
        return self._lead_ideal

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


def _update(G, f, lead, reducers, pair_lcm):
    """Add the monic f to the basis, pruning pairs by the Gebauer-Moeller
    criteria.

    ``lead`` and ``reducers`` hold each element's lead as an exponent tuple
    and its row of the division's reducer table.  ``pair_lcm`` maps each
    pair still to be processed to its packed lcm, which orders the pairs
    and shifts the S-pair's tails; pruned pairs are removed from it in
    place, and new pairs added.
    """
    ring = f.ring
    guards = ring.guards
    row = _reducer(f)
    lmf, lmf_exps = row[0], f.lead_monomial
    # beyond the bound a packed lcm stays exact, as its degree is below
    # 2^16; only the pairs that are formed must stay within it
    lcms = [ring.sort_key(map(max, a, lmf_exps)) for a in lead]
    for ij, lij in list(pair_lcm.items()):
        if (((lij | guards) - lmf) & guards != guards
                or lij == lcms[ij[0]] or lij == lcms[ij[1]]):
            continue
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
        if not any(lcm == reducers[i][0] + lmf for i in by_lcm[lcm]):
            _check_lcm(lcm)
            pair_lcm[min(by_lcm[lcm]), new_index] = lcm
    G.append(f)
    lead.append(lmf_exps)
    reducers.append(row)


def buchberger(gens, ring) -> tuple:
    """The reduced Groebner basis of the given generators, monic, with the
    lowest-degree leads first: ``_groebner_basis``, reduced."""
    return _reduce_basis(_groebner_basis(gens, ring), ring)


def _groebner_basis(gens, ring, target=None) -> list:
    """A monic Groebner basis of the given generators, not reduced.

    Pairs are processed in increasing order of their lcm (the normal
    strategy), which is the largest sort key.  ``target`` is the numerator
    of the Hilbert series of the ideal, known in advance: the run stops at
    the first degree boundary where the lead monomials reach it (see the
    module docstring).  Pairs that run out before they do raise
    ``GinUnstableError``: the series was wrong, so a coordinate change or
    this kernel is.

    With no ``target``, r <= nvars forms of degrees d_i take their Koszul
    floor prod (1 - t^d_i) as a lower bound on the series: reaching it
    stops the run all the same, which is exact, and pairs that run out
    return the basis.
    """
    gens = [f for f in gens if not f.is_zero()]
    floor = False
    if target is None and len(gens) <= ring.nvars:
        # in grevlex the first term has the greatest degree, the last the least
        degrees = [f.packed[0][0] & DEGREE_MASK for f in gens]
        floor = degrees == [f.packed[-1][0] & DEGREE_MASK for f in gens]
        if floor:
            target = _koszul_numerator(degrees)
    G, lead, reducers, pair_lcm = [], [], [], {}
    for f in gens:
        _check_packing(f.ring, ring)
        r = _divide(dict(f.packed), reducers, ring)
        if r:
            _update(G, Poly(ring, r).monic(), lead, reducers, pair_lcm)
    # the generators' leads meet a floor only if pairwise coprime, and
    # then they made no pair
    degree, checked = -1, len(G) if floor else -1
    while pair_lcm:
        pair = max(pair_lcm, key=pair_lcm.__getitem__)
        lcm = pair_lcm.pop(pair)
        if target is not None and (d := lcm & DEGREE_MASK) > degree:
            degree = d
            if len(G) > checked:
                checked = len(G)
                N = _numerator(minimal_monomials(lead), ring.nvars)
                if N == target:
                    return G
                # elements still to come have degree >= d
                if floor and (N + (0,) * d)[:d] != (target + (0,) * d)[:d]:
                    target = None  # the floor is out of reach
        r = _divide(_s_pair(reducers[pair[0]], reducers[pair[1]], lcm,
                            ring.prime), reducers, ring)
        if r:
            _update(G, Poly(ring, r).monic(), lead, reducers, pair_lcm)
    if (target is not None and not floor
            and _numerator(minimal_monomials(lead), ring.nvars) != target):
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
    """The ideal of lead monomials that I keeps (``Ideal.lead_ideal``)."""
    return I.lead_ideal()


# ---------------------------------------------------------------------------
# intersection, quotient, saturation

def _lift(f, big, extra=0):
    """f in ``big``, times t^extra; with t's power fixed the order is
    grevlex on x, so the terms keep their order."""
    offset = key_offset(f.ring, big)
    t = extra * big.variable_key(big.nvars - 1)
    return Poly(big, tuple((m + (m & DEGREE_MASK) * offset + t, c)
                           for m, c in f.packed))


def _is_point(I: Ideal) -> bool:
    """Whether I's generators are n - 1 linear forms whose leads are n - 1
    distinct variables, as ``corpus.point_ideal`` builds: the ideal of a
    point."""
    leads = {g.packed[0][0] for g in I.gens}
    return (len(I.gens) == len(leads) == I.ring.nvars - 1
            and all(m & DEGREE_MASK == 1 for m in leads))


def _keeps_lead(lead, subtracted) -> bool:
    # whether a form keeps its packed lead when a multiple of another, with
    # packed lead ``subtracted``, is taken from it: the greater monomial has
    # the smaller key.  Apart, so that a test can force the fallback run.
    return lead < subtracted


def _meet_point(A: Ideal, B: Ideal) -> tuple:
    """The reduced basis of A meet B for the ideal A of a point, as the
    kernel of evaluation at it (see ``intersect``)."""
    ring, p = A.ring, A.ring.prime
    rows = [_reducer(a) for a in A.gens]
    G = B._basis()
    # each remainder is () or c_g * x_k^deg(g), packed
    values = [_divide(dict(g.packed), rows, ring) for g in G]
    hits = [i for i, v in enumerate(values) if v]
    if not hits:
        return B.groebner_basis()  # B lies in A
    # of least degree, the one of smallest lead, which is the greatest key
    star = min(hits, key=lambda i: (values[i][0][0] & DEGREE_MASK,
                                    -G[i].packed[0][0]))
    g_star, (x_e, c_star) = G[star], values[star][0]
    inv = ring.inv(c_star)
    lead_star, certified = g_star.packed[0][0], True
    gens = []
    for g, v in zip(G, values):
        if g is g_star:
            continue
        if v:  # x_k^(deg g - e) is the remainders' quotient
            shift, factor = v[0][0] - x_e, v[0][1] * inv % p
            certified = certified and _keeps_lead(g.packed[0][0],
                                                  lead_star + shift)
            g = g - Poly(ring, tuple((m + shift, factor * c % p)
                                     for m, c in g_star.packed))
        gens.append(g)
    gens += [a * g_star for a in A.gens]
    if certified:  # every lead kept: a Groebner basis (see ``intersect``)
        return _reduce_basis(gens, ring)
    return _reduce_basis(_groebner_basis(gens, ring), ring)


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I meet J: by evaluation when either is the ideal of a point, J
    first, and otherwise via elimination of t from t*I + (1-t)*J.

    The ideal A of a point p is given by n - 1 linear forms a_i whose
    leads are n - 1 distinct variables; x_k leads none.  Division by the
    a_i sends a form g of degree d to c_g * x_k^d, and c_g = g(p) for p
    scaled so that p_k = 1, as g - NF(g) in A vanishes at p.  Take the
    basis G that B holds.  If every c_g is 0, B lies in A and the meet is
    B.  Otherwise let g* be, of the elements with c_g* != 0 of least
    degree e, the one with the smallest lead: A meet B is generated by
    g - (c_g / c_g*) * x_k^(deg g - e) * g* for every other g (g itself
    when c_g = 0) and by the a_i * g*.  Modulo these every f in B is
    q * g*, and f(p) = 0 forces q(p) = 0, so q is in A.  As
    A + B = A + (x_k^e), HF(R/(A meet B))(d) = HF(R/B)(d) + [d >= e].

    When every combination keeps lm(g) as its lead, these generators are
    a Groebner basis, and the meet is read off them with no Buchberger
    run; the choice of g* keeps the leads of degree e.  Let L' be the
    ideal of their leads: lm(g) for every g != g*, and x_i * lm(g*) for the
    n - 1 leads x_i of A.  Every generator lies in A meet B, so L' lies in
    in(A meet B), which lies in in(B).  A monomial of in(B) outside L' is
    a multiple of lm(g*) and of no other lm(g), by a cofactor free of
    every x_i, so it is lm(g*) * x_k^j: at most one is missing in each
    degree d, and none below e.  So HF(R/L')(d) <= HF(R/B)(d) + [d >= e]
    = HF(R/(A meet B))(d) <= HF(R/L')(d), and L' = in(A meet B).  When a
    combination loses its lead, the generators go to one plain Buchberger
    run instead.  No elimination variable is adjoined.

    Otherwise t is adjoined as the last variable of the grevlex ring
    ``PolyRing(n + 1, p)`` (see the module docstring).  The t-free elements
    of the run's basis form a basis of the intersection, so only they are
    reduced.  Every element is homogeneous in x, so one with a t-free lead
    has no t at all.
    """
    if I.ring != J.ring:
        raise ValueError("ideals from different rings")
    ring = I.ring
    if _is_point(J):
        reduced = _meet_point(J, I)
    elif _is_point(I):
        reduced = _meet_point(I, J)
    else:
        big = PolyRing(ring.nvars + 1, ring.prime)
        gens = [_lift(f, big, extra=1) for f in I.gens]
        # (1-t)*g, packed: t*g's terms have the higher degree, so they lead
        gens += [Poly(big, (-_lift(g, big, extra=1)).packed
                      + _lift(g, big).packed) for g in J.gens]
        # each kept element written without t
        offset = key_offset(big, ring)
        reduced = _reduce_basis(
            [Poly(ring, tuple((m + (m & DEGREE_MASK) * offset, c)
                              for m, c in g.packed))
             for g in _groebner_basis(gens, big)
             if not big.exponent(g.packed[0][0], -1)], ring)
    result = Ideal(ring, reduced)
    result._gb = reduced  # either way a basis of the intersection
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
    linear form with a nonzero coefficient on x_n.  Every colon of I by a
    power of h, and every section of one by h, is read off this one
    basis.  psi keeps the Hilbert series, so when I already holds its lead
    ideal, that ideal's numerator is the target of psi(I)'s run.
    """

    def __init__(self, I: Ideal, h: Poly):
        image = last_image(h)
        self.ring = I.ring
        self.h = h
        target = None if I._lead_ideal is None else I._lead_ideal.numerator
        self.basis = Ideal(self.ring, [substitute_last(g, image)
                                       for g in I.gens],
                           target).groebner_basis()

    def colon(self, power) -> tuple:
        """The reduced basis of psi(I : h^power); ``None`` saturates."""
        if power == 0 or not any(g.lead_monomial[-1] for g in self.basis):
            return self.basis  # nothing to divide: psi(I) is x_n-saturated
        divided = []
        last = self.ring.variable_key(self.ring.nvars - 1)
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
    full ideal of the hyperplane section.  psi's image of x_n, restricted,
    is built once (see ``ring.restrict``), and building it is the one check
    on h, so the zero ideal refuses the forms every other ideal refuses.
    """
    if h.ring != I.ring:
        raise ValueError("form from a different ring")
    image = drop_last(last_image(h))
    return Ideal(image.ring, [substitute_last(g, image) for g in I.gens])


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
