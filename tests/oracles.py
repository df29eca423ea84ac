"""Independent linear-algebra oracles for the test suite.

Everything here works degree by degree with dense coefficient matrices
over F_p and deliberately shares no code with the Groebner machinery it
checks: monomial enumeration goes through itertools, ranks through
numpy Gaussian elimination, and reduced Groebner bases through sympy.
"""

import itertools
from functools import lru_cache
from math import comb, prod

import numpy as np


def monomial_basis(nvars, d):
    """Degree-d exponent tuples via stars and bars, in a fixed order."""
    basis = []
    for bars in itertools.combinations(range(d + nvars - 1), nvars - 1):
        exps = []
        prev = -1
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(d + nvars - 2 - prev)
        basis.append(tuple(exps))
    return basis


def hilbert_by_enumeration(gens, nvars, dmax):
    """dim (R/M)_d for d = 0..dmax, M the monomial ideal of the exponent
    tuples ``gens``: the degree-d monomials no generator divides."""
    return [sum(1 for m in monomial_basis(nvars, d)
                if not any(all(a <= b for a, b in zip(g, m)) for g in gens))
            for d in range(dmax + 1)]


def rank_mod_p(rows, p):
    """Row rank over F_p by vectorized Gaussian elimination."""
    if not len(rows):
        return 0
    A = np.array(rows, dtype=np.int64) % p
    nrows, ncols = A.shape
    r = 0
    for c in range(ncols):
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        pivot = r + int(nz[0])
        if pivot != r:
            A[[r, pivot]] = A[[pivot, r]]
        inv = pow(int(A[r, c]), p - 2, p)
        A[r] = (A[r] * inv) % p
        col = A[r + 1:, c]
        mask = col != 0
        if mask.any():
            A[r + 1:][mask] = (A[r + 1:][mask] - np.outer(col[mask], A[r])) % p
        r += 1
        if r == nrows:
            break
    return r


def poly_row(f, d, index):
    """Coefficient vector of a degree-d polynomial on the monomial basis."""
    row = np.zeros(len(index), dtype=np.int64)
    for mono, coeff in f.terms:
        row[index[mono]] = coeff
    return row


def _multiples(gens, d, nvars, index):
    rows = []
    for g in gens:
        e = g.degree
        if e > d:
            continue
        for m in monomial_basis(nvars, d - e):
            rows.append(poly_row(g * g.ring.monomial(m), d, index))
    return rows


def ideal_dim(gens, d, nvars, p):
    """dim of the degree-d piece of the ideal the generators span."""
    if not gens:
        return 0
    index = {m: i for i, m in enumerate(monomial_basis(nvars, d))}
    return rank_mod_p(_multiples(gens, d, nvars, index), p)


def evaluation_ranks(points, dmax, nvars, p):
    """dim (R/I)_d for d = 0..dmax, I the ideal of a set of points of
    P^(nvars-1) over F_p: the degree-d forms that vanish at the points are
    the kernel of evaluation at them, so the quotient has the rank of the
    matrix of monomial values, one row per point."""
    return [rank_mod_p([[prod(pow(c, e, p) for c, e in zip(pt, m)) % p
                         for m in monomial_basis(nvars, d)]
                        for pt in points], p)
            for d in range(dmax + 1)]


def quotient_ring_dims(gens, dmax, nvars, p):
    """Quotient dimensions dim (R/I)_d for d = 0..dmax."""
    return [comb(d + nvars - 1, nvars - 1) - ideal_dim(gens, d, nvars, p)
            for d in range(dmax + 1)]


def is_member(f, gens, nvars, p):
    """Whether homogeneous f lies in the ideal, tested in its own degree."""
    if f.is_zero():
        return True
    d = f.degree
    index = {m: i for i, m in enumerate(monomial_basis(nvars, d))}
    rows = _multiples(gens, d, nvars, index)
    base = rank_mod_p(rows, p)
    return rank_mod_p(rows + [poly_row(f, d, index)], p) == base


def colon_dim(gens, f, d, nvars, p):
    """dim {g of degree d : g * f in I}, by a kernel computation."""
    e = f.degree
    index = {m: i for i, m in enumerate(monomial_basis(nvars, d + e))}
    ideal_rows = _multiples(gens, d + e, nvars, index)
    base = rank_mod_p(ideal_rows, p)
    mult_rows = [poly_row(f * f.ring.monomial(m), d + e, index)
                 for m in monomial_basis(nvars, d)]
    combined = rank_mod_p(mult_rows + ideal_rows, p)
    return comb(d + nvars - 1, nvars - 1) - (combined - base)


def saturation_dim(gens, f, d, nvars, p, k_cap=12):
    """dim of the degree-d piece of (I : f^infinity), by stabilizing colons."""
    prev = None
    power = None
    for k in range(1, k_cap + 1):
        power = f if power is None else power * f
        cur = colon_dim(gens, power, d, nvars, p)
        if cur == prev:
            return cur
        prev = cur
    raise RuntimeError("saturation did not stabilize within the cap")


def intersection_dim(gens_i, gens_j, d, nvars, p):
    """dim (I meet J)_d = dim I_d + dim J_d - dim (I + J)_d."""
    index = {m: i for i, m in enumerate(monomial_basis(nvars, d))}
    rows_i = _multiples(gens_i, d, nvars, index)
    rows_j = _multiples(gens_j, d, nvars, index)
    return (rank_mod_p(rows_i, p) + rank_mod_p(rows_j, p)
            - rank_mod_p(rows_i + rows_j, p))


# ---------------------------------------------------------------------------
# reference division and expansion
#
# The loops the polynomial kernel used before heap division: every step
# rescans all pending terms for the greatest one under an explicit
# larger-is-greater order.  Polynomials are plain term sequences; results
# come back sorted greatest first, the kernel's term order.

def grevlex_order(m):
    """Higher degree first, then the smaller exponent at the rightmost
    differing index."""
    return (sum(m), tuple(-e for e in reversed(m)))


def _sorted_terms(coeffs, order):
    return tuple(sorted(((m, c) for m, c in coeffs.items() if c),
                        key=lambda t: order(t[0]), reverse=True))


def _leading(terms, order):
    return max(terms, key=lambda t: order(t[0]))


def scan_normal_form(f_terms, basis_terms, p, order):
    """Remainder of f by the basis, the first dividing lead in basis order."""
    leads = []
    for g in basis_terms:
        lm, lc = _leading(g, order)
        leads.append((lm, pow(lc, p - 2, p), [t for t in g if t[0] != lm]))
    work = dict(f_terms)
    remainder = {}
    while work:
        m = max(work, key=order)
        c = work.pop(m)
        for lm, lc_inv, tail in leads:
            if all(a <= b for a, b in zip(lm, m)):
                shift = tuple(b - a for a, b in zip(lm, m))
                factor = c * lc_inv % p
                for gm, gc in tail:
                    mm = tuple(a + b for a, b in zip(gm, shift))
                    v = (work.get(mm, 0) - factor * gc) % p
                    if v:
                        work[mm] = v
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[m] = c
    return _sorted_terms(remainder, order)


def scan_exact_divide(f_terms, d_terms, p, order):
    """f / d; raises ValueError when a pending term is not divisible."""
    lm, lc = _leading(d_terms, order)
    lc_inv = pow(lc, p - 2, p)
    tail = [t for t in d_terms if t[0] != lm]
    work = dict(f_terms)
    quotient = {}
    while work:
        m = max(work, key=order)
        c = work.pop(m)
        if not all(a <= b for a, b in zip(lm, m)):
            raise ValueError("division is not exact")
        shift = tuple(b - a for a, b in zip(lm, m))
        factor = c * lc_inv % p
        quotient[shift] = factor
        for gm, gc in tail:
            mm = tuple(a + b for a, b in zip(gm, shift))
            v = (work.get(mm, 0) - factor * gc) % p
            if v:
                work[mm] = v
            else:
                work.pop(mm, None)
    return _sorted_terms(quotient, order)


def expand_change(f_terms, matrix, p):
    """The terms of f(x_i -> sum_j matrix[i][j] x_j), multiplied out term
    by term and factor by factor, greatest first in grevlex."""
    nvars = len(matrix)
    total = {}
    for mono, coeff in f_terms:
        prod = {(0,) * nvars: coeff}
        for i, e in enumerate(mono):
            for _ in range(e):
                step = {}
                for m, c in prod.items():
                    for j, a in enumerate(matrix[i]):
                        if a % p:
                            mm = m[:j] + (m[j] + 1,) + m[j + 1:]
                            step[mm] = (step.get(mm, 0) + c * a) % p
                prod = step
        for m, c in prod.items():
            total[m] = (total.get(m, 0) + c) % p
    return _sorted_terms(total, grevlex_order)


def det_mod(matrix, p):
    """The determinant mod p, by Gaussian elimination with row swaps."""
    rows = [list(r) for r in matrix]
    n = len(rows)
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] % p != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det = (det * rows[col][col]) % p
        inv = pow(rows[col][col], p - 2, p)
        for r in range(col + 1, n):
            factor = (rows[r][col] * inv) % p
            if factor:
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[col])]
    return det % p


# ---------------------------------------------------------------------------
# monomial products and lcms, and S-polynomials by Poly arithmetic

def monomial_product(a, b):
    """The product of two exponent tuples of one length."""
    assert len(a) == len(b), "exponent tuples of different lengths"
    return tuple(x + y for x, y in zip(a, b))


def monomial_lcm(a, b):
    """The lcm of two exponent tuples of one length."""
    assert len(a) == len(b), "exponent tuples of different lengths"
    return tuple(max(x, y) for x, y in zip(a, b))


def s_polynomial(f, g):
    """u*f/lc(f) - v*g/lc(g), where u*lm(f) = v*lm(g) is the lcm of the
    leads, by Poly products and a difference."""
    lcm = monomial_lcm(f.lead_monomial, g.lead_monomial)
    u, v = (f.ring.monomial(tuple(a - b for a, b in zip(lcm, h.lead_monomial)))
            for h in (f, g))
    return f.monic() * u - g.monic() * v


# ---------------------------------------------------------------------------
# reduced Groebner bases by sympy

def sympy_reduced_basis(gens, ring):
    """The reduced grevlex basis of the forms ``gens`` by sympy, as a
    sorted list of sorted (exponents, coefficient) tuples, coefficients in
    [0, p).  x0 > x1 > ... is the kernel's grevlex: its last variable is
    the smallest.  sympy is imported here, so only its callers pay."""
    import sympy

    xs = sympy.symbols(f"x0:{ring.nvars}")
    return _sympy_grevlex([_sympy_form(f, xs) for f in gens], xs, ring.prime)


def sympy_intersection(gens_a, gens_b, ring):
    """The reduced grevlex basis of the meet of the ideals of ``gens_a``
    and ``gens_b`` by sympy, as ``sympy_reduced_basis`` gives it."""
    import sympy

    xs = sympy.symbols(f"x0:{ring.nvars}")
    return _sympy_grevlex(
        _sympy_meet([_sympy_form(f, xs) for f in gens_a],
                    [_sympy_form(g, xs) for g in gens_b], xs, ring.prime),
        xs, ring.prime)


def sympy_quotient(gens, h, ring):
    """The reduced grevlex basis of (I : h), I the ideal of ``gens``, by
    sympy, as ``sympy_reduced_basis`` gives it: each generator of the meet
    of I and (h), divided by h, then the reduced grevlex basis of those."""
    import sympy

    xs = sympy.symbols(f"x0:{ring.nvars}")
    hx = _sympy_form(h, xs)
    quotients = []
    for q in _sympy_meet([_sympy_form(f, xs) for f in gens], [hx], xs,
                         ring.prime):
        quotient, remainder = sympy.div(q, hx, *xs, modulus=ring.prime)
        assert remainder == 0, "an element of (h) that h does not divide"
        quotients.append(quotient)
    return _sympy_grevlex(quotients, xs, ring.prime)


def _sympy_meet(forms_a, forms_b, xs, p):
    """The t-free part of sympy's basis of t*A + (1-t)*B in an order that
    compares powers of t first, which eliminates t: a basis of A meet B.
    Its grevlex tie-break on x makes it much faster than lex: on two to
    six random quadrics in P^3, a second at most where lex can run past
    twenty seconds."""
    import sympy

    t = sympy.Symbol("t")
    forms = [t * f for f in forms_a] + [(1 - t) * g for g in forms_b]
    basis = sympy.groebner(forms, t, *xs, order=_t_first, modulus=p)
    return [q for q in basis.exprs if not q.has(t)]


@lru_cache(maxsize=1 << 16)
def _t_first(m):
    """sympy's sort key of the exponents m of (t, x0, ..., xn): the power
    of t, then grevlex on x.  Kept per monomial: one sympy basis asks
    for the same keys some hundred thousand times."""
    return (m[0], sum(m), tuple(-e for e in reversed(m)))


def _sympy_form(f, xs):
    import sympy

    return sympy.Poly.from_dict(dict(f.terms), *xs,
                                modulus=f.ring.prime).as_expr()


def _sympy_grevlex(forms, xs, p):
    import sympy

    basis = sympy.groebner(forms, *xs, order="grevlex", modulus=p)
    # sympy prints coefficients in the symmetric range
    return sorted(tuple(sorted((m, int(c) % p) for m, c in q.terms()))
                  for q in basis.polys)
