"""Correctness checks computed apart from gintools.

Every function here works on plain exponent tuples and on coefficient
dicts ``{exponent tuple: int}`` and imports nothing from the library, so a
fault in gintools cannot hide by turning up on both sides of a comparison.
Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import itertools
import math
import re


# ---------------------------------------------------------------------------
# monomials

def monomials(nvars, d):
    """All exponent tuples of total degree d in nvars variables."""
    if d < 0:
        return []
    result = []
    for combo in itertools.combinations_with_replacement(range(nvars), d):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        result.append(tuple(exps))
    return result


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def in_monomial_ideal(gens, m):
    return any(divides(g, m) for g in gens)


def parse_monomial(text, nvars):
    """'x0^2*x1' -> (2, 1, 0, ...); '1' -> the zero exponent tuple."""
    exps = [0] * nvars
    text = text.strip()
    if text == "1":
        return tuple(exps)
    for factor in text.split("*"):
        match = re.fullmatch(r"x(\d+)(?:\^(\d+))?", factor.strip())
        if not match:
            raise ValueError(f"not a monomial: {text!r}")
        exps[int(match.group(1))] += int(match.group(2) or 1)
    return tuple(exps)


def parse_poly(text, nvars, p):
    """A sum of terms ``[c*]x_i^e*...`` with integer c, reduced mod p."""
    if "(" in text:
        raise ValueError("parentheses are not part of the generator format")
    coeffs = {}
    for sign, body in re.findall(r"([+-]?)\s*([^+-]+)", text.replace(" ", "")):
        factors = body.split("*")
        c = 1
        if factors[0].isdigit():
            c = int(factors.pop(0))
        mono = parse_monomial("*".join(factors), nvars) if factors else (0,) * nvars
        c = -c if sign == "-" else c
        coeffs[mono] = (coeffs.get(mono, 0) + c) % p
    return {m: c for m, c in coeffs.items() if c}


# ---------------------------------------------------------------------------
# the gin itself

def borel_violation(gens):
    """A generator m and axes i < j with m * x_i / x_j outside the ideal.

    Over a field of characteristic larger than the degrees involved a gin
    is strongly stable, and elementary moves on the minimal generators
    decide that.  Returns None when every move stays inside.
    """
    for g in gens:
        for j in range(1, len(g)):
            if g[j] == 0:
                continue
            for i in range(j):
                moved = list(g)
                moved[i] += 1
                moved[j] -= 1
                if not in_monomial_ideal(gens, tuple(moved)):
                    return g, i, j
    return None


def check_gin(gens):
    """The gin of a saturated ideal is Borel-fixed and free of x_n."""
    problems = []
    witness = borel_violation(gens)
    if witness is not None:
        g, i, j = witness
        problems.append(f"gin not Borel-fixed: {g} moved from x{j} to x{i}")
    if any(g[-1] for g in gens):
        problems.append("gin has a generator involving the last variable")
    return problems


def hilbert_of_monomial_ideal(gens, nvars, dmax):
    """dim (R/M)_d for d = 0..dmax, by counting standard monomials."""
    return [sum(1 for m in monomials(nvars, d) if not in_monomial_ideal(gens, m))
            for d in range(dmax + 1)]


# ---------------------------------------------------------------------------
# invariants and the connectedness theorem

def profile(gens, nvars, p_tilde):
    """(s, lambdas) of (M : x2^p2 .. xn^pn) traced onto K[x0, x1]."""
    power = (0, 0) + tuple(p_tilde)
    colon = [tuple(max(e - q, 0) for e, q in zip(g, power)) for g in gens]
    trace = [(g[0], g[1]) for g in colon if not any(g[2:])]
    pure = [a for a, b in trace if b == 0]
    if not pure or min(pure) == 0:
        raise ValueError(f"no finite staircase at {tuple(p_tilde)}")
    s = min(pure)
    lambdas = []
    for i in range(s):
        lambdas.append(min(b for a, b in trace if a <= i))
    return s, tuple(lambdas)


def invariant_table(gens, nvars):
    """{p_hat: (s, lambdas)} over x2..x_{n-1}, with s_Z and s_Gamma.

    Colons by x_j^p stop changing once p passes the largest x_j exponent
    of a generator, so the box ends one step past it; the far corner is
    the stable entry that gives s_Gamma.
    """
    axes = range(2, nvars - 1)
    bounds = tuple(max((g[j] for g in gens), default=0) + 1 for j in axes)
    table = {}
    for p_hat in itertools.product(*(range(b + 1) for b in bounds)):
        table[p_hat] = profile(gens, nvars, p_hat + (0,))
    s_z = table[(0,) * len(bounds)][0]
    s_gamma = table[bounds][0]
    return table, s_z, s_gamma


def is_connected(lambdas):
    return all(1 <= a - b <= 2 for a, b in zip(lambdas, lambdas[1:]))


def check_theorem(gens, nvars):
    """Connected invariants for an integral codimension-two Z with s_Z = s_Gamma."""
    table, s_z, s_gamma = invariant_table(gens, nvars)
    if s_z != s_gamma:
        return []
    return [f"profile at {p_hat} not connected: lambda={lam}"
            for p_hat, (_, lam) in table.items() if not is_connected(lam)]


def check_reported_table(gens, nvars, entries, s_z, s_gamma):
    """The program's invariant table and s readings against our own."""
    table, mine_z, mine_gamma = invariant_table(gens, nvars)
    reported = {tuple(p_hat): (s, tuple(lam)) for p_hat, s, lam in entries}
    problems = []
    if reported != table:
        problems.append(f"invariant table {reported} differs from {table}")
    if (s_z, s_gamma) != (mine_z, mine_gamma):
        problems.append(f"s_Z, s_Gamma = {s_z}, {s_gamma}; "
                        f"expected {mine_z}, {mine_gamma}")
    return problems


# ---------------------------------------------------------------------------
# Hilbert functions from first principles

def rank_mod_p(rows, p):
    """Row rank over F_p of dense integer rows, by Gaussian elimination."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        top = [(x * inv) % p for x in rows[rank]]
        rows[rank] = top
        for r in range(rank + 1, len(rows)):
            f = rows[r][c]
            if f:
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], top)]
        rank += 1
    return rank


def hilbert_by_rank(polys, nvars, p, dmax):
    """dim (R/I)_d from the span of all degree-d multiples of the generators."""
    values = []
    for d in range(dmax + 1):
        basis = monomials(nvars, d)
        index = {m: k for k, m in enumerate(basis)}
        rows = []
        for f in polys:
            deg = sum(next(iter(f)))
            for shift in monomials(nvars, d - deg):
                row = [0] * len(basis)
                for m, c in f.items():
                    row[index[tuple(a + b for a, b in zip(m, shift))]] = c
                rows.append(row)
        values.append(len(basis) - rank_mod_p(rows, p))
    return values


def koszul_pattern(n, a, b, dmax):
    """Quotient dimensions of a complete intersection of degrees a, b in P^n."""
    def r(d):
        return math.comb(d + n, n) if d >= 0 else 0
    return [r(d) - r(d - a) - r(d - b) + r(d - a - b) for d in range(dmax + 1)]


def eagon_northcott_pattern(n, dmax):
    """Quotient dimensions of the 2x2 minors of a generic 2x3 linear matrix.

    The Eagon-Northcott resolution 0 <- R <- R(-2)^3 <- R(-3)^2 <- 0.
    """
    def r(d):
        return math.comb(d + n, n) if d >= 0 else 0
    return [r(d) - 3 * r(d - 2) + 2 * r(d - 3) for d in range(dmax + 1)]


def evaluate(poly, point, p):
    total = 0
    for m, c in poly.items():
        term = c
        for x, e in zip(point, m):
            term = term * pow(x, e, p)
        total += term
    return total % p


def points_hilbert(points, p, dmax):
    """dim (R/I)_d for the ideal I of a set of points in P^2.

    The degree-d forms vanishing at the points are the kernel of the
    evaluation matrix, so dim I_d = binom(d+2, 2) - rank and the quotient
    has dimension rank.
    """
    values = []
    for d in range(dmax + 1):
        basis = monomials(3, d)
        rows = [[evaluate({m: 1}, pt, p) for m in basis] for pt in points]
        dim_ideal = math.comb(d + 2, 2) - rank_mod_p(rows, p)
        values.append(len(basis) - dim_ideal)
    return values


def check_hilbert(gens, nvars, expected, what):
    """The gin's Hilbert function against one computed another way."""
    actual = hilbert_of_monomial_ideal(gens, nvars, len(expected) - 1)
    if actual != list(expected):
        return [f"Hilbert function of the gin {actual} differs from {what} "
                f"{list(expected)}"]
    return []


def hilbert_dmax(gens):
    """The last degree at which Hilbert functions are compared: two past the
    largest generator degree of the gin."""
    return max(sum(g) for g in gens) + 2
