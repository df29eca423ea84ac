"""Exact arithmetic for homogeneous polynomials over a prime field.

Monomials are exponent tuples over variables x0..xn.  The public monomial
order is reverse lexicographic in the convention where a *lower* total
degree wins, and ties within a degree are broken at the rightmost index
where the exponents differ: the monomial with the smaller exponent there
is the greater one.  All coefficients live in F_p for a configurable
prime p.

Each ring carries one ascending sort key for its computational order: the
smallest key belongs to the greatest monomial, so a polynomial's terms are
its monomials sorted by key, lead first, and a heap of keys pops the
greatest pending monomial.  The default is grevlex, (-deg, m[::-1]), which
agrees with the public order within each degree.  Products and coordinate
changes gather every term in one dict and sort it once; their inner loops
add exponent tuples directly, after one check per call that the operands
come from the same ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add

DEFAULT_PRIME = 32003

Monomial = tuple  # exponent vector, one entry per variable


# ---------------------------------------------------------------------------
# monomial primitives

def mono_degree(m: Monomial) -> int:
    return sum(m)


def _check_same_length(a, b):
    if len(a) != len(b):
        raise ValueError(f"exponent vectors of different lengths: {len(a)} vs {len(b)}")


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    _check_same_length(a, b)
    return tuple(map(add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """Whether a divides b."""
    _check_same_length(a, b)
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """a / b; requires b | a."""
    _check_same_length(a, b)
    if not all(x >= y for x, y in zip(a, b)):
        raise ValueError(f"{b} does not divide {a}")
    return tuple(x - y for x, y in zip(a, b))


def mono_gcd(a: Monomial, b: Monomial) -> Monomial:
    _check_same_length(a, b)
    return tuple(min(x, y) for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    _check_same_length(a, b)
    return tuple(max(x, y) for x, y in zip(a, b))


def revlex_key(m: Monomial):
    """Sort key for the reverse lexicographic order; larger key = greater.

    Lower total degree is greater; within a degree the rightmost differing
    exponent decides, smaller exponent winning.
    """
    return (-sum(m), tuple(-e for e in reversed(m)))


def _grevlex_sort_key(m: Monomial):
    """Ascending sort key of grevlex; the smallest key is the greatest monomial.

    Higher degree comes first, then the smaller exponent at the rightmost
    differing index.  Agrees with revlex_key within each degree, which is
    the only case that matters for homogeneous polynomials; a well-order,
    so division terminates.
    """
    return (-sum(m), m[::-1])


def monomials_of_degree(nvars: int, d: int):
    """Iterate all exponent tuples of total degree d in lex order, x0^d
    first; not grevlex, which puts x1^2 before x0*x2."""
    if nvars == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in monomials_of_degree(nvars - 1, d - first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# rings and polynomials

# Miller-Rabin at these bases is exact below _PRIME_LIMIT, the least strong
# pseudoprime to all of them (Sorenson & Webster, Math. Comp. 86, 2017)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_LIMIT = 318665857834031151167461


def _is_prime(p):
    """Whether p is prime; exact for p below _PRIME_LIMIT."""
    if p < 2:
        return False
    for q in _BASES:
        if p % q == 0:
            return p == q
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PolyRing:
    """K[x0..xn] over F_p, with a fixed computational monomial order.

    A ring in grevlex, the default, is graded: it enforces the
    homogeneous-only contract, so sums of nonzero polynomials of different
    degrees are rejected.  The elimination ring that ideal intersection
    builds with its own ``sort_key`` relaxes this.
    """

    def __init__(self, nvars, prime=DEFAULT_PRIME, sort_key=_grevlex_sort_key):
        if nvars < 1:
            raise ValueError("need at least one variable")
        if prime >= _PRIME_LIMIT:
            raise ValueError(f"modulus {prime} is past the primality test's "
                             f"limit: need p < {_PRIME_LIMIT}")
        if not _is_prime(prime):
            raise ValueError(f"modulus {prime} is not prime")
        self.nvars = nvars
        self.prime = prime
        self.sort_key = sort_key
        self.graded = sort_key is _grevlex_sort_key
        self._zero = Poly(self, ())

    def __eq__(self, other):
        return (isinstance(other, PolyRing)
                and self.nvars == other.nvars
                and self.prime == other.prime
                and self.sort_key is other.sort_key)

    def __hash__(self):
        return hash((self.nvars, self.prime, id(self.sort_key)))

    def __repr__(self):
        return f"PolyRing(nvars={self.nvars}, prime={self.prime})"

    # -- element constructors

    def zero(self):
        return self._zero

    def one(self):
        return self.monomial((0,) * self.nvars)

    def variable(self, i):
        if not 0 <= i < self.nvars:
            raise ValueError(f"no variable x{i} in a ring with {self.nvars} variables")
        e = [0] * self.nvars
        e[i] = 1
        return self.monomial(tuple(e))

    def monomial(self, mono, coeff=1):
        if len(mono) != self.nvars:
            raise ValueError("exponent vector has wrong length")
        c = coeff % self.prime
        if c == 0:
            return self._zero
        return Poly(self, ((tuple(mono), c),))

    def from_dict(self, coeffs):
        """The polynomial with these coefficients, reduced mod p, in one sort."""
        p = self.prime
        return Poly(self, tuple((m, c) for m in sorted(coeffs, key=self.sort_key)
                                if (c := coeffs[m] % p)))

    def linear_form(self, coeffs):
        """The form sum(coeffs[i] * x_i); rejects the zero vector."""
        if len(coeffs) != self.nvars:
            raise ValueError("coefficient vector has wrong length")
        f = self.from_dict({tuple(1 if j == i else 0 for j in range(self.nvars)): c
                            for i, c in enumerate(coeffs)})
        if f.is_zero():
            raise ValueError("linear form must be nonzero")
        return f

    def random_form(self, degree, rng):
        """Dense random homogeneous form of the given degree."""
        while True:
            f = self.from_dict({m: rng.randrange(self.prime)
                                for m in monomials_of_degree(self.nvars, degree)})
            if not f.is_zero():
                return f

    def general_linear_form(self, rng):
        """Random linear form with a unit coefficient on x_n."""
        while True:
            coeffs = [rng.randrange(self.prime) for _ in range(self.nvars)]
            if coeffs[-1]:
                return self.linear_form(coeffs)

    def restricted(self):
        """The grevlex ring in one fewer variable, built once per ring."""
        return self._restricted

    @cached_property
    def _restricted(self):
        if not self.graded:  # dropping x_n keeps the order of grevlex terms only
            raise ValueError("restriction needs a graded ring")
        if self.nvars == 1:
            raise ValueError("cannot drop the last remaining variable")
        return PolyRing(self.nvars - 1, self.prime)

    def inv(self, c):
        c %= self.prime
        if c == 0:
            raise ZeroDivisionError("inverse of zero in F_p")
        return pow(c, self.prime - 2, self.prime)


class Poly:
    """Immutable polynomial; terms are (monomial, coeff) pairs, lead first."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def is_zero(self):
        return not self.terms

    @property
    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m, _ in self.terms)

    def is_homogeneous(self):
        return len({mono_degree(m) for m, _ in self.terms}) <= 1

    @property
    def lead_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no initial monomial")
        return self.terms[0][0]

    @property
    def lead_coeff(self):
        if not self.terms:
            raise ValueError("zero polynomial has no lead coefficient")
        return self.terms[0][1]

    def monic(self):
        if not self.terms:
            return self
        inv = self.ring.inv(self.terms[0][1])
        if inv == 1:
            return self
        p = self.ring.prime
        return Poly(self.ring, tuple((m, (c * inv) % p) for m, c in self.terms))

    def scale(self, c):
        p = self.ring.prime
        c %= p
        if c == 0:
            return self.ring.zero()
        if c == 1:
            return self
        return Poly(self.ring, tuple((m, (t * c) % p) for m, t in self.terms))

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def __add__(self, other):
        self._check_ring(other)
        acc = dict(self.terms)
        add_into(acc, other)
        return self.ring.from_dict(acc)

    def __neg__(self):
        p = self.ring.prime
        return Poly(self.ring, tuple((m, p - c) for m, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_ring(other)
        return self.ring.from_dict(_expand(self.terms, other.terms, {}))

    def mul_term(self, mono, coeff):
        p = self.ring.prime
        coeff %= p
        if coeff == 0 or not self.terms:
            return self.ring.zero()
        _check_same_length(mono, self.terms[0][0])
        return Poly(self.ring, tuple((tuple(map(add, m, mono)), (c * coeff) % p)
                                     for m, c in self.terms))

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring.nvars, self.ring.prime, self.terms))

    def __repr__(self):
        from .parsing import render_poly
        return render_poly(self)


def _expand(a, b, acc):
    """Add the product of the term sequences a and b into the dict acc.

    Exponent tuples are added inline, so the caller checks once that both
    sides have the same number of variables.  Coefficients are left
    unreduced; ``from_dict`` or ``_reduced`` reduces them.
    """
    for m1, c1 in a:
        for m2, c2 in b:
            m = tuple(map(add, m1, m2))
            acc[m] = acc.get(m, 0) + c1 * c2
    return acc


def add_into(acc, f: Poly, sign=1):
    """Add sign * f into acc, the dict of the nonzero coefficients of a sum.

    In a graded ring a nonzero sum and a nonzero f of another degree raise
    ``ValueError``; a sum that has cancelled to zero takes any f.
    """
    # in a graded ring sums are homogeneous: one term gives the degree
    if f.ring.graded and acc and f.terms \
            and sum(first := next(iter(acc))) != sum(f.terms[0][0]):
        raise ValueError(
            f"inhomogeneous sum: degrees {sum(first)} and {f.degree}")
    p = f.ring.prime
    for m, c in f.terms:
        if v := (acc.get(m, 0) + sign * c) % p:
            acc[m] = v
        else:
            acc.pop(m, None)


def _reduced(acc, p):
    """The nonzero terms of an unreduced coefficient dict, in no order."""
    return [(m, r) for m, c in acc.items() if (r := c % p)]


# ---------------------------------------------------------------------------
# linear changes of coordinates

@dataclass(frozen=True)
class LinearChange:
    """Invertible substitution x_i -> sum_j matrix[i][j] * x_j."""

    ring: PolyRing
    matrix: tuple  # (n+1) x (n+1), entries in F_p

    def __post_init__(self):
        n = self.ring.nvars
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise ValueError("matrix has wrong shape")
        if _det_mod(self.matrix, self.ring.prime) == 0:
            raise ValueError("singular matrix")

    @classmethod
    def random(cls, ring, rng):
        """A random unipotent change x_i -> x_i + sum_{j<i} c_ij * x_j.

        Row i holds i entries drawn uniformly from F_p, row by row, then 1
        on the diagonal and zeros after it, so the draw is never singular.
        This suffices for the gin.  An upper-triangular b, which sends each
        variable to a multiple of itself plus later, smaller variables, keeps
        every lead monomial, so in(gI) depends only on the coset gB of the
        matrix g in the Borel group B of upper-triangular matrices.  The
        changes with in(gI) = gin(I) therefore form a nonempty Zariski-open
        set stable under B.  The big Bruhat cell, the products u*b of a
        lower unipotent u and a b in B, is dense, so that set contains some
        u*b, hence u: it meets the unipotent group in a nonempty open set of
        its n(n-1)/2 entries (Galligo; Bayer and Stillman; Eisenbud,
        Commutative Algebra, Thms 15.18-15.20 and sec. 15.9).  The triangle
        matters: this one sends x_n to a generic form, and the transposed
        one fixes x_n.  Image i has i + 1 terms, so a change expands far
        fewer products than a dense one.
        """
        n, p = ring.nvars, ring.prime
        return cls(ring, tuple(
            tuple(rng.randrange(p) for _ in range(i)) + (1,) + (0,) * (n - 1 - i)
            for i in range(n)))

    @cached_property
    def _powers(self):
        """Per variable, {e: the terms of image^e}, filled on demand.

        Shared by every ``apply`` of this change.  Filling a power is
        idempotent, so concurrent callers at worst compute it twice.
        """
        one = (0,) * self.ring.nvars
        return [{0: ((one, 1),), 1: self.ring.linear_form(row).terms}
                for row in self.matrix]

    def _power(self, i, e):
        cache = self._powers[i]
        if e not in cache:
            cache[e] = _reduced(_expand(self._power(i, e - 1), cache[1], {}),
                                self.ring.prime)
        return cache[e]

    def apply(self, f: Poly) -> Poly:
        """Substitute each variable by its image row and expand.

        Horner's scheme, one variable at a time: the terms of f are grouped
        by their exponent e of x_i, each group's image in the later
        variables is expanded once and multiplied by image_i^e.  Every
        product is added into one dict, sorted once at the end.
        """
        if f.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        return self.ring.from_dict(self._expand_from(f.terms, 0, {}))

    def _expand_from(self, terms, i, acc):
        """Add the image of the terms, read from x_i on, into acc."""
        n = self.ring.nvars
        if i == n - 1:
            one = (0,) * n
            for m, c in terms:
                _expand(((one, c),), self._power(i, m[i]), acc)
            return acc
        groups = {}
        for t in terms:
            groups.setdefault(t[0][i], []).append(t)
        for e, group in groups.items():
            if e == 0:
                self._expand_from(group, i + 1, acc)
            else:
                inner = self._expand_from(group, i + 1, {})
                _expand(_reduced(inner, self.ring.prime), self._power(i, e), acc)
        return acc


def _det_mod(matrix, p):
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


def last_image(h: Poly) -> Poly:
    """psi(x_n) for the change psi that sends the linear form h to x_n.

    psi fixes x0..x_{n-1} and substitutes
    x_n -> (x_n - sum_{i<n} h_i x_i) / h_n, so h needs a nonzero coefficient
    on x_n.  Its inverse substitutes x_n -> h.
    """
    if h.is_zero():
        raise ValueError("cannot restrict by the zero form")
    if h.degree != 1:
        raise ValueError("restriction requires a linear form")
    ring = h.ring
    coeffs = [0] * ring.nvars
    for m, c in h.terms:
        coeffs[m.index(1)] = c
    if coeffs[-1] == 0:
        raise ValueError("form has no x_n component; permute variables first")
    inv = ring.inv(coeffs[-1])
    return ring.linear_form([-c * inv for c in coeffs[:-1]] + [inv])


def substitute_last(f: Poly, image: Poly) -> Poly:
    """f with the last variable x_n replaced by the linear form image.

    Like ``LinearChange.apply``, it expands into one dict and sorts once.
    """
    f._check_ring(image)
    return _substitute_last(f, image)


def _substitute_last(f: Poly, image: Poly) -> Poly:
    """f with x_n replaced by image, a linear form in f's ring or in its
    restriction; in the restriction every monomial of f loses its x_n."""
    ring = image.ring
    pad = (0,) * (ring.nvars - f.ring.nvars + 1)  # (0,) keeps x_n, () drops it
    p = ring.prime
    powers = [ring.one().terms]
    acc = {}
    for mono, coeff in f.terms:
        e = mono[-1]
        while len(powers) <= e:
            powers.append(_reduced(_expand(powers[-1], image.terms, {}), p))
        _expand(((mono[:-1] + pad, coeff),), powers[e], acc)
    return ring.from_dict(acc)


def drop_last(f: Poly) -> Poly:
    """f modulo x_n, written in one fewer variable.

    Deleting a zero last exponent keeps the order of the remaining terms.
    """
    return Poly(f.ring.restricted(),
                tuple((m[:-1], c) for m, c in f.terms if m[-1] == 0))


def restrict(f: Poly, h: Poly) -> Poly:
    """f modulo the linear form h, written in one fewer variable.

    h must have a nonzero coefficient on the last variable x_n (otherwise
    pre-compose with a variable permutation).  The result is psi(f) with its
    x_n terms dropped, for the change psi of ``last_image``: it substitutes
    x_n = -(1/h_n) * sum_{i<n} h_i x_i, expanded in the restricted ring, so
    no term with x_n is ever formed.  For h = c * x_n that form is 0.
    """
    if h.ring != f.ring:
        raise ValueError("form from a different ring")
    return _substitute_last(f, drop_last(last_image(h)))
