"""Exact arithmetic for homogeneous polynomials over a prime field.

Monomials are exponent tuples over variables x0..xn.  The public monomial
order is reverse lexicographic in the convention where a *lower* total
degree wins, and ties within a degree are broken at the rightmost index
where the exponents differ: the monomial with the smaller exponent there
is the greater one.  All coefficients live in F_p for a configurable
prime p.

Each ring fixes its computational order by integer weight rows: of two
monomials the greater is the one with the smaller value row . m at the
first row where they differ, and past the rows the smaller m[::-1], the
smaller exponent at the rightmost index where they differ.  No rows means
grevlex, the single row (-1, ..., -1): higher degree first, which agrees
with the public order within each degree.  Only a grevlex ring is graded.

Packed monomials.  Inside the kernel a monomial is one int, its key
``ring.sort_key(m)``: the sum of e_i * W_i for a fixed weight W_i per
variable.  From the low bits up the key holds 16-bit fields, the total
degree and then e_0, ..., e_n, and above them each row's value in a signed
field wide enough for it, the first row highest.  So:

* integer order is the term order, the smallest key the greatest
  monomial: a polynomial's terms are its keys in ascending order, lead
  first, and a heap of keys pops the greatest pending monomial;
* the key is linear in m: the key of a product is the sum of the keys;
* with G the top bit of every exponent field, l divides m exactly when
  ((m | G) - l) & G == G, as no exponent field borrows from the next: the
  degree field below them borrows only when deg l > deg m;
* k & DEGREE_MASK is the total degree.

The degree field never decides a comparison, since the exponent fields
above it break every tie.  A monomial's total degree must stay below
DEGREE_BOUND = 2^15, which keeps every guard bit clear.  One past it is
refused with ``ValueError`` where its Poly is built, and so is a product
that would cross it: two keys within the bound add without a carry out of
any field, so a crossing shows in the degree field's guard bit.

A Poly keeps its terms packed, as (key, coefficient) pairs lead first.
``Poly.terms``, the same pairs with exponent tuples, stays the public view
because callers read exponents; it is derived when first read, so a Poly
that the kernel builds and nobody reads holds one form only.  Products and
coordinate changes gather every term in one dict and sort it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add, mul

DEFAULT_PRIME = 32003

Monomial = tuple  # exponent vector, one entry per variable

_FIELD = 16                          # bits per degree or exponent field
_GUARD = 1 << (_FIELD - 1)           # the top bit of a field
DEGREE_MASK = (1 << _FIELD) - 1      # key & DEGREE_MASK is the total degree
DEGREE_BOUND = _GUARD                # total degrees stay below this


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

    ``order`` is a sequence of integer weight rows, one weight per
    variable, ties broken by m[::-1] (see the module docstring); ``None``,
    the default, is grevlex.  Rings with equal rows are equal.  A grevlex
    ring is graded: it enforces the homogeneous-only contract, so sums of
    nonzero polynomials of different degrees are rejected.  The elimination
    ring that ideal intersection builds with its own rows relaxes this.
    """

    def __init__(self, nvars, prime=DEFAULT_PRIME, order=None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        if prime >= _PRIME_LIMIT:
            raise ValueError(f"modulus {prime} is past the primality test's "
                             f"limit: need p < {_PRIME_LIMIT}")
        if not _is_prime(prime):
            raise ValueError(f"modulus {prime} is not prime")
        grevlex = ((-1,) * nvars,)
        if order is not None:
            order = tuple(tuple(int(w) for w in row) for row in order)
            if any(len(row) != nvars for row in order):
                raise ValueError(f"every order row needs {nvars} weights")
            if order == grevlex:
                order = None
        self.nvars = nvars
        self.prime = prime
        self.order = order
        self.graded = order is None
        rows = grevlex if order is None else order
        # a row's field holds its values for degrees below 2^16, with sign
        shift, shifts = _FIELD * (nvars + 1), []
        for row in reversed(rows):
            shifts.append(shift)
            shift += max(map(abs, row)).bit_length() + _FIELD + 2
        shifts.reverse()
        self._shifts = tuple(_FIELD * (i + 1) for i in range(nvars))
        self._weights = tuple(
            1 + (1 << s) + sum(row[i] << r for row, r in zip(rows, shifts))
            for i, s in enumerate(self._shifts))
        self.guards = sum(_GUARD << s for s in self._shifts)
        self._adjoined = {}
        self._zero = Poly(self, ())

    def __eq__(self, other):
        return self is other or (isinstance(other, PolyRing)
                                 and self.nvars == other.nvars
                                 and self.prime == other.prime
                                 and self.order == other.order)

    def __hash__(self):
        return hash((self.nvars, self.prime, self.order))

    def __repr__(self):
        return f"PolyRing(nvars={self.nvars}, prime={self.prime})"

    # -- packed monomials

    def sort_key(self, m) -> int:
        """The packed form of the exponent tuple m, unchecked: ascending
        keys are descending monomials."""
        return sum(map(mul, m, self._weights))

    def unpack(self, key) -> Monomial:
        """The exponent tuple of a packed monomial."""
        return tuple((key >> s) & DEGREE_MASK for s in self._shifts)

    def exponent(self, key, i) -> int:
        """The exponent of x_i in a packed monomial; i = -1 is the last."""
        return (key >> self._shifts[i]) & DEGREE_MASK

    def _checked_key(self, m) -> int:
        """The packed form of m, refusing what cannot be packed."""
        if len(m) != self.nvars:
            raise ValueError("exponent vectors of different lengths: "
                             f"{len(m)} vs {self.nvars}")
        if min(m) < 0:
            raise ValueError(f"negative exponent in {tuple(m)}")
        if sum(m) >= DEGREE_BOUND:
            raise ValueError(f"monomial of degree {sum(m)}: degrees must "
                             f"stay below {DEGREE_BOUND}")
        return self.sort_key(m)

    # -- element constructors

    def zero(self):
        return self._zero

    def one(self):
        return Poly(self, ((0, 1),))

    def variable(self, i):
        if not 0 <= i < self.nvars:
            raise ValueError(f"no variable x{i} in a ring with {self.nvars} variables")
        return Poly(self, ((self._weights[i], 1),))

    def monomial(self, mono, coeff=1):
        key = self._checked_key(mono)
        c = coeff % self.prime
        if c == 0:
            return self._zero
        return Poly(self, ((key, c),))

    def from_dict(self, coeffs):
        """The polynomial with these coefficients, keyed by exponent
        tuples, reduced mod p, in one sort."""
        return self.from_packed({self._checked_key(m): c
                                 for m, c in coeffs.items()})

    def from_packed(self, coeffs):
        """The same for a dict keyed by packed monomials of this ring."""
        p = self.prime
        return Poly(self, tuple((m, c) for m in sorted(coeffs)
                                if (c := coeffs[m] % p)))

    def linear_form(self, coeffs):
        """The form sum(coeffs[i] * x_i); rejects the zero vector."""
        if len(coeffs) != self.nvars:
            raise ValueError("coefficient vector has wrong length")
        f = self.from_packed(dict(zip(self._weights, coeffs)))
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

    def adjoined(self, order):
        """The ring with one more variable, last, in the given order;
        built once per ring and order."""
        order = tuple(map(tuple, order))
        ring = self._adjoined.get(order)
        if ring is None:
            ring = self._adjoined[order] = PolyRing(self.nvars + 1,
                                                    self.prime, order)
        return ring

    def inv(self, c):
        c %= self.prime
        if c == 0:
            raise ZeroDivisionError("inverse of zero in F_p")
        return pow(c, self.prime - 2, self.prime)


class Poly:
    """Immutable polynomial; ``packed`` holds its (packed monomial, coeff)
    pairs, lead first, and ``terms`` the same with exponent tuples."""

    __slots__ = ("ring", "packed", "_terms")

    def __init__(self, ring, packed):
        self.ring = ring
        self.packed = packed
        self._terms = None

    @property
    def terms(self):
        """(monomial, coeff) pairs, lead first, derived when first read."""
        if self._terms is None:
            unpack = self.ring.unpack
            self._terms = tuple((unpack(m), c) for m, c in self.packed)
        return self._terms

    def is_zero(self):
        return not self.packed

    @property
    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.packed:
            return -1
        return max(m & DEGREE_MASK for m, _ in self.packed)

    def is_homogeneous(self):
        return len({m & DEGREE_MASK for m, _ in self.packed}) <= 1

    @property
    def lead_monomial(self):
        if not self.packed:
            raise ValueError("zero polynomial has no initial monomial")
        return self.ring.unpack(self.packed[0][0])

    @property
    def lead_coeff(self):
        if not self.packed:
            raise ValueError("zero polynomial has no lead coefficient")
        return self.packed[0][1]

    def monic(self):
        if not self.packed:
            return self
        lc = self.packed[0][1]
        if lc == 1:  # inverting 1 is not free
            return self
        inv, p = self.ring.inv(lc), self.ring.prime
        return Poly(self.ring, tuple((m, (c * inv) % p) for m, c in self.packed))

    def scale(self, c):
        p = self.ring.prime
        c %= p
        if c == 0:
            return self.ring.zero()
        if c == 1:
            return self
        return Poly(self.ring, tuple((m, (t * c) % p) for m, t in self.packed))

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def _check_product_degree(self, degree):
        if self.packed and (d := self.degree + degree) >= DEGREE_BOUND:
            raise ValueError(f"product of degree {d}: degrees must stay "
                             f"below {DEGREE_BOUND}")

    def __add__(self, other):
        self._check_ring(other)
        acc = dict(self.packed)
        add_into(acc, other)
        return self.ring.from_packed(acc)

    def __neg__(self):
        p = self.ring.prime
        return Poly(self.ring, tuple((m, p - c) for m, c in self.packed))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_ring(other)
        if not other.packed:
            return self.ring.zero()
        self._check_product_degree(other.degree)
        return self.ring.from_packed(_expand(self.packed, other.packed, {}))

    def mul_term(self, mono, coeff):
        p = self.ring.prime
        coeff %= p
        key = self.ring._checked_key(mono)
        if coeff == 0 or not self.packed:
            return self.ring.zero()
        self._check_product_degree(key & DEGREE_MASK)
        # adding one key to every key keeps their order
        return Poly(self.ring, tuple((m + key, (c * coeff) % p)
                                     for m, c in self.packed))

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        if k and self.packed and self.degree * k >= DEGREE_BOUND:
            raise ValueError(f"power of degree {self.degree * k}: degrees "
                             f"must stay below {DEGREE_BOUND}")
        if self.degree <= 0:  # a constant: no degree bound stops the loop
            c = self.packed[0][1] if self.packed else 0
            return self.ring.one().scale(pow(c, k, self.ring.prime))
        result = self.ring.one()
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ring == other.ring
                and self.packed == other.packed)

    def __hash__(self):
        return hash((self.ring.nvars, self.ring.prime, self.packed))

    def __repr__(self):
        from .parsing import render_poly
        return render_poly(self)


def _expand(a, b, acc):
    """Add the product of the packed term sequences a and b into the dict
    acc.

    A product of monomials is the sum of their keys; the caller checks
    that both sides come from one ring and that the degrees stay in bounds.
    Coefficients are left unreduced; ``from_packed`` or ``_reduced``
    reduces them.
    """
    get = acc.get
    for m1, c1 in a:
        for m2, c2 in b:
            m = m1 + m2
            acc[m] = get(m, 0) + c1 * c2
    return acc


def add_into(acc, f: Poly, sign=1):
    """Add sign * f into acc, the dict of the nonzero coefficients of a
    sum, keyed by packed monomials.

    In a graded ring a nonzero sum and a nonzero f of another degree raise
    ``ValueError``; a sum that has cancelled to zero takes any f.
    """
    # in a graded ring sums are homogeneous: one term gives the degree
    if f.ring.graded and acc and f.packed and (
            (first := next(iter(acc)) & DEGREE_MASK) != f.packed[0][0] & DEGREE_MASK):
        raise ValueError(f"inhomogeneous sum: degrees {first} and {f.degree}")
    p = f.ring.prime
    for m, c in f.packed:
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
        """Per variable, {e: the packed terms of image^e}, filled on demand.

        Shared by every ``apply`` of this change.  Powers are filled in
        increasing order and filling one is idempotent, so concurrent
        callers at worst compute one twice.
        """
        return [{0: ((0, 1),), 1: self.ring.linear_form(row).packed}
                for row in self.matrix]

    def _power(self, i, e):
        cache = self._powers[i]
        for k in range(len(cache), e + 1):
            cache[k] = _reduced(_expand(cache[k - 1], cache[1], {}),
                                self.ring.prime)
        return cache[e]

    def apply(self, f: Poly) -> Poly:
        """Substitute each variable by its image row and expand.

        Horner's scheme, one variable at a time: the terms of f are grouped
        by their exponent e of x_i, each group's image in the later
        variables is expanded once and multiplied by image_i^e.  Every
        product is added into one dict, sorted once at the end.  The change
        keeps degrees, so no product leaves the bound.
        """
        if f.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        return self.ring.from_packed(self._expand_from(f.packed, 0, {}))

    def _expand_from(self, terms, i, acc):
        """Add the image of the packed terms, read from x_i on, into acc."""
        shift = self.ring._shifts[i]
        if i == self.ring.nvars - 1:
            for m, c in terms:
                power = self._power(i, (m >> shift) & DEGREE_MASK)
                _expand(((0, c),), power, acc)
            return acc
        groups = {}
        for t in terms:
            groups.setdefault((t[0] >> shift) & DEGREE_MASK, []).append(t)
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
    x_n -> (x_n - sum_{i<n} h_i x_i) / h_n; its inverse substitutes
    x_n -> h.  Every restriction, colon and section by h goes through here,
    and this is the one check on h.  ``ValueError`` refuses a ring that is
    not graded, an h that is not homogeneous of degree 1 (zero and the
    constants among them), and an h with no x_n term, each with its own
    message.
    """
    ring = h.ring
    if not ring.graded:
        raise ValueError("colons, sections and restrictions by a linear "
                         "form need a graded ring: in(J : x_n) = "
                         "in(J) : x_n and dropping x_n are facts of grevlex")
    if h.degree != 1 or not h.is_homogeneous():
        raise ValueError(f"colons, sections and restrictions are by linear "
                         f"forms only, not by {h}")
    coeffs = [0] * ring.nvars
    for m, c in h.packed:
        coeffs[ring._weights.index(m)] = c
    if coeffs[-1] == 0:
        raise ValueError(f"the form {h} has no x_n term")
    inv = ring.inv(coeffs[-1])
    return ring.linear_form([-c * inv for c in coeffs[:-1]] + [inv])


def substitute_last(f: Poly, image: Poly) -> Poly:
    """f with the last variable x_n replaced by the linear form image.

    Like ``LinearChange.apply``, it expands into one dict and sorts once.
    """
    f._check_ring(image)
    return _substitute_last(f, image)


def key_offset(src, dst) -> int:
    """The int C for which a key k of ``src``, of a monomial in the
    variables the two rings share, is k + (k & DEGREE_MASK) * C in ``dst``.

    It exists when the weights of those variables differ by one constant,
    as between a grevlex ring, its restriction and its elimination ring,
    whose rows weigh those variables alike.
    """
    offsets = {b - a for a, b in zip(src._weights, dst._weights)}
    if len(offsets) != 1:
        raise ValueError("the rings order their shared variables differently")
    return offsets.pop()


def _substitute_last(f: Poly, image: Poly) -> Poly:
    """f with x_n replaced by image, a linear form in f's ring or in its
    restriction; in the restriction every monomial of f loses its x_n."""
    ring, src = image.ring, f.ring
    shift, last, p = src._shifts[-1], src._weights[-1], ring.prime
    offset = key_offset(src, ring)
    powers = [((0, 1),)]
    acc = {}
    for m, c in f.packed:
        e = (m >> shift) & DEGREE_MASK
        while len(powers) <= e:
            powers.append(_reduced(_expand(powers[-1], image.packed, {}), p))
        head = m - e * last
        _expand(((head + (head & DEGREE_MASK) * offset, c),), powers[e], acc)
    return ring.from_packed(acc)


def drop_last(f: Poly) -> Poly:
    """f modulo x_n, written in one fewer variable.

    Deleting a zero last exponent keeps the order of the remaining terms.
    """
    ring = f.ring.restricted()
    shift, offset = f.ring._shifts[-1], key_offset(f.ring, ring)
    return Poly(ring, tuple((m + (m & DEGREE_MASK) * offset, c)
                            for m, c in f.packed
                            if not (m >> shift) & DEGREE_MASK))


def restrict(f: Poly, h: Poly) -> Poly:
    """f modulo the linear form h, written in one fewer variable.

    h must be a linear form with a nonzero coefficient on the last variable
    x_n.  The result is psi(f) with its x_n terms dropped, for the change
    psi of ``last_image``, which checks h: it substitutes
    x_n = -(1/h_n) * sum_{i<n} h_i x_i, expanded in the restricted ring, so
    no term with x_n is ever formed.  For h = c * x_n that form is 0.
    """
    if h.ring != f.ring:
        raise ValueError("form from a different ring")
    return _substitute_last(f, drop_last(last_image(h)))
