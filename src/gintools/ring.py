"""Exact arithmetic for homogeneous polynomials over a prime field.

Monomials are exponent tuples over variables x0..xn.  The public monomial
order is reverse lexicographic in the convention where a *lower* total
degree wins, and ties within a degree are broken at the rightmost index
where the exponents differ: the monomial with the smaller exponent there
is the greater one.  All coefficients live in F_p for a configurable
prime p.

A ring built by ``PolyRing(nvars, prime)`` computes in grevlex, the single
weight row (-1, ..., -1): of two monomials the greater is the one with
the smaller value row . m, so the higher degree, and within a degree the
one with the smaller m[::-1], the smaller exponent at the rightmost index
where they differ, which agrees with the public order.  Such a ring is
graded.  The one other order is private to ``groebner.intersect``, whose
elimination ring packs two rows the same way (``PolyRing._pack``), the
first row deciding, and is not graded.

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
coordinate changes, one variable at a time, fill one dict and sort it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul

DEFAULT_PRIME = 32003

Monomial = tuple  # exponent vector, one entry per variable

_FIELD = 16                          # bits per degree or exponent field
_GUARD = 1 << (_FIELD - 1)           # the top bit of a field
DEGREE_MASK = (1 << _FIELD) - 1      # key & DEGREE_MASK is the total degree
DEGREE_BOUND = _GUARD                # total degrees stay below this
# a ring's weights take about 2 * nvars^2 bytes: 2 MB at this bound, and
# gigabytes at 10^5 variables, far past anything a basis is computed in
MAX_NVARS = 1 << 10


def check_degree(degree, what="monomial"):
    """The total degree of a ``what`` (monomial, product or power), refused
    with ValueError when it reaches DEGREE_BOUND."""
    if degree >= DEGREE_BOUND:
        raise ValueError(f"{what} of degree {degree}: degrees must stay "
                         f"below {DEGREE_BOUND}")
    return degree


# ---------------------------------------------------------------------------
# monomial primitives

def mono_degree(m: Monomial) -> int:
    return sum(m)


def _check_same_length(a, b):
    if len(a) != len(b):
        raise ValueError(f"exponent vectors of different lengths: {len(a)} vs {len(b)}")


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


def check_nvars(nvars):
    """Refuse, with ValueError, a variable count below 1 or past MAX_NVARS."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    if nvars > MAX_NVARS:
        raise ValueError(f"{nvars} variables: rings have at most {MAX_NVARS}")


def check_modulus(prime):
    """Refuse, with ValueError, a modulus that is not a prime below
    _PRIME_LIMIT."""
    if prime >= _PRIME_LIMIT:
        raise ValueError(f"modulus {prime} is past the primality test's "
                         f"limit: need p < {_PRIME_LIMIT}")
    if not _is_prime(prime):
        raise ValueError(f"modulus {prime} is not prime")


class PolyRing:
    """K[x0..xn] over F_p in grevlex.

    A ring is graded: it enforces the homogeneous-only contract, so sums of
    nonzero polynomials of different degrees are rejected.  Two rings with
    the same variable count and modulus are equal.  The elimination ring
    that ``groebner.intersect`` builds for itself relaxes the contract.
    """

    graded = True

    def __init__(self, nvars, prime=DEFAULT_PRIME):
        check_nvars(nvars)
        check_modulus(prime)
        self._pack(nvars, prime, ((-1,) * nvars,))

    def _pack(self, nvars, prime, rows):
        """Set up the ring with its packed monomials ordered by the weight
        rows ``rows`` (see the module docstring), unchecked."""
        self.nvars = nvars
        self.prime = prime
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
        self._zero = Poly(self, ())

    def __eq__(self, other):
        return self is other or (isinstance(other, PolyRing)
                                 and self.nvars == other.nvars
                                 and self.prime == other.prime
                                 and self.graded == other.graded)

    def __hash__(self):
        return hash((self.nvars, self.prime, self.graded))

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

    def variable_key(self, i) -> int:
        """The packed monomial x_i, unchecked."""
        return self._weights[i]

    def _checked_key(self, m) -> int:
        """The packed form of m, refusing what cannot be packed."""
        if len(m) != self.nvars:
            raise ValueError("exponent vectors of different lengths: "
                             f"{len(m)} vs {self.nvars}")
        if min(m) < 0:
            raise ValueError(f"negative exponent in {tuple(m)}")
        check_degree(sum(m))
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
        """Dense random homogeneous form of the given degree; one with no
        monomial, or none that packs, is refused before any is listed."""
        if degree < 0:
            raise ValueError(f"no form has the negative degree {degree}")
        check_degree(degree, "form")
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
        if self.packed:
            check_degree(self.degree + degree, "product")

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

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        if k and self.packed:
            check_degree(self.degree * k, "power")
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
    """Add the product of the packed term sequences a and b, unreduced,
    into the dict acc: a product of monomials is the sum of their keys.
    The caller checks that both come from one ring, and the degrees."""
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
    """Invertible substitution x_i -> sum_{j<=i} matrix[i][j] * x_j.

    The matrix is lower triangular with a nonzero diagonal, as every change
    the system makes is: the unipotent draws of ``random``, and the change
    psi of ``last_image`` written out as a matrix.  Any other matrix, or one
    of the wrong shape, is refused with ``ValueError``.  ``apply``
    substitutes x_i -> (row i) for i ascending: row i holds no later
    variable, so no step writes a variable that a later step rewrites.  A
    step rewrites each term c*m with x_i^e, e > 0, once and in place: it
    adds c * (image^e - x_i^e) * m / x_i^e.
    """

    ring: PolyRing
    matrix: tuple  # (n+1) x (n+1), entries in F_p

    def __post_init__(self):
        ring, n, p = self.ring, self.ring.nvars, self.ring.prime
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise ValueError("matrix has wrong shape")
        rows = [[a % p for a in row] for row in self.matrix]
        if any(any(row[i + 1:]) for i, row in enumerate(rows)):
            raise ValueError("matrix is not lower triangular")
        if not all(row[i] for i, row in enumerate(rows)):
            raise ValueError("singular matrix: a zero on the diagonal")
        steps = []  # (i, image of x_i, {e: image^e - x_i^e}), x_i -> x_i left out
        for i, row in enumerate(rows):
            image = [(w, c) for w, c in zip(ring._weights, row) if c]
            if image != [(ring._weights[i], 1)]:
                steps.append((i, image, {}))
        # frozen: past __setattr__, as cached_property sets
        vars(self).update(_steps=tuple(steps))

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
        one fixes x_n.  The draw is n - 1 steps, as it fixes x0.
        """
        n, p = ring.nvars, ring.prime
        return cls(ring, tuple(
            tuple(rng.randrange(p) for _ in range(i)) + (1,) + (0,) * (n - 1 - i)
            for i in range(n)))

    def _power(self, step, e):
        """image^e - x_i^e, packed, built on demand from the one below and
        kept for every ``apply``; filling one twice fills it alike."""
        i, image, powers = step
        x = self.ring._weights[i]
        for k in range(1, e + 1):
            if k not in powers:  # image^k = (powers[k-1] + x^(k-1)) * image
                acc = _expand([(x * (k - 1), 1), *powers.get(k - 1, ())], image, {})
                acc[x * k] -= 1
                powers[k] = _reduced(acc, self.ring.prime)
        return powers[e]

    def apply(self, f: Poly) -> Poly:
        """Substitute each variable by its image row and expand, by the
        steps of the class docstring in one dict, sorted once at the end; a
        step reduces the coefficients it reads.  Degrees stay in bounds."""
        if f.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        ring, p = self.ring, self.ring.prime
        acc = dict(f.packed)
        get = acc.get
        for step in self._steps:
            i, _, powers = step
            shift, weight = ring._shifts[i], ring._weights[i]
            # the terms the step rewrites, read before it writes any
            for m, c, e in [(m, c % p, e) for m, c in acc.items()
                            if (e := (m >> shift) & DEGREE_MASK)]:
                head = m - e * weight
                for k, a in powers.get(e) or self._power(step, e):
                    k += head
                    acc[k] = get(k, 0) + c * a
        return ring.from_packed(acc)


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
    """f with the last variable x_n replaced by the linear form image,
    expanded into one dict and sorted once."""
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
