"""Combinatorics of monomial ideals and their two-variable staircases.

Everything here is exact set arithmetic on exponent tuples: elementary
moves, the Borel-fixedness tests (strong stability, and its
characteristic-p form), colons by monomials, slices, gap degrees, and the
profile invariants read off the staircase of the ideal's trace in K[x0, x1].

One rule slices.  (M : x^p) is generated by the g / gcd(g, x^p) for the
generators g of M.  Setting the sliced variables to zero keeps those with
g_i <= p_i on every sliced variable i, each with its other exponents, and
kills every other one, which keeps a sliced variable.  ``slice_level``,
``two_variable_trace`` and every profile read their slice straight off
the generators this way, without building the colon.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import le

from .ring import (Monomial, mono_degree, mono_divides, mono_div, mono_gcd,
                   revlex_key)


class ComputationError(RuntimeError):
    """Valid input on which a computation cannot give a certified answer."""


# Both are also ValueErrors, so that callers catching bad input catch them.
class DegenerateProfileError(ComputationError, ValueError):
    """The ideal meets K[x0, x1] in something without a finite staircase."""


class UnsaturatedIdealError(ComputationError, ValueError):
    """A generator involves the last variable where saturation is required."""


class GinUnstableError(ComputationError):
    """No sample is certified as the gin; the field may be too small."""


def minimal_monomials(monos) -> list:
    """Minimal generators among monomials of one length, in no set order."""
    kept = []
    for m in sorted(set(monos), key=sum):
        if not any(all(map(le, g, m)) for g in kept):
            kept.append(m)
    return kept


@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal monomial generator set; () is the zero ideal."""

    nvars: int
    gens: tuple

    @classmethod
    def from_monomials(cls, nvars, monos):
        monos = tuple(monos)
        for m in monos:
            if len(m) != nvars:
                raise ValueError("generator has wrong number of variables")
        return cls(nvars, tuple(sorted(minimal_monomials(monos),
                                       key=revlex_key, reverse=True)))

    def is_zero(self):
        return not self.gens

    def contains(self, mono: Monomial) -> bool:
        return any(mono_divides(g, mono) for g in self.gens)

    def max_degree(self):
        return max((mono_degree(g) for g in self.gens), default=0)

    def max_exponent(self, axis):
        return max((g[axis] for g in self.gens), default=0)


def elementary_move(m: Monomial, j: int):
    """Swap one factor x_j for x_{j-1}; None when x_j does not occur."""
    if not 1 <= j < len(m):
        raise ValueError(f"move index {j} out of range 1..{len(m) - 1}")
    if m[j] == 0:
        return None
    e = list(m)
    e[j] -= 1
    e[j - 1] += 1
    return tuple(e)


def is_borel_fixed(M: MonomialIdeal):
    """(True, None) or (False, (generator, j)) for the first failing move.

    Checking generators suffices: moves commute with multiplication, so a
    move of any member lands in the ideal as soon as all generator moves do.
    """
    for g in M.gens:
        for j in range(1, M.nvars):
            moved = elementary_move(g, j)
            if moved is not None and not M.contains(moved):
                return False, (g, j)
    return True, None


def is_p_borel_fixed(M: MonomialIdeal, p: int):
    """(True, None) or (False, (generator, moved)): M is Borel-fixed in
    characteristic p, and ``moved`` is a required move that leaves M.

    For a generator g whose x_j-exponent is t, the moves
    x_j^s -> x_i^s (i < j) are required only when C(t, s) is nonzero mod p,
    that is, when no base-p digit of s exceeds the one of t (Lucas); the
    generators suffice (Eisenbud, Commutative Algebra, Thm 15.23; Pardue,
    Nonstandard Borel-fixed ideals, 1994).  Where every exponent is below p
    every move is required, and this is strong stability: the
    elementary-move test ``is_borel_fixed`` runs, with its witness.
    """
    if all(a < p for g in M.gens for a in g):
        return is_borel_fixed(M)
    for g in M.gens:
        for j in range(1, M.nvars):
            for s in range(1, g[j] + 1):
                if not _lucas_nonzero(g[j], s, p):
                    continue
                for i in range(j):
                    moved = list(g)
                    moved[i] += s
                    moved[j] -= s
                    if not M.contains(tuple(moved)):
                        return False, (g, tuple(moved))
    return True, None


def _lucas_nonzero(t, s, p):
    """Whether C(t, s) is nonzero mod p, digit by digit in base p."""
    while s:
        if s % p > t % p:
            return False
        s, t = s // p, t // p
    return True


def colon_by_monomial(M: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """(M : m); exact for monomial ideals via u -> u / gcd(u, m)."""
    if len(m) != M.nvars:
        raise ValueError("monomial has wrong number of variables")
    if any(e < 0 for e in m):
        raise ValueError(f"negative exponent in {tuple(m)}")
    return MonomialIdeal.from_monomials(
        M.nvars, (mono_div(g, mono_gcd(g, m)) for g in M.gens))


def restrict_last(M: MonomialIdeal) -> MonomialIdeal:
    """Set x_n = 0: generators involving x_n vanish, the rest lose the slot,
    a zero in each, which changes neither divisibility among them nor
    their order by ``revlex_key``: they stay minimal and sorted."""
    if M.nvars < 2:
        raise ValueError("cannot restrict away the only variable")
    return MonomialIdeal(M.nvars - 1,
                         tuple(g[:-1] for g in M.gens if g[-1] == 0))


def slice_level(M: MonomialIdeal, axis: int, level: int) -> MonomialIdeal:
    """The level-p cross-section (M : x_axis^p) with x_axis then set to 0:
    the generators with x_axis-exponent at most p, that slot dropped."""
    if not 2 <= axis < M.nvars:
        raise ValueError(f"slice axis {axis} out of range 2..{M.nvars - 1}")
    if level < 0:
        raise ValueError("negative slice level")
    return MonomialIdeal.from_monomials(
        M.nvars - 1, (g[:axis] + g[axis + 1:] for g in M.gens
                      if g[axis] <= level))


def gap_degrees(M: MonomialIdeal) -> tuple:
    """Degrees strictly between the generator extremes with no generator."""
    if not M.gens:
        return ()
    present = {mono_degree(g) for g in M.gens}
    return tuple(d for d in range(min(present) + 1, max(present))
                 if d not in present)


def truncate_monomial(M: MonomialIdeal, delta: int) -> MonomialIdeal:
    """Keep the generators of degree <= delta."""
    if delta < 0:
        raise ValueError("negative truncation degree")
    return MonomialIdeal.from_monomials(
        M.nvars, (g for g in M.gens if mono_degree(g) <= delta))


# ---------------------------------------------------------------------------
# staircase profiles

@dataclass(frozen=True)
class InvariantProfile:
    """Two-variable staircase data: x0^s, x0^{s-1} x1^{l_{s-1}}, .., x1^{l_0}."""

    s: int
    lambdas: tuple

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("s must be positive")
        if len(self.lambdas) != self.s:
            raise ValueError("need exactly s lambda values")
        if any(l < 1 for l in self.lambdas):
            raise ValueError("lambda values must be positive")

    def generators(self):
        """The staircase ideal in K[x0, x1] this profile describes."""
        gens = [(self.s, 0)]
        gens.extend((i, l) for i, l in enumerate(self.lambdas))
        return MonomialIdeal.from_monomials(2, gens)


def is_connected(profile: InvariantProfile):
    """Check l_{i+1} + 2 >= l_i >= l_{i+1} + 1 on each adjacent pair.

    Returns (True, None) or (False, i) for the first violating index; a
    profile with s = 1 has no adjacent pairs and is vacuously connected.
    """
    lam = profile.lambdas
    for i in range(profile.s - 1):
        if not lam[i + 1] + 1 <= lam[i] <= lam[i + 1] + 2:
            return False, i
    return True, None


def profile_from_two_vars(M: MonomialIdeal) -> InvariantProfile:
    """Read (s, lambdas) from a two-variable monomial ideal's staircase."""
    if M.nvars != 2:
        raise ValueError("profile extraction needs a two-variable ideal")
    if M.is_zero():
        raise DegenerateProfileError("zero ideal has no staircase")
    pure_x0 = [a for a, b in M.gens if b == 0]
    if not pure_x0:
        raise DegenerateProfileError("no pure x0 power: staircase not finite")
    s = min(pure_x0)
    if s == 0:
        raise DegenerateProfileError("unit ideal has no staircase")
    lambdas = []
    for i in range(s):
        candidates = [b for a, b in M.gens if a <= i]
        if not candidates:
            raise DegenerateProfileError(
                f"no generator with x0-exponent <= {i}: staircase not finite")
        lambdas.append(min(candidates))
    return InvariantProfile(s, tuple(lambdas))


def two_variable_trace(M: MonomialIdeal, p_tilde) -> MonomialIdeal:
    """(M : x2^p2 .. xn^pn) intersected with K[x0, x1].

    ``p_tilde`` lists one non-negative exponent per variable from x2 on.
    The generators with g_i <= p_i for every i >= 2 survive, on x0 and x1
    alone: a two-variable monomial lies in the colon exactly when one of
    them divides it.
    """
    if len(p_tilde) != M.nvars - 2:
        raise ValueError("multi-index must cover x2..xn")
    if any(l < 0 for l in p_tilde):
        raise ValueError("multi-index entries must be non-negative")
    return MonomialIdeal.from_monomials(
        2, (g[:2] for g in M.gens if all(map(le, g[2:], p_tilde))))


def profile_at(M: MonomialIdeal, p_tilde) -> InvariantProfile:
    """Profile of (M : x2^p2 .. xn^pn) traced onto K[x0, x1].

    ``p_tilde`` lists one exponent per variable from x2 on; no saturation
    assumption is made, so the last axis participates like any other.
    """
    return profile_from_two_vars(two_variable_trace(M, p_tilde))


def _require_borel_saturated(M: MonomialIdeal):
    """Reject what ``invariant_table`` cannot read."""
    if M.nvars < 3:
        raise ValueError(
            "profiles need at least three variables; read two-variable "
            "staircases with profile_from_two_vars")
    if any(g[-1] != 0 for g in M.gens):
        raise UnsaturatedIdealError("a generator involves the last variable")
    ok, witness = is_borel_fixed(M)
    if not ok:
        raise ValueError(f"ideal is not Borel-fixed: witness {witness}")


@dataclass(frozen=True)
class InvariantTable:
    """Profiles for every multi-index within the per-axis stabilization bounds."""

    nvars: int
    axes: tuple          # variable indices x2..x_{n-1}
    bounds: tuple        # largest tabulated level per axis (includes sentinel)
    entries: tuple       # ((p_hat, profile), ...) sorted by p_hat

    def profile(self, p_hat):
        for key, prof in self.entries:
            if key == tuple(p_hat):
                return prof
        raise KeyError(f"no entry for {p_hat}")

    @property
    def s_at_zero(self):
        return self.profile((0,) * len(self.axes)).s

    @property
    def stable_profile(self):
        return self.profile(self.bounds)

    def to_json_entries(self):
        return [{"p_hat": list(key), "s": prof.s, "lambda": list(prof.lambdas)}
                for key, prof in self.entries]


def invariant_table(M: MonomialIdeal) -> InvariantTable:
    """Tabulate profiles for all p_hat up to max generator exponent plus one.

    M must be Borel-fixed and saturated.  The entry at p_hat is the profile
    at (p_hat, 0): for saturated M no generator involves x_n, so its
    exponent does not matter.  Slices by x_j^p are constant once p passes
    the largest x_j exponent of any generator, so the extra slot per axis
    certifies stabilization: a wider bound would only repeat the stable row.
    """
    _require_borel_saturated(M)
    axes = tuple(range(2, M.nvars - 1))
    bounds = tuple(M.max_exponent(j) + 1 for j in axes)
    entries = tuple((p_hat, profile_at(M, p_hat + (0,))) for p_hat in
                    itertools.product(*(range(b + 1) for b in bounds)))
    return InvariantTable(M.nvars, axes, bounds, entries)
