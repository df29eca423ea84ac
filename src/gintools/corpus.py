"""Constructors and data files for the varieties that exercise the checks.

Entries live in ``data/<name>.ideal``: a header of ``key: value`` lines
(name, ambient dimension, prime, generation seed, tags), a ``gens:``
section and an optional ``expect:`` block of expected values produced by
the oracle regeneration pass; ``#`` starts a comment anywhere.  The
``gens:`` section is read by ``parse_ideal``, as ``--gens`` is, so commas,
semicolons and line breaks separate generators, and errors carry the
file's lines.  Random entries are seed-pinned;
``scripts/regenerate_corpus.py`` is the explicit maintenance command that
rebuilds them.  ``entry_report`` runs every check on one entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from importlib import resources

from .ring import DEFAULT_PRIME, PolyRing, check_modulus, check_nvars
from .groebner import (Ideal, _hilbert_numerator, _koszul_numerator,
                       hilbert_function, initial_ideal, intersect)
from .staircase import gap_degrees
from .gin import (child_rng, connectedness_from_table, gin, run_trace,
                  variety_invariants, verify_gap_truncation,
                  verify_slice_identity)
from .parsing import (ParseError, parse_ideal, render_monomial,
                      render_monomial_ideal, render_poly)

DATA = resources.files("gintools").joinpath("data")


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    n: int                    # ambient projective dimension
    prime: int
    seed: int
    gens: tuple
    tags: frozenset = field(default_factory=frozenset)
    expect: dict = field(default_factory=dict)

    @property
    def ring(self):
        return self.gens[0].ring

    def ideal(self):
        return Ideal(self.ring, self.gens)


# ---------------------------------------------------------------------------
# explicit varieties

def twisted_cubic(prime=DEFAULT_PRIME) -> Ideal:
    """The three 2x2 minors cutting out the twisted cubic curve in P^3."""
    return parse_ideal("x0*x2 - x1^2, x0*x3 - x1*x2, x1*x3 - x2^2", 4, prime)


def rational_quartic(prime=DEFAULT_PRIME) -> Ideal:
    """The smooth rational quartic curve (s^4, s^3 t, s t^3, t^4) in P^3."""
    return parse_ideal("x1*x2 - x0*x3, x1^3 - x0^2*x2, "
                       "x2^3 - x1*x3^2, x0*x2^2 - x1^2*x3", 4, prime)


# ---------------------------------------------------------------------------
# random varieties (seed-pinned when written to data files)

def point_ideal(ring, point) -> Ideal:
    """The saturated ideal of a single projective point.

    Raises ``ValueError`` for a point with the wrong number of
    coordinates, or one that is zero mod p.
    """
    p = ring.prime
    if len(point) != ring.nvars:
        raise ValueError(f"a point of P^{ring.nvars - 1} has {ring.nvars} "
                         f"coordinates, not {len(point)}")
    nonzero = [i for i, c in enumerate(point) if c % p]
    if not nonzero:
        raise ValueError(f"{tuple(point)} is zero mod {p}: not a point")
    k = nonzero[-1]
    gens = []
    for i in range(ring.nvars):
        if i == k:
            continue
        coeffs = [0] * ring.nvars
        coeffs[i] = point[k] % p
        coeffs[k] = (-point[i]) % p
        gens.append(ring.linear_form(coeffs))
    return Ideal(ring, gens)


def _canonical_point(pt, p):
    k = next(i for i, c in enumerate(pt) if c % p)
    inv = pow(pt[k], p - 2, p)
    return tuple((c * inv) % p for c in pt)


def _distinct_points(N, prime, draw) -> Ideal:
    """The ideal of the first N distinct points of P^2 that ``draw`` returns.

    Zero vectors and repeats are skipped; the ideals of single points are
    intersected in the order the points were first drawn.
    """
    points = {}   # canonical point -> None, in first-drawn order
    while len(points) < N:
        pt = draw()
        if any(pt):
            points.setdefault(_canonical_point(pt, prime))
    ring = PolyRing(3, prime)
    return reduce(intersect, (point_ideal(ring, pt) for pt in points))


def general_points(N, seed, prime=DEFAULT_PRIME) -> Ideal:
    """Intersection of the ideals of N uniformly random points in P^2.

    Coincident draws are rejected; the result is saturated by
    construction.
    """
    if N < 1:
        raise ValueError("need at least one point")
    if N > prime * prime + prime + 1:
        raise ValueError("more points requested than the plane holds")
    rng = child_rng(seed, "general-points", N)
    return _distinct_points(
        N, prime, lambda: tuple(rng.randrange(prime) for _ in range(3)))


def collinear_points(N, seed, prime=DEFAULT_PRIME) -> Ideal:
    """N distinct random points on a random line in P^2.

    Degenerate on purpose: the generic initial ideal picks up a linear
    generator and internal gap degrees, which the truncation checks need.
    """
    if N < 2:
        raise ValueError("need at least two points for a collinear family")
    if N > prime + 1:
        raise ValueError("more points requested than the line holds")
    rng = child_rng(seed, "collinear-points", N)
    # a line through two random points, then N points on it
    while True:
        a = tuple(rng.randrange(prime) for _ in range(3))
        b = tuple(rng.randrange(prime) for _ in range(3))
        if any(a) and any(b) and _canonical_point(a, prime) != _canonical_point(b, prime):
            break

    def on_line():
        t = rng.randrange(prime + 1)
        return b if t == prime else tuple((x + t * y) % prime
                                          for x, y in zip(a, b))
    return _distinct_points(N, prime, on_line)


# 1 - 3t^2 + 2t^3: three quadrics with two linear syzygies (Eagon-Northcott)
_DETERMINANTAL_NUMERATOR = [1, 0, -3, 2]


def _first_with_hilbert(numerator, build, seed, *labels) -> Ideal:
    """The first of 20 labelled draws with this Hilbert series numerator.

    Draw ``k`` is ``build(child_rng(seed, *labels, k))``; the numerator
    is that of its initial ideal, which has the same Hilbert series.
    """
    for attempt in range(20):
        I = build(child_rng(seed, *labels, attempt))
        if _hilbert_numerator(initial_ideal(I).gens, I.ring.nvars) == numerator:
            return I
    raise RuntimeError(f"no {labels[0]} ideal with the expected Hilbert "
                       "series; seed exhausted")


def complete_intersection(a, b, n, seed, prime=DEFAULT_PRIME) -> Ideal:
    """Two dense random forms of degrees a <= b in P^n.

    Degenerate pairs are detected by comparing the Hilbert series
    against the Koszul pattern and resampled.
    """
    if not 2 <= a <= b:
        raise ValueError("need 2 <= a <= b")
    if n < 3:
        raise ValueError("need ambient dimension at least 3")
    ring = PolyRing(n + 1, prime)
    return _first_with_hilbert(
        _koszul_numerator((a, b)),
        lambda rng: Ideal(ring, [ring.random_form(a, rng),
                                 ring.random_form(b, rng)]),
        seed, "ci", a, b, n)


def determinantal_from_matrix(rows) -> Ideal:
    """The three 2x2 minors of a 2x3 matrix of linear forms."""
    if len(rows) != 2 or any(len(r) != 3 for r in rows):
        raise ValueError("need a 2x3 matrix")
    top, bottom = rows
    ring = top[0].ring
    minors = [top[i] * bottom[j] - top[j] * bottom[i]
              for i, j in ((0, 1), (0, 2), (1, 2))]
    return Ideal(ring, minors)


def determinantal(n, seed, prime=DEFAULT_PRIME) -> Ideal:
    """Minors of a random 2x3 matrix of linear forms in P^n.

    Degenerate matrices (shared factors among the minors) are detected by
    the Hilbert series against the Eagon-Northcott pattern and resampled.
    """
    if n < 3:
        raise ValueError("need ambient dimension at least 3")
    ring = PolyRing(n + 1, prime)
    return _first_with_hilbert(
        _DETERMINANTAL_NUMERATOR,
        lambda rng: determinantal_from_matrix(
            [[ring.random_form(1, rng) for _ in range(3)] for _ in range(2)]),
        seed, "determinantal", n)


# ---------------------------------------------------------------------------
# entry files

def split_entry(text, name="entry"):
    """(header, generator text, expect) of an entry file; the header holds
    the ``name, n, prime, seed, tags`` of a CorpusEntry, as integers where
    they are numbers.  Its ring is checked by ``header_value`` where used.

    The generator text keeps one line per line of the file, blank outside
    the ``gens:`` section, so that positions in it are those of the file.
    """
    sections = {"header": {}, "expect": {}}
    gen_lines = []
    section = "header"
    for raw in text.splitlines():
        code = raw.split("#", 1)[0]
        line = code.strip()
        if line in ("gens:", "expect:"):
            section = line[:-1]
        elif line and section != "gens":
            key, _, value = line.partition(":")
            sections[section][key.strip()] = value.strip()
        gen_lines.append(code if section == "gens" and line != "gens:" else "")
    gens = "\n".join(gen_lines)
    header = sections["header"]
    try:
        n = int(header["n"])
        prime = int(header.get("prime", DEFAULT_PRIME))
        seed = int(header.get("seed", 0))
    except KeyError as exc:
        raise ParseError(f"entry {name!r} is missing the {exc.args[0]}: header")
    except ValueError:
        raise ParseError(f"entry {name!r} has a non-integer header value")
    if not gens.strip():
        raise ParseError(f"entry {name!r} has no generators")
    tags = frozenset(t.strip() for t in header.get("tags", "").split(",") if t.strip())
    fields = {"name": header.get("name", name), "n": n, "prime": prime,
              "seed": seed, "tags": tags}
    return fields, gens, sections["expect"]


def header_value(fields, key, name="entry"):
    """The header's ``n`` or ``prime``, refused as a parse error of the
    entry when no ring has it.  Checked only where it is used, since
    ``--n`` and ``--prime`` replace it."""
    value = fields[key]
    try:
        if key == "n":
            check_nvars(value + 1)
        else:
            check_modulus(value)
    except ValueError as exc:
        raise ParseError(f"entry {name!r}: {exc}")
    return value


def parse_entry(text, name="entry") -> CorpusEntry:
    fields, gens_text, expect = split_entry(text, name)
    gens = parse_ideal(gens_text, header_value(fields, "n", name) + 1,
                       header_value(fields, "prime", name)).gens
    if not gens:  # the entry's ring is that of its generators
        raise ParseError(f"entry {name!r} has only zero generators")
    return CorpusEntry(gens=gens, expect=expect, **fields)


def render_entry(entry: CorpusEntry, comments=()) -> str:
    lines = [f"# {c}" for c in comments]
    lines += [f"name: {entry.name}", f"n: {entry.n}",
              f"prime: {entry.prime}", f"seed: {entry.seed}"]
    if entry.tags:
        lines.append("tags: " + ", ".join(sorted(entry.tags)))
    lines.append("gens:")
    lines.extend(render_poly(g) for g in entry.gens)
    if entry.expect:
        lines.append("expect:")
        lines.extend(f"{k}: {v}" for k, v in entry.expect.items())
    return "\n".join(lines) + "\n"


def entry_names() -> tuple:
    """Names of the packaged entries, in the order of their file names."""
    files = sorted(item.name for item in DATA.iterdir())
    return tuple(f.removesuffix(".ideal") for f in files if f.endswith(".ideal"))


def load_entry(name) -> CorpusEntry:
    """The packaged entry ``data/<name>.ideal``, whose header must agree."""
    entry = parse_entry(DATA.joinpath(f"{name}.ideal").read_text(), name=name)
    if entry.name != name:
        raise ParseError(f"entry file {name}.ideal is named {entry.name!r}")
    return entry


def builtin_entries() -> tuple:
    """The packaged corpus, sorted by name."""
    return tuple(load_entry(name) for name in entry_names())


BUILDERS = {
    "twisted-cubic": lambda seed, prime: twisted_cubic(prime),
    "rational-quartic": lambda seed, prime: rational_quartic(prime),
    "points-3": lambda seed, prime: general_points(3, seed, prime),
    "points-5": lambda seed, prime: general_points(5, seed, prime),
    "points-4-collinear": lambda seed, prime: collinear_points(4, seed, prime),
    "elliptic-quartic": lambda seed, prime: complete_intersection(2, 2, 3, seed, prime),
    "genus4-ci": lambda seed, prime: complete_intersection(2, 3, 3, seed, prime),
    "genus10-ci": lambda seed, prime: complete_intersection(3, 3, 3, seed, prime),
    "ci-surface": lambda seed, prime: complete_intersection(2, 2, 4, seed, prime),
    "scroll-surface": lambda seed, prime: determinantal(4, seed, prime),
}


# ---------------------------------------------------------------------------
# the per-entry report

def _joined(values):
    return ", ".join(map(str, values))


def expected_values(gin_result, inv) -> dict:
    """The values an entry's ``expect:`` block records, in file order."""
    M = gin_result.gin
    zero = (0,) * len(inv.table.axes)
    return {
        "gin": render_monomial_ideal(M),
        "s_Z": str(inv.s_Z),
        "s_Gamma": str(inv.s_Gamma),
        "lambda_zero": _joined(inv.table.profile(zero).lambdas),
        "lambda_stable": _joined(inv.table.stable_profile.lambdas),
        "gaps": _joined(gap_degrees(M)) or "none",
        "hilbert": _joined(hilbert_function(M)),
    }


def check_expectations(entry, gin_result, inv):
    """Compare the entry's expect block against the computed values."""
    mismatches = [{"key": key, "expected": entry.expect[key], "actual": actual}
                  for key, actual in expected_values(gin_result, inv).items()
                  if key in entry.expect and entry.expect[key] != actual]
    return not mismatches, mismatches


def entry_report(entry, seed=0, votes=5):
    """All checks for one corpus entry, as a JSON-ready dict.

    The slicing identity is checked for one general form at levels 0..2.
    ``borel_fixed`` and ``saturated`` are always true: ``variety_invariants``
    raises on a gin that is not strongly stable or not saturated.
    ``agreed`` does not count towards ``passed``: a disagreement only shows
    that a special draw was seen.
    """
    ideal = entry.ideal()
    n = entry.n
    result = gin(ideal, seed=seed, votes=votes)
    inv = variety_invariants(ideal, gin_result=result)
    conn = connectedness_from_table(inv.table)
    slice_rep = verify_slice_identity(ideal, p_max=2, forms=1, seed=seed,
                                      votes=votes, gin_result=result)
    gap_rep = verify_gap_truncation(ideal, seed=seed, votes=votes,
                                    gin_result=result)
    checks = {
        "slice": {"passed": slice_rep.passed,
                  "cases": len(slice_rep.cases)},
        "gap_truncation": {"passed": gap_rep.passed,
                           "vacuous": gap_rep.vacuous,
                           "gaps": list(gap_rep.gaps)},
    }
    if n >= 3:
        trace = run_trace(ideal, (0,) * (n - 2), seed=seed, votes=votes,
                          gin_result=result)
        checks["proof_trace"] = trace.to_json()
        trace_ok = trace.passed
    else:
        checks["proof_trace"] = {"skipped": "ambient dimension below 3"}
        trace_ok = True
    expected_ok, mismatches = check_expectations(entry, result, inv)
    checks["expected"] = {"passed": expected_ok, "mismatches": mismatches}

    conn_applies = {"integral", "codim2", "hypothesis"} <= set(entry.tags)
    conn_ok = conn.all_connected if conn_applies else True
    low_ok = conn.low_levels_ok if n == 3 else True
    passed = all([slice_rep.passed, gap_rep.passed, trace_ok,
                  expected_ok, conn_ok, low_ok])
    return {
        "name": entry.name,
        "ideal": [render_poly(g) for g in entry.gens],
        "seed": seed,
        "prime": entry.prime,
        "tags": sorted(entry.tags),
        "gin": [render_monomial(g) for g in result.gin.gens],
        "agreed": result.agreed,
        "samples": result.samples_used,
        "borel_fixed": True,
        "saturated": True,
        "invariant_table": inv.table.to_json_entries(),
        **conn.to_json(),  # s_Z, s_Gamma, hypothesis, connected, violations, ...
        "checks": checks,
        "passed": passed,
    }
