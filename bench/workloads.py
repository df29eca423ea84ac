"""The benchmark's workloads: inputs, timed items and correctness checks.

A workload is set up once per set-up repetition, then runs whole rounds.
Every round is the same list of operations ("items") on fresh inputs drawn
from the workload seed and the round number (``corpus`` runs the packaged
entries at a fixed list of gin seeds instead).  Each timed item gets its
own gin seed, so no item is served from gin entries that another item left
in the library's module-level cache; within one item the cache works as it
does for a user.  Items return the library's results as they are; the
checks in ``checks.py`` read them after the timed part.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import checks

PRIME = 32003
SEED_STRIDE = 1_000_000
MAX_ROUNDS = 999


def gin_seed(seed, round_index, item_index):
    """The gin seed of one timed item; distinct for every item of a run."""
    return seed * SEED_STRIDE + round_index * 1000 + item_index


def warmup_seed(seed):
    """A gin seed no timed item uses, as rounds stay below MAX_ROUNDS."""
    return seed * SEED_STRIDE + SEED_STRIDE - 1


def monomial_gens(M):
    return [tuple(g) for g in M.gens]


def table_entries(table):
    return [(tuple(p_hat), prof.s, tuple(prof.lambdas))
            for p_hat, prof in table.entries]


def check_invariants(inv, nvars):
    """Gin and invariant-table checks on a VarietyInvariants result."""
    gens = monomial_gens(inv.gin_result.gin)
    problems = checks.check_gin(gens)
    problems += checks.check_reported_table(
        gens, nvars, table_entries(inv.table), inv.s_Z, inv.s_Gamma)
    return gens, problems


class SameGin:
    """Records the gin of each input and flags one that changes with the seed."""

    def __init__(self):
        self.seen = {}

    def __call__(self, key, gens):
        first = self.seen.setdefault(key, gens)
        if first != gens:
            return [f"{key}: gin {gens} differs from {first} at another seed"]
        return []


# ---------------------------------------------------------------------------
# corpus: `gintools corpus-run --json`, one packaged entry per item

def read_entry_file(path):
    """(n, prime, tags, generator lines) of a corpus entry file."""
    header, gens, section = {}, [], "header"
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line in ("gens:", "expect:"):
            section = line[:-1]
        elif line and section == "header":
            key, _, value = line.partition(":")
            header[key.strip()] = value.strip()
        elif line and section == "gens":
            gens.append(line)
    tags = {t.strip() for t in header.get("tags", "").split(",") if t.strip()}
    return int(header["n"]), int(header.get("prime", PRIME)), tags, gens


# Round r runs `corpus-run --seed r`.  The list is fixed, not drawn from
# the workload seed: corpus-run's proof-trace check fails on rare gin
# seeds (see CHANGES.md), so its rounds must be the same in every run.
CORPUS_SEEDS = tuple(range(100))


class Corpus:
    name = "corpus"
    max_rounds = len(CORPUS_SEEDS)

    def setup(self, lib, seed):
        entries = lib.corpus.builtin_entries()
        return {"lib": lib, "names": [e.name for e in entries],
                "data": Path(lib.corpus.__file__).parent / "data"}

    def _item(self, state, name, gin_seed_value):
        cli = state["lib"].cli
        argv = ["corpus-run", "--json", "--seed", str(gin_seed_value),
                "--entries", name]

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()
        return run

    def warmup(self, state, seed):
        return self._item(state, state["names"][0], max(CORPUS_SEEDS) + 1)

    def items(self, state, seed, r):
        return [(name, self._item(state, name, CORPUS_SEEDS[r]))
                for name in state["names"]]

    def checker(self, state):
        same_gin = SameGin()
        oracle = {}

        def check(name, output):
            code, text = output
            if code != 0:
                return [f"corpus-run exited with {code}"]
            payload = json.loads(text)
            problems = [] if payload["all_passed"] else ["all_passed is false"]
            report, = payload["entries"]
            n, prime, tags, gen_lines = read_entry_file(state["data"] / f"{name}.ideal")
            gens = [checks.parse_monomial(g, n + 1) for g in report["gin"]]
            problems += checks.check_gin(gens)
            problems += same_gin(name, gens)
            entries = [(tuple(e["p_hat"]), e["s"], tuple(e["lambda"]))
                       for e in report["invariant_table"]]
            problems += checks.check_reported_table(
                gens, n + 1, entries, report["s_Z"], report["s_Gamma"])
            if {"integral", "codim2"} <= tags:
                problems += checks.check_theorem(gens, n + 1)
            if name not in oracle:
                polys = [checks.parse_poly(g, n + 1, prime) for g in gen_lines]
                oracle[name] = checks.hilbert_by_rank(
                    polys, n + 1, prime, checks.hilbert_dmax(gens))
            problems += checks.check_hilbert(gens, n + 1, oracle[name],
                                             "the rank count on the generators")
            return problems
        return check


# ---------------------------------------------------------------------------
# heavy: slice, gap and invariant checks on medium ideals in P^4 and P^5

HEAVY_IDEALS = (("ci", 2, 2, 4), ("ci", 2, 3, 4), ("ci", 3, 3, 4),
                ("ci", 2, 2, 5), ("ci", 2, 3, 5), ("det", 4), ("det", 5))
SLICE_LEVELS = 2


def heavy_pattern(spec, dmax):
    if spec[0] == "ci":
        _, a, b, n = spec
        return checks.koszul_pattern(n, a, b, dmax), "the Koszul pattern"
    return checks.eagon_northcott_pattern(spec[1], dmax), "the Eagon-Northcott pattern"


class Heavy:
    name = "heavy"
    max_rounds = MAX_ROUNDS
    KINDS = ("invariants", "gap", "slice")

    def setup(self, lib, seed):
        built = []
        for spec in HEAVY_IDEALS:
            if spec[0] == "ci":
                _, a, b, n = spec
                I = lib.corpus.complete_intersection(a, b, n, seed, PRIME)
            else:
                I = lib.corpus.determinantal(spec[1], seed, PRIME)
            built.append((spec, I))
        return {"lib": lib, "ideals": built}

    def _item(self, state, I, kind, s):
        lib = state["lib"]

        def run():
            # a fresh Ideal, so no Groebner basis cached on the object
            # carries over from an earlier item
            fresh = lib.groebner.Ideal(I.ring, I.gens)
            if kind == "invariants":
                return lib.gin.variety_invariants(fresh, seed=s)
            if kind == "gap":
                return lib.gin.verify_gap_truncation(fresh, seed=s)
            return lib.gin.verify_slice_identity(fresh, p_max=SLICE_LEVELS,
                                                 forms=1, seed=s)
        return run

    def warmup(self, state, seed):
        _, I = state["ideals"][0]
        return self._item(state, I, "invariants", warmup_seed(seed))

    def items(self, state, seed, r):
        result = []
        for spec, I in state["ideals"]:
            for kind in self.KINDS:
                s = gin_seed(seed, r, len(result))
                result.append(((spec, kind), self._item(state, I, kind, s)))
        return result

    def checker(self, state):
        same_gin = SameGin()

        def check(label, output):
            spec, kind = label
            nvars = spec[-1] + 1
            if kind == "gap":
                problems = [] if output.passed else ["gap truncation failed"]
                return problems + [f"gap case not Borel-fixed at {c[0]}"
                                   for c in output.cases
                                   if checks.borel_violation(monomial_gens(c[2]))]
            if kind == "slice":
                problems = [] if output.passed else ["slice identity failed"]
                return problems + [f"slice case {c.level} not Borel-fixed"
                                   for c in output.cases
                                   if checks.borel_violation(monomial_gens(c.lhs))]
            gens, problems = check_invariants(output, nvars)
            problems += same_gin(spec, gens)
            problems += checks.check_theorem(gens, nvars)
            expected, what = heavy_pattern(spec, checks.hilbert_dmax(gens))
            return problems + checks.check_hilbert(gens, nvars, expected, what)
        return check


# ---------------------------------------------------------------------------
# points: N random points in P^2, built by elimination, then gin and invariants

POINT_COUNTS = (4, 6, 8, 10, 12, 14, 16, 18, 20)


def draw_points(rng, count, p=PRIME):
    """Distinct points of P^2(F_p), each scaled so its last nonzero entry is 1."""
    points = []
    while len(points) < count:
        pt = [rng.randrange(p) for _ in range(3)]
        if not any(pt):
            continue
        k = max(i for i, c in enumerate(pt) if c)
        inv = pow(pt[k], p - 2, p)
        pt = tuple(c * inv % p for c in pt)
        if pt not in points:
            points.append(pt)
    return points


class Points:
    name = "points"
    max_rounds = MAX_ROUNDS

    def setup(self, lib, seed):
        return {"lib": lib, "ring": lib.ring.PolyRing(3, PRIME)}

    def _item(self, state, points, s):
        lib, ring = state["lib"], state["ring"]

        def run():
            I = lib.corpus.point_ideal(ring, points[0])
            for pt in points[1:]:
                I = lib.groebner.intersect(I, lib.corpus.point_ideal(ring, pt))
            return points, I, lib.gin.variety_invariants(I, seed=s)
        return run

    def warmup(self, state, seed):
        rng = random.Random(f"points/{seed}/warmup")
        return self._item(state, draw_points(rng, POINT_COUNTS[0]),
                          warmup_seed(seed))

    def items(self, state, seed, r):
        result = []
        for i, count in enumerate(POINT_COUNTS):
            rng = random.Random(f"points/{seed}/{r}/{count}")
            result.append((count, self._item(state, draw_points(rng, count),
                                             gin_seed(seed, r, i))))
        return result

    def checker(self, state):
        def check(count, output):
            points, I, inv = output
            gens, problems = check_invariants(inv, 3)
            for g in I.gens:
                poly = dict(g.terms)
                if any(checks.evaluate(poly, pt, PRIME) for pt in points):
                    problems.append(f"generator {g} does not vanish at every point")
            expected = checks.points_hilbert(points, PRIME, checks.hilbert_dmax(gens))
            return problems + checks.check_hilbert(
                gens, 3, expected, "the rank of the evaluation matrix")
        return check


WORKLOADS = {w.name: w for w in (Corpus(), Heavy(), Points())}
