"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance here is exact equality.
"""

import itertools
import json
import random
import time
from math import comb

import oracles
from gintools.corpus import general_points
from gintools.gin import (_sampled_gin, gin, run_trace, variety_invariants,
                          verify_gap_truncation, verify_slice_identity,
                          connectedness_from_table)
from gintools.groebner import Ideal, ideal_quotient, intersect, saturate
from gintools.ring import PolyRing
from gintools.staircase import (InvariantProfile, hilbert_function,
                                is_connected)


def report(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: PASS{suffix}")


def test_criterion_01_stability_vote(corpus_entries):
    """5 independent samples agree, Borel-fixed and x_n-free, under 10 s,
    and ``gin`` returns the ideal they agree on."""
    slowest = 0.0
    for name, entry in corpus_entries.items():
        start = time.monotonic()
        result = _sampled_gin(entry.ideal(), seed=1, votes=5)
        elapsed = time.monotonic() - start
        slowest = max(slowest, elapsed)
        assert gin(entry.ideal(), seed=1, votes=5).gin == result.gin, name
        assert result.agreed, name
        assert result.samples_used == 5, name
        from gintools.staircase import is_borel_fixed
        ok, witness = is_borel_fixed(result.gin)
        assert ok, (name, witness)
        assert all(g[-1] == 0 for g in result.gin.gens), name
        assert elapsed < 10.0, (name, elapsed)
    report(1, "stability vote", f"slowest entry {slowest:.2f}s")


def test_criterion_02_hilbert_preservation(corpus_entries, corpus_gins):
    """hilbert_function(gin(I)) equals rank-based counts of I, exactly."""
    for name, entry in corpus_entries.items():
        M = corpus_gins[name].gin
        computed = list(hilbert_function(M))
        dmax = len(computed) - 1
        ranks = oracles.quotient_ring_dims(
            list(entry.gens), dmax, entry.n + 1, entry.prime)
        assert computed == ranks, name
    report(2, "Hilbert preservation", f"{len(corpus_entries)} entries")


def test_criterion_03_slice_identity(corpus_entries, corpus_gins):
    """Analytic and combinatorial slices agree for p = 0..3, 3 forms each."""
    total = 0
    for name, entry in corpus_entries.items():
        rep = verify_slice_identity(entry.ideal(), p_max=3, forms=3, seed=0,
                                    gin_result=corpus_gins[name])
        assert rep.passed, (name, [c for c in rep.cases if not c.equal])
        total += len(rep.cases)
    report(3, "slicing identity", f"{total} cases")


def test_criterion_04_gap_truncation(corpus_entries, corpus_gins):
    """gin(I_{<=delta}) = gin(I)_{<=delta} at every internal gap degree."""
    nonvacuous = []
    for name, entry in corpus_entries.items():
        rep = verify_gap_truncation(entry.ideal(), seed=0,
                                    gin_result=corpus_gins[name])
        assert rep.passed, name
        if rep.vacuous:
            expected = entry.expect.get("gaps", "none")
            assert expected == "none", name
        else:
            nonvacuous.append((name, rep.gaps))
    assert nonvacuous, "no entry exercises an internal gap"
    report(4, "gap truncation", f"non-vacuous: {nonvacuous}")


def test_criterion_05_connectedness_theorem(corpus_entries, corpus_gins):
    """Tagged integral codim-2 entries with s_Z = s_Gamma: all connected."""
    checked = 0
    for name, entry in corpus_entries.items():
        if not {"integral", "codim2", "hypothesis"} <= set(entry.tags):
            continue
        inv = variety_invariants(entry.ideal(), seed=0, votes=5)
        rep = connectedness_from_table(inv.table)
        assert rep.hypothesis, name
        assert rep.all_connected, (name, rep.violations)
        assert rep.violations == (), name
        checked += 1
    assert checked >= 6
    report(5, "connectedness theorem", f"{checked} tagged entries")


def test_criterion_06_low_level_rows(corpus_entries):
    """Curves in P^3: rows at indices 0 and 1 connected, hypothesis unused."""
    curves = 0
    for name, entry in corpus_entries.items():
        if entry.n != 3:
            continue
        inv = variety_invariants(entry.ideal(), seed=0, votes=5)
        for p_hat, prof in inv.table.entries:
            lam = prof.lambdas
            for i in (0, 1):
                if i + 1 < prof.s:
                    assert lam[i + 1] + 1 <= lam[i] <= lam[i + 1] + 2, \
                        (name, p_hat, i)
        curves += 1
    assert curves >= 4
    report(6, "level 0 and 1 rows", f"{curves} curves")


def test_criterion_07_general_points_expectation():
    """Random plane points over 10 seeds: the Hilbert function of general
    points, min(binom(d + 2, 2), N), checked first; connected; pinned
    small profiles."""
    for N in range(3, 13):
        for seed in range(10):
            I = general_points(N, seed=seed)
            assert hilbert_function(I.lead_ideal(), N) == tuple(
                min(comb(d + 2, 2), N) for d in range(N + 1)), (N, seed)
            inv = variety_invariants(I, seed=0)
            ((_, prof),) = inv.table.entries
            ok, index = is_connected(prof)
            assert ok, (N, seed, prof, index)
            if N == 3:
                assert prof == InvariantProfile(2, (2, 1)), (N, seed)
            if N == 5:
                assert prof == InvariantProfile(2, (3, 2)), (N, seed)
    report(7, "general points expectation", "N=3..12, 10 seeds each")


def test_criterion_08_proof_trace(corpus_entries, corpus_gins):
    """Step-1 and step-2 identities at all levels in {0,1,2} per axis."""
    traced = 0
    skipped = []
    for name, entry in corpus_entries.items():
        if entry.n < 3:
            skipped.append(name)
            continue
        axes = entry.n - 2
        for levels in itertools.product((0, 1, 2), repeat=axes):
            result = run_trace(entry.ideal(), levels, seed=0,
                               gin_result=corpus_gins[name])
            assert result.step1_ok, (name, levels)
            assert result.step2_ok, (name, levels,
                                     result.gcd_degree,
                                     result.expected_gcd_degree)
            assert result.consistent, (name, levels)
            traced += 1
    report(8, "proof trace", f"{traced} traces, skipped {skipped}")


def test_criterion_09_bruteforce_equivalence():
    """Quotient, saturation, intersection vs degree-by-degree ranks."""
    ring = PolyRing(3)
    p = ring.prime
    previous = None
    for seed in range(20):
        rng = random.Random(seed)
        gens = [ring.random_form(rng.randint(1, 2), rng)
                for _ in range(rng.randint(1, 2))]
        I = Ideal(ring, gens)
        f = ring.linear_form([rng.randrange(p) for _ in range(ring.nvars)])

        Q = ideal_quotient(I, f)
        for d in range(6):
            assert oracles.ideal_dim(list(Q.gens), d, 3, p) == \
                oracles.colon_dim(gens, f, d, 3, p), ("quotient", seed, d)

        xn = ring.variable(2)
        S = saturate(I, xn)
        for d in range(6):
            assert oracles.ideal_dim(list(S.gens), d, 3, p) == \
                oracles.saturation_dim(gens, xn, d, 3, p), ("saturate", seed, d)

        if previous is not None:
            J, jgens = previous
            meet = intersect(I, J)
            for d in range(6):
                assert oracles.ideal_dim(list(meet.gens), d, 3, p) == \
                    oracles.intersection_dim(gens, jgens, d, 3, p), \
                    ("intersect", seed, d)
        previous = (I, gens)
    report(9, "brute-force equivalence", "20 seeded instances, d <= 5")


def test_criterion_10_determinism(capsys):
    """corpus-run --seed 0 twice produces byte-identical JSON."""
    from gintools.cli import main
    argv = ["corpus-run", "--seed", "0", "--json"]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["all_passed"] is True
    with capsys.disabled():
        report(10, "determinism", f"{len(first)} bytes, twice")
