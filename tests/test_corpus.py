import itertools
from dataclasses import replace

import pytest

import oracles
from gintools import corpus
from gintools.corpus import (DATA, _DETERMINANTAL_NUMERATOR,
                             _first_with_hilbert,
                             check_expectations, collinear_points,
                             complete_intersection, determinantal,
                             determinantal_from_matrix, entry_names,
                             entry_report, expected_values, general_points,
                             load_entry, parse_entry, point_ideal,
                             render_entry, twisted_cubic)
from gintools.gin import child_rng, gin, variety_invariants
from gintools.groebner import (Ideal, _hilbert_numerator, _koszul_numerator,
                               initial_ideal)
from gintools.ring import PolyRing
from gintools.staircase import (InvariantProfile, MonomialIdeal,
                                UnsaturatedIdealError,
                                gap_degrees, is_borel_fixed)
from gintools.parsing import ParseError, parse_polynomial


def test_single_point_is_two_linear_forms():
    ring = PolyRing(3)
    I = point_ideal(ring, (1, 2, 3))
    assert len(I.gens) == 2
    assert all(g.degree == 1 for g in I.gens)
    assert oracles.ideal_dim(list(I.gens), 1, 3, ring.prime) == 2


def test_a_malformed_point_is_refused():
    """A point with too few or too many coordinates, or one that is zero
    mod p, has no ideal."""
    ring = PolyRing(3, 7)
    for point in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError,
                           match=f"3 coordinates, not {len(point)}"):
            point_ideal(ring, point)
    for point in ((0, 0, 0), (7, 14, -21)):
        with pytest.raises(ValueError, match="zero mod 7"):
            point_ideal(ring, point)
    assert point_ideal(ring, (7, 1, 0)).same_ideal(
        point_ideal(ring, (0, 1, 0)))


def test_three_general_points_profile():
    inv = variety_invariants(general_points(3, seed=0), seed=0)
    assert inv.table.entries[0][1] == InvariantProfile(2, (2, 1))


def test_five_general_points_hilbert():
    I = general_points(5, seed=0)
    counts = oracles.quotient_ring_dims(list(I.gens), 4, 3, I.ring.prime)
    assert counts == [1, 3, 5, 5, 5]


def test_points_are_saturated_by_construction():
    I = general_points(4, seed=3)
    result = gin(I, seed=0)
    assert all(g[-1] == 0 for g in result.gin.gens)


def test_twisted_cubic_quotient_values():
    I = twisted_cubic()
    counts = oracles.quotient_ring_dims(list(I.gens), 3, 4, I.ring.prime)
    assert counts[1:] == [4, 7, 10]


def test_collinear_points_have_gaps():
    I = collinear_points(4, seed=0)
    result = gin(I, seed=0)
    assert gap_degrees(result.gin) == (2, 3)


def test_complete_intersection_koszul_counts():
    I = complete_intersection(2, 2, 3, seed=0)
    counts = oracles.quotient_ring_dims(list(I.gens), 5, 4, I.ring.prime)
    assert counts == [1, 4, 8, 12, 16, 20]


def test_complete_intersection_surface_case():
    inv = variety_invariants(complete_intersection(2, 2, 4, seed=0), seed=0)
    assert inv.s_Z == inv.s_Gamma == 2


def test_determinantal_specializes_to_twisted_cubic():
    ring = PolyRing(4)
    x = [parse_polynomial(f"x{i}", ring) for i in range(4)]
    I = determinantal_from_matrix([[x[0], x[1], x[2]], [x[1], x[2], x[3]]])
    assert I.same_ideal(twisted_cubic())


def test_determinantal_random_surface():
    I = determinantal(4, seed=0)
    result = gin(I, seed=0, votes=5)
    ok, _ = is_borel_fixed(result.gin)
    assert ok
    assert all(g[-1] == 0 for g in result.gin.gens)
    inv = variety_invariants(I, seed=0)
    assert inv.s_Z == inv.s_Gamma == 2


@pytest.mark.parametrize("n", [3, 4, 5])
def test_koszul_numerator_is_that_of_two_coprime_powers(n):
    for a, b in itertools.product(range(1, 5), repeat=2):
        M = MonomialIdeal.from_monomials(
            n + 1, [(a,) + (0,) * n, (0, b) + (0,) * (n - 1)])
        assert _koszul_numerator((a, b)) == _hilbert_numerator(M.gens, n + 1)


@pytest.mark.parametrize("build", [twisted_cubic,
                                   lambda: determinantal(4, seed=0)])
def test_determinantal_numerator_is_that_of_the_minors(build):
    I = build()
    assert _DETERMINANTAL_NUMERATOR == [1, 0, -3, 2]
    assert _hilbert_numerator(initial_ideal(I).gens, I.ring.nvars) == \
        _DETERMINANTAL_NUMERATOR


def test_first_with_hilbert_skips_forms_with_a_common_factor():
    """Draw 0 is l*f, l*g for a linear form l, draw 1 two general quadrics:
    the Koszul series rejects the first and returns the second."""
    ring = PolyRing(4)
    rngs, drawn = [], []

    def build(rng):
        rngs.append(rng.getstate())
        if not drawn:
            l = ring.random_form(1, rng)
            forms = [l * ring.random_form(1, rng), l * ring.random_form(1, rng)]
        else:
            forms = [ring.random_form(2, rng), ring.random_form(2, rng)]
        drawn.append(Ideal(ring, forms))
        return drawn[-1]

    I = _first_with_hilbert(_koszul_numerator((2, 2)), build, 5, "ci", 2, 2, 3)
    assert I is drawn[1]
    assert rngs == [child_rng(5, "ci", 2, 2, 3, k).getstate() for k in (0, 1)]


def test_builders_reject_bad_arguments():
    with pytest.raises(ValueError):
        general_points(0, seed=0)
    with pytest.raises(ValueError):
        complete_intersection(1, 2, 3, seed=0)
    with pytest.raises(ValueError):
        determinantal(2, seed=0)


def test_builders_reject_field_exhaustion():
    with pytest.raises(ValueError, match="plane"):
        general_points(8, seed=0, prime=2)
    with pytest.raises(ValueError, match="line"):
        collinear_points(7, seed=0, prime=5)


def test_small_field_points_still_work():
    I = collinear_points(4, seed=1, prime=5)
    assert all(g.degree >= 1 for g in I.gens)


# ---------------------------------------------------------------------------
# entry files

def test_builtin_corpus_loads(corpus_entries):
    assert len(corpus_entries) == 10
    for entry in corpus_entries.values():
        assert entry.gens
        assert entry.expect["gin"]


def test_entry_roundtrip(corpus_entries):
    entry = corpus_entries["twisted-cubic"]
    again = parse_entry(render_entry(entry, comments=["round trip"]))
    assert again == entry


def test_entries_match_expected_values(corpus_entries, corpus_gins):
    for name, entry in corpus_entries.items():
        inv = variety_invariants(entry.ideal(), seed=0, votes=5)
        ok, mismatches = check_expectations(entry, corpus_gins[name], inv)
        assert ok, (name, mismatches)


def test_file_names_are_entry_names():
    names = entry_names()
    assert len(names) == 10
    for name in names:
        assert parse_entry((DATA / f"{name}.ideal").read_text()).name == name


def test_load_entry_rejects_a_header_naming_another_entry(tmp_path,
                                                          monkeypatch):
    (tmp_path / "foo.ideal").write_text("name: bar\nn: 2\ngens:\nx0\n")
    monkeypatch.setattr(corpus, "DATA", tmp_path)
    assert entry_names() == ("foo",)
    with pytest.raises(ParseError, match="bar"):
        load_entry("foo")


def test_parse_entry_reads_several_generators_on_a_line():
    one_line = parse_entry("name: a\nn: 2\ngens:\nx0^2, x1^2  # two\n")
    two_lines = parse_entry("name: a\nn: 2\ngens:\nx0^2\nx1^2\n")
    assert one_line == two_lines
    assert len(one_line.gens) == 2


def test_parse_entry_rejects_an_entry_of_zero_generators():
    with pytest.raises(ParseError, match="only zero generators"):
        parse_entry("name: a\nn: 2\ngens:\nx0 - x0, 0\n")


@pytest.mark.parametrize("header,message", [
    ("n: 2\nprime: 9", "modulus 9 is not prime"),
    ("n: -1", "need at least one variable"),
], ids=["prime", "n"])
def test_parse_and_load_entry_refuse_a_header_that_names_no_ring(
        tmp_path, monkeypatch, header, message):
    text = f"name: bad\n{header}\ngens:\nx0\n"
    with pytest.raises(ParseError, match=message):
        parse_entry(text)
    (tmp_path / "bad.ideal").write_text(text)
    monkeypatch.setattr(corpus, "DATA", tmp_path)
    with pytest.raises(ParseError, match=message):
        load_entry("bad")


def test_load_entry_reports_a_bad_generator_at_its_line(tmp_path,
                                                        monkeypatch):
    (tmp_path / "bad.ideal").write_text(
        "# comment\nname: bad\nn: 2\ngens:\nx0^2 + x1\n")
    monkeypatch.setattr(corpus, "DATA", tmp_path)
    with pytest.raises(ParseError, match="inhomogeneous") as info:
        load_entry("bad")
    assert (info.value.line, info.value.column) == (5, 10)


def test_expected_values_follow_the_file_order(corpus_entries, corpus_gins):
    entry = corpus_entries["points-4-collinear"]
    inv = variety_invariants(entry.ideal(), gin_result=corpus_gins[entry.name])
    values = expected_values(corpus_gins[entry.name], inv)
    assert list(values) == ["gin", "s_Z", "s_Gamma", "lambda_zero",
                            "lambda_stable", "gaps", "hilbert"]
    assert values == entry.expect


def test_check_expectations_reports_each_mismatch(corpus_entries,
                                                  corpus_gins):
    entry = corpus_entries["twisted-cubic"]
    inv = variety_invariants(entry.ideal(), gin_result=corpus_gins[entry.name])
    wrong = replace(entry, expect={"gaps": "2", "s_Z": "9", "other": "1"})
    ok, mismatches = check_expectations(wrong, corpus_gins[entry.name], inv)
    assert not ok
    assert mismatches == [
        {"key": "s_Z", "expected": "9", "actual": "2"},
        {"key": "gaps", "expected": "2", "actual": "none"},
    ]


def test_expected_hilbert_matches_rank_oracle(corpus_entries):
    """The frozen Hilbert expectations agree with independent ranks."""
    for name in ("twisted-cubic", "points-5", "points-4-collinear"):
        entry = corpus_entries[name]
        expected = [int(v) for v in entry.expect["hilbert"].split(",")]
        counts = oracles.quotient_ring_dims(
            list(entry.gens), len(expected) - 1, entry.n + 1, entry.prime)
        assert counts == expected


def test_entry_report_raises_on_an_unsaturated_ideal():
    entry = parse_entry("name: unsat\nn: 2\ngens:\nx0^2\nx0*x1\nx0*x2\n")
    with pytest.raises(UnsaturatedIdealError):
        entry_report(entry, seed=0, votes=2)

