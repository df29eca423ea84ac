import random

import pytest
from hypothesis import given, strategies as st

from gintools.ring import PolyRing
from gintools.parsing import (ParseError, max_coefficient, parse_ideal,
                              parse_polynomial, render_monomial, render_poly)

R3 = PolyRing(3)


def test_parse_quadric():
    f = parse_polynomial("x0*x2 - x1^2", R3)
    assert f.terms == (((0, 2, 0), R3.prime - 1), ((1, 0, 1), 1))


def test_parse_single_term_cubic():
    f = parse_polynomial("x0^2*x1", R3)
    assert f.terms == (((2, 1, 0), 1),)


def test_whitespace_insensitive():
    assert parse_polynomial("x0 * x2-x1 ^2", R3) == \
        parse_polynomial("x0*x2 - x1^2", R3)


def test_parentheses_and_coefficients():
    assert parse_polynomial("(x0 + x1)*(x0 - x1)", R3) == \
        parse_polynomial("x0^2 - x1^2", R3)
    assert parse_polynomial("2*x0*(3*x1 + x2)", R3) == \
        parse_polynomial("6*x0*x1 + 2*x0*x2", R3)


def test_unary_minus():
    assert parse_polynomial("-x0 + x1", R3) == \
        parse_polynomial("x1 - x0", R3)


def test_coefficients_reduced_mod_p():
    small = PolyRing(2, prime=7)
    assert parse_polynomial("10*x0", small) == parse_polynomial("3*x0", small)


def test_inhomogeneous_generator_rejected():
    with pytest.raises(ParseError, match="inhomogeneous"):
        parse_ideal("x0 + 1", nvars=3)


def test_composite_modulus_rejected():
    with pytest.raises(ValueError, match="not prime"):
        parse_ideal("x0", prime=9)


def test_unknown_variable_rejected():
    with pytest.raises(ParseError, match="unknown variable"):
        parse_polynomial("x5", R3)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_polynomial("x0 + @", R3)
    assert info.value.line == 1
    assert info.value.column == 6


def test_error_position_on_later_line():
    with pytest.raises(ParseError) as info:
        parse_ideal("x0*x1,\nx0 $ x1", nvars=3)
    assert info.value.line == 2


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("x0 x1", R3)


def test_missing_operand_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("x0 + ", R3)
    with pytest.raises(ParseError):
        parse_polynomial("(x0 + x1", R3)


def test_split_generators_handles_lines_commas_comments():
    text = "x0*x1, x2^2\nx1^2  # a comment\n# full comment line\n"
    gens = parse_ideal(text, nvars=3).gens
    assert gens == tuple(parse_polynomial(g, R3)
                         for g in ("x0*x1", "x2^2", "x1^2"))


def test_ideal_variable_count_inferred():
    I = parse_ideal("x0*x3 - x1*x2")
    assert I.ring.nvars == 4


def test_zero_generators_dropped():
    I = parse_ideal("x0 - x0, x1", nvars=3)
    assert len(I.gens) == 1


# ---------------------------------------------------------------------------
# renderer round trip

def test_render_monomial_forms():
    assert render_monomial((2, 1, 0)) == "x0^2*x1"
    assert render_monomial((0, 0, 0)) == "1"


def test_render_balanced_signs():
    f = parse_polynomial("x0*x2 - x1^2", R3)
    assert render_poly(f) in ("x0*x2 - x1^2", "-x1^2 + x0*x2")
    assert parse_polynomial(render_poly(f), R3) == f


def test_render_zero():
    assert render_poly(R3.zero()) == "0"


@pytest.mark.parametrize("nvars,prime", [(2, 32003), (3, 32003), (4, 101), (5, 7)])
def test_roundtrip_thousand_random_polynomials(nvars, prime):
    ring = PolyRing(nvars, prime)
    rng = random.Random(nvars * 100000 + prime)
    for _ in range(1000):
        degree = rng.randint(0, 4)
        f = ring.random_form(degree, rng)
        assert parse_polynomial(render_poly(f), ring) == f


@given(st.integers(0, 10 ** 9), st.integers(1, 4))
def test_roundtrip_property(seed, degree):
    rng = random.Random(seed)
    f = R3.random_form(degree, rng)
    assert parse_polynomial(render_poly(f), R3) == f


@st.composite
def signed_terms(draw):
    """Signed terms c*x0^a*x1^b*x2^e of degree 1 or 2, some of them zero at
    p = 7, so that sums cancel, mix degrees, or both."""
    degree = draw(st.integers(1, 2))
    a = draw(st.integers(0, degree))
    b = draw(st.integers(0, degree - a))
    return (draw(st.sampled_from("+-")), draw(st.integers(0, 15)),
            (a, b, degree - a - b))


@given(st.lists(signed_terms(), min_size=1, max_size=8),
       st.sampled_from([7, 32003]))
def test_one_sort_parse_equals_the_sum_chain(terms, prime):
    """The parser adds a sum's terms into one dict; the chain of ``+`` and
    ``-`` on polynomials gives the same polynomial, or the same refusal,
    placed at the token after the term refused."""
    ring = PolyRing(3, prime)
    pieces = [f"{op} {c}*x0^{a}*x1^{b}*x2^{e}" for op, c, (a, b, e) in terms]
    text = " ".join(pieces)
    chain = ring.zero()
    try:
        for k, (op, c, m) in enumerate(terms):
            term = ring.monomial(m, c)
            chain = chain - term if op == "-" else chain + term
    except ValueError as exc:
        with pytest.raises(ParseError, match=f"^{exc}") as info:
            parse_polynomial(text, ring)
        # the next operator, or the end of input just past the term
        end = len(" ".join(pieces[:k + 1]))
        assert info.value.column == end + (2 if k + 1 < len(terms) else 1)
    else:
        assert parse_polynomial(text, ring) == chain


# ---------------------------------------------------------------------------
# generator lists: separators, whitespace and comments

# one or more of these, at least one of them not a space or a tab
SEPARATORS = st.lists(
    st.sampled_from([",", ";", "\n", "\r\n", " ", "\t"]), min_size=1,
    max_size=3).map("".join).filter(lambda sep: sep.strip(" \t"))


@given(st.integers(1, 4), st.sampled_from([7, 101, 32003]),
       st.integers(0, 10 ** 9), st.data())
def test_generator_list_parses_as_each_generator_alone(nvars, prime, seed,
                                                       data):
    ring = PolyRing(nvars, prime)
    rng = random.Random(seed)
    gens = [ring.random_form(rng.randint(1, 3), rng)
            for _ in range(data.draw(st.integers(1, 4)))]
    rendered = [render_poly(g) for g in gens]
    text = data.draw(st.sampled_from(["", "\n", " ; ", "# x99 is 7\n"]))
    for piece in rendered:
        sep = data.draw(SEPARATORS)
        if data.draw(st.booleans()):   # a comment runs to the line's end
            k = data.draw(st.integers(nvars, 99))
            digits = data.draw(st.integers(0, 10 ** 6))
            sep = f" # x{k} and {digits}\n" + sep
        text += piece + sep
    assert parse_ideal(text, nvars, prime).gens == \
        tuple(parse_polynomial(g, ring) for g in rendered)
    top = max(i for g in gens for m, _ in g.terms for i, e in enumerate(m) if e)
    assert parse_ideal(text, prime=prime).ring.nvars == top + 1
    literals = [abs(c - prime if c > prime // 2 else c)
                for g in gens for _, c in g.terms]
    assert max_coefficient(text) == max(
        (c for c in literals if c != 1), default=None)
