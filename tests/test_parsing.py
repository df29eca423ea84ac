import random

import pytest
from hypothesis import given, settings, strategies as st

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


# ---------------------------------------------------------------------------
# terms folded straight to packed form

def _factors(draw, degree, depth, ring):
    """(text, Poly) of a product of total degree ``degree``: variables,
    integers, their powers and parenthesised sums, each built by ring
    arithmetic too."""
    texts, poly, left = [], ring.one(), degree
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["var", "int", "paren"] if depth
                                    else ["var", "int"]))
        e = draw(st.integers(0, 3))
        if kind == "var":
            i, e = draw(st.integers(0, ring.nvars - 1)), min(e, left)
            text, f = f"x{i}", ring.variable(i) ** e
            left -= e
        elif kind == "int":
            c = draw(st.integers(0, 20))
            text, f = str(c), ring.one().scale(c) ** e
        else:
            inner = draw(st.integers(0, left))
            e = min(e, left // inner) if inner else e
            text, g = _sums(draw, inner, depth - 1, ring)
            text, f = f"({text})", g ** e
            left -= inner * e
        texts.append(text if e == 1 and draw(st.booleans()) else f"{text}^{e}")
        poly = poly * f
    if left:
        i = draw(st.integers(0, ring.nvars - 1))
        texts.append(f"x{i}^{left}")
        poly = poly * ring.variable(i) ** left
    order = draw(st.permutations(range(len(texts))))
    return "*".join(texts[k] for k in order), poly


def _sums(draw, degree, depth, ring):
    """(text, Poly) of a signed sum of products of one degree."""
    text, poly = "", ring.zero()
    for k in range(draw(st.integers(1, 3))):
        sign = draw(st.sampled_from("+-" if k else ["", "+", "-"]))
        term_text, term = _factors(draw, degree, depth, ring)
        text += f" {sign} {term_text}" if k else f"{sign}{term_text}"
        poly = poly - term if sign == "-" else poly + term
    return text, poly


@settings(derandomize=True, max_examples=100)
@given(st.data(), st.sampled_from([7, 32003]), st.integers(0, 4))
def test_folded_terms_equal_ring_arithmetic(data, prime, degree):
    """Signed sums of products of variables, integers, powers and
    parenthesised sums parse to the Poly that ring arithmetic builds,
    zero factors at p = 7 included."""
    ring = PolyRing(3, prime)
    text, poly = _sums(data.draw, degree, 2, ring)
    assert parse_polynomial(text, ring) == poly


@pytest.mark.parametrize("text,message,column", [
    ("x0*x5*x1", "unknown variable x5: ring has x0..x2", 4),
    ("x0^", "expected an integer exponent", 4),
    ("2*x0^*x1", "expected an integer exponent", 6),
])
def test_term_parse_errors_carry_their_text_and_position(text, message,
                                                         column):
    with pytest.raises(ParseError) as info:
        parse_polynomial(text, R3)
    assert str(info.value) == f"{message} at line 1, column {column}"
    assert (info.value.line, info.value.column) == (1, column)


@pytest.mark.parametrize("text,message", [
    ("x0^32768", "power of degree 32768"),
    ("x0^20000*x1^20000", "product of degree 40000"),
    ("x0^16384*x0^16384", "product of degree 32768"),
    ("(x0 + x1)^2*x0^32766", "product of degree 32768"),
    ("x0^20000*x0^20000*0", "product of degree 40000"),
])
def test_terms_past_the_degree_bound_are_refused_as_poly_arithmetic_is(
        text, message):
    """The refusal is the ValueError of the Poly product or power, with no
    position, which the CLI reports as a configuration error."""
    with pytest.raises(ValueError) as info:
        parse_polynomial(text, R3)
    assert not isinstance(info.value, ParseError)
    assert str(info.value) == f"{message}: degrees must stay below 32768"


@pytest.mark.parametrize("text", ["0*x0^20000*x0^20000",
                                  "x0^20000*0*x0^20000",
                                  "x0^20000*(x1 - x1)*x0^20000"])
def test_a_zero_product_is_not_refused_past_the_bound(text):
    assert parse_polynomial(text, R3).is_zero()


def test_an_integer_power_is_one_modular_pow():
    f = parse_polynomial("2^1000000000*x0", R3)
    assert f == R3.variable(0).scale(pow(2, 10 ** 9, R3.prime))


def test_a_zero_coefficient_gives_the_zero_term():
    assert parse_polynomial("0*x0", R3).is_zero()
    assert parse_polynomial("x1 + 0*x0", R3) == R3.variable(1)
    assert parse_ideal("0*x0, x1", nvars=3).gens == (R3.variable(1),)
