"""Text syntax for polynomials and ideals.

Grammar, read by one lexer (``_tokenize``):

    ideal       := [expression] (separator [expression])*
    separator   := ',' | ';' | line break
    expression  := ['+' | '-'] term (('+' | '-') term)*
    term        := factor ('*' factor)*
    factor      := base ['^' integer]
    base        := 'x' integer | integer | '(' expression ')'

Other whitespace is insignificant, and a ``#`` starts a comment that runs
to the end of its line.  Each expression of an ideal is one generator, and
a sum of terms of different degrees is rejected where it is formed.

A term's variables and integers, with their powers, fold into one packed
term of the ring (``ring.py``): one key, the sum of the keys of its
monomials, and one coefficient, where an integer's power is one modular
``pow``.  Only a parenthesised factor is multiplied as a Poly.  A term
that reaches the degree bound is refused with the ``ValueError`` of the
Poly arithmetic it stands for.

The renderer emits the canonical form (terms in decreasing order, balanced
signed coefficients) and round-trips through the parser.
"""

from __future__ import annotations

import re

from .ring import (DEFAULT_PRIME, DEGREE_MASK, Poly, PolyRing, add_into,
                   check_degree)


class ParseError(ValueError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = f" at line {line}, column {column}" if line is not None else ""
        super().__init__(f"{message}{where}")


_EOL = "\n\r\v\f\x1c-\x1e\x85\u2028\u2029"   # where str.splitlines breaks
_TOKEN = re.compile(rf"(?P<sep>[,;]|\r\n|[{_EOL}])|[^\S{_EOL}]+|#[^{_EOL}]*"
                    r"|x(?P<var>\d+)|(?P<int>\d+)|(?P<op>[+\-*^()])")


def _tokenize(text):
    """The (kind, value, line, column) tokens of the text, in one pass.

    Kinds are ``var`` (its index), ``int``, ``op``, ``sep`` and a last
    ``end``; whitespace and comments make none.  A ``sep`` or ``end`` token
    sits just past the last token before it, where an expression cut short
    by it ends.
    """
    tokens = []
    line, start = 1, 0          # the line's number and its offset in text
    stop = (1, 1)               # just past the last var, int or op
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             line, pos - start + 1)
        kind, pos = match.lastgroup, match.end()
        if kind == "sep":
            tokens.append(("sep", match.group(), *stop))
            if match.group() not in ",;":
                line, start = line + 1, pos
        elif kind is not None:
            value = match.group(kind)
            tokens.append((kind, value if kind == "op" else int(value),
                           line, match.start() - start + 1))
            stop = (line, pos - start + 1)
    tokens.append(("end", None, *stop))
    return tokens


class _Parser:
    def __init__(self, tokens, ring):
        self.tokens = tokens
        self.ring = ring
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept(self, ops):
        """The next token's operator if it is one of ``ops``, consumed."""
        kind, value, *_ = self.peek()
        if kind == "op" and value in ops:
            self.i += 1
            return value
        return None

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok[2], tok[3])

    def generator(self, stops=("sep", "end")):
        f = self.expression()
        kind, value, *_ = self.peek()
        if kind not in stops:
            found = f"x{value}" if kind == "var" else repr(value)
            self.error(f"unexpected {found} after expression")
        return f

    def generators(self):
        """The expressions between separators, up to the end of input."""
        gens = []
        while True:
            if self.peek()[0] not in ("sep", "end"):
                gens.append(self.generator())
            if self.next()[0] == "end":
                return gens

    def expression(self):
        acc = {}   # the sum's terms, sorted once at the end
        op = self.accept("+-") or "+"
        while op:
            g = self.term()
            try:
                add_into(acc, g, -1 if op == "-" else 1)
            except ValueError as exc:
                self.error(str(exc))
            op = self.accept("+-")
        return self.ring.from_packed(acc)

    def term(self):
        """A product of factors, as one Poly.

        Variables and integers fold into one packed key and one
        coefficient: the key of a product of monomials is the sum of their
        keys, and that of a power a multiple.  Only a parenthesised factor
        multiplies as a Poly.  As with a chain of Poly products, a product
        that reaches the degree bound is refused where it is formed, unless
        it or the factor is zero.
        """
        key, coeff, rest, degree = 0, 1, None, 0   # coeff * x^key * rest
        while True:
            f_key, f_coeff, f_rest = self.factor()
            if coeff and f_coeff:
                f_degree = (f_key & DEGREE_MASK if f_rest is None
                            else f_rest.degree)
                degree = check_degree(degree + f_degree, "product")
                key, coeff = key + f_key, coeff * f_coeff % self.ring.prime
                if f_rest is not None:
                    rest = f_rest if rest is None else rest * f_rest
            else:
                coeff = 0
            if not self.accept("*"):
                break
        if not coeff:
            return self.ring.zero()
        mono = Poly(self.ring, ((key, coeff),))
        return mono if rest is None else rest * mono

    def factor(self):
        """(key, coeff, rest) for the factor coeff * x^key * rest.

        A variable or an integer, with its exponent, has no ``rest``; a
        parenthesised expression is ``rest`` alone, or coefficient 0 when
        it is zero.  An integer's power is one modular ``pow``.
        """
        tok = self.next()
        kind, value, *_ = tok
        if kind == "var":
            if value >= self.ring.nvars:
                self.error(f"unknown variable x{value}: "
                           f"ring has x0..x{self.ring.nvars - 1}", tok)
            e = check_degree(self.exponent(), "power")
            return self.ring.variable_key(value) * e, 1, None
        if kind == "int":
            return 0, pow(value, self.exponent(), self.ring.prime), None
        if kind == "op" and value == "(":
            f = self.expression()
            if not self.accept(")"):
                self.error("expected ')'")
            f = f ** self.exponent()
            return 0, 1 if f.packed else 0, f
        found = "end of input" if kind in ("sep", "end") else repr(value)
        self.error(f"expected a variable, integer, or '(', found {found}", tok)

    def exponent(self):
        """The integer after a ``^``, or 1 when there is none."""
        if not self.accept("^"):
            return 1
        kind, exp, *_ = self.peek()
        if kind != "int":
            self.error("expected an integer exponent")
        self.next()
        return exp


def max_coefficient(text):
    """Largest integer literal used as a coefficient, or None.

    Exponents, variable indices and comments hold no coefficient.
    """
    best = prev = None
    for kind, value, *_ in _tokenize(text):
        if kind == "int" and prev != "^":
            best = value if best is None else max(best, value)
        prev = value
    return best


def parse_polynomial(text: str, ring: PolyRing) -> Poly:
    return _Parser(_tokenize(text), ring).generator(stops=("end",))


def parse_ideal(text: str, nvars=None, prime=DEFAULT_PRIME):
    """Parse generators into an Ideal; raises on inhomogeneous input.

    The variable count is inferred from the largest index present unless
    given; every generator must be homogeneous of a single degree.
    """
    from .groebner import Ideal

    tokens = _tokenize(text)
    if nvars is None:
        nvars = 1 + max((v for k, v, *_ in tokens if k == "var"), default=-1)
        if nvars < 1:
            raise ParseError("no variables found; declare the variable count")
    ring = PolyRing(nvars, prime)
    return Ideal(ring, _Parser(tokens, ring).generators())


# ---------------------------------------------------------------------------
# rendering

def render_monomial(m) -> str:
    parts = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(m) if e]
    return "*".join(parts) if parts else "1"


def render_poly(f: Poly) -> str:
    """Canonical text form, balanced coefficients; parse(render(f)) == f."""
    p, text = f.ring.prime, ""
    for m, c in f.terms:
        c = c - p if c > p // 2 else c
        mag, mono = abs(c), render_monomial(m)
        body = str(mag) if not any(m) else mono if mag == 1 else f"{mag}*{mono}"
        if text:
            text += f" - {body}" if c < 0 else f" + {body}"
        else:
            text = f"-{body}" if c < 0 else body
    return text or "0"


def render_monomial_ideal(M) -> str:
    if not M.gens:
        return "0"
    return ", ".join(render_monomial(g) for g in M.gens)
