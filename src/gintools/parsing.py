"""Text syntax for polynomials and ideals.

Grammar: expressions over x0..xn, integer literals, the operators + - * ^
and parentheses, whitespace-insensitive.  The renderer emits the canonical
form (terms in decreasing order, balanced signed coefficients) and
round-trips through the parser.
"""

from __future__ import annotations

import re

from .ring import Poly, PolyRing, mono_degree, DEFAULT_PRIME


class ParseError(ValueError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = f" at line {line}, column {column}" if line is not None else ""
        super().__init__(f"{message}{where}")


_TOKEN = re.compile(r"x(?P<index>\d+)|(?P<int>\d+)|(?P<op>[+\-*^()])")


def _position(text, pos):
    line = text.count("\n", 0, pos) + 1
    col = pos - text.rfind("\n", 0, pos)
    return line, col


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN.match(text, pos)
        if match is None:
            line, col = _position(text, pos)
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        line, col = _position(text, pos)
        if match.group("index") is not None:
            tokens.append(("var", int(match.group("index")), line, col))
        elif match.group("int") is not None:
            tokens.append(("int", int(match.group("int")), line, col))
        else:
            tokens.append(("op", match.group("op"), line, col))
        pos = match.end()
    line, col = _position(text, len(text))
    tokens.append(("end", None, line, col))
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

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok[2], tok[3])

    def parse(self):
        f = self.expression()
        kind, value, *_ = self.peek()
        if kind != "end":
            found = f"x{value}" if kind == "var" else repr(value)
            self.error(f"unexpected {found} after expression")
        return f

    def expression(self):
        sign = 1
        kind, value, *_ = self.peek()
        if kind == "op" and value in "+-":
            self.next()
            sign = -1 if value == "-" else 1
        f = self.term().scale(sign)
        while True:
            kind, value, *_ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                g = self.term()
                try:
                    f = f - g if value == "-" else f + g
                except ValueError as exc:
                    self.error(str(exc))
            else:
                return f

    def term(self):
        f = self.factor()
        while True:
            kind, value, *_ = self.peek()
            if kind == "op" and value == "*":
                self.next()
                f = f * self.factor()
            else:
                return f

    def factor(self):
        base = self.base()
        kind, value, *_ = self.peek()
        if kind == "op" and value == "^":
            self.next()
            kind, exp, *_ = self.peek()
            if kind != "int":
                self.error("expected an integer exponent")
            self.next()
            return base ** exp
        return base

    def base(self):
        kind, value, line, col = self.peek()
        if kind == "var":
            self.next()
            if value >= self.ring.nvars:
                raise ParseError(
                    f"unknown variable x{value}: ring has x0..x{self.ring.nvars - 1}",
                    line, col)
            return self.ring.variable(value)
        if kind == "int":
            self.next()
            return self.ring.one().scale(value)
        if kind == "op" and value == "(":
            self.next()
            f = self.expression()
            kind, value, *_ = self.peek()
            if kind != "op" or value != ")":
                self.error("expected ')'")
            self.next()
            return f
        found = "end of input" if kind == "end" else repr(value)
        self.error(f"expected a variable, integer, or '(', found {found}")


def max_variable_index(text):
    """Largest variable index mentioned anywhere in the text, or -1."""
    return max((int(m.group(1)) for m in re.finditer(r"x(\d+)", text)), default=-1)


def parse_polynomial(text: str, ring: PolyRing) -> Poly:
    return _Parser(_tokenize(text), ring).parse()


def _split_with_positions(text):
    """(chunk, line, column) triples, 1-based positions in the original text."""
    chunks = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0]
        col = 1
        for piece in re.split(r"[,;]", line):
            stripped = piece.strip()
            if stripped:
                chunks.append((stripped, lineno, col + piece.index(stripped[0])))
            col += len(piece) + 1
    return chunks


def parse_ideal(text: str, nvars=None, prime=DEFAULT_PRIME):
    """Parse generators into an Ideal; raises on inhomogeneous input.

    The variable count is inferred from the largest index present unless
    given; every generator must be homogeneous of a single degree.
    """
    from .groebner import Ideal

    if nvars is None:
        nvars = max_variable_index(text) + 1
    if nvars < 1:
        raise ParseError("no variables found; declare the variable count")
    ring = PolyRing(nvars, prime)
    gens = []
    for chunk, lineno, col in _split_with_positions(text):
        try:
            f = parse_polynomial(chunk, ring)
        except ParseError as exc:
            line = lineno + (exc.line or 1) - 1
            column = exc.column + (col - 1 if exc.line == 1 else 0)
            raise ParseError(exc.args[0].rsplit(" at line", 1)[0],
                             line, column) from None
        if f.is_zero():
            continue
        if not f.is_homogeneous():
            degrees = sorted({mono_degree(m) for m, _ in f.terms})
            raise ParseError(
                f"inhomogeneous generator {chunk!r}: degrees {degrees}",
                lineno, col)
        gens.append(f)
    return Ideal(ring, gens)


# ---------------------------------------------------------------------------
# rendering

def render_monomial(m) -> str:
    parts = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(m) if e]
    return "*".join(parts) if parts else "1"


def _balanced(c, p):
    return c - p if c > p // 2 else c


def render_poly(f: Poly) -> str:
    """Canonical text form; parse(render(f)) == f."""
    if f.is_zero():
        return "0"
    p = f.ring.prime
    pieces = []
    for i, (m, c) in enumerate(f.terms):
        c = _balanced(c, p)
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if mono_degree(m) == 0:
            body = str(mag)
        elif mag == 1:
            body = render_monomial(m)
        else:
            body = f"{mag}*{render_monomial(m)}"
        if i == 0:
            pieces.append(f"-{body}" if sign == "-" else body)
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)


def render_monomial_ideal(M) -> str:
    if not M.gens:
        return "0"
    return ", ".join(render_monomial(g) for g in M.gens)
