"""Polynomial expression parsing and canonical printing.

The grammar is deliberately small: x, y, rational literals (5, 5.25, 1/3),
+, binary and unary -, explicit *, ^ with non-negative integer exponents
(right associative), and parentheses.  Juxtaposition is not multiplication,
so "xy" is an unknown identifier rather than a silent product.

The parser builds exact BivariatePoly values as it reads, with no syntax
tree in between: each grammar rule returns the expanded polynomial of the
text it consumed.  A product or power whose expansion would pass the degree
cap is reported at its operator as soon as it is read, so such an error can
come before a grammar error later in the same text.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import (
    ExprSyntaxError,
    NegativeExponentError,
    UnknownIdentifierError,
    ZeroPolynomialError,
)
from .polyring import BivariatePoly, HomogeneousForm

_X = BivariatePoly({(1, 0): Fraction(1)})
_Y = BivariatePoly({(0, 1): Fraction(1)})

# Exponents cap at a level no sane form reaches; the expansion degree cap
# keeps 64-character adversarial inputs from allocating giant convolutions.
_MAX_EXPONENT = 512
_MAX_EXPAND_DEGREE = 1536


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d+|/\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*^()])
""", re.VERBOSE)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def _peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, "", len(self.text))

    def _next(self):
        tok = self._peek()
        self.i += 1
        return tok

    def _expect_op(self, op: str):
        kind, val, off = self._next()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", off)

    def parse(self) -> BivariatePoly:
        if not self.toks:
            raise ExprSyntaxError("empty input", 0)
        poly = self.expr()
        kind, val, off = self._peek()
        if kind is not None:
            raise ExprSyntaxError(f"unexpected {val!r}", off)
        return poly

    def expr(self) -> BivariatePoly:
        poly = self.term()
        while True:
            kind, val, _ = self._peek()
            if kind == "op" and val in "+-":
                self.i += 1
                right = self.term()
                poly = poly - right if val == "-" else poly + right
            else:
                return poly

    def term(self) -> BivariatePoly:
        poly = self.factor()
        while True:
            kind, val, off = self._peek()
            if kind == "op" and val == "*":
                self.i += 1
                right = self.factor()
                if poly.total_degree() + right.total_degree() > _MAX_EXPAND_DEGREE:
                    raise ExprSyntaxError("expansion exceeds the degree cap", off)
                poly = poly * right
            else:
                return poly

    def factor(self) -> BivariatePoly:
        kind, val, _ = self._peek()
        if kind == "op" and val == "-":
            self.i += 1
            return -self.factor()
        return self.power()

    def power(self) -> BivariatePoly:
        base = self.atom()
        kind, val, off = self._peek()
        if kind == "op" and val == "^":
            self.i += 1
            n = self.exponent()
            if base.total_degree() * n > _MAX_EXPAND_DEGREE:
                raise ExprSyntaxError("expansion exceeds the degree cap", off)
            return base.power(n)
        return base

    def exponent(self) -> int:
        """Non-negative integer, right associative so 2^3^2 is 2^9."""
        kind, val, off = self._next()
        if kind == "op" and val == "-":
            raise NegativeExponentError(off)
        if kind == "op" and val == "(":
            inner = self.exponent()
            self._expect_op(")")
            return inner
        if kind != "number" or not val.isdigit():
            raise ExprSyntaxError("exponent must be a non-negative integer", off)
        n = int(val)
        kind, nxt, noff = self._peek()
        if kind == "op" and nxt == "^":
            self.i += 1
            e = self.exponent()
            if n > 1 and e * n.bit_length() > 16:
                raise ExprSyntaxError("exponent too large", noff)
            n = n ** e
        if n > _MAX_EXPONENT:
            raise ExprSyntaxError("exponent too large", off)
        return n

    def atom(self) -> BivariatePoly:
        kind, val, off = self._next()
        if kind == "number":
            try:
                return BivariatePoly({(0, 0): Fraction(val)})
            except ZeroDivisionError:
                raise ExprSyntaxError(f"zero denominator in {val!r}", off) from None
        if kind == "name":
            if val in ("x", "y"):
                return _X if val == "x" else _Y
            raise UnknownIdentifierError(val, off)
        if kind == "op" and val == "(":
            inner = self.expr()
            self._expect_op(")")
            return inner
        raise ExprSyntaxError(f"unexpected {val!r}" if kind else "unexpected end of input", off)


def parse_polynomial(text: str) -> BivariatePoly:
    """Parse and expand to a sparse exact coefficient map."""
    return _Parser(text).parse()


def to_homogeneous(p: BivariatePoly) -> HomogeneousForm:
    """Check single total degree and repackage; the zero polynomial is
    rejected, and degree mixtures with the offending degrees listed."""
    if p.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no degree")
    return p.to_form()


# ---------------------------------------------------------------------------
# canonical printing

def _coeff_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _monomial_text(i: int, j: int, c: Fraction) -> str:
    parts = []
    if abs(c) != 1 or (i, j) == (0, 0):
        parts.append(_coeff_text(abs(c)))
    for sym, e in (("x", i), ("y", j)):
        if e == 1:
            parts.append(sym)
        elif e >= 2:
            parts.append(f"{sym}^{e}")
    return "*".join(parts)


def canonical_text(p: BivariatePoly | HomogeneousForm) -> str:
    """Stable text form: monomials by descending x-exponent then descending
    y-exponent, explicit *, ^ only from exponent 2 up."""
    if isinstance(p, HomogeneousForm):
        p = p.to_bivariate()
    if p.is_zero:
        return "0"
    out = []
    for i, j, c in p.monomials():
        txt = _monomial_text(i, j, c)
        if not out:
            out.append(txt if c > 0 else f"-{txt}")
        else:
            out.append(f" + {txt}" if c > 0 else f" - {txt}")
    return "".join(out)
