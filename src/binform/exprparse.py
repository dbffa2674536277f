"""Polynomial expression parsing and canonical printing.

The grammar is deliberately small: x, y, rational literals (5, 5.25, 1/3),
+, binary and unary -, explicit *, ^ with non-negative integer exponents
(right associative), and parentheses.  Juxtaposition is not multiplication,
so "xy" is an unknown identifier rather than a silent product.

The parser expands as it reads, with no syntax tree in between: each grammar
rule returns the expansion of the text it consumed as a pair (terms, den), a
sparse {(i, j): int} map without zero entries over one positive int
denominator, and a power n takes at most 2*log2(n) + 1 sparse products by
repeated squaring.  The finished pair, reduced to lowest terms, is the
BivariatePoly, with no Fraction built, and polyring is imported only then,
so a request that does not parse never compiles it.  A product or power
whose expansion would pass the degree cap is reported at its operator as
soon as it is read, so such an error can come before a grammar error later
in the same text.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from .errors import (
    ExprSyntaxError,
    NegativeExponentError,
    UnknownIdentifierError,
    ZeroPolynomialError,
)

if TYPE_CHECKING:
    from fractions import Fraction

    from .polyring import BivariatePoly, HomogeneousForm

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


def _degree(terms: dict) -> int:
    """Total degree of a term map; -1 for the empty (zero) one."""
    return max((i + j for i, j in terms), default=-1)


def _mul(a: dict, b: dict) -> dict:
    """Sparse product of two {(i, j): int} term maps, zeros dropped."""
    out: dict[tuple[int, int], int] = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            m = (i1 + i2, j1 + j2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


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
        terms, den = self.expr()
        kind, val, off = self._peek()
        if kind is not None:
            raise ExprSyntaxError(f"unexpected {val!r}", off)
        from .polyring import BivariatePoly

        return BivariatePoly._of(terms, den)

    def expr(self) -> tuple[dict, int]:
        terms, den = self.term()
        while True:
            kind, val, _ = self._peek()
            if kind != "op" or val not in "+-":
                return terms, den
            self.i += 1
            right, rden = self.term()
            mult = -den if val == "-" else den
            out = {m: c * rden for m, c in terms.items()}
            for m, c in right.items():
                out[m] = out.get(m, 0) + mult * c
            terms, den = {m: c for m, c in out.items() if c}, den * rden

    def term(self) -> tuple[dict, int]:
        terms, den = self.factor()
        while True:
            kind, val, off = self._peek()
            if kind != "op" or val != "*":
                return terms, den
            self.i += 1
            right, rden = self.factor()
            if _degree(terms) + _degree(right) > _MAX_EXPAND_DEGREE:
                raise ExprSyntaxError("expansion exceeds the degree cap", off)
            terms, den = _mul(terms, right), den * rden

    def factor(self) -> tuple[dict, int]:
        kind, val, _ = self._peek()
        if kind == "op" and val == "-":
            self.i += 1
            terms, den = self.factor()
            return {m: -c for m, c in terms.items()}, den
        return self.power()

    def power(self) -> tuple[dict, int]:
        base, den = self.atom()
        kind, val, off = self._peek()
        if kind != "op" or val != "^":
            return base, den
        self.i += 1
        n = self.exponent()
        if _degree(base) * n > _MAX_EXPAND_DEGREE:
            raise ExprSyntaxError("expansion exceeds the degree cap", off)
        out, k = {(0, 0): 1}, n          # repeated squaring
        while k:
            if k & 1:
                out = _mul(out, base)
            k >>= 1
            if k:
                base = _mul(base, base)
        return out, den ** n

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
        try:
            n = int(val)
        except ValueError:              # past the interpreter's digit limit
            raise ExprSyntaxError("exponent too large", off) from None
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

    def atom(self) -> tuple[dict, int]:
        kind, val, off = self._next()
        if kind == "number":
            num, slash, den = val.partition("/")
            whole, _, frac = num.partition(".")
            try:
                n, d = int(whole + frac), int(den) if slash else 10 ** len(frac)
            except ValueError:          # past the interpreter's digit limit
                raise ExprSyntaxError("number literal too long", off) from None
            if d == 0:
                raise ExprSyntaxError(f"zero denominator in {val!r}", off)
            return ({(0, 0): n} if n else {}), d
        if kind == "name":
            if val in ("x", "y"):
                return {(1, 0) if val == "x" else (0, 1): 1}, 1
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
    from .polyring import HomogeneousForm

    if isinstance(p, HomogeneousForm):
        deg = p.degree
        mons = [(deg - j, j, c) for j, c in enumerate(p.coefficients()) if c]
    else:
        mons = p.monomials()
    if not mons:
        return "0"
    out = []
    for i, j, c in mons:
        txt = _monomial_text(i, j, c)
        if not out:
            out.append(txt if c > 0 else f"-{txt}")
        else:
            out.append(f" + {txt}" if c > 0 else f" - {txt}")
    return "".join(out)
