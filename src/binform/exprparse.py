"""Polynomial expression parsing and canonical printing.

The grammar is deliberately small: x, y, rational literals (5, 5.25, 1/3),
+, binary and unary -, explicit *, ^ with non-negative integer exponents
(right associative), and parentheses.  Juxtaposition is not multiplication,
so "xy" is an unknown identifier rather than a silent product.

The tokenizer is one regular-expression pass that yields the tokens'
texts, closed by an empty end sentinel; a character no token starts with
is an error at once, and an offset is found again only for an error.

The parser expands as it reads, with no syntax tree in between.  Numbers,
x, y and their products and powers are multiplied as one scalar monomial
n/d * x^i * y^j in plain ints.  A sparse {(i, j): int} term map, without
zero entries and over one positive int denominator, is built only for a
parenthesized sum of two or more terms, and such maps are the only
operands of the sparse product, of which a power n takes at most
2*log2(n) + 1 by repeated squaring.  A sum adds each term's map into the
one of the terms before it.  The finished pair, reduced to lowest terms,
is the BivariatePoly, with no Fraction built, and polyring is imported
only then, so a request that does not parse never compiles it.  A product
or power whose expansion would pass the degree cap is reported at its
operator as soon as it is read (a monomial's degree is i + j, and -1 when
its coefficient is 0), so such an error can come before a grammar error
later in the same text.

canonical_text prints from the ints as well: the numerators of a
BivariatePoly over its ``den``, or a form's ``ints`` times its ``num`` over
its ``den``, each reduced by one gcd.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING

from .errors import (
    ExprSyntaxError,
    NegativeExponentError,
    UnknownIdentifierError,
    ZeroPolynomialError,
)

if TYPE_CHECKING:
    from .polyring import BivariatePoly, HomogeneousForm

# Exponents cap at a level no sane form reaches; the expansion degree cap
# keeps 64-character adversarial inputs from allocating giant convolutions.
_MAX_EXPONENT = 512
_MAX_EXPAND_DEGREE = 1536


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN = re.compile(r"""\s*(?:
    ( \d+(?:\.\d+|/\d+)?           # number
    | [A-Za-z_][A-Za-z_0-9]*        # name
    | [-+*^()] )                    # operator
  | (\S) )                         # any other character
""", re.VERBOSE)


def _tokenize(text: str) -> list[str]:
    """The tokens' texts in one pass, closed by the end sentinel ""."""
    found = _TOKEN.findall(text)
    toks = [tok for tok, _ in found]
    if not all(toks):
        i = toks.index("")
        raise ExprSyntaxError(f"unexpected character {found[i][1]!r}", _offset(text, i))
    toks.append("")
    return toks


def _offset(text: str, n: int) -> int:
    """Offset of the n-th token of text; len(text) for the end sentinel.
    Only errors need offsets, so they are found again when one is raised."""
    for i, m in enumerate(_TOKEN.finditer(text)):
        if i == n:
            return m.start(m.lastindex)
    return len(text)


def _mul(a: dict, b: dict) -> dict:
    """Sparse product of two {(i, j): int} term maps, zeros dropped."""
    out: dict[tuple[int, int], int] = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            m = (i1 + i2, j1 + j2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _fdeg(f: tuple) -> int:
    """Total degree of a factor (n, d, i, j, terms); -1 when it is zero.
    A factor's map is never empty, so only n can make it zero."""
    n, _, i, j, terms = f
    if not n:
        return -1
    return i + j if terms is None else i + j + max(a + b for a, b in terms)


class _Parser:
    """Each rule below ``expr`` returns a factor (n, d, i, j, terms): the
    monomial n/d * x^i * y^j times the term map ``terms`` of int
    coefficients, or times 1 when ``terms`` is None.  Only a parenthesized
    sum of two or more terms is a map; numbers, x, y and their products and
    powers stay scalars.  ``expr`` returns a sum as a pair (terms, den)."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def _error(self, message: str, n: int) -> ExprSyntaxError:
        return ExprSyntaxError(message, _offset(self.text, n))

    def _expect_op(self, op: str):
        self.i += 1
        if self.toks[self.i - 1] != op:
            raise self._error(f"expected {op!r}", self.i - 1)

    def parse(self) -> BivariatePoly:
        if len(self.toks) == 1:
            raise ExprSyntaxError("empty input", 0)
        terms, den = self.expr()
        if self.toks[self.i]:
            raise self._error(f"unexpected {self.toks[self.i]!r}", self.i)
        from .polyring import BivariatePoly

        return BivariatePoly._of(terms, den)

    def expr(self) -> tuple[dict, int]:
        out, den = self.term()          # a new map, which the sum may change
        toks = self.toks
        op = toks[self.i]
        # a monomial whose sum cancels leaves the map at once, so that one
        # that comes back afterwards is last, as a dropped zero would be
        while op == "+" or op == "-":
            self.i += 1
            right, rden = self.term()
            if rden != 1:
                for m in out:
                    out[m] *= rden
            mult = den if op == "+" else -den
            den *= rden
            for m, c in right.items():
                c = out.get(m, 0) + mult * c
                if c:
                    out[m] = c
                else:
                    del out[m]
            op = toks[self.i]
        return out, den

    def term(self) -> tuple[dict, int]:
        n, d, i, j, acc = f = self.factor()
        toks = self.toks
        if toks[self.i] == "*":
            deg = _fdeg(f)
            while True:
                star = self.i
                self.i += 1
                f = self.factor()
                rdeg = _fdeg(f)
                if deg + rdeg > _MAX_EXPAND_DEGREE:
                    raise self._error("expansion exceeds the degree cap", star)
                deg = -1 if deg < 0 or rdeg < 0 else deg + rdeg
                n2, d2, i2, j2, terms = f
                n, d, i, j = n * n2, d * d2, i + i2, j + j2
                if terms is not None:
                    acc = terms if acc is None else _mul(acc, terms)
                if toks[self.i] != "*":
                    break
        if not n:
            return {}, d
        if acc is None:
            return {(i, j): n}, d
        return {(a + i, b + j): c * n for (a, b), c in acc.items()}, d

    def factor(self) -> tuple:
        if self.toks[self.i] == "-":
            self.i += 1
            n, d, i, j, terms = self.factor()
            return -n, d, i, j, terms
        base = self.atom()
        if self.toks[self.i] != "^":
            return base
        caret = self.i
        self.i += 1
        e = self.exponent()
        if _fdeg(base) * e > _MAX_EXPAND_DEGREE:
            raise self._error("expansion exceeds the degree cap", caret)
        n, d, i, j, terms = base
        if terms is not None:
            out, k = None, e            # repeated squaring
            while True:
                if k & 1:
                    out = terms if out is None else _mul(out, terms)
                k >>= 1
                if not k:
                    break
                terms = _mul(terms, terms)
            terms = {(0, 0): 1} if out is None else out
        return n ** e, d ** e, i * e, j * e, terms

    def exponent(self) -> int:
        """Non-negative integer, right associative so 2^3^2 is 2^9."""
        at = self.i
        tok = self.toks[at]
        self.i += 1
        if tok == "-":
            raise NegativeExponentError(_offset(self.text, at))
        if tok == "(":
            inner = self.exponent()
            self._expect_op(")")
            return inner
        if not tok.isdigit():
            raise self._error("exponent must be a non-negative integer", at)
        try:
            n = int(tok)
        except ValueError:              # past the interpreter's digit limit
            raise self._error("exponent too large", at) from None
        if self.toks[self.i] == "^":
            caret = self.i
            self.i += 1
            e = self.exponent()
            if n > 1 and e * n.bit_length() > 16:
                raise self._error("exponent too large", caret)
            n = n ** e
        if n > _MAX_EXPONENT:
            raise self._error("exponent too large", at)
        return n

    def atom(self) -> tuple:
        tok = self.toks[self.i]
        self.i += 1
        if tok == "x":
            return 1, 1, 1, 0, None
        if tok == "y":
            return 1, 1, 0, 1, None
        if tok == "(":
            terms, den = self.expr()
            self._expect_op(")")
            if len(terms) > 1:
                return 1, den, 0, 0, terms
            for (i, j), c in terms.items():
                return c, den, i, j, None
            return 0, den, 0, 0, None
        if tok[:1].isdigit():
            num, slash, den = tok.partition("/")
            whole, _, frac = num.partition(".")
            try:
                n, d = int(whole + frac), int(den) if slash else 10 ** len(frac)
            except ValueError:          # past the interpreter's digit limit
                raise self._error("number literal too long", self.i - 1) from None
            if d == 0:
                raise self._error(f"zero denominator in {tok!r}", self.i - 1)
            return n, d, 0, 0, None
        if tok.isidentifier():
            raise UnknownIdentifierError(tok, _offset(self.text, self.i - 1))
        raise self._error(f"unexpected {tok!r}" if tok else "unexpected end of input", self.i - 1)


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

def canonical_text(p: BivariatePoly | HomogeneousForm) -> str:
    """Stable text form: monomials by descending x-exponent then descending
    y-exponent, explicit *, ^ only from exponent 2 up.  Each coefficient
    c/den is printed reduced by one gcd, straight from the ints."""
    from .polyring import HomogeneousForm

    if isinstance(p, HomogeneousForm):
        num, den = p.num, p.den
        deg = p.degree
        mons = [(deg - j, j, n * num) for j, n in enumerate(p.ints) if n and num]
    else:
        den = p.den
        mons = sorted(((i, j, c) for (i, j), c in p.nums.items()), reverse=True)
    if not mons:
        return "0"
    out = []
    for i, j, c in mons:
        a = -c if c < 0 else c
        g = math.gcd(a, den)
        a, b = a // g, den // g
        if b != 1:
            parts = [f"{a}/{b}"]
        elif a != 1 or not (i or j):
            parts = [str(a)]
        else:
            parts = []
        if i:
            parts.append("x" if i == 1 else f"x^{i}")
        if j:
            parts.append("y" if j == 1 else f"y^{j}")
        txt = "*".join(parts)
        if out:
            out.append(f" - {txt}" if c < 0 else f" + {txt}")
        else:
            out.append(f"-{txt}" if c < 0 else txt)
    return "".join(out)
