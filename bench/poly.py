"""Exact bivariate polynomials over Fraction, written for the benchmark.

The benchmark builds its inputs and checks the program's answers with this
module alone, so no check shares code with the package it measures.  A
polynomial is a dict {(i, j): Fraction} for the monomial x^i y^j with no
zero values.
"""

from __future__ import annotations

import re
from fractions import Fraction

Poly = dict


def const(c) -> Poly:
    c = Fraction(c)
    return {(0, 0): c} if c else {}


X: Poly = {(1, 0): Fraction(1)}
Y: Poly = {(0, 1): Fraction(1)}


def add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for m, c in q.items():
        v = out.get(m, 0) + c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def scale(p: Poly, s) -> Poly:
    s = Fraction(s)
    return {m: c * s for m, c in p.items()} if s else {}


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, scale(q, -1))


def mul(p: Poly, q: Poly) -> Poly:
    out: dict = {}
    for (i, j), c in p.items():
        for (k, l), d in q.items():
            m = (i + k, j + l)
            out[m] = out.get(m, 0) + c * d
    return {m: c for m, c in out.items() if c}


def power(p: Poly, n: int) -> Poly:
    out = const(1)
    for _ in range(n):
        out = mul(out, p)
    return out


def dx(p: Poly) -> Poly:
    return {(i - 1, j): c * i for (i, j), c in p.items() if i}


def dy(p: Poly) -> Poly:
    return {(i, j - 1): c * j for (i, j), c in p.items() if j}


def degree(p: Poly) -> int:
    """Total degree; -1 for the zero polynomial."""
    return max((i + j for i, j in p), default=-1)


def divmod_poly(p: Poly, d: Poly) -> tuple[Poly, Poly]:
    """Division by d in the lexicographic order x > y.  The remainder is
    zero exactly when d divides p."""
    lead_d = max(d)
    cd = d[lead_d]
    q: Poly = {}
    r = dict(p)
    steps = 0
    while r:
        lead = max(r)
        if lead[0] < lead_d[0] or lead[1] < lead_d[1]:
            return q, r
        m = (lead[0] - lead_d[0], lead[1] - lead_d[1])
        t = {m: r[lead] / cd}
        q = add(q, t)
        r = sub(r, mul(t, d))
        steps += 1
        if steps > 10_000:
            raise ArithmeticError("division did not terminate")
    return q, r


def divides(d: Poly, p: Poly) -> bool:
    return not divmod_poly(p, d)[1]


def form_coeffs(p: Poly) -> list[Fraction]:
    """Coefficients of a homogeneous polynomial, x-power first."""
    d = degree(p)
    return [p.get((d - j, j), Fraction(0)) for j in range(d + 1)]


def parse_canonical(text: str) -> Poly:
    """Read the package's canonical polynomial text: signed monomials such
    as ``-3/2*x^2*y``, joined by `` + `` and `` - ``, or ``0``."""
    text = text.strip()
    if text == "0":
        return {}
    out: Poly = {}
    tokens = re.split(r"\s+([+-])\s+", text)
    signs = ["+"] + tokens[1::2]
    for sign, mono in zip(signs, tokens[0::2]):
        if mono.startswith("-"):
            sign = "-" if sign == "+" else "+"
            mono = mono[1:]
        coeff = Fraction(1)
        i = j = 0
        for part in mono.split("*"):
            if part[0] in "xy":
                var, _, exp = part.partition("^")
                e = int(exp) if exp else 1
                if var == "x":
                    i += e
                else:
                    j += e
            else:
                coeff *= Fraction(part)
        if sign == "-":
            coeff = -coeff
        out = add(out, {(i, j): coeff})
    return out
