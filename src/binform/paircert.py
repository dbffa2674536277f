"""Certified enclosures of the conjugate root pairs of a squarefree layer.

``realfactor`` imports this module when a structure's enclosures are first
read and a layer has non-real roots, and for ``reconstruction_gap``; the
commands that read only the exact counts never load it.

Certification of a conjugate root pair is exact.  Aberth-Ehrlich seeds
(in Python complex on the first rung of a precision ladder, in Gaussian
integers on the rung's dyadic grid on a later one) are polished by Newton
steps on that grid, and the disc bound |z - root| <= n |w(z)| / |w'(z)|,
which holds however z was found, is checked with its separation and its
distance to the axis in integers; the enclosures of the quadratic
coefficients follow in integers too, over one denominator, and build no
Fraction.  :class:`_Interval` is the closed interval that
``reconstruction_gap`` multiplies the enclosures' Fraction views in, with
polyring's one dense product, ``convolve``.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Sequence

from .errors import NotRefinedError
from .polyring import _derivative
from .realfactor import IsolatedRoot, QuadraticFactor

_MAX_PREC_BITS = 1 << 14


# Rung k of the precision ladder works on the grid of the points
# z = (a + ib)/2^k, each held as the Gaussian integer (a, b).  For the layer
# w of degree n, W = 2^(kn) w(z) and D = 2^(k(n-1)) w'(z) are Gaussian
# integers, so a Newton step moves (a, b) by W/D and the disc bound
# |z - root| <= n |w(z)/w'(z)| is n |W|/|D| grid steps: the certificate
# runs in integers and needs no rounding.

def _on_grid(p: int, q: int, k: int) -> int:
    """The integer nearest p/q * 2^k, exactly, for q > 0."""
    return ((p << (k + 1)) + q) // (2 * q)


def _grid_points(zs, k: int) -> list[tuple[int, int]]:
    """The Python complex points zs on the grid of rung k."""
    if not all(cmath.isfinite(z) for z in zs):
        raise ArithmeticError("an Aberth iterate left the float range")
    return [(_on_grid(*z.real.as_integer_ratio(), k), _on_grid(*z.imag.as_integer_ratio(), k))
            for z in zs]


def _gauss_eval(w: Sequence[int], a: int, b: int, k: int) -> tuple[int, int]:
    """2^(kn) w((a + ib)/2^k) for n = len(w) - 1, by homogeneous Horner."""
    re = im = 0
    qk = 1
    for c in reversed(w):
        re, im = re * a - im * b + c * qk, re * b + im * a
        qk <<= k
    return re, im


def _gauss_div(xr: int, xi: int, yr: int, yi: int) -> tuple[int, int]:
    """The Gaussian integer nearest (xr + i xi)/(yr + i yi)."""
    den = yr * yr + yi * yi
    return ((2 * (xr * yr + xi * yi) + den) // (2 * den),
            (2 * (xi * yr - xr * yi) + den) // (2 * den))


def _polish(w, dw, a: int, b: int, k: int, steps: int) -> tuple[int, int, int]:
    """Newton steps on w (derivative dw) from the grid point (a, b) of rung
    k, until a step rounds to zero or ``steps`` are taken.  Returns the last
    point and the least integer radius r >= n |W|/|D| there, in grid steps:
    the disc of radius r/2^k about it holds a root of w."""
    for i in range(steps + 1):
        wr, wi = _gauss_eval(w, a, b, k)
        dr, di = _gauss_eval(dw, a, b, k)
        den = dr * dr + di * di
        if den == 0:
            raise ArithmeticError("the derivative vanishes at a seed")
        sa, sb = _gauss_div(wr, wi, dr, di)     # W/D, rounded to the grid
        if i == steps or not (sa or sb):
            break
        a, b = a - sa, b - sb
    n2w2 = (len(w) - 1) ** 2 * (wr * wr + wi * wi)
    ratio = -(-n2w2 // den)             # ceil(n^2 |W|^2 / |D|^2)
    r = math.isqrt(ratio)
    return a, b, r + (r * r < ratio)


def _aberth(p, z, tol):
    """Aberth-Ehrlich iteration in Python complex for all roots of p
    (highest degree first) from the start points z, until no point moves
    by more than tol times its modulus or 100 sweeps are done."""
    z = list(z)
    for _ in range(100):
        done = True
        for i, zi in enumerate(z):
            pv = dv = 0
            for c in p:                 # p(zi) and p'(zi) by one Horner pass
                dv = dv * zi + pv
                pv = pv * zi + c
            ratio = pv / dv
            step = ratio / (1 - ratio * sum(1 / (zi - zj) for j, zj in enumerate(z) if j != i))
            z[i] = zi - step
            done = done and abs(step) <= tol * abs(zi)
        if done:
            break
    return z


def _approximate(w, real_roots, k: int, start) -> list[tuple[int, int]]:
    """The non-real roots of the layer w, approximated by the Aberth-Ehrlich
    iteration, as points of the grid of rung k.  The first rung (``start``
    None) runs ``_aberth`` on w deflated in floats by its real roots, each
    refined to 2^-(k/2).  A later rung runs the iteration on w itself, in
    Gaussian integers on its grid, with the real roots refined to 2^-k held
    fixed as repellers.  It starts from ``start``, the previous rung's
    points, or from ``_circle`` when there are none, and stops when no step
    exceeds 2^-(k/2) of its point, or after 100 sweeps.  A sweep whose
    largest step is no smaller than the one before it has stalled: two
    points that reached a cluster of two roots on the line bisecting it
    stay on that line, where the iteration has no attracting root.  The
    next sweep then turns every step by a quarter (i times the step),
    which takes them off the line."""
    if start is None:
        p = [float(c) for c in reversed(w)]     # highest degree first
        for r in real_roots:
            x = r._refine(1, 1 << (k // 2)).approx
            out = [p[0]]
            for c in p[1:-1]:           # synthetic division, remainder dropped
                out.append(c + out[-1] * x)
            p = out
        m = len(p) - 1
        return _grid_points(_aberth(p, _circle(m, abs(p[-1] / p[0]) ** (1 / m)), 2.0 ** -40), k)
    zs = [(a << k // 2, b << k // 2) for a, b in start]
    fixed = [(_on_grid(t.a + t.b, 2 * t.d, k), 0)
             for t in (r._refine(1, 1 << k) for r in real_roots)]
    if not zs:      # radius: the geometric mean of the m non-real roots' moduli, whose
        # product is |w_j/w_n| (w_j the lowest nonzero) over the real roots' moduli
        m, xs = len(w) - 1 - len(fixed), [abs(x) for x, _ in fixed if x]
        log_r = math.log(abs(w[0] or w[1]) << k * len(xs)) - math.log(abs(w[-1]) * math.prod(xs))
        zs = _grid_points(_circle(m, math.exp(log_r / m)), k)
    dw, k2 = _derivative(w), 2 * k
    last, turn = None, False       # the previous sweep's largest |step|^2
    for _ in range(100):
        done, big = True, 0
        for i, (a, b) in enumerate(zs):
            sr = si = 0         # S = 4^k times the sum of 1/(Z_i - Z_j), per term floored
            for c, d in zs[:i] + zs[i + 1:] + fixed:
                c, d = a - c, b - d
                sq = c * c + d * d
                sr, si = sr + (c << k2) // sq, si - (d << k2) // sq
            wr, wi = _gauss_eval(w, a, b, k)
            dr, di = _gauss_eval(dw, a, b, k)
            # the step W/(D - W S/4^k), in grid steps
            sa, sb = _gauss_div(wr << k2, wi << k2,
                                (dr << k2) - wr * sr + wi * si, (di << k2) - wr * si - wi * sr)
            if turn:
                sa, sb = -sb, sa
            zs[i] = (a - sa, b - sb)
            s2 = sa * sa + sb * sb
            done = done and s2 << k <= a * a + b * b
            big = max(big, s2)
        if done:
            break
        turn = last is not None and big >= last
        last = None if turn else big
    return zs


def _circle(m: int, r: float) -> list[complex]:
    """m points on the circle of radius r about 0, which should be the
    geometric mean of the moduli of the m roots sought."""
    return [r * cmath.rect(1.0, 2 * math.pi * j / m + 0.4) for j in range(m)]




class _Interval(tuple):
    """A closed interval (lo, hi) with exact endpoints, closed under + and *
    for ``convolve``; a number n stands for (n, n)."""

    def __add__(self, other):
        return _Interval((self[0] + other[0], self[1] + other[1]))

    def __mul__(self, other):
        lo, hi = other if isinstance(other, tuple) else (other, other)
        ps = (self[0] * lo, self[0] * hi, self[1] * lo, self[1] * hi)
        return _Interval((min(ps), max(ps)))


def _certify_pairs(w: tuple[int, ...], real_roots: list[IsolatedRoot], beta: int,
                   eps: float) -> list[QuadraticFactor]:
    """Certified enclosures for every conjugate root pair of the squarefree
    layer w (a primitive integer tuple), each returned as a normalized
    quadratic factor.  ``real_roots`` is the isolation of w's real roots.
    The rungs k of the ladder double from eps's bits + 60 (at least 80) up
    to 2^14 until one certifies every pair.  A c enclosed above the largest
    float or below the smallest normal one is NotRefined, since it has no
    float to report."""
    n_pairs = (len(w) - 1 - len(real_roots)) // 2
    if n_pairs == 0:
        return []
    dw = _derivative(w)
    found = None        # the last rung's approximations, [] if it found none
    k = max(80, int(-math.log2(max(eps, 1e-300))) + 60)
    while k <= _MAX_PREC_BITS:
        start, found = found, []
        try:
            found = _approximate(w, real_roots, k, start)
            upper = [(a, b) for a, b in found if b > 0]
            if len(upper) != n_pairs:
                raise ArithmeticError("conjugate pairing failed")
            discs = [_polish(w, dw, a, b, k, k.bit_length()) for a, b in upper]
            for i, (ai, bi, ri) in enumerate(discs):
                for aj, bj, rj in discs[i + 1:]:
                    if (ai - aj) ** 2 + (bi - bj) ** 2 <= 16 * (ri + rj) ** 2:
                        raise NotRefinedError("discs not separated")
            # Each disc sits strictly above the axis, its mirror strictly
            # below, the isolation counts the real roots exactly, and the
            # discs are pairwise disjoint; since the counts add up to deg w,
            # every disc holds exactly one root.
            pairs = [_pair_from_disc(disc, k, beta, eps) for disc in discs]
            break
        except (ArithmeticError, NotRefinedError) as exc:
            last, k = exc, 2 * k
    else:
        raise NotRefinedError(f"certification failed at eps={eps}: {last}")
    if any(qf.ints[3] > int(sys.float_info.max) * qf.den for qf in pairs):
        raise NotRefinedError("a quadratic factor's c is beyond the float range")
    if any(qf.ints[2] << 1022 < qf.den for qf in pairs):      # 2^-1022, the least normal
        raise NotRefinedError("a quadratic factor's c is below the normal float range")
    return pairs


def _pair_from_disc(disc: tuple[int, int, int], k: int, beta: int,
                    eps: float) -> QuadraticFactor:
    """The factor x^2 + b x y + c y^2 of the root z in the disc (a, b, r) of
    rung k: b = -2 Re z/|z|^2 and c = 1/|z|^2, enclosed in integers over the
    denominator m_lo m_hi."""
    a, b, r = disc
    if not r < b:
        raise NotRefinedError("disc touches the real axis")
    # 2^k Re z lies in [a - r, a + r] and 4^k |z|^2 in [m_lo, m_hi], m_lo > 0
    re_lo, re_hi = a - r, a + r
    re2 = (re_lo * re_lo, re_hi * re_hi)
    m_lo = (0 if re_lo <= 0 <= re_hi else min(re2)) + (b - r) ** 2
    m_hi = max(re2) + (b + r) ** 2
    q = 1 << k
    # -2 q x / m falls as x rises; its least value has the largest x and,
    # for x > 0, the least m: b_lo = -2 q re_hi / m_lo or / m_hi, and so on
    b_lo = -2 * q * re_hi * (m_hi if re_hi > 0 else m_lo)
    b_hi = -2 * q * re_lo * (m_hi if re_lo < 0 else m_lo)
    c_lo, c_hi, den = q * q * m_lo, q * q * m_hi, m_lo * m_hi
    en, ed = eps.as_integer_ratio()
    if max(b_hi - b_lo, c_hi - c_lo) * ed > en * den:
        raise NotRefinedError("enclosure wider than eps")
    return QuadraticFactor._of((b_lo, b_hi, c_lo, c_hi), den, beta, a / q, b / q)
