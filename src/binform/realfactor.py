"""Factorization of real binary forms into lines and definite quadratics.

Over the reals a binary form splits, up to sign and a positive constant, as

    f = +- L_1^a1 * ... * L_l^al * Q_1^b1 * ... * Q_k^bk

with pairwise non-proportional linear forms L_i and pairwise non-proportional
positive definite quadratic forms Q_j.  This module computes that structure
exactly, from Sturm counts, and on first access certified enclosures of the
roots and of the quadratic coefficients, which live over the reals.

Each squarefree layer w of the dehomogenization f(1, t), which polyring's
Yun algorithm over Z returns as a primitive integer tuple (lowest degree
first), is isolated once.  Its real roots are split by Sturm counts and
refined by bisection, both in plain integers: every endpoint is a
rational p/q (the Cauchy bound times a dyadic number), and the sign of
w(p/q) is that of sum c_i p^i q^(n-i).  The Sturm chain is the remainder
sequence that also gives polyring's gcds; it ends in gcd(w, w'), so a
polynomial that is not squarefree needs no separate gcd.  The same
isolation serves the linear factors and the Aberth seeds of the
complex pairs.

Certification of a conjugate root pair is exact.  Aberth-Ehrlich seeds
(in Python complex on the first rung of a precision ladder, in Gaussian
integers on the rung's dyadic grid on a later one) are polished by Newton
steps on that grid, and the disc bound |z - root| <= n |w(z)| / |w'(z)|,
which holds however z was found, is checked with its separation and its
distance to the axis in integers; the enclosures of the quadratic
coefficients follow in Fractions.  ``reconstruction_gap`` multiplies the
enclosures as closed Fraction intervals, an independent cross-check, with
polyring's one dense product, ``convolve``.  The module needs no number
type beyond int, Fraction, float and complex.

Enclosures have one route: the layers' isolations refined to eps and
``_certify_pairs`` at eps.  While two enclosures overlap, the structure
certifies its layers again at eps/16, and ``refine`` to a smaller eps is
the structure of the same layers at that eps.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Optional, Sequence

from .errors import InvariantError, NotRefinedError
from .polyring import (
    HomogeneousForm,
    _derivative,
    _div_exact,
    _int_coeffs,
    _trim,
    convolve,
    remainder_sequence,
    squarefree_decomposition,
)

_DEFAULT_EPS = 1e-12
_MAX_PREC_BITS = 1 << 14


# ---------------------------------------------------------------------------
# integer core: signs at rationals, Sturm counts, dyadic bisection

def _sign_at(w: Sequence[int], p: int, q: int) -> int:
    """Sign of w(p/q) for q > 0, by homogeneous Horner."""
    acc, qk = 0, 1
    for c in reversed(w):
        acc = acc * p + c * qk
        qk *= q
    return (acc > 0) - (acc < 0)


def _variations(chain: list[list[int]], t: Fraction) -> int:
    p, q = t.numerator, t.denominator
    count, last = 0, 0
    for c in chain:
        s = _sign_at(c, p, q)
        if s:
            count += last == -s
            last = s
    return count


def _count_roots(chain, a: Fraction, b: Fraction) -> int:
    return _variations(chain, a) - _variations(chain, b)


def _nonroot_point(w: Sequence[int], a: Fraction, b: Fraction) -> Fraction:
    """A point strictly inside (a, b) where w does not vanish."""
    span = b - a
    m = a + span / 2
    j = 2
    while _sign_at(w, m.numerator, m.denominator) == 0:
        m = a + span * Fraction(2 ** (j - 1) + 1, 2**j)
        j += 1
        if j > 64:
            raise ArithmeticError("could not find a non-root split point")
    return m


@dataclass(frozen=True)
class IsolatedRoot:
    """One real root of a squarefree integer polynomial.

    ``poly`` holds the coefficients, lowest degree first.  The open
    interval (lo, hi) contains exactly one root of it; neither endpoint is
    a root and the endpoint signs differ.
    """

    poly: tuple[int, ...]
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ValueError("empty isolation interval")
        sa = _sign_at(self.poly, self.lo.numerator, self.lo.denominator)
        sb = _sign_at(self.poly, self.hi.numerator, self.hi.denominator)
        if sa == 0 or sb == 0 or sa == sb:
            raise ValueError("interval endpoints must straddle a single root")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def approx(self) -> float:
        return float(self.mid)

    def refine(self, eps: float | Fraction) -> "IsolatedRoot":
        """Bisect until the interval is narrower than eps.

        The bisection runs in integers: lo = a/d and hi = b/d over one
        denominator, doubled at each step, so every endpoint is the same
        rational a halving of (lo, hi) in Q would give."""
        target = Fraction(eps)
        if self.width < target:
            return self
        tn, td = target.numerator, target.denominator
        w = self.poly
        d = math.lcm(self.lo.denominator, self.hi.denominator)
        a = self.lo.numerator * (d // self.lo.denominator)
        b = self.hi.numerator * (d // self.hi.denominator)
        s_lo = _sign_at(w, a, d)
        while (b - a) * td >= tn * d:
            m, a, b, d = a + b, 2 * a, 2 * b, 2 * d
            s = _sign_at(w, m, d)
            if s == 0:
                # the root m/d is rational; shrink symmetrically around it,
                # to a half-width of (hi - lo)/8^j for the least j >= 1 that
                # puts the width below the target
                scale = 8
                while 2 * (b - a) * td >= tn * d * scale:
                    scale *= 8
                a, b, d = m * scale - (b - a), m * scale + (b - a), d * scale
                break
            if s == s_lo:
                a = m
            else:
                b = m
        return IsolatedRoot(self.poly, Fraction(a, d), Fraction(b, d))

    def contains(self, t: Fraction) -> bool:
        return self.lo < t < self.hi


def isolate_real_roots(u: Sequence[int]) -> list[IsolatedRoot]:
    """Exact isolation of all real roots of the integer polynomial u
    (lowest degree first), sorted increasing.

    The returned intervals refer to the squarefree part of u, which is u
    divided by the last entry of its Sturm chain, gcd(u, u'), taken with
    positive leading coefficient, so a layer of ``squarefree_decomposition``
    comes back as itself.  The chain of u counts distinct roots between
    points that are not roots (the generalized Sturm theorem).  The
    endpoints are the Cauchy bound B of the squarefree part times dyadic
    rationals, and Sturm counts on the integer chain split them.
    """
    w = _trim(u)
    if len(w) < 2:
        return []
    chain = remainder_sequence(w, _derivative(w))
    if len(chain[-1]) > 1:      # u is not squarefree
        w = _div_exact(w, _int_coeffs(chain[-1]))
    wq = tuple(w)
    # Cauchy bound 1 + max |c_i| / |lc|, strict, so neither -B nor B is a root
    bound = Fraction(abs(w[-1]) + max(abs(c) for c in w[:-1]), abs(w[-1]))
    out: list[IsolatedRoot] = []

    def split(a: Fraction, b: Fraction, count: int):
        if count == 0:
            return
        if count == 1:
            out.append(IsolatedRoot(wq, a, b))
            return
        m = _nonroot_point(w, a, b)
        left = _count_roots(chain, a, m)
        split(a, m, left)
        split(m, b, count - left)

    split(-bound, bound, _count_roots(chain, -bound, bound))
    out.sort(key=lambda r: r.mid)
    return out


# ---------------------------------------------------------------------------
# certified conjugate pairs
#
# Rung k of the precision ladder works on the grid of the points
# z = (a + ib)/2^k, each held as the Gaussian integer (a, b).  For the layer
# w of degree n, W = 2^(kn) w(z) and D = 2^(k(n-1)) w'(z) are Gaussian
# integers, so a Newton step moves (a, b) by W/D and the disc bound
# |z - root| <= n |w(z)/w'(z)| is n |W|/|D| grid steps: the certificate
# runs in integers and needs no rounding.

def _on_grid(x: float | Fraction, k: int) -> int:
    """The integer nearest x * 2^k, exactly."""
    p, q = x.as_integer_ratio()
    return ((p << (k + 1)) + q) // (2 * q)


def _grid_points(zs, k: int) -> list[tuple[int, int]]:
    """The Python complex points zs on the grid of rung k."""
    if not all(cmath.isfinite(z) for z in zs):
        raise ArithmeticError("an Aberth iterate left the float range")
    return [(_on_grid(z.real, k), _on_grid(z.imag, k)) for z in zs]


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
    exceeds 2^-(k/2) of its point."""
    if start is None:
        p = [float(c) for c in reversed(w)]     # highest degree first
        for r in real_roots:
            x = float(r.refine(Fraction(1, 1 << (k // 2))).mid)
            out = [p[0]]
            for c in p[1:-1]:           # synthetic division, remainder dropped
                out.append(c + out[-1] * x)
            p = out
        m = len(p) - 1
        return _grid_points(_aberth(p, _circle(m, abs(p[-1] / p[0]) ** (1 / m)), 2.0 ** -40), k)
    zs = [(a << k // 2, b << k // 2) for a, b in start]
    fixed = [(_on_grid(r.refine(Fraction(1, 1 << k)).mid, k), 0) for r in real_roots]
    if not zs:      # radius: the geometric mean of the m non-real roots' moduli, whose
        # product is |w_j/w_n| (w_j the lowest nonzero) over the real roots' moduli
        m, xs = len(w) - 1 - len(fixed), [abs(x) for x, _ in fixed if x]
        log_r = math.log(abs(w[0] or w[1]) << k * len(xs)) - math.log(abs(w[-1]) * math.prod(xs))
        zs = _grid_points(_circle(m, math.exp(log_r / m)), k)
    dw, k2 = _derivative(w), 2 * k
    for _ in range(100):
        done = True
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
            zs[i] = (a - sa, b - sb)
            done = done and (sa * sa + sb * sb) << k <= a * a + b * b
        if done:
            break
    return zs


def _circle(m: int, r: float) -> list[complex]:
    """m points on the circle of radius r about 0, which should be the
    geometric mean of the moduli of the m roots sought."""
    return [r * cmath.rect(1.0, 2 * math.pi * j / m + 0.4) for j in range(m)]


@dataclass(frozen=True)
class QuadraticFactor:
    """Positive definite factor x^2 + b*x*y + c*y^2 with certified bounds.

    The true coefficients lie in [b_lo, b_hi] and [c_lo, c_hi]; (mu, nu) is
    a float approximation of the root pair mu +- i*nu of the layer, nu > 0.
    """

    b_lo: Fraction
    b_hi: Fraction
    c_lo: Fraction
    c_hi: Fraction
    beta: int
    mu: float
    nu: float

    def __post_init__(self):
        if self.beta < 1:
            raise ValueError("multiplicity must be >= 1")
        if not (self.b_lo <= self.b_hi and self.c_lo <= self.c_hi):
            raise ValueError("inverted enclosure")
        if self.c_lo <= 0:
            raise NotRefinedError("cannot certify positivity of c")
        # definiteness: sup(b^2) < inf(4c)
        if max(self.b_lo**2, self.b_hi**2) >= 4 * self.c_lo:
            raise NotRefinedError("cannot certify b^2 - 4c < 0 at this width")

    @property
    def a(self) -> Fraction:
        return Fraction(1)

    @property
    def b_mid(self) -> Fraction:
        return (self.b_lo + self.b_hi) / 2

    @property
    def c_mid(self) -> Fraction:
        return (self.c_lo + self.c_hi) / 2

    @property
    def width(self) -> Fraction:
        return max(self.b_hi - self.b_lo, self.c_hi - self.c_lo)

    def gram_matrix(self) -> list[list[float]]:
        """[[a, b/2], [b/2, c]] as floats; positive definite."""
        b = float(self.b_mid)
        return [[1.0, b / 2.0], [b / 2.0, float(self.c_mid)]]

    def overlaps(self, other: "QuadraticFactor") -> bool:
        b_apart = self.b_hi < other.b_lo or other.b_hi < self.b_lo
        c_apart = self.c_hi < other.c_lo or other.c_hi < self.c_lo
        return not (b_apart or c_apart)


@dataclass(frozen=True)
class LinearFactor:
    """Linear factor with multiplicity; root is None for the axis factor x,
    otherwise the factor is y - t*x with t the enclosed root."""

    root: Optional[IsolatedRoot]
    alpha: int

    def __post_init__(self):
        if self.alpha < 1:
            raise ValueError("multiplicity must be >= 1")

    @property
    def is_axis(self) -> bool:
        return self.root is None

    def line_direction(self) -> tuple[float, float]:
        """A direction vector of the zero line of the factor, its slope
        refined to about 1e-17 relative so it is the nearest float."""
        if self.is_axis:
            return (0.0, 1.0)
        return (1.0, self.root.refine(1e-17 * max(1.0, abs(self.root.approx))).approx)

    def ray_angles(self) -> tuple[float, float]:
        """Angles of the two antipodal rays of the line, in [0, 2*pi)."""
        dx, dy = self.line_direction()
        a = math.atan2(dy, dx) % (2 * math.pi)
        return (a, (a + math.pi) % (2 * math.pi))


class FactorizationStructure:
    """Multiplicative structure of a binary form: exact counts at once,
    enclosures on first access.

    ``layers`` holds the squarefree layers (w, m, roots) of f(1, t), each
    with the Sturm isolation of its real roots.  A layer gives len(roots)
    lines and (deg w - len(roots))/2 definite quadratics of multiplicity m,
    which fixes ``l``, ``k``, ``line_mults`` and ``quad_mults`` (sorted).
    ``linear`` and ``quadratic`` are certified from the layers at width
    ``eps`` when first read.
    """

    def __init__(self, form: HomogeneousForm, sign: int, layers: Sequence, eps: float):
        if sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        self.form, self.sign, self.layers, self.eps = form, sign, tuple(layers), eps
        x_mult = form.x_multiplicity()
        lines, pairs = [x_mult] if x_mult else [], []
        for w, m, roots in self.layers:
            lines += [m] * len(roots)
            pairs += [m] * ((len(w) - 1 - len(roots)) // 2)
        self.line_mults, self.quad_mults = tuple(sorted(lines)), tuple(sorted(pairs))
        self.l, self.k = len(lines), len(pairs)
        total = sum(lines) + 2 * sum(pairs)
        if total != form.degree:
            raise ValueError(f"multiplicities sum to {total}, degree is {form.degree}")

    @property
    def degree(self) -> int:
        return self.form.degree

    @property
    def linear(self) -> tuple[LinearFactor, ...]:
        return self._enclosures[0]

    @property
    def quadratic(self) -> tuple[QuadraticFactor, ...]:
        return self._enclosures[1]

    @cached_property
    def _enclosures(self) -> tuple[tuple[LinearFactor, ...], tuple[QuadraticFactor, ...]]:
        """Lines refined to eps and certified pairs, sorted (the axis first),
        certified again at eps/16 until pairwise disjoint."""
        eps, x_mult = self.eps, self.form.x_multiplicity()
        for _ in range(41):
            linear = [LinearFactor(None, x_mult)] if x_mult else []
            quadratic: list[QuadraticFactor] = []
            for w, m, roots in self.layers:
                linear += [LinearFactor(r.refine(eps), m) for r in roots]
                quadratic += _certify_pairs(w, roots, m, eps)
            linear.sort(key=lambda lf: (not lf.is_axis, lf.root.approx if lf.root else 0.0))
            quadratic.sort(key=lambda qf: (qf.mu, qf.nu))
            if _disjoint(linear, quadratic):
                return tuple(linear), tuple(quadratic)
            eps /= 16
        raise NotRefinedError("could not separate factor enclosures")

    def max_width(self) -> Fraction:
        widths = [lf.root.width for lf in self.linear if not lf.is_axis]
        widths += [qf.width for qf in self.quadratic]
        return max(widths, default=Fraction(0))

    def is_separated(self) -> bool:
        """All enclosures pairwise disjoint, so factors are provably distinct."""
        return _disjoint(self.linear, self.quadratic)

    def reconstruction_gap(self) -> float:
        """Distance between f and the expanded certified factor product.

        The enclosed factors are multiplied out exactly, as closed intervals
        with Fraction endpoints, and matched to f at its largest coefficient.
        The result is the worst distance from a coefficient of f to the
        corresponding product enclosure, relative to f's largest
        coefficient and rounded to the nearest float: 0 when the enclosures
        hold f.  It shrinks as the enclosures are refined.
        """
        # the forms x or y - t*x, then x^2 + b*x*y + c*y^2, with multiplicity
        factors = [([1, 0] if lf.is_axis else [_Interval((-lf.root.hi, -lf.root.lo)), 1],
                     lf.alpha) for lf in self.linear]
        factors += [([1, _Interval((qf.b_lo, qf.b_hi)), _Interval((qf.c_lo, qf.c_hi))], qf.beta)
                    for qf in self.quadratic]
        prod = [_Interval((1, 1))]  # coefficient enclosures, index = y-exponent
        for fac, times in factors:
            for _ in range(times):
                prod = convolve(prod, fac)
        p = self.form.degree
        if len(prod) != p + 1:
            raise InvariantError(f"factor product has degree {len(prod) - 1}, form has {p}")
        cs = self.form.coefficients()
        imax = max(range(p + 1), key=lambda i: abs(cs[i]))
        lo, hi = prod[imax]
        if lo <= 0 <= hi:
            return math.inf
        lam = _Interval(sorted((cs[imax] / lo, cs[imax] / hi)))
        gap = max(max(u - c, c - v) for c, (u, v) in zip(cs, (lam * t for t in prod)))
        return max(0.0, float(gap / abs(cs[imax])))


def _disjoint(linear: Sequence[LinearFactor], quadratic: Sequence[QuadraticFactor]) -> bool:
    roots = [lf.root for lf in linear if not lf.is_axis]
    return not (any(r.lo <= s.hi and s.lo <= r.hi for r, s in combinations(roots, 2))
                or any(p.overlaps(q) for p, q in combinations(quadratic, 2)))


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
    to 2^14 until one certifies every pair."""
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
            # below, real roots are accounted for exactly by Sturm, and the
            # discs are pairwise disjoint; since the counts add up to deg w,
            # every disc holds exactly one root.
            pairs = [_pair_from_disc(disc, k, beta, eps) for disc in discs]
            break
        except (ArithmeticError, NotRefinedError) as exc:
            last, k = exc, 2 * k
    else:
        raise NotRefinedError(f"certification failed at eps={eps}: {last}")
    if any(qf.c_hi > sys.float_info.max for qf in pairs):
        raise NotRefinedError("a quadratic factor's c is beyond the float range")
    return pairs


def _pair_from_disc(disc: tuple[int, int, int], k: int, beta: int,
                    eps: float) -> QuadraticFactor:
    """The factor x^2 + b x y + c y^2 of the root z in the disc (a, b, r) of
    rung k: b = -2 Re z/|z|^2 and c = 1/|z|^2, enclosed in Fractions."""
    a, b, r = disc
    if not r < b:
        raise NotRefinedError("disc touches the real axis")
    # 2^k Re z lies in [a - r, a + r] and 4^k |z|^2 in [m_lo, m_hi]
    re_lo, re_hi = a - r, a + r
    re2 = (re_lo * re_lo, re_hi * re_hi)
    m_lo = (0 if re_lo <= 0 <= re_hi else min(re2)) + (b - r) ** 2
    m_hi = max(re2) + (b + r) ** 2
    q = 1 << k
    bs = [Fraction(-2 * q * x, m) for x in (re_lo, re_hi) for m in (m_lo, m_hi)]
    b_lo, b_hi = min(bs), max(bs)
    c_lo, c_hi = Fraction(q * q, m_hi), Fraction(q * q, m_lo)
    if max(b_hi - b_lo, c_hi - c_lo) > Fraction(eps):
        raise NotRefinedError("enclosure wider than eps")
    return QuadraticFactor(b_lo=b_lo, b_hi=b_hi, c_lo=c_lo, c_hi=c_hi,
                           beta=beta, mu=a / q, nu=b / q)


def factor_form(f: HomogeneousForm, eps: float = _DEFAULT_EPS) -> FactorizationStructure:
    """Factor a binary form into lines and definite quadratics.

    The counts, multiplicities and sign come out exactly from Yun's layers
    and their Sturm isolations; the enclosures (lines refined to eps,
    quadratic coefficients certified to width at most eps) are computed
    when ``linear`` or ``quadratic`` is first read.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero marker")
    if f.degree < 1:
        raise ValueError("cannot factor a constant")
    x_mult = f.x_multiplicity()     # f = x^x_mult * x^(deg g) * g(y/x)
    cs = f.coefficients()           # g = f(1, t) has the coefficients cs
    sign = 1 if cs[f.degree - x_mult] > 0 else -1
    layers = [] if x_mult == f.degree else [
        (w, m, isolate_real_roots(w))
        for w, m in squarefree_decomposition(_int_coeffs(cs))]
    return FactorizationStructure(f, sign, layers=layers, eps=eps)


def refine(fs: FactorizationStructure, eps: float) -> FactorizationStructure:
    """The structure of fs's layers at enclosure width eps: the enclosures
    are certified again from the layers when first read.  Counts and
    ordering are preserved.  fs itself when eps >= fs.eps, so refining never
    coarsens."""
    if eps >= fs.eps:
        return fs
    return FactorizationStructure(fs.form, fs.sign, fs.layers, eps)
