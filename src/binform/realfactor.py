"""Factorization of real binary forms into lines and definite quadratics.

Over the reals a binary form splits, up to sign and a positive constant, as

    f = +- L_1^a1 * ... * L_l^al * Q_1^b1 * ... * Q_k^bk

with pairwise non-proportional linear forms L_i and pairwise non-proportional
positive definite quadratic forms Q_j.  This module computes that structure
exactly where it can and with certified enclosures where it cannot
(quadratic coefficients, which live over the reals).

Each squarefree layer w of the dehomogenization is isolated once.  Its real
roots are split by Sturm counts and refined by bisection, both in plain
integers: w is kept as a primitive integer polynomial, every endpoint is a
rational p/q (the Cauchy bound times a dyadic number), and the sign of
w(p/q) is that of sum c_i p^i q^(n-i).  The Sturm chain ends in gcd(w, w'),
so a polynomial that is not squarefree needs no separate gcd.  The same
isolation serves the linear factors and the deflation that finds the
complex pairs.

Certification of a conjugate root pair uses the bound |z - root| <=
n |w(z)| / |w'(z)|, evaluated in outward-rounded interval arithmetic
(mpmath.iv), so every enclosure is a mathematical statement, not a hope.
Certification and refinement share one precision ladder and one Newton
polish, and ``reconstruction_gap`` multiplies the enclosures in the same
interval arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from mpmath import iv, mp

from .errors import InvariantError, NotRefinedError
from .polyring import (
    HomogeneousForm,
    UnivariatePoly,
    _int_coeffs,
    _pseudo_rem,
    squarefree_decomposition,
)

_DEFAULT_EPS = 1e-12
_MAX_PREC_BITS = 1 << 14


# ---------------------------------------------------------------------------
# integer core: signs at rationals, Sturm chains, dyadic bisection
#
# Integer polynomials are coefficient lists, lowest degree first.  Every
# point where a sign is taken is a rational p/q with q > 0, and the sign of
# w(p/q) is that of the integer sum c_i p^i q^(n-i).

def _sign_at(w: list[int], p: int, q: int) -> int:
    """Sign of w(p/q) for q > 0, by homogeneous Horner."""
    acc, qk = 0, 1
    for c in reversed(w):
        acc = acc * p + c * qk
        qk *= q
    return (acc > 0) - (acc < 0)


def _sturm_chain(w: list[int]) -> list[list[int]]:
    """Sturm chain of an integer polynomial; its last entry is a multiple
    of gcd(w, w').

    Each entry is a positive multiple of the chain over Q (w, w', then minus
    the successive remainders), so the sign variations are the same."""
    chain = [w, [i * c for i, c in enumerate(w)][1:]]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        r = _pseudo_rem(a, b)       # lc(b)^(deg a - deg b + 1) * rem(a, b)
        if not r:
            break
        if b[-1] < 0 and (len(a) - len(b)) % 2 == 0:
            r = [-c for c in r]     # odd power of a negative lc(b)
        g = math.gcd(*r)
        chain.append([-c // g for c in r])
    return chain


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


def _nonroot_point(w: list[int], a: Fraction, b: Fraction) -> Fraction:
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
    """One real root of a squarefree rational polynomial.

    The open interval (lo, hi) contains exactly one root of ``poly``;
    neither endpoint is a root and the endpoint signs differ.
    """

    poly: UnivariatePoly
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ValueError("empty isolation interval")
        w = _int_coeffs(self.poly)
        sa = _sign_at(w, self.lo.numerator, self.lo.denominator)
        sb = _sign_at(w, self.hi.numerator, self.hi.denominator)
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

    def refine(self, eps: float) -> "IsolatedRoot":
        """Bisect until the interval is narrower than eps.

        The bisection runs in integers: lo = a/d and hi = b/d over one
        denominator, doubled at each step, so every endpoint is the same
        rational a halving of (lo, hi) in Q would give."""
        target = Fraction(eps)
        if self.width < target:
            return self
        tn, td = target.numerator, target.denominator
        w = _int_coeffs(self.poly)
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


def isolate_real_roots(u: UnivariatePoly) -> list[IsolatedRoot]:
    """Exact isolation of all real roots, sorted increasing.

    The returned intervals refer to the squarefree part of u, which is u
    divided by the last entry of its Sturm chain, gcd(u, u').  The chain of
    u counts distinct roots between points that are not roots (the
    generalized Sturm theorem).  The endpoints are the Cauchy bound B of
    the squarefree part times dyadic rationals, and Sturm counts on the
    integer chain split them.
    """
    if u.is_zero or u.degree < 1:
        return []
    w = _int_coeffs(u)
    chain = _sturm_chain(w)
    if len(chain[-1]) > 1:      # u is not squarefree
        w = _int_coeffs(u.div_exact(UnivariatePoly(chain[-1])))
    wq = UnivariatePoly(w)
    # Cauchy bound 1 + max |c_i| / lc, strict, so neither -B nor B is a root
    bound = Fraction(w[-1] + max(abs(c) for c in w[:-1]), w[-1])
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

def _mpf_to_fraction(x) -> Fraction:
    x = mp.mpf(x)
    if not mp.isfinite(x):
        raise ArithmeticError("non-finite interval endpoint")
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def _iv_complex_horner(int_coeffs_high: list[int], zr, zi):
    """Evaluate an integer polynomial at the complex interval (zr, zi)."""
    wr, wi = iv.mpf(0), iv.mpf(0)
    for c in int_coeffs_high:
        wr, wi = wr * zr - wi * zi + iv.mpf(c), wr * zi + wi * zr
    return wr, wi


def _disc_radius(ints, zeta):
    """Rigorous radius so that disc(zeta, radius) contains a root of w.

    ``ints`` holds the integer coefficients of w and w', highest degree
    first.  Uses |zeta - root| <= n |w(zeta)| / |w'(zeta)| with
    outward-rounded interval evaluation; raises when the derivative bound
    degenerates or the disc reaches the real axis.
    """
    w_high, dw_high = ints
    zr, zi = iv.mpf(mp.re(zeta)), iv.mpf(mp.im(zeta))
    wr, wi = _iv_complex_horner(w_high, zr, zi)
    dr, di = _iv_complex_horner(dw_high, zr, zi)
    num = abs(wr) + abs(wi)                         # >= |w(zeta)| interval
    den_lo = max(abs(dr).a, abs(di).a)              # <= |w'(zeta)|
    if den_lo == 0:
        raise ArithmeticError("derivative enclosure straddles zero")
    ratio = iv.mpf(len(w_high) - 1) * num / iv.mpf(den_lo)
    rad = mp.mpf(ratio.b) * mp.mpf("1.0000000001")
    if not rad < mp.im(zeta):   # disc must stay strictly above the axis
        raise NotRefinedError("disc touches the real axis")
    return rad


def _newton(wp, dwp, z, steps: int):
    """``steps`` Newton steps on the polynomial wp (derivative dwp)."""
    for _ in range(steps):
        dz = mp.polyval(dwp, z)
        if dz == 0:
            break
        z = z - mp.polyval(wp, z) / dz
    return z


def _ladder(layer: UnivariatePoly, eps: float, failure: str, attempt):
    """attempt(prec, ints, wp, dwp) with mpmath and interval precision prec,
    doubled from eps's bits + 60 (at least 80) up to 2^14 while it raises.

    ``ints`` holds the integer coefficients of the layer w and of w' (the
    same scaling, so Newton steps and disc radii are not skewed), highest
    degree first; wp and dwp are them as mpf numbers."""
    w = _int_coeffs(layer)
    ints = (w[::-1], [i * c for i, c in enumerate(w)][:0:-1])
    prec = max(80, int(-math.log2(max(eps, 1e-300))) + 60)
    last = None
    while prec <= _MAX_PREC_BITS:
        saved_iv_prec = iv.prec
        try:
            iv.prec = prec
            with mp.workprec(prec):
                wp, dwp = ([mp.mpf(c) for c in cs] for cs in ints)
                return attempt(prec, ints, wp, dwp)
        except (ArithmeticError, NotRefinedError) as exc:
            last = exc
            prec *= 2
        finally:
            iv.prec = saved_iv_prec
    raise NotRefinedError(f"{failure} eps={eps}: {last}")


@dataclass(frozen=True)
class QuadraticFactor:
    """Positive definite factor x^2 + b*x*y + c*y^2 with certified bounds.

    The true coefficients lie in [b_lo, b_hi] and [c_lo, c_hi]; (mu, nu) is
    a float approximation of the root pair mu +- i*nu of the dehomogenized
    layer, nu > 0.  ``layer`` is the exact squarefree polynomial the pair
    certifies against, which is what refinement reuses.
    """

    layer: UnivariatePoly
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
        """A direction vector of the zero line of the factor."""
        if self.is_axis:
            return (0.0, 1.0)
        return (1.0, self.root.approx)

    def ray_angles(self) -> tuple[float, float]:
        """Angles of the two antipodal rays of the line, in [0, 2*pi)."""
        dx, dy = self.line_direction()
        a = math.atan2(dy, dx) % (2 * math.pi)
        return (a, (a + math.pi) % (2 * math.pi))


@dataclass(frozen=True)
class FactorizationStructure:
    """Certified multiplicative structure of a binary form."""

    form: HomogeneousForm
    sign: int
    linear: tuple[LinearFactor, ...]
    quadratic: tuple[QuadraticFactor, ...]

    def __post_init__(self):
        total = sum(lf.alpha for lf in self.linear) \
            + 2 * sum(qf.beta for qf in self.quadratic)
        if total != self.form.degree:
            raise ValueError(
                f"multiplicities sum to {total}, degree is {self.form.degree}")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")

    @property
    def l(self) -> int:
        return len(self.linear)

    @property
    def k(self) -> int:
        return len(self.quadratic)

    @property
    def degree(self) -> int:
        return self.form.degree

    def max_width(self) -> Fraction:
        widths = [lf.root.width for lf in self.linear if not lf.is_axis]
        widths += [qf.width for qf in self.quadratic]
        return max(widths, default=Fraction(0))

    def is_separated(self) -> bool:
        """All enclosures pairwise disjoint, so factors are provably distinct."""
        roots = [lf.root for lf in self.linear if not lf.is_axis]
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                if not (roots[i].hi < roots[j].lo or roots[j].hi < roots[i].lo):
                    return False
        for i in range(len(self.quadratic)):
            for j in range(i + 1, len(self.quadratic)):
                if self.quadratic[i].overlaps(self.quadratic[j]):
                    return False
        return True

    def reconstruction_gap(self) -> float:
        """Distance between f and the expanded certified factor product.

        The enclosed factors are multiplied out in outward-rounded interval
        arithmetic (mpmath.iv) and matched to f at its largest coefficient.
        The result is the worst distance from a coefficient of f to the
        corresponding product enclosure, relative to f's largest
        coefficient: a lower bound on the mismatch, 0 when the enclosures
        hold f.  It shrinks as the enclosures are refined.
        """
        def hull(lo: Fraction, hi: Fraction):
            return iv.mpf([_iv_fraction(lo).a, _iv_fraction(hi).b])

        prod = [iv.mpf(1)]  # coefficient enclosures, index = y-exponent
        for lf in self.linear:
            # the form x, or y - t*x
            fac = [1, 0] if lf.is_axis else [-hull(lf.root.lo, lf.root.hi), 1]
            prod = _iv_mul_poly(prod, fac, lf.alpha)
        for qf in self.quadratic:
            fac = [1, hull(qf.b_lo, qf.b_hi), hull(qf.c_lo, qf.c_hi)]
            prod = _iv_mul_poly(prod, fac, qf.beta)     # x^2 + b*x*y + c*y^2
        p = self.form.degree
        if len(prod) != p + 1:
            raise InvariantError(f"factor product has degree {len(prod) - 1}, form has {p}")
        cs = self.form.coefficients()
        imax = max(range(p + 1), key=lambda i: abs(cs[i]))
        if 0 in prod[imax]:
            return math.inf
        f_ivs = [_iv_fraction(c) for c in cs]
        lam = f_ivs[imax] / prod[imax]
        # the lower ends of f_i - t and t - f_i bound the distance from below
        gap = max(d.a for fc, c in zip(f_ivs, prod)
                  for d in (fc - lam * c, lam * c - fc))
        return max(0.0, float((gap / abs(f_ivs[imax])).a))


def _iv_fraction(x: Fraction):
    return iv.mpf(x.numerator) / x.denominator


def _iv_mul_poly(a: list, b: list, times: int) -> list:
    """a * b^times, coefficients lowest degree first."""
    for _ in range(times):
        out = [iv.mpf(0)] * (len(a) + len(b) - 1)
        for i, xa in enumerate(a):
            for j, xb in enumerate(b):
                out[i + j] += xa * xb
        a = out
    return a


def dehomogenize(f: HomogeneousForm) -> tuple[UnivariatePoly, int]:
    """(f(1, t), multiplicity of the factor x).

    f(x, y) = x^x_mult * x^(deg g) * g(y/x) with g the returned polynomial.
    """
    if f.is_zero:
        raise ValueError("zero marker cannot be dehomogenized")
    g = f.dehomogenized()
    return g, f.degree - g.degree


def _certify_pairs(w: UnivariatePoly, real_roots: list[IsolatedRoot], beta: int,
                   eps: float) -> list[QuadraticFactor]:
    """Certified enclosures for every conjugate root pair of the squarefree
    layer w, each returned as a normalized quadratic factor.  ``real_roots``
    is the isolation of w's real roots."""
    n_pairs = (w.degree - len(real_roots)) // 2
    if n_pairs == 0:
        return []

    def attempt(prec, ints, wp, dwp):
        # deflate polished real roots, find the remaining complex roots
        deflated = wp
        for r in real_roots:
            rr = r.refine(2.0 ** (-min(60, prec // 2)))
            z = (mp.mpf(rr.lo.numerator) / rr.lo.denominator
                 + mp.mpf(rr.hi.numerator) / rr.hi.denominator) / 2
            deflated = _deflate_real(deflated, _newton(wp, dwp, z, 6))
        if len(deflated) - 1 != 2 * n_pairs:
            raise ArithmeticError("deflation lost degree")
        try:
            roots = mp.polyroots(deflated, maxsteps=100, extraprec=max(60, prec // 2))
        except Exception as exc:  # mpmath NoConvergence, keep the ladder going
            raise ArithmeticError(f"polyroots: {exc}")
        cand = [mp.mpc(z) for z in roots if mp.im(z) > 0]
        if len(cand) != n_pairs:
            raise ArithmeticError("conjugate pairing failed")
        discs = []
        for z in cand:
            z = _newton(wp, dwp, z, 4)      # polish against the exact layer
            discs.append((z, _disc_radius(ints, z)))
        for i in range(len(discs)):
            for j in range(i + 1, len(discs)):
                zi, ri = discs[i]
                zj, rj = discs[j]
                if not abs(zi - zj) > 4 * (ri + rj):
                    raise NotRefinedError("discs not separated")
        # Each disc sits strictly above the axis, its mirror strictly
        # below, real roots are accounted for exactly by Sturm, and the
        # discs are pairwise disjoint; since the counts add up to deg w,
        # every disc holds exactly one root.
        return [_pair_from_disc(w, z, rad, beta, eps) for z, rad in discs]

    return _ladder(w, eps, "certification failed at", attempt)


def _pair_from_disc(w, z, rad, beta, eps) -> QuadraticFactor:
    re_iv = iv.mpf([mp.re(z) - rad, mp.re(z) + rad])
    im_iv = iv.mpf([mp.im(z) - rad, mp.im(z) + rad])
    big_c = re_iv**2 + im_iv**2
    b_iv = (-2 * re_iv) / big_c
    c_iv = 1 / big_c
    b_lo, b_hi = _mpf_to_fraction(b_iv.a), _mpf_to_fraction(b_iv.b)
    c_lo, c_hi = _mpf_to_fraction(c_iv.a), _mpf_to_fraction(c_iv.b)
    if max(b_hi - b_lo, c_hi - c_lo) > Fraction(eps):
        raise NotRefinedError("enclosure wider than eps")
    return QuadraticFactor(layer=w, b_lo=b_lo, b_hi=b_hi, c_lo=c_lo, c_hi=c_hi,
                           beta=beta, mu=float(mp.re(z)), nu=float(mp.im(z)))


def _deflate_real(coeffs_high, r):
    # synthetic division by (t - r); the remainder is dropped, r is a
    # polished root so it is far below working precision anyway
    out = [coeffs_high[0]]
    for c in coeffs_high[1:-1]:
        out.append(c + out[-1] * r)
    return out


def factor_form(f: HomogeneousForm, eps: float = _DEFAULT_EPS) -> FactorizationStructure:
    """Factor a binary form into lines and definite quadratics.

    The linear factors come out exactly (axis factor plus Sturm-isolated
    roots); quadratic factors carry certified coefficient enclosures of
    width at most eps.  Factors are ordered deterministically: the axis
    first, then roots by increasing midpoint; quadratics by root location.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero marker")
    if f.degree < 1:
        raise ValueError("cannot factor a constant")
    g, x_mult = dehomogenize(f)
    sign = 1 if g.coeffs[-1] > 0 else -1

    linear: list[LinearFactor] = []
    quadratic: list[QuadraticFactor] = []
    if x_mult:
        linear.append(LinearFactor(None, x_mult))
    if g.degree >= 1:
        for w, m in squarefree_decomposition(g):
            roots = isolate_real_roots(w)
            for r in roots:
                linear.append(LinearFactor(r.refine(eps), m))
            quadratic.extend(_certify_pairs(w, roots, m, eps))

    linear.sort(key=lambda lf: (not lf.is_axis,
                                lf.root.approx if lf.root else 0.0))
    quadratic.sort(key=lambda qf: (qf.mu, qf.nu))
    fs = FactorizationStructure(form=f, sign=sign,
                                linear=tuple(linear), quadratic=tuple(quadratic))
    guard = 0
    while not fs.is_separated():
        eps /= 16
        fs = refine(fs, eps)
        guard += 1
        if guard > 40:
            raise NotRefinedError("could not separate factor enclosures")
    return fs


def refine(fs: FactorizationStructure, eps: float) -> FactorizationStructure:
    """Shrink every enclosure below eps; counts and ordering are preserved."""
    linear = tuple(
        lf if lf.is_axis else LinearFactor(lf.root.refine(eps), lf.alpha)
        for lf in fs.linear)
    quadratic = tuple(_refine_pair(qf, eps) for qf in fs.quadratic)
    return FactorizationStructure(form=fs.form, sign=fs.sign,
                                  linear=linear, quadratic=quadratic)


def _refine_pair(qf: QuadraticFactor, eps: float) -> QuadraticFactor:
    if qf.width <= Fraction(eps):
        return qf

    def attempt(prec, ints, wp, dwp):
        z = _newton(wp, dwp, mp.mpc(qf.mu, qf.nu), max(6, prec // 16))
        new = _pair_from_disc(qf.layer, z, _disc_radius(ints, z), qf.beta, eps)
        if not new.overlaps(qf):
            raise NotRefinedError("refinement drifted to another root")
        return new

    return _ladder(qf.layer, eps, "refinement failed to reach", attempt)
