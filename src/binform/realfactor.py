"""Factorization of real binary forms into lines and definite quadratics.

Over the reals a binary form splits, up to sign and a positive constant, as

    f = +- L_1^a1 * ... * L_l^al * Q_1^b1 * ... * Q_k^bk

with pairwise non-proportional linear forms L_i and pairwise non-proportional
positive definite quadratic forms Q_j.  This module computes that structure
exactly, from Descartes' rule of signs, and on first access certified
enclosures of the roots and of the quadratic coefficients, which live over
the reals.

Each squarefree layer w of the dehomogenization f(1, t), which polyring's
Yun algorithm over Z returns as a primitive integer tuple (lowest degree
first), is isolated once.  Its real roots are counted by Descartes' rule
on a tree of dyadic intervals and refined to the cells of bisection, in
plain integers: every endpoint is a rational p/q (the Cauchy bound times
a dyadic number), and the sign of w(p/q) is that of sum c_i p^i q^(n-i).
Refinement jumps from the float Newton root of the node polynomial, then
takes quadratic interval refinement steps, each checked by two signs.
The isolation takes polyring's one gcd, gcd(w, w'), which proves a layer
squarefree from one gcd of two integers, and divides w only by a gcd
that is not 1.  The same isolation serves the linear
factors and the Aberth seeds of the complex pairs.

Enclosures have one route: the layers' isolations refined to eps and
``paircert._certify_pairs`` at eps for the layers with conjugate pairs.
While two enclosures overlap, the structure certifies its layers again at
eps/16, and ``refine`` to a smaller eps is the structure of the same
layers at that eps.  ``paircert`` is imported where it is first used, so
the commands that read only the exact counts never compile it.

Enclosures are held in ints, a root's cell as a < b over one d and a
pair's bounds over one denominator, and compared by cross-multiplication;
their public views (``lo``, ``hi``, ``b_lo`` ...) build Fractions when
read.  ``reconstruction_gap`` multiplies those as closed Fraction
intervals, an independent cross-check.  The package needs no number type
beyond int, Fraction, float and complex.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import accumulate, combinations
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import InvariantError, NotRefinedError
from .polyring import (
    HomogeneousForm,
    _derivative,
    _div_exact,
    _fraction,
    _trim,
    convolve,
    gcd_univariate,
    squarefree_decomposition,
)

if TYPE_CHECKING:
    from fractions import Fraction

_DEFAULT_EPS = 1e-12


# ---------------------------------------------------------------------------
# integer core: signs at rationals, Descartes' rule on a dyadic tree, bisection

def _sign_at(w: Sequence[int], p: int, q: int) -> int:
    """q^n w(p/q) for q > 0 and n = deg w, by homogeneous Horner: an integer
    of the sign of w(p/q), which the secant steps of ``refine`` read too."""
    acc, qk = 0, 1
    for c in reversed(w):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _shift(h: list[int], t: int = 1) -> list[int]:
    """h(x + t), highest degree first: each pass of running Horner sums at t
    is one synthetic division by x - t."""
    h, step = list(h), None if t == 1 else (lambda s, c: s * t + c)
    for m in range(len(h), 1, -1):
        h[:m] = accumulate(h[:m], step)
    return h


def _scale(h: Sequence[int], p: int, q: int) -> list[int]:
    """q^n h(p x / q) for h of degree n, highest degree first."""
    return [c * p ** (len(h) - 1 - k) * q**k for k, c in enumerate(h)]


def _descartes(h: list[int]) -> int:
    """min(2, V) for V the sign variations of (1 + x)^n h(1 / (1 + x)), h
    highest degree first: V bounds the roots in (0, 1), counted with
    multiplicity, and has their parity.  The shift's coefficients are
    final from the constant term, h(1) != 0, up, so the count stops at 2."""
    t, v = list(accumulate(h[::-1])), 0
    last = t[-1] > 0
    for m in range(len(t) - 1, 0, -1):
        t[:m] = accumulate(t[:m])
        if t[m - 1] and (t[m - 1] > 0) != last:
            last, v = not last, v + 1
            if v == 2:
                break
    return v


def _newton(cs: list[float], lo: float, hi: float, s_lo: bool) -> tuple[float, float]:
    """Float Newton from the midpoint for the root of cs (highest degree
    first) in (lo, hi), positive left of it if s_lo; a step out of the
    bracket of signs bisects.  It stops at an exact zero or a step within 4
    ulps or the error radius, Horner's running error bound (Higham,
    Accuracy and Stability, 5.1) over |cs'|, and returns x and the radius."""
    x, gamma, rad = (lo + hi) / 2, 2.0**-52 * len(cs), math.inf
    for _ in range(64):
        v = dv = e = 0.0
        ax = abs(x)
        for c in cs:                # h(x), h'(x) and the error bound by one pass
            v, dv, e = v * x + c, dv * x + v, e * ax + abs(c)
        rad = gamma * e / abs(dv) if dv else math.inf
        if v == 0.0:
            break
        lo, hi = (x, hi) if (v > 0) == s_lo else (lo, x)
        last, x = x, x - v / dv if dv else lo
        x = x if lo < x < hi else (lo + hi) / 2
        if abs(x - last) <= max(4 * math.ulp(x), rad):
            rad += abs(x - last)
            break
    return x, rad


def _float_guess(node: tuple, a: int, b: int, d: int):
    """((num, den), j): the float Newton root of the node polynomial, scaled
    by a power of two into floats, as the place num/den in the cell
    (a/d, b/d), and the deepest level j >= 1 below the cell whose cells
    span its error radius plus 8 ulps; None where floats resolve no level."""
    h, ha, hb, hd = node
    s, wd = max(0, max(map(abs, h)).bit_length() - 960), (hb - ha) * d
    lo, hi = (a * hd - ha * d) / wd, (b * hd - ha * d) / wd
    if not lo < hi:
        return None
    x, rad = _newton([float(c >> s) for c in h], lo, hi, h[-1] > 0)
    j = math.frexp((hi - lo) / (rad + 8 * math.ulp(x)))[1] - 1
    if j < 1:
        return None
    xn, xd = x.as_integer_ratio()
    return (d * (ha * xd + (hb - ha) * xn) - a * hd * xd, hd * xd * (b - a)), j


class IsolatedRoot:
    """One real root of a squarefree integer polynomial.

    ``poly`` holds the coefficients, lowest degree first.  The open
    interval (a/d, b/d), for ints a < b and d > 0, contains exactly one
    root of it; neither endpoint is a root and the endpoint signs differ.
    ``lo``, ``hi``, ``width`` and ``mid`` are its Fractions.  ``node`` is
    the isolation's (h, a', b', d'): h, highest degree first, is a positive
    multiple of poly(a'/d' + (b' - a')/d' x), with this root its only one
    in (0, 1).  ``ends`` holds d^n poly at a/d and b/d, or None.
    """

    __slots__ = ("poly", "a", "b", "d", "node", "ends")

    def __init__(self, poly: tuple[int, ...], lo: Fraction, hi: Fraction):
        d = math.lcm(lo.denominator, hi.denominator)
        a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
        if not (a < b):
            raise ValueError("empty isolation interval")
        sa, sb = _sign_at(poly, a, d), _sign_at(poly, b, d)
        if sa == 0 or sb == 0 or (sa > 0) == (sb > 0):
            raise ValueError("interval endpoints must straddle a single root")
        self.poly, self.a, self.b, self.d, self.node, self.ends = poly, a, b, d, None, (sa, sb)

    @classmethod
    def _of(cls, poly: tuple[int, ...], a: int, b: int, d: int, node=None,
            ends=(None, None)) -> "IsolatedRoot":
        r = object.__new__(cls)     # an interval known to isolate a root: no checks
        r.poly, r.a, r.b, r.d, r.node, r.ends = poly, a, b, d, node, ends
        return r

    def __eq__(self, other) -> bool:
        return (isinstance(other, IsolatedRoot) and self.poly == other.poly
                and self.a * other.d == other.a * self.d and self.b * other.d == other.b * self.d)

    lo = property(lambda self: _fraction(self.a, self.d))
    hi = property(lambda self: _fraction(self.b, self.d))
    width = property(lambda self: _fraction(self.b - self.a, self.d))
    mid = property(lambda self: _fraction(self.a + self.b, 2 * self.d))

    @property
    def approx(self) -> float:
        return (self.a + self.b) / (2 * self.d)

    def refine(self, eps: float | Fraction) -> "IsolatedRoot":
        """The cell that plain bisection reaches first below the width eps:
        halving (a/d, b/d) in integers, doubling d, to the first level T
        narrower than eps, or, if a midpoint is the root, the cell about it
        of half-width (hi - lo)/8^j, the least j >= 1 below eps.  It is
        found by a jump from the float Newton root of the node polynomial
        to the deepest level its error resolves, then quadratic interval
        refinement (Abbott, ACM Commun. Comput. Algebra 48, 2014): the
        secant through the exact end values picks one of N = 2^j subcells,
        N squared on success, square-rooted on failure; and a cell
        narrower than 1/lc holds one p/lc, the root if it is rational.  No
        step passes level T, a subcell is taken only if its end signs
        differ, and a grid point where w is 0 is a rational root; as
        (lo, hi) holds one root, halving passes through every such cell
        and hits every such point, so (a, b, d) are bisection's own."""
        if not 0 < eps < math.inf:
            raise ValueError("eps must be a positive finite number")
        return self._refine(*eps.as_integer_ratio())

    def _refine(self, tn: int, td: int) -> "IsolatedRoot":
        """``refine`` to the width tn/td > 0."""
        w, a0, b0, d0 = self.poly, self.a, self.b, self.d
        span, n, lc = b0 - a0, len(w) - 1, abs(w[-1])
        T = ((span * td) // (tn * d0)).bit_length()
        if not T:
            return self
        if self.node is None:       # d0^n w((a0 + span x)/d0)
            self.node = (_scale(_shift(_scale(w[::-1], 1, d0), a0), span, 1), a0, b0, d0)
        _, ha, hb, hd = node = self.node

        def depth() -> int:     # w bends on the node's scale: a secant picks 1 of 2^depth
            return max(1, (((hb - ha) * d) // ((b - a) * hd)).bit_length() - 1)

        def rational(p: int, q: int) -> "IsolatedRoot":
            """The cell of bisection for the root p/q: the shrink about it
            where it is a grid point of level l <= T, else the level-T cell."""
            u, v = p * d0 - a0 * q, q * span     # its place in (lo, hi)
            g = math.gcd(u, v)
            u, v = u // g, v // g
            if not v & (v - 1) and (lev := v.bit_length() - 1) <= T:
                m, dl, scale = (a0 << lev) + u * span, d0 << lev, 8
                while 4 * span * td >= tn * dl * scale:
                    scale *= 8
                return IsolatedRoot._of(w, m * scale - 2 * span, m * scale + 2 * span,
                                        dl * scale, node)
            a = (a0 << T) + (u << T) // v * span
            return IsolatedRoot._of(w, a, a + span, d0 << T, node)

        pos = node[0][-1] > 0       # w > 0 left of the root, as h is at 0
        (va, vb), a, b, d, level = self.ends, a0, b0, d0, 0
        guess, j = None, depth()
        if (est := _float_guess(node, a, b, d)) and est[1] > j:
            guess, j = est
        tested = False
        while level < T:
            if not tested and span * lc < d:        # at most one p/lc inside
                tested, p = True, a * lc // d + 1
                if p * d < b * lc and not _sign_at(w, p, lc):
                    return rational(p, lc)
            j = min(j, T - level)
            if guess is None:       # the secant through the end values
                va = _sign_at(w, a, d) if va is None else va
                vb = _sign_at(w, b, d) if vb is None else vb
                guess = (va, va - vb) if pos else (-va, vb - va)
            num, den = guess
            N, dn = 1 << j, d << j
            k = min(max((2 * num * N + den) // (2 * den), 1), N - 1)
            g = a * N + k * span            # the grid point nearest the guess
            if not (vg := _sign_at(w, g, dn)):
                return rational(g, dn)
            right = (vg > 0) == pos         # the root is right of g
            o = g + span if right else g - span
            if a * N < o < b * N:
                if not (vo := _sign_at(w, o, dn)):
                    return rational(o, dn)
                if (vo > 0) == (vg > 0):
                    j //= 2
                    continue
            else:       # an end of the cell, of the other sign
                vo = va if o == a * N else vb
                vo = None if vo is None else vo << n * j
            a, b, va, vb = (g, o, vg, vo) if right else (o, g, vo, vg)
            d, level, guess = dn, level + j, None
            j = max(2 * j, depth())
        return IsolatedRoot._of(w, a, b, d, node, (va, vb))

    def contains(self, t: Fraction) -> bool:
        n, m = t.as_integer_ratio()
        return self.a * m < n * self.d < self.b * m


def isolate_real_roots(u: Sequence[int]) -> list[IsolatedRoot]:
    """Exact isolation of all real roots of the integer polynomial u
    (lowest degree first), sorted increasing.

    The intervals refer to the squarefree part w of u, u over gcd(u, u'),
    so a layer of ``squarefree_decomposition`` comes back as itself: its
    gcd with u' is 1, which ``gcd_univariate`` mostly proves from one gcd
    of two integers, and nothing is divided.  The intervals are nodes of
    one tree: its root is (-B, B) for B the Cauchy bound of w, and a node
    (a, b) splits at its midpoint or, if that is a root, at the first
    a + (b - a)(2^(j-1) + 1)/2^j, j = 2, 3, ..., that is not.  Descartes'
    rule on the node polynomial, an integer multiple of w(a + (b - a) x)
    from Taylor shifts, counts the roots of a node with 0 or 1 sign
    variations, and a node with more splits.  A root's interval is the
    largest node that holds it alone, and it keeps that node's polynomial
    for ``refine``.  The walk keeps its own stack.  A quadratic of
    negative discriminant, which it would bisect until every node reads
    0, returns at once.
    """
    w = _trim(u)
    if len(w) < 2 or len(w) == 3 and w[1] * w[1] < 4 * w[0] * w[2]:
        return []
    if (g := gcd_univariate(w, _derivative(w))) != (1,):
        w = _div_exact(w, g)
    w = tuple(w)
    # Cauchy bound 1 + max |c_i| / |lc|, strict, so neither -B nor B is a root
    bn, bd = abs(w[-1]) + max(abs(c) for c in w[:-1]), abs(w[-1])
    # w(-B + 2B x) = w(-B (1 - 2x)): w(-B y), then y -> y + 1, then y -> -2x
    h = _scale(_shift(_scale(w[::-1], -bn, bd)), -2, 1)
    g = math.gcd(*h)
    # a node (i, j, e, h) is (B i / 2^e, B j / 2^e) with node polynomial h
    todo, out = [(-1, 1, 0, [c // g for c in h])], []
    while todo:
        i, j, e, h = todo.pop()
        if type(h) is tuple:    # the node's subtree is done; its roots start at out[h[1]]
            if len(out) == h[1] + 1:
                out[h[1]] = (i, j, e, h[0])
        elif (v := _descartes(h)) == 1:
            out.append((i, j, e, h))
        elif v:
            p, q, k = 1, 2, 1
            left = [c << d for d, c in enumerate(h)]      # 2^n h(x / 2)
            right = _shift(left)
            while not right[-1]:        # h(p/q) = 0: the next split point
                p, q, k = q + 1, 2 * q, k + 1
                left = _scale(h, p, q)
                right = _scale(_shift(left), q - p, p)
            m = i * (q - p) + j * p
            todo += [(i, j, e, (h, len(out))), (m, j << k, e + k, right),
                     (i << k, m, e + k, left)]
    cells = [(i * bn, j * bn, bd << e, h) for i, j, e, h in out]
    return [IsolatedRoot._of(w, a, b, d, (h, a, b, d)) for a, b, d, h in cells]


class QuadraticFactor:
    """Positive definite factor x^2 + b*x*y + c*y^2 with certified bounds.

    The true coefficients lie in [b_lo, b_hi] and [c_lo, c_hi], held as the
    int numerators ``ints`` = (b_lo, b_hi, c_lo, c_hi) over one int ``den``
    > 0 and read as Fractions; (mu, nu) is a float approximation of the
    root pair mu +- i*nu of the layer, nu > 0.
    """

    __slots__ = ("ints", "den", "beta", "mu", "nu")

    def __init__(self, b_lo: Fraction, b_hi: Fraction, c_lo: Fraction, c_hi: Fraction,
                 beta: int, mu: float, nu: float):
        bounds = (b_lo, b_hi, c_lo, c_hi)
        den = math.lcm(*(v.denominator for v in bounds))
        self._set(tuple(v.numerator * (den // v.denominator) for v in bounds), den, beta, mu, nu)

    @classmethod
    def _of(cls, ints, den, beta, mu, nu) -> "QuadraticFactor":
        """The factor of the numerators ``ints`` over ``den``, checked alike."""
        (qf := object.__new__(cls))._set(ints, den, beta, mu, nu)
        return qf

    def _set(self, ints: tuple[int, int, int, int], den: int, beta: int, mu: float,
             nu: float) -> None:
        b_lo, b_hi, c_lo, c_hi = ints
        if beta < 1:
            raise ValueError("multiplicity must be >= 1")
        if not (b_lo <= b_hi and c_lo <= c_hi):
            raise ValueError("inverted enclosure")
        if c_lo <= 0:
            raise NotRefinedError("cannot certify positivity of c")
        # definiteness: sup(b^2) < inf(4c), both times den^2
        if max(b_lo * b_lo, b_hi * b_hi) >= 4 * c_lo * den:
            raise NotRefinedError("cannot certify b^2 - 4c < 0 at this width")
        self.ints, self.den, self.beta, self.mu, self.nu = ints, den, beta, mu, nu

    b_lo = property(lambda self: _fraction(self.ints[0], self.den))
    b_hi = property(lambda self: _fraction(self.ints[1], self.den))
    c_lo = property(lambda self: _fraction(self.ints[2], self.den))
    c_hi = property(lambda self: _fraction(self.ints[3], self.den))
    b_mid = property(lambda self: _fraction(self.ints[0] + self.ints[1], 2 * self.den))
    c_mid = property(lambda self: _fraction(self.ints[2] + self.ints[3], 2 * self.den))

    @property
    def width(self) -> Fraction:
        b_lo, b_hi, c_lo, c_hi = self.ints
        return _fraction(max(b_hi - b_lo, c_hi - c_lo), self.den)

    @property
    def approx(self) -> tuple[float, float]:
        """b_mid and c_mid rounded to floats, by int true division."""
        b_lo, b_hi, c_lo, c_hi = self.ints
        return (b_lo + b_hi) / (2 * self.den), (c_lo + c_hi) / (2 * self.den)

    def gram_matrix(self) -> list[list[float]]:
        """[[a, b/2], [b/2, c]] as floats; positive definite."""
        b, c = self.approx
        return [[1.0, b / 2.0], [b / 2.0, c]]

    def overlaps(self, other: "QuadraticFactor") -> bool:
        (b_lo, b_hi, c_lo, c_hi), m = self.ints, self.den
        (ob_lo, ob_hi, oc_lo, oc_hi), n = other.ints, other.den
        b_apart = b_hi * n < ob_lo * m or ob_hi * m < b_lo * n
        c_apart = c_hi * n < oc_lo * m or oc_hi * m < c_lo * n
        return not (b_apart or c_apart)


class LinearFactor:
    """Linear factor with multiplicity; root is None for the axis factor x,
    otherwise the factor is y - t*x with t the enclosed root."""

    __slots__ = ("root", "alpha")

    def __init__(self, root: Optional[IsolatedRoot], alpha: int):
        if alpha < 1:
            raise ValueError("multiplicity must be >= 1")
        self.root, self.alpha = root, alpha

    @property
    def is_axis(self) -> bool:
        return self.root is None

    def line_direction(self) -> tuple[float, float]:
        """A direction vector of the zero line of the factor, its slope
        refined to 1e-17 relative so it is the nearest float: below float
        resolution, by the secant steps of ``refine`` from the end values
        that the refinement to eps left.  The slope 0 (the layer vanishes
        at 0, and the interval holds it) is exact; any other slope is first
        enclosed apart from 0, by halving."""
        if self.is_axis:
            return (0.0, 1.0)
        r = self.root
        if not r.poly[0] and r.contains(0):
            return (1.0, 0.0)
        while r.a <= 0 <= r.b:
            r = r._refine(r.b - r.a, 2 * r.d)
        n, m = (1e-17).as_integer_ratio()
        return (1.0, r._refine(n * min(abs(r.a), abs(r.b)), m * r.d).approx)

    def ray_angles(self) -> tuple[float, float]:
        """Angles of the two antipodal rays of the line, in [0, 2*pi): a
        tiny negative angle plus 2*pi rounds to 2*pi, which is taken as 0."""
        dx, dy = self.line_direction()
        tau = 2 * math.pi
        a = math.atan2(dy, dx) % tau
        return tuple(b if b < tau else 0.0 for b in (a, (a + math.pi) % tau))


class FactorizationStructure:
    """Multiplicative structure of a binary form: exact counts at once,
    enclosures on first access.

    ``layers`` holds the squarefree layers (w, m, roots) of f(1, t), each
    with the isolation of its real roots.  A layer gives len(roots)
    lines and (deg w - len(roots))/2 definite quadratics of multiplicity m,
    which fixes ``l``, ``k``, ``line_mults`` and ``quad_mults`` (sorted).
    ``linear`` and ``quadratic`` are certified from the layers at width
    ``eps`` when first read, and ``lines`` are the lines alone.
    """

    def __init__(self, form: HomogeneousForm, sign: int, layers: Sequence, eps: float):
        if sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        if not 0 < eps < math.inf:
            raise ValueError("eps must be a positive finite number")
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

    def layer_product(self, power) -> HomogeneousForm:
        """The primitive form prod W_m^power(m) times x^power(a), for the
        homogenized layers W_m and the power a > 0 of x in f, if any."""
        ints = [1]
        for w, m, _ in self.layers:
            for _ in range(power(m)):
                ints = convolve(ints, w)
        a = self.form.x_multiplicity()
        return HomogeneousForm._of(1, 1, tuple(ints) + (0,) * (a and power(a)))

    @property
    def linear(self) -> tuple[LinearFactor, ...]:
        return self._enclosures[0]

    @property
    def quadratic(self) -> tuple[QuadraticFactor, ...]:
        return self._enclosures[1]

    @cached_property
    def lines(self) -> tuple[LinearFactor, ...]:
        """``linear`` without the disjointness check, which needs the pair
        certificate: the lines, roots refined to eps, the axis first."""
        x_mult = self.form.x_multiplicity()
        linear = [LinearFactor(None, x_mult)] if x_mult else []
        linear += [LinearFactor(r.refine(self.eps), m)
                   for _, m, roots in self.layers for r in roots]
        linear.sort(key=lambda lf: (not lf.is_axis, lf.root.approx if lf.root else 0.0))
        return tuple(linear)

    @cached_property
    def _enclosures(self) -> tuple[tuple[LinearFactor, ...], tuple[QuadraticFactor, ...]]:
        """Lines refined to eps and certified pairs, sorted (the axis first),
        certified again at eps/16 until pairwise disjoint."""
        fs = self
        for _ in range(41):
            quadratic: list[QuadraticFactor] = []
            for w, m, roots in fs.layers:
                if len(w) - 1 > len(roots):
                    from .paircert import _certify_pairs

                    quadratic += _certify_pairs(w, roots, m, fs.eps)
            quadratic.sort(key=lambda qf: (qf.mu, qf.nu))
            if _disjoint(fs.lines, quadratic):
                return fs.lines, tuple(quadratic)
            fs = FactorizationStructure(fs.form, fs.sign, fs.layers, fs.eps / 16)
        raise NotRefinedError("could not separate factor enclosures")

    def reconstruction_gap(self) -> float:
        """Distance between f and the expanded certified factor product.

        The enclosed factors are multiplied out exactly, as closed intervals
        with Fraction endpoints, and matched to f at its largest coefficient.
        The result is the worst distance from a coefficient of f to the
        corresponding product enclosure, relative to f's largest
        coefficient and rounded to the nearest float: 0 when the enclosures
        hold f.  It shrinks as the enclosures are refined.
        """
        from .paircert import _Interval

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
        cs = self.form.ints      # f over its scale: the relative gap is the same
        imax = max(range(p + 1), key=lambda i: abs(cs[i]))
        lo, hi = prod[imax]
        if lo <= 0 <= hi:
            return math.inf
        lam = _Interval(sorted((cs[imax] / lo, cs[imax] / hi)))
        gap = max(max(u - c, c - v) for c, (u, v) in zip(cs, (lam * t for t in prod)))
        return max(0.0, float(gap / abs(cs[imax])))


def _disjoint(linear: Sequence[LinearFactor], quadratic: Sequence[QuadraticFactor]) -> bool:
    """No two line enclosures, open intervals, and no two quadratic
    factor enclosures, closed boxes, meet."""
    roots = [lf.root for lf in linear if not lf.is_axis]
    return not (any(r.a * s.d < s.b * r.d and s.a * r.d < r.b * s.d
                    for r, s in combinations(roots, 2))
                or any(p.overlaps(q) for p, q in combinations(quadratic, 2)))


def factor_form(f: HomogeneousForm, eps: float = _DEFAULT_EPS) -> FactorizationStructure:
    """Factor a binary form into lines and definite quadratics.

    The counts, multiplicities and sign come out exactly from Yun's layers
    and the isolations of their real roots; the enclosures (lines refined
    to eps, quadratic coefficients certified to width at most eps) are
    computed when ``linear`` or ``quadratic`` is first read.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero marker")
    if f.degree < 1:
        raise ValueError("cannot factor a constant")
    x_mult = f.x_multiplicity()     # f = x^x_mult * x^(deg g) * g(y/x)
    # g = f(1, t) is f.scale times f.ints, whose leading entry is positive
    layers = [] if x_mult == f.degree else [
        (w, m, isolate_real_roots(w)) for w, m in squarefree_decomposition(f.ints)]
    return FactorizationStructure(f, 1 if f.num > 0 else -1, layers=layers, eps=eps)


def refine(fs: FactorizationStructure, eps: float) -> FactorizationStructure:
    """The structure of fs's layers at enclosure width eps: the enclosures
    are certified again from the layers when first read.  Counts and
    ordering are preserved.  fs itself when eps >= fs.eps, so refining never
    coarsens; eps must be positive and finite."""
    return fs if fs.eps <= eps < math.inf else FactorizationStructure(
        fs.form, fs.sign, fs.layers, eps)
