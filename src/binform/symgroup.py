"""Orientation-preserving linear symmetries of a real binary form.

The group of interest is the set of h in GL+(2, R) with f(h z) = f(z).
Its shape depends only on the case letter that verdict.classify_case
assigns to the factor counts (l, k):

    A  (1, 0)       shear family in coordinates where the line is y = 0
    B  (2, 0)       diagonal scaling family, finite part inside Z_4
    C  (0, 1)       conjugated rotation circle
    D  (0, k >= 2)  finite cyclic
    E  (l >= 1)     finite cyclic of order dividing 2l; just +-id when l = 1

The case-B quarter turn is read off the two exponents.  Cases D and E work
on the reduced form of Yun's layers, which has the group of f at a degree
that does not grow with the multiplicities.  A finite-case symmetry acts
on the slope t = y/x as a real Moebius map of positive determinant, so
three factor roots and their images fix it.  The candidates are these
maps, one per target triple that the cyclic order and the multiplicities
allow; each is polished with the one Gauss-Newton routine here, which
takes exact Jacobians and solves its steps by Householder QR.  The group
is the identity, the verified candidates and, at even degree, their exact
negatives; it is accepted only when it is the powers of one generator.
The case-C normalizer is a closed-form matrix square root.  The tests hold
an independent check: a dense scan over SL(2, R) that finds its starting
points without the factors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count
from typing import Optional, Union

from .errors import (
    NotFiniteOrderError,
    NotPositiveDefiniteError,
    NotRefinedError,
    ToleranceTooLooseError,
)
from .mat2 import Mat2
from .polyring import HomogeneousForm, compose_coeffs, partials
from .realfactor import FactorizationStructure, factor_form, refine
from .verdict import classify_case

_DEDUPE_TOL = 1e-6
# Gauss-Newton stops once the max-abs defect drops below this, so a
# residual tolerance under it can verify nothing.
_STOP_DEFECT = 1e-15


# ---------------------------------------------------------------------------
# composition residuals and the one Newton solver (float path)

def invariance_residual(f: HomogeneousForm, h: Mat2) -> float:
    """Max-abs coefficient distance between f o h and f, both scaled to
    unit max norm.  Zero (to rounding) exactly on symmetries."""
    fc = f.float_coeffs()
    comp = compose_coeffs(fc, *(float(e) for e in h.entries()))
    mf = max(abs(v) for v in fc)
    mc = max(abs(v) for v in comp)
    if mc == 0.0:
        return math.inf
    return max(abs(x / mc - y / mf) for x, y in zip(comp, fc))


def _unit_target(f: HomogeneousForm):
    """f scaled to unit max norm, with its partials f_x and f_y, as float
    coefficient lists."""
    mf = max(abs(v) for v in f.float_coeffs())
    return tuple([v / mf for v in g.float_coeffs()] for g in (f, *partials(f)))


def _defect(target, entries):
    """The defect fn o h - fn at h = [[a, b], [c, d]] and the four columns
    of its exact Jacobian in (a, b, c, d).

    d(f o h)/d(a, b, c, d) = (x, y, x, y) times (f_x o h, f_x o h, f_y o h,
    f_y o h); in coefficient order a factor x appends a zero and a factor y
    prepends one.
    """
    fn, fx, fy = target
    e = [u - v for u, v in zip(compose_coeffs(fn, *entries), fn)]
    gx = compose_coeffs(fx, *entries)
    gy = compose_coeffs(fy, *entries)
    return e, [gx + [0.0], [0.0] + gx, gy + [0.0], [0.0] + gy]


def _lstsq(cols, e):
    """The s minimizing |sum_j s_j cols[j] - e|, by Householder QR of the
    columns; None when they are dependent (a pivot at rounding level)."""
    cols, e = [list(c) for c in cols], list(e)
    tiny = 1e-14 * max(math.hypot(*c) for c in cols)
    for k, ck in enumerate(cols):
        alpha = -math.copysign(math.hypot(*ck[k:]), ck[k])
        if not abs(alpha) > tiny:
            return None
        v = [ck[k] - alpha, *ck[k + 1:]]
        vv = -2.0 * alpha * v[0]                     # |v|^2
        for c in (*cols[k + 1:], e):
            t = 2.0 * sum(p * q for p, q in zip(v, c[k:])) / vv
            c[k:] = [q - t * p for p, q in zip(v, c[k:])]
        ck[k] = alpha
    s = []                                           # back substitution
    for k in reversed(range(len(cols))):
        s.insert(0, (e[k] - sum(c[k] * v for c, v in zip(cols[k + 1:], s))) / cols[k][k])
    return s


def _gauss_newton(fun, x0, iters: int):
    """Damped Gauss-Newton on fun(x) = (defect, exact Jacobian columns).

    Steps are capped at max-norm 1.  Returns the best iterate and its
    max-abs defect, or None once the defect, the Jacobian or the step is
    not finite, or the columns are dependent.
    """
    x = [float(v) for v in x0]
    best, best_r, size = x, math.inf, math.inf
    for it in range(iters + 1):
        e, cols = fun(x)
        if not all(map(math.isfinite, [*e, *(v for c in cols for v in c)])):
            return None
        r = max(map(abs, e))
        if r < best_r:
            best, best_r = x, r
        if it == iters or r < _STOP_DEFECT or size < 1e-14:
            break
        step = _lstsq(cols, e)
        size = math.nan if step is None else max(map(abs, step))
        if not math.isfinite(size):
            return None
        x = [u - s / max(size, 1.0) for u, s in zip(x, step)]
    return best, best_r


def _polish(target, entries):
    """Gauss-Newton over the four matrix entries; symmetries are isolated
    zeros of the defect in the finite cases, so this converges
    quadratically."""
    return _gauss_newton(lambda v: _defect(target, v), entries, 12)


# ---------------------------------------------------------------------------
# group payloads

_QUARTER_TURN = Mat2.approx(0.0, -1.0, 1.0, 0.0)


def _conjugate(normalizer: Mat2, m: Mat2) -> Mat2:
    """N m N^(-1) in floats, for the normalizer N of a family."""
    n = normalizer.to_float()
    return n @ m @ n.inverse()


class ShearFamily:
    """Symmetries of +- L^p: in coordinates where L = y the identity
    component is (x, y) -> (a x + b y, y) with a > 0; for even p the group
    has a second component, the negatives of the first.  ``parity`` is
    "even" or "odd", that of the multiplicity of L."""

    __slots__ = ("normalizer", "parity")
    case_label = "A"

    def __init__(self, normalizer: Mat2, parity: str):
        self.normalizer, self.parity = normalizer, parity

    def member(self, a: float, b: float) -> Mat2:
        if a <= 0:
            raise ValueError("the identity component needs a > 0")
        return _conjugate(self.normalizer, Mat2.approx(a, b, 0.0, 1.0))

    def component_count(self) -> int:
        return 2 if self.parity == "even" else 1

    def contains_minus_id(self) -> bool:
        return self.parity == "even"


class DiagonalFamily:
    """Symmetries of +- L1^a1 L2^a2: in coordinates sending the lines to
    the axes the identity component is diag(e^(a2 t), e^(-a1 t)); the
    finite part is a subgroup of the quarter-turn group Z_4.  ``alpha_x``
    and ``alpha_y`` are the exponents x and y carry after normalizing."""

    __slots__ = ("normalizer", "alpha_x", "alpha_y", "quarter_turn_in_group")
    case_label = "B"

    def __init__(self, normalizer: Mat2, alpha_x: int, alpha_y: int,
                 quarter_turn_in_group: bool):
        self.normalizer, self.alpha_x, self.alpha_y = normalizer, alpha_x, alpha_y
        self.quarter_turn_in_group = quarter_turn_in_group

    def member(self, t: float) -> Mat2:
        return _conjugate(self.normalizer, Mat2.approx(
            math.exp(self.alpha_y * t), 0.0, 0.0, math.exp(-self.alpha_x * t)))

    def quarter_turn(self) -> Mat2:
        return _conjugate(self.normalizer, _QUARTER_TURN)

    def contains_minus_id(self) -> bool:
        return (self.alpha_x + self.alpha_y) % 2 == 0


class RotationFamily:
    """Symmetries of +- Q^b: the circle N SO(2) N^(-1) where N normalizes
    Q to the round quadratic x^2 + y^2."""

    __slots__ = ("normalizer",)
    case_label = "C"

    def __init__(self, normalizer: Mat2):
        self.normalizer = normalizer

    def member(self, theta: float) -> Mat2:
        return _conjugate(self.normalizer, Mat2.rotation(theta))

    def contains_minus_id(self) -> bool:
        return True


class FiniteCyclicGroup:
    """Finite cyclic symmetry group of case D or E; generator has the
    smallest positive rotation angle and residual is the worst verified
    member residual, measured on the reduced form."""

    __slots__ = ("n", "generator", "residual", "elements", "case_label")

    def __init__(self, n: int, generator: Mat2, residual: float,
                 elements: tuple[Mat2, ...], case_label: str):
        self.n, self.generator, self.residual = n, generator, residual
        self.elements, self.case_label = elements, case_label

    def contains_minus_id(self, tol: float = 1e-6) -> bool:
        minus = Mat2.approx(-1.0, 0.0, 0.0, -1.0)
        return any(e.dist(minus) < tol for e in self.elements)

    def order_of_generator(self, tol: float = 1e-9) -> int:
        return finite_order_of(self.generator, max_n=4 * self.n + 8, tol=max(tol, 1e-9))


SymmetryGroup = Union[ShearFamily, DiagonalFamily, RotationFamily, FiniteCyclicGroup]


# ---------------------------------------------------------------------------
# dispatch

def _line_column(lf):
    """Direction of the factor's zero line: exact Fractions when its layer
    is linear, the layer's root then being its slope."""
    if lf.is_axis:
        return (Fraction(0), Fraction(1))
    w = lf.root.poly
    return (Fraction(1), Fraction(-w[0], w[1])) if len(w) == 2 else lf.line_direction()


def symmetry_group(f: HomogeneousForm, fs: Optional[FactorizationStructure] = None,
                   tol: float = 1e-9, eps: float = 1e-14) -> SymmetryGroup:
    """Identify the linear symmetry group of f.

    A factorization fs certified at a width fs.eps above eps is refined to
    eps first; its enclosures are pairwise disjoint by construction.  tol
    is the residual below which a candidate matrix counts as verified, at
    least the Gauss-Newton stopping defect _STOP_DEFECT.
    """
    if not tol >= _STOP_DEFECT:
        raise ValueError(f"tol must be at least {_STOP_DEFECT:g}, "
                         "where the Gauss-Newton polish stops")
    fs = factor_form(f, eps=eps) if fs is None else refine(fs, eps)
    case = classify_case(fs)
    if case == "A":
        return _case_single_line(fs)
    if case == "B":
        return _case_two_lines(fs)
    if case == "C":
        return _case_one_definite(fs)
    return _finite_group(fs, tol, label=case)


def _mat_from_columns(col1, col2) -> Mat2:
    exact = all(isinstance(v, (int, Fraction)) for v in (*col1, *col2))
    a, c = col1
    b, d = col2
    det = a * d - b * c
    if det == 0:
        raise NotRefinedError("two lines have the same float direction")
    if det < 0:
        a, c = 0 - a, 0 - c            # 0 - v: a float zero stays +0.0
    if exact:
        return Mat2.exact(a, b, c, d)
    return Mat2.approx(a, b, c, d)


def _case_single_line(fs: FactorizationStructure) -> ShearFamily:
    lf = fs.linear[0]
    n = _mat_from_columns(_line_column(lf), (1, 0) if lf.is_axis else (0, 1))
    parity = "even" if lf.alpha % 2 == 0 else "odd"
    return ShearFamily(normalizer=n, parity=parity)


def _case_two_lines(fs: FactorizationStructure) -> DiagonalFamily:
    """f o N = c x^a y^b, and the quarter turn sends that to
    c (-1)^a x^b y^a: it is a symmetry exactly when a = b is even."""
    lf1, lf2 = fs.linear
    n = _mat_from_columns(_line_column(lf2), _line_column(lf1))
    return DiagonalFamily(normalizer=n, alpha_x=lf1.alpha, alpha_y=lf2.alpha,
                          quarter_turn_in_group=lf1.alpha == lf2.alpha and lf1.alpha % 2 == 0)


def _case_one_definite(fs: FactorizationStructure) -> RotationFamily:
    """N = Q^(-1/2) for the Gram matrix Q of the quadratic, in closed form:
    with s = sqrt(det Q), Q^(1/2) = (Q + s I) / sqrt(tr Q + 2 s), and
    N = adj(Q^(1/2)) / s."""
    (p, q), (_, r) = fs.quadratic[0].gram_matrix()
    det = p * r - q * q
    if not det > 0:
        raise NotPositiveDefiniteError("matrix is not positive definite")
    s = math.sqrt(det)
    t = math.sqrt(p + r + 2.0 * s) * s
    o = (0.0 - q) / t                  # 0.0 - q: a zero stays +0.0
    return RotationFamily(normalizer=Mat2.approx((r + s) / t, o, o, (p + s) / t))


# ---------------------------------------------------------------------------
# the finite cases

def _reduced_form(fs: FactorizationStructure) -> HomogeneousForm:
    """g = prod W_m^(e_m) over the layers (x^a joins the layer of m = a),
    the odd m getting e_m = 1, 3, 5, ... and the even m 2, 4, ....  A
    finite-order h has det 1 and sends each W_m to +-W_m, so f o h = f
    depends only on the parity of each m: g has the group of f."""
    mults = sorted({m for _, m, _ in fs.layers} | {fs.form.x_multiplicity()} - {0})
    odd, even = count(1, 2), count(2, 2)
    e = {m: next(odd if m % 2 else even) for m in mults}
    return fs.layer_product(e.__getitem__)


def _finite_group(fs: FactorizationStructure, tol: float, label: str) -> FiniteCyclicGroup:
    """Cases D and E, on the reduced form g of f, which has the same group
    and usually a lower degree.  Every symmetry is, up to sign, one of the
    Moebius candidates, so the verified set is the identity, the verified
    candidates and, at even degree, the exact negative of each: the defect
    is even in h there, so -h has the same residual.  With one line the
    group fixes that line, and a finite-order element of GL+(2) that
    fixes a line is +-id, so the identity is the only candidate then."""
    g = _reduced_form(fs)
    target = _unit_target(g)
    elems: list[tuple[Mat2, float]] = []

    def verify(entries) -> None:
        """Polish a candidate and keep it, with its negative at even
        degree, where it is a new symmetry."""
        a, b, c, d = entries
        if a * d - b * c < 1e-12:
            return
        sol = _polish(target, entries)
        if sol is None or sol[1] >= tol:
            return
        found = [Mat2.approx(*sol[0])]
        if g.degree % 2 == 0:             # 0.0 - v: a zero stays +0.0
            found.append(Mat2.approx(*(0.0 - v for v in sol[0])))
        for m in found:
            if m.det() > 0 and not any(e.dist(m) < _DEDUPE_TOL for e, _ in elems):
                elems.append((m, sol[1]))

    verify((1.0, 0.0, 0.0, 1.0))
    if fs.l != 1:
        _candidates_moebius(fs, target[0], verify)

    worst = max(r for _, r in elems)
    elems.sort(key=lambda e: (round(e[0].polar_angle(), 9),) + tuple(
        round(float(v), 9) for v in e[0].entries()))
    mats = tuple(e[0] for e in elems)
    n = len(mats)
    if n == 1:
        gen = mats[0]
    else:
        gen = next(m for m in mats if m.dist(Mat2.approx(1, 0, 0, 1)) > _DEDUPE_TOL)
    # Where the defect is flat, one symmetry polishes to several points more
    # than _DEDUPE_TOL apart; the set then is not the powers of gen.
    try:
        order = finite_order_of(gen, max_n=n, tol=_DEDUPE_TOL)
    except NotFiniteOrderError:
        order = None
    powers = [gen.power(i) for i in range(n)]
    if order != n or any(min(m.dist(p) for p in powers) >= _DEDUPE_TOL for m in mats):
        raise ToleranceTooLooseError(
            f"the {n} verified elements are not the powers of one generator; "
            "tol admits noise")
    return FiniteCyclicGroup(n=n, generator=gen, residual=worst,
                             elements=mats, case_label=label)


def _candidates_moebius(fs, fn, verify):
    """Hand verify the candidates.  A symmetry acts on the slope t = y/x
    as a real Moebius map of positive determinant: it keeps the cyclic
    order of the lines (fs.linear is in that order) and their
    multiplicities, and sends the upper root of each definite quadratic to
    that of one with the same multiplicity.  Three points fix it: three
    lines (l >= 3), two lines and the first quadratic's root (l = 2), or
    that root, its conjugate and the second's (l = 0).  Points are
    homogeneous (x, y) pairs; the slopes are refined to the last bit, so a
    candidate is a symmetry up to rounding."""
    lines = [lf.line_direction() for lf in fs.linear]
    alphas = [lf.alpha for lf in fs.linear]
    roots = [((1.0, complex(qf.mu, qf.nu)), (1.0, complex(qf.mu, -qf.nu)), qf.beta)
             for qf in fs.quadratic]
    shifts = [lines[s:] + lines[:s] for s in range(fs.l)
              if alphas[s:] + alphas[:s] == alphas]
    if fs.l >= 3:
        source, images = lines[:3], [w[:3] for w in shifts]
    elif fs.l == 2:
        (r0, _, b0), *_ = roots
        source = [*lines, r0]
        images = [[*w, r] for w in shifts for r, _, beta in roots if beta == b0]
    else:
        (r0, c0, b0), (r1, _, b1), *_ = roots
        source = [r0, c0, r1]
        images = [[r, c, r2] for r, c, beta in roots if beta == b0
                  for r2, _, beta2 in roots if r2 != r and beta2 == b1]
    for image in images:
        scaled = _fix_scale(fn, *_moebius(source, image))
        if scaled is not None:
            verify(scaled)


def _moebius(source, image):
    """Real entries, the largest 1, of the H with H v ~ w for the three
    points v of source and their images w.  With v3 = alpha v1 + beta v2
    and w3 = gamma w1 + delta w2, H = W diag(gamma/alpha, delta/beta)
    V^(-1), which Cramer's rule makes W diag(p, q) adj(V) up to a scalar.
    A real map through the points is H times a complex number, which
    dividing by the largest entry removes."""
    def det(u, v):
        return u[0] * v[1] - u[1] * v[0]

    (v1, v2, v3), (w1, w2, w3) = source, image
    p, q = det(w3, w2) * det(v1, v3), det(w1, w3) * det(v3, v2)
    h = (p * w1[0] * v2[1] - q * w2[0] * v1[1], q * w2[0] * v1[0] - p * w1[0] * v2[0],
         p * w1[1] * v2[1] - q * w2[1] * v1[1], q * w2[1] * v1[0] - p * w1[1] * v2[0])
    top = max(h, key=abs) or 1.0     # zero only on underflow; _fix_scale drops it
    return [(v / top).real for v in h]


def _fix_scale(fn, a: float, b: float, c: float, d: float):
    """Rescale the projective candidate [[a, b], [c, d]] so f o h = f on
    the nose; None when the sign cannot be repaired."""
    comp = compose_coeffs(fn, a, b, c, d)
    p = len(fn) - 1
    kappa = sum(u * v for u, v in zip(comp, fn)) / sum(v * v for v in fn)
    if abs(kappa) < 1e-12 or (p % 2 == 0 and kappa < 0):
        return None
    s = math.copysign(abs(kappa) ** (-1.0 / p), kappa)
    return tuple(0.0 + s * v for v in (a, b, c, d))   # 0.0 + v: no zero is -0.0


# ---------------------------------------------------------------------------
# order computation

def finite_order_of(h: Mat2, max_n: int = 64, tol: float = 1e-9) -> int:
    """Smallest n >= 1 with h^n = id, with determinant renormalization per
    step to keep rounding from compounding."""
    ident = Mat2.approx(1.0, 0.0, 0.0, 1.0)
    acc = h.to_float()
    for n in range(1, max_n + 1):
        det = float(acc.det())
        if det <= 0:
            raise NotFiniteOrderError("determinant lost positivity")
        acc = acc.scale(det ** -0.5)
        if acc.dist(ident) < tol:
            return n
        acc = acc @ h.to_float()
    raise NotFiniteOrderError(f"no order up to {max_n} at tol {tol}")
