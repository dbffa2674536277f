"""Orientation-preserving linear symmetries of a real binary form.

The group of interest is the set of h in GL+(2, R) with f(h z) = f(z).
Its shape depends only on the case letter that verdict.classify_case
assigns to the factor counts (l, k):

    A  (1, 0)       shear family in coordinates where the line is y = 0
    B  (2, 0)       diagonal scaling family, finite part inside Z_4
    C  (0, 1)       conjugated rotation circle
    D  (0, k >= 2)  finite cyclic, found through quadratic transport
    E  (l >= 1)     finite cyclic of order dividing 2l, found through
                    cyclic ray shifts; just +-id when l = 1

The finite cases build candidates from the factor geometry (quadratic
transport, cyclic ray shifts), polish each with the one Gauss-Newton
routine here, which takes exact Jacobians, and close the verified ones
under products.  The tests hold an independent check: a dense scan over
SL(2, R) that finds its starting points without the factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

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


_ENTRY_BASIS = np.eye(4).reshape(4, 2, 2)


def _defect(target, H: np.ndarray, dH: np.ndarray):
    """The defect fn o H - fn and its exact Jacobian in the parameters of H,
    given dH[j] = dH / dparam_j.

    In the matrix entries d(f o h)/d(a, b, c, d) = (x, y, x, y) times
    (f_x o h, f_x o h, f_y o h, f_y o h); in coefficient order a factor x
    appends a zero and a factor y prepends one.
    """
    fn, fx, fy = target
    entries = H.ravel().tolist()
    e = np.array(compose_coeffs(fn, *entries)) - fn
    gx = compose_coeffs(fx, *entries)
    gy = compose_coeffs(fy, *entries)
    jac = np.array([gx + [0.0], [0.0] + gx, gy + [0.0], [0.0] + gy]).T
    return e, jac @ dH.reshape(len(dH), 4).T


def _gauss_newton(fun, x0, iters: int):
    """Damped Gauss-Newton on fun(x) = (defect, exact Jacobian).

    Steps are capped at max-norm 1.  Returns the best iterate and its
    max-abs defect, or None once the defect, the Jacobian or the step is
    not finite.
    """
    x = np.array(x0, dtype=float)
    best, best_r, size = x, math.inf, math.inf
    for it in range(iters + 1):
        e, jac = fun(x)
        if not (np.isfinite(e).all() and np.isfinite(jac).all()):
            return None
        r = float(np.max(np.abs(e)))
        if r < best_r:
            best, best_r = x, r
        if it == iters or r < _STOP_DEFECT or size < 1e-14:
            break
        step, *_ = np.linalg.lstsq(jac, e, rcond=None)
        size = float(np.max(np.abs(step)))
        if not math.isfinite(size):
            return None
        x = x - step / max(size, 1.0)
    return best, best_r


def _polish(target, entries):
    """Gauss-Newton over the four matrix entries; symmetries are isolated
    zeros of the defect in the finite cases, so this converges
    quadratically."""
    return _gauss_newton(
        lambda v: _defect(target, v.reshape(2, 2), _ENTRY_BASIS), entries, 12)


# ---------------------------------------------------------------------------
# positive definite transport

def _spd_roots(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M^(1/2), M^(-1/2)) of a symmetric positive definite 2x2 matrix."""
    M = np.asarray(M, dtype=float)
    if M.shape != (2, 2) or abs(M[0, 1] - M[1, 0]) > 1e-12 * (1 + abs(M[0, 1])):
        raise NotPositiveDefiniteError("matrix is not symmetric")
    w, V = np.linalg.eigh(M)
    if w[0] <= 0:
        raise NotPositiveDefiniteError("matrix is not positive definite")
    s = np.sqrt(w)
    return (V * s) @ V.T, (V / s) @ V.T


def _rot(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# group payloads

@dataclass(frozen=True)
class ShearFamily:
    """Symmetries of +- L^p: in coordinates where L = y the identity
    component is (x, y) -> (a x + b y, y) with a > 0; for even p the group
    has a second component, the negatives of the first."""

    normalizer: Mat2
    parity: str                      # "even" or "odd" multiplicity of L
    case_label: str = "A"

    def member(self, a: float, b: float) -> Mat2:
        if a <= 0:
            raise ValueError("the identity component needs a > 0")
        n = self.normalizer.to_float()
        return n @ Mat2.approx(a, b, 0.0, 1.0) @ n.inverse()

    def component_count(self) -> int:
        return 2 if self.parity == "even" else 1

    def contains_minus_id(self) -> bool:
        return self.parity == "even"


@dataclass(frozen=True)
class DiagonalFamily:
    """Symmetries of +- L1^a1 L2^a2: in coordinates sending the lines to
    the axes the identity component is diag(e^(a2 t), e^(-a1 t)); the
    finite part is a subgroup of the quarter-turn group Z_4."""

    normalizer: Mat2
    alpha_x: int                     # exponent carried by x after normalizing
    alpha_y: int
    quarter_turn_in_group: bool
    case_label: str = "B"

    def member(self, t: float) -> Mat2:
        n = self.normalizer.to_float()
        d = Mat2.approx(math.exp(self.alpha_y * t), 0.0,
                        0.0, math.exp(-self.alpha_x * t))
        return n @ d @ n.inverse()

    def quarter_turn(self) -> Mat2:
        n = self.normalizer.to_float()
        return n @ Mat2.approx(0.0, -1.0, 1.0, 0.0) @ n.inverse()

    def contains_minus_id(self) -> bool:
        return (self.alpha_x + self.alpha_y) % 2 == 0


@dataclass(frozen=True)
class RotationFamily:
    """Symmetries of +- Q^b: the circle N SO(2) N^(-1) where N normalizes
    Q to the round quadratic x^2 + y^2."""

    normalizer: Mat2
    case_label: str = "C"

    def member(self, theta: float) -> Mat2:
        n = self.normalizer.to_float()
        return n @ Mat2.rotation(theta) @ n.inverse()

    def contains_minus_id(self) -> bool:
        return True


@dataclass(frozen=True)
class FiniteCyclicGroup:
    """Finite cyclic symmetry group; generator has the smallest positive
    rotation angle and residual is the worst verified member residual."""

    n: int
    generator: Mat2
    residual: float
    elements: tuple[Mat2, ...]
    case_label: str = "E"

    def contains_minus_id(self, tol: float = 1e-6) -> bool:
        minus = Mat2.approx(-1.0, 0.0, 0.0, -1.0)
        return any(e.dist(minus) < tol for e in self.elements)

    def order_of_generator(self, tol: float = 1e-9) -> int:
        return finite_order_of(self.generator, max_n=4 * self.n + 8, tol=max(tol, 1e-9))


SymmetryGroup = Union[ShearFamily, DiagonalFamily, RotationFamily, FiniteCyclicGroup]


# ---------------------------------------------------------------------------
# dispatch

def _exact_slope(root) -> Optional[object]:
    """Fraction slope when the defining layer is linear, else None."""
    w = root.poly
    if w.degree == 1:
        t = -w.coeffs[0] / w.coeffs[1]
        if root.contains(t) or t == root.lo or t == root.hi:
            return t
    return None


def _line_column(lf):
    """Direction of the factor's zero line: exact Fractions when available."""
    if lf.is_axis:
        return (Fraction(0), Fraction(1))
    t = _exact_slope(lf.root)
    if t is not None:
        return (Fraction(1), t)
    return (1.0, lf.root.approx)


def symmetry_group(f: HomogeneousForm, fs: Optional[FactorizationStructure] = None,
                   tol: float = 1e-9, eps: float = 1e-14) -> SymmetryGroup:
    """Identify the linear symmetry group of f.

    The factorization is refined to enclosure width eps first; tol is the
    residual below which a candidate matrix counts as verified, at least
    the Gauss-Newton stopping defect _STOP_DEFECT.
    """
    if not tol >= _STOP_DEFECT:
        raise ValueError(f"tol must be at least {_STOP_DEFECT:g}, "
                         "where the Gauss-Newton polish stops")
    if fs is None:
        fs = factor_form(f, eps=eps)
    elif fs.max_width() > Fraction(eps):
        fs = refine(fs, eps)
    if not fs.is_separated():
        raise NotRefinedError("factor enclosures overlap; refine first")
    case = classify_case(fs)
    if case == "A":
        return _case_single_line(fs)
    if case == "B":
        return _case_two_lines(f, fs, tol)
    if case == "C":
        return _case_one_definite(fs)
    return _finite_group(f, fs, tol, label=case)


def _mat_from_columns(col1, col2) -> Mat2:
    exact = all(isinstance(v, (int, Fraction)) for v in (*col1, *col2))
    a, c = col1
    b, d = col2
    det = a * d - b * c
    if det == 0:
        raise ValueError("degenerate column pair")
    if det < 0:
        a, c = -a, -c
    if exact:
        return Mat2.exact(a, b, c, d)
    return Mat2.approx(a, b, c, d)


def _case_single_line(fs: FactorizationStructure) -> ShearFamily:
    lf = fs.linear[0]
    n = _mat_from_columns(_line_column(lf), (1, 0) if lf.is_axis else (0, 1))
    parity = "even" if lf.alpha % 2 == 0 else "odd"
    return ShearFamily(normalizer=n, parity=parity)


def _case_two_lines(f: HomogeneousForm, fs: FactorizationStructure,
                    tol: float) -> DiagonalFamily:
    lf1, lf2 = fs.linear
    n = _mat_from_columns(_line_column(lf2), _line_column(lf1))
    group = DiagonalFamily(normalizer=n, alpha_x=lf1.alpha, alpha_y=lf2.alpha,
                           quarter_turn_in_group=False)
    qt = group.quarter_turn()
    if invariance_residual(f, qt) < tol:
        group = DiagonalFamily(normalizer=n, alpha_x=lf1.alpha, alpha_y=lf2.alpha,
                               quarter_turn_in_group=True)
    return group


def _case_one_definite(fs: FactorizationStructure) -> RotationFamily:
    M = np.array(fs.quadratic[0].gram_matrix())
    _, inv_sqrt = _spd_roots(M)
    n = Mat2.approx(inv_sqrt[0, 0], inv_sqrt[0, 1], inv_sqrt[1, 0], inv_sqrt[1, 1])
    return RotationFamily(normalizer=n)


# ---------------------------------------------------------------------------
# the finite cases

def _finite_group(f: HomogeneousForm, fs: FactorizationStructure,
                  tol: float, label: str) -> FiniteCyclicGroup:
    """Cases D and E.  With one line the group fixes that line, and a
    finite-order element of GL+(2) that fixes a line is +-id, so the
    identity and -id are the only candidates then."""
    target = _unit_target(f)
    cap = 4 * max(2 * fs.l, 2 * sum(q.beta for q in fs.quadratic), 16)
    elems: list[tuple[Mat2, float]] = []

    def verify(entries) -> bool:
        """Polish a candidate and keep it if it is a new symmetry."""
        a, b, c, d = entries
        if abs(a * d - b * c) < 1e-12:
            return False
        sol = _polish(target, entries)
        if sol is None or sol[1] >= tol:
            return False
        m = Mat2.approx(*sol[0].tolist())
        if any(e.dist(m) < _DEDUPE_TOL for e, _ in elems):
            return False
        elems.append((m, sol[1]))
        if len(elems) > cap:
            raise ToleranceTooLooseError(
                f"more than {cap} distinct verified elements; tol admits noise")
        return True

    verify((1.0, 0.0, 0.0, 1.0))
    if f.degree % 2 == 0:
        verify((-1.0, 0.0, 0.0, -1.0))
    if fs.l == 0:
        _candidates_quadratic(fs, target[0], verify)
    elif fs.l >= 2:
        _candidates_ray_shift(fs, target, verify)
    # close under products, one snapshot of the verified set per round
    changed = True
    while changed:
        changed = False
        snapshot = [m for m, _ in elems]
        for m1 in snapshot:
            for m2 in snapshot:
                changed |= verify([float(v) for v in (m1 @ m2).entries()])

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
    if order != n:
        raise ToleranceTooLooseError(
            f"the {n} verified elements are not the powers of one generator; "
            "tol admits noise")
    return FiniteCyclicGroup(n=n, generator=gen, residual=worst,
                             elements=mats, case_label=label)


def _candidates_quadratic(fs, fn, verify):
    """Case of k >= 2 definite factors and no lines: transport the first
    quadratic onto each compatible target t1, pin the rotation angle by
    making the second quadratic proportional to a target t2, fix the scale
    from f itself.

    With h = B^(-1/2) R A^(1/2) (B the first Gram matrix, A that of t1)
    the second quadratic goes to a multiple of t2 exactly when R^T N R is
    proportional to P, where N = B^(-1/2) M_2 B^(-1/2) and
    P = A^(-1/2) M_t2 A^(-1/2).  Both are symmetric, so R = U D V^T from
    their eigenvectors, with D = +-1 on the diagonal and det R = 1; that
    fixes the angle mod pi.  The other half-turn differs by -id, which
    _fix_scale absorbs for odd degree and the closure supplies for even.
    """
    mats = [np.array(qf.gram_matrix()) for qf in fs.quadratic]
    betas = [qf.beta for qf in fs.quadratic]
    second = 1
    sqrt, inv_sqrt = zip(*(_spd_roots(M) for M in mats))
    _, U = np.linalg.eigh(inv_sqrt[0] @ mats[second] @ inv_sqrt[0])
    for t1 in range(len(mats)):
        if betas[t1] != betas[0]:
            continue
        for t2 in range(len(mats)):
            if t2 == t1 or betas[t2] != betas[second]:
                continue
            _, V = np.linalg.eigh(inv_sqrt[t1] @ mats[t2] @ inv_sqrt[t1])
            R = U @ np.diag([1.0, np.linalg.det(U) * np.linalg.det(V)]) @ V.T
            h1 = inv_sqrt[0] @ _rot(math.atan2(R[1, 0], R[0, 0])) @ sqrt[t1]
            scaled = _fix_scale(fn, *h1.ravel().tolist())
            if scaled is not None:
                verify(scaled)


def _candidates_ray_shift(fs, target, verify):
    """l >= 2 lines: symmetries permute the 2l zero rays by a cyclic shift
    that preserves multiplicities; two ray images pin the matrix up to two
    positive scalars, found by Gauss-Newton in their logarithms."""
    rays = []
    for lf in fs.linear:
        dx, dy = lf.line_direction()
        nrm = math.hypot(dx, dy)
        for sgn in (1.0, -1.0):
            ux, uy = sgn * dx / nrm, sgn * dy / nrm
            rays.append((math.atan2(uy, ux) % (2 * math.pi), (ux, uy), lf.alpha))
    rays.sort(key=lambda r: r[0])
    m = len(rays)
    pattern = [r[2] for r in rays]
    V = np.array([[rays[0][1][0], rays[1][1][0]],
                  [rays[0][1][1], rays[1][1][1]]])
    Vinv = np.linalg.inv(V)

    for s in range(m):
        if any(pattern[(i + s) % m] != pattern[i] for i in range(m)):
            continue
        W = np.array([[rays[s][1][0], rays[(1 + s) % m][1][0]],
                      [rays[s][1][1], rays[(1 + s) % m][1][1]]])
        # H = mu P0 + nu P1, so dH/dlog(mu) = mu P0 and dH/dlog(nu) = nu P1
        P01 = np.array([np.outer(W[:, j], Vinv[j]) for j in range(2)])

        def fun(ab):
            terms = np.exp(ab)[:, None, None] * P01
            return _defect(target, terms[0] + terms[1], terms)

        for seed in [(0.0, 0.0), (0.4, -0.4), (-0.4, 0.4), (0.25, 0.25)]:
            sol = _gauss_newton(fun, seed, 40)
            if sol is None or sol[1] >= 1e-7:
                continue
            mu, nu = np.exp(sol[0])
            verify(tuple((mu * P01[0] + nu * P01[1]).ravel().tolist()))


def _fix_scale(fn, a: float, b: float, c: float, d: float):
    """Rescale the projective candidate [[a, b], [c, d]] so f o h = f on
    the nose; None when the sign cannot be repaired."""
    comp = compose_coeffs(fn, a, b, c, d)
    p = len(fn) - 1
    denom = sum(v * v for v in fn)
    kappa = sum(u * v for u, v in zip(comp, fn)) / denom
    if abs(kappa) < 1e-12:
        return None
    if p % 2 == 0:
        if kappa <= 0:
            return None
        s = kappa ** (-1.0 / p)
    else:
        s = math.copysign(abs(kappa) ** (-1.0 / p), kappa)
    return (s * a, s * b, s * c, s * d)


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
