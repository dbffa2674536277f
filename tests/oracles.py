"""Independent cross-checks used by several test modules.

Everything here is deliberately written against plain coefficient rows so it
shares no code path with the package under test.  The exceptions are the
two symmetry sections at the end: the dense SL(2, R) scan reuses the
solver's defect and Gauss-Newton step on purpose, and stays independent of
it in how it searches; the case-D transport candidates reuse the solver's
scale fix and polish, and are closed into a group here to check the group
the solver builds from its own candidates.  The matrix square roots here
come from numpy's eigh, which the package itself does not use: numpy is a
test-only dependency.
"""

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from binform.errors import NotPositiveDefiniteError
from binform.mat2 import Mat2
from binform.polyring import HomogeneousForm, compose_coeffs
from binform.realfactor import FactorizationStructure, factor_form
from binform.symgroup import (
    _DEDUPE_TOL,
    _defect,
    _fix_scale,
    _gauss_newton,
    _polish,
    _unit_target,
)
from binform.verdict import classify_case

F = Fraction


def sylvester_det(a, b):
    """Resultant of two coefficient rows (highest power of x first), taken
    as the projective resultant: leading zeros stand for roots at infinity."""
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    rows = []
    for i in range(n):
        rows.append([F(0)] * i + list(a) + [F(0)] * (n - 1 - i))
    for i in range(m):
        rows.append([F(0)] * i + list(b) + [F(0)] * (m - 1 - i))
    # fraction-free-ish Gaussian elimination, exact over Fraction
    det = F(1)
    mat = [row[:] for row in rows]
    for col in range(size):
        pivot = next((r for r in range(col, size) if mat[r][col] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, size):
            if mat[r][col] != 0:
                factor = mat[r][col] * inv
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[col])]
    return det


def forms_coprime_oracle(p, q):
    """Independent coprimality check via the projective resultant.

    None stands for an identically zero component, coprime only to
    constants."""
    if p is None:
        return q is not None and q.degree == 0
    if q is None:
        return p.degree == 0
    if p.degree == 0 or q.degree == 0:
        return True
    return sylvester_det(p.coefficients(), q.coefficients()) != 0


def old_normal_form(coeffs):
    """(degree, sign, scale, prim): the normalized triple binary forms were
    once stored as, with the degree.  prim is the coprime integer vector of
    the coefficients whose first nonzero entry is positive, scale a positive
    rational and sign +-1, so coeffs == sign * scale * prim.  An all-zero
    row (a zero marker) is (degree, 1, 0, zeros)."""
    coeffs = [F(c) for c in coeffs]
    degree = len(coeffs) - 1
    if not any(coeffs):
        return degree, 1, F(0), (0,) * len(coeffs)
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    g = math.gcd(*ints)
    sign = 1 if next(n for n in ints if n) > 0 else -1
    return degree, sign, F(g, den), tuple(n // (sign * g) for n in ints)


def count_calls(monkeypatch, original):
    """Replace every binding of ``original`` in the package's modules with a
    wrapper that records (args, kwargs) of each call."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] == "binform":
            for key, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, key, wrapper)
    return calls


def count_fractions(monkeypatch):
    """Record the arguments of every Fraction built from now on."""
    made = []
    original = Fraction.__new__

    def new(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", new)
    return made


# ---------------------------------------------------------------------------
# canonical printing over Fractions, the reference for exprparse's printer
# from the ints

def _coeff_text(c):
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _monomial_text(i, j, c):
    parts = []
    if abs(c) != 1 or (i, j) == (0, 0):
        parts.append(_coeff_text(abs(c)))
    for sym, e in (("x", i), ("y", j)):
        if e == 1:
            parts.append(sym)
        elif e >= 2:
            parts.append(f"{sym}^{e}")
    return "*".join(parts)


def canonical_text_reference(p):
    """Monomials by descending x-exponent then descending y-exponent, each
    coefficient a Fraction, explicit *, ^ only from exponent 2 up."""
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


# ---------------------------------------------------------------------------
# real-root isolation over Fraction: Sturm chains and bisection on rational
# coefficient rows (lowest degree first), the reference for the integer core


def _row_eval(row, t):
    acc = F(0)
    for c in reversed(row):
        acc = acc * t + c
    return acc


def _row_trim(row):
    row = list(row)
    while row and row[-1] == 0:
        row.pop()
    return row


def _row_rem(a, b):
    r = [F(c) for c in a]
    while True:
        r = _row_trim(r)
        if len(r) < len(b):
            return r
        shift = len(r) - len(b)
        q = r[-1] / b[-1]
        for i, bc in enumerate(b):
            r[shift + i] -= q * bc


def sturm_isolate(row):
    """(lo, hi) isolating intervals of the real roots of a squarefree row,
    sorted increasing, by Sturm counts and bisection over Fraction from the
    Cauchy bound."""
    row = [F(c) for c in _row_trim(row)]
    chain = [row, [i * c for i, c in enumerate(row)][1:]]
    while len(chain[-1]) > 1:
        r = _row_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])

    def variations(t):
        signs = [v > 0 for v in (_row_eval(c, t) for c in chain) if v != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def split_point(a, b):
        span = b - a
        m, j = a + span / 2, 2
        while _row_eval(row, m) == 0:
            m = a + span * F(2 ** (j - 1) + 1, 2**j)
            j += 1
        return m

    bound = 1 + max(abs(c) for c in row[:-1]) / abs(row[-1])
    out, todo = [], [(-bound, bound, variations(-bound) - variations(bound))]
    while todo:         # a stack, not recursion: close roots make deep trees
        a, b, count = todo.pop()
        if count == 1:
            out.append((a, b))
        elif count > 1:
            m = split_point(a, b)
            left = variations(a) - variations(m)
            todo += [(a, m, left), (m, b, count - left)]
    return sorted(out, key=lambda iv: iv[0] + iv[1])


def bisect_refine(row, lo, hi, eps):
    """Bisect (lo, hi) until narrower than eps; returns (lo, hi, hit) with
    hit true when a midpoint was an exact root, in which case the interval is
    shrunk symmetrically around it by powers of 8."""
    target = F(eps)
    if hi - lo < target:
        return lo, hi, False
    s_lo = _row_eval(row, lo) > 0
    while hi - lo >= target:
        mid = (lo + hi) / 2
        v = _row_eval(row, mid)
        if v == 0:
            w = (hi - lo) / 8
            while 2 * w >= target:
                w /= 8
            return mid - w, mid + w, True
        if (v > 0) == s_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi, False


def pair_from_disc(disc, k, eps):
    """The enclosure of x^2 + b x y + c y^2 for the root in the disc (a, b,
    r) of rung k, in Fractions as paircert first computed it: (b_lo, b_hi,
    c_lo, c_hi), or the message of the NotRefined verdict."""
    a, b, r = disc
    if not r < b:
        return "disc touches the real axis"
    re_lo, re_hi = a - r, a + r
    re2 = (re_lo * re_lo, re_hi * re_hi)
    m_lo = (0 if re_lo <= 0 <= re_hi else min(re2)) + (b - r) ** 2
    m_hi = max(re2) + (b + r) ** 2
    q = 1 << k
    bs = [F(-2 * q * x, m) for x in (re_lo, re_hi) for m in (m_lo, m_hi)]
    b_lo, b_hi = min(bs), max(bs)
    c_lo, c_hi = F(q * q, m_hi), F(q * q, m_lo)
    if max(b_hi - b_lo, c_hi - c_lo) > F(eps):
        return "enclosure wider than eps"
    if c_lo <= 0:
        return "cannot certify positivity of c"
    if max(b_lo**2, b_hi**2) >= 4 * c_lo:
        return "cannot certify b^2 - 4c < 0 at this width"
    return b_lo, b_hi, c_lo, c_hi


# ---------------------------------------------------------------------------
# float evaluation and the Dormand-Prince loop in their generic form: one
# Fraction -> float conversion per term per call, and stage sums that loop
# over the tableau rows.  The reference for the cached coefficients and the
# unrolled stages, which must agree with these bit for bit.

def plain_sum(terms):
    """Left-to-right float sum from the integer 0: what ``sum()`` computes on
    Python 3.11 (3.12 compensates float sums, so it is not used here)."""
    acc = 0
    for t in terms:
        acc = acc + t
    return acc


def bivariate_eval_float(terms, x, y):
    """A BivariatePoly's {(i, j): Fraction} terms at the float point (x, y).
    Every coefficient is converted before the first power is taken, as in
    the package, so a coefficient beyond the float range is the error."""
    if not terms:
        return 0.0
    cs = [(i, j, float(c)) for (i, j), c in terms.items()]
    return math.fsum(c * x**i * y**j for i, j, c in cs)


def form_eval_float(coeffs, x, y):
    """The form with coefficients (c_0, ..., c_p) of x^(p-i) y^i at (x, y),
    every coefficient converted first, as in :func:`bivariate_eval_float`."""
    p, cs = len(coeffs) - 1, [float(c) for c in coeffs]
    return math.fsum(c * x ** (p - i) * y**i for i, c in enumerate(cs))


def generic_flow(fld, z0, T, cfg):
    """integrate_flow with the stage sums looped over the tableau rows and
    each field value from :func:`bivariate_eval_float`; returns
    (times, points, status).  Like integrate_flow, a stage whose field value
    overflows or sums inf and -inf halves the step."""
    from binform.dynamics import _DP_A, _DP_B4, _DP_B5, _STALL_SPEED

    def at(x, y):
        return (bivariate_eval_float(fld.P.terms, x, y),
                bivariate_eval_float(fld.Q.terms, x, y))

    def done(status):
        return tuple(times), tuple(pts), status

    times = [0.0]
    pts = [(float(z0[0]), float(z0[1]))]
    if T == 0.0:
        return done("ok")
    direction = 1.0 if T > 0 else -1.0
    t, (x, y) = 0.0, pts[0]
    fx, fy = at(x, y)
    h = direction * min(cfg.max_step, abs(T))
    steps = 0
    while direction * (T - t) > 0:
        if steps >= cfg.max_steps:
            return done("step_limit")
        steps += 1
        if math.hypot(fx, fy) < _STALL_SPEED:
            return done("stalled")
        clipped = direction * (t + h) >= direction * T
        if clipped:
            h = T - t
        kx = [fx]
        ky = [fy]
        bad = False
        for i in range(1, 7):
            ax = x + h * plain_sum(aij * kxj for aij, kxj in zip(_DP_A[i], kx))
            ay = y + h * plain_sum(aij * kyj for aij, kyj in zip(_DP_A[i], ky))
            if not (math.isfinite(ax) and math.isfinite(ay)):
                bad = True
                break
            try:
                vx, vy = at(ax, ay)
            except (OverflowError, ValueError):
                bad = True
                break
            kx.append(vx)
            ky.append(vy)
        if bad:
            h *= 0.5
            continue
        x5 = x + h * plain_sum(b * k for b, k in zip(_DP_B5, kx))
        y5 = y + h * plain_sum(b * k for b, k in zip(_DP_B5, ky))
        ex = h * plain_sum((b5 - b4) * k for b5, b4, k in zip(_DP_B5, _DP_B4, kx))
        ey = h * plain_sum((b5 - b4) * k for b5, b4, k in zip(_DP_B5, _DP_B4, ky))
        if not (math.isfinite(x5) and math.isfinite(y5)):
            h *= 0.5
            continue
        sx = cfg.abs_tol + cfg.rel_tol * max(abs(x), abs(x5))
        sy = cfg.abs_tol + cfg.rel_tol * max(abs(y), abs(y5))
        err = max(abs(ex) / sx, abs(ey) / sy)
        if err <= 1.0:
            t = T if clipped else t + h
            x, y = x5, y5
            fx, fy = kx[6], ky[6]
            times.append(t)
            pts.append((x, y))
            if cfg.box is not None:
                x0, y0, x1, y1 = cfg.box
                if not (x0 <= x <= x1 and y0 <= y <= y1):
                    return done("blowup")
        factor = 0.9 * (err ** -0.2) if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
        if abs(h) > cfg.max_step:
            h = direction * cfg.max_step
        if t != T and abs(h) < 1e-15 * max(1.0, abs(t)):
            return done("step_limit")
    return done("ok")


# ---------------------------------------------------------------------------
# symmetries: the dense scan over SL(2, R) and the factor permutations.
# Unlike the rest of this file the scan shares the solver's _defect and
# _gauss_newton on purpose, so that a disagreement points at the search for
# starting points: a grid over the whole group here, candidates built from
# the factor geometry in binform.symgroup.  The permutations read only the
# factorization.

@dataclass(frozen=True)
class PermCandidate:
    """A permutation of the linear factors (sigma) and of the quadratic
    factors (tau), both 0-indexed images, preserving multiplicities."""

    sigma: tuple[int, ...]
    tau: tuple[int, ...]

    def validate(self, fs: FactorizationStructure) -> None:
        if sorted(self.sigma) != list(range(fs.l)) or sorted(self.tau) != list(range(fs.k)):
            raise ValueError("not a permutation")
        for i, j in enumerate(self.sigma):
            if fs.linear[i].alpha != fs.linear[j].alpha:
                raise ValueError("linear multiplicity not preserved")
        for i, j in enumerate(self.tau):
            if fs.quadratic[i].beta != fs.quadratic[j].beta:
                raise ValueError("quadratic multiplicity not preserved")


def induced_permutation(h: Mat2, fs: FactorizationStructure,
                        tol: float = 1e-6) -> PermCandidate:
    """Which factor goes where under h; raises ValueError if the matching
    is not a clean multiplicity-preserving bijection at this tolerance."""
    hf = h.to_float()
    dirs = []
    for lf in fs.linear:
        dx, dy = lf.line_direction()
        n = math.hypot(dx, dy)
        dirs.append((dx / n, dy / n))
    sigma = []
    for dx, dy in dirs:
        ix, iy = hf.apply(dx, dy)
        n = math.hypot(ix, iy)
        match = [j for j, (ex, ey) in enumerate(dirs)
                 if abs(ix * ey - iy * ex) / n < tol]
        if len(match) != 1:
            raise ValueError("line image matches none or several factors")
        sigma.append(match[0])
    H = np.array([[float(hf.a), float(hf.b)], [float(hf.c), float(hf.d)]])
    mats = [np.array(qf.gram_matrix()) for qf in fs.quadratic]
    tau = []
    for M in mats:
        S = H.T @ M @ H
        match = []
        for j, T in enumerate(mats):
            lam = np.trace(S @ np.linalg.inv(T)) / 2
            if lam > 0 and np.max(np.abs(S - lam * T)) / np.max(np.abs(S)) < tol:
                match.append(j)
        if len(match) != 1:
            raise ValueError("quadratic image matches none or several factors")
        tau.append(match[0])
    cand = PermCandidate(tuple(sigma), tuple(tau))
    cand.validate(fs)
    return cand


def _rot(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


_QUARTER = np.array([[0.0, -1.0], [1.0, 0.0]])     # dR/dtheta = R _QUARTER


def scan_matrix(params) -> np.ndarray:
    """h = R(phi) diag(e^s, e^-s) R(psi) for params (phi, s, psi)."""
    phi, s, psi = params
    return _rot(phi) @ np.diag([math.exp(s), math.exp(-s)]) @ _rot(psi)


def scan_defect(target, params):
    """The solver's defect at scan_matrix(params), its Jacobian taken from
    the four matrix entries to (phi, s, psi) by the chain rule."""
    phi, s, psi = params
    Rphi, Rpsi = _rot(phi), _rot(psi)
    Dg = np.diag([math.exp(s), math.exp(-s)])
    dH = np.array([Rphi @ _QUARTER @ Dg @ Rpsi,
                   Rphi @ (Dg * [[1.0], [-1.0]]) @ Rpsi,
                   Rphi @ Dg @ _QUARTER @ Rpsi])
    e, cols = _defect(target, (Rphi @ Dg @ Rpsi).ravel().tolist())
    return e, (dH.reshape(3, 4) @ np.array(cols)).tolist()


def _scan_span(fs: FactorizationStructure) -> float:
    """Half-width of the log-singular-value axis, from how badly conditioned
    the factor geometry is; finite symmetries live inside this box."""
    s = 1.5
    for qf in fs.quadratic:
        w = np.linalg.eigvalsh(np.array(qf.gram_matrix()))
        s = max(s, 0.5 * math.log(w[1] / w[0]) + 1.0)
    angles = sorted(a for lf in fs.linear for a in lf.ray_angles())
    if len(angles) >= 2:
        gaps = [b - a for a, b in zip(angles, angles[1:])]
        gaps.append(2 * math.pi - angles[-1] + angles[0])
        gap = min(g for g in gaps if g > 1e-9)
        s = max(s, math.log(1.0 / math.sin(min(gap, math.pi / 2))) + 1.5)
    return min(s, 6.0)


def oracle_scan(f: HomogeneousForm, resolution: int = 64,
                tol: float = 1e-9) -> list[Mat2]:
    """Brute-force search for all symmetries in SL(2, R).

    Grids h = R(phi) diag(e^s, e^-s) R(psi), refines every grid-local
    minimum of the invariance residual by Gauss-Newton, keeps the verified
    ones.  It shares the composition kernel and the Gauss-Newton step with
    the structured solver but not the search: a dense grid over the whole
    group here, candidates built from the factor geometry there.
    """
    if resolution < 64:
        raise ValueError("resolution must be at least 64")
    fs = factor_form(f, eps=1e-12)
    if classify_case(fs) not in ("D", "E"):
        raise ValueError("the scan only makes sense for the finite cases")
    span = _scan_span(fs)
    target = _unit_target(f)
    fn = target[0]

    phis = np.linspace(0.0, 2 * math.pi, resolution, endpoint=False)
    psis = np.linspace(0.0, 2 * math.pi, resolution, endpoint=False)
    ns = max(9, resolution // 4) | 1
    svals = np.linspace(-span, span, ns)

    PH, SS, PS = np.meshgrid(phis, svals, psis, indexing="ij")
    ph, ss, ps = PH.ravel(), SS.ravel(), PS.ravel()
    cph, sph, cps, sps = np.cos(ph), np.sin(ph), np.cos(ps), np.sin(ps)
    es, esi = np.exp(ss), np.exp(-ss)
    A = cph * es * cps - sph * esi * sps
    B = -cph * es * sps - sph * esi * cps
    C = sph * es * cps + cph * esi * sps
    D = -sph * es * sps + cph * esi * cps
    comp = np.array(compose_coeffs(fn, A, B, C, D)).T
    mc = np.max(np.abs(comp), axis=1)
    mc[mc == 0.0] = np.inf
    resid = np.max(np.abs(comp / mc[:, None] - np.array(fn)[None, :]), axis=1)
    R = resid.reshape(PH.shape)

    neighbors = []
    for axis, periodic in ((0, True), (1, False), (2, True)):
        for shift in (1, -1):
            rolled = np.roll(R, shift, axis=axis)
            if not periodic:
                sl = [slice(None)] * 3
                sl[axis] = 0 if shift == 1 else -1
                rolled[tuple(sl)] = np.inf
            neighbors.append(rolled)
    is_min = np.ones_like(R, dtype=bool)
    for nb in neighbors:
        is_min &= R <= nb
    cand_idx = np.argwhere(is_min)
    scores = R[is_min]
    order = np.argsort(scores, kind="stable")
    cand_idx = cand_idx[order]

    # The angle split is redundant where s = 0 (only phi + psi matters), so
    # many grid minima carry the same matrix; drop those before refining.
    starts: list[tuple[np.ndarray, np.ndarray]] = []
    for (i, j, kk) in cand_idx:
        x = np.array([phis[i], svals[j], psis[kk]])
        m = scan_matrix(x)
        if any(np.max(np.abs(m - pm)) < 1e-9 for _, pm in starts):
            continue
        starts.append((x, m))
        if len(starts) >= 600:
            break

    out: list[Mat2] = []
    for x, m0 in starts:
        if any(Mat2.approx(*m0.ravel()).dist(e) < 1e-7 for e in out):
            continue
        sol = _gauss_newton(lambda v: scan_defect(target, v), x, 30)
        if sol is None or sol[1] >= tol:
            continue
        cand = Mat2.approx(*scan_matrix(sol[0]).ravel())
        if all(cand.dist(e) >= _DEDUPE_TOL for e in out):
            out.append(cand)
    out.sort(key=lambda e: (round(e.polar_angle(), 9),) + tuple(
        round(float(v), 9) for v in e.entries()))
    return out


# ---------------------------------------------------------------------------
# case D through quadratic transport: h = B^(-1/2) R(theta) A^(1/2) carries
# the Gram matrix B of the first quadratic to A of a target one, and theta
# makes the second quadratic proportional to its target.  The finite-group
# solver built its candidates this way before it took the Moebius map
# through three factor roots; the group closed from them is the reference.

def _spd_roots(M) -> tuple[np.ndarray, np.ndarray]:
    """(M^(1/2), M^(-1/2)) of a symmetric positive definite 2x2 matrix, from
    its eigen-decomposition; binform.symgroup takes the case-C normalizer
    from the closed form instead."""
    M = np.asarray(M, dtype=float)
    if M.shape != (2, 2) or abs(M[0, 1] - M[1, 0]) > 1e-12 * (1 + abs(M[0, 1])):
        raise NotPositiveDefiniteError("matrix is not symmetric")
    w, V = np.linalg.eigh(M)
    if w[0] <= 0:
        raise NotPositiveDefiniteError("matrix is not positive definite")
    s = np.sqrt(w)
    return (V * s) @ V.T, (V / s) @ V.T


def transport_member(A, B, theta: float, lam: float = 1.0) -> Mat2:
    """sqrt(lam) * B^(-1/2) R(theta) A^(1/2): the orientation-preserving h
    with h^T B h = lam * A."""
    if lam <= 0:
        raise ValueError("scale must be positive")
    sqrt_A, _ = _spd_roots(np.asarray(A, dtype=float))
    _, inv_sqrt_B = _spd_roots(np.asarray(B, dtype=float))
    m = math.sqrt(lam) * (inv_sqrt_B @ _rot(theta) @ sqrt_A)
    return Mat2.approx(m[0, 0], m[0, 1], m[1, 0], m[1, 1])


def transport_candidates(fs, fn) -> list:
    """The case-D candidates, built with transport_member at lam = 1 and the
    scale fixed from the entries of the resulting Mat2.

    With N = B^(-1/2) M_2 B^(-1/2) and P = A^(-1/2) M_t2 A^(-1/2), both
    symmetric, R^T N R is proportional to P for R = U D V^T from their
    eigenvectors, D = +-1 on the diagonal and det R = 1.
    """
    mats = [np.array(qf.gram_matrix()) for qf in fs.quadratic]
    betas = [qf.beta for qf in fs.quadratic]
    inv_sqrt = [_spd_roots(M)[1] for M in mats]
    _, U = np.linalg.eigh(inv_sqrt[0] @ mats[1] @ inv_sqrt[0])
    out = []
    for t1, M_t1 in enumerate(mats):
        if betas[t1] != betas[0]:
            continue
        for t2 in range(len(mats)):
            if t2 == t1 or betas[t2] != betas[1]:
                continue
            _, V = np.linalg.eigh(inv_sqrt[t1] @ mats[t2] @ inv_sqrt[t1])
            R = U @ np.diag([1.0, np.linalg.det(U) * np.linalg.det(V)]) @ V.T
            h1 = transport_member(M_t1, mats[0], math.atan2(R[1, 0], R[0, 0]))
            scaled = _fix_scale(fn, *(float(v) for v in h1.entries()))
            if scaled is not None:
                out.append(scaled)
    return out


def transport_group(f: HomogeneousForm, fs: FactorizationStructure,
                    tol: float = 1e-9) -> list[Mat2]:
    """+-id and the transport candidates, polished, kept below tol and
    closed under products: the case-D group as a list of matrices."""
    target = _unit_target(f)
    elems: list[Mat2] = []
    todo = [(1.0, 0.0, 0.0, 1.0), (-1.0, 0.0, 0.0, -1.0),
            *transport_candidates(fs, target[0])]
    while todo:
        sol = _polish(target, todo.pop(0))
        if sol is None or sol[1] >= tol:
            continue
        m = Mat2.approx(*sol[0])
        if m.det() > 0 and all(m.dist(e) >= _DEDUPE_TOL for e in elems):
            elems.append(m)
            todo += [(m @ e).entries() for e in elems]
            todo += [(e @ m).entries() for e in elems]
            assert len(elems) <= 64, "tol admits noise"
    return elems
