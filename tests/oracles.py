"""Independent cross-checks used by several test modules.

Everything here is deliberately written against plain coefficient rows so it
shares no code path with the package under test.
"""

import math
import sys
from fractions import Fraction

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

    out = []

    def split(a, b, count):
        if count == 1:
            out.append((a, b))
        elif count > 1:
            m = split_point(a, b)
            left = variations(a) - variations(m)
            split(a, m, left)
            split(m, b, count - left)

    bound = 1 + max(abs(c) for c in row[:-1]) / abs(row[-1])
    split(-bound, bound, variations(-bound) - variations(bound))
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
    """A BivariatePoly's {(i, j): Fraction} terms at the float point (x, y)."""
    if not terms:
        return 0.0
    return math.fsum(float(c) * x**i * y**j for (i, j), c in terms.items())


def form_eval_float(coeffs, x, y):
    """The form with coefficients (c_0, ..., c_p) of x^(p-i) y^i at (x, y)."""
    p = len(coeffs) - 1
    return math.fsum(float(c) * x ** (p - i) * y**i for i, c in enumerate(coeffs))


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
