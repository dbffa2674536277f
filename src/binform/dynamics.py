"""Flows, shift maps, contractions, and portrait data for planar fields.

Everything numeric lives here: a closed-form 2x2 matrix exponential, an
adaptive Dormand-Prince integrator, the closed orbits of a form without
real line factors read off its level curves by one quadrature, the shift
map z -> flow(z, sigma(z)), the exact local-diffeomorphism test for
shifts, weighted contractions, and level curves as radial graphs.  The
exactness boundary is deliberate: the regularity test is exact, in ints
over one denominator, all trajectories are floats.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .errors import BlowUpError, StepLimitError
from .hamfield import PlanarPolyField, common_divisor, reduced_field
from .mat2 import Mat2
from .polyring import BivariatePoly, HomogeneousForm, WeightVector
from .realfactor import FactorizationStructure, factor_form

Point = tuple[float, float]
Rect = tuple[float, float, float, float]        # x0, y0, x1, y1

_TAU = 2 * math.pi


# ---------------------------------------------------------------------------
# linear pieces

def mat_exp(A: Mat2, t: float) -> Mat2:
    """e^(A t) by the trace-split closed form.

    With A = mu*I + B, tr B = 0, one has B^2 = delta*I where
    delta = mu^2 - det A, and the exponential is e^(mu t) (c I + s B) with
    (c, s) trig, hyperbolic, or polynomial in the three discriminant cases.
    A band around delta = 0 uses the series to dodge 0/0 cancellation.
    """
    a, b, c, d = (float(v) for v in A.entries())
    mu = (a + d) / 2.0
    det = a * d - b * c
    delta = mu * mu - det
    x2 = delta * t * t
    if abs(x2) < 1e-8:
        # cosh/cos and sinh/sin agree through these orders
        ch = 1.0 + x2 / 2.0 + x2 * x2 / 24.0
        sh = t * (1.0 + x2 / 6.0 + x2 * x2 / 120.0)
    elif delta > 0:
        r = math.sqrt(delta)
        ch = math.cosh(r * t)
        sh = math.sinh(r * t) / r
    else:
        r = math.sqrt(-delta)
        ch = math.cos(r * t)
        sh = math.sin(r * t) / r
    em = math.exp(mu * t)
    return Mat2.approx(
        em * (ch + sh * (a - mu)), em * (sh * b),
        em * (sh * c), em * (ch + sh * (d - mu)),
    )


def shift_linear(A: Mat2, sigma: BivariatePoly, z: Point) -> Point:
    """Shift map of a linear field in closed form: e^(A sigma(z)) z."""
    s = sigma.eval_float(z[0], z[1])
    m = mat_exp(A, s)
    return tuple(float(v) for v in m.apply(z[0], z[1]))


# ---------------------------------------------------------------------------
# adaptive integration

class FlowConfig:
    """Tolerances and budget of :func:`integrate_flow`; ``box`` None
    leaves the flow unbounded."""

    __slots__ = ("rel_tol", "abs_tol", "max_step", "max_steps", "box")

    def __init__(self, rel_tol: float = 1e-9, abs_tol: float = 1e-9, max_step: float = 1e-2,
                 max_steps: int = 1_000_000, box: Optional[Rect] = None):
        if min(rel_tol, abs_tol, max_step) <= 0 or max_steps <= 0:
            raise ValueError("tolerances, step size, and step budget must be positive")
        self.rel_tol, self.abs_tol, self.max_step = rel_tol, abs_tol, max_step
        self.max_steps, self.box = max_steps, box


class Trajectory:
    """The points of a flow at its times; ``status`` is "ok", "blowup",
    "step_limit" or "stalled"."""

    __slots__ = ("times", "points", "status")

    def __init__(self, times: tuple[float, ...], points: tuple[Point, ...], status: str):
        self.times, self.points, self.status = times, points, status

    def endpoint(self) -> Point:
        return self.points[-1]


# Dormand-Prince 5(4) tableau; the fields are autonomous, so it needs no nodes
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
          -92097 / 339200, 187 / 2100, 1 / 40)

_STALL_SPEED = 1e-12


def _outside(z: Point, box: Rect) -> bool:
    x0, y0, x1, y1 = box
    return not (x0 <= z[0] <= x1 and y0 <= z[1] <= y1)


def integrate_flow(fld: PlanarPolyField, z0: Point, T: float,
                   cfg: FlowConfig = FlowConfig()) -> Trajectory:
    """Integrate z' = field(z) from z0 over [0, T] (T may be negative).

    Returns the trajectory with a status flag instead of raising: polynomial
    fields blow up in finite time routinely and callers decide whether that
    is exceptional.  A stage that is not finite, or whose field value
    overflows (``OverflowError``) or sums inf and -inf (``ValueError`` from
    ``fsum``), halves the step.  Stationary starts stall out rather than
    burning the step budget.

    The stage sums are plain left-to-right sums in tableau order, zero
    coefficients included: bit for bit what ``sum()`` gave on Python 3.11,
    whose start 0 changes nothing here (each sum opens with a positive
    tableau entry times an ``fsum`` value, never -0.0).  Python 3.12 made
    float ``sum()`` compensated, so flows of a ``sum()`` loop depend on the
    interpreter; these do not.
    """
    ((a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65), (a71, a72, a73, a74, a75, a76)) = _DP_A[1:]
    b1, b2, b3, b4, b5, b6, b7 = _DP_B5
    e1, e2, e3, e4, e5, e6, e7 = (p - q for p, q in zip(_DP_B5, _DP_B4))

    at, inf = fld.at, math.inf

    def stage(ax, ay):
        # -inf < v < inf is math.isfinite(v) without a call (nan fails it)
        if not (-inf < ax < inf and -inf < ay < inf):
            raise OverflowError          # handled like an overflowing field value
        return at(ax, ay)

    times = [0.0]
    pts = [(float(z0[0]), float(z0[1]))]
    if T == 0.0:
        return Trajectory(tuple(times), tuple(pts), "ok")
    direction = 1.0 if T > 0 else -1.0
    t, (x, y) = 0.0, pts[0]
    fx, fy = at(x, y)
    h = direction * min(cfg.max_step, abs(T))
    steps = 0
    while direction * (T - t) > 0:
        if steps >= cfg.max_steps:
            return Trajectory(tuple(times), tuple(pts), "step_limit")
        steps += 1
        if math.hypot(fx, fy) < _STALL_SPEED:
            return Trajectory(tuple(times), tuple(pts), "stalled")
        clipped = direction * (t + h) >= direction * T
        if clipped:
            h = T - t
        try:
            k2x, k2y = stage(x + h * (a21 * fx), y + h * (a21 * fy))
            k3x, k3y = stage(x + h * (a31 * fx + a32 * k2x),
                             y + h * (a31 * fy + a32 * k2y))
            k4x, k4y = stage(x + h * (a41 * fx + a42 * k2x + a43 * k3x),
                             y + h * (a41 * fy + a42 * k2y + a43 * k3y))
            k5x, k5y = stage(x + h * (a51 * fx + a52 * k2x + a53 * k3x + a54 * k4x),
                             y + h * (a51 * fy + a52 * k2y + a53 * k3y + a54 * k4y))
            k6x, k6y = stage(
                x + h * (a61 * fx + a62 * k2x + a63 * k3x + a64 * k4x + a65 * k5x),
                y + h * (a61 * fy + a62 * k2y + a63 * k3y + a64 * k4y + a65 * k5y))
            k7x, k7y = stage(
                x + h * (a71 * fx + a72 * k2x + a73 * k3x + a74 * k4x + a75 * k5x
                         + a76 * k6x),
                y + h * (a71 * fy + a72 * k2y + a73 * k3y + a74 * k4y + a75 * k5y
                         + a76 * k6y))
        except (OverflowError, ValueError):
            h *= 0.5
            continue
        x5 = x + h * (b1 * fx + b2 * k2x + b3 * k3x + b4 * k4x + b5 * k5x + b6 * k6x
                      + b7 * k7x)
        y5 = y + h * (b1 * fy + b2 * k2y + b3 * k3y + b4 * k4y + b5 * k5y + b6 * k6y
                      + b7 * k7y)
        ex = h * (e1 * fx + e2 * k2x + e3 * k3x + e4 * k4x + e5 * k5x + e6 * k6x
                  + e7 * k7x)
        ey = h * (e1 * fy + e2 * k2y + e3 * k3y + e4 * k4y + e5 * k5y + e6 * k6y
                  + e7 * k7y)
        if not (math.isfinite(x5) and math.isfinite(y5)):
            h *= 0.5
            continue
        sx = cfg.abs_tol + cfg.rel_tol * max(abs(x), abs(x5))
        sy = cfg.abs_tol + cfg.rel_tol * max(abs(y), abs(y5))
        err = max(abs(ex) / sx, abs(ey) / sy)
        if err <= 1.0:
            # t + h can land one rounding short of T; a clipped step ends the run
            t = T if clipped else t + h
            x, y = x5, y5
            fx, fy = k7x, k7y            # FSAL: stage 7 is the next stage 1
            times.append(t)
            pts.append((x, y))
            if cfg.box is not None and _outside((x, y), cfg.box):
                return Trajectory(tuple(times), tuple(pts), "blowup")
        factor = 0.9 * (err ** -0.2) if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
        if abs(h) > cfg.max_step:
            h = direction * cfg.max_step
        if t != T and abs(h) < 1e-15 * max(1.0, abs(t)):
            return Trajectory(tuple(times), tuple(pts), "step_limit")
    return Trajectory(tuple(times), tuple(pts), "ok")


def shift_map_apply(fld: PlanarPolyField, sigma: BivariatePoly, z: Point,
                    cfg: FlowConfig = FlowConfig(),
                    closed: Optional[ClosedOrbits] = None) -> tuple[Point, Optional[float]]:
    """The shift map z -> flow(z, sigma(z)) and an estimate of its time
    error.  ``closed`` is :func:`closed_orbits` of the form whose reduced
    field ``fld`` is: with it the point is read off z's level curve, and
    without it the flow is integrated (the error is then None).  Raises
    when the flow cannot be carried to the requested time."""
    T = sigma.eval_float(z[0], z[1])
    if closed is not None:
        return closed.shift(z, T, cfg.box)
    traj = integrate_flow(fld, z, T, cfg)
    if traj.status == "blowup":
        raise BlowUpError(f"orbit left the box before time {T}")
    if traj.status == "step_limit":
        raise StepLimitError(f"step budget exhausted before time {T}")
    # "stalled" is benign: a stationary point is fixed by every shift
    return traj.endpoint(), None


def shift_regularity(fld: PlanarPolyField, sigma: BivariatePoly,
                     samples: Sequence[tuple]) -> list[str]:
    """Exact local-diffeomorphism test of the shift map at sample points.

    The decisive quantity is the derivative of sigma along the field,
    L = sigma_x P + sigma_y Q, compared with -1: strictly above is regular,
    equality is degenerate, below folds orientation.  Everything is rational
    so the trichotomy is exact.
    """
    lie = sigma.partial_x() * fld.P + sigma.partial_y() * fld.Q
    gaps = (lie.eval_exact(z[0], z[1]) + 1 for z in samples)
    return ["regular" if g > 0 else "degenerate" if g == 0 else "folding" for g in gaps]


def invariant_contraction(w: WeightVector, z: Point, t: float) -> Point:
    """Weighted contraction (t^s1 z1, t^s2 z2) for t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("contraction parameter must lie in [0, 1]")
    return (t ** w.s1 * z[0], t ** w.s2 * z[1])


# ---------------------------------------------------------------------------
# level curves

def level_set(f: HomogeneousForm, c: float, window: Rect, res: int = 128,
              fs: Optional[FactorizationStructure] = None) -> list[list[Point]]:
    """Polylines of {f = c} in the window: f(r u) = r^p f(u), so for c != 0
    it is the radial graph r = (c / f(u))^(1/p), u = (cos t, sin t), on the
    sectors between f's zero rays where c f(u) > 0 (the full turn, closed,
    when f has no lines).  About res angles per turn are sampled and each
    exit from the window is bisected, so every point is on the curve.  c = 0
    gives the zero lines.  ``fs`` is the factorization of f if known."""
    if res < 16:
        raise ValueError("resolution below 16 is useless")
    lines = (fs or factor_form(f)).lines     # no pair certificate
    if c == 0:
        return [seg for lf in lines for seg in _clip_line(lf.line_direction(), window)]
    point, edge = _radial(f, c, window)
    rays = sorted(a for lf in lines for a in lf.ray_angles())
    cuts = rays + [rays[0] + _TAU] if rays else [0.0, _TAU]
    ts: list[float] = []
    for a, b in zip(cuts, cuts[1:]):
        n = max(3, round(res * (b - a) / _TAU))
        ts += [a + (b - a) * j / n for j in range(n)]
    zs = [None if t in rays else point(t) for t in ts]      # r is infinite on a ray
    if all(zs):
        return [zs + zs[:1]]
    k = zs.index(None)                  # sweep from an outside angle round to it
    ts, zs = ts[k:] + [t + _TAU for t in ts[:k + 1]], zs[k:] + zs[:k + 1]
    curves, run = [], []
    for s, t, z in zip(ts, ts[1:], zs[1:]):
        if z:
            run += [z] if run else [edge(s, t, z)[1], z]
        elif run:
            curves.append(run + [edge(t, s, run[-1])[1]])
            run = []
    return curves


def _clip_line(d: Point, window: Rect) -> list[list[Point]]:
    """The segment of the line through 0 along d inside the window, if any."""
    x0, y0, x1, y1 = window
    lo, hi = -math.inf, math.inf
    for dk, k0, k1 in ((d[0], x0, x1), (d[1], y0, y1)):
        if dk:
            lo, hi = max(lo, min(k0 / dk, k1 / dk)), min(hi, max(k0 / dk, k1 / dk))
        elif not k0 <= 0 <= k1:
            return []
    ends = [(min(max(s * d[0], x0), x1), min(max(s * d[1], y0), y1)) for s in (lo, hi)]
    return [ends] if lo < hi else []


def _radial(f: HomogeneousForm, c: float, rect: Optional[Rect]):
    """The radial graph of {f = c} in rect (None: the plane) as two
    functions: point(t) is the curve's point at the angle t,
    r = (c / f(u))^(1/p), or None where it is outside rect or c f(u) <= 0;
    edge(out, t, z) bisects from the angle t, whose point z is inside,
    towards the angle out and returns the last angle inside and its point."""
    x0, y0, x1, y1 = rect or (-math.inf, -math.inf, math.inf, math.inf)
    p, ev = f.degree, f.eval_float

    def point(t: float) -> Optional[Point]:
        u, v = math.cos(t), math.sin(t)
        w = ev(u, v)
        if not (c > 0 < w or c < 0 > w):     # c * w > 0, which may underflow
            return None                 # r is infinite
        r = (c / w) ** (1 / p)
        return (r * u, r * v) if x0 <= r * u <= x1 and y0 <= r * v <= y1 else None

    def edge(out: float, t: float, z: Point) -> tuple[float, Point]:
        while (m := (out + t) / 2) not in (out, t) and math.isfinite(m):
            if w := point(m):
                t, z = m, w
            else:
                out = m
        return t, z

    return point, edge


# ---------------------------------------------------------------------------
# closed orbits by one quadrature

_FIRST_NODES, _MAX_NODES = 64, 4096     # per turn; g has period pi, so half are evaluated
_OCTAVE_TOL = 1e-15     # g's last octave of Fourier coefficients, against the mean
_NOISE_TOL = 1e-12
_TRIM_TOL = 1e-17       # smaller coefficients are left out of G
_EPS = 2.0 ** -52


class ClosedOrbits:
    """Time along the closed level curves of a form f without real line
    factors, read off the angle.

    Along the reduced field X/D the angle turns at dθ/dt = p f / (r² D).
    On f = c, where r(θ) = (c/f(u))^(1/p), this integrates to
    t(θ) = sign(c) |c|^((1-m)/p) G(θ)/p with G(θ) = ∫₀^θ g,
    g = D |f|^(-(2+d)/p), d = deg D and m = p - 1 - d; D > 0 on the circle.
    f and D are products of definite quadratics, so g is smooth with period
    pi, the periodic trapezoid rule on ``nodes`` angles per turn gives its
    Fourier coefficients to rounding, and G is their mean times θ plus the
    antiderivative of the series.  ``tail`` is the size of the largest
    coefficient left out, and ``rmax`` bounds the radius of the curve
    f = c by rmax |c|^(1/p) (inf: no bound).  Built by :func:`closed_orbits`.
    """

    __slots__ = ("f", "g", "power", "nodes", "mean", "gamma", "offset", "tail", "rmax")

    def __init__(self, f: HomogeneousForm, g, power: float, nodes: int, mean: float,
                 gamma: list[complex], tail: float, rmax: float):
        self.f, self.g, self.power, self.nodes = f, g, power, nodes
        self.mean, self.gamma, self.tail, self.rmax = mean, gamma, tail, rmax
        self.offset = sum(gamma).real

    def G(self, t: float) -> float:
        """mean t + Re sum_k gamma_k (e^(2ikt) - 1), gamma_k = g_k / (ik) for
        g = mean + sum_k 2 Re g_k e^(2ikt)."""
        w, acc = complex(math.cos(2 * t), math.sin(2 * t)), 0j
        for gk in reversed(self.gamma):
            acc = (acc + gk) * w
        return self.mean * t + acc.real - self.offset

    def _level(self, z: Point) -> tuple[float, float, float, float]:
        """c = f(z), the sign of time in angle, the time scale, the angle of z."""
        c = self.f.eval_float(z[0], z[1])
        scale = abs(c) ** self.power / self.f.degree if c else 0.0
        return c, math.copysign(1.0, c), scale, math.atan2(z[1], z[0])

    def _angle(self, target: float) -> tuple[float, float, float]:
        """(t, turns, step): G(t + 2 pi turns) = target with t in [0, 2 pi),
        by Newton from the linear guess (bisecting where it leaves the
        bracket), and the G residual of the last step."""
        turns, rest = divmod(target, _TAU * self.mean)
        lo, hi, t = 0.0, _TAU, rest / self.mean
        for _ in range(64):
            r = self.G(t) - rest
            if r > 0:
                hi = t
            elif r < 0:
                lo = t
            else:
                return t, turns, 0.0
            gt = self.g(t)
            new = t - r / gt
            if not lo < new < hi:
                new = (lo + hi) / 2
            step, t = abs(new - t), new
            if step <= 1e-15:
                break
        return t, turns, step * gt

    def _t_err(self, scale: float, span: float, newton: float) -> float:
        """Time error estimate over a time span: the left-out coefficients
        (mean and series), the rounding of the turns taken off, and the
        last Newton step."""
        return span * (self.tail / self.mean + _EPS) + scale * (2 * self.tail + newton)

    def shift(self, z: Point, T: float, box: Optional[Rect]) -> tuple[Point, float]:
        """flow(z, T) and its time error estimate; BlowUpError when the arc
        leaves the box, StepLimitError when floats cannot resolve T.  The arc
        is sampled only when the disc of radius rmax |c|^(1/p) leaves the box."""
        z = (float(z[0]), float(z[1]))
        c, sign, scale, t0 = self._level(z)
        if T == 0 or c == 0:                # no time, or the fixed origin
            return z, 0.0
        target = self.G(t0) + sign * T / scale
        # with a period of error the point could be anywhere on the orbit
        if not (math.isfinite(target)
                and self._t_err(scale, abs(T), 0.0) < scale * _TAU * self.mean):
            raise StepLimitError(f"time {T} is more turns than floats resolve on this orbit")
        t, turns, newton = self._angle(target)
        point, edge = _radial(self.f, c, box)
        R = abs(c) ** (1 / self.f.degree) * self.rmax * (1 + 1e-9)
        if R < math.inf and (box is None or R <= min(-box[0], -box[1], box[2], box[3])):
            return point(t), self._t_err(scale, abs(T), newton)
        sweep = max(-_TAU, min(_TAU, _TAU * turns + t - t0))
        n = math.ceil(abs(sweep) * self.nodes / _TAU)
        angles = [t0] + [t0 + sweep * j / n for j in range(1, n)] + [t]
        pts = [z] + [point(a) for a in angles[1:]]
        if None in pts:
            j = pts.index(None)
            a, _ = edge(angles[j], angles[j - 1], pts[j - 1])
            raise BlowUpError(f"orbit left the box at time "
                              f"{sign * scale * (self.G(a) - self.G(t0)):.6g}, before time {T}")
        return pts[-1], self._t_err(scale, abs(T), newton)

    def orbit(self, z: Point, horizon: float, box: Optional[Rect], res: int,
              budget: int) -> tuple[tuple[float, ...], tuple[Point, ...], str, float]:
        """Times, points, status and time error estimate of z's orbit over
        [-horizon, horizon].  Each way, one turn from z at res angles serves
        every turn, shifted by the period, and the end at +-horizon is
        solved for.  A box exit is bisected and ends that way ("blowup"),
        and so does the budget of samples ("step_limit")."""
        z = (float(z[0]), float(z[1]))
        c, sign, scale, t0 = self._level(z)
        if c == 0 or (box is not None and _outside(z, box)):
            return (0.0,), (z,), "stalled" if c == 0 else "blowup", 0.0
        g0, period = self.G(t0), scale * _TAU * self.mean
        point, edge = _radial(self.f, c, box)
        legs, newton = [], 0.0
        for direction in (1, -1):
            ts, ws, a0, w0 = [], [], t0, z
            for j in range(1, res):
                a = t0 + direction * sign * _TAU * j / res
                if (w := point(a)) is None:
                    a, w = edge(a, a0, w0)
                    break
                ts.append(sign * scale * (self.G(a) - g0))
                ws.append(w)
                a0, w0 = a, w
            else:                           # a whole turn in the box: it repeats
                ts.append(direction * period)
                ws.append(z)
                turns = int(min(budget // res, horizon / period)) + 1
                ts = [t + direction * q * period for q in range(turns) for t in ts]
                ws *= turns
                a = None
            if a is not None:
                ts.append(sign * scale * (self.G(a) - g0))
                ws.append(w)
            end = next((i for i, t in enumerate(ts) if abs(t) >= horizon), len(ts))
            status = "ok" if end < len(ts) else "blowup"
            if end > budget:
                status, end = "step_limit", budget
            ts, ws = ts[:end], ws[:end]
            if status == "ok" and horizon > 0:
                a, _, step = self._angle(g0 + sign * direction * horizon / scale)
                if w := point(a):
                    ts, ws, newton = ts + [direction * horizon], ws + [w], max(newton, step)
                else:
                    status = "blowup"
            legs.append((ts, ws, status))
        (fts, fws, fst), (bts, bws, bst) = legs
        times = tuple(bts[::-1]) + (0.0,) + tuple(fts)
        return (times, tuple(bws[::-1]) + (z,) + tuple(fws), fst if fst != "ok" else bst,
                self._t_err(scale, max(-times[0], times[-1]), newton))


def closed_orbits(f: HomogeneousForm, fs: FactorizationStructure,
                  d: HomogeneousForm) -> Optional[ClosedOrbits]:
    """The quadrature table of f's closed orbits, d = common_divisor(f, fs),
    or None where orbits are integrated step by step: when f has a real
    line factor, or when g has not resolved by _MAX_NODES nodes or its
    coefficients stall at the rounding of its values (high powers of a
    quadratic, whose expanded coefficients cancel).

    The nodes per turn start at _FIRST_NODES and double until the last
    octave of g's Fourier coefficients falls below _OCTAVE_TOL of their
    mean; g has period pi, so its values on [0, pi) serve, and a doubling
    evaluates g at the new nodes only and adds one butterfly stage to the
    transform it has; a node's cos and sin also give the twiddles of the
    next doubling.  By Bernstein's inequality for f(cos t, sin t), of degree
    p, f's node values bound |f| below on the circle, hence ``rmax``.  This
    is the one place that chooses between the quadrature and the integrator."""
    if fs.l:
        return None
    p, dd, ev, dv = f.degree, d.degree, f.eval_float, d.eval_float
    e = -(2 + dd) / p

    def g(t: float) -> float:
        u, v = math.cos(t), math.sin(t)
        return (dv(u, v) if dd else 1.0) * abs(ev(u, v)) ** e

    def nodes(n: int, first: int, step: int) -> tuple[list[float], list[complex]]:
        """g and e^(-i pi j/n) at pi j/n, j in range(first, n, step); |f| to fa."""
        gw, tw = [], []
        for j in range(first, n, step):
            t = math.pi * j / n
            u, v = math.cos(t), math.sin(t)
            fa.append(abs(ev(u, v)))
            gw.append((dv(u, v) if dd else 1.0) * fa[-1] ** e)
            tw.append(complex(u, -v))
        if not all(map(math.isfinite, gw)):
            raise OverflowError
        return gw, tw

    n, last, fa = _FIRST_NODES // 2, math.inf, []        # nodes in [0, pi)
    try:
        gw, tw = nodes(n, 0, 1)         # tw: e^(-2 pi i k / 2n), k < n
        spec = _fft(gw, tw)
        while (octave := max(map(abs, spec[n // 4:n // 2 + 1])) / spec[0].real) > _OCTAVE_TOL:
            # an octave below _NOISE_TOL that did not fall tenfold is the
            # rounding of g's values, which no N removes
            if 2 * n == _MAX_NODES or octave < _NOISE_TOL and octave > last / 10:
                return None
            last = octave
            n, (gw, new) = 2 * n, nodes(2 * n, 1, 2)
            odd = [w * o for w, o in zip(tw, _fft(gw, tw))]
            spec = [x + y for x, y in zip(spec, odd)] + [x - y for x, y in zip(spec, odd)]
            tw = [w for pair in zip(tw, new) for w in pair]
    except (OverflowError, ZeroDivisionError):       # f or D beyond floats on the circle
        return None
    # |f - f_j| <= (p h / 2) max|f| within h / 2 of a node, h = pi / n; a
    # float value of f is off by at most rnd, at a node and at a sample
    q, rnd = p * math.pi / (2 * n), 8 * p * _EPS * sum(map(abs, f.float_coeffs()))
    lo = min(fa) - 2 * rnd - q * (max(fa) + rnd) / (1 - q) if q < 1 else 0.0
    spec = [a / n for a in spec]
    mean = spec[0].real
    keep = [k for k in range(1, n // 4) if abs(spec[k]) > _TRIM_TOL * mean]
    K = keep[-1] if keep else 0
    gamma = [-1j * spec[k] / k for k in range(1, K + 1)]
    tail = 2 * max(map(abs, spec[K + 1:n // 2 + 1]))
    return ClosedOrbits(f, g, (2 + dd - p) / p, 2 * n, mean, gamma, tail,
                        lo ** (-1 / p) if lo > 0 else math.inf)


def _fft(a: list, tw: list[complex]) -> list[complex]:
    """sum_j a_j w^(jk) for k < n = len(a), a power of 2, w = e^(-2 pi i/n),
    by radix 2; tw[k] = e^(-2 pi i k/N), k < N/2, for some N >= n."""
    n = len(a)
    if n <= 2:
        return a if n == 1 else [a[0] + tw[0] * a[1], a[0] - tw[0] * a[1]]
    even, odd = _fft(a[0::2], tw), _fft(a[1::2], tw)
    odd = [w * o for w, o in zip(tw[::2 * len(tw) // n], odd)]
    return [x + y for x, y in zip(even, odd)] + [x - y for x, y in zip(even, odd)]


# ---------------------------------------------------------------------------
# portraits

class Orbit:
    """One seed's orbit; ``t_err`` estimates the time error of an orbit read
    off its level curve, and is None for an integrated one."""

    __slots__ = ("seed_index", "seed", "times", "points", "status", "f_drift", "t_err")

    def __init__(self, seed_index: int, seed: Point, times: tuple[float, ...],
                 points: tuple[Point, ...], status: str, f_drift: float,
                 t_err: Optional[float] = None):
        self.seed_index, self.seed, self.times, self.points = seed_index, seed, times, points
        self.status, self.f_drift, self.t_err = status, f_drift, t_err


class Portrait:
    __slots__ = ("window", "resolution", "level_curves", "orbits", "singular_point")

    def __init__(self, window: Rect, resolution: int,
                 level_curves: tuple[tuple[float, list[list[Point]]], ...],
                 orbits: tuple[Orbit, ...], singular_point: Optional[Point]):
        self.window, self.resolution, self.level_curves = window, resolution, level_curves
        self.orbits, self.singular_point = orbits, singular_point


def _default_box(window: Rect) -> Rect:
    x0, y0, x1, y1 = window
    cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
    hx, hy = (x1 - x0), (y1 - y0)
    return (cx - hx, cy - hy, cx + hx, cy + hy)


def orbit_portrait(f: HomogeneousForm, seeds: Sequence[Point], window: Rect,
                   cfg: FlowConfig = FlowConfig(), res: int = 128,
                   horizon: float = 20.0,
                   fs: Optional[FactorizationStructure] = None) -> Portrait:
    """Reduced-field orbits through the seeds plus their level curves.

    Each orbit runs forward and backward from its seed until the box
    (default twice the window) is left, the time horizon runs out, or the
    orbit stalls at the singular point.  A closed orbit (f without real
    line factors, see :func:`closed_orbits`) is read off its level curve
    at about res angles per turn, with cfg.max_steps samples each way at
    most; any other is integrated.  The f values of the seeds supply the
    level selection, and the f-drift along every orbit is recorded as a
    conservation diagnostic.  ``fs`` is the factorization of f when the
    caller already has it.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    fs = fs or factor_form(f)
    d = common_divisor(f, fs)
    fld = reduced_field(f, fs, d)
    closed = closed_orbits(f, fs, d)
    if cfg.box is None:
        cfg = FlowConfig(cfg.rel_tol, cfg.abs_tol, cfg.max_step, cfg.max_steps,
                         _default_box(window))
    orbits = []
    levels: list[float] = []
    for si, seed in enumerate(seeds):
        if closed is not None:
            times, pts, status, t_err = closed.orbit(seed, horizon, cfg.box, res,
                                                     cfg.max_steps)
        else:
            fwd = integrate_flow(fld, seed, horizon, cfg)
            bwd = integrate_flow(fld, seed, -horizon, cfg)
            # backward times are already negative; reversing makes one ascending leg
            times = tuple(reversed(bwd.times)) + fwd.times[1:]
            pts = tuple(reversed(bwd.points)) + fwd.points[1:]
            status, t_err = fwd.status if fwd.status != "ok" else bwd.status, None
        f0 = f.eval_float(seed[0], seed[1])
        # a closed orbit repeats its points every turn
        drift = max(abs(f.eval_float(x, y) - f0) for x, y in set(pts)) / (1.0 + abs(f0))
        orbits.append(Orbit(seed_index=si, seed=(float(seed[0]), float(seed[1])),
                            times=times, points=pts, status=status, f_drift=drift,
                            t_err=t_err))
        levels.append(f0)
    # levels are deduped at 12 decimals, or at 12 digits where that reads 0
    uniq_levels = sorted(set(round(c, 12) or float(f"{c:.12g}") for c in levels))
    curves = tuple((c, level_set(f, c, window, res, fs)) for c in uniq_levels)
    singular = (0.0, 0.0) if fld.degree is not None and fld.degree >= 1 else None
    return Portrait(window=window, resolution=res, level_curves=curves,
                    orbits=tuple(orbits), singular_point=singular)
