"""Flows, shift maps, contractions, and portrait data for planar fields.

Everything numeric lives here: a closed-form 2x2 matrix exponential, an
adaptive Dormand-Prince integrator, the shift map z -> flow(z, sigma(z)),
the exact local-diffeomorphism test for shifts, weighted contractions, and
level curves as radial graphs.  The exactness boundary is deliberate: the
regularity test is rational arithmetic, all trajectories are floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .errors import BlowUpError, StepLimitError
from .hamfield import PlanarPolyField, reduced_field
from .mat2 import Mat2
from .polyring import BivariatePoly, HomogeneousForm, WeightVector
from .realfactor import FactorizationStructure, factor_form

Point = tuple[float, float]
Rect = tuple[float, float, float, float]        # x0, y0, x1, y1


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


# Dormand-Prince 5(4) tableau
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
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
                    cfg: FlowConfig = FlowConfig()) -> Point:
    """The shift map z -> flow(z, sigma(z)); raises when the flow cannot be
    carried to the requested time."""
    T = sigma.eval_float(z[0], z[1])
    traj = integrate_flow(fld, z, T, cfg)
    if traj.status == "blowup":
        raise BlowUpError(f"orbit left the box before time {T}")
    if traj.status == "step_limit":
        raise StepLimitError(f"step budget exhausted before time {T}")
    # "stalled" is benign: a stationary point is fixed by every shift
    return traj.endpoint()


def shift_regularity(fld: PlanarPolyField, sigma: BivariatePoly,
                     samples: Sequence[tuple]) -> list[str]:
    """Exact local-diffeomorphism test of the shift map at sample points.

    The decisive quantity is the derivative of sigma along the field,
    L = sigma_x P + sigma_y Q, compared with -1: strictly above is regular,
    equality is degenerate, below folds orientation.  Everything is rational
    so the trichotomy is exact.
    """
    lie = sigma.partial_x() * fld.P + sigma.partial_y() * fld.Q
    gaps = (lie.eval_exact(Fraction(z[0]), Fraction(z[1])) + 1 for z in samples)
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
    fs = fs or factor_form(f)
    lines = fs.linear if fs.l else ()        # no pair certificate without lines
    if c == 0:
        return [seg for lf in lines for seg in _clip_line(lf.line_direction(), window)]
    x0, y0, x1, y1 = window
    p, ev, tau = f.degree, f.eval_float, 2 * math.pi

    def point(t: float) -> Optional[Point]:
        u, v = math.cos(t), math.sin(t)
        w = ev(u, v)
        r = (c / w) ** (1 / p) if c * w > 0 else math.inf
        return (r * u, r * v) if x0 <= r * u <= x1 and y0 <= r * v <= y1 else None

    def edge(out: float, t: float, z: Point) -> Point:
        # the last point z(t) inside the window, bisecting towards the angle out
        while (m := (out + t) / 2) not in (out, t):
            if w := point(m):
                t, z = m, w
            else:
                out = m
        return z

    rays = sorted(a for lf in lines for a in lf.ray_angles())
    cuts = rays + [rays[0] + tau] if rays else [0.0, tau]
    ts: list[float] = []
    for a, b in zip(cuts, cuts[1:]):
        n = max(3, round(res * (b - a) / tau))
        ts += [a + (b - a) * j / n for j in range(n)]
    zs = [None if t in rays else point(t) for t in ts]      # r is infinite on a ray
    if all(zs):
        return [zs + zs[:1]]
    k = zs.index(None)                  # sweep from an outside angle round to it
    ts, zs = ts[k:] + [t + tau for t in ts[:k + 1]], zs[k:] + zs[:k + 1]
    curves, run = [], []
    for s, t, z in zip(ts, ts[1:], zs[1:]):
        if z:
            run += [z] if run else [edge(s, t, z), z]
        elif run:
            curves.append(run + [edge(t, s, run[-1])])
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


# ---------------------------------------------------------------------------
# portraits

class Orbit:
    __slots__ = ("seed_index", "seed", "times", "points", "status", "f_drift")

    def __init__(self, seed_index: int, seed: Point, times: tuple[float, ...],
                 points: tuple[Point, ...], status: str, f_drift: float):
        self.seed_index, self.seed, self.times, self.points = seed_index, seed, times, points
        self.status, self.f_drift = status, f_drift


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

    Each seed is integrated forward and backward until the box (default
    twice the window) is left, the time horizon runs out, or the orbit
    stalls at the singular point.  The f values of the seeds supply the
    level selection, and the f-drift along every orbit is recorded as a
    conservation diagnostic.  ``fs`` is the factorization of f when the
    caller already has it.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    fs = fs or factor_form(f)
    fld = reduced_field(f, fs)
    if cfg.box is None:
        cfg = FlowConfig(cfg.rel_tol, cfg.abs_tol, cfg.max_step, cfg.max_steps,
                         _default_box(window))
    orbits = []
    levels: list[float] = []
    for si, seed in enumerate(seeds):
        fwd = integrate_flow(fld, seed, horizon, cfg)
        bwd = integrate_flow(fld, seed, -horizon, cfg)
        # backward times are already negative; reversing makes one ascending leg
        times = tuple(reversed(bwd.times)) + fwd.times[1:]
        pts = tuple(reversed(bwd.points)) + fwd.points[1:]
        status = fwd.status if fwd.status != "ok" else bwd.status
        f0 = f.eval_float(seed[0], seed[1])
        drift = max(abs(f.eval_float(x, y) - f0) for x, y in pts) / (1.0 + abs(f0))
        orbits.append(Orbit(seed_index=si, seed=(float(seed[0]), float(seed[1])),
                            times=times, points=pts, status=status, f_drift=drift))
        levels.append(f0)
    uniq_levels = sorted(set(round(c, 12) for c in levels))
    curves = tuple((c, level_set(f, c, window, res, fs)) for c in uniq_levels)
    singular = (0.0, 0.0) if fld.degree is not None and fld.degree >= 1 else None
    return Portrait(window=window, resolution=res, level_curves=curves,
                    orbits=tuple(orbits), singular_point=singular)
