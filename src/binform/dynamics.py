"""Flows, shift maps, contractions, and portrait data for planar fields.

Everything numeric lives here: a closed-form 2x2 matrix exponential, an
adaptive Dormand-Prince integrator, the shift map z -> flow(z, sigma(z)),
the exact local-diffeomorphism test for shifts, weighted contractions, and
marching-squares level curves.  The exactness boundary is deliberate: the
regularity test is rational arithmetic, all trajectories are floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .errors import BlowUpError, StepLimitError
from .hamfield import PlanarPolyField, reduced_field
from .mat2 import Mat2
from .polyring import BivariatePoly, HomogeneousForm, WeightVector
from .realfactor import FactorizationStructure

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

@dataclass(frozen=True)
class FlowConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-9
    max_step: float = 1e-2
    max_steps: int = 1_000_000
    box: Optional[Rect] = None       # leave None for an unbounded flow

    def __post_init__(self):
        if min(self.rel_tol, self.abs_tol, self.max_step) <= 0 or self.max_steps <= 0:
            raise ValueError("tolerances, step size, and step budget must be positive")


@dataclass(frozen=True)
class Trajectory:
    times: tuple[float, ...]
    points: tuple[Point, ...]
    status: str                      # "ok" | "blowup" | "step_limit" | "stalled"

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
    is exceptional.  Stationary starts stall out rather than burning the
    step budget.
    """
    times = [0.0]
    pts = [(float(z0[0]), float(z0[1]))]
    if T == 0.0:
        return Trajectory(tuple(times), tuple(pts), "ok")
    direction = 1.0 if T > 0 else -1.0
    t, (x, y) = 0.0, pts[0]
    fx, fy = fld.at(x, y)
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
        kx = [fx]
        ky = [fy]
        bad = False
        for i in range(1, 7):
            ax = x + h * sum(aij * kxj for aij, kxj in zip(_DP_A[i], kx))
            ay = y + h * sum(aij * kyj for aij, kyj in zip(_DP_A[i], ky))
            if not (math.isfinite(ax) and math.isfinite(ay)):
                bad = True
                break
            vx, vy = fld.at(ax, ay)
            kx.append(vx)
            ky.append(vy)
        if bad:
            h *= 0.5
            continue
        x5 = x + h * sum(b * k for b, k in zip(_DP_B5, kx))
        y5 = y + h * sum(b * k for b, k in zip(_DP_B5, ky))
        ex = h * sum((b5 - b4) * k for b5, b4, k in zip(_DP_B5, _DP_B4, kx))
        ey = h * sum((b5 - b4) * k for b5, b4, k in zip(_DP_B5, _DP_B4, ky))
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
            fx, fy = kx[6], ky[6]        # FSAL: stage 7 is the next stage 1
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
    out = []
    minus_one = Fraction(-1)
    for z in samples:
        v = lie.eval_exact(Fraction(z[0]), Fraction(z[1]))
        if v > minus_one:
            out.append("regular")
        elif v == minus_one:
            out.append("degenerate")
        else:
            out.append("folding")
    return out


def invariant_contraction(w: WeightVector, z: Point, t: float) -> Point:
    """Weighted contraction (t^s1 z1, t^s2 z2) for t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("contraction parameter must lie in [0, 1]")
    return (t ** w.s1 * z[0], t ** w.s2 * z[1])


# ---------------------------------------------------------------------------
# level curves

def _interp(va: float, vb: float, pa: Point, pb: Point) -> Point:
    # va, vb straddle zero by construction
    s = va / (va - vb)
    return (pa[0] + s * (pb[0] - pa[0]), pa[1] + s * (pb[1] - pa[1]))


def level_set(f: HomogeneousForm, c: float, window: Rect,
              res: int = 128) -> list[list[Point]]:
    """Polylines of {f = c} in the window by marching squares.

    Grid of res x res sample points; the ambiguous saddle configurations
    are split by the sign of f - c at the cell center.  Segment endpoints
    carry exact edge identities, so chaining into polylines is stable.
    """
    if res < 16:
        raise ValueError("resolution below 16 is useless")
    x0, y0, x1, y1 = window
    xs = [x0 + (x1 - x0) * i / (res - 1) for i in range(res)]
    ys = [y0 + (y1 - y0) * j / (res - 1) for j in range(res)]
    vals = [[f.eval_float(x, y) - c for y in ys] for x in xs]

    # edge id: (i, j, 0) for the edge from grid node (i,j) to (i+1,j),
    #          (i, j, 1) for the edge from (i,j) to (i,j+1)
    segments: list[tuple[tuple, tuple, Point, Point]] = []

    def edge_point(i, j, horiz):
        if horiz:
            va, vb = vals[i][j], vals[i + 1][j]
            pa, pb = (xs[i], ys[j]), (xs[i + 1], ys[j])
        else:
            va, vb = vals[i][j], vals[i][j + 1]
            pa, pb = (xs[i], ys[j]), (xs[i], ys[j + 1])
        return _interp(va, vb, pa, pb)

    _PAIRS = {
        1: [("left", "bottom")], 14: [("left", "bottom")],
        2: [("bottom", "right")], 13: [("bottom", "right")],
        3: [("left", "right")], 12: [("left", "right")],
        4: [("right", "top")], 11: [("right", "top")],
        6: [("bottom", "top")], 9: [("bottom", "top")],
        7: [("left", "top")], 8: [("left", "top")],
    }

    for i in range(res - 1):
        for j in range(res - 1):
            v00, v10 = vals[i][j], vals[i + 1][j]
            v01, v11 = vals[i][j + 1], vals[i + 1][j + 1]
            idx = ((v00 > 0) | (v10 > 0) << 1 | (v11 > 0) << 2 | (v01 > 0) << 3)
            if idx in (0, 15):
                continue
            if idx in (5, 10):
                xc = (xs[i] + xs[i + 1]) / 2
                yc = (ys[j] + ys[j + 1]) / 2
                center_pos = (f.eval_float(xc, yc) - c) > 0
                if (idx == 5) == center_pos:
                    sel = [("left", "top"), ("bottom", "right")]
                else:
                    sel = [("left", "bottom"), ("right", "top")]
            else:
                sel = _PAIRS[idx]
            # only the selected edges are guaranteed to straddle zero
            keys = {
                "bottom": ((i, j, 0), lambda: edge_point(i, j, True)),
                "top": ((i, j + 1, 0), lambda: edge_point(i, j + 1, True)),
                "left": ((i, j, 1), lambda: edge_point(i, j, False)),
                "right": ((i + 1, j, 1), lambda: edge_point(i + 1, j, False)),
            }
            for na, nb in sel:
                ea, fa = keys[na]
                eb, fb = keys[nb]
                segments.append((ea, eb, fa(), fb()))

    # chain segments that share an edge id
    by_edge: dict[tuple, list[int]] = {}
    for n, (ea, eb, _, _) in enumerate(segments):
        by_edge.setdefault(ea, []).append(n)
        by_edge.setdefault(eb, []).append(n)

    used = [False] * len(segments)

    def walk(start_seg: int, start_edge: tuple):
        chain_pts = []
        chain_edges = []
        seg, edge = start_seg, start_edge
        while True:
            used[seg] = True
            ea, eb, pa, pb = segments[seg]
            if edge == ea:
                chain_pts.append(pa)
                chain_edges.append(ea)
                nxt_edge, nxt_pt = eb, pb
            else:
                chain_pts.append(pb)
                chain_edges.append(eb)
                nxt_edge, nxt_pt = ea, pa
            cands = [m for m in by_edge.get(nxt_edge, []) if not used[m]]
            if not cands:
                chain_pts.append(nxt_pt)
                return chain_pts
            seg, edge = cands[0], nxt_edge

    polylines: list[list[Point]] = []
    # open chains first, from edges of degree one, in sorted order
    degree_one = sorted(e for e, ns in by_edge.items() if len(ns) == 1)
    for e in degree_one:
        ns = [m for m in by_edge[e] if not used[m]]
        if ns:
            polylines.append(walk(ns[0], e))
    for n in range(len(segments)):            # leftover closed loops
        if not used[n]:
            pts = walk(n, segments[n][0])
            pts.append(pts[0])
            polylines.append(pts)
    return [pl for pl in polylines if len(pl) >= 2]


# ---------------------------------------------------------------------------
# portraits

@dataclass(frozen=True)
class Orbit:
    seed_index: int
    seed: Point
    times: tuple[float, ...]
    points: tuple[Point, ...]
    status: str
    f_drift: float


@dataclass(frozen=True)
class Portrait:
    window: Rect
    resolution: int
    level_curves: tuple[tuple[float, list[list[Point]]], ...]
    orbits: tuple[Orbit, ...]
    singular_point: Optional[Point]


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
    fld = reduced_field(f, fs)
    if cfg.box is None:
        cfg = replace(cfg, box=_default_box(window))
    orbits = []
    levels: list[float] = []
    for si, seed in enumerate(seeds):
        fwd = integrate_flow(fld, seed, horizon, cfg)
        bwd = integrate_flow(fld, seed, -horizon, cfg)
        # backward times are already negative; reversing makes one ascending leg
        times = tuple(reversed(bwd.times)) + fwd.times[1:]
        pts = tuple(reversed(bwd.points)) + fwd.points[1:]
        status = "ok"
        for leg in (fwd.status, bwd.status):
            if leg != "ok" and status == "ok":
                status = leg
        f0 = f.eval_float(seed[0], seed[1])
        drift = max(abs(f.eval_float(x, y) - f0) for x, y in pts) / (1.0 + abs(f0))
        orbits.append(Orbit(seed_index=si, seed=(float(seed[0]), float(seed[1])),
                            times=times, points=pts, status=status, f_drift=drift))
        levels.append(f0)
    uniq_levels = sorted(set(round(c, 12) for c in levels))
    curves = tuple((c, level_set(f, c, window, res)) for c in uniq_levels)
    singular = (0.0, 0.0) if fld.degree is not None and fld.degree >= 1 else None
    return Portrait(window=window, resolution=res, level_curves=curves,
                    orbits=tuple(orbits), singular_point=singular)
