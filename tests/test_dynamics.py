import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from binform.dynamics import (
    _MAX_NODES,
    _TAU,
    FlowConfig,
    Orbit,
    Portrait,
    _fft,
    _radial,
    closed_orbits,
    integrate_flow,
    invariant_contraction,
    level_set,
    mat_exp,
    orbit_portrait,
    shift_linear,
    shift_map_apply,
    shift_regularity,
)
from binform.errors import BlowUpError, StepLimitError
from binform.exprparse import parse_polynomial, to_homogeneous
from binform.hamfield import PlanarPolyField, common_divisor, reduced_field
from binform.mat2 import Mat2
from binform.polyring import BivariatePoly, HomogeneousForm, WeightVector
from binform.realfactor import factor_form
from binform.render import _fmt, portrait_csv

from genforms import random_case_de, random_product
from oracles import count_calls


def poly(terms):
    return BivariatePoly(terms)


def linear_field(a, b, c, d):
    return PlanarPolyField(P=poly({(1, 0): a, (0, 1): b}),
                           Q=poly({(1, 0): c, (0, 1): d}),
                           homogeneous=True, degree=1)


ZERO = poly({})
ROTATE = linear_field(0, -2, 2, 0)       # reduced field of x^2 + y^2


# -- matrix exponential -------------------------------------------------------

def test_mat_exp_rotation():
    m = mat_exp(Mat2.exact(0, -1, 1, 0), math.pi / 2)
    a, b, c, d = (float(v) for v in m.entries())
    assert abs(a) < 1e-15 and abs(d) < 1e-15
    assert abs(b + 1) < 1e-15 and abs(c - 1) < 1e-15


def test_mat_exp_diagonal():
    m = mat_exp(Mat2.exact(1, 0, 0, -2), 0.5)
    a, b, c, d = (float(v) for v in m.entries())
    assert abs(a - math.exp(0.5)) < 1e-14
    assert abs(d - math.exp(-1.0)) < 1e-14
    assert b == 0 and c == 0


def test_mat_exp_shear_is_polynomial():
    m = mat_exp(Mat2.exact(0, 1, 0, 0), 3.0)
    a, b, c, d = (float(v) for v in m.entries())
    assert (a, b, c, d) == (1.0, 3.0, 0.0, 1.0)


def test_mat_exp_against_mpmath():
    rng = random.Random(51)
    for _ in range(30):
        entries = [rng.uniform(-2, 2) for _ in range(4)]
        t = rng.uniform(-2, 2)
        ours = mat_exp(Mat2.approx(*entries), t)
        a, b, c, d = entries
        ref = mp.expm(mp.matrix([[a * t, b * t], [c * t, d * t]]))
        got = [float(v) for v in ours.entries()]
        want = [float(ref[0, 0]), float(ref[0, 1]), float(ref[1, 0]), float(ref[1, 1])]
        scale = max(1.0, max(abs(w) for w in want))
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-10 * scale


def test_mat_exp_near_degenerate_branch():
    # delta = mu^2 - det barely away from zero exercises the series branch
    eps = 1e-9
    m = mat_exp(Mat2.approx(1.0, eps, 0.0, 1.0), 1.0)
    a, b, c, d = (float(v) for v in m.entries())
    assert abs(a - math.e) < 1e-12
    assert abs(b - math.e * eps) < 1e-12 * math.e
    assert abs(d - math.e) < 1e-12


# -- integration --------------------------------------------------------------

def test_orbit_closes_on_circle():
    traj = integrate_flow(ROTATE, (1.0, 0.0), math.pi, FlowConfig())
    assert traj.status == "ok"
    x, y = traj.endpoint()
    # time pi at angular speed 2 is one full turn
    assert math.hypot(x - 1.0, y) < 1e-8
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(math.pi)


def test_backward_integration():
    traj = integrate_flow(ROTATE, (1.0, 0.0), -math.pi / 4, FlowConfig())
    assert traj.status == "ok"
    assert traj.times[-1] == pytest.approx(-math.pi / 4)
    x, y = traj.endpoint()
    assert x == pytest.approx(math.cos(-math.pi / 2), abs=1e-9)
    assert y == pytest.approx(math.sin(-math.pi / 2), abs=1e-9)


def test_clipped_last_step_ends_at_target():
    # sigma(z) = -0.07 reaches -0.06999999999999999 after seven full steps of
    # 0.01, so the last clipped step is one rounding long
    sigma = poly({(1, 0): Fraction(3, 4), (0, 1): Fraction(3, 4), (0, 0): Fraction(1, 2)})
    z = (-0.657, -0.103)
    T = sigma.eval_float(*z)
    traj = integrate_flow(ROTATE, z, T, FlowConfig())
    assert traj.status == "ok"
    assert traj.times[-1] == T
    shift_map_apply(ROTATE, sigma, z)       # no StepLimitError


def test_blowup_flag():
    # dz/dt = z^2 escapes to infinity at t = 1 from z = 1
    fld = PlanarPolyField(P=poly({(2, 0): 1}), Q=ZERO, homogeneous=False, degree=None)
    cfg = FlowConfig(box=(-50, -50, 50, 50))
    traj = integrate_flow(fld, (1.0, 0.0), 2.0, cfg)
    assert traj.status == "blowup"
    assert traj.times[-1] < 1.01


def test_stalled_flag():
    fld = linear_field(-1, 0, 0, -1)
    traj = integrate_flow(fld, (1.0, 1.0), 80.0, FlowConfig())
    assert traj.status == "stalled"
    x, y = traj.endpoint()
    assert math.hypot(x, y) < 1e-9


# Step counts and endpoints recorded before the float evaluators were
# compiled; any change to the kernels or the loop that moves a bit fails.
_PINNED_FLOWS = [
    # a closed orbit of the linear reduced field (4x - 12y, 8x - 4y)
    ("4*(x^2 - x*y + 3/2*y^2)", (0.7, 0.3), 20.0, 2566, "ok",
     ("-0x1.68b36e00bd3bcp-1", "-0x1.a236eaed5ecfep-3"), "0x1.4000000000000p+4"),
    ("4*(x^2 - x*y + 3/2*y^2)", (0.7, 0.3), -20.0, 2567, "ok",
     ("-0x1.57d28dacca774p-1", "-0x1.8ac5191ea0054p-2"), "-0x1.4000000000000p+4"),
    # orbits of x*y*(x-y) that leave the box
    ("x*y*(x-y)", (0.5, 0.2), 20.0, 287, "blowup",
     ("0x1.04aeab599d142p+2", "0x1.049107a2e0837p+2"), "0x1.6f5beed8a72c3p+1"),
    ("x*y*(x-y)", (0.5, 0.2), -20.0, 232, "blowup",
     ("0x1.000c09aa9b88cp+2", "0x1.eb91e42a7f5a3p-10"), "-0x1.28f5c28f5c283p+1"),
]


@pytest.mark.parametrize("text, z0, T, steps, status, end, t_end", _PINNED_FLOWS)
def test_pinned_trajectories_bit_for_bit(text, z0, T, steps, status, end, t_end):
    fld = reduced_field(to_homogeneous(parse_polynomial(text)))
    traj = integrate_flow(fld, z0, T, FlowConfig(box=(-4.0, -4.0, 4.0, 4.0)))
    assert (len(traj.times) - 1, traj.status) == (steps, status)
    assert tuple(v.hex() for v in traj.endpoint()) == end
    assert traj.times[-1].hex() == t_end


def test_step_limit_flag():
    traj = integrate_flow(ROTATE, (1.0, 0.0), 10.0, FlowConfig(max_steps=5))
    assert traj.status == "step_limit"


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(max_step=0.0)
    with pytest.raises(ValueError):
        FlowConfig(max_steps=0)


# -- shift maps ---------------------------------------------------------------

def test_shift_map_matches_closed_form():
    rng = random.Random(52)
    for _ in range(25):
        a, b, c, d = (rng.uniform(-1.5, 1.5) for _ in range(4))
        fld = linear_field(a, b, c, d)
        A = Mat2.approx(a, b, c, d)
        sigma = poly({(0, 0): rng.uniform(-1.5, 1.5)})
        z = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        got, _ = shift_map_apply(fld, sigma, z, FlowConfig(box=(-1e6,) * 2 + (1e6,) * 2))
        want = shift_linear(A, sigma, z)
        assert math.hypot(got[0] - want[0], got[1] - want[1]) < 1e-7


def test_shift_map_blowup_raises():
    fld = PlanarPolyField(P=poly({(2, 0): 1}), Q=ZERO, homogeneous=False, degree=None)
    sigma = poly({(0, 0): 2})
    with pytest.raises(BlowUpError):
        shift_map_apply(fld, sigma, (1.0, 0.0), FlowConfig(box=(-40, -40, 40, 40)))


def test_shift_map_zero_sigma_is_identity():
    assert shift_map_apply(ROTATE, ZERO, (0.3, -0.7)) == ((0.3, -0.7), None)


def test_shift_regularity_trichotomy():
    vertical = PlanarPolyField(P=ZERO, Q=poly({(0, 0): 1}),
                               homogeneous=False, degree=None)
    samples = [(0, 0), (2, -3)]
    assert shift_regularity(vertical, poly({(0, 1): -1}), samples) \
        == ["degenerate", "degenerate"]
    assert shift_regularity(vertical, ZERO, samples) == ["regular", "regular"]
    assert shift_regularity(vertical, poly({(0, 1): 1}), samples) \
        == ["regular", "regular"]
    assert shift_regularity(vertical, poly({(0, 1): -2}), samples) \
        == ["folding", "folding"]


def test_shift_regularity_is_exact_at_threshold():
    # L = -1 exactly at (1, 1) but not elsewhere
    vertical = PlanarPolyField(P=ZERO, Q=poly({(0, 0): 1}),
                               homogeneous=False, degree=None)
    sigma = poly({(0, 2): Fraction(-1, 2), (0, 0): Fraction(1, 7)})
    out = shift_regularity(vertical, sigma, [(1, 1), (1, Fraction(1, 2)), (1, 2)])
    assert out == ["degenerate", "regular", "folding"]


# -- contraction --------------------------------------------------------------

def test_contraction_endpoints():
    w = WeightVector(1, 3, 4)
    assert invariant_contraction(w, (2.0, 5.0), 1.0) == (2.0, 5.0)
    assert invariant_contraction(w, (2.0, 5.0), 0.0) == (0.0, 0.0)
    with pytest.raises(ValueError):
        invariant_contraction(w, (1.0, 1.0), 1.5)


def test_contraction_scales_quasi_homogeneous_values_exactly():
    # g = x^3 - y^2 with weights (2, 3): g(t^2 x, t^3 y) = t^6 g(x, y)
    g = poly({(3, 0): 1, (0, 2): -1})
    w = WeightVector(2, 3, 6)
    rng = random.Random(53)
    for _ in range(20):
        z = (Fraction(rng.randint(-8, 8), 3), Fraction(rng.randint(-8, 8), 5))
        t = Fraction(rng.randint(1, 4), 4)
        cx, cy = invariant_contraction(w, z, t)
        assert g.eval_exact(cx, cy) == t ** 6 * g.eval_exact(*z)


# -- level sets ---------------------------------------------------------------

def _form(text):
    return to_homogeneous(parse_polynomial(text))


_LEVEL_FORMS = ["x^2+y^2", "x*y^2", "x^2-y^2", "(x^2+y^2)*(x^2+2*y^2)*(x-y)",
                "(x^2+y^2)*(x-y)*(x+2*y)"]


def test_level_set_circle():
    f = HomogeneousForm([1, 0, 1])
    curves = level_set(f, 1.0, (-2, -2, 2, 2), res=96)
    assert len(curves) == 1
    pts = curves[0]
    assert len(pts) == 97
    assert pts[0] == pts[-1]                   # closed polyline
    for x, y in pts:
        assert abs(math.hypot(x, y) - 1.0) <= 1e-12


def test_level_set_empty_below_minimum():
    f = HomogeneousForm([1, 0, 1])
    assert level_set(f, -1.0, (-2, -2, 2, 2), res=64) == []


def test_level_set_hyperbola_hits_boundary():
    f = HomogeneousForm([0, 1, 0])             # xy
    curves = level_set(f, 1.0, (-3, -3, 3, 3), res=96)
    assert len(curves) == 2                    # two branches
    for pts in curves:
        assert pts[0] != pts[-1]               # open arcs
        for x, y in pts:
            assert abs(x * y - 1.0) <= 2e-12
        for x, y in (pts[0], pts[-1]):         # they end where |x| or |y| is 3
            assert abs(max(abs(x), abs(y)) - 3.0) <= 1e-12


def test_level_set_resolution_guard():
    with pytest.raises(ValueError):
        level_set(HomogeneousForm([1, 0, 1]), 1.0, (-1, -1, 1, 1), res=8)


def test_level_zero_is_every_line_clipped_to_the_window():
    """y = 0 is a double line of x y^2: f keeps its sign across it, and it
    is part of the level set all the same."""
    curves = level_set(_form("x*y^2"), 0.0, (-2, -2, 2, 2), 64)
    assert len(curves) == 2
    assert curves[0] == [(0.0, -2.0), (0.0, 2.0)]
    assert curves[1] == [pytest.approx((-2.0, 0.0), abs=1e-15),
                         pytest.approx((2.0, 0.0), abs=1e-15)]
    assert level_set(_form("x^2+y^2"), 0.0, (-2, -2, 2, 2), 64) == []


def test_an_arc_across_angle_zero_is_one_polyline():
    (arc,) = level_set(_form("x^2+y^2"), 1.0, (0.5, -1, 3, 2), 64)
    assert arc[0] == pytest.approx((0.5, -math.sqrt(3) / 2), abs=1e-12)
    assert arc[-1] == pytest.approx((0.5, math.sqrt(3) / 2), abs=1e-12)


@pytest.mark.parametrize("text", _LEVEL_FORMS)
@pytest.mark.parametrize("window", [(-2, -2, 2, 2), (0.5, -1, 3, 2)])
def test_level_points_lie_on_the_curve_in_the_window(text, window):
    """Every point satisfies f = c to 1e-12 (1 + |c|) inside the window, and
    an open polyline ends on the window's boundary."""
    f = _form(text)
    x0, y0, x1, y1 = window
    found = 0
    for c in (0.3, 1.0, 1.44, -0.5, 0.0):
        for pts in level_set(f, c, window, 64):
            found += 1
            assert len(pts) >= 2
            for x, y in pts:
                assert abs(f.eval_float(x, y) - c) <= 1e-12 * (1 + abs(c))
                assert x0 <= x <= x1 and y0 <= y <= y1
            if pts[0] != pts[-1]:
                for x, y in (pts[0], pts[-1]):
                    assert min(x - x0, x1 - x, y - y0, y1 - y) <= 1e-12
    assert found >= 3


def test_a_portrait_without_a_factorization_factors_once(monkeypatch):
    calls = count_calls(monkeypatch, factor_form)
    port = orbit_portrait(_form("(x^2+y^2)*(x-y)*(x+2*y)"), [(0.5, 0.5), (1.0, -0.2)],
                          (-2, -2, 2, 2), res=32, horizon=2.0)
    assert len(port.level_curves) == 2
    assert len(calls) == 1


# -- portraits ----------------------------------------------------------------

def test_portrait_circle_orbits():
    f = HomogeneousForm([1, 0, 1])
    port = orbit_portrait(f, [(1.0, 0.0)], (-2, -2, 2, 2), res=64, horizon=4.0)
    assert port.singular_point == (0.0, 0.0)
    assert len(port.orbits) == 1
    orb = port.orbits[0]
    assert orb.status == "ok"
    assert orb.f_drift < 1e-8
    assert orb.times[0] < 0 < orb.times[-1]    # both time directions present
    assert len(port.level_curves) == 1
    assert port.level_curves[0][0] == pytest.approx(1.0)


def test_portrait_orbit_times_increase():
    f = HomogeneousForm([1, 0, 1])
    port = orbit_portrait(f, [(0.5, 0.5), (1.0, 0.0)], (-2, -2, 2, 2),
                          res=64, horizon=2.0)
    for orb in port.orbits:
        assert all(a < b for a, b in zip(orb.times, orb.times[1:]))
        assert len(orb.times) == len(orb.points)


def test_portrait_escaping_orbits_flagged():
    f = HomogeneousForm([0, 0, 1, 0])          # x y^2
    port = orbit_portrait(f, [(0.5, 1.0)], (-2, -2, 2, 2), res=64, horizon=50.0)
    assert port.orbits[0].status in ("blowup", "stalled")
    assert port.orbits[0].f_drift < 1e-8


def test_portrait_requires_seeds():
    with pytest.raises(ValueError):
        orbit_portrait(HomogeneousForm([1, 0, 1]), [], (-2, -2, 2, 2))


# -- closed orbits by quadrature ------------------------------------------------

def _closed(f):
    fs = factor_form(f)
    d = common_divisor(f, fs)
    return reduced_field(f, fs, d), closed_orbits(f, fs, d)


def _definite_forms(n_d, n_c):
    """Case D forms (random_case_de with l = 0) and case C forms (one
    quadratic power), degree 2 to 16, seed 7, with their reduced fields
    and tables; only forms whose table resolves count."""
    rng, out = random.Random(7), []
    while len(out) < n_d + n_c:
        s = random_case_de(rng, 16) if len(out) < n_d else random_product(rng, 16)
        fld, table = _closed(s.form)
        if s.l == 0 and (len(out) < n_d or s.k == 1) and table is not None:
            out.append((s.form, fld, table))
    return out


def _seed_of_period_one(f, table, angle):
    """A point at the angle whose orbit has period about 1, or where the
    period does not depend on the level (one quadratic), at level +-1."""
    u = (math.cos(angle), math.sin(angle))
    c = 1.0 if table.power == 0 else \
        (f.degree / (2 * math.pi * table.mean)) ** (1 / table.power)
    r = (c / abs(f.eval_float(*u))) ** (1 / f.degree)
    return (r * u[0], r * u[1])


def test_closed_orbits_agree_with_tight_integration():
    tight = FlowConfig(rel_tol=1e-13, abs_tol=1e-13, max_step=1e-3)
    rng = random.Random(23)
    forms = _definite_forms(8, 3)
    assert max(f.degree for f, _, _ in forms) >= 12
    for f, fld, table in forms:
        z = _seed_of_period_one(f, table, rng.uniform(0, 2 * math.pi))
        _, _, scale, _ = table._level(z)
        period = scale * 2 * math.pi * table.mean
        for T in (0.7 * period, -2.3 * period, 3.6 * period):
            want = integrate_flow(fld, z, T, tight)
            assert want.status == "ok"
            (x, y), t_err = table.shift(z, T, None)
            assert math.dist((x, y), want.endpoint()) <= 1e-10
            assert 0 <= t_err < 1e-12


def test_closed_orbit_period_of_the_circle_and_an_ellipse():
    # x^2 + y^2 turns at angular speed 2; the reduced field of x^2 + 4 y^2 is
    # the linear field (-8y, 2x), of period 2 pi / 4
    for text, period in (("x^2+y^2", math.pi), ("x^2+4*y^2", math.pi / 2)):
        fld, table = _closed(_form(text))
        z = (0.3, -0.2)
        for turns in (1, -3, 7):
            (x, y), _ = table.shift(z, turns * period, None)
            assert math.dist((x, y), z) < 1e-14
        got = table.shift(z, 0.4, None)[0]
        want = shift_linear(Mat2.approx(0, -2, 2, 0) if text == "x^2+y^2"
                            else Mat2.approx(0, -8, 2, 0), poly({(0, 0): 0.4}), z)
        assert math.dist(got, want) < 1e-14


def test_the_route_is_chosen_from_the_lines_and_convergence():
    assert _closed(_form("x*(x^2+y^2)"))[1] is None               # l = 1
    assert _closed(_form("x^2+1/10^12*y^2"))[1] is None             # unresolved at 4096
    fld, table = _closed(_form("(x^2+y^2)*(x^2+2*y^2)"))
    assert table is not None and table.nodes <= 256
    sigma = poly({(0, 0): Fraction(1, 3)})
    z, t_err = shift_map_apply(fld, sigma, (0.5, 0.1), FlowConfig(), table)
    assert t_err is not None
    w, t_err = shift_map_apply(fld, sigma, (0.5, 0.1))
    assert t_err is None and math.dist(z, w) < 1e-8


def test_a_closed_orbit_shift_takes_no_step(monkeypatch):
    steps = count_calls(monkeypatch, integrate_flow)
    fld, table = _closed(_form("(x^2+y^2)*(x^2+2*y^2)^2"))
    shift_map_apply(fld, poly({(1, 0): 2}), (0.7, 0.2), FlowConfig(box=(-4, -4, 4, 4)), table)
    orbit_portrait(_form("(x^2+y^2)*(x^2+2*y^2)^2"), [(0.7, 0.2)], (-2, -2, 2, 2), res=32)
    assert steps == []


def test_a_closed_orbit_that_leaves_the_box():
    # x^2 + y^2/100 = 1 is (cos t/5, 10 sin t/5) in time t, and y = 4 at t = 2.06;
    # at t = 30 the point (cos 6, 10 sin 6) is back in the box, the arc is not
    f = _form("x^2+1/100*y^2")
    fld, table = _closed(f)
    box = (-4.0, -4.0, 4.0, 4.0)
    for T in (2.1, -2.1, 30.0, 10 * math.pi):
        with pytest.raises(BlowUpError):
            shift_map_apply(fld, poly({(0, 0): T}), (1.0, 0.0), FlowConfig(box=box), table)
    z, _ = shift_map_apply(fld, poly({(0, 0): 2}), (1.0, 0.0), FlowConfig(box=box), table)
    assert math.dist(z, (math.cos(0.4), 10 * math.sin(0.4))) < 1e-14
    (orb,) = orbit_portrait(f, [(1.0, 0.0)], (-2, -2, 2, 2), res=64).orbits
    assert orb.status == "blowup"
    for x, y in (orb.points[0], orb.points[-1]):
        assert abs(abs(y) - 4) < 1e-12 and abs(x) < 1
    assert orb.points[0][1] * orb.points[-1][1] < 0
    assert orb.f_drift < 1e-14


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32), st.floats(0, 2 * math.pi), st.floats(0.2, 1.5),
       st.sampled_from([0.5, 3.0, 20.0]), st.sampled_from([16, 33, 128]),
       st.sampled_from([None, (-4.0, -4.0, 4.0, 4.0), (-1.0, -1.5, 1.5, 1.0)]))
def test_closed_orbit_properties(seed, angle, radius, horizon, res, box):
    """Points on the seed's level, ascending times, the seed at t = 0, and
    the ends at +-horizon unless the orbit left the box or ran out of
    samples."""
    rng = random.Random(seed)
    while (s := random_product(rng, 12)).l or not s.k:
        pass
    f = s.form
    table = _closed(f)[1]
    if table is None:
        return
    z = (radius * math.cos(angle), radius * math.sin(angle))
    times, pts, status, t_err = table.orbit(z, horizon, box, res, 10_000)
    c = f.eval_float(*z)
    p = f.degree
    for x, y in set(pts):
        mag = sum(abs(a) * abs(x) ** (p - i) * abs(y) ** i
                  for i, a in enumerate(f.float_coeffs()))
        assert abs(f.eval_float(x, y) - c) <= 8 * p * 2.0 ** -52 * mag
        assert box is None or (x, y) == z or box[0] <= x <= box[2] and box[1] <= y <= box[3]
    assert all(a < b for a, b in zip(times, times[1:]))
    i = times.index(0.0)
    assert pts[i] == z
    if status == "ok":
        assert (times[0], times[-1]) == (-horizon, horizon)
    elif status == "blowup":
        assert box is not None and -horizon <= times[0] and times[-1] <= horizon
    else:       # many short turns: each way stops after its budget of samples
        assert status == "step_limit" and len(times) == 2 * 10_000 + 1
    assert 0 <= t_err < 1e-9 * (1 + horizon)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32), st.floats(0, 2 * math.pi), st.floats(0.2, 1.5),
       st.floats(-6.0, 6.0),
       st.sampled_from([None, (-4.0, -4.0, 4.0, 4.0), (-1.0, -1.5, 1.5, 1.0)]))
def test_the_radius_bound_holds_and_skipping_the_sweep_moves_nothing(seed, angle, radius,
                                                                     T, box):
    """Every point of the level curve, on a grid 8 times finer than the
    table's nodes, lies within R(c) = |c|^(1/p) rmax (1 + 1e-9); and the
    sweep (rmax forced to inf) gives the point and t_err of the skip, bit
    for bit, or the same error."""
    rng = random.Random(seed)
    while (s := random_product(rng, 12)).l or not s.k:
        pass
    f = s.form
    table = _closed(f)[1]
    if table is None:
        return
    z = (radius * math.cos(angle), radius * math.sin(angle))
    c = f.eval_float(*z)
    R = abs(c) ** (1 / f.degree) * table.rmax * (1 + 1e-9)
    point, _ = _radial(f, c, None)
    m = 8 * table.nodes
    assert all(math.hypot(*point(_TAU * j / m)) <= R for j in range(m))

    def shift():
        try:
            (x, y), t_err = table.shift(z, T, box)
        except (BlowUpError, StepLimitError) as e:
            return type(e), str(e)
        return x.hex(), y.hex(), t_err.hex()

    skip = shift()
    table.rmax = math.inf
    assert shift() == skip


def test_the_radius_bound_is_close_on_a_circle_and_an_ellipse():
    # min |f| on the circle is 1 for x^2 + y^2 and 1/100 for x^2 + y^2/100
    for text, rmin in (("x^2+y^2", 1.0), ("x^2+1/100*y^2", 10.0)):
        table = _closed(_form(text))[1]
        assert rmin <= table.rmax < 1.25 * rmin


def test_the_twiddles_are_the_cos_and_sin_of_the_nodes():
    # e^(-2 pi i k / 2n) as the table used to compute it, with _TAU = 2 pi,
    # is bit for bit e^(-i pi k / n) at the node's angle, in whichever
    # doubling the node was first evaluated
    n = 1
    while n <= _MAX_NODES:
        for k in range(n):
            a = math.pi * k / n
            assert a == _TAU * k / (2 * n) == math.pi * (2 * k) / (2 * n)
            old = complex(math.cos(_TAU * k / (2 * n)), -math.sin(_TAU * k / (2 * n)))
            new = complex(math.cos(a), -math.sin(a))
            assert (old.real.hex(), old.imag.hex()) == (new.real.hex(), new.imag.hex())
        n *= 2


@pytest.mark.parametrize("n", [2 ** k for k in range(11)])
def test_fft_agrees_with_a_direct_dft(n):
    rng = random.Random(n)
    a = [rng.uniform(-1.0, 1.0) for _ in range(n)]
    tw = [complex(math.cos(math.pi * k / n), -math.sin(math.pi * k / n)) for k in range(n)]
    got = _fft(a, tw)
    assert len(got) == n
    scale = math.fsum(map(abs, a))
    for k in range(n):
        angles = [_TAU * (j * k % n) / n for j in range(n)]
        want = complex(math.fsum(x * math.cos(t) for x, t in zip(a, angles)),
                       -math.fsum(x * math.sin(t) for x, t in zip(a, angles)))
        assert abs(got[k] - want) <= 1e-12 * scale


def test_the_table_bits_are_pinned():
    for text, mean, gamma0 in (
            ("(x^2+y^2)*(x^2+2*y^2)", "0x1.ab54359ab5344p-1",
             ("-0x1.0000000000000p-60", "-0x1.265e17e68afc6p-4")),
            ("3/2*(x^2+1/2*y^2)^2", "0x1.e2b7dddfefa66p+0",
             ("0x1.6000000000000p-55", "0x1.4b491129e6774p-2"))):
        table = _closed(_form(text))[1]
        assert table.nodes == 256
        assert table.mean.hex() == mean
        assert (table.gamma[0].real.hex(), table.gamma[0].imag.hex()) == gamma0


def test_portrait_csv_formats_each_point_as_its_own_row_would():
    port = orbit_portrait(_form("(x^2+y^2)*(x^2+2*y^2)"), [(0.7, 0.2)], (-2, -2, 2, 2),
                          res=16, horizon=50.0)
    (orb,) = port.orbits
    assert len(set(map(id, orb.points))) < len(orb.points)      # it repeats its tuples
    # equal points of other signs of zero are other rows
    z, w = (0.0, 1.0), (-0.0, 1.0)
    signed = Orbit(1, z, (0.0, 1.0, 2.0, 3.0), (z, w, z, w), "ok", 0.0)
    port = Portrait(port.window, port.resolution, port.level_curves, (orb, signed),
                    port.singular_point)
    rows = [f"orbit,{o.seed_index},{_fmt(t)},{_fmt(x)},{_fmt(y)}"
            for o in port.orbits for t, (x, y) in zip(o.times, o.points)]
    lines = portrait_csv(port).splitlines()
    assert [ln for ln in lines if ln.startswith("orbit,")] == rows
    assert rows[-2:] == ["orbit,1,2,0,1", "orbit,1,3,-0,1"]
