"""The float paths against their generic forms in ``oracles``, bit for bit.

Forms, bivariate polynomials and planar fields evaluate through a compiled
``float_kernel``, and ``integrate_flow`` writes its Dormand-Prince stage
sums out term by term.  Neither may move a single output bit, so every comparison here is on
``float.hex`` (which also tells -0.0 from 0.0), never approximate.
"""

import math
import random
import sys
from fractions import Fraction

import pytest

from binform.dynamics import FlowConfig, integrate_flow
from binform.exprparse import parse_polynomial, to_homogeneous
from binform.hamfield import PlanarPolyField, reduced_field
from binform.polyring import BivariatePoly, HomogeneousForm, constant_form, partials
from genforms import random_product
from oracles import bivariate_eval_float, form_eval_float, generic_flow, plain_sum

POINTS = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (1.0, -0.0),
          (-0.0, 2.5), (0.7, -1.3), (-3.0, 0.25), (1e-200, 3.0), (1e30, -2e30),
          (1e100, 1.0), (-1e160, 1e160), (1e300, 1e300)]


def _outcome(fn, *args):
    try:
        return fn(*args).hex()
    except (OverflowError, ValueError) as e:
        return type(e).__name__


def _bits(times, points, status):
    return ([t.hex() for t in times], [(x.hex(), y.hex()) for x, y in points], status)


def _flow_bits(fld, z0, T, cfg):
    traj = integrate_flow(fld, z0, T, cfg)
    return _bits(traj.times, traj.points, traj.status)


def _field(p_terms, q_terms):
    return PlanarPolyField(P=BivariatePoly(p_terms), Q=BivariatePoly(q_terms))


def _sample_forms():
    rng = random.Random(20261018)
    forms = [random_product(rng, max_degree=8).form for _ in range(24)]
    assert {f.degree for f in forms} == set(range(1, 9))
    return forms


# -- eval_float ----------------------------------------------------------------

def test_plain_sum_is_sum_on_311():
    terms = [0.1] * 10 + [1e16, 1.0, -1e16, -0.0]
    assert plain_sum([-0.0]) == 0.0 and math.copysign(1.0, plain_sum([-0.0])) == 1.0
    if (3, 11) <= sys.version_info[:2] < (3, 12):
        assert sum(terms).hex() == plain_sum(terms).hex()


def test_form_eval_float_matches_generic_formula():
    forms = _sample_forms()
    forms += [HomogeneousForm.zero_marker(d) for d in (0, 1, 4)]
    forms += [constant_form(Fraction(-7, 3)), constant_form(5)]
    forms += [d for f in forms[:6] for d in partials(f)]
    for f in forms:
        for x, y in POINTS:
            want = _outcome(form_eval_float, f.coefficients(), x, y)
            # twice: the first call fills the float cache, the second reads it
            assert _outcome(f.eval_float, x, y) == want, (f, x, y)
            assert _outcome(f.eval_float, x, y) == want, (f, x, y)


def test_bivariate_eval_float_matches_generic_formula():
    polys = [BivariatePoly({}), BivariatePoly({(0, 0): Fraction(-1, 3)}),
             BivariatePoly({(1, 1): 1, (3, 0): Fraction(2, 7), (0, 5): -4})]
    for f in _sample_forms():
        fld = reduced_field(f)
        polys += [f.to_bivariate(), fld.P, fld.Q]
    for g in polys:
        for x, y in POINTS:
            want = _outcome(bivariate_eval_float, g.terms, x, y)
            assert _outcome(g.eval_float, x, y) == want, (g, x, y)
            assert _outcome(g.eval_float, x, y) == want, (g, x, y)


def test_a_coefficient_beyond_the_float_range_fails_as_in_the_oracle():
    # x^9 overflows at x = 1e150 too, but the coefficient 10^400 is met first
    big = Fraction(10**400)
    g = BivariatePoly({(9, 0): 1, (0, 0): big})
    f = HomogeneousForm([1] + [0] * 8 + [big])

    def raised(fn, *args):
        with pytest.raises(OverflowError) as e:
            fn(*args)
        return type(e.value), str(e.value)

    want = raised(bivariate_eval_float, g.terms, 1e150, 1.0)
    assert want == raised(float, big)
    assert raised(g.eval_float, 1e150, 1.0) == want
    assert raised(form_eval_float, f.coefficients(), 1e150, 1.0) == want
    assert raised(f.eval_float, 1e150, 1.0) == want


def test_float_cache_cannot_be_seen():
    f = HomogeneousForm([Fraction(3, 7), -2, 0, Fraction(1, 3)])
    g = HomogeneousForm([Fraction(3, 7), -2, 0, Fraction(1, 3)])
    h = f.scale_by(Fraction(-5, 2))
    before = (f == g, hash(f) == hash(g), hash(f), f.proportional_to(h), repr(f))
    value = f.eval_float(0.3, -1.7)
    assert (f == g, hash(f) == hash(g), hash(f), f.proportional_to(h), repr(f)) == before
    assert before[:2] == (True, True) and before[3]
    assert {f: 1}[g] == 1 and h.proportional_to(f)
    with pytest.raises(AttributeError):
        f._floats = (0.0, 0.0, 0.0, 0.0)
    with pytest.raises(AttributeError):
        f.extra = 1
    cs = f.float_coeffs()
    assert cs == [float(c) for c in f.coefficients()]
    cs[0] = 1e9
    cs.append(5.0)
    assert f.float_coeffs() == [float(c) for c in f.coefficients()]
    assert f.eval_float(0.3, -1.7) == value
    p = f.to_bivariate()
    q = f.to_bivariate()
    p.eval_float(1.5, 2.0)
    assert p == q and hash(p) == hash(q)


# -- integrate_flow --------------------------------------------------------------

def test_flows_of_reduced_fields_match_generic_loop():
    cfg = FlowConfig(box=(-4.0, -4.0, 4.0, 4.0))
    seeds = [(0.7, 0.3), (-0.45, 1.1), (-0.0, 0.8)]
    for f in _sample_forms():
        fld = reduced_field(f)
        for z0 in seeds:
            for T in (1.0, -1.0):
                want = _bits(*generic_flow(fld, z0, T, cfg))
                assert _flow_bits(fld, z0, T, cfg) == want, (f, z0, T)


rotate = _field({(0, 1): -2}, {(1, 0): 2})
decay = _field({(1, 0): -1}, {(0, 1): -1})
square = _field({(2, 0): 1}, {})
square_xy = _field({(1, 1): 1}, {(1, 1): 1})
steep = _field({(2, 1): 2}, {(0, 0): 1})
sigma = BivariatePoly({(1, 0): Fraction(3, 4), (0, 1): Fraction(3, 4),
                       (0, 0): Fraction(1, 2)})
EDGE_FLOWS = {
    "blowup in the box": (square, (1.0, 0.0), 2.0, FlowConfig(box=(-50, -50, 50, 50))),
    "stall at the origin": (decay, (1.0, 1.0), 80.0, FlowConfig()),
    "stationary start": (decay, (0.0, -0.0), 1.0, FlowConfig()),
    "clipped last step": (rotate, (-0.657, -0.103), sigma.eval_float(-0.657, -0.103),
                          FlowConfig()),
    "step limit": (rotate, (1.0, 0.0), 10.0, FlowConfig(max_steps=5)),
    "step-size floor": (square, (1.0, 0.0), 2.0, FlowConfig(max_steps=3000)),
    "non-finite stages": (square_xy, (1e150, 1e150), 1.0, FlowConfig(max_steps=400)),
    # some rejected steps meet an infinite field value first at stage 7
    "infinite last stage": (steep, (-1e4, 1e6), 1.0, FlowConfig(max_steps=600)),
    "zero time": (rotate, (1.0, 0.0), 0.0, FlowConfig()),
}


@pytest.mark.parametrize("name", sorted(EDGE_FLOWS))
def test_edge_flows_match_generic_loop(name):
    fld, z0, T, cfg = EDGE_FLOWS[name]
    assert _flow_bits(fld, z0, T, cfg) == _bits(*generic_flow(fld, z0, T, cfg))


OVERFLOWING = {
    # the field is about 1e10 at the start; stage points of a 0.01 step land
    # where x**i overflows
    "power overflow": ("(x^2+y^2)*(x^2+2*y^2)*(x^2+3*y^2)*(x^2+5*y^2)*(x^2+7*y^2)"
                       "*(2*x^2+y^2)*(3*x^2+y^2)*(5*x^2+y^2)", (1.9, 1.9), 20.0),
    # after the first halvings a stage sums terms of inf and -inf
    "fsum of inf and -inf": ("48*x^9 - 560*x^8*y + 2359*x^7*y^2 - 7671/2*x^6*y^3"
                             " + 45*x^5*y^4 + 5211*x^4*y^5 - 2025*x^3*y^6"
                             " - 3159/2*x^2*y^7 + 729*x*y^8",
                             (-3.060370063030814, 1.7689666468640723), -1.0),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING))
def test_overflowing_stage_halves_the_step(name):
    # both used to raise out of integrate_flow (OverflowError, then ValueError)
    text, z0, T = OVERFLOWING[name]
    fld = reduced_field(to_homogeneous(parse_polynomial(text)))
    cfg = FlowConfig(max_steps=2000, box=(-4, -4, 4, 4))
    traj = integrate_flow(fld, z0, T, cfg)
    assert traj.status in ("step_limit", "blowup")
    assert len(traj.times) > 1
    short = FlowConfig(max_steps=200, box=(-4, -4, 4, 4))
    assert _flow_bits(fld, z0, -T, short) == _bits(*generic_flow(fld, z0, -T, short))
