import gc
import math
import random
import sys
import threading
import weakref
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from binform.errors import NotHomogeneousError
from binform.exprparse import canonical_text, parse_polynomial
from binform.hamfield import PlanarPolyField
from binform.mat2 import Mat2
import binform.polyring as polyring
from binform.polyring import (
    BivariatePoly,
    HomogeneousForm,
    WeightVector,
    _derivative,
    _div_exact,
    compose_coeffs,
    compose_linear,
    constant_form,
    convolve,
    divide_exact,
    euler_check,
    float_kernel,
    gcd_bivariate,
    gcd_univariate,
    jet_order,
    partials,
    quasi_homogeneous_check,
    squarefree_decomposition,
)

from genforms import random_product
from oracles import bivariate_eval_float, count_calls, form_eval_float, old_normal_form

F = Fraction


def test_univariate_arithmetic():
    # univariate polynomials are int lists, lowest degree first
    f, g = [-1, 0, 1], [1, 1]  # t^2 - 1, t + 1
    assert convolve(f, g) == [-1, -1, 1, 1]
    assert _derivative(f) == [0, 2]
    assert _derivative([5]) == []


def test_univariate_divmod_exact():
    f = [-1, 0, 1]
    assert _div_exact(f, [1, 1]) == [-1, 1]
    assert _div_exact(f, [-1, 1]) == [1, 1]
    assert _div_exact([], [1, 1]) == []
    with pytest.raises(ValueError):
        _div_exact([1, 1, 1], [1, 1])
    with pytest.raises(ValueError):     # a divisor of higher degree
        _div_exact([1, 1], [1, 0, 1])
    with pytest.raises(ValueError):     # exact over Q, not over Z
        _div_exact([1, 1], [2, 2])


def test_gcd_univariate():
    f = [-1, 0, 1]             # (t-1)(t+1)
    g = [-1, 0, 0, 1]          # (t-1)(t^2+t+1)
    d = gcd_univariate(f, g)
    assert d == (-1, 1)        # primitive, positive leading coefficient
    assert _div_exact(f, d) == [1, 1] and _div_exact(g, d) == [1, 1, 1]
    # coprime pair collapses to degree zero
    assert gcd_univariate([1, 1], [-1, 1]) == (1,)
    # content, sign and trailing zeros of the inputs do not matter
    assert gcd_univariate([3, 0, -3, 0], [-2, 0, 0, 2]) == (-1, 1)
    assert gcd_univariate([0, 0], [0, -4, 6]) == (0, -2, 3)
    assert gcd_univariate([], [0]) == ()


def test_squarefree_decomposition():
    f = convolve(convolve([2, 1], [-1, 1]), [-1, 1])       # (t+2)(t-1)^2
    parts = squarefree_decomposition(f)
    assert parts == [((2, 1), 1), ((-1, 1), 2)]
    # reassembly
    prod = [1]
    for w, m in parts:
        for _ in range(m):
            prod = convolve(prod, w)
    assert prod == f
    # the same layers from -3 f with a trailing zero
    assert squarefree_decomposition([-3 * c for c in f] + [0]) == parts
    with pytest.raises(ValueError):
        squarefree_decomposition([5, 0])


def test_bivariate_expansion():
    x = BivariatePoly({(1, 0): 1})
    y = BivariatePoly({(0, 1): 1})
    sq = (x + y) * (x + y)
    assert sq.terms == {(2, 0): F(1), (1, 1): F(2), (0, 2): F(1)}
    assert sq.eval_exact(F(1, 2), F(1, 2)) == 1
    assert sq.partial_x().terms == {(1, 0): F(2), (0, 1): F(2)}


def test_equal_bivariate_polys_are_stored_alike():
    """nums / den in lowest terms is one pair per polynomial, however it was
    built: by the parser, +, *, scale, the partials or a form."""
    half_sum = BivariatePoly({(1, 0): F(1, 2), (0, 1): F(1, 2)})
    built = [parse_polynomial(t)
             for t in ("2/4*x+3/6*y", "(x+y)*1/2", "0.5*x+0.50*y", "(2*x+2*y)*1/4")]
    x, y = BivariatePoly({(1, 0): 3}), BivariatePoly({(0, 1): F(6, 4)})
    built += [x.scale(F(1, 6)) + y.scale(F(1, 3)),
              (x + y.scale(2)) * BivariatePoly({(0, 0): F(1, 6)}),
              parse_polynomial("x^2*1/4 + x*y*2/4").partial_x(),
              HomogeneousForm([F(3, 6), F(2, 4)]).to_bivariate()]
    for p in built:
        assert p == half_sum and hash(p) == hash(half_sum)
        assert (p.nums, p.den) == ({(1, 0): 1, (0, 1): 1}, 2)
        assert p.terms == half_sum.terms and canonical_text(p) == "1/2*x + 1/2*y"
    zero = parse_polynomial("x - x")
    assert zero == BivariatePoly({}) == x.scale(0) and (zero.nums, zero.den) == ({}, 1)


def test_form_coefficient_layout():
    # coefficients run from x^p down to y^p
    f = HomogeneousForm([0, 0, 1, 0])
    assert f.degree == 3
    assert f.eval_exact(2, 3) == 2 * 9
    g = HomogeneousForm([1, 0, 0, 0, -1])
    assert g.eval_exact(1, 1) == 0
    assert g.eval_exact(2, 1) == 15


def test_form_to_bivariate_round_trip():
    f = HomogeneousForm([3, 0, -2, 7])
    assert f.to_bivariate().to_form() == f
    mixed = BivariatePoly({(2, 0): 1, (0, 1): 1})
    with pytest.raises(NotHomogeneousError) as ei:
        mixed.to_form()
    assert sorted(ei.value.degrees) == [1, 2]


def test_partials_xy2():
    f = HomogeneousForm([0, 0, 1, 0])
    fx, fy = partials(f)
    assert fx.coefficients() == (F(0), F(0), F(1))     # y^2
    assert fy.coefficients() == (F(0), F(2), F(0))     # 2xy


def test_partials_degree_one():
    fx, fy = partials(HomogeneousForm([2, -3]))
    assert fx.degree == 0 and fx.coefficient(0) == 2
    assert fy.coefficient(0) == -3


def test_euler_identity_random():
    rng = random.Random(11)
    for _ in range(40):
        assert euler_check(random_product(rng).form)


def test_compose_linear_exact():
    f = HomogeneousForm([0, 0, 1, 0])                  # x y^2
    swap = Mat2.exact(0, 1, 1, 0)
    g = compose_linear(f, swap)
    assert g.coefficients() == (F(0), F(1), F(0), F(0))  # x^2 y
    shear = Mat2.exact(1, F(1, 2), 0, 1)
    h = compose_linear(f, shear)
    assert all(isinstance(c, F) for c in h.coefficients())
    assert h.eval_exact(1, 2) == f.eval_exact(*shear.apply(1, 2))


@pytest.mark.parametrize("p", [*range(1, 13), 30, 60])
def test_compose_coeffs_scalar_types_agree(p):
    rng = random.Random(300 + p)
    cs = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(p + 1)]
    mats = [[F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4)]
            for _ in range(5)]
    fcs = [float(c) for c in cs]
    batch = np.array(compose_coeffs(
        fcs, *(np.array([float(m[j]) for m in mats]) for j in range(4))))
    assert batch.shape == (p + 1, len(mats))
    for col, m in enumerate(mats):
        exact = compose_coeffs(cs, *m)
        assert all(isinstance(c, F) for c in exact)
        # the exact composition is f(h z) at rational points
        for x, y in ((1, 0), (0, 1), (F(2, 3), F(-5, 4))):
            hx, hy = m[0] * x + m[1] * y, m[2] * x + m[3] * y
            want = sum(c * hx ** (p - i) * hy ** i for i, c in enumerate(cs))
            assert sum(c * x ** (p - i) * y ** i for i, c in enumerate(exact)) == want
        floats = compose_coeffs(fcs, *(float(v) for v in m))
        # a batch column does the scalar arithmetic in the same order
        assert batch[:, col].tolist() == floats
        bound = compose_coeffs([abs(c) for c in fcs], *(abs(float(v)) for v in m))
        for got, want, b in zip(floats, exact, bound):
            assert abs(got - float(want)) <= 1e-13 * b


def test_gcd_bivariate():
    f = HomogeneousForm([0, 1, 0])                     # x y
    g = HomogeneousForm([0, 0, 1, 0])                  # x y^2
    d = gcd_bivariate(f, g)
    assert d.degree == 2
    assert d.proportional_to(f)
    one = gcd_bivariate(HomogeneousForm([1, 0]), HomogeneousForm([0, 1]))
    assert one.degree == 0


def test_divide_exact():
    f = HomogeneousForm([0, 0, 1, 0])
    d = HomogeneousForm([0, 1])                        # y
    q = divide_exact(f, d)
    assert q.coefficients() == (F(0), F(1), F(0))      # x y
    with pytest.raises(ValueError):
        divide_exact(f, HomogeneousForm([1, 1]))


def test_jet_order():
    f = HomogeneousForm([0, 0, 1, 0, 0, 0])            # x^3 y^2
    assert jet_order(f, (0, 0)) == 5
    assert jet_order(f, (1, 0)) == 2                   # double line through (1, 0)
    assert jet_order(f, (0, 1)) == 3
    assert jet_order(f, (1, 1)) == 0


def test_quasi_homogeneous_check():
    g = BivariatePoly({(3, 0): 1, (0, 2): -1})         # x^3 - y^2
    assert quasi_homogeneous_check(g, WeightVector(2, 3, 6))
    assert not quasi_homogeneous_check(g, WeightVector(1, 1, 3))
    assert quasi_homogeneous_check(BivariatePoly({}), WeightVector(1, 1, 1))
    with pytest.raises(ValueError):
        WeightVector(0, 1, 1)


def test_zero_marker_behaviour():
    z = HomogeneousForm.zero_marker(3)
    assert z.is_zero
    f = HomogeneousForm([1, 0, 0, 0])
    prod = f * z
    assert prod.is_zero and prod.degree == 6
    assert (-z).is_zero


def test_coefficient_storage_agrees_with_the_old_normalization():
    """Forms store a scale and a primitive int tuple; equality, hashing,
    proportionality and the primitive part must behave as they did over the
    (sign, scale, prim) triple, on random products, their rescalings, forms
    built from rationals with a common factor or denominator, round trips
    through BivariatePoly, partials, exact quotients, zero markers and
    constants."""
    rng = random.Random(73)
    forms = []
    for _ in range(30):
        f = random_product(rng).form
        s = F(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
        forms += [f, f.scale_by(s), -f, HomogeneousForm(list(f.coefficients())),
                  f.scale_by(s).to_bivariate().to_form(), *partials(f.scale_by(s)),
                  divide_exact(f.scale_by(s) * HomogeneousForm([s, -2]), f)]
    forms += [HomogeneousForm(cs) for cs in ([F(2, 4), 0, F(-6, 8)], [4, -6, 8],
                                             [F(3, 9), F(6, 9), 0], [0, F(-10, 4)],
                                             [F(-2, 6), F(4, 6)])]
    forms += [HomogeneousForm.zero_marker(d) for d in (0, 1, 1, 3)]
    forms += [constant_form(F(c, 3)) for c in (-3, -1, 1, 2, 2)]
    forms += partials(HomogeneousForm([F(4, 6), 0, 0]))       # f_y is a zero marker
    old = [old_normal_form(f.coefficients()) for f in forms]
    for f, (deg, _, scale, prim) in zip(forms, old):
        assert f.degree == deg and f.is_zero == (scale == 0)
        assert f.coefficients() == tuple(f.scale * n for n in f.ints)
        assert f.float_coeffs() == [float(c) for c in f.coefficients()]
        if f.is_zero:
            assert f.ints == (0,) * (deg + 1)
        else:
            assert math.gcd(*f.ints) == 1 and next(n for n in reversed(f.ints) if n) > 0
            assert f.primitive_part().coefficients() == prim
    for f, nf in zip(forms, old):
        for g, ng in zip(forms, old):
            assert (f == g) == (nf == ng)
            if f == g:
                assert hash(f) == hash(g)
            same_line = nf[2] != 0 and ng[2] != 0 and (nf[0], nf[3]) == (ng[0], ng[3])
            assert f.proportional_to(g) == same_line


# ---------------------------------------------------------------------------
# sympy as the oracle of the exact core

_X, _Y, _T = sympy.symbols("x y t")


@st.composite
def _factor(draw):
    """An integer line, a power x^i y^j or a definite quadratic, repeated."""
    kind = draw(st.sampled_from(["line", "monomial", "quadratic"]))
    if kind == "line":
        a, b = draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any))
        base = HomogeneousForm([a, b])
    elif kind == "monomial":
        i, j = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any))
        base = HomogeneousForm([0] * j + [1] + [0] * i)        # x^i y^j
    else:
        a, b = draw(st.integers(1, 3)), draw(st.integers(-4, 4))
        base = HomogeneousForm([a, b, b * b // (4 * a) + draw(st.integers(1, 3))])
    return base.power(draw(st.integers(1, 3)))


@st.composite
def _forms(draw):
    """A scaled product of one or two factors, a constant or a zero marker."""
    kind = draw(st.integers(0, 7))
    if kind == 0:
        return HomogeneousForm.zero_marker(draw(st.integers(0, 4)))
    scale = F(draw(st.integers(1, 6)) * draw(st.sampled_from((1, -1))),
              draw(st.integers(1, 4)))
    if kind == 1:
        return constant_form(scale)
    out = constant_form(scale)
    for _ in range(draw(st.integers(1, 2))):
        out = out * draw(_factor())
    return out


def _expr(f):
    p = f.degree
    return sum((sympy.Rational(c.numerator, c.denominator) * _X ** (p - i) * _Y ** i
                for i, c in enumerate(f.coefficients())), sympy.Integer(0))


def _frac(r):
    return F(int(r.p), int(r.q))


def _form_coeffs(expr, p):
    """The coefficients of x^(p-i) y^i of a sympy expression, as Fractions."""
    poly = sympy.Poly(expr, _X, _Y)
    return tuple(_frac(poly.coeff_monomial(_X ** (p - i) * _Y ** i)) for i in range(p + 1))


def _t_poly(cs):
    """The polynomial in t with coefficients cs, lowest degree first."""
    return sympy.Poly(list(reversed(cs)) or [0], _T, domain="QQ")


def _t_coeffs(poly):
    """Coefficients of a sympy polynomial in t, lowest degree first, the
    zero polynomial as ()."""
    cs = [_frac(c) for c in reversed(poly.all_coeffs())]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _primitive(cs, first=False):
    """cs as coprime integers whose last (or first) nonzero entry is positive."""
    cs = [F(c) for c in cs]
    if not any(cs):
        return tuple(cs)
    den = math.lcm(*(c.denominator for c in cs))
    ints = [int(c * den) for c in cs]
    lead = [n for n in ints if n][0 if first else -1]
    g = math.gcd(*ints) * (1 if lead > 0 else -1)
    return tuple(n // g for n in ints)


def _int_row(f):
    """f(1, t) as integers proportional to f's coefficients, lowest degree
    first, with no trailing zeros: f's sign, and a content of 3 at least,
    so that the functions under test must remove it."""
    cs = list(f.coefficients())
    while cs and cs[-1] == 0:
        cs.pop()
    den = math.lcm(*(c.denominator for c in cs))
    return [int(c * den) * 3 for c in cs]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_forms(), _forms(), _forms())
def test_exact_core_matches_sympy(c, u, v):
    """Products, gcds, exact quotients and square-free layers against
    sympy, on f = c*u and g = c*v."""
    f, g = c * u, c * v
    for a, b in ((c, u), (f, g)):
        assert (a * b).coefficients() == _form_coeffs(sympy.expand(_expr(a) * _expr(b)),
                                                      a.degree + b.degree)
    fe, ge = _expr(f), _expr(g)
    # univariate gcd of f(1, t) and g(1, t), given as integer rows with a
    # content, primitive with lc > 0
    fu, gu = _int_row(f), _int_row(g)
    want = _primitive(_t_coeffs(sympy.gcd(_t_poly(f.coefficients()),
                                          _t_poly(g.coefficients()))))
    assert gcd_univariate(fu, gu) == want
    # bivariate gcd, primitive with the first nonzero coefficient positive
    if f.is_zero and g.is_zero:
        with pytest.raises(ValueError):
            gcd_bivariate(f, g)
    else:
        d = gcd_bivariate(f, g)
        assert d.coefficients() == _primitive(_form_coeffs(sympy.gcd(fe, ge), d.degree),
                                              first=True)
    # exact quotients, and ValueError exactly when sympy leaves a remainder
    for num, den in ((f, c), (f, u), (g, v), (f, g), (g, f)):
        if den.is_zero:
            continue
        q, r = sympy.div(_expr(num), _expr(den), _X, _Y)
        if (num.is_zero or r == 0) and den.degree <= num.degree:
            quot = divide_exact(num, den)
            assert quot.coefficients() == _form_coeffs(q, num.degree - den.degree)
        else:
            with pytest.raises(ValueError):
                divide_exact(num, den)
    # square-free layers of f(1, t) against sqf_list, constants dropped
    if len(fu) >= 2:
        layers = squarefree_decomposition(fu)
        _, facs = sympy.sqf_list(_t_poly(f.coefficients()))
        assert layers == [(_primitive(_t_coeffs(w)), m)
                          for w, m in sorted(facs, key=lambda wm: wm[1]) if w.degree() > 0]


@st.composite
def _int_rows(draw, degree, bound):
    """A row of exactly degree + 1 integers up to bound, the last not 0."""
    row = draw(st.lists(st.integers(-bound, bound), min_size=degree, max_size=degree))
    return row + [draw(st.integers(-bound, bound).filter(bool))]


@st.composite
def _gcd_pairs(draw):
    """Integer rows a = s g u and b = r g v, lowest degree first: g of
    degree up to 40, coefficients up to 10^60, a content shared by both or
    of either sign, and zero and constant rows among them."""
    bound = draw(st.sampled_from((1, 9, 10**6, 10**60)))
    g = draw(_int_rows(draw(st.integers(0, 40)), bound))
    a, b = (convolve(g, draw(_int_rows(draw(st.integers(0, 8)), bound))) for _ in range(2))
    shared = draw(st.integers(1, 10**20))
    s, r = (draw(st.integers(-10**6, 10**6).filter(bool)) * shared for _ in range(2))
    a, b = [s * c for c in a], [r * c for c in b]
    kind = draw(st.integers(0, 5))
    if kind == 0:       # a zero row
        a = [0] * draw(st.integers(0, 3))
    elif kind == 1:     # a constant row
        a = [draw(st.integers(-10**60, 10**60).filter(bool))]
    return (a, b) if draw(st.booleans()) else (b, a)


# a gcd of degree 40 with coefficients near 10^60: values and digits of more
# than 32 coefficients, so evaluation and read-back split into halves
_G40 = [(-1) ** i * (10**60 - i) for i in range(41)]
_GCD_OF_DEGREE_40 = (convolve(_G40, [1, 2, 3]), convolve(_G40, [3, -1, 4, 1, 5]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_gcd_pairs())
@example(([], [0]))
@example(([5], [0, 0]))
@example(([0, 6, -1, -11, 6], [0, 8, 10, -3]))
@example(([8, -4, 2, 9, 3], [4, 10, 2, 5, 3]))      # pp(h) = 4 + 4t + t^2 divides only a
@example(_GCD_OF_DEGREE_40)
def test_gcd_univariate_matches_sympy(pair):
    a, b = pair
    want = _primitive(_t_coeffs(sympy.gcd(_t_poly(a), _t_poly(b))))
    assert gcd_univariate(a, b) == want
    # the core's cofactors, which Yun keeps, are the exact quotients
    g, qa, qb = polyring._gcd_cofactors(a, b)
    assert g == want
    for row, q in ((a, qa), (b, qb)):
        assert polyring._trim(convolve(g, q) if q else []) == polyring._trim(row)


def test_a_gcd_whose_first_point_fails_doubles_k(monkeypatch):
    """a = 2 (1 + 2t)(4 + 3t - 3t^2) and b = 6t (1 + 2t): at the first
    point 2^3 the integer gcd is 136, whose digits give t (1 + 2t), which
    does not divide a; at 2^6 they give the gcd 1 + 2t."""
    tries = count_calls(monkeypatch, polyring._digits)
    assert gcd_univariate([8, 22, 6, -12], [0, 6, 12]) == (1, 2)
    assert [args[1] for args, _ in tries] == [3, 6]


def _sympy_jet_order(f, z):
    """The least total degree in the expansion of f(z1 + u, z2 + v)."""
    u, v = sympy.symbols("u v")
    z1, z2 = (sympy.Rational(c.numerator, c.denominator) for c in map(F, z))
    shifted = sympy.Poly(sympy.expand(_expr(f).subs({_X: z1 + u, _Y: z2 + v},
                                                    simultaneous=True)), u, v)
    return min(sum(m) for m in shifted.monoms())


def test_jet_order_matches_sympy_on_lines_and_off_them():
    # the Taylor shift jet_order used to take, in sympy, is the oracle: at
    # the origin, at points of every rational line (x = 0 among them) and
    # at points off the zero set
    rng = random.Random(41)
    for _ in range(30):
        f = random_product(rng, max_degree=7).form
        points = [(0, 0), (0, F(rng.randint(1, 5), 2)), (1, 1), (F(-2, 3), 5)]
        for w, _ in sympy.factor_list(_t_poly(f.coefficients()))[1]:
            if w.degree() == 1:
                t = _frac(-w.nth(0) / w.nth(1))
                points += [(1, t), (F(-3, 2), F(-3, 2) * t)]
        for z in points:
            assert jet_order(f, z) == _sympy_jet_order(f, z), (f, z)


# ---------------------------------------------------------------------------
# the compiled float kernel against the generic formula, bit for bit

_EXPONENT = st.integers(0, 40)
_COEFF = st.one_of(
    st.fractions(-100, 100, max_denominator=50),
    st.integers(-10**250, 10**250).map(F),
    st.sampled_from([F(10**200), F(-10**200), F(1, 10**200), F(3, 7)]),
)
_SIGNS = st.sampled_from((1.0, -1.0))
_POINT_COORD = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf]),
    st.floats(-10.0, 10.0),
    st.builds(lambda v, s: s * v, st.floats(1e150, 1e300), _SIGNS),
    st.builds(lambda v, s: s * v, st.floats(1e-310, 1e-290), _SIGNS),
)


def _outcome(fn, *args):
    """float.hex of every value (so -0.0 is not 0.0), or the exception's
    type and message."""
    try:
        value = fn(*args)
    except (OverflowError, ValueError) as e:
        return type(e).__name__, str(e)
    return [v.hex() for v in value] if isinstance(value, tuple) else value.hex()


def _term_map(keys):
    return st.dictionaries(st.tuples(keys, keys), _COEFF, max_size=8)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_term_map(_EXPONENT), _POINT_COORD, _POINT_COORD)
def test_sparse_kernel_matches_generic_formula(terms, x, y):
    g = BivariatePoly(terms)            # the zero polynomial included
    assert _outcome(g.eval_float, x, y) == _outcome(bivariate_eval_float, g.terms, x, y)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.just(F(0)), _COEFF), min_size=1, max_size=24),
       _POINT_COORD, _POINT_COORD)
def test_form_kernel_matches_generic_formula(coeffs, x, y):
    # zero coefficients stay in the sum: 0.0 * inf is nan, and a power of a
    # zero term can still overflow
    if len(coeffs) >= 2 and any(coeffs):
        f = HomogeneousForm(coeffs)
    elif any(coeffs):
        f = constant_form(coeffs[0])
    else:
        f = HomogeneousForm.zero_marker(len(coeffs) - 1)
    assert _outcome(f.eval_float, x, y) == _outcome(form_eval_float, coeffs, x, y)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_term_map(st.integers(0, 6)), _term_map(st.integers(7, 40)),
       _POINT_COORD, _POINT_COORD)
# P's sum fails (inf + -inf, then an intermediate overflow) at points where
# Q's own power x**7 would overflow first
@example({(1, 0): 10**200, (0, 1): -10**200}, {(7, 0): 1}, 1e150, 1e150)
@example({(1, 0): 10**200, (0, 1): 10**200}, {(7, 0): 1}, 1e108, 1e108)
def test_field_kernel_matches_components_in_turn(p_terms, q_terms, x, y):
    """P and Q share one kernel; with disjoint exponents Q needs powers of
    its own, taken only after P's sum, so the first failure is P's."""
    fld = PlanarPolyField(P=BivariatePoly(p_terms), Q=BivariatePoly(q_terms))

    def in_turn(first, second):
        return lambda x, y: (bivariate_eval_float(first.terms, x, y),
                             bivariate_eval_float(second.terms, x, y))

    assert _outcome(fld.at, x, y) == _outcome(in_turn(fld.P, fld.Q), x, y)
    swapped = float_kernel(*([(i, j, c) for (i, j), c in g.terms.items()]
                             for g in (fld.Q, fld.P)))
    assert _outcome(swapped, x, y) == _outcome(in_turn(fld.Q, fld.P), x, y)


def _eval_exact_formula(g, x, y):
    """The Fraction formula that eval_exact's int sum replaced."""
    x, y = F(x), F(y)
    return sum((c * x**i * y**j for (i, j), c in g.nums.items()), F(0)) / g.den


def _exact_outcome(fn, *args):
    try:
        value = fn(*args)
    except (OverflowError, ValueError) as e:
        return type(e).__name__, str(e)
    assert type(value) is F
    return value


_EXACT_COORD = st.one_of(
    _POINT_COORD,
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, -1.5, math.nan]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10**30, 10**30),
    st.fractions(max_denominator=10**12),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_term_map(st.integers(0, 12)), _EXACT_COORD, _EXACT_COORD)
@example({(3, 2): F(3, 7), (0, 0): 1}, -0.0, 5e-324)
@example({(1, 1): -2}, 10**20, F(-1, 3))
def test_eval_exact_in_ints_matches_the_fraction_formula(terms, x, y):
    g = BivariatePoly(terms)            # the zero polynomial included
    assert _exact_outcome(g.eval_exact, x, y) == _exact_outcome(_eval_exact_formula, g, x, y)


def test_kernel_holds_no_reference_cycle():
    """The kernel's globals hold its coefficients, not the kernel, so
    dropping the last reference frees it without the cyclic collector."""
    k = float_kernel([(2, 0, F(1)), (1, 1, F(-3))], [(0, 3, F(1, 2))])
    assert k(1.5, -0.5) == (4.5, -0.0625)
    assert "k" not in k.__globals__
    ref = weakref.ref(k)
    gc.disable()
    try:
        del k
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# one compiled factory per shape, one bound kernel per object

def test_same_shape_objects_keep_their_own_coefficients():
    f, g = HomogeneousForm([1, -3, 2]), HomogeneousForm([5, 0, F(-1, 7)])
    p = BivariatePoly({(2, 1): 3, (0, 0): F(1, 3)})
    q = BivariatePoly({(2, 1): -2, (0, 0): 10**20})
    points = [(1.5, -0.25), (-2.0, 3.0), (0.1, 0.7)] * 3
    for x, y in points:             # interleaved, each after the other's bind
        for obj, coeffs in ((f, [1, -3, 2]), (g, [5, 0, F(-1, 7)])):
            assert obj.eval_float(x, y) == form_eval_float(coeffs, x, y)
        for obj in (p, q):
            assert obj.eval_float(x, y) == bivariate_eval_float(obj.terms, x, y)
    assert f._kernel is not g._kernel and p._kernel is not q._kernel


def test_same_shape_kernels_evaluate_alike_in_two_threads():
    forms = [HomogeneousForm([1, F(c, 3), -c, 7]) for c in range(1, 41)]
    points = [(0.5 + i / 7, 1.25 - i / 5) for i in range(50)]
    want = {c: [form_eval_float(f.coefficients(), x, y) for x, y in points]
            for c, f in enumerate(forms)}
    polyring._kernel_factory.cache_clear()     # both threads start unbound
    got: dict = {}

    def run(order):
        got[order] = {c: [forms[c].eval_float(x, y) for x, y in points] for c in order}

    threads = [threading.Thread(target=run, args=(order,))
               for order in (tuple(range(40)), tuple(reversed(range(40))))]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert all(vals == want for vals in got.values()) and len(got) == 2


def test_the_factory_cache_keeps_its_fixed_size():
    maxsize = polyring._kernel_factory.cache_info().maxsize
    kernels = [float_kernel([(i, 0, F(i + 1))]) for i in range(maxsize + 44)]
    info = polyring._kernel_factory.cache_info()
    assert info.currsize == info.maxsize == maxsize == 256
    # a kernel whose factory left the cache still evaluates, and so does a
    # new one of that shape
    assert kernels[0](2.0, 3.0) == 1.0 and kernels[3](2.0, 3.0) == 32.0
    assert float_kernel([(0, 0, F(9))])(2.0, 3.0) == 9.0


def test_a_coefficient_out_of_float_range_does_not_poison_its_shape():
    huge = BivariatePoly({(1, 0): 10**400, (0, 1): 1})
    with pytest.raises(OverflowError) as err:
        huge.eval_float(1.0, 1.0)
    with pytest.raises(OverflowError) as want:
        bivariate_eval_float(huge.terms, 1.0, 1.0)
    assert str(err.value) == str(want.value)
    fine = BivariatePoly({(1, 0): 3, (0, 1): 1})
    assert fine.eval_float(2.0, 1.0) == 7.0
    with pytest.raises(OverflowError):          # and it fails again, not bound
        huge.eval_float(1.0, 1.0)
