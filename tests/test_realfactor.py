import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import binform.realfactor as rf
from binform.polyring import (
    HomogeneousForm,
    UnivariatePoly,
    gcd_univariate,
    squarefree_decomposition,
)
from binform.realfactor import (
    FactorizationStructure,
    IsolatedRoot,
    factor_form,
    isolate_real_roots,
    refine,
)

import oracles
from genforms import random_product

F = Fraction


def U(*coeffs):
    return UnivariatePoly(coeffs)


def test_isolate_three_roots():
    # (t-1)(t-2)(t+3) = t^3 - 7t + 6
    u = U(6, -7, 0, 1)
    roots = sorted(isolate_real_roots(u), key=lambda r: r.mid)
    assert len(roots) == 3
    for r, target in zip(roots, (F(-3), F(1), F(2))):
        assert r.contains(target)
    # interiors are pairwise disjoint (endpoints may touch at non-roots)
    for a, b in zip(roots, roots[1:]):
        assert a.hi <= b.lo


def test_isolate_no_real_roots():
    assert isolate_real_roots(U(1, 0, 1)) == []
    assert isolate_real_roots(U(4, 0, 1, 0, 1)) == []


def test_root_refine_keeps_root():
    u = U(-2, 0, 1)            # t^2 - 2
    r = max(isolate_real_roots(u), key=lambda r: r.mid)
    tight = r.refine(1e-12)
    assert tight.width <= F(1e-12)
    assert tight.lo > 0
    assert tight.lo ** 2 <= 2 <= tight.hi ** 2


def test_factor_xy2():
    f = HomogeneousForm([0, 0, 1, 0])
    fs = factor_form(f)
    assert fs.sign == 1
    assert (fs.l, fs.k) == (2, 0)
    axis = [lf for lf in fs.linear if lf.is_axis]
    rooted = [lf for lf in fs.linear if not lf.is_axis]
    assert len(axis) == 1 and axis[0].alpha == 1
    assert len(rooted) == 1 and rooted[0].alpha == 2
    assert rooted[0].root.contains(F(0))


def test_factor_two_definite_quadratics():
    # (x^2+y^2)(x^2+2y^2) = x^4 + 3x^2y^2 + 2y^4
    f = HomogeneousForm([1, 0, 3, 0, 2])
    fs = factor_form(f)
    assert (fs.l, fs.k) == (0, 2)
    assert [qf.beta for qf in fs.quadratic] == [1, 1]
    cs = sorted(qf.c_mid for qf in fs.quadratic)
    assert abs(cs[0] - 1) < 1e-9 and abs(cs[1] - 2) < 1e-9
    assert all(abs(qf.b_mid) < 1e-9 for qf in fs.quadratic)


def test_factor_three_lines():
    # x^3 - 3xy^2 = x(x - sqrt(3) y)(x + sqrt(3) y)
    f = HomogeneousForm([1, 0, -3, 0])
    fs = factor_form(f)
    assert (fs.l, fs.k) == (3, 0)
    assert all(lf.alpha == 1 for lf in fs.linear)


def test_factor_negative_double_line():
    f = HomogeneousForm([-1, 0, 0])    # -x^2
    fs = factor_form(f)
    assert fs.sign == -1
    assert (fs.l, fs.k) == (1, 0)
    assert fs.linear[0].alpha == 2


def test_factor_repeated_quadratic():
    # (x^2+y^2)^2 (2x^2+y^2)
    a = HomogeneousForm([1, 0, 1])
    b = HomogeneousForm([2, 0, 1])
    fs = factor_form(a * a * b)
    assert (fs.l, fs.k) == (0, 2)
    assert sorted(qf.beta for qf in fs.quadratic) == [1, 2]


def test_factor_four_lines_quartic():
    # x^4 - 6x^2y^2 + y^4 splits into four real lines
    f = HomogeneousForm([1, 0, -6, 0, 1])
    fs = factor_form(f)
    assert (fs.l, fs.k) == (4, 0)


def test_enclosures_shrink_under_refine():
    f = HomogeneousForm([1, 0, 3, 0, 2])
    fs = factor_form(f, eps=1e-6)
    tighter = refine(fs, 1e-40)
    assert tighter.max_width() <= F(1e-40)
    assert (tighter.l, tighter.k) == (fs.l, fs.k)
    assert [qf.beta for qf in tighter.quadratic] == [qf.beta for qf in fs.quadratic]


def test_random_products_recover_structure():
    rng = random.Random(23)
    for _ in range(60):
        s = random_product(rng)
        fs = factor_form(s.form)
        assert fs.sign == s.sign
        assert fs.l == s.l and fs.k == s.k
        assert sorted(lf.alpha for lf in fs.linear) == sorted(s.line_mults)
        assert sorted(qf.beta for qf in fs.quadratic) == sorted(s.quad_mults)
        assert fs.degree == s.degree
        assert fs.is_separated()
        assert fs.reconstruction_gap() < 1e-7


def test_reconstruction_gap_detects_a_moved_coefficient():
    # moving the coefficient next to the largest one up or down by 1e-6 of
    # the largest puts f that far outside the product enclosure
    rng = random.Random(23)
    for n in range(30):
        fs = factor_form(random_product(rng).form)
        cs = list(fs.form.coefficients())
        imax = max(range(len(cs)), key=lambda i: abs(cs[i]))
        cs[(imax + 1) % len(cs)] += (-1) ** n * abs(cs[imax]) / 10**6
        moved = FactorizationStructure(form=HomogeneousForm(cs), sign=fs.sign,
                                       linear=fs.linear, quadratic=fs.quadratic)
        assert 5e-7 <= moved.reconstruction_gap() <= 2e-6


def test_quadratic_enclosures_are_definite():
    rng = random.Random(5)
    for _ in range(20):
        s = random_product(rng)
        if not s.k:
            continue
        for qf in factor_form(s.form).quadratic:
            b, c = qf.b_mid, qf.c_mid
            assert b * b - 4 * c < 0


def test_factor_rejects_constants():
    with pytest.raises(ValueError):
        factor_form(HomogeneousForm.zero_marker(2))


# ---------------------------------------------------------------------------
# the integer core against the Fraction oracle


def _mul_rows(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def structured_rows(draw):
    """Squarefree rows: distinct rational lines times distinct definite
    quadratics t^2 + b t + c, times a signed integer."""
    roots = draw(st.lists(st.fractions(-8, 8, max_denominator=12),
                          max_size=5, unique=True))
    quads = set()
    for b in draw(st.lists(st.integers(-6, 6), max_size=3)):
        quads.add((b, draw(st.integers(b * b // 4 + 1, b * b // 4 + 25))))
    row = [F(draw(st.integers(1, 50)) * draw(st.sampled_from((1, -1))))]
    for r in roots:
        row = _mul_rows(row, [-r, F(1)])
    for b, c in quads:
        row = _mul_rows(row, [F(c), F(b), F(1)])
    return row


@st.composite
def unstructured_rows(draw):
    """The squarefree part of a random integer polynomial of degree 1 to 9.
    Many coefficients are zero, so Sturm chains with degree gaps, where
    a pseudo-remainder carries an odd power of a leading coefficient, are
    common."""
    coeffs = draw(st.lists(st.integers(-20, 20) | st.just(0), min_size=2, max_size=10))
    if coeffs[-1] == 0:
        coeffs[-1] = 1
    t = sympy.Symbol("t")
    part = sympy.Poly(list(reversed(coeffs)), t).sqf_part()
    return [F(int(c)) for c in reversed(part.all_coeffs())]


def _sympy_count(row):
    t = sympy.Symbol("t")
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(row)], t).count_roots()


def _sympy_sqf_part(row):
    t = sympy.Symbol("t")
    part = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(row)], t).sqf_part()
    return [F(int(c.p), int(c.q)) for c in reversed(part.all_coeffs())]


def _check_against_oracle(row):
    roots = isolate_real_roots(UnivariatePoly(row))
    assert [(r.lo, r.hi) for r in roots] == oracles.sturm_isolate(row)
    assert len(roots) == _sympy_count(row)
    for r in roots:
        for eps in (1e-3, 1e-12, 2.0**-50):
            tight = r.refine(eps)
            lo, hi, _ = oracles.bisect_refine(row, r.lo, r.hi, eps)
            assert (tight.lo, tight.hi) == (lo, hi)
    # u^2, u (t+1)^2 and u (t^2-2)^2 isolate as their squarefree part does
    for extra in (row, [F(1), F(2), F(1)], [F(4), F(0), F(-4), F(0), F(1)]):
        u = _mul_rows(row, extra)
        part = _sympy_sqf_part(u)
        roots = isolate_real_roots(UnivariatePoly(u))
        assert [(r.lo, r.hi) for r in roots] == oracles.sturm_isolate(part)
        assert all(r.poly == UnivariatePoly(part).primitive()[0] for r in roots)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(structured_rows())
def test_integer_core_matches_fraction_oracle_on_products(row):
    if len(row) >= 2:
        _check_against_oracle(row)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(unstructured_rows())
def test_integer_core_matches_fraction_oracle_on_random_polys(row):
    if len(row) >= 2:
        _check_against_oracle(row)


@pytest.mark.parametrize("row", [
    [1, 1, 0, 0, 1],            # t^4 + t + 1: chain degrees 4, 3, 1, 0
    [-1, -1, 0, 0, 1],          # t^4 - t - 1, two real roots
    [1, -3, 0, 0, 0, 1],        # t^5 - 3t + 1, three real roots
])
def test_sturm_chains_with_degree_gaps(row):
    _check_against_oracle([F(c) for c in row])


def test_split_points_skip_rational_roots():
    # t(t-1)(t+1): B = 2, the midpoint 0 and the 3/4 point 1 are roots, so
    # the first split is at 1/2
    row = [F(0), F(-1), F(0), F(1)]
    _check_against_oracle(row)
    ivs = [(r.lo, r.hi) for r in isolate_real_roots(UnivariatePoly(row))]
    assert ivs == [(F(-2), F(-3, 4)), (F(-3, 4), F(1, 2)), (F(1, 2), F(2))]


def test_refine_lands_on_rational_roots():
    # (t+3)(t+1)(t-1): B = 4 and every root is the midpoint of its interval
    row = [F(-3), F(-1), F(3), F(1)]
    _check_against_oracle(row)
    for r in isolate_real_roots(UnivariatePoly(row)):
        for eps in (1e-3, 1e-12):
            assert oracles.bisect_refine(row, r.lo, r.hi, eps)[2]
            tight = r.refine(eps)
            assert tight.mid in (-3, -1, 1) and tight.width < F(eps)
    # t^3 - t on (-1/2, 1/2): the first midpoint is the root 0
    tight = IsolatedRoot(UnivariatePoly([0, -1, 0, 1]), F(-1, 2), F(1, 2)).refine(1e-9)
    assert (tight.lo, tight.hi) == \
        oracles.bisect_refine([0, -1, 0, 1], F(-1, 2), F(1, 2), 1e-9)[:2]
    assert tight.lo == -tight.hi


def test_isolating_a_squarefree_layer_takes_no_gcd(monkeypatch):
    calls = oracles.count_calls(monkeypatch, gcd_univariate)
    f = HomogeneousForm([1, 0, 1]) * HomogeneousForm([1, -1]) \
        * HomogeneousForm([2, 0, 1]).power(2) * HomogeneousForm([1, 3]).power(3)
    layers = squarefree_decomposition(f.dehomogenized())
    assert len(layers) == 3 and calls     # the wrapper sees Yun's gcds
    calls.clear()
    for w, _ in layers:
        isolate_real_roots(w)
    assert calls == []


def test_factor_form_isolates_each_layer_once(monkeypatch):
    calls = []
    original = rf.isolate_real_roots
    monkeypatch.setattr(rf, "isolate_real_roots",
                        lambda u: calls.append(u) or original(u))
    # layers: lines and quadratics at multiplicities 1, 2 and 3
    f = HomogeneousForm([1, 0, 1]) * HomogeneousForm([1, -1]) \
        * HomogeneousForm([2, 0, 1]).power(2) * HomogeneousForm([1, 3]).power(2) \
        * HomogeneousForm([1, 1, 1]).power(3)
    fs = factor_form(f)
    layers = [w for w, _ in squarefree_decomposition(f.dehomogenized())]
    assert (fs.l, fs.k) == (2, 3)
    assert calls == layers
