import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import binform.cli as cli
from binform.errors import (
    NotFiniteOrderError,
    NotPositiveDefiniteError,
    ToleranceTooLooseError,
)
from binform.mat2 import Mat2
from binform.polyring import HomogeneousForm, compose_linear
from binform.realfactor import factor_form
from binform import symgroup
from binform.exprparse import parse_polynomial, to_homogeneous
from binform.symgroup import (
    _STOP_DEFECT,
    _defect,
    _gauss_newton,
    _unit_target,
    DiagonalFamily,
    FiniteCyclicGroup,
    RotationFamily,
    ShearFamily,
    finite_order_of,
    invariance_residual,
    symmetry_group,
)

from genforms import random_case_de
from oracles import (
    _rot,
    _spd_roots,
    count_calls,
    induced_permutation,
    oracle_scan,
    scan_defect,
    transport_group,
)


def form(*coeffs):
    return HomogeneousForm(coeffs)


XY2 = form(0, 0, 1, 0)
THREE_LINES = form(1, 0, -3, 0)            # x^3 - 3xy^2
TWO_QUADS = form(1, 0, 3, 0, 2)            # (x^2+y^2)(x^2+2y^2)
FOUR_LINES = form(1, 0, -6, 0, 1)          # x^4 - 6x^2y^2 + y^4
LINE_AND_CIRCLE = form(0, 1, 0, 1, 0)      # xy(x^2+y^2)


def test_invariance_residual_detects_symmetry():
    rot = Mat2.rotation(2 * math.pi / 3)
    assert invariance_residual(THREE_LINES, rot) < 1e-14
    assert invariance_residual(THREE_LINES, Mat2.rotation(0.3)) > 1e-3


def test_quadratic_transport_carries_form():
    # gram matrices A of x^2+y^2 and B of x^2+2y^2; h = B^(-1/2) R A^(1/2)
    # takes the second quadratic to a positive multiple of the first
    sqrt_A, _ = _spd_roots([[1.0, 0.0], [0.0, 1.0]])
    _, inv_sqrt_B = _spd_roots([[1.0, 0.0], [0.0, 2.0]])
    src = form(1, 0, 1)
    dst = form(1, 0, 2)
    for theta in (0.0, 0.7, 2.0):
        h = Mat2.approx(*(inv_sqrt_B @ _rot(theta) @ sqrt_A).ravel())
        moved = compose_linear(dst, h)       # float coefficient list
        ratio = moved[0] / src.float_coeffs()[0]
        assert ratio > 0
        defect = max(abs(a - ratio * b)
                     for a, b in zip(moved, src.float_coeffs()))
        assert defect < 1e-12
        # det h = sqrt(det A / det B) > 0
        assert h.det() > 0
        assert math.isclose(h.det(), math.sqrt(0.5), rel_tol=1e-14)


def test_transport_rejects_indefinite_gram():
    with pytest.raises(NotPositiveDefiniteError):
        _spd_roots([[1.0, 0.0], [0.0, -1.0]])


def test_shear_family_case_a():
    g = symmetry_group(form(0, 0, 0, 1))   # y^3
    assert isinstance(g, ShearFamily)
    rng = random.Random(7)
    f = form(0, 0, 0, 1)
    for _ in range(25):
        h = g.member(rng.uniform(0.1, 3.0), rng.uniform(-2, 2))
        assert invariance_residual(f, h) < 1e-9
    assert g.component_count() == 1        # odd power: -id not allowed
    assert not g.contains_minus_id()


def test_shear_family_even_power_has_two_components():
    g = symmetry_group(form(0, 0, 1))      # y^2
    assert isinstance(g, ShearFamily)
    assert g.component_count() == 2
    assert g.contains_minus_id()


def test_diagonal_family_case_b():
    f = form(0, 0, 1, 0, 0, 0)             # x^3 y^2
    g = symmetry_group(f)
    assert isinstance(g, DiagonalFamily)
    assert {g.alpha_x, g.alpha_y} == {3, 2}
    rng = random.Random(8)
    for _ in range(25):
        h = g.member(rng.uniform(-1.5, 1.5))
        assert invariance_residual(f, h) < 1e-9
    assert not g.quarter_turn_in_group
    # x^2 y^2 admits the quarter turn swapping the axes
    gg = symmetry_group(form(0, 0, 1, 0, 0))
    assert gg.quarter_turn_in_group
    assert invariance_residual(form(0, 0, 1, 0, 0), gg.quarter_turn()) < 1e-12


def test_rotation_family_case_c():
    f = form(1, 0, 2, 0, 1)                # (x^2+y^2)^2
    g = symmetry_group(f)
    assert isinstance(g, RotationFamily)
    rng = random.Random(9)
    for _ in range(25):
        h = g.member(rng.uniform(0, 2 * math.pi))
        assert invariance_residual(f, h) < 1e-9


def test_rotation_family_skewed_quadratic():
    # (x^2 + xy + y^2)^3: definite but not circular
    q = form(1, 1, 1)
    f = q * q * q
    g = symmetry_group(f)
    assert isinstance(g, RotationFamily)
    for theta in (0.4, 1.1, 3.0, 5.0):
        assert invariance_residual(f, g.member(theta)) < 1e-9


@pytest.mark.parametrize("f,n", [
    (THREE_LINES, 3),
    (LINE_AND_CIRCLE, 2),
    (TWO_QUADS, 4),
    (FOUR_LINES, 4),
    (form(0, 1, -1, 0), 3),                # xy(x - y)
    # y(y + 3x)(x^2 - 4xy + 7y^2): the candidate swapping the lines has
    # det < 0 and polishes to a reflection, which must not be kept
    (form(0, 1) * form(3, 1) * form(1, -4, 7), 2),
])
def test_finite_orders(monkeypatch, f, n):
    # the Moebius candidates are symmetries before any polish: closed form,
    # no search
    handed = count_calls(monkeypatch, symgroup._polish)
    g = symmetry_group(f)
    for (_, entries), _ in handed:
        assert invariance_residual(f, Mat2.approx(*entries)) < 1e-15
    assert isinstance(g, FiniteCyclicGroup)
    assert g.n == n
    assert g.order_of_generator() == n
    for h in g.elements:
        assert invariance_residual(f, h) < 1e-9
    assert g.contains_minus_id() == (f.degree % 2 == 0)


@pytest.mark.parametrize("f", [THREE_LINES, LINE_AND_CIRCLE, TWO_QUADS, FOUR_LINES])
def test_defect_jacobian_matches_central_differences(f):
    rng = random.Random(f.degree)
    target = _unit_target(f)
    # the four matrix entries of the solver, and the scan's (phi, s, psi)
    # through the chain rule of the oracle
    entries = [rng.uniform(-1.5, 1.5) for _ in range(4)]
    cases = [(lambda v: _defect(target, v), entries),
             (lambda v: scan_defect(target, v), [0.7, -0.4, 2.1])]
    for defect, x in cases:
        _, cols = defect(x)
        assert [len(col) for col in cols] == [f.degree + 1] * len(x)
        top = max(abs(v) for col in cols for v in col)
        for j, col in enumerate(cols):
            up = [v + 1e-6 * (i == j) for i, v in enumerate(x)]
            down = [v - 1e-6 * (i == j) for i, v in enumerate(x)]
            fd = [(p - q) / 2e-6 for p, q in zip(defect(up)[0], defect(down)[0])]
            assert max(abs(a - b) for a, b in zip(fd, col)) < 1e-6 * (1 + top)


@pytest.mark.parametrize("cols", [
    [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]],                 # equal columns
    [[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]],                 # a zero column
    [[0.1, 0.2, 0.3], [0.3, 0.6, 0.9], [1.0, 0.0, 0.0]],  # dependent up to rounding
])
def test_gauss_newton_gives_up_on_dependent_columns(cols):
    assert _gauss_newton(lambda x: ([1.0, -1.0, 0.5], cols), [0.0] * len(cols), 5) is None


def test_gauss_newton_solves_a_full_rank_least_squares_step():
    # e(x) = A x - b with A of full column rank: the first, capped step and
    # the second reach the least-squares solution, taken here from the
    # normal equations
    A = [[2.0, 0.0], [1.0, 1.0], [0.0, 3.0]]
    b = [1.0, 2.0, 4.0]
    cols = [[row[j] for row in A] for j in range(2)]

    def fun(x):
        return [sum(a * v for a, v in zip(row, x)) - t for row, t in zip(A, b)], cols

    sol, _ = _gauss_newton(fun, [0.0, 0.0], 3)
    want = np.linalg.solve(np.array(A).T @ A, np.array(A).T @ b)
    assert max(abs(u - v) for u, v in zip(sol, want)) < 1e-14


def test_case_c_normalizer_matches_eigh_square_root():
    # the closed form against the oracle's eigen-decomposition, and N^T Q N
    # = I in exact arithmetic on the float entries of N; both to a few ulp
    # times the condition number of Q
    ulp = 2.0 ** -52
    rng = random.Random(15)
    for _ in range(200):
        b = Fraction(rng.randint(-3000, 3000), 1000)
        c = b * b / 4 + Fraction(rng.randint(1, 5000), 1000)
        fs = factor_form(form(1, b, c), eps=1e-14)
        g = symmetry_group(form(1, b, c), fs)
        assert isinstance(g, RotationFamily)
        qf = fs.quadratic[0]
        lo, hi = np.linalg.eigvalsh(qf.gram_matrix())
        n = [float(v) for v in g.normalizer.entries()]
        want = _spd_roots(qf.gram_matrix())[1].ravel().tolist()
        top = max(map(abs, want))
        assert max(abs(u - v) for u, v in zip(n, want)) <= 2 * ulp * (hi / lo) * top
        q = ((1, qf.b_mid / 2), (qf.b_mid / 2, qf.c_mid))
        cols = [[Fraction(n[0]), Fraction(n[2])], [Fraction(n[1]), Fraction(n[3])]]
        for i, j in itertools.product(range(2), repeat=2):
            v = sum(cols[i][r] * q[r][s] * cols[j][s]
                    for r, s in itertools.product(range(2), repeat=2))
            assert abs(v - (i == j)) <= 2 * ulp * (hi / lo)


def test_one_line_groups_are_plus_minus_id():
    # a finite-order element fixing the only line is +-id
    rng = random.Random(7)
    samples = [s for s in (random_case_de(rng) for _ in range(80)) if s.l == 1]
    assert len(samples) >= 10
    for s in samples:
        g = symmetry_group(s.form)
        assert g.n == (2 if s.degree % 2 == 0 else 1)
        assert g.contains_minus_id() == (s.degree % 2 == 0)
    s = next(s for s in samples if s.degree % 2 == 0)
    scan = oracle_scan(s.form, resolution=64)
    assert len(scan) == 2
    for h in scan:
        assert min(h.dist(e) for e in symmetry_group(s.form).elements) < 1e-6


def test_group_elements_close_under_product():
    g = symmetry_group(TWO_QUADS)
    for a in g.elements:
        for b in g.elements:
            prod = a @ b
            assert min(prod.dist(c) for c in g.elements) < 1e-8


def test_generator_powers_cover_group():
    g = symmetry_group(FOUR_LINES)
    powers = [g.generator.power(i) for i in range(g.n)]
    for h in g.elements:
        assert min(h.dist(p) for p in powers) < 1e-8


def test_nearly_parallel_lines_give_order_six_or_a_typed_error(monkeypatch):
    # 3/2 (y+5x)^2 (y+2x)^2 (y+6x)^2 has order 6, like x^2 y^2 (x-y)^2, but
    # the defect is so flat near its symmetries that polished candidates
    # drift apart; the solver must not report a wrong order then, and it
    # polishes the identity and the three line shifts, nothing more
    calls = count_calls(monkeypatch, symgroup._polish)
    lines = form(5, 1).power(2) * form(2, 1).power(2) * form(6, 1).power(2)
    f = HomogeneousForm([Fraction(3, 2) * c for c in lines.coefficients()])
    try:
        assert symmetry_group(f).n == 6
    except ToleranceTooLooseError:
        pass
    assert len(calls) <= 4


@pytest.mark.xfail(strict=True, reason=(
    "known defect: the Moebius candidates come from the float (mu, nu) of "
    "each quadratic, which agree for both pairs, so the order-4 element "
    "(x, y) -> (-c^(1/4) y, c^(-1/4) x) is not found and n = 2 is reported"))
def test_two_quadratics_that_agree_in_floats_have_order_four():
    c = 1 + Fraction(1, 10**20)
    g = symmetry_group(HomogeneousForm([1, 0, 1]) * HomogeneousForm([1, 0, c]))
    assert g.n == 4


def test_finite_order_of():
    assert finite_order_of(Mat2.rotation(2 * math.pi / 5)) == 5
    assert finite_order_of(Mat2.exact(-1, 0, 0, -1)) == 2
    with pytest.raises(NotFiniteOrderError):
        finite_order_of(Mat2.exact(1, 1, 0, 1))


def test_induced_permutation_cycles_lines():
    fs = factor_form(THREE_LINES)
    g = symmetry_group(THREE_LINES, fs)
    cand = induced_permutation(g.generator, fs)
    assert cand.tau == ()
    assert sorted(cand.sigma) == [0, 1, 2]
    # a 3-cycle: no fixed points
    assert all(cand.sigma[i] != i for i in range(3))
    cand.validate(fs)      # raises on a bad matching


def test_induced_permutation_preserves_multiplicity():
    fs = factor_form(XY2)
    cand = induced_permutation(Mat2.exact(-1, 0, 0, -1), fs)
    # -id fixes every line
    assert cand.sigma == (0, 1)
    assert cand.tau == ()


def test_oracle_scan_agrees_on_three_lines():
    g = symmetry_group(THREE_LINES)
    scan = oracle_scan(THREE_LINES, resolution=64)
    assert len(scan) == g.n
    for h in scan:
        assert min(h.dist(e) for e in g.elements) < 1e-6


def test_scan_requires_minimum_resolution():
    with pytest.raises(ValueError):
        oracle_scan(THREE_LINES, resolution=16)


def test_scale_invariance_of_group():
    g1 = symmetry_group(TWO_QUADS)
    g2 = symmetry_group(TWO_QUADS.scale_by(-7))
    assert g1.n == g2.n
    for a, b in zip(g1.elements, g2.elements):
        assert a.dist(b) < 1e-8


def parsed(text):
    return to_homogeneous(parse_polynomial(text))


@pytest.mark.parametrize("text, normalizer", [
    ("x^3", Mat2.exact(0, 1, -1, 0)),            # the axis line x = 0
    ("(y-2*x)^3", Mat2.exact(1, 0, 2, 1)),       # slope 2
])
def test_case_a_normalizer_is_exact(text, normalizer):
    f = parsed(text)
    g = symmetry_group(f)
    assert isinstance(g, ShearFamily)
    assert g.normalizer.is_exact
    assert g.normalizer == normalizer
    # it sends the line y = 0 onto the factor's line: f o n = c y^3 exactly
    assert compose_linear(f, g.normalizer).coefficients()[:-1] == (0, 0, 0)


@pytest.mark.parametrize("text, exact", [
    ("x*(y-2*x)^2", True),                 # the axis and slope 2
    ("(3*y-x)*(y+5*x)^3", True),           # slopes 1/3 and -5
    ("x^2-2*y^2", False),                  # slopes +-1/sqrt(2)
])
def test_case_b_normalizer_exact_where_the_slopes_are(text, exact):
    f = parsed(text)
    g = symmetry_group(f)
    assert isinstance(g, DiagonalFamily)
    n = g.normalizer
    assert n.is_exact == exact
    assert n.det() > 0
    # the normalizer sends the axes onto the two lines: f o n = c x^a y^b
    moved = compose_linear(f, n)
    if exact:
        moved = moved.coefficients()
    else:
        scale = max(abs(v) for v in moved)
        moved = [v / scale if abs(v) > 1e-12 * scale else 0 for v in moved]
    nonzero = [i for i, v in enumerate(moved) if v != 0]
    assert nonzero == [g.alpha_y]


def _case_d_forms():
    rng = random.Random(7)
    samples = [s.form for s in (random_case_de(rng) for _ in range(80)) if s.l == 0]
    assert len(samples) >= 5
    return samples[:8]


@pytest.mark.parametrize("f", [
    TWO_QUADS,
    form(1, 0, 1) * form(1, 0, 2) * form(2, 0, 1),   # three definite quadratics
    *_case_d_forms(),
])
def test_quadratic_candidates_match_the_transport_reference(f):
    # the group from the Moebius candidates is the one closed from the
    # quadratic transport candidates
    g = symmetry_group(f)
    ref = transport_group(f, factor_form(f, eps=1e-14))
    assert g.n == len(ref)
    for a in g.elements:
        assert min(a.dist(b) for b in ref) < 1e-9
    for b in ref:
        assert min(b.dist(a) for a in g.elements) < 1e-9


@pytest.mark.parametrize("text, n, polished", [
    # the identity and the five line shifts, all rotations
    ("x^5-10*x^3*y^2+5*x*y^4", 5, 6),
    # the identity and the two shifts by an even number of lines; the odd
    # shifts send f to -f and are dropped before any polish, and -id and
    # the other quarter turn are negatives, not polished
    ("x^4-6*x^2*y^2+y^4", 4, 3),
])
def test_finite_group_polishes_only_the_candidates(monkeypatch, text, n, polished):
    calls = count_calls(monkeypatch, symgroup._polish)
    assert symmetry_group(parsed(text)).n == n
    assert len(calls) == polished


def test_an_element_off_the_generator_powers_is_too_loose(monkeypatch):
    # the rotation by 240 degrees polishes to a point 1e-5 off; the
    # generator still has order 3, but the set is not its powers
    polish = symgroup._polish

    def drifting(target, entries):
        (a, b, c, d), r = polish(target, entries)
        return ([a + 1e-5, b, c, d] if c < -0.5 else [a, b, c, d]), r

    monkeypatch.setattr(symgroup, "_polish", drifting)
    with pytest.raises(ToleranceTooLooseError, match="not the powers of one generator"):
        symmetry_group(THREE_LINES)


@pytest.mark.parametrize("f, polished", [
    (THREE_LINES, 4),                 # the identity and three line shifts
    (TWO_QUADS, 3),                   # the identity and two root triples
])
def test_always_verifying_polish_is_too_loose(monkeypatch, f, polished):
    # every polish "verifies" a new matrix; the set is then not the powers
    # of one generator, and the search stops with the candidates
    count = itertools.count(1)

    def fake_polish(target, entries):
        return [1.0 + 1e-3 * next(count), 0.0, 0.0, 1.0], 0.0

    monkeypatch.setattr(symgroup, "_polish", fake_polish)
    with pytest.raises(ToleranceTooLooseError, match="not the powers of one generator"):
        symmetry_group(f)
    assert next(count) == polished + 1


def _even_case_de_forms():
    rng = random.Random(7)
    samples = [s.form for s in (random_case_de(rng) for _ in range(40)) if s.degree % 2 == 0]
    assert len(samples) >= 8
    return samples[:8]


@pytest.mark.parametrize("f", [LINE_AND_CIRCLE, TWO_QUADS, FOUR_LINES, *_even_case_de_forms()])
def test_even_degree_groups_are_closed_under_exact_negation(monkeypatch, f):
    polished, polish = [], symgroup._polish

    def recording(target, entries):
        sol = polish(target, entries)
        if sol is not None:
            polished.append(bits(sol[0]))
        return sol

    def bits(values):                 # tells -0.0 from +0.0
        return tuple(float(v).hex() for v in values)

    monkeypatch.setattr(symgroup, "_polish", recording)
    g = symmetry_group(f)
    assert g.n % 2 == 0
    for h in g.elements:
        assert Mat2.approx(*(0.0 - v for v in h.entries())) in g.elements
        if bits(h.entries()) not in polished:
            # a negative, not polished itself: its zeros are +0.0, so it
            # never prints as -0
            assert all(math.copysign(1.0, v) == 1.0 for v in h.entries() if v == 0.0)


def test_tol_below_the_polish_floor_is_an_error():
    f = parsed("x*y*(x-y)")
    with pytest.raises(ValueError):
        symmetry_group(f, tol=1e-300)
    with pytest.raises(ValueError):
        symmetry_group(f, tol=_STOP_DEFECT / 2)
    g = symmetry_group(f, tol=_STOP_DEFECT)
    assert g.n == 3
    assert g.residual < _STOP_DEFECT


# ---------------------------------------------------------------------------
# the factor structure read exactly: the reduced form, the quarter turn, slope 0

@pytest.mark.parametrize("e", [*range(1, 21), 40, 100])
def test_the_ladder_has_order_three_or_six(e):
    # x^e y^e (x-y)^e is polished as x y (x-y) (e odd) or its square
    # (e even), so the rounding floor of f's degree no longer counts
    g = symmetry_group(parsed(f"x^{e}*y^{e}*(x-y)^{e}"))
    assert g.n == (3 if e % 2 else 6)
    assert g.residual < 1e-15
    assert all(math.copysign(1.0, v) == 1.0 for h in g.elements for v in h.entries()
               if v == 0.0)


def test_the_degree_cap_is_polished_at_degree_six(monkeypatch):
    calls = count_calls(monkeypatch, symgroup._polish)
    g = symmetry_group(parsed("x^512*y^512*(x-y)^512"))
    assert (g.n, g.generator) == (6, Mat2.approx(1, -1, 1, 0))
    assert {len(target[0]) - 1 for (target, _), _ in calls} == {6}


@pytest.mark.parametrize("text, n, reduced", [
    ("x^2*y*(x-y)", 2, "x^2*y*(x-y)"),           # e: 1 -> 1, 2 -> 2
    ("x^3*y*(x-y)", 1, "x^3*y*(x-y)"),           # the odd 3 keeps its own layer
    ("x^4*y^2*(x-y)^2", 2, "x^4*y^2*(x-y)^2"),   # the even 2 and 4
    ("x^5*y^3*(x-y)^3", 1, "x^3*y*(x-y)"),       # 3 -> 1, 5 -> 3
    ("x*y*(x-y)*(x+y)", 4, "x*y*(x-y)*(x+y)"),
    ("x*y*(x-y)*(x-2*y)", 4, "x*y*(x-y)*(x-2*y)"),
    ("(x^2+y^2)^3*(x^2+2*y^2)^3", 4, "(x^2+y^2)*(x^2+2*y^2)"),
])
def test_the_reduced_form_keeps_the_group(text, n, reduced):
    fs = factor_form(parsed(text))
    assert symgroup._reduced_form(fs).proportional_to(parsed(reduced))
    assert symmetry_group(parsed(text)).n == n


def _case_b_lines():
    """(s, t, a, b) for the form (y - s x)^a (y - t x)^b, slope None for x."""
    rng = random.Random(27)
    out = [(Fraction(1), Fraction(1000000, 1000001), 2, 2), (None, Fraction(0), 2, 2),
           (None, Fraction(0), 3, 3), (Fraction(-1, 3), Fraction(5), 1, 1)]
    while len(out) < 24:
        s, t = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2))
        a = rng.randint(1, 4)
        if s != t:
            out.append((s, t, a, a if rng.random() < 0.6 else rng.randint(1, 4)))
    return out


@pytest.mark.parametrize("s, t, a, b", _case_b_lines())
def test_quarter_turn_in_group_against_an_exact_composition(s, t, a, b):
    # an exact normalizer N sends the axes to the two lines, and the exact
    # compose_linear says whether N q N^(-1) fixes f for the quarter turn q;
    # the float residual the flag was read from before is no oracle: it is
    # about 2 on (x-y)^2*(x-1000001/1000000*y)^2, the first form
    f = (form(1, 0) if s is None else form(-s, 1)).power(a) * form(-t, 1).power(b)
    n = Mat2.exact(1, 0 if s is None else 1, t, 1 if s is None else s)
    if n.det() < 0:
        n = n @ Mat2.exact(-1, 0, 0, 1)
    assert compose_linear(f, n).coefficients().count(0) == f.degree     # c x^b y^a
    q = n @ Mat2.exact(0, -1, 1, 0) @ n.inverse()
    assert symmetry_group(f).quarter_turn_in_group == (compose_linear(f, q) == f)


def test_nearly_equal_slopes_keep_the_quarter_turn():
    f = parsed("(x-y)^2*(x-1000001/1000000*y)^2")
    g = symmetry_group(f)
    assert g.quarter_turn_in_group
    assert invariance_residual(f, g.quarter_turn()) > 1


def test_the_slope_zero_is_exact(capsys):
    # y is a root of the degree-2 layer t - t^2 of x*y*(x-y)
    (lf,) = [lf for lf in factor_form(parsed("x*y*(x-y)")).lines
             if not lf.is_axis and lf.root.contains(0)]
    assert len(lf.root.poly) == 3
    assert lf.line_direction() == (1.0, 0.0)
    assert cli.main(["symmetry", "x*y*(x-y)"]) == 0
    sym = json.loads(capsys.readouterr().out)["symmetry"]
    assert (sym["generator"], sym["residual"]) == ([[0, -1], [1, -1]], 0)
    # y and 3*y + 4*x share a layer; the column of y is turned round for
    # det > 0, and its zero prints as 0, not -0
    assert cli.main(["symmetry", "--", "-2*y^2*(3*y + 4*x)^2"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["symmetry"]["family"]["normalizer"] == [[-1, 1],
                                                                   [0, -4 / 3]]
    assert "-0," not in out and "-0]" not in out
