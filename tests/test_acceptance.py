"""Acceptance gate: one test per published guarantee of the package.

The terminal summary (wired up in conftest) reports one PASS/FAIL line per
criterion.  Tolerances here are pinned on purpose; if an implementation
change needs a looser bound, that is a failure of the gate, not a reason to
edit the number.
"""

import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from mpmath import mp

from binform.dynamics import (
    FlowConfig,
    integrate_flow,
    invariant_contraction,
    orbit_portrait,
    shift_linear,
    shift_map_apply,
    shift_regularity,
)
from binform.errors import ExprSyntaxError
from binform.exprparse import canonical_text, parse_polynomial, to_homogeneous
from binform.hamfield import (
    PlanarPolyField,
    common_divisor,
    hamiltonian_field,
    reduced_field,
)
from binform.mat2 import Mat2
from binform.polyring import (
    BivariatePoly,
    HomogeneousForm,
    WeightVector,
    euler_check,
    partials,
    quasi_homogeneous_check,
)
from binform.realfactor import factor_form
from binform.symgroup import (
    DiagonalFamily,
    FiniteCyclicGroup,
    RotationFamily,
    ShearFamily,
    invariance_residual,
    symmetry_group,
)
from binform.verdict import classify_case, decide_theorem

from genforms import random_product
from oracles import forms_coprime_oracle, oracle_scan

F = Fraction


def form(*coeffs):
    return HomogeneousForm(coeffs)


X, Y = form(1, 0), form(0, 1)
Q_CIRCLE = form(1, 0, 1)
Q_ELL2 = form(1, 0, 2)
Q_ELL3 = form(1, 0, 3)
Q_SKEW = form(1, 1, 1)                       # x^2 + x y + y^2

THREE_LINES = form(1, 0, -3, 0)              # x^3 - 3 x y^2
LINE_PAIR_CIRCLE = form(0, 1, 0, 1, 0)       # x y (x^2 + y^2)
FOUR_LINES = form(1, 0, -6, 0, 1)            # x^4 - 6 x^2 y^2 + y^4
TWO_QUADS = Q_CIRCLE * Q_ELL2                # the split-verdict witness


def key(f):
    return f.coefficients()


@lru_cache(maxsize=None)
def solved(coeffs):
    f = HomogeneousForm(coeffs)
    fs = factor_form(f)
    return f, fs, symmetry_group(f, fs)


@lru_cache(maxsize=None)
def scanned(coeffs):
    return oracle_scan(HomogeneousForm(coeffs), resolution=64)


@lru_cache(maxsize=1)
def corpus():
    rng = random.Random(20260814)
    return tuple(random_product(rng) for _ in range(200))


@lru_cache(maxsize=1)
def corpus_reduced():
    return tuple((s, reduced_field(s.form)) for s in corpus())


def groups_match(xs, ys, tol=1e-6):
    if len(xs) != len(ys):
        return False
    return (all(min(x.dist(y) for y in ys) < tol for x in xs)
            and all(min(y.dist(x) for x in xs) < tol for y in ys))


# -- 1: the worked pipeline example, exact ------------------------------------

def test_criterion_01_exact_reduced_field_for_xy2():
    f = X * Y * Y
    fld = hamiltonian_field(f)
    assert fld.P.terms == {(1, 1): F(-2)}                 # -2 x y
    assert fld.Q.terms == {(0, 2): F(1)}                  # y^2
    assert common_divisor(f).coefficients() == (F(0), F(1))
    red = reduced_field(f)
    assert red.P.terms == {(1, 0): F(-2)}
    assert red.Q.terms == {(0, 1): F(1)}
    assert red.degree == 1


# -- 2: the verdict table ------------------------------------------------------

VERDICT_TABLE = [
    (Y * Y * Y, "A", False),
    (X * X * Y * Y * Y, "B", False),
    (Q_CIRCLE * Q_CIRCLE, "C", False),
    (TWO_QUADS, "D", True),
    (LINE_PAIR_CIRCLE, "E", False),
    (THREE_LINES, "E", False),
    (Q_CIRCLE * Q_CIRCLE * form(2, 0, 1), "D", True),
]


def test_criterion_02_verdict_table():
    for f, case, split in VERDICT_TABLE:
        v = decide_theorem(f)
        assert v.case == case
        assert v.stab1_ne_stab0 is split
        assert ("!=" in v.chain) is split


# -- 3 and 4: the reduced field over a random corpus ---------------------------

def test_criterion_03_degree_identity():
    for s, red in corpus_reduced():
        assert red.degree == s.l + 2 * s.k - 1


def test_criterion_04_coprime_and_conservative():
    for s, red in corpus_reduced():
        fx, fy = partials(s.form)
        residue = fx.to_bivariate() * red.P + fy.to_bivariate() * red.Q
        assert residue.is_zero
        p = None if red.P.is_zero else red.P.to_form()
        q = None if red.Q.is_zero else red.Q.to_form()
        assert forms_coprime_oracle(p, q)


# -- 5: finite group orders ----------------------------------------------------

PINNED_ORDERS = [
    (THREE_LINES, 3),
    (LINE_PAIR_CIRCLE, 2),
    (FOUR_LINES, 4),
    (TWO_QUADS, 4),
]


def mp_binrow(a, b, n):
    # coefficients of (a x + b y)^n by descending x degree
    return [mp.binomial(n, j) * a ** (n - j) * b ** j for j in range(n + 1)]


def mp_compose(coeffs, a, b, c, d):
    p = len(coeffs) - 1
    out = [mp.mpf(0)] * (p + 1)
    for i, ci in enumerate(coeffs):
        if not ci:
            continue
        u = mp_binrow(a, b, p - i)
        v = mp_binrow(c, d, i)
        for s, cu in enumerate(u):
            for t, cv in enumerate(v):
                out[s + t] += ci * cu * cv
    return out


def test_criterion_05_finite_group_orders():
    for f, n in PINNED_ORDERS:
        _, fs, g = solved(key(f))
        assert isinstance(g, FiniteCyclicGroup)
        assert g.n == n
        assert g.order_of_generator() == n
        assert g.residual < 1e-9
        assert len(scanned(key(f))) == n
        if fs.l > 0:
            # products with at least one line obey the ray-count bound
            assert (2 * fs.l) % n == 0

    # the order-4 element of the two-quadratic product, certified to 50 digits:
    # (x, y) -> (-2^(1/4) y, 2^(-1/4) x) swaps the two factors up to scalars
    with mp.workdps(60):
        r = mp.root(2, 4)
        target = [mp.mpf(c) for c in (1, 0, 3, 0, 2)]
        comp = mp_compose(target, mp.mpf(0), -r, 1 / r, mp.mpf(0))
        assert max(abs(u - v) for u, v in zip(comp, target)) < mp.mpf("1e-50")
        assert abs(-r * (1 / r) + 1) < mp.mpf("1e-55")    # square is minus id

    _, _, g = solved(key(TWO_QUADS))
    witness = Mat2.approx(0.0, -2.0 ** 0.25, 2.0 ** -0.25, 0.0)
    assert min(witness.dist(e) for e in g.elements) < 1e-6


@pytest.mark.xfail(strict=True, reason=(
    "superseded pin: this group was once recorded with order 2, but an exact "
    "order-4 element (x, y) -> (-2^(1/4) y, 2^(-1/4) x) preserves the product; "
    "test_criterion_05_finite_group_orders certifies it to 50 digits and the "
    "dense scan finds all four elements independently"))
def test_criterion_05_superseded_order_pin():
    _, _, g = solved(key(TWO_QUADS))
    assert g.n == 2


# -- 6: structured solver against the dense scan -------------------------------

DE_INSTANCES = [
    THREE_LINES,
    LINE_PAIR_CIRCLE,
    FOUR_LINES,
    TWO_QUADS,
    form(1, 0, -10, 0, 5, 0),                # x^5 - 10 x^3 y^2 + 5 x y^4
    form(1, 0, 0, 0, -1),                    # x^4 - y^4
    Q_CIRCLE * Q_ELL3,
    Q_SKEW * Q_ELL2,
    Q_CIRCLE * Q_CIRCLE * form(2, 0, 1),
    form(0, 1, 0, 4, 0),                     # x y (x^2 + 4 y^2)
]


def test_criterion_06_scan_agrees_with_solver():
    assert len(DE_INSTANCES) == 10
    cases = set()
    for f in DE_INSTANCES:
        _, fs, g = solved(key(f))
        cases.add(classify_case(fs))
        assert isinstance(g, FiniteCyclicGroup)
        assert groups_match(g.elements, scanned(key(f)), tol=1e-6)
    assert cases == {"D", "E"}


# -- 7: minus the identity sits in the group iff the degree is even ------------

def test_criterion_07_minus_id_parity():
    catalog = [f for f, _, _ in VERDICT_TABLE]
    catalog += DE_INSTANCES
    catalog += [form(0, 0, 1), X * X * Y * Y]
    rng = random.Random(77)
    catalog += [random_product(rng, max_degree=6).form for _ in range(20)]
    parities = set()
    for f in catalog:
        _, _, g = solved(key(f))
        assert g.contains_minus_id() is (f.degree % 2 == 0)
        parities.add(f.degree % 2)
    assert parities == {0, 1}


# -- 8: continuous families ----------------------------------------------------

def test_criterion_08_family_members_preserve_form():
    rng = random.Random(88)

    cubed_line = Y * Y * Y
    _, _, shear = solved(key(cubed_line))
    assert isinstance(shear, ShearFamily)
    for _ in range(100):
        h = shear.member(rng.uniform(0.03, 3.0), rng.uniform(-2.0, 2.0))
        assert invariance_residual(cubed_line, h) < 1e-9

    two_lines = X * X * Y * Y * Y
    _, _, diag = solved(key(two_lines))
    assert isinstance(diag, DiagonalFamily)
    for _ in range(100):
        assert invariance_residual(two_lines, diag.member(rng.uniform(-1, 1))) < 1e-9

    disc = Q_CIRCLE * Q_CIRCLE
    _, _, rot = solved(key(disc))
    assert isinstance(rot, RotationFamily)
    for _ in range(100):
        theta = rng.uniform(-math.pi, math.pi)
        assert invariance_residual(disc, rot.member(theta)) < 1e-9


# -- 9: scaling identities -----------------------------------------------------

def test_criterion_09_euler_and_weighted_scaling():
    for s in corpus()[:100]:
        assert euler_check(s.form)

    rng = random.Random(99)
    t, z = F(2, 3), (F(5, 7), F(-3, 4))
    for _ in range(20):
        s1, s2 = rng.randint(1, 4), rng.randint(1, 4)
        d = s1 * rng.randint(1, 4) + s2 * rng.randint(0, 3)
        monos = [(i, j) for i in range(d + 1) for j in range(d + 1)
                 if i * s1 + j * s2 == d]
        chosen = rng.sample(monos, k=min(len(monos), rng.randint(1, 3)))
        g = BivariatePoly({m: F(rng.randint(1, 9), rng.choice([1, 2, 3]))
                           for m in chosen})
        w = WeightVector(s1, s2, d)
        assert quasi_homogeneous_check(g, w)
        zz = invariant_contraction(w, z, t)
        assert g.eval_exact(*zz) == t ** d * g.eval_exact(*z)

    # a stray monomial must break the certificate
    g = BivariatePoly({(2, 0): F(1), (0, 3): F(1), (1, 1): F(1)})
    assert not quasi_homogeneous_check(g, WeightVector(3, 2, 6))


# -- 10: flows -----------------------------------------------------------------

def test_criterion_10_orbits_shifts_drift():
    # the reduced field of x^2 + y^2 turns at angular speed 2
    traj = integrate_flow(reduced_field(Q_CIRCLE), (1.0, 0.0), math.pi, FlowConfig())
    assert traj.status == "ok"
    ex, ey = traj.endpoint()
    assert math.hypot(ex - 1.0, ey) < 1e-6

    rng = random.Random(1010)
    cfg = FlowConfig(box=(-1e6, -1e6, 1e6, 1e6))
    for _ in range(100):
        a, b, c, d = (rng.uniform(-1.5, 1.5) for _ in range(4))
        fld = PlanarPolyField(P=BivariatePoly({(1, 0): a, (0, 1): b}),
                              Q=BivariatePoly({(1, 0): c, (0, 1): d}),
                              homogeneous=True, degree=1)
        sigma = BivariatePoly({(0, 0): rng.uniform(-1.5, 1.5)})
        z = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        got, _ = shift_map_apply(fld, sigma, z, cfg)
        want = shift_linear(Mat2.approx(a, b, c, d), sigma, z)
        assert math.hypot(got[0] - want[0], got[1] - want[1]) < 1e-6

    window = (-2.0, -2.0, 2.0, 2.0)
    closed = orbit_portrait(Q_CIRCLE, [(0.9, 0.0), (0.0, 1.3), (-1.1, 0.4)], window)
    for orb in closed.orbits:
        assert orb.status == "ok"
        assert orb.f_drift < 1e-8
    escaping = orbit_portrait(X * Y * Y, [(1.0, 0.5)], window)
    for orb in escaping.orbits:
        assert orb.f_drift < 1e-8


# -- 11: shift regularity ------------------------------------------------------

def test_criterion_11_regularity_trichotomy():
    vertical = PlanarPolyField(P=BivariatePoly({}),
                               Q=BivariatePoly({(0, 0): F(1)}),
                               homogeneous=False, degree=None)
    samples = [(0, 0), (2, -3)]
    sigma_y = BivariatePoly({(0, 1): F(1)})
    assert shift_regularity(vertical, sigma_y.scale(-1), samples) == ["degenerate"] * 2
    assert shift_regularity(vertical, BivariatePoly({}), samples) == ["regular"] * 2
    assert shift_regularity(vertical, sigma_y, samples) == ["regular"] * 2
    assert shift_regularity(vertical, sigma_y.scale(-2), samples) == ["folding"] * 2


# -- 12: the expression front end ----------------------------------------------

def test_criterion_12_parser_round_trip_goldens_fuzz():
    for s in corpus()[:100]:
        poly = s.form.to_bivariate()
        assert parse_polynomial(canonical_text(poly)) == poly

    assert parse_polynomial("x*y^2").terms == {(1, 2): F(1)}
    two = parse_polynomial("(x^2+y^2)*(x^2+2*y^2)")
    assert two.terms == {(4, 0): F(1), (2, 2): F(3), (0, 4): F(2)}
    assert to_homogeneous(two).coefficients() == (F(1), F(0), F(3), F(0), F(2))

    rng = random.Random(1212)
    alphabet = "xy+-*^()0123456789 ./z"
    for _ in range(200):
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(0, 64)))
        try:
            parse_polynomial(text)
        except ExprSyntaxError as err:
            assert 0 <= err.offset <= len(text)
