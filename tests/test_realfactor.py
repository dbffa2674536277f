import json
import math
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

import binform.paircert as paircert
import binform.polyring as polyring
import binform.realfactor as rf
from binform import cli
from binform.exprparse import parse_polynomial
from binform.polyring import (
    HomogeneousForm,
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
from genforms import random_case_de, random_product

F = Fraction


def _max_width(fs):
    """The widest enclosure of fs, of a line's slope or a quadratic's b or c."""
    widths = [lf.root.width for lf in fs.linear if not lf.is_axis]
    widths += [qf.width for qf in fs.quadratic]
    return max(widths, default=F(0))


def _is_separated(fs):
    """All enclosures of fs pairwise disjoint, so its factors are distinct."""
    return rf._disjoint(fs.linear, fs.quadratic)


def test_isolate_three_roots():
    # (t-1)(t-2)(t+3) = t^3 - 7t + 6
    u = [6, -7, 0, 1]
    roots = sorted(isolate_real_roots(u), key=lambda r: r.mid)
    assert len(roots) == 3
    for r, target in zip(roots, (F(-3), F(1), F(2))):
        assert r.contains(target)
    # interiors are pairwise disjoint (endpoints may touch at non-roots)
    for a, b in zip(roots, roots[1:]):
        assert a.hi <= b.lo


def test_isolate_no_real_roots():
    assert isolate_real_roots([1, 0, 1]) == []
    assert isolate_real_roots([4, 0, 1, 0, 1]) == []
    assert isolate_real_roots([3]) == isolate_real_roots([3, 0]) == []


def test_root_refine_keeps_root():
    u = [-2, 0, 1]             # t^2 - 2
    r = max(isolate_real_roots(u), key=lambda r: r.mid)
    tight = r.refine(1e-12)
    assert tight.width <= F(1e-12)
    assert tight.lo > 0
    assert tight.lo ** 2 <= 2 <= tight.hi ** 2


def test_isolated_root_rejects_what_does_not_isolate_one_root():
    w = (-2, 0, 1)             # t^2 - 2
    IsolatedRoot(w, F(1), F(2))
    with pytest.raises(ValueError, match="empty"):
        IsolatedRoot(w, F(2), F(1))
    with pytest.raises(ValueError, match="empty"):
        IsolatedRoot(w, F(1), F(1))
    # an endpoint that is a root: t^2 - 1 at 1, at either end
    for lo, hi in ((F(1), F(2)), (F(0), F(1))):
        with pytest.raises(ValueError, match="straddle"):
            IsolatedRoot((-1, 0, 1), lo, hi)
    # endpoints of the same sign: no root between them, or two
    for lo, hi in ((F(2), F(3)), (F(-2), F(2))):
        with pytest.raises(ValueError, match="straddle"):
            IsolatedRoot(w, lo, hi)


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
    assert _max_width(tighter) <= F(1e-40)
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
        assert _is_separated(fs)
        assert fs.reconstruction_gap() < 1e-7


def _sympy_counts(f):
    """The sign and the sorted line and quadratic multiplicities of f, from
    sympy: sqf_list of f(1, t), count_roots per layer, the power of x."""
    t = sympy.Symbol("t")
    g = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                    for c in reversed(f.coefficients())], t)
    lines = [f.degree - g.degree()] if f.degree > g.degree() else []
    pairs = []
    for w, m in g.sqf_list()[1]:
        r = w.count_roots()
        lines += [m] * r
        pairs += [m] * ((w.degree() - r) // 2)
    return (1 if g.LC() > 0 else -1), tuple(sorted(lines)), tuple(sorted(pairs))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([random_product, random_case_de]), st.randoms(use_true_random=False))
def test_counts_match_the_enclosures_and_sympy(sample, rng):
    f = sample(rng, 8).form
    fs = factor_form(f)
    counts = (fs.sign, fs.line_mults, fs.quad_mults)
    assert (fs.l, fs.k) == (len(fs.line_mults), len(fs.quad_mults))
    assert counts == _sympy_counts(f)
    assert tuple(sorted(lf.alpha for lf in fs.linear)) == fs.line_mults
    assert tuple(sorted(qf.beta for qf in fs.quadratic)) == fs.quad_mults


def _assert_enclosed_once(fs, quads, eps):
    """Each exact (b, c) lies in exactly one certified enclosure, of width
    at most eps."""
    for b, c in quads:
        holders = [qf for qf in fs.quadratic
                   if qf.b_lo <= b <= qf.b_hi and qf.c_lo <= c <= qf.c_hi]
        assert len(holders) == 1, (b, c)
        assert holders[0].width <= F(eps)


def test_random_product_quadratics_lie_in_their_enclosures():
    rng = random.Random(23)
    for _ in range(60):
        s = random_product(rng)
        _assert_enclosed_once(factor_form(s.form), s.quads, 1e-12)
        _assert_enclosed_once(refine(factor_form(s.form, eps=1e-6), 1e-14), s.quads, 1e-14)


@st.composite
def definite_products(draw):
    """A product of distinct rational definite quadratics, some rational
    lines and a rational scalar, with the quadratics' exact (b, c)."""
    quads = set()
    for _ in range(draw(st.integers(1, 4))):
        b = draw(st.fractions(-6, 6, max_denominator=7))
        quads.add((b, b * b / 4 + draw(st.fractions(F(1, 49), 9, max_denominator=49))))
    factors = [HomogeneousForm([-t, 1]) for t in
               draw(st.lists(st.fractions(-5, 5, max_denominator=4), max_size=3, unique=True))]
    for b, c in quads:
        factors.append(HomogeneousForm([1, b, c]).power(draw(st.integers(1, 2))))
    f = factors[0]
    for g in factors[1:]:
        f = f * g
    f = f.scale_by(draw(st.fractions(F(1, 9), 9, max_denominator=9)))
    return f, quads


@settings(max_examples=60, deadline=None, derandomize=True)
@given(definite_products())
def test_constructed_quadratics_lie_in_exactly_one_enclosure(sample):
    f, quads = sample
    fs = factor_form(f)
    assert fs.k == len(quads)
    _assert_enclosed_once(fs, quads, 1e-12)
    _assert_enclosed_once(refine(fs, 1e-14), quads, 1e-14)


# Pairs 5e-13 i and 5e-21 i apart: the float seeds do not separate them, a
# later rung's seeds, iterated from them in Gaussian integers on its grid,
# do.  The expected lines are what the certificate printed when it took
# its seeds from mpmath's polyroots.
@pytest.mark.parametrize("form, expected", [
    ("(x^2+y^2)*(x^2+(1+1/10^12)*y^2)",
     '"quadratic": [{"a": 1, "b": 0, "c": 1.0000000000010001, "beta": 1}, '
     '{"a": 1, "b": 0, "c": 1, "beta": 1}]'),
    ("(x^2+y^2)*(x^2+(1+1/10^20)*y^2)",
     '"quadratic": [{"a": 1, "b": 0, "c": 1, "beta": 1}, '
     '{"a": 1, "b": 0, "c": 1, "beta": 1}]'),
])
def test_close_pairs_certify_on_a_later_rung(monkeypatch, capsys, form, expected):
    assert cli.main(["factor", form]) == 0
    out = capsys.readouterr().out
    assert out == ('{"input": "%s", "degree": 4, "sign": 1, "factors": '
                   '{"linear": [], %s}}\n' % (form, expected))
    approximate = paircert._approximate
    monkeypatch.setattr(paircert, "_approximate",
                        lambda w, real, k, start: approximate(w, real, k, None))
    assert cli.main(["factor", form]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "NotRefined" and "discs not separated" in err["message"]


def test_a_stalled_later_rung_turns_its_steps_off_the_bisector(monkeypatch, capsys):
    """A pair 5e-101 i apart: rung 848 starts from points that reached each
    cluster on the line bisecting it, where the iteration used to wander
    for all 100 sweeps; turning the steps after the first stalled sweep
    lets it converge, and both quadratics print their exact b = 0, c = 1."""
    divisions = oracles.count_calls(monkeypatch, paircert._gauss_div)
    approximate, sweeps = paircert._approximate, {}

    def counted(w, real, k, start):
        before = len(divisions)
        zs = approximate(w, real, k, start)
        if start is not None:
            sweeps[k] = (len(divisions) - before) // len(zs)
        return zs

    monkeypatch.setattr(paircert, "_approximate", counted)
    assert cli.main(["factor", "(x^2+y^2)*(x^2+(1+1/10^100)*y^2)"]) == 0
    quads = json.loads(capsys.readouterr().out)["factors"]["quadratic"]
    assert quads == [{"a": 1, "b": 0, "c": 1, "beta": 1}] * 2
    assert list(sweeps) == [212, 424, 848] and sweeps[848] < 100
    _assert_enclosed_once(factor_form(_close_pair(100)),
                          {(F(0), F(1)), (F(0), 1 + F(1, 10**100))}, 1e-14)


def _close_pair(e):
    """(x^2 + y^2)(x^2 + (1 + 10^-e) y^2), a pair 10^-e/2 i apart."""
    return HomogeneousForm([1, 0, 1]) * HomogeneousForm([1, 0, 1 + F(1, 10**e)])


def test_later_rungs_certify_alike_in_two_threads():
    # the later rungs keep no precision state, so concurrent certificates
    # of the close pairs are those of a serial run
    jobs = [(_close_pair(e), eps) for e in (20, 12) for eps in (1e-14, 1e-40)]

    def enclosures(job):
        fs = factor_form(job[0], eps=job[1])
        return [(qf.b_lo, qf.b_hi, qf.c_lo, qf.c_hi) for qf in fs.quadratic]

    serial = [enclosures(job) for job in jobs]
    with ThreadPoolExecutor(2) as pool:
        assert list(pool.map(enclosures, jobs * 2)) == serial * 2


def test_refine_tells_apart_pairs_that_agree_in_floats():
    # the roots i and i/sqrt(1 + 10^-16) have the same float (mu, nu), so
    # refinement seeds from the enclosures, not from those floats
    c = 1 + F(1, 10**16)
    fs = refine(factor_form(HomogeneousForm([1, 0, 1]) * HomogeneousForm([1, 0, c]), eps=1e-6),
                1e-60)
    _assert_enclosed_once(fs, {(F(0), F(1)), (F(0), c)}, 1e-60)


# Two factors in two layers, 1e-30 apart for lines, 1e-20 and 1e-40 for
# pairs.  The lines and the pairs 1e-40 apart overlap at the default eps,
# so the structure is certified again at eps/16 until they are disjoint;
# a pair's certificate runs 60 bits finer than eps, which keeps the pairs
# 1e-20 apart disjoint at once.  The expected lines are what factor
# printed when refinement seeded each pair from the midpoint of its
# enclosure.
@pytest.mark.parametrize("f, form, expected", [
    (HomogeneousForm([1, -1]).power(2) * HomogeneousForm([1, -1 - F(1, 10**30)]),
     "(x-y)^2*(x-(1+1/10^30)*y)",
     '"degree": 3, "sign": -1, "factors": {"linear": [{"root_interval": [1, 1], "alpha": 1}, '
     '{"root_interval": [1, 1], "alpha": 2}], "quadratic": []}'),
    (HomogeneousForm([1, 0, 1]).power(2) * HomogeneousForm([1, 0, 1 + F(1, 10**20)]),
     "(x^2+y^2)^2*(x^2+(1+1/10^20)*y^2)",
     '"degree": 6, "sign": 1, "factors": {"linear": [], "quadratic": [{"a": 1, "b": 0, '
     '"c": 1, "beta": 1}, {"a": 1, "b": 0, "c": 1, "beta": 2}]}'),
    (HomogeneousForm([1, 0, 1]).power(2) * HomogeneousForm([1, 0, 1 + F(1, 10**40)]),
     "(x^2+y^2)^2*(x^2+(1+1/10^40)*y^2)",
     '"degree": 6, "sign": 1, "factors": {"linear": [], "quadratic": [{"a": 1, "b": 0, '
     '"c": 1, "beta": 1}, {"a": 1, "b": 0, "c": 1, "beta": 2}]}'),
])
def test_overlapping_enclosures_are_certified_again_until_disjoint(capsys, f, form, expected):
    assert cli.main(["factor", form]) == 0
    assert capsys.readouterr().out == '{"input": "%s", %s}\n' % (form, expected)
    fs = factor_form(f)
    assert _is_separated(fs)
    assert 0 < _max_width(fs) <= F(1e-12) / 16
    assert sorted(lf.alpha for lf in fs.linear) == list(fs.line_mults)
    assert sorted(qf.beta for qf in fs.quadratic) == list(fs.quad_mults)


def test_refine_never_coarsens():
    for f in (HomogeneousForm([1, -1]).power(2) * HomogeneousForm([1, -1 - F(1, 10**30)]),
              HomogeneousForm([1, 0, 3, 0, 2]) * HomogeneousForm([1, -3])):
        fs = factor_form(f, eps=1e-20)
        assert refine(fs, 1e-20) is fs and refine(fs, 1e-6) is fs
        finer = refine(fs, 1e-40)
        assert finer.eps == 1e-40 and finer.layers == fs.layers
        assert _is_separated(finer) and _max_width(finer) <= F(1e-40)


def test_a_failed_first_rung_still_certifies(monkeypatch, capsys):
    form = "(x^2+y^2)*(x^2+2*y^2)*(x^2+x*y+3*y^2)*(x-y)"
    assert cli.main(["factor", form]) == 0
    expected = capsys.readouterr().out
    approximate, rungs = paircert._approximate, []

    def no_first_rung(w, real, k, start):
        rungs.append(k)
        if start is None:
            raise ArithmeticError("no float seeds")
        return approximate(w, real, k, start)

    monkeypatch.setattr(paircert, "_approximate", no_first_rung)
    assert cli.main(["factor", form]) == 0
    assert capsys.readouterr().out == expected
    assert rungs == [106, 212]


def test_a_pair_beyond_the_float_range_is_not_refined(capsys):
    # the seed overflows floats on the first rung; c = 10^400 has no float
    assert cli.main(["factor", "x^2+10^400*y^2"]) == 1
    out, err = capsys.readouterr()
    err = json.loads(err)["error"]
    assert out == "" and err["kind"] == "NotRefined"


def test_enclosures_are_computed_once_on_first_read(monkeypatch):
    calls = oracles.count_calls(monkeypatch, paircert._certify_pairs)
    fs = factor_form(HomogeneousForm([1, 0, 3, 0, 2]))     # (x^2+y^2)(x^2+2y^2)
    assert (fs.l, fs.k) == (0, 2) and calls == []
    first = fs.quadratic
    assert len(calls) == 1
    assert fs.quadratic is first and fs.linear == ()
    assert len(calls) == 1


def test_reconstruction_gap_detects_a_moved_coefficient():
    # moving the coefficient next to the largest one up or down by 1e-6 of
    # the largest puts f that far outside the product enclosure
    rng = random.Random(23)
    for n in range(30):
        fs = factor_form(random_product(rng).form)
        cs = list(fs.form.coefficients())
        imax = max(range(len(cs)), key=lambda i: abs(cs[i]))
        cs[(imax + 1) % len(cs)] += (-1) ** n * abs(cs[imax]) / 10**6
        moved = FactorizationStructure(HomogeneousForm(cs), fs.sign, fs.layers, fs.eps)
        assert 5e-7 <= moved.reconstruction_gap() <= 2e-6


def test_reconstruction_gap_is_exactly_zero_when_the_enclosures_hold_f():
    rng = random.Random(23)
    forms = [random_product(rng).form for _ in range(60)] + [_close_pair(12), _close_pair(20)]
    for f in forms:
        assert factor_form(f).reconstruction_gap() == 0.0


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


def _ints(row, primitive=False):
    """The integers proportional to a rational row: the row times the lcm
    of its denominators, or the coprime ones with a positive last entry."""
    ints = [int(c * math.lcm(*(F(x).denominator for x in row))) for c in row]
    if not primitive:
        return ints
    g = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return tuple(n // g for n in ints)


def _check_against_oracle(row):
    roots = isolate_real_roots(_ints(row, primitive=True))
    assert [(r.lo, r.hi) for r in roots] == oracles.sturm_isolate(row)
    # the isolation does not depend on the row's content or sign
    assert isolate_real_roots([-3 * c for c in _ints(row)]) == \
        [IsolatedRoot(tuple(-3 * c for c in _ints(row)), r.lo, r.hi) for r in roots]
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
        roots = isolate_real_roots(_ints(u, primitive=True))
        assert [(r.lo, r.hi) for r in roots] == oracles.sturm_isolate(part)
        assert all(r.poly == _ints(part, primitive=True) for r in roots)


def _from_roots(*roots):
    row = [F(1)]
    for r in roots:
        row = _mul_rows(row, [-F(r), F(1)])
    return row


def _mignotte_examples(test):
    """The rows t^n - 2 (a t - 1)^2, n = 6..12 and a = 10, 100, as
    examples: two real roots within about a^-(n+2)/2 of 1/a."""
    for a in (10, 100):
        for n in range(6, 13):
            test = example([F(-2), F(4 * a), F(-2 * a * a)] + [F(0)] * (n - 3) + [F(1)])(test)
    return test


@settings(max_examples=60, deadline=None, derandomize=True)
@given(structured_rows())
@example(_from_roots(1, 1 + F(1, 10**300)))         # a close pair 1,000 levels deep
@example(_from_roots(F(-1, 3), F(-1, 3) + F(1, 10**40), 2))
@example(_from_roots(0, 1))         # B = 2: the midpoint and the 3/4 point are roots
@example(_from_roots(2, 3, 5))      # split points of j = 2 and 3 are roots
@example(_from_roots(F(-3, 4), F(-5, 8), F(3, 8)))
@example(_from_roots(F(-1, 4), 0, F(3, 4)))
def test_integer_core_matches_fraction_oracle_on_products(row):
    if len(row) >= 2:
        _check_against_oracle(row)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(unstructured_rows())
@example([1 + F(1, 10**500), F(-2), F(1)])       # roots 1 +- 10^-250 i
@example(_mul_rows([F(1), F(1)], [1 + F(1, 10**500), F(-2), F(1)]))     # and -1
@_mignotte_examples
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
    ivs = [(r.lo, r.hi) for r in isolate_real_roots(_ints(row))]
    assert ivs == [(F(-2), F(-3, 4)), (F(-3, 4), F(1, 2)), (F(1, 2), F(2))]


def test_refine_lands_on_rational_roots():
    # (t+3)(t+1)(t-1): B = 4 and every root is the midpoint of its interval
    row = [F(-3), F(-1), F(3), F(1)]
    _check_against_oracle(row)
    for r in isolate_real_roots(_ints(row)):
        for eps in (1e-3, 1e-12):
            assert oracles.bisect_refine(row, r.lo, r.hi, eps)[2]
            tight = r.refine(eps)
            assert tight.mid in (-3, -1, 1) and tight.width < F(eps)
    # t^3 - t on (-1/2, 1/2): the first midpoint is the root 0
    tight = IsolatedRoot((0, -1, 0, 1), F(-1, 2), F(1, 2)).refine(1e-9)
    assert (tight.lo, tight.hi) == \
        oracles.bisect_refine([0, -1, 0, 1], F(-1, 2), F(1, 2), 1e-9)[:2]
    assert tight.lo == -tight.hi


@st.composite
def jump_rows(draw):
    """Squarefree rows whose roots test the jump of ``refine``: rationals
    with small and with dyadic denominators (which halving can land on), 0
    and roots near it, a close pair, and 1/10^320, whose row has a
    coefficient beyond the float range, so that no jump is taken."""
    small = st.fractions(-8, 8, max_denominator=12)
    dyadic = st.builds(lambda n, j: F(n, 2**j), st.integers(-64, 64), st.integers(0, 6))
    near_zero = st.builds(lambda s, k: F(s, 10**k), st.sampled_from((1, -1)),
                          st.sampled_from((3, 12, 17, 40, 320)))
    roots = set(draw(st.lists(small | dyadic | near_zero | st.just(F(0)), max_size=4)))
    if draw(st.booleans()):         # a close pair
        r = draw(small)
        roots |= {r, r + F(1, 10 ** draw(st.sampled_from((9, 15, 20))))}
    row = [F(draw(st.integers(1, 9)))]
    for r in roots:
        row = _mul_rows(row, [-r, F(1)])
    if draw(st.booleans()):         # and a definite quadratic
        row = _mul_rows(row, [F(draw(st.integers(1, 9))), F(draw(st.integers(-1, 1))), F(1)])
    return row


_JUMP_WIDTHS = [1e-12] + [F(1, 2**k) for k in (40, 80, 140, 848)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(jump_rows())
@example([F(-3), F(-1), F(3), F(1)])               # each root a midpoint of its interval
@example([F(0), F(-2), F(0), F(1)])                # t^3 - 2t: 0 and +-sqrt(2)
@example(_mul_rows([F(-2), F(0), F(1)], [F(-1), F(0), F(1)]))     # +-1 and +-sqrt(2)
@example(_mul_rows([F(-1, 3), F(1)], [F(-1, 3) - F(1, 10**15), F(1)]))   # a close pair
@example([F(-1, 10**320), F(1)])                   # no jump: 10^320 is no float
def test_refine_jumps_to_the_cell_bisection_reaches(row):
    """At every width the package refines to, the jump changes no endpoint:
    1e-12 (the default eps), 1e-17 of the distance from 0 (a line's slope),
    and the rungs 2^-k of the pair certificate."""
    if len(row) < 2:
        return
    for r in isolate_real_roots(_ints(row, primitive=True)):
        widths = list(_JUMP_WIDTHS)
        if not r.lo <= 0 <= r.hi:
            widths.append(F(1e-17) * min(abs(r.lo), abs(r.hi)))
        for eps in widths:
            tight = r.refine(eps)
            assert (tight.lo, tight.hi) == oracles.bisect_refine(row, r.lo, r.hi, eps)[:2]


def test_a_row_beyond_the_float_range_takes_no_jump():
    w = _ints([F(-1, 10**320), F(1)], primitive=True)      # t - 10^-320
    with pytest.raises(OverflowError):
        rf._float_root(w, -1.0, 1.0, -1)
    (r,) = isolate_real_roots(w)
    assert r.refine(F(1, 2**1100)).contains(F(1, 10**320))


def test_refining_sqrt2_takes_three_signs(monkeypatch):
    """One sign at lo, two for the jump's cell (the last level's cells are
    far wider than 8 ulps) and none for halving; the result's endpoints
    are not checked again.  Plain bisection from (0, 3) takes 45."""
    (_, r) = isolate_real_roots([-2, 0, 1])
    assert (r.lo, r.hi) == (0, 3)
    calls = oracles.count_calls(monkeypatch, rf._sign_at)
    tight = r.refine(1e-12)
    assert len(calls) == 3
    assert (tight.lo, tight.hi) == oracles.bisect_refine([-2, 0, 1], r.lo, r.hi, 1e-12)[:2]


@pytest.mark.parametrize("eps", [0, 0.0, -1e-3, F(-1, 3), math.nan, math.inf, -math.inf])
def test_a_width_that_is_not_positive_and_finite_is_rejected(eps):
    """Bisection halves until the width is below eps, so a root's
    refine(0), refine(fs, 0.0) or the enclosures of factor_form(f, eps=0)
    would never return."""
    f = HomogeneousForm([1, 0, -2])         # x^2 - 2*y^2
    fs = factor_form(f)
    root = fs.layers[0][2][0]
    for call in (lambda: root.refine(eps), lambda: refine(fs, eps),
                 lambda: factor_form(f, eps=eps).linear):
        raised = []

        def run():
            try:
                call()
            except ValueError as e:
                raised.append(str(e))

        t = threading.Thread(target=run, daemon=True)
        t.start()
        t.join(timeout=1)
        assert not t.is_alive() and raised == ["eps must be a positive finite number"]


def test_isolating_a_squarefree_layer_takes_one_gcd_and_no_division(monkeypatch):
    """Each isolation past the quadratic test takes one gcd(w, w'); on
    these squarefree layers its first integer gcd proves the gcd 1, so no
    exact division runs, neither in the gcd's check nor in the isolation."""
    f = HomogeneousForm([1, 0, 1]) * HomogeneousForm([1, -1]) \
        * HomogeneousForm([2, 0, 1]).power(2) * HomogeneousForm([1, 3]).power(3)
    layers = [w for w, _ in squarefree_decomposition(f.ints)]
    assert len(layers) == 3
    calls = oracles.count_calls(monkeypatch, gcd_univariate)
    divisions = oracles.count_calls(monkeypatch, polyring._div_exact)
    # and a layer with two complex pairs, and one 10^-150 off the axis,
    # which as a quadratic of negative discriminant takes no gcd at all
    rows = layers + [(2, 0, 3, 0, 1), (10**300 + 1, -2 * 10**300, 10**300)]
    for w in rows:
        isolate_real_roots(w)
    assert [list(args[0]) for args, _ in calls] == [list(w) for w in rows if len(w) != 3]
    assert divisions == []
    # a multiple root is divided out after one gcd: (t^2 + 1)^2 (t - 1)
    calls.clear()
    isolated = isolate_real_roots([-1, 1, -2, 2, -1, 1])
    assert len(calls) == 1 and divisions[-1][0] == ([-1, 1, -2, 2, -1, 1], (1, 0, 1))
    assert isolated == isolate_real_roots([-1, 1, -1, 1])


def _lines(n):
    """The product of the lines x - j y, j = 1..n."""
    f = HomogeneousForm([1, -1])
    for j in range(2, n + 1):
        f = f * HomogeneousForm([1, -j])
    return f


def test_yun_on_products_of_many_lines_takes_one_gcd(monkeypatch):
    """u = f(1, t) of 80 or 100 lines is squarefree, and the first integer
    gcd of u(2^K) and u'(2^K) proves it: Yun returns u itself after one
    gcd.  The remainder sequence took 3.8 s at n = 80 and 15 s at 100."""
    us = [_lines(n).ints for n in (80, 100)]
    calls = oracles.count_calls(monkeypatch, gcd_univariate)
    start = time.perf_counter()
    for u in us:
        assert squarefree_decomposition(u) == [(u, 1)]
    assert time.perf_counter() - start < 0.5
    assert len(calls) == 2


@pytest.mark.parametrize("text, bases", [
    ("x^512*y^512*(x-y)^512", [("x*y*(x-y)", 512)]),
    ("(x-y)^512*(x-2*y)^512*(x-3*y)^512", [("(x-y)*(x-2*y)*(x-3*y)", 512)]),
    ("(x^2+y^2)^512*(x^2+2*y^2)^256", [("x^2+2*y^2", 256), ("x^2+y^2", 512)]),
    ("(x^2+x*y+y^2)^300*(x-3*y)^500", [("x^2+x*y+y^2", 300), ("x-3*y", 500)]),
])
def test_degree_cap_powers_keep_their_layers(text, bases):
    """Powers at the parser's degree cap, where Yun's first gcd has degree
    about 1,500: each layer is the primitive f(1, t) of its base (x, which
    is no root of f(1, t), drops out)."""
    want = [(tuple(polyring._trim(parse_polynomial(base).to_form().ints)), m)
            for base, m in bases]
    assert squarefree_decomposition(parse_polynomial(text).to_form().ints) == want


def test_products_of_many_lines_isolate_in_time():
    """The product of the lines x - j y, j = 1..n, has l = n and one layer
    of degree n whose Cauchy bound exceeds n!, so its tree is hundreds of
    levels deep.  On a 2-vCPU host the three isolations take 0.2 s; with
    Sturm chains, whose entries reached 2,346 digits at n = 60, 4.3 s."""
    layers = []
    for n in (30, 45, 60):
        ((w, _),) = squarefree_decomposition(_lines(n).ints)
        layers.append(w)
    start = time.perf_counter()
    assert [len(isolate_real_roots(w)) for w in layers] == [30, 45, 60]
    assert time.perf_counter() - start < 1.0


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
    layers = [w for w, _ in squarefree_decomposition([int(c) for c in f.coefficients()])]
    assert (fs.l, fs.k) == (2, 3)
    assert calls == layers
