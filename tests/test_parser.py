import json
import math
import random
import string
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.parsing.sympy_parser import (
    convert_xor,
    parse_expr,
    rationalize,
    standard_transformations,
)

from binform.errors import (
    ExprSyntaxError,
    NegativeExponentError,
    NotHomogeneousError,
    UnknownIdentifierError,
    ZeroPolynomialError,
)
from binform import exprparse
from binform.exprparse import (
    canonical_text,
    parse_polynomial,
    to_homogeneous,
)
from binform.hamfield import common_divisor, hamiltonian_field
from binform.polyring import BivariatePoly, HomogeneousForm
from binform.realfactor import factor_form

from genforms import F27, random_product
from oracles import canonical_text_reference, count_calls, count_fractions

F = Fraction


def test_single_monomial():
    p = parse_polynomial("x*y^2")
    assert p.terms == {(1, 2): F(1)}


def test_product_expansion():
    p = parse_polynomial("(x^2+y^2)*(x^2+2*y^2)")
    assert p.terms == {(4, 0): F(1), (2, 2): F(3), (0, 4): F(2)}


def test_precedence_and_unary_minus():
    assert parse_polynomial("-x^2").terms == {(2, 0): F(-1)}
    assert parse_polynomial("(-x)^2").terms == {(2, 0): F(1)}
    assert parse_polynomial("2*x-3*y").terms == {(1, 0): F(2), (0, 1): F(-3)}
    # ^ binds tighter than *
    assert parse_polynomial("2*x^3").terms == {(3, 0): F(2)}


def test_power_right_associative():
    # 2^3^2 = 2^9, not 8^2
    assert parse_polynomial("x^2^3").terms == {(8, 0): F(1)}


def test_rational_literals():
    assert parse_polynomial("1/2*x").terms == {(1, 0): F(1, 2)}
    assert parse_polynomial("0.25*y^2").terms == {(0, 2): F(1, 4)}
    assert parse_polynomial("7").terms == {(0, 0): F(7)}
    # unreduced literals: the sum is stored over its least denominator
    p = parse_polynomial("2/4*x+3/6*y")
    assert p.terms == {(1, 0): F(1, 2), (0, 1): F(1, 2)}
    assert (p.nums, p.den) == ({(1, 0): 1, (0, 1): 1}, 2)
    p = parse_polynomial("6/4*x^2 - 0.250*y^2 + 4/8*x*y")
    assert p.terms == {(2, 0): F(3, 2), (0, 2): F(-1, 4), (1, 1): F(1, 2)} and p.den == 4
    assert canonical_text(to_homogeneous(p)) == "3/2*x^2 + 1/2*x*y - 1/4*y^2"
    assert parse_polynomial("10/5*x").den == parse_polynomial("0/7 + x").den == 1


def test_negative_exponent_offset():
    with pytest.raises(NegativeExponentError) as ei:
        parse_polynomial("x^2 - y^-1")
    assert ei.value.offset == 8


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as ei:
        parse_polynomial("x*z")
    assert ei.value.offset == 2
    with pytest.raises(UnknownIdentifierError):
        parse_polynomial("xy")          # juxtaposition is not multiplication


def test_syntax_errors_carry_offsets():
    bad = ["", "x+", "*x", "x^", "((x)", "x^(2", "x$y", "x 2", "x^y"]
    for text in bad:
        with pytest.raises(ExprSyntaxError) as ei:
            parse_polynomial(text)
        assert 0 <= ei.value.offset <= len(text)


def test_zero_denominator_literal():
    with pytest.raises(ExprSyntaxError) as ei:
        parse_polynomial("x + 3/0*y")
    assert ei.value.offset == 4


_ONES = "1" * 5000


@pytest.mark.parametrize("text, message, offset", [
    (f"{_ONES}*x", "number literal too long", 0),
    (f"x + 3/{_ONES}*y", "number literal too long", 4),
    (f"x^{_ONES} + y", "exponent too large", 2),
], ids=["literal", "denominator", "exponent"])
def test_overlong_number_tokens_are_syntax_errors(capsys, text, message, offset):
    """int() refuses more than 4300 digits; the parser reports it at the
    token, exit 2, instead of letting a ValueError escape as Internal."""
    from binform import cli

    assert cli.main(["decide", "--", text]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == {"kind": "ExprSyntax", "offset": offset,
                                        "message": f"{message} (at offset {offset})"}


def test_number_tokens_up_to_the_digit_limit_parse():
    assert parse_polynomial("1" * 4300 + "*x").terms == {(1, 0): F(int("1" * 4300))}
    assert parse_polynomial("1/" + "1" * 4300 + "*x").terms == {(1, 0): F(1, int("1" * 4300))}
    with pytest.raises(ExprSyntaxError, match="exponent too large"):
        parse_polynomial("x^" + "1" * 4300)


def test_exponent_caps():
    with pytest.raises(ExprSyntaxError):
        parse_polynomial("x^9^9^9^9")
    with pytest.raises(ExprSyntaxError):
        parse_polynomial("((x+y)^512)^512")


def test_degree_cap_offsets():
    """The cap is checked at the operator whose expansion passes it."""
    for text, offset in (("(x^512)^2*(x^512)^2", 9), ("((x+y)^512)^512", 11),
                         ("x^512*x^512*x^512*x", 17)):
        with pytest.raises(ExprSyntaxError) as ei:
            parse_polynomial(text)
        assert str(ei.value).startswith("expansion exceeds the degree cap")
        assert ei.value.offset == offset
    # a single exponent above 512 fails at the exponent, before any product
    with pytest.raises(ExprSyntaxError) as ei:
        parse_polynomial("x^1000*x^1000")
    assert str(ei.value).startswith("exponent too large") and ei.value.offset == 2
    assert parse_polynomial("x^512*x^512*x^512").terms == {(1536, 0): F(1)}


def test_degree_cap_is_reported_before_a_later_syntax_error():
    """Polynomials are built while the text is read, so a product that passes
    the cap fails before the parser reaches the stray ')' after it."""
    with pytest.raises(ExprSyntaxError) as ei:
        parse_polynomial("(x^512)^2*(x^512)^2 + )")
    assert str(ei.value).startswith("expansion exceeds the degree cap")
    assert ei.value.offset == 9
    with pytest.raises(ExprSyntaxError) as ei:
        parse_polynomial("x^2 + )")
    assert str(ei.value).startswith("unexpected") and ei.value.offset == 6


def test_to_homogeneous():
    f = to_homogeneous(parse_polynomial("x*y^2"))
    assert f.coefficients() == (F(0), F(0), F(1), F(0))
    g = to_homogeneous(parse_polynomial("x^4-y^4"))
    assert g.coefficients() == (F(1), F(0), F(0), F(0), F(-1))
    with pytest.raises(NotHomogeneousError) as ei:
        to_homogeneous(parse_polynomial("x^2-y"))
    assert sorted(ei.value.degrees) == [1, 2]
    with pytest.raises(ZeroPolynomialError):
        to_homogeneous(parse_polynomial("0*x"))
    with pytest.raises(ZeroPolynomialError):
        to_homogeneous(parse_polynomial("x*y - y*x"))


def test_canonical_text_goldens():
    f = HomogeneousForm([1, 0, -6, 0, 1])
    assert canonical_text(f) == "x^4 - 6*x^2*y^2 + y^4"
    g = HomogeneousForm([F(-1, 2), 1])
    assert canonical_text(g) == "-1/2*x + y"
    assert canonical_text(HomogeneousForm([0, 1])) == "y"


def test_round_trip_random_forms():
    rng = random.Random(61)
    for _ in range(40):
        f = random_product(rng).form
        again = to_homogeneous(parse_polynomial(canonical_text(f)))
        assert again == f
        assert canonical_text(f) == canonical_text(f.to_bivariate())


def test_fuzz_never_crashes():
    rng = random.Random(62)
    alphabet = "xy0123456789+-*^()./ " + string.ascii_lowercase[:6]
    for _ in range(400):
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(0, 64)))
        try:
            parse_polynomial(text)
        except ExprSyntaxError as e:
            assert 0 <= e.offset <= len(text)


# ---------------------------------------------------------------------------
# sympy as the oracle of the parser

_SX, _SY = sympy.symbols("x y")

# A drawn expression is (text, precedence, degree bound).  Precedence 0 is a
# sum, 1 a product, 2 a unary minus, 3 a power and 4 an atom; an operand of
# lower precedence than its place needs is put in parentheses.  A fraction
# literal such as 2/3 is an atom to the parser but a quotient to sympy, so it
# goes in parentheses as the base of a power, where the two would differ.
_NAMES = st.sampled_from([("x", 4, 1), ("y", 4, 1)])
_LEAVES = st.one_of(
    _NAMES, _NAMES,
    st.integers(0, 20).map(lambda n: (str(n), 4, 0)),
    st.from_regex(r"[0-9]{1,2}\.[0-9]{1,2}", fullmatch=True).map(lambda t: (t, 4, 0)),
    st.tuples(st.integers(0, 20), st.integers(1, 20)).map(
        lambda nd: (f"{nd[0]}/{nd[1]}", 3, 0)),
)

# exponents: a digit string, n^e (right associative) or (e), kept small
_EXPONENTS = st.recursive(
    st.integers(0, 3).map(lambda n: (str(n), n)),
    lambda inner: st.one_of(
        st.tuples(st.integers(0, 3), inner).map(
            lambda ne: (f"{ne[0]}^{ne[1][0]}", ne[0] ** ne[1][1])),
        inner.map(lambda e: (f"({e[0]})", e[1])),
    ),
    max_leaves=3,
).filter(lambda e: e[1] <= 3)


def _wrap(node, need):
    return node[0] if node[1] >= need else f"({node[0]})"


@st.composite
def _expression(draw, depth=5):
    """A tree of at most ``depth`` levels, binary operators drawn more often
    than unary minus and parentheses."""
    kind = draw(st.sampled_from("++**^-()")) if depth and draw(st.integers(0, 4)) else "leaf"
    if kind == "leaf":
        return draw(_LEAVES)
    a = draw(_expression(depth - 1))
    if kind in "+*":
        b = draw(_expression(depth - 1))
        if kind == "*":
            return f"{_wrap(a, 1)}*{_wrap(b, 2)}", 1, a[2] + b[2]
        op = draw(st.sampled_from(["+", "-"]))
        return f"{_wrap(a, 0)} {op} {_wrap(b, 1)}", 0, max(a[2], b[2])
    if kind == "^":
        e = draw(_EXPONENTS)
        return f"{_wrap(a, 4)}^{e[0]}", 3, a[2] * e[1]
    if kind == "-":
        return f"-{_wrap(a, 2)}", 2, a[2]
    return f"({a[0]})", 4, a[2]


_TEXTS = _expression().filter(lambda node: node[2] <= 12).map(lambda node: node[0])


def _sympy_terms(text):
    expr = parse_expr(text, local_dict={"x": _SX, "y": _SY},
                      transformations=standard_transformations + (convert_xor, rationalize))
    poly = sympy.Poly(sympy.expand(expr), _SX, _SY)
    return {m: F(int(c.p), int(c.q)) for m, c in poly.terms() if c != 0}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_TEXTS)
def test_parse_matches_sympy_expand(text):
    assert parse_polynomial(text).terms == _sympy_terms(text)


# products and powers of numbers, x and y, which the parser multiplies as
# one scalar monomial; the last is 0, since a zero monomial has degree -1
@pytest.mark.parametrize("text", [
    "-x^2", "-2^2*x", "x*-y", "2*3*x", "x*y*x", "1/2*2/3*x", "0.5*x*2", "x^0*y",
    "(x)^2*3", "0*x^512*x^512*x^512*x",
])
def test_monomial_products_match_sympy_expand(text):
    assert parse_polynomial(text).terms == _sympy_terms(text)


@pytest.mark.parametrize("text, kind, message, offset", [
    ("1/0*x", ExprSyntaxError, "zero denominator in '1/0'", 0),
    ("x*(", ExprSyntaxError, "unexpected end of input", 3),
    ("x^600", ExprSyntaxError, "exponent too large", 2),
    ("xy", UnknownIdentifierError, "unknown identifier 'xy'", 0),
    ("(x-x)^1000", ExprSyntaxError, "exponent too large", 6),
    ("x^2 - y^-1", NegativeExponentError, "negative exponent", 8),
    ("(x^512)^2*(x^512)^2 + )", ExprSyntaxError, "expansion exceeds the degree cap", 9),
    ("x^512*y^512*x^512*y", ExprSyntaxError, "expansion exceeds the degree cap", 17),
    ("x^512*x^512*(x+y)^512*y", ExprSyntaxError, "expansion exceeds the degree cap", 21),
    ("3*x^2^2^2^2^2", ExprSyntaxError, "exponent too large", 7),
    ("x*2/0", ExprSyntaxError, "zero denominator in '2/0'", 2),
    ("2*x*)", ExprSyntaxError, "unexpected ')'", 4),
    ("x*y^", ExprSyntaxError, "exponent must be a non-negative integer", 4),
    ("x*y*(x", ExprSyntaxError, "expected ')'", 6),
    ("(x+y)^2 x", ExprSyntaxError, "unexpected 'x'", 8),
    ("x \u00e9", ExprSyntaxError, "unexpected character '\u00e9'", 2),
    ("-", ExprSyntaxError, "unexpected end of input", 1),
])
def test_error_kind_and_offset(text, kind, message, offset):
    with pytest.raises(ExprSyntaxError) as ei:
        parse_polynomial(text)
    assert type(ei.value) is kind
    assert str(ei.value) == f"{message} (at offset {offset})"
    assert ei.value.offset == offset


def test_pinned_texts_that_parse():
    assert parse_polynomial("((x))^2^3").terms == {(8, 0): F(1)}
    assert parse_polynomial("0*x").terms == {}
    with pytest.raises(ZeroPolynomialError):
        to_homogeneous(parse_polynomial("0*x"))


def test_power_costs_log_n_products(monkeypatch):
    """(x-y)^512 by repeated squaring: a count of sparse products, not a
    timing, bounds the work."""
    calls = count_calls(monkeypatch, exprparse._mul)
    p = parse_polynomial("(x-y)^512")
    assert p.terms == {(512 - k, k): F((-1) ** k * math.comb(512, k)) for k in range(513)}
    assert len(calls) <= 2 * math.ceil(math.log2(512)) + 1
    assert len(parse_polynomial("x^512*y^512*(x-y)^512").terms) == 513



def test_parenthesized_factors_are_the_only_sparse_products(monkeypatch):
    """The monomials inside the factors cost no sparse product: six join
    the seven factors and three square the quadratics."""
    calls = count_calls(monkeypatch, exprparse._mul)
    p = parse_polynomial(F27)
    assert len(calls) <= 12
    assert p.terms == _sympy_terms(F27)


def test_printing_builds_no_fraction(monkeypatch):
    p = parse_polynomial(F27)
    f = to_homogeneous(p)
    fld = hamiltonian_field(f)
    polys = [p, f, fld.P, fld.Q, common_divisor(f, factor_form(f))]
    made = count_fractions(monkeypatch)
    texts = [canonical_text(q) for q in polys]
    assert made == []
    monkeypatch.undo()
    assert texts == [canonical_text_reference(q) for q in polys]


_COEFFS = st.builds(F, st.sampled_from([0, 0, 1, -1, 2, -3, 6, 12, -35, 10**20]),
                    st.sampled_from([1, 1, 2, 3, 4, 6, 9, 35]))
_BIVARIATE = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), _COEFFS,
                             max_size=8).map(BivariatePoly)
_FORMS = st.one_of(
    st.lists(_COEFFS, min_size=2, max_size=7).filter(any).map(HomogeneousForm),
    st.integers(0, 4).map(HomogeneousForm.zero_marker),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(_BIVARIATE, _FORMS))
def test_printing_from_the_ints_matches_the_fraction_printer(p):
    text = canonical_text(p)
    assert text == canonical_text_reference(p)
    q = p if isinstance(p, BivariatePoly) else p.to_bivariate()
    assert parse_polynomial(text) == q
