import random
import string
from fractions import Fraction

import pytest

from binform.errors import (
    ExprSyntaxError,
    NegativeExponentError,
    NotHomogeneousError,
    UnknownIdentifierError,
    ZeroPolynomialError,
)
from binform.exprparse import (
    canonical_text,
    parse_polynomial,
    to_homogeneous,
)
from binform.polyring import HomogeneousForm

from genforms import random_product

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
