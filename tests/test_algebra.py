"""Polynomial arithmetic, parsing, and formatting."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from regsum.algebra import (
    NEG_INFINITY,
    ParseError,
    Polynomial,
    as_rational,
    binomial_poly,
    falling_factorial_poly,
    format_polynomial,
    format_rational,
    parse_polynomial,
)

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)

polys = st.lists(rationals, min_size=0, max_size=7).map(Polynomial)


def test_as_rational_accepts_int_str_fraction():
    assert as_rational(3) == Fraction(3)
    assert as_rational("-7/2") == Fraction(-7, 2)
    assert as_rational(Fraction(1, 3)) == Fraction(1, 3)


def test_as_rational_rejects_float():
    with pytest.raises(TypeError):
        as_rational(0.5)


def test_parse_error_carries_position():
    err = ParseError("boom", 4)
    assert err.position == 4
    assert "position 4" in str(err)


def test_constructor_trims_trailing_zeros():
    p = Polynomial([1, 2, 0, 0])
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert p.degree == 1


def test_zero_polynomial():
    z = Polynomial()
    assert z.is_zero
    assert z.degree == NEG_INFINITY
    assert Polynomial([0, 0]).is_zero
    assert z(Fraction(7, 3)) == 0


def test_constructors():
    assert Polynomial.constant(5) == Polynomial([5])
    assert Polynomial.x() == Polynomial([0, 1])
    assert Polynomial.monomial(3) == Polynomial([0, 0, 0, 1])
    assert Polynomial.monomial(2, Fraction(1, 2)) == Polynomial([0, 0, "1/2"])


def test_coeff_beyond_length_is_zero():
    p = Polynomial([1, 2])
    assert p.coeff(0) == 1
    assert p.coeff(5) == 0


def test_evaluation_golden():
    p = parse_polynomial("3*x^2 - 1/2*x + 4")
    assert p(Fraction(2, 3)) == Fraction(3) * Fraction(4, 9) - Fraction(1, 3) + 4
    assert p(0) == 4


def test_arithmetic_golden():
    x = Polynomial.x()
    one = Polynomial.constant(1)
    assert (x + one) * (x + one) == Polynomial([1, 2, 1])
    assert (x + one) ** 2 == Polynomial([1, 2, 1])
    assert (x - x).is_zero
    assert -x == Polynomial([0, -1])
    assert x * Fraction(1, 2) == Polynomial([0, "1/2"])


def test_derivative():
    p = Polynomial([4, "-1/2", 3])
    assert p.derivative() == Polynomial(["-1/2", 6])
    assert Polynomial.constant(9).derivative().is_zero


def test_translate_golden():
    p = Polynomial.monomial(2)
    h = Fraction(1, 2)
    assert p.translate(h) == Polynomial(["1/4", 1, 1])
    assert p.translate(0) == p
    assert Polynomial().translate(3).is_zero


def test_falling_factorial_poly():
    p = falling_factorial_poly(3)
    assert p == Polynomial.x() * (Polynomial.x() - Polynomial.constant(1)) * (
        Polynomial.x() - Polynomial.constant(2)
    )
    assert falling_factorial_poly(0) == Polynomial.constant(1)
    for n in range(8):
        assert p(n) == n * (n - 1) * (n - 2)


def test_binomial_poly_values():
    b2 = binomial_poly(2)
    assert b2(5) == 10
    assert b2(1) == 0
    assert binomial_poly(0) == Polynomial.constant(1)
    # integer inputs always give integers
    for m in range(5):
        bm = binomial_poly(m)
        for n in range(-4, 10):
            assert bm(n).denominator == 1


def test_binomial_poly_difference_steps_down():
    for m in range(1, 6):
        bm = binomial_poly(m)
        assert bm.translate(1) - bm == binomial_poly(m - 1)


def test_parse_forms():
    assert parse_polynomial("x^5") == Polynomial.monomial(5)
    assert parse_polynomial("-x") == Polynomial([0, -1])
    assert parse_polynomial("7/3") == Polynomial.constant(Fraction(7, 3))
    assert parse_polynomial("1 + x - x") == Polynomial.constant(1)
    assert parse_polynomial("0") == Polynomial()
    assert parse_polynomial(" 2*x ^ 3 ") == Polynomial([0, 0, 0, 2])


def test_parse_rejects_implicit_product():
    with pytest.raises(ParseError):
        parse_polynomial("2x")


@pytest.mark.parametrize(
    "bad", ["", "x^^2", "x^", "x^-2", "3*", "* x", "x + + 1", "y", "1 2"]
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_polynomial(bad)


def test_format_rational():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-1, 2)) == "-1/2"


def test_format_golden():
    p = Polynomial([4, "-1/2", 3])
    assert format_polynomial(p) == "3*x^2 - 1/2*x + 4"
    assert format_polynomial(Polynomial()) == "0"
    assert format_polynomial(Polynomial([0, 1])) == "x"
    assert format_polynomial(Polynomial([0, -1])) == "-x"


@given(polys)
def test_format_parse_round_trip(p):
    assert parse_polynomial(format_polynomial(p)) == p


@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(polys, polys, rationals)
def test_evaluation_is_a_homomorphism(p, q, x):
    assert (p + q)(x) == p(x) + q(x)
    assert (p * q)(x) == p(x) * q(x)


@given(polys, rationals, rationals)
def test_translate_adds(p, h1, h2):
    assert p.translate(h1).translate(h2) == p.translate(h1 + h2)


@given(polys, rationals, rationals)
def test_translate_evaluates_at_shifted_point(p, h, x):
    assert p.translate(h)(x) == p(x + h)


@given(polys, polys)
def test_derivative_product_rule(p, q):
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


def fraction_horner(p, x):
    """Reference evaluation: Horner's scheme carried out in Fractions."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


wide_rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)


@given(st.lists(wide_rationals, min_size=0, max_size=12).map(Polynomial),
       st.one_of(wide_rationals, st.integers(-50, 50)))
def test_evaluation_matches_fraction_horner(p, x):
    # The integer Horner must give the same reduced Fraction, including the
    # zero polynomial and negative or fractional points.
    expect = fraction_horner(p, Fraction(x))
    value = p(x)
    assert type(value) is Fraction
    assert (value.numerator, value.denominator) == (expect.numerator, expect.denominator)
    assert p(str(Fraction(x))) == expect
