"""Polynomial arithmetic, parsing, and formatting."""

import gc
import random
import sys
import threading
import tracemalloc
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
    Polynomial([5, Fraction(1, 6)])(2)  # a kept form the zero polynomial must not read
    value = z(Fraction(7, 3))
    assert type(value) is Fraction and value == 0


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


# ---------------------------------------------------------------------------
# the kept integer form of the last polynomial evaluated


def assert_same(value, expect):
    assert type(value) is Fraction
    assert (value.numerator, value.denominator) == (expect.numerator, expect.denominator)


@given(st.lists(st.lists(wide_rationals, min_size=0, max_size=8).map(Polynomial),
                min_size=2, max_size=4),
       st.lists(st.tuples(st.integers(0, 3), wide_rationals), min_size=1, max_size=16))
def test_interleaved_evaluations_match_fraction_horner(ps, calls):
    # Switching between polynomials, and back, must never read another
    # polynomial's kept form.
    for index, x in calls:
        p = ps[index % len(ps)]
        assert_same(p(x), fraction_horner(p, x))


def test_equal_but_distinct_coefficient_tuples():
    p = Polynomial([Fraction(1, 3), 2, Fraction(-5, 7)])
    q = Polynomial(list(p.coeffs))
    assert p.coeffs == q.coeffs and p.coeffs is not q.coeffs
    x = Fraction(4, 9)
    for poly in (p, q, q, p, p, q):
        assert_same(poly(x), fraction_horner(p, x))


def test_a_new_polynomial_never_reads_a_dropped_ones_form():
    # Each loop drops the previous polynomial, whose coefficient tuple's
    # memory a new tuple of the same length would reuse if nothing held it.
    x = Fraction(2, 7)
    for i in range(50):
        p = Polynomial([i, 1, Fraction(1, i + 2)])
        assert_same(p(x), fraction_horner(p, x))


def test_reassigned_coefficients_are_evaluated_afresh():
    p = Polynomial([1, 2, 3])
    x = Fraction(-3, 2)
    assert p(x) == fraction_horner(p, x)
    p.coeffs = (Fraction(1, 2), Fraction(0), Fraction(-7, 3))
    assert_same(p(x), fraction_horner(p, x))
    p.coeffs = ()
    assert_same(p(x), Fraction(0))


def test_float_point_refused_after_a_kept_form():
    p = Polynomial([1, Fraction(1, 2), 3])
    p(1)
    p(Fraction(2, 5))
    with pytest.raises(TypeError):
        p(0.5)
    with pytest.raises(TypeError):
        Polynomial()(0.5)


def test_threads_never_read_each_others_form():
    # Every thread shares the one entry.  It is read and replaced whole, so
    # a thread switch anywhere in an evaluation cannot mix two forms.
    polys = [Polynomial([Fraction(i + k, k + 2) for k in range(6)]) for i in range(6)]
    xs = [Fraction(n, 7) for n in range(-30, 30)]
    expect = [[fraction_horner(p, x) for x in xs] for p in polys]
    wrong = []

    def work(i):
        for _ in range(40):
            for x, e in zip(xs, expect[i]):
                if polys[i](x) != e:
                    wrong.append((i, x))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(polys))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_evaluation_keeps_one_form():
    # 2,000 distinct degree-40 polynomials, each evaluated and then dropped:
    # only the last one's integer form may stay behind.
    rng = random.Random(11)
    polys = [Polynomial([Fraction(rng.randint(-99, 99), rng.randint(1, 60))
                         for _ in range(41)]) for _ in range(2000)]
    x = Fraction(-5, 3)
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for p in polys:
            p(x)
            p(x + 1)
        del polys, p
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 64 * 1024, after - before
