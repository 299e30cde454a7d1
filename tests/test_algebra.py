"""Polynomial arithmetic, parsing, and formatting."""

import copy
import gc
import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from regsum.algebra import (
    NEG_INFINITY,
    ParseError,
    Polynomial,
    _derivative_sum,
    _scale_to_ints,
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
    Polynomial([5, Fraction(1, 6)])(2)  # another evaluation first leaves zero at zero
    value = z(Fraction(7, 3))
    assert type(value) is Fraction and value == 0


def test_coeff_beyond_length_is_zero():
    p = Polynomial([1, 2])
    assert p.coeff(0) == 1
    assert p.coeff(5) == 0


def test_evaluation_golden():
    p = parse_polynomial("3*x^2 - 1/2*x + 4")
    assert p(Fraction(2, 3)) == Fraction(3) * Fraction(4, 9) - Fraction(1, 3) + 4
    assert p(0) == 4


def test_arithmetic_golden():
    x = Polynomial([0, 1])
    one = Polynomial([1])
    assert (x + one) * (x + one) == Polynomial([1, 2, 1])
    assert (x + one) ** 2 == Polynomial([1, 2, 1])
    assert (x - x).is_zero
    assert -x == Polynomial([0, -1])
    assert x * Fraction(1, 2) == Polynomial([0, "1/2"])


def test_derivative():
    p = Polynomial([4, "-1/2", 3])
    assert p.derivative() == Polynomial(["-1/2", 6])
    assert Polynomial([9]).derivative().is_zero


def test_translate_golden():
    p = Polynomial([0, 0, 1])
    h = Fraction(1, 2)
    assert p.translate(h) == Polynomial(["1/4", 1, 1])
    assert p.translate(0) == p
    assert Polynomial().translate(3).is_zero


def test_falling_factorial_poly():
    p = falling_factorial_poly(3)
    assert p == Polynomial([0, 1]) * (Polynomial([0, 1]) - Polynomial([1])) * (
        Polynomial([0, 1]) - Polynomial([2])
    )
    assert falling_factorial_poly(0) == Polynomial([1])
    for n in range(8):
        assert p(n) == n * (n - 1) * (n - 2)


def test_binomial_poly_values():
    b2 = binomial_poly(2)
    assert b2(5) == 10
    assert b2(1) == 0
    assert binomial_poly(0) == Polynomial([1])
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
    assert parse_polynomial("x^5") == Polynomial([0, 0, 0, 0, 0, 1])
    assert parse_polynomial("-x") == Polynomial([0, -1])
    assert parse_polynomial("7/3") == Polynomial([Fraction(7, 3)])
    assert parse_polynomial("1 + x - x") == Polynomial([1])
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
    # past str()'s default limit of 4300 digits
    q = Fraction(-(10 ** 5000 - 1), 10 ** 6000 + 1)
    assert format_rational(q) == "-" + "9" * 5000 + "/1" + "0" * 5999 + "1"
    assert format_rational(Fraction(10 ** 9000)) == "1" + "0" * 9000


def test_format_golden():
    p = Polynomial([4, "-1/2", 3])
    assert format_polynomial(p) == "3*x^2 - 1/2*x + 4"
    assert format_polynomial(Polynomial()) == "0"
    assert format_polynomial(Polynomial([0, 1])) == "x"
    assert format_polynomial(Polynomial([0, -1])) == "-x"
    assert format_polynomial(Polynomial(["-5/3"])) == "-5/3"
    assert format_polynomial(Polynomial([-3, 2])) == "2*x - 3"
    assert format_polynomial(Polynomial([5, -7])) == "-7*x + 5"
    assert format_polynomial(Polynomial([0, 1, 0, -1])) == "-x^3 + x"
    assert format_polynomial(Polynomial([-1, -1, 0, -1])) == "-x^3 - x - 1"
    assert format_polynomial(Polynomial([1, 0, 0, 1])) == "x^3 + 1"


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
# integer Horner evaluation on each polynomial's stored form


def assert_same(value, expect):
    assert type(value) is Fraction
    assert (value.numerator, value.denominator) == (expect.numerator, expect.denominator)


def test_float_point_refused_after_a_kept_form():
    # Exact evaluations first, then a float point: it is still refused.
    p = Polynomial([1, Fraction(1, 2), 3])
    p(1)
    p(Fraction(2, 5))
    with pytest.raises(TypeError):
        p(0.5)
    with pytest.raises(TypeError):
        Polynomial()(0.5)


def test_evaluation_retains_nothing():
    # 2,000 distinct degree-40 polynomials, each evaluated and then dropped:
    # evaluation keeps nothing behind.
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


# ---------------------------------------------------------------------------
# the stored form: int numerators over one denominator, in lowest terms


def assert_lowest_terms(p):
    assert all(type(n) is int for n in p.nums) and type(p.den) is int
    assert p.den > 0 and math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0


def trimmed(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    n = max(len(a), len(b))
    a, b = a + (0,) * (n - len(a)), b + (0,) * (n - len(b))
    return trimmed([x + y for x, y in zip(a, b)])


def ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trimmed(out)


def ref_derivative(a):
    return trimmed([i * c for i, c in enumerate(a)][1:])


def ref_derivative_sum(a, weights):
    acc, term = (), a
    for w in weights[:len(a)]:
        acc = ref_add(acc, trimmed([w * c for c in term]))
        term = ref_derivative(term)
    return acc


def ref_translate(a, h):
    # sum_k a_k (x+h)^k expanded by the binomial theorem
    out = [Fraction(0)] * len(a)
    for k, c in enumerate(a):
        for j in range(k + 1):
            out[j] += c * math.comb(k, j) * h ** (k - j)
    return trimmed(out)


@given(st.lists(rationals, max_size=7), st.lists(rationals, max_size=7), rationals,
       rationals, st.lists(rationals, min_size=7, max_size=7))
def test_stored_form_matches_fraction_reference(a, b, c, x, weights):
    p, q = Polynomial(a), Polynomial(b)
    ta, tb = trimmed(a), trimmed(b)
    cases = [
        (p, ta),
        (p + q, ref_add(ta, tb)),
        (p - q, ref_add(ta, tuple(-y for y in tb))),
        (-p, tuple(-y for y in ta)),
        (p * c, trimmed([c * y for y in ta])),
        (c * p, trimmed([c * y for y in ta])),
        (p * q, ref_mul(ta, tb)),
        (p.derivative(), ref_derivative(ta)),
        (p.translate(c), ref_translate(ta, c)),
        (_derivative_sum(p, weights), ref_derivative_sum(ta, weights)),
    ]
    for got, expect in cases:
        assert_lowest_terms(got)
        assert all(type(v) is Fraction for v in got.coeffs)
        assert got.coeffs == expect
    value = Fraction(0)
    for v in reversed(ta):
        value = value * x + v
    assert_same(p(x), value)


def test_equal_values_have_equal_stored_forms():
    p, q = Polynomial([Fraction(2, 4), 0]), Polynomial(["1/2"])
    assert (p.nums, p.den) == (q.nums, q.den) == ((1,), 2)
    assert p == q and hash(p) == hash(q)
    r = Polynomial([Fraction(1, 6), Fraction(-3, 4), 2])
    assert (r.nums, r.den) == ((2, -9, 24), 12)
    assert (Polynomial().nums, Polynomial().den) == ((), 1)
    assert_lowest_terms(r * 6 - r * 6)


def test_coefficients_cannot_be_reassigned():
    # The hash reads the stored form, so a polynomial that could change
    # after being used as a key would be lost from its dict.
    p = Polynomial([1, Fraction(1, 2)])
    table = {p: 1}
    with pytest.raises(AttributeError):
        p.coeffs = [3]
    assert p.coeffs == (1, Fraction(1, 2))
    assert p in table and table[Polynomial(["1", "1/2"])] == 1


@pytest.mark.parametrize("field", ["nums", "den"])
def test_stored_fields_can_be_neither_assigned_nor_deleted(field):
    p = Polynomial([1, Fraction(1, 2)])
    table = {p: 1}
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(p, field, 0)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(p, field)
    assert (p.nums, p.den) == ((2, 1), 2) and p(2) == 2
    assert p in table and table[Polynomial(["1", "1/2"])] == 1


def test_copies_and_pickles_keep_the_stored_form():
    p = Polynomial([Fraction(-1, 3), 0, 5])
    for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert q == p and (q.nums, q.den) == (p.nums, p.den) and hash(q) == hash(p)
        with pytest.raises(AttributeError):
            q.den = 1


# Denominators with dividing chains (2 | 4 | 8, 3 | 9 | 27) and coprime
# pairs, so the lcm walk meets both; small numerators give zeros and repeats.
scalable = st.one_of(
    st.integers(-30, 30),
    st.builds(Fraction, st.integers(-30, 30),
              st.sampled_from([1, 2, 3, 4, 8, 9, 27, 35, 10**9 + 7])),
)


@given(st.lists(scalable, max_size=12))
@example([])
@example([0, 0])
@example([Fraction(1, 8), Fraction(-3, 4), Fraction(1, 8), Fraction(5, 2), 7])
@example([Fraction(1, 3), Fraction(2, 5), Fraction(-1, 7)])
def test_scale_to_ints_matches_fractions(values):
    expect = [Fraction(v) for v in values]
    work = list(values)
    den = _scale_to_ints(work)
    assert den == math.lcm(*[v.denominator for v in expect])
    assert all(type(n) is int for n in work)
    assert [Fraction(n, den) for n in work] == expect


def test_stored_form_memory():
    # 1,000 degree-20 polynomials built from small p/q coefficients keep
    # their int numerators, not one Fraction per coefficient.
    rng = random.Random(7)
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        polys = [Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(20)]
                            + [Fraction(rng.randint(1, 9), rng.randint(1, 5))])
                 for _ in range(1000)]
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(p.degree == 20 for p in polys)
    assert (after - before) / len(polys) < 800, (after - before) / len(polys)


def test_repr_of_a_coefficient_past_the_int_text_limit():
    big = Fraction(10 ** 5000 + 1, 3)
    p = Polynomial([1, big])
    assert repr(p) == "Polynomial(['1', '1" + "0" * 4999 + "1/3'])"
