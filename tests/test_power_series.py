"""Truncated power series arithmetic."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from regsum.power_series import (
    DomainError,
    NonUnitError,
    OrderExceededError,
    PowerSeries,
    cosh_series,
    euler_numbers,
    exp_series,
)
from regsum.summation import series_geometric

small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)


def test_constructor_requires_a_term():
    with pytest.raises(ValueError):
        PowerSeries([])


def test_coefficients_can_be_neither_assigned_nor_deleted():
    s = PowerSeries([1, 2])
    with pytest.raises(AttributeError, match="cannot assign to field 'coeffs'"):
        s.coeffs = [1.5]
    with pytest.raises(AttributeError, match="cannot delete field 'coeffs'"):
        del s.coeffs
    assert s.coeffs == (1, 2) and s.inverse().coeffs == (1, -2)


def test_copies_and_pickles_are_equal_values():
    value = PowerSeries(["1/2", "-3", "0"])
    for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert other == value and repr(other) == repr(value)
        with pytest.raises(AttributeError):
            del other.coeffs


def test_order_and_coeff():
    s = PowerSeries([1, 2, 3])
    assert s.order == 2
    assert s.coeff(1) == 2
    assert s.coeffs[0] == 1
    with pytest.raises(OrderExceededError):
        s.coeff(3)
    with pytest.raises(OrderExceededError):
        s.coeff(-1)


def test_truncate():
    s = PowerSeries([1, 2, 3])
    assert s.truncate(1).coeffs == (Fraction(1), Fraction(2))
    with pytest.raises(OrderExceededError):
        s.truncate(5)


def test_equality_up_to_common_order():
    assert PowerSeries([1, 2]) == PowerSeries([1, 2, 99])
    assert PowerSeries([1, 2]) != PowerSeries([1, 3])


def test_constant_and_t():
    assert PowerSeries.constant(5, 3).coeffs == (5, 0, 0, 0)
    assert PowerSeries.t(2).coeffs == (0, 1, 0)
    with pytest.raises(ValueError):
        PowerSeries.t(0)


def test_from_function():
    s = PowerSeries(Fraction(1, n + 1) for n in range(3 + 1))
    assert s.coeffs == (1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))


def test_mul_golden():
    a = PowerSeries([1, 1, 0, 0])
    assert (a * a).coeffs == (1, 2, 1, 0)


def test_pow():
    a = PowerSeries([1, 1, 0, 0])
    assert a ** 3 == a * a * a
    assert (a ** 0) == PowerSeries.constant(1, 3)
    with pytest.raises(ValueError):
        a ** -1


def test_scalar_mul_both_sides():
    s = PowerSeries([1, 2])
    assert (s * Fraction(1, 2)).coeffs == (Fraction(1, 2), 1)
    assert (Fraction(1, 2) * s).coeffs == (Fraction(1, 2), 1)
    assert (s * 2).coeffs == (2, 4)


def test_geometric_series_inverts_linear_factor():
    r = Fraction(2, 3)
    g = PowerSeries(series_geometric(r).terms(10 + 1))
    linear = PowerSeries.constant(1, 10) - PowerSeries.t(10) * r
    assert g * linear == PowerSeries.constant(1, 10)
    assert g.coeff(4) == r ** 4


def test_inverse_round_trip():
    s = PowerSeries([2, "1/3", -1, 4, 0, 1])
    assert s * s.inverse() == PowerSeries.constant(1, s.order)


def test_inverse_needs_unit():
    with pytest.raises(NonUnitError):
        PowerSeries([0, 1]).inverse()


def test_exp_series_coefficients():
    h = Fraction(1, 2)
    e = exp_series(h, 6)
    for n in range(7):
        assert e.coeff(n) == h ** n / math.factorial(n)


def test_compose_golden():
    # 1/(1-t) composed with t/(1+t)... checked against (1+t) directly:
    # substituting t -> -t in 1/(1-t) gives 1/(1+t)
    outer = PowerSeries(series_geometric(1).terms(8 + 1))
    inner = -PowerSeries.t(8)
    assert outer.compose(inner) == PowerSeries(series_geometric(-1).terms(8 + 1))
    with pytest.raises(DomainError):
        outer.compose(PowerSeries.constant(1, 8))


def test_cosh_series_even_coefficients():
    c = cosh_series(8)
    for n in range(9):
        expect = Fraction(1, math.factorial(n)) if n % 2 == 0 else Fraction(0)
        assert c.coeff(n) == expect


def _factorial_loop_cosh(order):
    # cosh_series as a factorial counter, written out
    out = [Fraction(0)] * (order + 1)
    fact = 1
    for n in range(order + 1):
        if n:
            fact *= n
        if n % 2 == 0:
            out[n] = Fraction(1, fact)
    return out


def test_cosh_series_matches_a_factorial_loop():
    for n in range(61):
        assert cosh_series(n).coeffs == tuple(_factorial_loop_cosh(n)), n
    for n in (-1, -2):
        with pytest.raises(ValueError):
            cosh_series(n)


def _inverse_loop(coeffs):
    # out_n = -(1/f_0) sum_{j=1..n} f_j out_(n-j), written out
    inv0 = 1 / coeffs[0]
    out = [inv0] + [Fraction(0)] * (len(coeffs) - 1)
    for n in range(1, len(coeffs)):
        acc = Fraction(0)
        for j in range(1, n + 1):
            if coeffs[j] != 0:
                acc += coeffs[j] * out[n - j]
        out[n] = -inv0 * acc
    return out


rational_series = st.lists(
    st.fractions(min_value=-50, max_value=50, max_denominator=40), min_size=1, max_size=13)


@given(rational_series)
@example([Fraction(1)])
@example([Fraction(-2, 3)] + [Fraction(0)] * 12)
def test_inverse_matches_its_loop(cs):
    if cs[0] != 0:
        assert PowerSeries(cs).inverse().coeffs == tuple(_inverse_loop(cs))


def test_cosh_inverse_starts_like_sech():
    inv = cosh_series(6).inverse()
    assert inv.coeff(0) == 1
    assert inv.coeff(2) == Fraction(-1, 2)
    assert inv.coeff(4) == Fraction(5, 24)


def test_euler_numbers_match_the_inverse_of_cosh():
    inverse = cosh_series(120).inverse()
    expect = [inverse.coeff(k) * math.factorial(k) for k in range(121)]
    assert all(v.denominator == 1 for v in expect)
    for n in range(121):
        assert euler_numbers(n) == tuple(v.numerator for v in expect[:n + 1])


def test_strings_round_trip():
    s = PowerSeries(["1/2", "-3", "0"])
    assert s.to_strings() == ["1/2", "-3", "0"]
    assert PowerSeries(s.to_strings()) == s


def test_repr_of_a_coefficient_past_the_int_text_limit():
    big = Fraction(-(10 ** 5000) - 7, 11)
    s = PowerSeries([big, 1])
    assert repr(s) == "PowerSeries(['-1" + "0" * 4999 + "7/11', '1'])"


def test_str_rendering():
    assert str(PowerSeries([1, "1/2", 0])) == "1 + 1/2*t + O(t^3)"
    assert str(PowerSeries([-3, 2])) == "-3 + 2*t + O(t^2)"
    assert str(PowerSeries([0, -2, 1])) == "-2*t + t^2 + O(t^3)"
    assert str(PowerSeries([0, -1, 0, 1, "-3/4"])) == "-t + t^3 - 3/4*t^4 + O(t^5)"
    assert str(PowerSeries([1, -1, 0, 1])) == "1 - t + t^3 + O(t^4)"
    assert str(PowerSeries([-1, 1, -1])) == "-1 + t - t^2 + O(t^3)"
    assert str(PowerSeries([0, 0, 0])) == "0 + O(t^3)"


@given(st.lists(small_rationals, min_size=1, max_size=8),
       st.lists(small_rationals, min_size=1, max_size=8))
def test_mul_commutes(a, b):
    sa, sb = PowerSeries(a), PowerSeries(b)
    assert sa * sb == sb * sa


@given(small_rationals, small_rationals)
def test_exp_turns_sums_into_products(a, b):
    assert exp_series(a, 8) * exp_series(b, 8) == exp_series(a + b, 8)


# ---------------------------------------------------------------------------
# every series operation against plain Fraction tuples, through order 12


def _tuple_mul(a, b):
    # the product through the smaller order, as a double loop
    n = min(len(a), len(b))
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += a[i] * b[j]
    return tuple(out)


def _tuple_power_sum(weights, g):
    # sum_k weights[k] g^k with g[0] == 0, so g^k vanishes below t^k
    out = [Fraction(0)] * len(g)
    power = (Fraction(1),) + (Fraction(0),) * (len(g) - 1)
    for w in weights:
        out = [o + w * p for o, p in zip(out, power)]
        power = _tuple_mul(power, g)
    return tuple(out)


def _tuple_compose(a, g):
    # a(g(t)) by Horner substitution, both cut to the smaller order
    n = min(len(a), len(g))
    acc = (a[n - 1],) + (Fraction(0),) * (n - 1)
    for k in range(n - 2, -1, -1):
        acc = _tuple_mul(acc, g[:n])
        acc = (acc[0] + a[k],) + acc[1:]
    return acc


series_through_12 = st.lists(small_rationals, min_size=1, max_size=13)


@given(series_through_12, series_through_12)
def test_ring_operations_match_fraction_tuples(a, b):
    sa, sb = PowerSeries(a), PowerSeries(b)
    assert (sa + sb).coeffs == tuple(x + y for x, y in zip(a, b))
    assert (sa - sb).coeffs == tuple(x - y for x, y in zip(a, b))
    assert (sa * sb).coeffs == _tuple_mul(a, b)


@given(series_through_12)
@example([Fraction(0)])
@example([Fraction(-1, 2)] + [Fraction(0)] * 12)
def test_inverse_matches_fraction_tuples(cs):
    n = len(cs)
    # 1/f = (1/f_0) sum_k (-h)^k, where f = f_0 (1 + h)
    f0 = cs[0] or Fraction(1)
    h = (Fraction(0), *(c / f0 for c in cs[1:]))
    inverse = _tuple_power_sum([(-1) ** k / f0 for k in range(n)], h)
    assert PowerSeries((f0, *cs[1:])).inverse().coeffs == inverse


@given(series_through_12, series_through_12)
def test_compose_matches_horner_on_fraction_tuples(a, b):
    g = (Fraction(0), *b[1:])
    assert PowerSeries(a).compose(PowerSeries(g)).coeffs == _tuple_compose(a, g)
