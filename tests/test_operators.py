"""Operators that commute with translation, stored by symbol."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from regsum.algebra import ParseError, Polynomial, binomial_poly
from regsum.operators import (
    OperatorSpec,
    op_delta,
    op_diff,
    op_identity,
    op_shift,
    parse_operator,
)
from regsum.power_series import OrderExceededError, PowerSeries, exp_series

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)
polys = st.lists(rationals, min_size=0, max_size=7).map(Polynomial)
symbols = st.lists(rationals, min_size=9, max_size=12).map(PowerSeries)


def test_identity_and_diff():
    p = Polynomial([1, "1/2", 0, 3])
    assert op_identity().apply(p) == p
    assert op_diff().apply(p) == p.derivative()


@given(polys, rationals)
def test_shift_translates(p, h):
    assert op_shift(h).apply(p) == p.translate(h)


def test_shift_zero_is_identity():
    assert op_shift(0) == op_identity()


def test_delta_on_binomials_steps_down():
    for k in range(1, 7):
        assert op_delta(1).apply(binomial_poly(k)) == binomial_poly(k - 1)
    assert op_delta(1).apply(binomial_poly(0)).is_zero


def test_delta_matches_translate_minus_identity():
    p = Polynomial([2, -1, "1/3", 4])
    h = Fraction(-3, 2)
    assert op_delta(h).apply(p) == p.translate(h) - p


def test_scaled_sum_constant_term():
    avg = op_identity().scale(Fraction(1, 2)) + op_shift(1).scale(Fraction(1, 2))
    assert avg.constant == 1


def test_remainder_split():
    c, r = op_shift(Fraction(1, 2)).remainder()
    assert c == 1
    assert r == op_delta(Fraction(1, 2))

    two_i_plus_d = op_identity().scale(2) + op_diff()
    c, r = two_i_plus_d.remainder()
    assert c == 2
    assert r == op_diff()


@given(symbols, polys)
def test_remainder_is_nilpotent(sym, p):
    _, r = OperatorSpec(sym).remainder()
    current = p
    for _ in range(len(p.coeffs) + 1):
        current = r.apply(current)
    assert current.is_zero


@given(symbols, symbols, polys)
def test_symbol_product_matches_chained_application(f, g, p):
    combined = OperatorSpec(f * g).apply(p)
    chained = OperatorSpec(f).apply(OperatorSpec(g).apply(p))
    assert combined == chained


@given(symbols, polys, rationals)
def test_translation_invariance(sym, p, h):
    op = OperatorSpec(sym)
    assert op.apply(p.translate(h)) == op.apply(p).translate(h)


@given(symbols, polys)
def test_commutes_with_differentiation(sym, p):
    op = OperatorSpec(sym)
    assert op.apply(p.derivative()) == op.apply(p).derivative()


@given(symbols, polys, polys)
def test_application_is_linear(sym, p, q):
    op = OperatorSpec(sym)
    assert op.apply(p + q) == op.apply(p) + op.apply(q)


def symbol_coefficient_probe(op: OperatorSpec, n: int) -> Fraction:
    """Symbol coefficient n read extensionally, independent of the stored
    list: apply to x^n, evaluate at 0, divide by n!."""
    return op.apply(Polynomial([0] * n + [1]))(0) / math.factorial(n)


def test_symbol_probe_recovers_coefficients():
    sym = PowerSeries(["1/2", 0, -3, "2/7", 1, 0, 0, 5, -1])
    op = OperatorSpec(sym)
    for n in range(9):
        assert symbol_coefficient_probe(op, n) == sym.coeff(n)


def test_apply_needs_deep_enough_symbol():
    shallow = OperatorSpec(PowerSeries([1, 1]))
    with pytest.raises(OrderExceededError):
        shallow.apply(Polynomial([0, 0, 0, 1]))
    assert shallow.apply(Polynomial([0, 1])) == Polynomial([1, 1])


def test_apply_to_zero():
    assert op_shift(3).apply(Polynomial()).is_zero


def test_compose_and_power():
    u = op_shift(Fraction(1, 3))
    assert u.compose(u) == op_shift(Fraction(2, 3))
    assert OperatorSpec(u.symbol ** 3) == op_shift(1)
    assert OperatorSpec(u.symbol ** 0) == op_identity()
    with pytest.raises(ValueError):
        u.symbol ** -1


def test_operator_arithmetic():
    u = op_shift(1)
    i = op_identity()
    assert (u - i) == op_delta(1)
    assert (i + i) == i.scale(2)


def test_parse_named_forms():
    assert parse_operator("identity") == op_identity()
    assert parse_operator("diff") == op_diff()
    assert parse_operator("shift:1/2") == op_shift(Fraction(1, 2))
    assert parse_operator("delta:-2") == op_delta(-2)


def test_parse_symbol_form_pads_to_order():
    op = parse_operator("symbol:[0, 1]", order=6)
    assert op.symbol.order == 6
    assert op == op_diff(order=6)
    assert parse_operator("symbol:[1/2,1/2]").constant == Fraction(1, 2)
    # a longer literal is cut to the order
    assert parse_operator("symbol:[1,2,3]", order=1).symbol.coeffs == (1, 2)


def test_parse_symbol_matches_shift():
    # e^t coefficients written out by hand up to t^4
    op = parse_operator("symbol:[1, 1, 1/2, 1/6, 1/24]", order=4)
    assert op.symbol == exp_series(1, 4)


@pytest.mark.parametrize(
    "bad",
    ["", "unknown", "shift:", "shift:x", "delta:1/0", "symbol:", "symbol:[]",
     "symbol:1,2", "symbol:[1,a]"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_operator(bad)


@pytest.mark.parametrize("field", ["symbol", "label"])
def test_fields_can_be_neither_assigned_nor_deleted(field):
    T = parse_operator("shift:1")
    p = Polynomial([1, 2])
    with pytest.raises(AttributeError):
        setattr(T, field, "x")
    with pytest.raises(AttributeError):
        delattr(T, field)
    assert T.label == "shift:1" and T.apply(p) == Polynomial([3, 2])


def test_copies_and_pickles_are_equal_operators():
    T = parse_operator("delta:1/2", order=6)
    for copied in (copy.deepcopy(T), pickle.loads(pickle.dumps(T))):
        assert copied == T and copied.label == T.label
        assert repr(copied) == repr(T)
