"""Exact finite reduction of divergent operator series, and its oracles."""

import dataclasses
import gc
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from regsum.algebra import Polynomial, binomial_poly, parse_polynomial
from regsum.operators import (
    OperatorSpec,
    op_delta,
    op_diff,
    op_shift,
    parse_operator,
)
from regsum.power_series import OrderExceededError, PowerSeries, exp_series
from regsum.regularize import (
    InexactDataError,
    NotRegularError,
    alt_binom_sum,
    alt_power_sum,
    euler_alt_sum,
    euler_numbers,
    product_rule_check,
    reg_derivatives,
    reg_operator,
    reg_sum,
)
from regsum.regularize import _derivative_blocks, _reduced_values, _shift_of
from regsum.summation import (
    ConvergenceReport,
    LogValue,
    SeriesSpec,
    SummationMethod,
    cauchy_product,
    cesaro_auto,
    evaluate,
    falling_factorial_value,
    parse_series,
    series_alt,
    series_alt_log,
    series_custom,
    series_geometric,
    series_table,
)

ALT = series_alt()
ALTLOG = series_alt_log()
EXACT = SummationMethod("exact")
CESARO = SummationMethod("cesaro", order="auto")

# E_0..E_16; odd entries vanish
EULER_GOLDEN = (
    1, 0, -1, 0, 5, 0, -61, 0, 1385, 0, -50521, 0, 2702765, 0,
    -199360981, 0, 19391512145,
)


def signed_powers(m):
    return series_custom(lambda n, mm=m: Fraction((-1) ** n * n ** mm))


def altlog_numeric_v0():
    """A fresh altlog whose v_0 = log(1 + c) has no closed form, so that leg
    is summed numerically while the v_k for k >= 1 keep theirs: the mixed
    table altlog had before its v_0 was closed."""
    rule = ALTLOG.exact_reg_deriv
    return dataclasses.replace(
        series_alt_log(), label="altlog-numeric-v0",
        exact_reg_deriv=lambda k, c, method: None if k == 0 else rule(k, c, method))


def parse_with_numeric_v0(name):
    """parse_series(name), except that altlog comes as altlog_numeric_v0()."""
    return altlog_numeric_v0() if name == "altlog" else parse_series(name)


# ---------------------------------------------------------------------------
# derivative tables


def test_alt_derivatives_are_exact_closed_forms():
    derivs = reg_derivatives(ALT, 1, CESARO, 6)
    assert derivs.is_exact
    assert len(derivs.values) == 7
    for k in range(7):
        expect = Fraction((-1) ** k * math.factorial(k), 2 ** (k + 1))
        assert derivs.values[k] == expect
        assert derivs.provenance[k] == "exact-closed-form"
        assert derivs.reports[k] is None


def test_altlog_derivatives_are_closed_forms():
    # v_0 = log 2 is exact but not rational, so the table is not is_exact
    derivs = reg_derivatives(ALTLOG, 1, CESARO, 3)
    assert not derivs.is_exact
    assert derivs.values[0] == LogValue(0, 1, 2)
    assert derivs.provenance == ["exact-closed-form"] * 4
    assert derivs.reports == [None] * 4
    for k in range(1, 4):
        expect = Fraction((-1) ** (k - 1) * math.factorial(k - 1), 2 ** k)
        assert derivs.values[k] == expect
    # inside the radius v_0 = log(1 + c), and 0 at c = 0
    assert reg_derivatives(ALTLOG, Fraction(1, 3), SummationMethod("classical"), 0).values \
        == [LogValue(0, 1, Fraction(4, 3))]
    assert reg_derivatives(ALTLOG, 0, CESARO, 0).values == [0]


def test_altlog_derivatives_mix_sources():
    derivs = reg_derivatives(altlog_numeric_v0(), 1, CESARO, 3)
    assert not derivs.is_exact
    assert isinstance(derivs.values[0], float)
    assert abs(derivs.values[0] - math.log(2)) <= 1e-3
    assert derivs.provenance[0] == "numeric-cesaro"
    assert derivs.reports[0] is not None
    for k in range(1, 4):
        expect = Fraction((-1) ** (k - 1) * math.factorial(k - 1), 2 ** k)
        assert derivs.values[k] == expect
        assert derivs.provenance[k] == "exact-closed-form"


def test_derivatives_at_zero_read_off_coefficients():
    table = series_table(["2", "-1/3", "5"])
    derivs = reg_derivatives(table, 0, CESARO, 4)
    assert derivs.is_exact
    assert derivs.values == [2, Fraction(-1, 3), 10, 0, 0]


def test_derivatives_inside_the_radius_go_numeric():
    # 1/(1+t) around t=1/2: values 2/3, -4/9, 16/27, exact for alt; a
    # custom series of the same terms has no closed form and sums them.
    expect = [Fraction(2, 3), Fraction(-4, 9), Fraction(16, 27)]
    assert reg_derivatives(ALT, Fraction(1, 2), CESARO, 2).values == expect
    derivs = reg_derivatives(series_custom(ALT.term), Fraction(1, 2), CESARO, 2)
    assert not derivs.is_exact
    for k in range(3):
        assert abs(derivs.values[k] - float(expect[k])) <= 1e-3
        assert derivs.provenance[k] == "numeric-cesaro"


@pytest.mark.parametrize("series, operator, method, k_max", [
    ("geom:1/2", "symbol:[1/3,1]", SummationMethod("cesaro", order="auto", n_max=600), 3),
    ("altlog", "symbol:[-2/5,1,1/2]", SummationMethod("cesaro", order="auto", n_max=600), 3),
    ("geom:-3/2", "symbol:[-1/2,1]", SummationMethod("classical", n_max=600), 2),
    ("geom:-1", "shift:1", SummationMethod("abel"), 1),
    ("altlog", "symbol:[1/3,1]", SummationMethod("abel"), 3),
    ("geom:2/3", "symbol:[-2/5,1,1/2]", SummationMethod("abel"), 3),
])
def test_numeric_derivatives_match_the_fraction_term_formula(series, operator, method, k_max):
    # Each numeric v_k must equal the engine run on the terms
    # a_n [n]_k c^(n-k) formed by Fraction arithmetic, report and all.  The
    # builtin's terms go in a custom series, which has no closed form.
    f = series_custom(parse_series(series).term)
    c, _ = parse_operator(operator).remainder()
    derivs = reg_derivatives(f, c, method, k_max)
    for k in range(k_max + 1):
        reference = series_custom(
            lambda n, k=k: Fraction(0) if n < k
            else f.term(n) * falling_factorial_value(n, k) * c ** (n - k))
        report = evaluate(reference, method)
        assert derivs.provenance[k] != "exact-closed-form"
        assert derivs.reports[k] == report
        assert derivs.values[k] == report.value


BLOCK_SERIES = ["alt", "altlog", "geom:3/2", "geom:-2/5", "table"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BLOCK_SERIES),
       st.integers(-7, 7).filter(bool), st.integers(1, 7),
       st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True))
def test_derivative_block_entries_are_the_derivative_terms(name, p, q, orders):
    # Entry n of the order-k block, over its denominator, is the k-th
    # derivative term a_n [n]_k c^(n-k), for any subset of the orders.
    f = (series_table(["1/2", "-3", "5/6", "0", "7/4"]) if name == "table"
         else parse_series(name))
    c = Fraction(p, q)
    orders = sorted(orders)
    for k, (nums, den) in zip(orders, _derivative_blocks(f, c, 64, orders)):
        terms = [Fraction(0) if n < k else f.term(n) * falling_factorial_value(n, k) * c ** (n - k)
                 for n in range(65)]
        assert len(nums) == 65 and den > 0
        assert [Fraction(v, den) for v in nums] == terms, (k, c)


def test_numeric_leg_holds_one_block():
    # A custom copy of altlog's terms has no closed form; at degree 0 its
    # v_0 at c = 1 is the one numeric leg, and its block of 4001 ints over
    # lcm(1..4000) is about 3 MB, so a second live copy of it would cross
    # the bound.  The Cesaro and the Abel leg both read the block.
    for method in (CESARO, SummationMethod("abel")):
        tracemalloc.start()
        try:
            _, report = reg_sum(series_custom(ALTLOG.term), op_shift(Fraction(1, 2)),
                                parse_polynomial("-3/2"), Fraction(1, 3), method)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.converged and report.terms_used > 0, method
        assert peak < 4_000_000, (method, peak)


def test_abel_route_tags_provenance():
    method = SummationMethod("abel")
    derivs = reg_derivatives(series_custom(ALTLOG.term), 1, method, 0)
    assert derivs.provenance == ["numeric-abel"]
    assert abs(derivs.values[0] - math.log(2)) <= 1e-3


def test_exact_method_requires_closed_form():
    with pytest.raises(NotRegularError):
        reg_derivatives(series_custom(series_geometric(Fraction(1, 2)).term), 1, EXACT, 0)
    with pytest.raises(NotRegularError):
        reg_derivatives(series_custom(ALTLOG.term), 1, EXACT, 1)


def test_divergent_entry_raises_not_regular():
    ones = series_geometric(1)
    method = SummationMethod("cesaro", order="auto", n_max=400)
    with pytest.raises(NotRegularError) as info:
        reg_derivatives(ones, 1, method, 0)
    assert info.value.report is not None
    assert not info.value.report.converged


def test_k_max_validation():
    with pytest.raises(ValueError):
        reg_derivatives(ALT, 1, CESARO, -1)
    # a negative order cap fails when the method is built, before it can
    # reach the engine
    with pytest.raises(ValueError, match="k_max"):
        reg_derivatives(series_geometric(-1), 1,
                        SummationMethod("cesaro", order="auto", k_max=-1, n_max=64), 0)
    with pytest.raises(ValueError, match="k_max"):
        SummationMethod("cesaro", order="auto", k_max=13)


# ---------------------------------------------------------------------------
# repeated calls

TABLE_METHODS = [
    SummationMethod("classical"),
    SummationMethod("cesaro", order=2),
    CESARO,
    SummationMethod("abel", n_max=600),
]


def _table_series(name):
    if name == "table":
        return series_table(["1/2", "-3", "5/6", "0", "7/4"])
    return parse_series(name)


def _derivatives_or_decline(f, c, method, k_max):
    try:
        return reg_derivatives(f, c, method, k_max)
    except NotRegularError as exc:
        return exc


@pytest.mark.parametrize("method", TABLE_METHODS, ids=lambda m: m.describe())
@pytest.mark.parametrize("name, c", [
    ("alt", 1), ("altlog", 1), ("geom:-1", 1), ("geom:1/2", Fraction(1, 3)), ("table", 1),
])
def test_a_kept_table_answers_as_a_fresh_call_would(name, c, method):
    # "kept" is one series object asked again and again: each answer must
    # equal a fresh series' answer.
    kept = _table_series(name)
    declines = []
    for k_max in (2, 6, 0, 6):
        got = _derivatives_or_decline(kept, c, method, k_max)
        want = _derivatives_or_decline(_table_series(name), c, method, k_max)
        if isinstance(want, NotRegularError):
            assert isinstance(got, NotRegularError), (k_max, got)
            assert str(got) == str(want)
            assert got.report == want.report
            assert all(got is not earlier for earlier in declines)
            declines.append(got)
            continue
        assert got == want, k_max
        # each call gets lists of its own, so a caller's edits stay local
        got.values.clear()
        got.reports.clear()
        got.provenance.clear()
        for report in want.reports:
            if report is not None:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    report.value = 0.0


def test_a_repeated_sum_reads_no_terms():
    reads = []

    def term(n):
        reads.append(n)
        return Fraction(1, 2 ** n)

    f = series_custom(term, "counted")
    T, P = op_shift(1), parse_polynomial("x^2+1")
    method = SummationMethod("cesaro", order="auto", n_max=400)
    first = reg_sum(f, T, P, 0, method)
    assert reads
    reads.clear()
    assert reg_sum(f, T, P, 0, method) == first
    assert reads == []
    # The series keeps its terms, so a deeper order and a looser tol read none.
    reg_sum(f, T, parse_polynomial("x^3"), 0, method)
    reg_sum(f, T, P, 0, SummationMethod("cesaro", order="auto", n_max=400, tol=2e-3))
    assert reads == []


def test_a_sum_reads_the_terms_as_they_are_now():
    # A plain SeriesSpec reads its terms on every call, so once the list
    # behind them changes, the next sum is that of the changed series.
    def over(values):
        return SeriesSpec(lambda n: values[n] if n < len(values) else Fraction(0))

    values = [Fraction(1), Fraction(-1, 2), Fraction(1, 3)]
    f = over(values)
    T, P = op_shift(1), parse_polynomial("x^2+1")
    method = SummationMethod("cesaro", order="auto", n_max=400)
    before = reg_sum(f, T, P, 0, method)
    values[1] = Fraction(5)
    after = reg_sum(f, T, P, 0, method)
    assert after[0] != before[0]
    assert after == reg_sum(over(list(values)), T, P, 0, method)


@pytest.mark.parametrize("name", ["geom:-1", "altlog"])
def test_a_numeric_reg_sum_keeps_nothing_after_the_call(name):
    # The integer block (about 3 MB for altlog's numeric v_0) and the a_n
    # memo must not outlive the call.
    f = parse_with_numeric_v0(name)
    T, P = op_shift(1), parse_polynomial("x^3")
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        reg_sum(f, T, P, 0, CESARO)
        gc.collect()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 64_000, after - before
    assert peak < 4_000_000, peak


def test_dropped_products_leave_nothing_behind():
    # Each product is a series_custom of 4,001 kept terms; once the caller
    # lets go of the products nothing of them stays.
    method = SummationMethod("cesaro", order="auto")
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for i in range(6):
            lhs, rhs = product_rule_check(series_table([Fraction(i + 1, 7)]),
                                          series_geometric(-1), 0, method)
            assert abs(lhs - rhs) <= 1e-3
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 64_000, after - before


# ---------------------------------------------------------------------------
# operator form


def test_reg_operator_matches_series_inverse():
    # sum over k of v_k/k! (U-1)^k with the alternating-unit table collapses
    # to the inverse of 1 + e^t, order by order
    cap = 8
    T = op_shift(1, order=cap + 4)
    op = reg_operator(ALT, T, EXACT, cap)
    one_plus_exp = PowerSeries.constant(1, T.symbol.order) + T.symbol
    assert op.symbol.truncate(cap) == one_plus_exp.inverse().truncate(cap)


@pytest.mark.parametrize("h,cap", [("1", 8), ("-1/2", 6), ("3/4", 7)])
def test_reg_operator_inverts_one_plus_shift(h, cap):
    h = Fraction(h)
    T = op_shift(h, order=cap + 4)
    half = reg_operator(ALT, T, EXACT, cap)
    order = half.symbol.order
    one_plus = op_shift(0, order=order) + op_shift(h, order=order)
    assert half.compose(one_plus).symbol.truncate(cap) == PowerSeries.constant(1, cap)


def test_reg_operator_at_degree_171_inverts_one_plus_shift():
    # Past the float factorials; the geometric weights of alt give one
    # series inverse, where the symbol powers R^0..R^171 took seconds.
    cap = 171
    T = op_shift(1, order=cap)
    start = time.perf_counter()
    half = reg_operator(ALT, T, EXACT, cap)
    elapsed = time.perf_counter() - start
    one_plus_exp = PowerSeries.constant(1, cap) + T.symbol
    assert half.symbol * one_plus_exp == PowerSeries.constant(1, cap)
    assert elapsed < 2.0, elapsed


def test_reg_operator_rejects_numeric_entries():
    with pytest.raises(InexactDataError):
        reg_operator(series_custom(ALTLOG.term), op_shift(1), CESARO, 2)
    # altlog's v_0 = log 2 is exact but not rational
    with pytest.raises(InexactDataError):
        reg_operator(ALTLOG, op_shift(1), CESARO, 2)


def test_reg_operator_validation():
    with pytest.raises(ValueError):
        reg_operator(ALT, op_shift(1), EXACT, -1)


def test_reg_operator_refuses_degrees_past_its_cap():
    # The symbol is exact through t^cap only: a cap-2 symbol kept to a
    # deeper order leaves the residue S + TS - P = 3/4 on x^3.
    half = reg_operator(ALT, op_shift(1, order=44), EXACT, 2)
    assert half.symbol.order == 2
    with pytest.raises(OrderExceededError):
        half.apply(Polynomial([0, 0, 0, 1]))


def test_reg_operator_refuses_a_short_operator_symbol():
    # A T symbol of order 4 cannot carry a cap-8 reduction (zero-padding
    # it gives S(x^6)(0) = -5/4 instead of 0); reg_sum refuses it too.
    T = op_shift(1, order=4)
    with pytest.raises(OrderExceededError):
        reg_operator(ALT, T, EXACT, 8)
    with pytest.raises(OrderExceededError):
        reg_sum(ALT, T, Polynomial([0, 0, 0, 0, 0, 0, 1]), 0, EXACT)


def test_reach_message_is_the_same_through_apply_and_reg_sum():
    T, P = op_shift(1, order=4), Polynomial([0, 0, 0, 0, 0, 0, 1])
    with pytest.raises(OrderExceededError) as via_apply:
        T.apply(P)
    with pytest.raises(OrderExceededError) as via_sum:
        reg_sum(ALT, T, P, 0, EXACT)
    expect = ("symbol truncated at order 4 cannot act on degree 6; "
              "rebuild the operator with a deeper symbol")
    assert str(via_apply.value) == str(via_sum.value) == expect


def test_reg_operator_checks_exactness_before_the_symbol_order():
    with pytest.raises(InexactDataError):
        reg_operator(ALTLOG, op_shift(1, order=2), CESARO, 6)


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
geometric_series = st.one_of(
    st.just(ALT), st.fractions(-3, 3, max_denominator=4).map(series_geometric))
tables = st.lists(small_rationals, min_size=1, max_size=4).map(series_table)


def symbol_powers(T, d):
    """The symbols of R^0..R^d through t^d, R = T - c, each by one public
    product from the last: the reference for both reduction routes."""
    r_symbol = PowerSeries([0, *T.symbol.coeffs[1 : d + 1]])
    powers = [PowerSeries.constant(1, d)]
    for _ in range(d):
        powers.append(powers[-1] * r_symbol)
    return powers


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.tuples(geometric_series, st.sampled_from([0, 1, -2, Fraction(3, 2)])),
                 st.tuples(st.one_of(st.just(ALTLOG), tables), st.just(0))),
       st.sampled_from(["shift/delta", "diff", "symbol"]), small_rationals, st.integers(0, 40),
       st.data())
def test_operator_symbol_is_the_weighted_sum_of_symbol_powers(f_and_c, kind, h, cap, data):
    # Both routes, the one-inverse symbol w_0 (1 - rho R)^(-1) for geometric
    # weights and the weight series composed with R(t) for altlog and tables
    # at c = 0, equal sum_k v_k/k! R^k built from the reference symbol
    # powers.  T = c + R with R the remainder of shift:h (= delta:h's), of
    # diff or of a random symbol.
    f, c = f_and_c
    if kind == "symbol":
        R = [0, *data.draw(st.lists(small_rationals, min_size=cap + 1, max_size=cap + 1))]
    elif kind == "diff":
        R = PowerSeries.t(cap + 1).coeffs
    else:
        R = exp_series(h, cap + 1).coeffs
    T = OperatorSpec(PowerSeries([c, *R[1:]]))
    try:
        values = reg_derivatives(f, c, EXACT, cap).values
    except NotRegularError:
        assume(False)
    expected = PowerSeries.constant(0, cap)
    for k, power in enumerate(symbol_powers(T, cap)):
        expected = expected + power * (values[k] / math.factorial(k))
    assert reg_operator(f, T, EXACT, cap).symbol.coeffs == expected.coeffs


@st.composite
def exact_reductions(draw):
    """(T, d, P): an operator whose derivative table under ALT is exact
    (constant term 0 or 1), a cap d <= 12, and a polynomial of degree <= d."""
    d = draw(st.integers(0, 12))
    order = d + draw(st.integers(0, 4))
    kind = draw(st.sampled_from(["shift", "delta", "diff", "symbol"]))
    if kind == "shift":
        T = op_shift(draw(small_rationals), order)
    elif kind == "delta":
        T = op_delta(draw(small_rationals), order)
    elif kind == "diff":
        T = op_diff(max(order, 1))
    else:
        rest = draw(st.lists(small_rationals, min_size=order, max_size=order))
        T = OperatorSpec(PowerSeries([draw(st.sampled_from([0, 1])), *rest]))
    P = Polynomial(draw(st.lists(small_rationals, max_size=d + 1)))
    return T, d, P


@settings(max_examples=80, deadline=None)
@given(st.one_of(geometric_series, st.just(ALTLOG), tables), exact_reductions(), small_rationals)
def test_operator_form_agrees_with_the_pointwise_sum(f, case, x):
    # Geometric weights take the one-inverse symbol; altlog and tables at
    # c = 0 take the weight series composed with R(t).  Draws with a log or
    # no exact derivative table (table series at c = 1, say) are skipped.
    T, d, P = case
    try:
        exact = reg_derivatives(f, T.constant, EXACT, d).is_exact
    except NotRegularError:
        exact = False
    assume(exact)
    value, _ = reg_sum(f, T, P, x, EXACT)
    assert isinstance(value, Fraction)
    assert reg_operator(f, T, EXACT, d).apply(P)(x) == value


def symbol_power_values(T, P, x):
    """(R^k P)(x) for k = 0..deg P as sum_n [t^n]R^k * P^(n)(x), with the
    reference symbol powers and P^(n) by repeated derivatives."""
    d = len(P.nums) - 1
    at_x, current = [], P
    for _ in range(d + 1):
        at_x.append(current(x))
        current = current.derivative()
    return [sum((s * v for s, v in zip(power.coeffs, at_x)), Fraction(0))
            for power in symbol_powers(T, d)]


@settings(max_examples=60, deadline=None)
@given(st.lists(small_rationals, min_size=1, max_size=41).filter(lambda cs: cs[-1] != 0),
       small_rationals, st.one_of(st.just(Fraction(0)), small_rationals),
       st.sampled_from([Fraction(1), Fraction(-2), Fraction(3, 2)]), st.integers(0, 3))
@example([Fraction(1, 3), -2, 0, Fraction(5, 2)], Fraction(2, 3), Fraction(0), Fraction(1), 0)
@example([Fraction(-7, 2)], Fraction(1, 5), Fraction(-4, 3), Fraction(-2), 2)
def test_shift_table_matches_the_symbol_powers(coeffs, x, h, c, extra):
    # A scaled shift c e^(ht), h = 0 (c times the identity, the identity
    # itself at c = 1) included, is read from the forward differences of
    # P(x + n h); the values are the same Fractions as the symbol-power sum.
    # At degree 0 every c != 0 is a shift, read with h = 0.
    P = Polynomial(coeffs)
    d = len(P.nums) - 1
    T = OperatorSpec(exp_series(h, d + extra) * c)
    assert _shift_of(T, d) == (c, h if d else 0)
    assert _reduced_values(T, P, x) == symbol_power_values(T, P, x)


@pytest.mark.parametrize("d", [2, 5, 12])
def test_symbol_that_is_a_shift_below_its_degree_takes_the_symbol_powers(d):
    # c e^(ht) through t^(d-1) only: the t^d coefficient is off by one.  (At
    # d = 1 every symbol with c != 0 is a shift, with h = s_1 / c.)
    c, h = Fraction(3, 2), Fraction(-2, 3)
    coeffs = list((exp_series(h, d) * c).coeffs)
    coeffs[d] += 1
    T = OperatorSpec(PowerSeries(coeffs))
    P = Polynomial([Fraction(k + 1, 3) * (-1) ** k for k in range(d + 1)])
    x = Fraction(5, 7)
    assert _shift_of(T, d) is None and _shift_of(T, d - 1) == (c, h)
    assert _reduced_values(T, P, x) == symbol_power_values(T, P, x)
    assert _reduced_values(T, P, x) != _reduced_values(OperatorSpec(exp_series(h, d) * c), P, x)


@pytest.mark.parametrize("T", [op_delta(Fraction(1, 2), 6), op_delta(-2, 6), op_diff(6),
                               OperatorSpec(PowerSeries.constant(0, 6))],
                         ids=["delta:1/2", "delta:-2", "diff", "zero"])
@pytest.mark.parametrize("d", [0, 1, 6])
def test_symbol_without_a_constant_is_never_a_shift(T, d):
    # c = 0: deltas, diff and the zero symbol take the symbol powers.
    P = Polynomial([Fraction(k + 1, 3) * (-1) ** k for k in range(d + 1)])
    assert _shift_of(T, d) is None
    assert _reduced_values(T, P, Fraction(5, 7)) == symbol_power_values(T, P, Fraction(5, 7))


def test_truncated_shift_is_refused_before_the_table():
    P = Polynomial([0] * 5 + [1])
    with pytest.raises(OrderExceededError) as refused:
        _reduced_values(op_shift(1, order=4), P, Fraction(1, 3))
    assert str(refused.value) == ("symbol truncated at order 4 cannot act on degree 5; "
                                  "rebuild the operator with a deeper symbol")


def test_log_series_derivative_in_difference_identity():
    # The closed-form derivative values of the log coefficients, arranged as
    # a series in the difference operator and differentiated formally, agree
    # with 1/(2 + u) term by term.
    vals = [ALTLOG.exact_reg_deriv(k, Fraction(1), CESARO) for k in range(1, 10)]
    as_series = PowerSeries([vals[j] / math.factorial(j) for j in range(9)])
    two_plus_u = PowerSeries.constant(2, 8) + PowerSeries.t(8)
    assert as_series.truncate(8) == two_plus_u.inverse()


# ---------------------------------------------------------------------------
# the reduction itself


def test_reg_sum_zero_polynomial():
    value, report = reg_sum(ALT, op_shift(1), Polynomial(), 0, EXACT)
    assert value == 0
    assert report.converged
    assert report.provenance == "exact-closed-form"
    # P = 0 computes no derivative leg: geom:3 is summed by no method, yet
    # its sum against 0 is an exact 0 under every one
    for method in (EXACT, SummationMethod("abel"), SummationMethod("classical"), CESARO):
        value, report = reg_sum(parse_series("geom:3"), op_shift(1), Polynomial(), 0, method)
        assert type(value) is Fraction and value == 0
        assert report == ConvergenceReport(
            value=0.0, exact=Fraction(0), method_used=method, order_used=0, terms_used=0,
            converged=True, residual=0.0, provenance="exact-closed-form")


def test_reg_sum_all_exact_keeps_the_sign_of_zero():
    # the float of -1/(2*10^400) underflows to -0.0, and the report keeps it
    value, report = reg_sum(series_alt(), op_shift(1), Polynomial([Fraction(-1, 10**400)]), 0,
                            SummationMethod("exact"))
    assert value == Fraction(-1, 2 * 10**400)
    assert report.value == 0 and math.copysign(1, report.value) == -1


def test_reg_sum_square_vanishes():
    value, report = reg_sum(ALT, op_shift(1), Polynomial([0, 0, 1]), 0, EXACT)
    assert value == Fraction(0)
    assert report.exact == 0
    assert report.residual == 0.0


def test_reg_sum_constant():
    value, _ = reg_sum(ALT, op_shift(1), Polynomial([1]), 0, EXACT)
    assert value == Fraction(1, 2)


def test_reg_sum_linear():
    value, _ = reg_sum(ALT, op_shift(1), Polynomial([0, 1]), 0, EXACT)
    assert value == Fraction(-1, 4)


def test_reg_sum_identity_operator_halves():
    # with T the identity, only v_0 = 1/2 survives
    p = Polynomial([0, 0, 0, 0, 0, 1])
    value, _ = reg_sum(ALT, op_shift(0), p, 2, EXACT)
    assert value == Fraction(16)


def test_reg_sum_binomial_instance():
    value, _ = reg_sum(ALT, op_shift(1), binomial_poly(3), 0, EXACT)
    assert value == Fraction(-1, 16)


def test_reg_sum_worked_rational_case():
    # P = x^2 - 1 at x = 1/2 under unit shifts, by hand:
    # (1/2)(-3/4) + (-1/4)(2) + (1/8)(2) = -5/8
    p = parse_polynomial("x^2 - 1")
    value, report = reg_sum(ALT, op_shift(1), p, Fraction(1, 2), EXACT)
    assert value == Fraction(-5, 8)
    assert report.exact == Fraction(-5, 8)
    assert report.order_used == 2
    assert report.terms_used == 3


def test_reg_sum_is_method_agnostic_on_closed_forms():
    # the derivative table at the boundary is the same whichever limit
    # notion backs it, so all three routes give identical exact values
    p = parse_polynomial("2*x^3 - x + 1/3")
    # by hand: (1/2)(23/375) - (1/4)(109/25) + (1/8)(84/5) - (1/16)(12)
    for method in (EXACT, CESARO, SummationMethod("abel")):
        value, report = reg_sum(ALT, op_shift(1), p, Fraction(2, 5), method)
        assert value == Fraction(109, 375)
        assert report.provenance == "exact-closed-form"


def test_reg_sum_numeric_path_aggregates():
    # a numeric order-zero entry makes the combined value a float, and the
    # report carries both source tags
    p = Polynomial([0, 1])
    value, report = reg_sum(altlog_numeric_v0(), op_shift(1), p, 0, CESARO)
    assert isinstance(value, float)
    # v_0 * 0 + v_1 * (delta x)(0) = 1/2
    assert abs(value - 0.5) <= 1e-3
    assert report.exact is None
    assert report.converged
    assert report.provenance == "exact-closed-form+numeric-cesaro"
    assert report.terms_used > 0


def test_reg_sum_difference_operator_uses_coefficients():
    # T = forward difference has constant 0: v_k = k! a_k exactly, and
    # sum (-1)^n (Delta^n x)(0) telescopes to -1
    value, _ = reg_sum(ALT, op_delta(1), Polynomial([0, 1]), 0, CESARO)
    assert value == Fraction(-1)


def test_reg_sum_propagates_not_regular():
    ones = series_geometric(1)
    method = SummationMethod("cesaro", order="auto", n_max=400)
    with pytest.raises(NotRegularError):
        reg_sum(ones, op_shift(1), Polynomial([0, 1]), 0, method)


def reference_reg_sum(f, T, P, x, method):
    """Reference reduction: (R^k P)(x) by applying R to P over and over,
    then reg_sum's combination rule: an all-exact table sums to a Fraction;
    a mixed one to the float of its exact part plus one float per numeric
    leg."""
    x = Fraction(x)
    cap = len(P.coeffs) - 1
    c, R = T.remainder()
    derivs = reg_derivatives(f, c, method, cap)
    applied = []
    current = P
    for _ in range(cap + 1):
        applied.append(current(x))
        current = R.apply(current)
    if derivs.is_exact:
        total = Fraction(0)
        for k in range(cap + 1):
            total += derivs.values[k] * applied[k] / math.factorial(k)
        return total, ConvergenceReport(
            value=float(total), exact=total, method_used=method, order_used=cap,
            terms_used=cap + 1, converged=True, residual=0.0,
            provenance="exact-closed-form",
        )
    # Exact legs into one Fraction, converted once; each numeric leg adds
    # v_k times the correctly rounded (R^k P)(x)/k!.
    exact, numeric_f = Fraction(0), 0.0
    for k in range(cap + 1):
        if derivs.reports[k] is None:
            exact += derivs.values[k] * applied[k] / math.factorial(k)
        else:
            numeric_f += derivs.values[k] * float(applied[k] / math.factorial(k))
    total_f = float(exact) + numeric_f
    numeric = [r for r in derivs.reports if r is not None]
    return total_f, ConvergenceReport(
        value=total_f, exact=None, method_used=method,
        order_used=max((r.order_used for r in numeric), default=0),
        terms_used=sum(r.terms_used for r in numeric),
        converged=all(r.converged for r in numeric),
        residual=max((r.residual for r in numeric), default=0.0),
        provenance="+".join(sorted(set(derivs.provenance))),
    )


def assert_same_sum(got, expected):
    (value, report), (ref_value, ref_report) = got, expected
    assert type(value) is type(ref_value)
    if isinstance(value, float):
        assert value.hex() == ref_value.hex()
    else:
        assert value == ref_value
    assert report == ref_report
    assert report.value.hex() == ref_report.value.hex()


@pytest.mark.parametrize("operator", [
    "shift:1", "shift:-3/2", "delta:1/2", "diff", "symbol:[1,-2/3,1/5,4,-1/6,0,3/2]",
])
def test_reg_sum_matches_the_reference_reduction_exactly(operator):
    rng = random.Random(operator)
    T = parse_operator(operator, order=20)
    for deg in range(0, 17):
        p = Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                        for _ in range(deg)] + [Fraction(rng.randint(1, 9), rng.randint(1, 5))])
        x = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert_same_sum(reg_sum(ALT, T, p, x, EXACT), reference_reg_sum(ALT, T, p, x, EXACT))


@pytest.mark.parametrize("series, operator", [
    ("altlog", "shift:1"),
    ("altlog", "shift:-3/2"),
    ("geom:1/2", "symbol:[1/3,1]"),
])
def test_reg_sum_matches_the_reference_reduction_on_numeric_legs(series, operator):
    f = parse_with_numeric_v0(series)
    T = parse_operator(operator)
    for text, x in (("1", 0), ("x^2 - 1/2*x", Fraction(1, 3)),
                     ("-2/3*x^4 + 5*x + 1", Fraction(-3, 2))):
        p = parse_polynomial(text)
        assert_same_sum(reg_sum(f, T, p, x, CESARO), reference_reg_sum(f, T, p, x, CESARO))


def test_reg_sum_exact_value_beyond_float_range():
    big = Polynomial([10 ** 400])
    value, report = reg_sum(ALT, op_shift(1), big, 0, EXACT)
    assert value == Fraction(10 ** 400, 2)
    assert report.exact == value
    assert report.converged
    assert report.value == math.inf
    assert report.to_json_dict()["value"] is None


def test_reg_sum_keeps_exact_legs_exact_in_a_mixed_table():
    # altlog at c = 1 with a numeric v_0 = log 2, v_k for k >= 1 exact.  At
    # x = 0, (R^0 x^d)(0) = 0, so the value is -alt_power_sum(d - 1) rounded
    # once; summing the exact legs' large alternating terms as floats loses
    # it from d = 19 on.  With v_0 closed the value is that rational plus
    # 0*log 2.
    mixed = altlog_numeric_v0()
    for d in range(2, 42):
        p = Polynomial([0] * d + [1])
        value, report = reg_sum(mixed, op_shift(1, d + 4), p, 0, CESARO)
        assert value == float(-alt_power_sum(d - 1)), d
        assert report.converged
        value, report = reg_sum(ALTLOG, op_shift(1, d + 4), p, 0, CESARO)
        assert value == LogValue(-alt_power_sum(d - 1), 0, 2), d
        assert report.value == float(-alt_power_sum(d - 1))


def test_reg_sum_numeric_leg_past_the_float_factorials():
    # T = 1 + D, so the value is v_171 (D^171 x^171)(0) / 171! = f^(171)(1)
    # for f(z) = log(1+z): 170!/2^171, a float although 171! is not.
    p = parse_polynomial("x^171")
    value, report = reg_sum(altlog_numeric_v0(), parse_operator("symbol:[1,1]", order=171),
                            p, 0, CESARO)
    assert report.exact is None
    assert report.converged
    assert value == pytest.approx(math.factorial(170) / 2 ** 171, rel=1e-12)


@pytest.mark.parametrize("series, operator", [
    ("altlog", "shift:1"),
    ("geom:1/2", "shift:1"),
])
def test_reg_sum_numeric_value_beyond_float_range_is_not_converged(series, operator):
    p = parse_polynomial(f"{10 ** 400}*x + 1")
    # exact where it converges; a custom copy of its terms stays numeric
    f = series_custom(parse_series(series).term)
    value, report = reg_sum(f, parse_operator(operator), p, 0, CESARO)
    assert not math.isfinite(value)
    assert report.exact is None
    assert not report.converged
    assert report.to_json_dict()["value"] is None


def test_functional_equation_on_random_instances():
    rng = random.Random(7)
    for _ in range(40):
        deg = rng.randint(0, 8)
        p = Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                        for _ in range(deg + 1)])
        h = Fraction(rng.randint(-8, 8) or 3, rng.randint(1, 4))
        half = reg_operator(ALT, op_shift(h, order=deg + 6), EXACT, deg + 2)
        s = half.apply(p)
        assert (s.translate(h) + s - p).is_zero


# ---------------------------------------------------------------------------
# altlog in closed form: A + B*log(1 + c)


def forward_difference_split(P, h, x):
    """(A, B) with sum_{n>=1} (-1)^(n+1) Q(n)/n = A + B*log 2 for
    Q(n) = P(x + n h): B = Q(0) and A = sum_{k>=1} Delta^k Q(0) (-1)^(k-1)
    / (k 2^k), from the forward differences of Q at 0 (Euler's transform;
    no derivatives, symbols or zigzag numbers)."""
    d = max(len(P.coeffs) - 1, 0)
    row = [P(x + n * h) for n in range(d + 2)]
    diffs = []
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    a = sum((diffs[k] * (-1) ** (k - 1) / (k * 2 ** k) for k in range(1, len(diffs))),
            Fraction(0))
    return a, diffs[0]


@settings(max_examples=80, deadline=None)
@given(st.lists(small_rationals, min_size=1, max_size=13), small_rationals, small_rationals)
def test_altlog_closed_form_matches_the_forward_difference_split(coeffs, h, x):
    P = Polynomial(coeffs)
    d = len(P.coeffs) - 1
    value, report = reg_sum(ALTLOG, op_shift(h, order=max(d, 0) + 4), P, x, EXACT)
    if P.is_zero:
        assert value == 0
        return
    a, b = forward_difference_split(P, h, x)
    assert value == LogValue(a, b, 2)
    assert report == ConvergenceReport(
        value=float(value), exact=None, method_used=EXACT, order_used=d, terms_used=d + 1,
        converged=True, residual=0.0, provenance="exact-closed-form")


def test_altlog_closed_form_agrees_with_both_numeric_engines():
    # A custom copy of altlog's terms has no closed form, so every leg is
    # numeric.  The instances are rescaled so the weights |(R^k P)(x)/k!|
    # sum to 1, which keeps each engine's absolute error near its tol.
    copy = series_custom(ALTLOG.term)
    rng = random.Random(11)
    for i in range(16):
        d = i % 4
        p = Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d)]
                       + [Fraction(rng.randint(1, 9), rng.randint(1, 5))])
        h = Fraction(rng.randint(-8, 8) or 3, rng.randint(1, 4))
        x = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        T = op_shift(h, order=d + 4)
        weight = sum(abs(v) / math.factorial(k)
                     for k, v in enumerate(_reduced_values(T, p, x)))
        p = Polynomial([c / weight for c in p.coeffs])
        closed, _ = reg_sum(ALTLOG, T, p, x, EXACT)
        for method in (CESARO, SummationMethod("abel")):
            value, report = reg_sum(copy, T, p, x, method)
            assert report.converged, (i, method)
            assert abs(value - float(closed)) <= 1e-3, (i, method, value, closed)


def test_altlog_closed_form_inside_the_radius():
    # T = 1/3 + D: c = 1/3, so v_0 = log(4/3), and the series converges
    # geometrically; its first 300 terms sum sum_n a_n (T^n P)(x), with
    # (T^n P)(x) = sum_j C(n, j) c^(n-j) P^(j)(x), to far below 1e-12.
    T = parse_operator("symbol:[1/3,1]", order=8)
    P, x = parse_polynomial("2*x^4 - x^3 + 5/2*x - 1"), Fraction(-2, 3)
    value, report = reg_sum(ALTLOG, T, P, x, SummationMethod("classical"))
    assert isinstance(value, LogValue)
    assert (value.b, value.q) == (P(x), Fraction(4, 3))
    assert str(value).endswith("*log(4/3)")
    assert report.provenance == "exact-closed-form" and report.terms_used == 5
    c, at_x = Fraction(1, 3), []
    current = P
    while not current.is_zero:
        at_x.append(current(x))
        current = current.derivative()
    direct = sum(ALTLOG.term(n) * sum(math.comb(n, j) * c ** (n - j) * v
                                      for j, v in enumerate(at_x))
                 for n in range(1, 300))
    assert abs(float(value) - float(direct)) <= 1e-12
    for method in (CESARO, SummationMethod("abel")):
        assert reg_sum(ALTLOG, T, P, x, method)[0] == value


def test_altlog_closed_form_beyond_float_range():
    # exact, as a rational beyond the float range is: converged, float inf
    value, report = reg_sum(ALTLOG, op_shift(1), parse_polynomial(f"{10 ** 400}*x + 1"), 0,
                            CESARO)
    assert value == LogValue(Fraction(10 ** 400, 2), 1, 2)
    assert report.converged and report.exact is None
    assert report.value == math.inf and report.to_json_dict()["value"] is None


# ---------------------------------------------------------------------------
# zigzag integer table


def test_euler_numbers_golden():
    table = euler_numbers(16)
    assert table == EULER_GOLDEN
    assert len(table) == 17
    assert table[10] == -50521


def test_euler_numbers_odd_entries_vanish():
    table = euler_numbers(15)
    assert all(table[k] == 0 for k in range(1, 16, 2))


def test_euler_numbers_validation_and_export():
    with pytest.raises(ValueError):
        euler_numbers(-1)
    # a plain tuple of ints, which the cli prints entry by entry
    assert euler_numbers(2) == (1, 0, -1) and type(euler_numbers(0)) is tuple


def test_euler_alt_sum_constant_is_half():
    for h in (Fraction(1), Fraction(-2, 3)):
        for x in (Fraction(0), Fraction(5, 7)):
            assert euler_alt_sum(Polynomial([1]), h, x) == Fraction(1, 2)
    assert euler_alt_sum(Polynomial(), 1, 0) == 0


def test_euler_alt_sum_linear_golden():
    assert euler_alt_sum(Polynomial([0, 1]), 1, 0) == Fraction(-1, 4)


def test_euler_alt_sum_matches_reduction():
    rng = random.Random(21)
    for _ in range(25):
        deg = rng.randint(0, 8)
        p = Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                        for _ in range(deg + 1)])
        h = Fraction(rng.randint(-8, 8) or 1, rng.randint(1, 4))
        x = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        via_table = euler_alt_sum(p, h, x)
        via_reduction, _ = reg_sum(ALT, op_shift(h, order=deg + 4), p, x, EXACT)
        assert via_table == via_reduction


# ---------------------------------------------------------------------------
# alternating power and binomial sums


def test_alt_power_sum_golden():
    assert alt_power_sum(0) == Fraction(1, 2)
    assert alt_power_sum(1) == Fraction(-1, 4)
    assert alt_power_sum(2) == Fraction(0)
    assert alt_power_sum(3) == Fraction(1, 8)
    with pytest.raises(ValueError):
        alt_power_sum(-1)


def test_alt_power_sum_matches_monomial_reduction():
    for m in range(11):
        assert alt_power_sum(m) == euler_alt_sum(Polynomial([0] * m + [1]), 1, 0)


def test_alt_power_sum_confirmed_by_iterated_means():
    # the closed form is only trusted because the numeric engine lands on the
    # same value; orders above 5 need deeper budgets than a test should pay
    for m in range(6):
        report = cesaro_auto(signed_powers(m), k_max=10, N=4000)
        assert report.converged, m
        assert abs(report.value - float(alt_power_sum(m))) <= 1e-3, m


def test_alt_binom_sum_golden():
    assert alt_binom_sum(0) == Fraction(1, 2)
    assert alt_binom_sum(2) == Fraction(1, 8)
    assert alt_binom_sum(5) == Fraction(-1, 64)
    with pytest.raises(ValueError):
        alt_binom_sum(-1)


def test_alt_binom_sum_matches_reduction():
    for m in range(11):
        value, _ = reg_sum(ALT, op_shift(1, order=m + 4), binomial_poly(m), 0, EXACT)
        assert value == alt_binom_sum(m)


# ---------------------------------------------------------------------------
# product rule at the boundary


def test_product_rule_unit_factor_is_exact_in_the_series():
    unit = series_table(["1"])
    prod = cauchy_product(ALT, unit)
    for n in range(40):
        assert prod.term(n) == ALT.term(n)


def test_product_rule_order_zero():
    method = SummationMethod("cesaro", order="auto", n_max=1500, k_max=10)
    lhs, rhs = product_rule_check(ALT, ALT, 0, method)
    assert rhs == 0.25
    assert abs(lhs - rhs) <= 1e-3


def test_product_rule_validation():
    with pytest.raises(ValueError):
        product_rule_check(ALT, ALT, -1, CESARO)
