"""Numeric summation engines and series plumbing."""

import gc
import json
import math
import pickle
import random
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from regsum.algebra import ParseError, Polynomial, format_rational, parse_polynomial
from regsum.checks import _normalized_alt_instance
from regsum.operators import op_diff, op_shift
from regsum.regularize import euler_alt_sum, reg_sum
from regsum.summation import (
    ConvergenceReport,
    LogValue,
    NotConvergedError,
    SeriesSpec,
    DEFAULT_TERMS,
    MAX_ORDER_CAP,
    SummationMethod,
    abel_limit,
    cauchy_product,
    cesaro_auto,
    cesaro_limit,
    evaluate,
    falling_factorial_value,
    parse_series,
    partial_sums,
    series_alt,
    series_alt_log,
    series_custom,
    series_geometric,
    series_table,
    shift_check,
)

ALT = series_alt()
ALTLOG = series_alt_log()


def strict_loads(text):
    """json.loads that refuses NaN and the infinities."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


def alt_weighted():
    # a_n = (-1)^n (n+1), the convolution square of the alternating units
    return series_custom(lambda n: Fraction((-1) ** n * (n + 1)), "alt-weighted")


# ---------------------------------------------------------------------------
# series definitions and literals


def test_falling_factorial_value():
    assert falling_factorial_value(5, 2) == 20
    assert falling_factorial_value(5, 0) == 1
    assert falling_factorial_value(3, 5) == 0
    assert falling_factorial_value(6, 6) == 720


def test_builtin_terms():
    assert ALT.terms(4) == [1, -1, 1, -1]
    assert ALTLOG.terms(5) == [0, 1, Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4)]
    geom = series_geometric(Fraction(-1, 2))
    assert geom.terms(3) == [1, Fraction(-1, 2), Fraction(1, 4)]
    table = series_table(["1", "-1/2"])
    assert table.terms(4) == [1, Fraction(-1, 2), 0, 0]


def test_geometric_terms_in_any_access_order():
    # The engines read terms in order, which steps from the previous power;
    # any other access recomputes r^n.
    for r in (Fraction(3, 4), Fraction(-5, 3), Fraction(0), Fraction(1)):
        sequential = series_geometric(r)
        assert [sequential.term(n) for n in range(40)] == [r ** n for n in range(40)]
        scattered = series_geometric(r)
        for n in (7, 7, 8, 3, 0, 1, 25, 26, 27, 2):
            assert scattered.term(n) == r ** n


# alt is geom:-1 and altlog its integral: one geometric rule gives both their
# closed forms, at the boundary point c = 1 and inside the radius.
def test_alt_closed_form_gate():
    method = SummationMethod("cesaro")
    assert ALT.exact_reg_deriv(0, Fraction(1), method) == Fraction(1, 2)
    assert ALT.exact_reg_deriv(3, Fraction(1), method) == Fraction(-6, 16)
    assert ALT.exact_reg_deriv(0, Fraction(1, 2), method) == Fraction(2, 3)
    # no closed form where the series diverges, or for plain convergence at
    # the boundary point
    assert ALT.exact_reg_deriv(0, Fraction(-1), method) is None
    assert ALT.exact_reg_deriv(0, Fraction(2), method) is None
    assert ALT.exact_reg_deriv(0, Fraction(1), SummationMethod("classical")) is None


def test_altlog_closed_form_gate():
    method = SummationMethod("abel")
    assert ALTLOG.exact_reg_deriv(1, Fraction(1), method) == Fraction(1, 2)
    assert ALTLOG.exact_reg_deriv(2, Fraction(1), method) == Fraction(-1, 4)
    assert ALTLOG.exact_reg_deriv(3, Fraction(1), method) == Fraction(2, 8)
    # order zero is log 2, a LogValue, under every method
    for tag in ("classical", "cesaro", "abel", "exact"):
        assert ALTLOG.exact_reg_deriv(0, Fraction(1), SummationMethod(tag)) == LogValue(0, 1, 2)
    assert ALTLOG.exact_reg_deriv(0, Fraction(-1, 2), method) == LogValue(0, 1, Fraction(1, 2))
    assert ALTLOG.exact_reg_deriv(0, Fraction(0), method) == 0
    assert ALTLOG.exact_reg_deriv(1, Fraction(2), method) is None
    assert ALTLOG.exact_reg_deriv(0, Fraction(2), method) is None
    assert ALTLOG.exact_reg_deriv(0, Fraction(-1), method) is None


# log 2 to 100 digits
LN2 = Decimal("0.6931471805599453094172321214581765680755001343602552541206800094"
              "933936219696947156058633269964186875")


def test_log_value_text_and_identity():
    value = LogValue(Fraction(-73605, 256), 419, 2)
    assert str(value) == "-73605/256 + 419*log(2)"
    assert str(LogValue(0, Fraction(-3, 2), Fraction(4, 3))) == "0 - 3/2*log(4/3)"
    assert value == LogValue("-73605/256", "419", "2") and hash(value) == hash(
        LogValue(Fraction(-73605, 256), 419, 2))
    assert value != LogValue(Fraction(-73605, 256), 419, 3)
    with pytest.raises(AttributeError):
        value.b = 0
    with pytest.raises(ValueError):
        LogValue(0, 1, 0)
    assert float(value) == 2.9091374046170846


def test_log_value_fields_can_be_neither_assigned_nor_deleted():
    value = LogValue(Fraction(1, 2), -3, "4/3")
    table = {value: 1}
    for name in ("a", "b", "q"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert math.isclose(float(value), 0.5 - 3 * math.log(4 / 3), rel_tol=1e-15)
    assert value in table and table[LogValue("1/2", "-3", Fraction(4, 3))] == 1
    copied = pickle.loads(pickle.dumps(value))
    assert copied == value and hash(copied) == hash(value)


def test_log_value_repr():
    assert repr(LogValue(Fraction(-73605, 256), 419, 2)) == (
        "LogValue(Fraction(-73605, 256), Fraction(419, 1), Fraction(2, 1))")
    assert repr(LogValue("1/2", 0, 1)) == (
        "LogValue(Fraction(1, 2), Fraction(0, 1), Fraction(1, 1))")


def test_log_value_float_is_one_rounding():
    # A near-cancelling a against -b*log 2: the sum is below 1e-15 while
    # both parts are near 8e18, so 34 digits cancel.  The float must be
    # within one ulp of a 60-digit reference.
    b = 3 ** 40
    with localcontext() as ctx:
        ctx.prec = 100
        a = -Fraction(int(b * LN2 * 10 ** 15), 10 ** 15)
        reference = float(b * LN2 + Decimal(a.numerator) / a.denominator)
    assert 0 < reference < 1e-15
    got = float(LogValue(a, b, 2))
    assert abs(got - reference) <= math.ulp(reference), (got, reference)
    # log q for q near 1 keeps its digits
    assert float(LogValue(0, 1, 1 + Fraction(1, 10 ** 50))) == 1e-50
    # b = 0 or q = 1 is the rational a, beyond the float range too
    assert float(LogValue(Fraction(1, 3), 0, 2)) == 1 / 3
    assert float(LogValue(10 ** 400, 5, 1)) == math.inf
    assert float(LogValue(-(10 ** 400), 1, 2)) == -math.inf


# (r, lag, c): a_n = r^n (lag 0) or r^(n-1)/n (lag 1, the altlog series),
# at points with |rc| < 1 or rc = -1.
GEOMETRIC_RULE_CASES = [
    (Fraction(-1), 0, Fraction(1, 2)),
    (Fraction(-1), 0, Fraction(-1, 3)),
    (Fraction(-1), 0, Fraction(1)),
    (Fraction(-1), 1, Fraction(1, 2)),
    (Fraction(-1), 1, Fraction(1)),
    (Fraction(1, 2), 0, Fraction(1)),
    (Fraction(1, 2), 0, Fraction(-2)),
    (Fraction(-3, 2), 0, Fraction(1, 3)),
    (Fraction(-3, 2), 0, Fraction(2, 3)),
    (Fraction(2, 3), 0, Fraction(1)),
    (Fraction(2, 3), 0, Fraction(-3, 2)),
    (Fraction(0), 0, Fraction(1)),
    (Fraction(0), 0, Fraction(5)),
]


@pytest.mark.parametrize("r, lag, c", GEOMETRIC_RULE_CASES,
                         ids=[f"r={r}-lag={lag}-c={c}" for r, lag, c in GEOMETRIC_RULE_CASES])
def test_geometric_rule_matches_both_engines(r, lag, c):
    # Every closed form of the rule against both numeric engines on the
    # derivative series a_n [n]_k c^(n-k) built from Fraction terms.  At
    # rc = -1 that series is r^j times the j-th one of alt, whose iterated
    # means settle slowly (about v_j / N off; from j = 3 on they may miss
    # tol); as in criterion 2 their estimate's deviation is checked there,
    # in units of r^j.
    f = series_alt_log() if lag else series_geometric(r)
    hook = f.exact_reg_deriv
    for k in range(5):
        value = hook(k, c, SummationMethod("cesaro"))
        j = k - lag
        if j >= 0:
            assert value == math.factorial(j) * r ** j / (1 - r * c) ** (j + 1)
        reference = series_custom(
            lambda n, k=k: Fraction(0) if n < k
            else f.term(n) * falling_factorial_value(n, k) * c ** (n - k))
        report = cesaro_auto(reference, N=4000)
        assert report.converged or r * c == -1, (k, report)
        assert abs(report.value - float(value)) <= 1e-3 * max(1, abs(r) ** j), (k, report)
        report = abel_limit(reference, max_terms=4000)
        if report.converged:
            assert abs(report.value - float(value)) <= 1e-3, (k, report)
        assert hook(k, c, SummationMethod("abel")) == value
        assert hook(k, c, SummationMethod("exact")) == value
        # at rc = -1 the k-th series needs a mean of order j + 1; the lag-1
        # v_0 (j = -1) is summed by every method
        fixed = [SummationMethod("classical")] + [SummationMethod("cesaro", order=m)
                                                  for m in range(j + 2)]
        gated = [hook(k, c, m) for m in fixed]
        if r * c == -1 and j >= 0:
            assert gated == [None] * (j + 2) + [value], k
        else:
            assert gated == [value] * (j + 3), k
    if r:
        for outside in (1 / r, 2 / r, -2 / r):  # rc = 1 and |rc| > 1
            assert all(hook(k, outside, SummationMethod("abel")) is None for k in range(5))


def test_parse_series_forms(tmp_path):
    geom = parse_series("geom:-3/4")
    assert geom.term(2) == Fraction(9, 16)
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps(["1", "-1/2", "1/3"]))
    table = parse_series(f"table:@{path}")
    assert table.terms(4) == [1, Fraction(-1, 2), Fraction(1, 3), 0]


@pytest.mark.parametrize("bad", ["", "nope", "geom:", "geom:1/0", "table:@"])
def test_parse_series_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_series(bad)


def test_parse_series_table_file_errors(tmp_path):
    with pytest.raises(ParseError):
        parse_series(f"table:@{tmp_path}/missing.json")
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(ParseError):
        parse_series(f"table:@{bad_json}")
    not_list = tmp_path / "obj.json"
    not_list.write_text('{"a": 1}')
    with pytest.raises(ParseError):
        parse_series(f"table:@{not_list}")
    bad_entry = tmp_path / "entry.json"
    bad_entry.write_text('["1", "x"]')
    with pytest.raises(ParseError):
        parse_series(f"table:@{bad_entry}")


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_tolerance_must_be_positive_and_finite(tol):
    # one check, in SummationMethod, for every engine and the method itself
    for build in (lambda: SummationMethod("cesaro", tol=tol),
                  lambda: cesaro_limit(ALT, 1, tol=tol),
                  lambda: cesaro_auto(ALT, tol=tol),
                  lambda: abel_limit(ALT, tol=tol)):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            build()


def test_method_validation():
    assert SummationMethod("cesaro", order=3).describe() == "cesaro:3"
    assert SummationMethod("abel").describe() == "abel"
    with pytest.raises(ValueError):
        SummationMethod("borel")
    with pytest.raises(ValueError):
        SummationMethod("cesaro", order=-1)
    with pytest.raises(ValueError):
        SummationMethod("cesaro", order="fast")


def test_a_fixed_order_is_capped():
    # k_max's cap bounds a fixed order too; nothing above it is ever run
    assert SummationMethod("cesaro", order=MAX_ORDER_CAP).describe() == f"cesaro:{MAX_ORDER_CAP}"
    with pytest.raises(ValueError, match="order"):
        SummationMethod("cesaro", order=MAX_ORDER_CAP + 1)
    with pytest.raises(ValueError, match="order"):
        cesaro_limit(ALT, MAX_ORDER_CAP + 1)


def test_report_json_dict():
    rep = ConvergenceReport(
        value=1.0 / 3.0,
        exact=Fraction(1, 3),
        method_used=SummationMethod("cesaro", order=1),
        order_used=1,
        terms_used=10,
        converged=True,
        residual=1.23456789e-8,
    )
    d = rep.to_json_dict()
    assert d["value"] == float(f"{1.0/3.0:.12g}")
    assert d["exact"] == "1/3"
    assert d["method"] == "cesaro:1"
    assert d["converged"] is True
    assert "provenance" not in d
    assert json.loads(rep.to_json()) == d


def test_report_json_prints_an_exact_value_of_any_size():
    # x^60 at 10^90: an integer of about 5,400 digits, past str()'s default
    # limit of 4,300
    value, rep = reg_sum(series_alt(), op_shift(1, 64), Polynomial([0] * 60 + [1]),
                         Fraction(10 ** 90), SummationMethod("exact"))
    text = strict_loads(rep.to_json())["exact"]
    assert len(text) > 4300
    assert text == format_rational(value)


# ---------------------------------------------------------------------------
# prefix sums and products


def test_partial_sums_golden():
    sums = partial_sums(ALT)
    assert sums.terms(5) == [1, 0, 1, 0, 1]


def test_partial_sums_read_each_term_once():
    reads = []

    def term(n):
        reads.append(n)
        return Fraction((-1) ** n, n + 1)

    sums = partial_sums(SeriesSpec(term))
    assert [sums.term(n) for n in (5, 2, 9, 9)] == [
        sum((Fraction((-1) ** i, i + 1) for i in range(n + 1)), Fraction(0))
        for n in (5, 2, 9, 9)
    ]
    assert reads == list(range(10))


def test_partial_sums_of_int_terms_are_fractions():
    sums = partial_sums(SeriesSpec(lambda n: n))
    assert [sums.term(n) for n in (4, 0, 6)] == [10, 0, 21]
    assert all(type(t) is Fraction for t in sums.terms(8))
    with pytest.raises(IndexError, match="nonnegative"):
        sums.term(-1)
    assert sums.label == "sums(custom)"


def test_iterated_prefix_sums_match_binomial_convolution():
    # (k+1)-fold running totals of a equal sum_nu binom(nu+k,k) a(n-nu)
    a = series_custom(lambda n: Fraction((-1) ** n, n + 1))
    for k in range(5):
        iterated = a
        for _ in range(k + 1):
            iterated = partial_sums(iterated)
        for n in range(0, 201, 8):
            direct = sum(
                (Fraction(math.comb(nu + k, k)) * a.term(n - nu) for nu in range(n + 1)),
                Fraction(0),
            )
            assert iterated.term(n) == direct


def test_iterated_prefix_sums_of_signed_binomials():
    # The (k+1)-fold running totals of (-1)^n binom(n, k-1) collapse to a
    # single binomial in half the index, with sign (-1)^(k-1); this is the
    # exact engine behind the order-k summability of those series.
    for k in range(1, 6):
        b = series_custom(lambda n, kk=k: Fraction((-1) ** n * math.comb(n, kk - 1)))
        iterated = b
        for _ in range(k + 1):
            iterated = partial_sums(iterated)
        for n in range(200):
            if n < k - 1:
                expect = Fraction(0)
            else:
                m = (n - k + 1) // 2
                expect = Fraction((-1) ** (k - 1) * math.comb(m + k, k))
            assert iterated.term(n) == expect


def test_cauchy_product_unit():
    unit = series_table(["1"])
    for other in (ALT, series_geometric(Fraction(1, 3))):
        prod = cauchy_product(other, unit)
        assert prod.terms(20) == other.terms(20)


def test_cauchy_product_alt_squared():
    prod = cauchy_product(ALT, ALT)
    for n in range(30):
        assert prod.term(n) == Fraction((-1) ** n * (n + 1))


def test_cauchy_product_terms_equal_the_fraction_convolution():
    # Mixed denominators that grow with n (altlog, a geometric ratio, a
    # finite table), so the running common denominators get rescaled.
    table = series_table(["1/2", "-3", "5/6", "0", "7/4"])
    factors = [ALTLOG, series_geometric(Fraction(-2, 3)), table, ALT]
    for a in factors:
        for b in factors:
            prod = cauchy_product(a, b)
            for n in range(40):
                expect = sum((a.term(n - i) * b.term(i) for i in range(n + 1)), Fraction(0))
                got = prod.term(n)
                assert type(got) is Fraction and got == expect, (a.label, b.label, n)


def test_cauchy_product_refuses_float_terms():
    floats = series_custom(lambda n: 0.5, "floats")
    with pytest.raises(TypeError):
        cauchy_product(ALT, floats).term(3)


def test_a_held_cauchy_product_stays_under_its_stated_bound():
    # The docstring's figures: an altlog x alt product, held here, grows at
    # most quadratically from n = 500 to n = 4000, and four such products
    # stay under 48 MB.
    a, b = series_alt_log(), series_alt()
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        prod = cauchy_product(a, b)
        prod.term(500)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    retained = after - before
    assert retained > 0
    assert 4 * retained * (4000 / 500) ** 2 < 48e6, retained


# ---------------------------------------------------------------------------
# the term memo of a custom series


def counted(reads):
    def term(n):
        reads.append(n)
        return Fraction((-1) ** n * (n * n - 3), 7)

    return term


def test_a_custom_series_computes_each_term_once():
    reads = []
    shared = series_custom(counted(reads), "counted")
    got = cesaro_auto(shared), abel_limit(shared)
    assert len(reads) <= DEFAULT_TERMS + 1
    assert reads == list(range(len(reads)))
    # the same reports as from the terms computed afresh on every read
    fresh = SeriesSpec(counted([]))
    assert got == (cesaro_auto(fresh), abel_limit(fresh))


def test_a_custom_series_keeps_no_term_past_the_default_budget():
    reads = []
    s = series_custom(counted(reads), "counted")
    for n in (DEFAULT_TERMS + 1, DEFAULT_TERMS + 1, DEFAULT_TERMS, DEFAULT_TERMS):
        s.term(n)
    assert reads == [DEFAULT_TERMS + 1, DEFAULT_TERMS + 1, *range(DEFAULT_TERMS + 1)]
    with pytest.raises(IndexError):
        s.term(-1)


def test_a_custom_series_memo_size_after_reg_sum():
    # 4001 kept Fractions of a few digits each, held by the series
    # (README gives the same bound)
    T, P = op_shift(1), parse_polynomial("x^3")
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        f = series_custom(lambda n: Fraction((-1) ** n, n + 1), "alt-harmonic")
        reg_sum(f, T, P, 0, SummationMethod("cesaro", order="auto"))
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 400_000, after - before


# ---------------------------------------------------------------------------
# iterated-mean engine


def test_cesaro_validation():
    with pytest.raises(ValueError):
        cesaro_limit(ALT, -1)
    with pytest.raises(ValueError):
        cesaro_limit(ALT, 1, N=8)
    with pytest.raises(ValueError):
        cesaro_limit(ALT, 1, tol=0.0)
    with pytest.raises(ValueError):
        cesaro_auto(ALT, k_max=13)
    with pytest.raises(ValueError):
        cesaro_auto(ALT, k_max=-1)


def test_alt_needs_order_one():
    # at order 0 the running totals oscillate 1,0,1,0,... and the checkpoint
    # estimates land on one parity; the neighbor guard must catch that
    r0 = cesaro_limit(ALT, 0, N=4000)
    assert not r0.converged
    assert r0.residual > 0.4

    r1 = cesaro_limit(ALT, 1, N=2000)
    assert r1.converged
    assert abs(r1.value - 0.5) <= 1e-3
    assert r1.order_used == 1
    assert r1.terms_used == 2001


def test_alt_weighted_needs_order_two():
    r = cesaro_limit(alt_weighted(), 2, N=4000)
    assert r.converged
    assert abs(r.value - 0.25) <= 1e-3
    assert not cesaro_limit(alt_weighted(), 1, N=4000).converged


def test_auto_escalates_to_first_converged_order():
    r = cesaro_auto(ALT, N=4000)
    assert r.converged
    assert r.order_used == 1
    assert abs(r.value - 0.5) <= 1e-3


def test_auto_on_signed_cubes():
    # (-1)^n n^3 sums to 0.125; one order below the threshold the estimates
    # oscillate between 1/2 and -1/4 by checkpoint parity without decaying,
    # which once produced a false convergence at order 3
    s = series_custom(lambda n: Fraction((-1) ** n * n ** 3))
    r = cesaro_auto(s, N=4000)
    assert r.converged
    assert r.order_used == 4
    assert abs(r.value - 0.125) <= 1e-3


def test_budget_exhaustion_reports_not_raises():
    ones = series_geometric(1)
    r = cesaro_auto(ones, N=400)
    assert not r.converged
    assert r.residual > 0


def test_classical_on_convergent_geometric():
    r = cesaro_limit(series_geometric(Fraction(1, 2)), 0, N=4000)
    assert r.converged
    assert abs(r.value - 2.0) <= 1e-3


def test_regularity_on_convergent_builtins():
    # higher-order means must not change a convergent sum; the estimate bias
    # grows with both the order and the tail weight, so the slowly decaying
    # ratio 1/2 gets a larger budget
    cases = [
        (series_geometric(Fraction(1, 4)), 4000, 4.0 / 3.0),
        (series_geometric(Fraction(-1, 2)), 4000, 2.0 / 3.0),
        (ALTLOG, 4000, math.log(2)),
        (series_table(["1", "-1/2", "1/3", "-1/4", "1/5"]), 4000, float(Fraction(47, 60))),
        (series_geometric(Fraction(1, 2)), 16000, 2.0),
    ]
    for series, budget, classical in cases:
        for k in range(5):
            r = cesaro_limit(series, k, N=budget)
            assert abs(r.value - classical) <= 1e-3, (series.label, k, r.value)


def test_estimates_beyond_float_range_report_not_converged():
    # 2^4000 and 3^4000 overflow a float: the run reports, it does not raise
    for report in (cesaro_auto(series_geometric(-2)), cesaro_limit(series_geometric(3), 0)):
        assert not report.converged
        assert report.residual == math.inf
        assert math.isinf(report.value)
        d = report.to_json_dict()
        assert d["value"] is None and d["residual"] is None
        assert strict_loads(report.to_json()) == d
    small = cesaro_limit(series_geometric(-2), 0, N=100)
    assert math.isfinite(small.value) and math.isfinite(small.residual)
    assert not small.converged


def test_cesaro_rejects_inexact_terms():
    floats = series_custom(lambda n: 0.5 * (-1) ** n, "floats")
    with pytest.raises(TypeError):
        cesaro_limit(floats, 1, N=16)
    with pytest.raises(TypeError):
        cesaro_auto(floats, N=16)


FLOAT_READERS = {
    "abel_limit": abel_limit,
    "evaluate-abel": lambda a: evaluate(a, SummationMethod("abel")),
    "evaluate-cesaro": lambda a: evaluate(a, SummationMethod("cesaro")),
    "cauchy_product": lambda a: cauchy_product(ALT, a).term(3),
    "partial_sums": lambda a: partial_sums(a).term(2),
    # at c = 0 the derivative values are k! a_k, read with no engine
    "reg_sum-c0": lambda a: reg_sum(a, op_diff(), parse_polynomial("x^2 + 1"), 1,
                                    SummationMethod("exact")),
}


@pytest.mark.parametrize("reader", list(FLOAT_READERS))
def test_every_reader_refuses_a_float_term_alike(reader):
    halves = SeriesSpec(lambda n: 0.5 ** n)
    with pytest.raises(TypeError, match=r"^series term 1\.0 is not an exact rational$"):
        FLOAT_READERS[reader](halves)


# ---------------------------------------------------------------------------
# integer prefix sums against the Fraction reference


def _fraction_prefix_pass(values):
    acc = Fraction(0)
    for i, v in enumerate(values):
        acc += v
        values[i] = acc


def _fraction_checkpoint_report(sums, k, method):
    n_last = len(sums) - 1
    points = sorted({max(1, n_last // 4), max(1, n_last // 2), n_last})
    estimates = [float(sums[n] / math.comb(n + k, k)) for n in points]
    gaps = [abs(b - a) for a, b in zip(estimates, estimates[1:])]
    neighbor = float(sums[n_last - 1] / math.comb(n_last - 1 + k, k))
    gaps.append(abs(estimates[-1] - neighbor))
    residual = max(gaps)
    return ConvergenceReport(
        value=estimates[-1], exact=None, method_used=method, order_used=k,
        terms_used=n_last + 1, converged=residual <= method.tol, residual=residual,
    )


def reference_cesaro_limit(a, k, N, tol=1e-3):
    """The order-k engine with its prefix sums kept in Fractions."""
    values = a.terms(N + 1)
    for _ in range(k + 1):
        _fraction_prefix_pass(values)
    method = SummationMethod("cesaro", order=k, n_max=N, tol=tol)
    return _fraction_checkpoint_report(values, k, method)


def reference_cesaro_auto(a, k_max, N, tol=1e-3):
    """The escalating engine with its prefix sums kept in Fractions."""
    values = a.terms(N + 1)
    best = None
    for k in range(k_max + 1):
        _fraction_prefix_pass(values)
        method = SummationMethod("cesaro", order=k, n_max=N, tol=tol, k_max=k_max)
        report = _fraction_checkpoint_report(values, k, method)
        if report.converged:
            return report
        if best is None or report.residual < best.residual:
            best = report
    return best


REFERENCE_SERIES = [
    series_table(["1", "-1/2", "2/3", "-5/4", "7/10", "-3/7", "11/12"]),
    ALTLOG,
    alt_weighted(),
    # divergent, with the denominators 1..6 recurring
    series_custom(lambda n: Fraction((-1) ** n * (n + 1), n % 6 + 1), "mixed"),
]


@pytest.mark.parametrize("series", REFERENCE_SERIES, ids=lambda s: s.label)
@pytest.mark.parametrize("N", [16, 257, 4000])
def test_integer_prefix_sums_match_fraction_reference(series, N):
    # every report field, floats included, must be identical
    for k in range(4):
        assert cesaro_limit(series, k, N) == reference_cesaro_limit(series, k, N)
    for k_max in (0, 3, 8):
        assert cesaro_auto(series, k_max, N) == reference_cesaro_auto(series, k_max, N)


# ---------------------------------------------------------------------------
# power-boundary engine


def test_abel_alt():
    r = abel_limit(ALT)
    assert r.converged
    assert abs(r.value - 0.5) <= 1e-4


def test_abel_altlog():
    r = abel_limit(ALTLOG)
    assert r.converged
    assert abs(r.value - math.log(2)) <= 1e-4


def test_abel_convergent_geometric():
    r = abel_limit(series_geometric(Fraction(1, 2)))
    assert r.converged
    assert abs(r.value - 2.0) <= 1e-3


def test_abel_non_finite_report_is_strict_json():
    # the first point already drowns in float noise: no estimate at all
    r = abel_limit(series_geometric(-2))
    assert not r.converged
    assert math.isnan(r.value) and r.residual == math.inf
    d = r.to_json_dict()
    assert d["value"] is None and d["residual"] is None
    assert strict_loads(r.to_json()) == d


@pytest.mark.parametrize("ratio", [5, -5])
def test_abel_terms_beyond_float_range_end_the_scan(ratio):
    # 5^480 passes the float range at the first point: the term reads as an
    # infinity and the non-finite guard ends the scan, nothing is raised
    r = abel_limit(series_geometric(ratio))
    assert not r.converged and r.terms_used == 0
    assert math.isnan(r.value) and r.residual == math.inf
    assert strict_loads(r.to_json())["value"] is None


def test_abel_term_budget_bounds_the_scan():
    # The default schedule reads 481, 680, 961, 1359, 1921, 2717, 3841, ... terms.
    none = abel_limit(ALT, max_terms=20)
    assert not none.converged and none.terms_used == 0
    assert math.isnan(none.value) and none.residual == math.inf
    three = abel_limit(ALT, max_terms=1000)
    assert not three.converged and three.terms_used == 961
    assert abel_limit(ALT, max_terms=3840) == abel_limit(ALT)
    half = series_geometric(Fraction(1, 2))
    assert abel_limit(half).terms_used == 3841
    assert abel_limit(half, max_terms=3839).terms_used == 2717
    bounded = evaluate(half, SummationMethod("abel", n_max=4000))
    assert bounded == abel_limit(half, max_terms=4000)


def test_abel_schedule_validation():
    with pytest.raises(ValueError):
        abel_limit(ALT, schedule=[])
    with pytest.raises(ValueError):
        abel_limit(ALT, schedule=[0.5, 0.5])
    with pytest.raises(ValueError):
        abel_limit(ALT, schedule=[0.5, 1.5])


def test_abel_custom_schedule():
    r = abel_limit(ALT, schedule=[0.75, 0.8125, 0.875, 0.90625, 0.9375])
    assert r.converged
    assert abs(r.value - 0.5) <= 1e-3


def test_abel_settles_a_degree_6_alternating_direct_sum():
    # sum (-1)^n P(x + nh) with P = (x^6 - 3x^2 + 1/2)/371, h = -3/2, x = 2,
    # scaled as checks._normalized_alt_instance scales it.  The float-noise
    # guard ends this scan before 2,000 terms, so the schedule must give two
    # extrapolants by then.
    p = parse_polynomial("x^6 - 3*x^2 + 1/2") * Fraction(1, 371)
    h, x = Fraction(-3, 2), Fraction(2)
    r = abel_limit(series_custom(lambda n: (-1) ** n * p(x + n * h)))
    assert r.converged
    assert abs(r.value - float(euler_alt_sum(p, h, x))) <= r.method_used.tol


def _abel_honesty_grid():
    """(label, series, exact sum) for the families the power boundary meets:
    alternating direct sums at degrees 0..6 on normalized instances, custom
    copies of geom:r, finite tables, (-1)^n n^m and altlog."""
    rng = random.Random(15)
    grid = []
    for deg in range(7):
        for _ in range(10):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(deg)]
            lead = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
            h = Fraction(rng.randint(-8, 8) or 3, rng.randint(1, 4))
            x = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            p = _normalized_alt_instance(Polynomial(coeffs + [lead]), h, x)
            grid.append((f"alt deg {deg}",
                         series_custom(lambda n, p=p, h=h, x=x: (-1) ** n * p(x + n * h)),
                         euler_alt_sum(p, h, x)))
    for r in map(Fraction, ("-1", "-99/100", "-1/2", "1/2", "2/3", "9/10")):
        grid.append((f"geom:{r}", series_custom(series_geometric(r).term), 1 / (1 - r)))
    for _ in range(30):
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                  for _ in range(rng.randint(1, 8))]
        grid.append((f"table {values}", series_table(values), sum(values)))
    for m in range(6):
        grid.append((f"(-1)^n n^{m}", series_custom(lambda n, m=m: Fraction((-1) ** n * n ** m)),
                     euler_alt_sum(parse_polynomial(f"x^{m}"), 1, 0)))
    grid.append(("altlog", series_alt_log(), math.log(2)))
    return grid


@pytest.mark.parametrize("max_terms", [None, DEFAULT_TERMS])
def test_abel_converged_answers_lie_within_tol(max_terms):
    # A denser schedule gives more chances for two extrapolants to agree by
    # accident; no converged report may be further than tol from the sum.
    reports = [(label, abel_limit(series, max_terms=max_terms), float(exact))
               for label, series, exact in _abel_honesty_grid()]
    misses = [(label, r.value, exact) for label, r, exact in reports
              if r.converged and not abs(r.value - exact) <= r.method_used.tol]
    assert misses == []
    if max_terms is None:
        assert all(r.converged for _, r, _ in reports)


# ---------------------------------------------------------------------------
# dispatch and cross-method agreement


def test_evaluate_dispatch():
    classical = evaluate(series_geometric(Fraction(1, 2)), SummationMethod("classical"))
    direct = cesaro_limit(series_geometric(Fraction(1, 2)), 0)
    assert classical.value == direct.value

    fixed = evaluate(ALT, SummationMethod("cesaro", order=1))
    assert fixed.order_used == 1

    auto = evaluate(ALT, SummationMethod("cesaro", order="auto"))
    assert auto.converged

    abel = evaluate(ALT, SummationMethod("abel"))
    assert abel.converged

    with pytest.raises(ValueError):
        evaluate(ALT, SummationMethod("exact"))


def test_methods_agree_where_both_converge():
    prod = cauchy_product(ALT, ALT)
    cases = [
        (ALT, 4000),
        (ALTLOG, 4000),
        (series_geometric(Fraction(1, 4)), 4000),
        (prod, 1500),
    ]
    for series, budget in cases:
        rc = cesaro_auto(series, N=budget)
        ra = abel_limit(series)
        assert rc.converged and ra.converged, series.label
        assert abs(rc.value - ra.value) <= 2e-3, series.label


def test_product_of_sums_is_sum_of_product():
    prod = cauchy_product(ALT, ALT)
    r = cesaro_auto(prod, N=1500)
    assert r.converged
    assert abs(r.value - 0.25) <= 1e-3


# ---------------------------------------------------------------------------
# shift invariance


def test_shift_check_alt():
    lhs, rhs = shift_check(ALT, SummationMethod("cesaro", order=1))
    assert abs(lhs - 0.5) <= 1e-3
    # dropping the head negates the series, so the right side is 1 - 1/2
    assert abs(rhs - 0.5) <= 1e-3


def test_shift_check_alt_weighted():
    lhs, rhs = shift_check(alt_weighted(), SummationMethod("cesaro", order=2))
    assert abs(lhs - 0.25) <= 1e-3
    assert abs(rhs - 0.25) <= 1e-3
    assert abs(lhs - rhs) <= 1e-3


def test_shift_check_reads_each_term_once():
    reads = []
    weighted = series_custom(lambda n: reads.append(n) or Fraction((-1) ** n * (n + 1)))
    method = SummationMethod("cesaro", order=2)
    assert shift_check(weighted, method) == shift_check(alt_weighted(), method)
    assert len(reads) <= method.n_max + 2


def test_shift_check_convergent():
    lhs, rhs = shift_check(series_geometric(Fraction(1, 2)), SummationMethod("classical"))
    assert abs(lhs - 2.0) <= 1e-3
    assert abs(rhs - 2.0) <= 1e-3


def test_shift_check_raises_on_divergence():
    with pytest.raises(NotConvergedError):
        shift_check(series_geometric(1), SummationMethod("cesaro", order="auto", n_max=400))


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=8),
                min_size=1, max_size=30))
def test_prefix_sums_are_linear_in_the_series(coeffs):
    table = series_table(coeffs)
    doubled = series_table([2 * c for c in coeffs])
    lhs = partial_sums(doubled)
    rhs = partial_sums(table)
    for n in range(len(coeffs) + 5):
        assert lhs.term(n) == 2 * rhs.term(n)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5),
                min_size=1, max_size=12),
       st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5),
                min_size=1, max_size=12))
def test_convolution_commutes(xs, ys):
    a, b = series_table(xs), series_table(ys)
    ab, ba = cauchy_product(a, b), cauchy_product(b, a)
    for n in range(len(xs) + len(ys)):
        assert ab.term(n) == ba.term(n)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5),
                min_size=1, max_size=10))
def test_convolution_with_unit_is_identity(xs):
    a = series_table(xs)
    unit = series_table(["1"])
    prod = cauchy_product(a, unit)
    for n in range(len(xs) + 3):
        assert prod.term(n) == a.term(n)
