"""Acceptance gate: nine binding criteria, one test each.

Each test prints a single `criterion N: PASS` line on success and carries its
wall-clock budget as an assertion, so a run of this file reads as a scorecard.
"""

import math
import random
import time
from fractions import Fraction

from regsum.algebra import Polynomial, binomial_poly
from regsum.operators import OperatorSpec, op_shift
from regsum.power_series import PowerSeries
from regsum.regularize import (
    alt_binom_sum,
    euler_alt_sum,
    euler_numbers,
    product_rule_check,
    reg_operator,
    reg_sum,
)
from regsum.summation import (
    SummationMethod,
    abel_limit,
    cesaro_auto,
    cesaro_limit,
    falling_factorial_value,
    series_alt,
    series_alt_log,
    series_custom,
    series_table,
    shift_check,
)

EXACT = SummationMethod("exact")


def _random_poly(rng, max_deg):
    deg = rng.randint(0, max_deg)
    return Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                       for _ in range(deg + 1)])


def _random_h(rng):
    return Fraction(rng.randint(-8, 8) or 3, rng.randint(1, 4))


def _rescaled(p, h, xv):
    # Rescale the instance so its reduction has unit-size parts; the numeric
    # engine's error is absolute and grows linearly with the instance, so a
    # fixed tolerance is only meaningful at a fixed scale.  Linearity makes
    # the rescaled triple exactly as random as the drawn one.
    if p.is_zero:
        return p
    deg = len(p.coeffs) - 1
    _, rem = op_shift(h, order=deg + 4).remainder()
    magnitude = Fraction(0)
    current = p
    for k in range(deg + 1):
        magnitude += abs(current(xv)) / 2 ** (k + 1)
        current = rem.apply(current)
    return p * Fraction(1, 1 + magnitude.numerator // magnitude.denominator)


def test_criterion_1_euler_table():
    start = time.perf_counter()
    table = euler_numbers(16)
    golden = (1, 0, -1, 0, 5, 0, -61, 0, 1385, 0, -50521, 0, 2702765, 0,
              -199360981, 0, 19391512145)
    assert table == golden
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 1: PASS  zigzag table E_0..E_16 exact ({elapsed:.3f}s)")


def test_criterion_2_closed_form_vs_iterated_means():
    start = time.perf_counter()
    worst = 0.0
    for k in range(5):
        series = series_custom(
            lambda n, kk=k: Fraction((-1) ** n * falling_factorial_value(n, kk))
        )
        report = cesaro_limit(series, k + 1, N=4000, tol=1e-3)
        target = (-1) ** k * math.factorial(k) / 2 ** (k + 1)
        deviation = abs(report.value - target)
        assert deviation <= 1e-3, (k, report.value, target)
        worst = max(worst, deviation)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 2: PASS  orders 0..4 within 1e-3 of the closed forms "
          f"(worst {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_3_three_way_agreement():
    start = time.perf_counter()
    rng = random.Random(2024)
    alt = series_alt()
    worst = 0.0
    for trial in range(50):
        p = _random_poly(rng, 6)
        h = _random_h(rng)
        xv = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        p = _rescaled(p, h, xv)
        via_reduction, _ = reg_sum(alt, op_shift(h, order=12), p, xv, EXACT)
        via_table = euler_alt_sum(p, h, xv)
        assert via_reduction == via_table, trial
        signed = series_custom(
            lambda n, pp=p, hh=h, xx=xv: Fraction(-1) ** n * pp(xx + n * hh)
        )
        report = cesaro_auto(signed, k_max=8, N=8000)
        deviation = abs(report.value - float(via_reduction))
        assert report.converged, (trial, report.residual)
        assert deviation <= 1e-3, (trial, deviation)
        worst = max(worst, deviation)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 3: PASS  50 instances, exact legs equal, numeric leg "
          f"within 1e-3 (worst {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_4_functional_equation():
    start = time.perf_counter()
    rng = random.Random(99)
    alt = series_alt()
    for trial in range(100):
        p = _random_poly(rng, 8)
        h = _random_h(rng)
        deg = max(len(p.coeffs) - 1, 0)
        half = reg_operator(alt, op_shift(h, order=deg + 6), EXACT, deg + 2)
        s = half.apply(p)
        assert (s.translate(h) + s - p).is_zero, trial
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 4: PASS  100 random (P,h), S(x+h)+S(x)-P identically "
          f"zero ({elapsed:.2f}s)")


def test_criterion_5_binomial_sums():
    start = time.perf_counter()
    alt = series_alt()
    for m in range(11):
        value, _ = reg_sum(alt, op_shift(1, order=m + 4), binomial_poly(m), 0, EXACT)
        assert value == Fraction((-1) ** m, 2 ** (m + 1)), m
        assert value == alt_binom_sum(m)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 5: PASS  signed binomial sums exact for m=0..10 "
          f"({elapsed:.3f}s)")


def test_criterion_6_operator_ring_laws():
    start = time.perf_counter()
    rng = random.Random(11)
    for trial in range(100):
        p = _random_poly(rng, 8)
        f = PowerSeries([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                         for _ in range(12)])
        g = PowerSeries([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                         for _ in range(12)])
        sf, sg = OperatorSpec(f), OperatorSpec(g)
        assert OperatorSpec(f * g).apply(p) == sf.apply(sg.apply(p)), trial
        h = _random_h(rng)
        assert sf.apply(p.translate(h)) == sf.apply(p).translate(h), trial
        assert sf.apply(p.derivative()) == sf.apply(p).derivative(), trial
        _, rem = sf.remainder()
        current = p
        for _ in range(len(p.coeffs) + 1):
            current = rem.apply(current)
        assert current.is_zero, trial
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 6: PASS  100 instances x 4 exact operator laws "
          f"({elapsed:.2f}s)")


def _boundary_exponential_coefficients(count):
    # Coefficients of exp(-z/(1+z)), the e-th part of e^(1/(1+z)); from
    # (1+z)^2 f' + f = 0:  (n+1) c_{n+1} = -((2n+1) c_n + (n-1) c_{n-1})
    out = [Fraction(1)]
    prev = Fraction(0)
    for n in range(count - 1):
        cur = out[-1]
        out.append(-(Fraction(2 * n + 1) * cur + Fraction(n - 1) * prev) / (n + 1))
        prev = cur
    return out


def test_criterion_7_abel_engine():
    start = time.perf_counter()
    r_alt = abel_limit(series_alt())
    assert r_alt.converged
    assert abs(r_alt.value - 0.5) <= 1e-4

    r_log = abel_limit(series_alt_log())
    assert r_log.converged
    assert abs(r_log.value - math.log(2)) <= 1e-4

    # Boundary value of e^(1/(1+z)).  The rational engine needs rational
    # terms, so the factor e is pulled out front; its series has an essential
    # singularity on the circle, so partial sums pass through huge swings and
    # the usual deep schedule would drown in float cancellation.  A shallow
    # four-point schedule with per-point budgets sized to the series' own
    # growth keeps the noise at bay.
    coeffs = _boundary_exponential_coefficients(2100)
    assert coeffs[1] == -1 and coeffs[2] == Fraction(3, 2) and coeffs[3] == Fraction(-13, 6)
    series = series_table(coeffs)
    schedule = [0.8125, 0.875, 0.90625, 0.9375]
    budget = lambda t: math.ceil(4.0 / (1.0 - t) ** 2 + 60.0 / (1.0 - t))
    report = abel_limit(series, schedule=schedule, term_budget_per_point=budget)
    assert report.converged
    deviation = abs(math.e * report.value - math.exp(0.5))
    assert deviation <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 7: PASS  boundary limits 0.5 / log 2 / e^(1/2) "
          f"(last within {deviation:.2e}, {elapsed:.2f}s)")


def test_criterion_8_product_rule():
    start = time.perf_counter()
    alt = series_alt()
    method = SummationMethod("cesaro", order="auto", n_max=2000, k_max=10)
    worst = 0.0
    for n in (0, 1, 2):
        lhs, rhs = product_rule_check(alt, alt, n, method)
        gap = abs(lhs - rhs)
        assert gap <= 2e-3, (n, lhs, rhs)
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 8: PASS  derivative product rule n=0,1,2 within 2e-3 "
          f"(worst {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_9_shift_invariance():
    start = time.perf_counter()
    lhs, rhs = shift_check(series_alt(), SummationMethod("cesaro", order=1))
    assert abs(lhs - rhs) <= 1e-3

    weighted = series_custom(lambda n: Fraction((-1) ** n * (n + 1)), "alt-weighted")
    lhs2, rhs2 = shift_check(weighted, SummationMethod("cesaro", order=2))
    assert abs(lhs2 - rhs2) <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 9: PASS  head-drop identity at orders 1 and 2 "
          f"(gaps {abs(lhs-rhs):.2e}, {abs(lhs2-rhs2):.2e}, {elapsed:.2f}s)")
