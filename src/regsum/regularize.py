"""Finite evaluation of divergent operator series against polynomials.

The central reduction: for a series sum a_n T^n P(x) with T translation
invariant, split T = c + R (c the constant term, R degree lowering) and
collapse the whole series to the finite combination

    sum_{k=0}^{deg P} v_k / k! * (R^k P)(x),

where v_k is the regularized k-th derivative value sum_n a_n [n]_k c^(n-k).
The v_k come from exact closed forms where a series carries one, and
from the numeric engines in `summation` otherwise, so the two routes check
each other.

The values (R^k P)(x) come one of two ways, chosen from T's symbol alone.
When it is a scaled shift c e^(ht) through t^deg P (``shift:h``,
``identity``, a scaled shift), R = c Delta_h, so (R^k P)(x) = c^k times
the k-th forward difference of P(x), P(x + h), ..., P(x + (deg P) h).
Every other operator reads the symbols of R^0..R^deg P.  ``reg_operator``
builds sum_k w_k R^k, w_k = v_k/k!, through t^cap: the weight series composed
with R(t), O(cap^3), or for geometric w_0 rho^k (``alt``, ``geom:r``) one
inverse w_0 (1 - rho R)^(-1), O(cap^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Union

from .algebra import Polynomial, RationalLike, as_rational
# The failures that exit 2 are re-exported from their home in budgets.
from .budgets import InexactDataError, NotRegularError
from .operators import OperatorSpec
# euler_numbers is re-exported from its home in power_series.
from .power_series import PowerSeries, euler_numbers
from .summation import (
    ConvergenceReport,
    LogValue,
    SeriesSpec,
    SummationMethod,
    _block_limit,
    _exact_term,
    _ratio,
    _scaled_terms,
    cauchy_product,
)

PROV_EXACT = "exact-closed-form"
PROV_CESARO = "numeric-cesaro"
PROV_ABEL = "numeric-abel"


@dataclass
class RegularizedDerivatives:
    """Derivative values v_k of a series' generating function at a point c,
    in the regularized sense, for k = 0..k_max; exact entries are Fraction
    or, for a logarithm, ``LogValue``, numeric ones float, with per-entry
    provenance strings.  ``is_exact`` means every entry is rational."""

    c: Fraction
    values: list[Union[Fraction, LogValue, float]]
    provenance: list[str]
    method: SummationMethod
    reports: list[Optional[ConvergenceReport]]

    @property
    def is_exact(self) -> bool:
        return all(isinstance(v, Fraction) for v in self.values)


def reg_derivatives(
    f: SeriesSpec,
    c: RationalLike,
    method: SummationMethod,
    k_max: int,
) -> RegularizedDerivatives:
    """Compute v_k = sum_n a_n [n]_k c^(n-k) for k = 0..k_max.

    Routes, per k: the series' own closed form when it has one for
    (k, c, method), as the geometric builtins do wherever the method sums
    the derivative series; at c = 0 the sum collapses to k! a_k exactly;
    otherwise the numeric engine named by the method.  Terms with n < k
    vanish with [n]_k, so no negative power of c is ever formed.

    Raises NotRegularError when a numeric entry fails to converge within the
    method's budget, and for method tag "exact" when no closed form exists.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    c = as_rational(c)
    closed = [f.exact_reg_deriv and f.exact_reg_deriv(k, c, method) for k in range(k_max + 1)]
    # Every numeric leg reads its terms from one integer block, built on
    # the first such leg and advanced in place from order to order.
    orders = [k for k, v in enumerate(closed) if v is None]
    blocks = _derivative_blocks(f, c, method.n_max, orders)
    values, reports = [], []
    for k, value in enumerate(closed):
        if value is None and c == 0:
            value = Fraction(math.factorial(k)) * _exact_term(f.term(k))
        report = None
        if value is None:
            if method.tag == "exact":
                raise NotRegularError(
                    f"no closed form for derivative order {k} of {f.label} "
                    f"at c={c}; use a numeric method"
                )
            report = _block_limit(*next(blocks), method)
            if not report.converged:
                raise NotRegularError(
                    f"derivative order {k} of {f.label} at c={c} did not "
                    f"converge under {method.describe()} "
                    f"(residual {report.residual:.3g}, tol {method.tol:g})",
                    report,
                )
            value = report.value
        values.append(value)
        reports.append(report)
    numeric = PROV_ABEL if method.tag == "abel" else PROV_CESARO
    provenance = [PROV_EXACT if r is None else numeric for r in reports]
    return RegularizedDerivatives(c, values, provenance, method, reports)


def _derivative_blocks(
    f: SeriesSpec, c: Fraction, n_max: int, orders: list[int]
) -> Iterator[tuple[list[int], int]]:
    """For each k in ``orders`` (increasing, c != 0): the terms n <= n_max of
    a_n [n]_k c^(n-k) as ints over one denominator, (numerators, den).

    With a_n = A_n / D and c = p/q, order 0 is A_n p^n q^(N-n) over D q^N.
    Order k follows from order k - 1 by one small multiplication per term,
    (n-k+1) q / p, with den taking |p| and the numerators p's sign.  The
    denominator is not the least one, but each ratio is the same rational.
    Every order but the last is yielded as a copy, so the engine may run
    its prefix passes in place on what it gets."""
    nums, den = _scaled_terms(f, n_max + 1)
    p, q = c.numerator, c.denominator
    if p != 1:
        power = 1
        for n in range(n_max + 1):
            nums[n] *= power
            power *= p
    if q != 1:
        power = 1
        for n in range(n_max, -1, -1):
            nums[n] *= power
            power *= q
        den *= q ** n_max
    step = q if p > 0 else -q
    k = 0
    for target in orders:
        while k < target:
            k += 1
            for n in range(k - 1, n_max + 1):
                nums[n] *= (n - k + 1) * step
            den *= abs(p)
        yield (nums if target == orders[-1] else nums[:]), den


def _shift_of(T: OperatorSpec, d: int) -> Optional[tuple[Fraction, Fraction]]:
    """(c, h) when T's symbol equals c e^(ht) with c != 0 through t^d, else
    None: s_0 = c, and n! s_n = c h^n is geometric with ratio h."""
    coeffs = T.symbol.coeffs[: d + 1]
    if coeffs[0] == 0:
        return None
    h = _geometric_ratio([s * math.factorial(n) for n, s in enumerate(coeffs)])
    return None if h is None else (coeffs[0], h)


def _geometric_ratio(weights: list[Fraction]) -> Optional[Fraction]:
    """rho when w_(k+1) = rho w_k for every k, else None; rho = w_1 / w_0, or
    0 when w_0 = 0 or there is one weight."""
    rho = weights[1] / weights[0] if len(weights) > 1 and weights[0] else Fraction(0)
    return rho if all(b == rho * a for a, b in zip(weights, weights[1:])) else None


def _reduced_values(T: OperatorSpec, P: Polynomial, x: Fraction) -> list[Fraction]:
    """(R^k P)(x) for k = 0..deg P.  For a scaled shift c e^(ht) these are
    c^k times the k-th forward differences at 0 of the d + 1 values
    P(x + n h); for any other T they are sum_n [t^n]R^k * P^(n)(x), with
    the P^(n)(x) = n! [y^n] P(x + y) from one Taylor shift."""
    d = len(P.nums) - 1
    T._check_reach(d)
    shift = _shift_of(T, d)
    if shift is not None:
        c, h = shift
        table = [P(x + n * h) for n in range(d + 1)]
        values, scale = [], Fraction(1)
        for k in range(d + 1):
            values.append(scale * table[0])
            table = [b - a for a, b in zip(table, table[1:])]
            scale *= c
        return values
    # Kept as one list: freeing each power early read worse on peak_rss_mb.
    r_symbol = T.remainder()[1].symbol.truncate(d)
    powers = [PowerSeries.constant(1, d)]
    for _ in range(d):
        powers.append(powers[-1] * r_symbol)
    shifted = P.translate(x)
    at_x = [shifted.coeff(n) * math.factorial(n) for n in range(d + 1)]
    return [
        sum((s * v for s, v in zip(power.coeffs[k:], at_x[k:]) if s), Fraction(0))
        for k, power in enumerate(powers)
    ]


def reg_operator(
    f: SeriesSpec,
    T: OperatorSpec,
    method: SummationMethod,
    degree_cap: int,
) -> OperatorSpec:
    """The finite operator sum_{k=0}^{degree_cap} v_k/k! (T - c)^k from exact
    derivative data: w_0 (1 - rho (T - c))^(-1) by one series inverse, O(cap^2),
    when v_k/k! = w_0 rho^k, else the weight series composed with T - c, O(cap^3).

    The symbol is exact through t^degree_cap and truncated there, so it
    refuses (OrderExceededError) polynomials of higher degree.  Numeric
    float entries and logarithms cannot enter the exact symbol ring; when
    any needed v_k is not a Fraction this raises InexactDataError (evaluate
    through reg_sum instead, which combines them scalar-wise).
    """
    if degree_cap < 0:
        raise ValueError("degree_cap must be nonnegative")
    derivs = reg_derivatives(f, T.constant, method, degree_cap)
    if not derivs.is_exact:
        raise InexactDataError(
            "derivative data contains numeric or logarithmic entries; the exact "
            "operator form needs rational values"
        )
    weights = [v / math.factorial(k) for k, v in enumerate(derivs.values)]
    rho = _geometric_ratio(weights)
    T._check_reach(degree_cap)
    r_symbol = T.remainder()[1].symbol.truncate(degree_cap)
    acc = (PowerSeries(weights).compose(r_symbol) if rho is None else
           (PowerSeries.constant(1, degree_cap) - r_symbol * rho).inverse() * weights[0])
    return OperatorSpec(acc, label=f"regularized[{f.label}]")


def reg_sum(
    f: SeriesSpec,
    T: OperatorSpec,
    P: Polynomial,
    x: RationalLike,
    method: SummationMethod,
) -> tuple[Union[Fraction, LogValue, float], ConvergenceReport]:
    """Value of the regularized series sum a_n (T^n P)(x), and its report.

    Collapses to sum_{k<=deg P} v_k/k! (R^k P)(x) with (c, R) = T split at
    its constant.  Exact v_k add their terms to one Fraction, and a
    logarithmic v_0 = b*log(q) (``altlog``'s) adds b*P(x) as the log
    coefficient of a ``LogValue``; each numeric v_k adds v_k times the
    correctly rounded float of (R^k P)(x)/k!.  The value and report are:

    - P = 0: Fraction(0) under every method, with no v_k computed, so even
      a series no method sums gives it; order_used and terms_used are 0.
    - no numeric leg: that Fraction, or a LogValue when a log leg was used,
      even with coefficient 0.  The report's value is its own float
      (infinite beyond the float range, and -0.0 when a negative value
      underflows), its ``exact`` the Fraction (None for a LogValue),
      order_used deg P and terms_used deg P + 1; it is always converged.
    - numeric legs: the float of that value plus the numeric terms, not
      converged when a leg is not or the total is not finite; order_used
      is the deepest summation order, terms_used the terms all legs
      consumed, residual the worst gap, and provenance the routes used.
    """
    x = as_rational(x)
    exact, numeric, log = Fraction(0), 0.0, None
    provenance, legs = [PROV_EXACT], []
    if not P.is_zero:
        derivs = reg_derivatives(f, T.constant, method, len(P.nums) - 1)
        provenance = derivs.provenance
        legs = [r for r in derivs.reports if r is not None]
        rows = zip(derivs.values, derivs.reports, _reduced_values(T, P, x))
        for k, (v, leg, applied) in enumerate(rows):
            if leg is not None:
                num, den = applied.as_integer_ratio()
                numeric += v * _ratio(num, den * math.factorial(k))
            elif isinstance(v, LogValue):
                # v_0 (k = 0, so (R^0 P)(x) = P(x)); b*log(q) stays apart from A
                exact += v.a * applied
                log = v.b * applied, v.q
            else:
                exact += v * applied / math.factorial(k)
    if log is None:
        closed, value = exact, _ratio(*exact.as_integer_ratio())
    else:
        closed = LogValue(exact, *log)
        value = float(closed)
    if legs:  # with none, the value is the exact float, so a zero keeps its sign
        closed = value = value + numeric
    report = ConvergenceReport(
        value=value,
        exact=exact if log is None and not legs else None,
        method_used=method,
        order_used=max((r.order_used for r in legs), default=max(len(P.nums) - 1, 0)),
        terms_used=sum(r.terms_used for r in legs) if legs else len(P.nums),
        converged=all(r.converged for r in legs) and (math.isfinite(value) or not legs),
        residual=max((r.residual for r in legs), default=0.0),
        provenance="+".join(sorted(set(provenance))),
    )
    return closed, report


def euler_alt_sum(P: Polynomial, h: RationalLike, x: RationalLike) -> Fraction:
    """Closed form for the alternating shifted sum of a polynomial:
    (1/2) sum_k E_k h^k/(2^k k!) P^(k)(x - h/2), a finite exact sum."""
    h = as_rational(h)
    x = as_rational(x)
    if P.is_zero:
        return Fraction(0)
    deg = len(P.nums) - 1
    table = euler_numbers(deg)
    point = x - h / 2
    total = Fraction(0)
    current = P
    for k in range(deg + 1):
        ek = table[k]
        if ek != 0:
            total += ek * h ** k * current(point) / (2 ** k * math.factorial(k))
        current = current.derivative()
    return total / 2


def alt_power_sum(m: int) -> Fraction:
    """Regularized alternating power sum over n of (-1)^n n^m, in closed
    form: 2^-(m+1) sum_k (-1)^(m-k) E_k binom(m,k)."""
    if m < 0:
        raise ValueError("power must be nonnegative")
    table = euler_numbers(m)
    total = 0
    for k in range(m + 1):
        sign = -1 if (m - k) % 2 else 1
        total += sign * table[k] * math.comb(m, k)
    return Fraction(total, 2 ** (m + 1))


def alt_binom_sum(m: int) -> Fraction:
    """Regularized alternating sum over n of (-1)^n binom(n,m): equals
    (-1)^m / 2^(m+1)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return Fraction((-1) ** m, 2 ** (m + 1))


def product_rule_check(
    f: SeriesSpec,
    g: SeriesSpec,
    n: int,
    method: SummationMethod,
) -> tuple[float, float]:
    """Both sides of the derivative product rule at the boundary point 1:
    left, the n-th regularized derivative of the coefficientwise product
    series; right, the binomial convolution of the factors' derivative
    values.  Returned as floats for tolerance assertion; non-convergence
    raises NotRegularError."""
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    one = Fraction(1)
    prod = cauchy_product(f, g)
    lhs = float(reg_derivatives(prod, one, method, n).values[n])
    left_tab = reg_derivatives(f, one, method, n).values
    right_tab = reg_derivatives(g, one, method, n).values
    rhs = 0.0
    for k in range(n + 1):
        rhs += math.comb(n, k) * float(left_tab[k]) * float(right_tab[n - k])
    return lhs, rhs
