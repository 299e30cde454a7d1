"""Finite evaluation of divergent operator series against polynomials.

The central reduction: for a series sum a_n T^n P(x) with T translation
invariant, split T = c + R (c the constant term, R degree lowering) and
collapse the whole series to the finite combination

    sum_{k=0}^{deg P} v_k / k! * (R^k P)(x),

where v_k is the regularized k-th derivative value sum_n a_n [n]_k c^(n-k).
The v_k come from exact closed-form tables where a series carries one, and
from the numeric engines in `summation` otherwise, so the two routes check
each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Union

from .algebra import Polynomial, RationalLike, as_rational
from .operators import OperatorSpec
from .power_series import OrderExceededError, PowerSeries, cosh_series
from .summation import (
    ConvergenceReport,
    SeriesSpec,
    SummationMethod,
    _memoized,
    _Prescaled,
    _ratio,
    _scaled_terms,
    cauchy_product,
    evaluate,
)

PROV_EXACT = "exact-closed-form"
PROV_CESARO = "numeric-cesaro"
PROV_ABEL = "numeric-abel"


class NotRegularError(RuntimeError):
    """A required regularized derivative failed to settle within budget."""

    def __init__(self, message: str, report: Optional[ConvergenceReport] = None):
        super().__init__(message)
        self.report = report


class InexactDataError(TypeError):
    """An exact-only construction was fed numerically obtained values."""


@dataclass
class RegularizedDerivatives:
    """Derivative values v_k of a series' generating function at a point c,
    in the regularized sense, for k = 0..k_max; exact entries are Fraction,
    numeric ones float, with per-entry provenance strings."""

    c: Fraction
    values: list[Union[Fraction, float]]
    provenance: list[str]
    method: SummationMethod
    reports: list[Optional[ConvergenceReport]]

    @property
    def k_max(self) -> int:
        return len(self.values) - 1

    @property
    def is_exact(self) -> bool:
        return all(isinstance(v, Fraction) for v in self.values)


@dataclass(frozen=True)
class EulerTable:
    """Zigzag integers E_0..E_n from the reciprocal cosh expansion."""

    values: tuple[int, ...]

    def __getitem__(self, k: int) -> int:
        return self.values[k]

    def __len__(self) -> int:
        return len(self.values)

    def to_json_list(self) -> list[str]:
        return [str(v) for v in self.values]


def reg_derivatives(
    f: SeriesSpec,
    c: RationalLike,
    method: SummationMethod,
    k_max: int,
) -> RegularizedDerivatives:
    """Compute v_k = sum_n a_n [n]_k c^(n-k) for k = 0..k_max.

    Routes, per k: the series' own closed-form table when it has one for
    (k, c, method); at c = 0 the sum collapses to k! a_k exactly; otherwise
    the numeric engine named by the method.  Terms with n < k vanish with
    [n]_k, so no negative power of c is ever formed; for |c| < 1 the numeric
    series decays and the order-0 mean (plain classical summation) already
    converges, which the auto escalation finds on its own.

    Raises NotRegularError when a numeric entry fails to converge within the
    method's budget, and for method tag "exact" when no closed form exists.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    c = as_rational(c)
    closed = [f.exact_reg_deriv and f.exact_reg_deriv(k, c, method)
              for k in range(k_max + 1)]
    # a_n, shared by every k of this call; read at c = 0 and by power-
    # boundary legs, whose scan stops at the method's term budget.
    base = _memoized(f.term)
    # The iterated means read their terms from one integer block, built on
    # the first numeric leg and advanced in place from order to order.
    blocks = None
    if method.tag in ("cesaro", "classical"):
        orders = [k for k, v in enumerate(closed) if v is None]
        blocks = _derivative_blocks(f, c, method.n_max, orders)

    def leg(k: int) -> tuple[Union[Fraction, float], Optional[ConvergenceReport]]:
        """v_k and, for a numeric entry, its report (None when exact)."""
        if closed[k] is not None:
            return closed[k], None
        if c == 0:
            return Fraction(math.factorial(k)) * base(k), None
        if method.tag == "exact":
            raise NotRegularError(
                f"no closed form for derivative order {k} of {f.label or f.kind} "
                f"at c={c}; use a numeric method"
            )
        series = _derivative_series(f, base, c, k)
        if blocks is not None:
            series = _Prescaled(series.term, series.kind, series.label, block=[next(blocks)])
        report = evaluate(series, method)
        if not report.converged:
            raise NotRegularError(
                f"derivative order {k} of {f.label or f.kind} at c={c} did not "
                f"converge under {method.describe()} "
                f"(residual {report.residual:.3g}, tol {method.tol:g})",
                report,
            )
        return report.value, report

    values, reports = map(list, zip(*map(leg, range(k_max + 1))))
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


def _derivative_series(
    f: SeriesSpec, base: Callable[[int], Fraction], c: Fraction, k: int
) -> SeriesSpec:
    """The series a_n [n]_k c^(n-k), with a_n = base(n); each term is one
    Fraction built from ints.  As in Fraction multiplication, a_n and
    [n]_k c^(n-k) are cancelled against each other first, so the gcds and
    divisions run on the factors rather than on the full products."""
    p, q = c.numerator, c.denominator

    def term(n: int) -> Fraction:
        if n < k:
            return Fraction(0)
        a = base(n)
        if not isinstance(a, (int, Fraction)):
            raise TypeError(f"series term {a!r} is not an exact rational")
        an, ad = a.numerator, a.denominator
        m = n - k
        num, den = math.perm(n, k) * p ** m, q ** m  # [n]_k c^m, unreduced
        g1, g2 = math.gcd(an, den), math.gcd(num, ad)
        return Fraction(an // g1 * (num // g2), ad // g2 * (den // g1))

    return SeriesSpec(term, kind="custom", label=f"d^{k}[{f.label or f.kind}]@{c}")


def _reduction_symbols(T: OperatorSpec, d: int) -> list[PowerSeries]:
    """The symbols of R^0..R^d through t^d, where R = T - c is T's
    degree-lowering remainder.  Only these coefficients can act on a
    polynomial of degree d, so a symbol of T shorter than d is refused."""
    if T.symbol.order < d:
        raise OrderExceededError(
            f"symbol truncated at order {T.symbol.order} cannot act on degree {d}; "
            "rebuild the operator with a deeper symbol"
        )
    r_symbol = PowerSeries([0, *T.symbol.coeffs[1 : d + 1]])
    powers = [PowerSeries.constant(1, d)]
    for _ in range(d):
        powers.append(powers[-1] * r_symbol)
    return powers


def _reduced_values(T: OperatorSpec, P: Polynomial, x: Fraction) -> list[Fraction]:
    """(R^k P)(x) for k = 0..deg P, as sum_n [t^n]R^k * P^(n)(x); the
    P^(n)(x) = n! [y^n] P(x + y) come from one Taylor shift."""
    d = len(P.coeffs) - 1
    powers = _reduction_symbols(T, d)
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
    """The finite operator sum_{k=0}^{degree_cap} v_k/k! (T - c)^k, built by
    symbol arithmetic from exact derivative data.

    The symbol is exact through t^degree_cap and truncated there, so it
    refuses (OrderExceededError) polynomials of higher degree.  Numeric
    float entries cannot enter the exact symbol ring; when any needed v_k
    is not a Fraction this raises InexactDataError (evaluate through
    reg_sum instead, which combines floats scalar-wise).
    """
    if degree_cap < 0:
        raise ValueError("degree_cap must be nonnegative")
    derivs = reg_derivatives(f, T.constant, method, degree_cap)
    if not derivs.is_exact:
        raise InexactDataError(
            "derivative data contains numeric entries; the exact operator form "
            "needs closed-form values"
        )
    acc = PowerSeries.constant(0, degree_cap)
    for k, power in enumerate(_reduction_symbols(T, degree_cap)):
        v = derivs.values[k]
        if v != 0:
            acc = acc + power * (v / math.factorial(k))
    return OperatorSpec(acc, label=f"regularized[{f.label or f.kind}]")


def reg_sum(
    f: SeriesSpec,
    T: OperatorSpec,
    P: Polynomial,
    x: RationalLike,
    method: SummationMethod,
) -> tuple[Union[Fraction, float], ConvergenceReport]:
    """Value of the regularized series sum a_n (T^n P)(x).

    Collapses to sum_{k<=deg P} v_k/k! (R^k P)(x) with (c, R) = T split at
    its constant.  Exact v_k add their terms to one Fraction; each numeric
    v_k adds v_k times the correctly rounded float of (R^k P)(x)/k!.  With
    no numeric leg the value is that Fraction (its report's float is
    infinite when the value is beyond the float range); otherwise it is the
    Fraction's float plus the numeric terms, and a total that is not finite
    is reported as not converged.  The report aggregates the numeric legs:
    order_used is the deepest summation order (or the reduction degree on
    the all-exact route), terms_used the total terms consumed, residual the
    worst gap.
    """
    x = as_rational(x)
    if P.is_zero:
        report = ConvergenceReport(
            value=0.0, exact=Fraction(0), method_used=method, order_used=0,
            terms_used=0, converged=True, residual=0.0, provenance=PROV_EXACT,
        )
        return Fraction(0), report
    cap = len(P.coeffs) - 1
    derivs = reg_derivatives(f, T.constant, method, cap)
    exact, numeric = Fraction(0), 0.0
    rows = zip(derivs.values, derivs.reports, _reduced_values(T, P, x))
    for k, (v, leg, applied) in enumerate(rows):
        if leg is None:
            exact += v * applied / math.factorial(k)
        else:
            num, den = applied.as_integer_ratio()
            numeric += v * _ratio(num, den * math.factorial(k))
    exact_float = _ratio(*exact.as_integer_ratio())
    legs = [r for r in derivs.reports if r is not None]
    if not legs:
        report = ConvergenceReport(
            value=exact_float, exact=exact, method_used=method, order_used=cap,
            terms_used=cap + 1, converged=True, residual=0.0, provenance=PROV_EXACT,
        )
        return exact, report
    total = exact_float + numeric
    report = ConvergenceReport(
        value=total,
        exact=None,
        method_used=method,
        order_used=max(r.order_used for r in legs),
        terms_used=sum(r.terms_used for r in legs),
        converged=all(r.converged for r in legs) and math.isfinite(total),
        residual=max(r.residual for r in legs),
        provenance="+".join(sorted(set(derivs.provenance))),
    )
    return total, report


def euler_numbers(n_max: int) -> EulerTable:
    """E_k = k! times the t^k coefficient of 1/cosh t, exact integers."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    inv = cosh_series(n_max).inverse()
    values = []
    for k in range(n_max + 1):
        v = inv.coeffs[k] * math.factorial(k)
        if v.denominator != 1:
            raise ArithmeticError(f"zigzag coefficient {k} is not an integer: {v}")
        values.append(v.numerator)
    return EulerTable(tuple(values))


def euler_alt_sum(P: Polynomial, h: RationalLike, x: RationalLike) -> Fraction:
    """Closed form for the alternating shifted sum of a polynomial:
    (1/2) sum_k E_k h^k/(2^k k!) P^(k)(x - h/2), a finite exact sum."""
    h = as_rational(h)
    x = as_rational(x)
    if P.is_zero:
        return Fraction(0)
    deg = len(P.coeffs) - 1
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
