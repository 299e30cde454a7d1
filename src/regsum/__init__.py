"""Exact summation of divergent polynomial series.

A series sum a_n T^n P(x), with T any operator on polynomials commuting with
translation, collapses to a finite combination of regularized derivative
values and difference-operator images of P.  The package computes that
reduction exactly over rationals and cross-checks it with independent
numeric summation engines (iterated means and power-boundary limits).
"""

from .algebra import (
    NEG_INFINITY,
    ParseError,
    Polynomial,
    Rational,
    as_rational,
    binomial_poly,
    falling_factorial_poly,
    format_polynomial,
    format_rational,
    parse_polynomial,
)
from .power_series import (
    DomainError,
    NonUnitError,
    OrderExceededError,
    PowerSeries,
    cosh_series,
    exp_series,
    geometric_series,
    log1p_series,
    working_order,
)
from .operators import (
    OperatorSpec,
    op_delta,
    op_diff,
    op_identity,
    op_shift,
    parse_operator,
)
from .summation import (
    ConvergenceReport,
    LogValue,
    NotConvergedError,
    SeriesSpec,
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
from .regularize import (
    EulerTable,
    InexactDataError,
    NotRegularError,
    RegularizedDerivatives,
    alt_binom_sum,
    alt_power_sum,
    euler_alt_sum,
    euler_numbers,
    product_rule_check,
    reg_derivatives,
    reg_operator,
    reg_sum,
)

__version__ = "0.1.0"

__all__ = [
    "NEG_INFINITY", "ParseError", "Polynomial", "Rational", "as_rational",
    "binomial_poly", "falling_factorial_poly", "format_polynomial",
    "format_rational", "parse_polynomial",
    "DomainError", "NonUnitError", "OrderExceededError", "PowerSeries",
    "cosh_series", "exp_series", "geometric_series", "log1p_series",
    "working_order",
    "OperatorSpec", "op_delta", "op_diff", "op_identity", "op_shift",
    "parse_operator",
    "ConvergenceReport", "LogValue", "NotConvergedError", "SeriesSpec", "SummationMethod",
    "abel_limit", "cauchy_product", "cesaro_auto", "cesaro_limit", "evaluate",
    "falling_factorial_value", "parse_series", "partial_sums", "series_alt",
    "series_alt_log",
    "series_custom", "series_geometric", "series_table", "shift_check",
    "EulerTable", "InexactDataError", "NotRegularError",
    "RegularizedDerivatives", "alt_binom_sum", "alt_power_sum",
    "euler_alt_sum", "euler_numbers", "product_rule_check",
    "reg_derivatives", "reg_operator", "reg_sum",
]
