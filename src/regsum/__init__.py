"""Exact summation of divergent polynomial series.

A series sum a_n T^n P(x), with T any operator on polynomials commuting with
translation, collapses to a finite combination of regularized derivative
values and difference-operator images of P.  The package computes that
reduction exactly over rationals and cross-checks it with independent
numeric summation engines (iterated means and power-boundary limits).
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module it is read from.  Nothing is imported
# until a name is asked for (PEP 562), so a command loads only the modules
# it runs.  A resolved name is never stored here: it is read from its module
# on every access, so a function swapped in that module is seen at once.
_EXPORTS = {
    "algebra": (
        "NEG_INFINITY", "ParseError", "Polynomial", "as_rational",
        "binomial_poly", "falling_factorial_poly", "format_polynomial",
        "format_rational", "parse_polynomial",
    ),
    "power_series": (
        "DomainError", "NonUnitError", "OrderExceededError", "PowerSeries",
        "cosh_series", "exp_series",
    ),
    "operators": (
        "OperatorSpec", "op_delta", "op_diff", "op_identity", "op_shift",
        "parse_operator",
    ),
    "summation": (
        "ConvergenceReport", "LogValue", "NotConvergedError", "SeriesSpec", "SummationMethod",
        "abel_limit", "cauchy_product", "cesaro_auto", "cesaro_limit", "evaluate",
        "falling_factorial_value", "parse_series", "partial_sums", "series_alt",
        "series_alt_log", "series_custom", "series_geometric", "series_table",
        "shift_check",
    ),
    "regularize": (
        "InexactDataError", "NotRegularError",
        "RegularizedDerivatives", "alt_binom_sum", "alt_power_sum",
        "euler_alt_sum", "euler_numbers", "product_rule_check",
        "reg_derivatives", "reg_operator", "reg_sum",
    ),
}
_SUBMODULES = {*_EXPORTS, "budgets", "checks", "cli"}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
