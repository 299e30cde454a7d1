"""The public surface: the names ``regsum`` exports, the public attributes
of its exact value types, and the library attributes the benchmark's
tracer (``bench/tracer.py``) wraps."""

import regsum
from regsum import algebra, cli, operators, power_series, regularize, summation

PUBLIC_NAMES = {
    # algebra
    "NEG_INFINITY", "ParseError", "Polynomial", "as_rational",
    "binomial_poly", "falling_factorial_poly", "format_polynomial",
    "format_rational", "parse_polynomial",
    # power_series
    "DomainError", "NonUnitError", "OrderExceededError", "PowerSeries",
    "cosh_series", "exp_series",
    # operators
    "OperatorSpec", "op_delta", "op_diff", "op_identity", "op_shift",
    "parse_operator",
    # summation
    "ConvergenceReport", "LogValue", "NotConvergedError", "SeriesSpec", "SummationMethod",
    "abel_limit", "cauchy_product", "cesaro_auto", "cesaro_limit", "evaluate",
    "falling_factorial_value", "parse_series", "partial_sums", "series_alt",
    "series_alt_log", "series_custom", "series_geometric", "series_table",
    "shift_check",
    # regularize
    "InexactDataError", "NotRegularError",
    "RegularizedDerivatives", "alt_binom_sum", "alt_power_sum",
    "euler_alt_sum", "euler_numbers", "product_rule_check",
    "reg_derivatives", "reg_operator", "reg_sum",
}

# The public attributes (no leading underscore) of the exact value types;
# adding or removing one is a change to the surface, made on purpose.
PUBLIC_ATTRIBUTES = {
    algebra.Polynomial: {"coeff", "coeffs", "degree", "den", "derivative", "is_zero", "nums",
                         "translate"},
    power_series.PowerSeries: {"coeff", "coeffs", "compose", "constant", "inverse", "order",
                               "t", "to_strings", "truncate"},
    operators.OperatorSpec: {"apply", "compose", "constant", "label", "remainder", "scale",
                             "symbol"},
}

# (owner, attributes) that bench/tracer.py replaces with timing wrappers
# or reads in its observers; a missing one breaks a traced run.
TRACED = [
    (algebra.Polynomial, ("__call__", "derivative", "__add__", "__sub__", "__neg__",
                          "__mul__", "__rmul__", "__pow__", "translate")),
    (algebra, ("parse_polynomial",)),
    (power_series.PowerSeries, ("__mul__", "__rmul__", "inverse")),
    (operators.OperatorSpec, ("apply", "remainder")),
    (operators, ("op_shift", "op_delta", "op_diff", "parse_operator")),
    (summation.SeriesSpec, ("terms",)),
    (summation, ("cesaro_auto", "cesaro_limit", "abel_limit")),
    (regularize, ("reg_sum", "reg_operator", "reg_derivatives", "euler_alt_sum",
                  "euler_numbers", "NotRegularError", "PROV_EXACT")),
    (cli, ("main",)),
]


def test_public_names_are_pinned_and_resolve():
    assert len(regsum.__all__) == len(set(regsum.__all__))
    assert set(regsum.__all__) == PUBLIC_NAMES
    assert [name for name in regsum.__all__ if not hasattr(regsum, name)] == []


def test_value_type_attributes_are_pinned():
    for owner, names in PUBLIC_ATTRIBUTES.items():
        assert {name for name in dir(owner) if not name.startswith("_")} == names, owner.__name__


def test_traced_attributes_resolve():
    missing = [f"{owner.__name__}.{attr}" for owner, attrs in TRACED
               for attr in attrs if not hasattr(owner, attr)]
    assert missing == []


def test_package_names_resolve_live(monkeypatch):
    # The package keeps no copy of a name, so a function swapped in its
    # module (as the tracer does) is what the package gives, until undone.
    original = regularize.reg_sum

    def fake(*args):
        raise AssertionError("not called")

    monkeypatch.setattr(regularize, "reg_sum", fake)
    assert regsum.reg_sum is fake
    monkeypatch.undo()
    assert regsum.reg_sum is original


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from regsum import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(regsum.__all__)
    assert all(namespace[name] is getattr(regsum, name) for name in regsum.__all__)
