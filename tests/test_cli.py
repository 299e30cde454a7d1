"""Command-line interface: subcommands, output modes, exit codes."""

import argparse
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from regsum import checks, cli, regularize, summation
from regsum.algebra import Polynomial, parse_polynomial
from regsum.cli import MAX_DEGREE, MAX_EULER, MAX_ORDER, MAX_STEP_WORK, MAX_TERMS, main
from regsum.operators import OperatorSpec, op_shift
from regsum.regularize import euler_alt_sum, reg_sum
from regsum.summation import MAX_ORDER_CAP, SummationMethod, parse_series, series_alt


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """json.loads that refuses NaN and the infinities."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


def table_literal(tmp_path, series, count=64):
    """A table: literal of the first terms of a series literal: the same
    terms with no closed form, so every derivative leg is numeric."""
    path = tmp_path / "terms.json"
    path.write_text(json.dumps([str(t) for t in parse_series(series).terms(count)]))
    return f"table:@{path}"


def decimal_int(text):
    """int(text) for a digit string of any length, read 1000 digits at a
    time: int() refuses more than sys.get_int_max_str_digits() digits."""
    digits = text.lstrip("-")
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text.startswith("-") else value


def text_fields(out):
    fields = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(": ")
        fields[key] = value
    return fields


# ---------------------------------------------------------------------------
# sum


def test_sum_square_vanishes(capsys):
    code, out, _ = run(capsys, "sum", "--series", "alt", "--op", "shift:1",
                       "--poly", "x^2", "--x", "0")
    fields = text_fields(out)
    assert code == 0
    assert fields["value_exact"] == "0/1"
    assert fields["value_float"] == "0"
    assert fields["method"] == "exact"
    assert fields["provenance"] == "exact-closed-form"


def test_sum_constant_is_half(capsys):
    code, out, _ = run(capsys, "sum", "--series", "alt", "--op", "shift:1",
                       "--poly", "1", "--x", "0")
    assert code == 0
    assert text_fields(out)["value_exact"] == "1/2"


def test_sum_identity_halves_value(capsys):
    code, out, _ = run(capsys, "sum", "--series", "alt", "--op", "identity",
                       "--poly", "x^5", "--x", "2")
    fields = text_fields(out)
    assert code == 0
    assert fields["value_exact"] == "16/1"
    assert fields["value_float"] == "16"


def test_sum_default_operator_uses_h(capsys):
    # default operator is the shift; --h sets its step
    code, out, _ = run(capsys, "sum", "--series", "alt", "--poly", "x",
                       "--x", "0", "--h", "2")
    assert code == 0
    # sum (-1)^n (2n) = 2 * (-1/4)
    assert text_fields(out)["value_exact"] == "-1/2"


@pytest.mark.parametrize("op", ["delta:1", "shift:1", "diff"])
def test_sum_refuses_h_beside_op(capsys, op):
    # --h is the step of the default shift only; with --op it was dropped
    # silently while the request echo still showed it.
    code, out, err = run(capsys, "sum", "--series", "alt", f"--op={op}", "--h", "5",
                         "--poly", "x^2", "-o", "json")
    assert (code, out) == (1, "")
    assert err.startswith("error: --h: ") and "--op" in err


def test_sum_difference_operator(capsys):
    code, out, _ = run(capsys, "sum", "--series", "alt", "--op", "delta:1",
                       "--poly", "x", "--x", "0")
    assert code == 0
    assert text_fields(out)["value_exact"] == "-1/1"


def test_sum_json_schema(capsys):
    code, out, _ = run(capsys, "sum", "--series", "alt", "--op", "shift:1",
                       "--poly", "x^2 - 1", "--x", "1/2", "-o", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value_exact"] == "-5/8"
    assert payload["value_float"] == -0.625
    assert payload["method"] == "exact"
    assert payload["provenance"] == "exact-closed-form"
    assert payload["value_closed"] is None
    assert set(payload) == {"request", "value_exact", "value_closed", "value_float",
                            "method", "order_used", "terms_used", "provenance",
                            "converged", "residual"}
    assert payload["request"]["polynomial"] == "x^2 - 1"
    assert payload["request"]["x"] == "1/2"


def test_sum_text_and_json_agree(capsys, tmp_path):
    args = ("sum", "--series", table_literal(tmp_path, "geom:1/2"), "--op", "identity",
            "--poly", "1", "--x", "0", "--method", "classical")
    code_t, out_t, _ = run(capsys, *args)
    code_j, out_j, _ = run(capsys, *args, "-o", "json")
    assert code_t == code_j == 0
    fields = text_fields(out_t)
    payload = json.loads(out_j)
    assert float(fields["value_float"]) == payload["value_float"]
    assert fields["method"] == payload["method"] == "classical"
    assert int(fields["terms_used"]) == payload["terms_used"]
    assert payload["value_exact"] is None
    assert "value_exact" not in fields


def test_sum_numeric_fallback_when_no_closed_form(capsys, tmp_path):
    # a table of geom:1/2's terms has no closed form; the default method
    # list falls back to the iterated means and still succeeds
    code, out, _ = run(capsys, "sum", "--series", table_literal(tmp_path, "geom:1/2"),
                       "--op", "identity", "--poly", "1", "--x", "0")
    fields = text_fields(out)
    assert code == 0
    assert "value_exact" not in fields
    assert fields["provenance"] == "numeric-cesaro"
    assert abs(float(fields["value_float"]) - 2.0) <= 1e-3


def test_sum_exact_method_fails_fast(capsys, tmp_path):
    code, out, err = run(capsys, "sum", "--series", table_literal(tmp_path, "geom:1/2"),
                         "--method", "exact", "--poly", "x", "--x", "0")
    assert code == 2
    assert out == ""
    assert "no closed form" in err


def test_sum_geometric_family_shares_one_closed_form(capsys):
    # alt is geom:-1, and the closed forms hold inside the radius and under
    # every method that sums the derivative series
    for series in ("alt", "geom:-1"):
        code, out, _ = run(capsys, "sum", "--series", series, "--poly", "x^5", "--x", "1/3")
        assert code == 0
        assert text_fields(out)["value_exact"] == "-121/972"
    code, out, _ = run(capsys, "sum", "--series", "geom:1/2", "--method", "exact",
                       "--poly", "x^2")
    assert code == 0
    assert text_fields(out)["value_exact"] == "6/1"
    code, out, _ = run(capsys, "sum", "--series", "geom:2/3", "--poly", "1",
                       "--method", "abel")
    assert code == 0
    assert text_fields(out)["value_exact"] == "3/1"


def test_sum_fixed_order_means_need_the_order_of_each_leg(capsys):
    # at c = 1 the k-th derivative series of alt needs a mean of order k + 1:
    # order 0 (classical or cesaro:0) sums none of them, cesaro:1 only v_0
    for method in ("classical", "cesaro:0"):
        code, out, err = run(capsys, "sum", "--series", "alt", "--method", method,
                             "--poly", "1")
        assert (code, out) == (2, "")
        assert f"derivative order 0 of alt at c=1 did not converge under {method}" in err
    code, out, err = run(capsys, "sum", "--series", "alt", "--method", "cesaro:1",
                         "--poly", "x^2")
    assert (code, out) == (2, "")
    assert "derivative order 1 of alt at c=1 did not converge under cesaro:1" in err
    code, out, _ = run(capsys, "sum", "--series", "alt", "--method", "cesaro:3",
                       "--poly", "x^2")
    fields = text_fields(out)
    assert code == 0
    assert fields["value_exact"] == "0/1"
    assert fields["provenance"] == "exact-closed-form"


def test_sum_parse_errors_name_the_argument(capsys):
    code, _, err = run(capsys, "sum", "--series", "alt", "--poly", "x^^2")
    assert code == 1
    assert err.startswith("error: --poly:")

    code, _, err = run(capsys, "sum", "--series", "wat", "--poly", "x")
    assert code == 1
    assert "--series" in err

    code, _, err = run(capsys, "sum", "--series", "alt", "--poly", "x",
                       "--op", "warp:1")
    assert code == 1
    assert "--op" in err

    code, _, err = run(capsys, "sum", "--series", "alt", "--poly", "x",
                       "--x", "1.5.2")
    assert code == 1
    assert "--x" in err


def test_sum_budget_validation(capsys):
    code, _, err = run(capsys, "sum", "--series", "alt", "--poly", "x", "-N", "8")
    assert code == 1
    assert "--terms" in err

    code, _, err = run(capsys, "sum", "--series", "alt", "--poly", "x",
                       "--tol", "-1")
    assert code == 1
    assert "--tol" in err


def test_sum_unknown_method(capsys):
    code, _, err = run(capsys, "sum", "--series", "alt", "--poly", "x",
                       "--method", "borel")
    assert code == 1
    assert "--method" in err


# ---------------------------------------------------------------------------
# euler


def test_euler_text(capsys):
    code, out, _ = run(capsys, "euler", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert lines[0] == "E_0: 1"
    assert lines[10] == "E_10: -50521"


def test_euler_json(capsys):
    code, out, _ = run(capsys, "euler", "16", "-o", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["values"][16] == "19391512145"
    assert payload["values"][3] == "0"


def test_euler_rejects_negative(capsys):
    code, _, err = run(capsys, "euler", "--", "-3")
    assert code == 1
    assert "n_max" in err


def test_euler_rejects_a_table_above_the_cap(capsys):
    code, out, err = run(capsys, "euler", str(MAX_EULER + 1))
    assert (code, out) == (1, "")
    assert "n_max" in err and str(MAX_EULER) in err


# ---------------------------------------------------------------------------
# cesaro / abel


def test_cesaro_subcommand(capsys):
    code, out, _ = run(capsys, "cesaro", "--series", "alt", "--k", "1")
    fields = text_fields(out)
    assert code == 0
    assert fields["converged"] == "True"
    assert abs(float(fields["value"]) - 0.5) <= 1e-3
    assert fields["method"] == "cesaro:1"


def test_cesaro_auto_default(capsys):
    code, out, _ = run(capsys, "cesaro", "--series", "alt", "-o", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order_used"] == 1
    assert payload["converged"] is True


def test_cesaro_divergent_budget_exhaustion_exits_2(capsys):
    code, out, _ = run(capsys, "cesaro", "--series", "geom:1", "-N", "400")
    assert code == 2
    assert text_fields(out)["converged"] == "False"


def test_cesaro_bad_order(capsys):
    code, _, err = run(capsys, "cesaro", "--series", "alt", "--k", "soon")
    assert code == 1
    assert "--k" in err


@pytest.mark.parametrize("argv, flag", [
    (("cesaro", "--series", "alt", "-N", "64", "--k"), "--k"),
    (("sum", "--series", "alt", "--poly", "x", "--method"), "--method"),
])
def test_a_fixed_mean_order_is_capped(capsys, argv, flag):
    value = "cesaro:{}" if flag == "--method" else "{}"
    code, out, _ = run(capsys, *argv, value.format(MAX_ORDER_CAP), "-o", "json")
    assert code != 1
    assert json.loads(out)["method"] == f"cesaro:{MAX_ORDER_CAP}"
    code, out, err = run(capsys, *argv, value.format(MAX_ORDER_CAP + 1))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {flag}:") and str(MAX_ORDER_CAP) in err


@pytest.mark.parametrize("text, tag, order", [
    ("exact", "exact", None),
    ("classical", "classical", None),
    ("abel", "abel", None),
    ("cesaro", "cesaro", "auto"),
    (" cesaro:auto ", "cesaro", "auto"),
    ("cesaro:0", "cesaro", 0),
    ("cesaro:12", "cesaro", 12),
])
def test_parse_method_literals(text, tag, order):
    # order is the iterated-mean order; only cesaro literals set it
    args = argparse.Namespace(n_max=64, tol=0.01)
    expected = SummationMethod(tag, n_max=64, tol=0.01)
    if order is not None:
        expected = SummationMethod(tag, order=order, n_max=64, tol=0.01)
    assert cli._parse_method(text, args) == expected


@pytest.mark.parametrize("text", ["cesaro:", "cesaro:13", "cesaro: auto", "abel:2", "bogus"])
def test_parse_method_refuses_other_literals(text):
    with pytest.raises(cli.CliError, match="^--method: "):
        cli._parse_method(text, argparse.Namespace(n_max=64, tol=0.01))


@pytest.mark.parametrize("argv, engine", [
    (("abel", "--series", "altlog"), lambda a: summation.abel_limit(a, max_terms=4000)),
    (("abel", "--series", "geom:-2"), lambda a: summation.abel_limit(a, max_terms=4000)),
    (("cesaro", "--series", "alt", "--k", "1"), lambda a: summation.cesaro_limit(a, 1)),
    (("cesaro", "--series", "geom:-2"), summation.cesaro_auto),
])
def test_engine_commands_report_what_the_library_gives(capsys, monkeypatch, argv, engine):
    monkeypatch.delenv("REGSUM_TERMS", raising=False)
    code, out, _ = run(capsys, *argv, "-o", "json")
    payload = strict_json(out)
    del payload["request"]
    report = engine(parse_series(argv[2]))
    assert payload == report.to_json_dict()
    assert code == (0 if report.converged else 2)


def test_abel_subcommand(capsys):
    code, out, _ = run(capsys, "abel", "--series", "altlog", "-o", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    assert abs(payload["value"] - 0.6931471805599453) <= 1e-4


def test_abel_non_finite_json_is_strict(capsys):
    code, out, _ = run(capsys, "abel", "--series", "geom:-2", "-o", "json")
    assert code == 2
    payload = strict_json(out)
    assert payload["converged"] is False
    assert payload["value"] is None and payload["residual"] is None


@pytest.mark.parametrize("argv", [
    ("abel", "--series", "geom:5"),
    ("abel", "--series", "geom:-5"),
])
def test_abel_terms_beyond_float_range_exit_2(capsys, argv):
    # 5^480 has no float: the scan ends at its first point, no traceback
    code, out, err = run(capsys, *argv, "-o", "json")
    assert code == 2 and err == ""
    payload = strict_json(out)
    assert payload["converged"] is False and payload["value"] is None


def test_sum_abel_terms_beyond_float_range_exit_2(capsys):
    code, out, err = run(capsys, "sum", "--series", "geom:5", "--method", "abel", "--poly", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "did not converge" in err


def test_abel_terms_bound_the_scan(capsys):
    code, out, _ = run(capsys, "abel", "--series", "alt", "-N", "20", "-o", "json")
    payload = strict_json(out)
    assert code == 2
    assert payload["request"]["n_max"] == 20
    assert payload["terms_used"] == 0 and payload["converged"] is False
    # geom:1/2 settles at 3,841 terms; a bound below that stops at 2,717.
    code, out, _ = run(capsys, "abel", "--series", "geom:1/2", "-N", "3839", "-o", "json")
    assert code == 0 and strict_json(out)["terms_used"] == 2717
    code, out, _ = run(capsys, "abel", "--series", "geom:1/2", "-o", "json")
    assert code == 0 and strict_json(out)["terms_used"] == 3841
    # geom:4/5 needs 21,724 terms; the default budget stops it at 3,841.
    code, out, _ = run(capsys, "abel", "--series", "geom:4/5", "-o", "json")
    assert code == 2 and strict_json(out)["terms_used"] == 3841


def test_sum_abel_method_reads_the_term_budget(capsys, tmp_path):
    # A table of degree 2 has no closed form, and its three legs settle at
    # the fourth point (1,359 terms each); -N 500 allows only one point.
    path = tmp_path / "quadratic.json"
    path.write_text(json.dumps(["1", "-1/2", "1/3"]))
    series = f"table:@{path}"
    code, out, _ = run(capsys, "sum", "--series", series, "--poly", "x^2 + 1",
                       "--method", "abel", "-N", "500", "-o", "json")
    assert code == 2
    code, out, _ = run(capsys, "sum", "--series", series, "--poly", "x^2 + 1",
                       "--method", "abel", "-o", "json")
    payload = strict_json(out)
    assert code == 0 and payload["terms_used"] == 3 * 1359


def test_sum_abel_settles_a_finite_table(capsys, tmp_path):
    # The finite sum 1/12 settles inside the default budget.
    path = tmp_path / "five.json"
    path.write_text(json.dumps(["1/2", "-3", "5/6", "0", "7/4"]))
    code, out, _ = run(capsys, "sum", "--series", f"table:@{path}", "--poly", "1",
                       "--method", "abel", "-o", "json")
    payload = strict_json(out)
    assert code == 0 and payload["converged"] is True
    assert abs(payload["value_float"] - 1 / 12) <= payload["request"]["tol"]


@pytest.mark.parametrize("output", ["text", "json"])
def test_cesaro_float_overflow_exits_2(capsys, output):
    # the partial sums of 1 - 2 + 4 - ... pass the float range before N
    code, out, err = run(capsys, "cesaro", "--series", "geom:-2", "-o", output)
    assert code == 2
    assert err == ""
    if output == "json":
        payload = strict_json(out)
        assert payload["value"] is None and payload["residual"] is None
    else:
        assert text_fields(out)["value"] == "None"
    assert "false" in out.lower()


@pytest.mark.parametrize("argv", [
    ("--series", "geom:-2", "--poly", "x^2"),
    ("--series", "geom:3", "--poly", "1", "--method", "classical"),
])
@pytest.mark.parametrize("output", ["text", "json"])
def test_sum_float_overflow_exits_2(capsys, argv, output):
    code, out, err = run(capsys, "sum", *argv, "-o", output)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "did not converge" in err


BIG_CONSTANT = "1" + "0" * 400


@pytest.mark.parametrize("output", ["text", "json"])
def test_sum_exact_value_beyond_float_range(capsys, output):
    code, out, err = run(capsys, "sum", "--series", "alt", "--poly", BIG_CONSTANT,
                         "-o", output)
    assert code == 0
    assert err == ""
    half = f"5{'0' * 399}/1"
    if output == "json":
        payload = strict_json(out)
        assert payload["value_exact"] == half
        assert payload["value_float"] is None
    else:
        fields = text_fields(out)
        assert fields["value_exact"] == half
        assert fields["value_float"] == "None"


@pytest.mark.parametrize("output", ["text", "json"])
def test_sum_prints_an_exact_value_of_any_size(capsys, output):
    # x^40 at 10^120: about 4,800 digits, past str()'s default 4,300
    x = 10 ** 120
    code, out, err = run(capsys, "sum", "--series", "alt", "--poly", "x^40",
                         "--x", str(x), "-o", output)
    assert (code, err) == (0, "")
    exact = strict_json(out)["value_exact"] if output == "json" else text_fields(out)["value_exact"]
    num, den = exact.split("/")
    assert len(num) > 4300
    expected, _ = reg_sum(series_alt(), op_shift(1, order=43), parse_polynomial("x^40"),
                          Fraction(x), SummationMethod("exact"))
    assert Fraction(decimal_int(num), decimal_int(den)) == expected


@pytest.mark.parametrize("series", ["altlog", "geom:1/2"])
@pytest.mark.parametrize("output", ["text", "json"])
def test_sum_numeric_value_beyond_float_range_exits_2(capsys, tmp_path, series, output):
    # exact where it converges; a table of its terms stays numeric
    series = table_literal(tmp_path, series)
    code, out, err = run(capsys, "sum", "--series", series, "--poly",
                         f"{BIG_CONSTANT}*x + 1", "-o", output)
    assert code == 2
    assert err == ""
    if output == "json":
        payload = strict_json(out)
        assert payload["value_exact"] is None
        assert payload["value_float"] is None
    else:
        fields = text_fields(out)
        assert fields["value_float"] == "None"
        assert fields["converged"] == "false"


def test_sum_numeric_leg_past_the_float_factorials(capsys):
    # 171! overflows a float; the value 170!/2^171 (+ 0*log 2) does not
    code, out, err = run(capsys, "sum", "--series", "altlog", "--op", "symbol:[1,1]",
                         "--poly", "x^171", "--x", "0")
    assert code == 0
    assert err == ""
    fields = text_fields(out)
    assert fields["value_float"] == "2.42467054288e+255"
    assert fields["converged"] == "true"


def test_sum_mixed_table_keeps_its_exact_legs_exact(capsys):
    # altlog at c = 1 has v_0 = log 2 and rational v_k for k >= 1; the value
    # is eta(-20) = 0 (+ 0*log 2), which a float sum of the rational legs
    # misses.
    code, out, err = run(capsys, "sum", "--series", "altlog", "--poly", "x^21",
                         "-o", "json")
    assert (code, err) == (0, "")
    payload = strict_json(out)
    assert payload["value_float"] == 0.0
    assert payload["converged"] is True
    code, out, _ = run(capsys, "sum", "--series", "altlog", "--poly", "x^21")
    assert code == 0
    assert text_fields(out)["value_float"] == "0"


@pytest.mark.parametrize("argv, value_float, closed", [
    (("--poly", "1000000"), "693147.18056", "0 + 1000000*log(2)"),
    (("--op", "shift:-3/2", "--poly", "7*x^6-x^5+3", "--x", "2"), "2.90913740462",
     "-73605/256 + 419*log(2)"),
])
def test_sum_altlog_in_closed_form(capsys, argv, value_float, closed):
    # A + B*log 2, exact: the value_float of 10^6 log 2 = 693147.18 read
    # 693022.196 while v_0 was summed numerically
    code, out, err = run(capsys, "sum", "--series", "altlog", *argv)
    assert (code, err) == (0, "")
    fields = text_fields(out)
    assert (fields["value_float"], fields["value_closed"]) == (value_float, closed)
    assert "value_exact" not in fields
    assert (fields["method"], fields["provenance"]) == ("exact", "exact-closed-form")
    code, out, _ = run(capsys, "sum", "--series", "altlog", *argv, "-o", "json")
    payload = strict_json(out)
    assert code == 0 and payload["value_exact"] is None
    assert payload["value_closed"] == closed and payload["residual"] == 0.0
    # value_exact stays null even when the log coefficient P(x) is 0
    code, out, _ = run(capsys, "sum", "--series", "altlog", "--poly", "x", "-o", "json")
    payload = strict_json(out)
    assert payload["value_exact"] is None and payload["value_closed"] == "1/2 + 0*log(2)"


def test_sum_altlog_reads_no_numeric_engine(capsys, monkeypatch, tmp_path):
    # The structural form of the claim: with the term scaling that every
    # numeric engine and derivative block starts from made to raise, the
    # closed form still answers.
    def refuse(*args):
        raise RuntimeError("numeric engine reached")

    monkeypatch.setattr(summation, "_scaled_terms", refuse)
    monkeypatch.setattr(regularize, "_scaled_terms", refuse)
    code, out, err = run(capsys, "sum", "--series", "altlog", "--op", "shift:-3/2",
                         "--poly", "7*x^6-x^5+3", "--x", "2")
    assert (code, err) == (0, "")
    assert text_fields(out)["value_float"] == "2.90913740462"
    # the patch does reach the engines: a table, and the raw altlog terms
    with pytest.raises(RuntimeError, match="numeric engine reached"):
        main(["sum", "--series", table_literal(tmp_path, "altlog"), "--poly", "1"])
    with pytest.raises(RuntimeError, match="numeric engine reached"):
        main(["cesaro", "--series", "altlog"])


def test_sum_altlog_beyond_float_range_is_exact(capsys):
    code, out, err = run(capsys, "sum", "--series", "altlog", "--poly",
                         f"{BIG_CONSTANT}*x + 1", "-o", "json")
    assert (code, err) == (0, "")
    payload = strict_json(out)
    assert payload["value_float"] is None and payload["converged"] is True
    assert payload["value_closed"] == "5" + "0" * 399 + " + 1*log(2)"


@pytest.mark.parametrize("argv", [
    ("--series", "altlog", "--poly", "x^171"),
    # altlog's case checks only the exit code and the report; this one checks
    # the value against the zigzag closed form
    ("--series", "alt", "--poly", "x^171", "--x", "1/3"),
], ids=["altlog", "alt"])
def test_sum_degree_171_on_the_default_shift(capsys, argv):
    code, out, err = run(capsys, "sum", *argv, "-o", "json")
    assert code in (0, 2)
    assert "Traceback" not in err
    payload = strict_json(out)
    assert payload["converged"] is (code == 0)
    if argv[1] == "alt":
        expected = euler_alt_sum(Polynomial([0] * 171 + [1]), 1, Fraction(1, 3))
        assert Fraction(payload["value_exact"]) == expected


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_tol_must_be_positive_and_finite(capsys, tol):
    code, out, err = run(capsys, "cesaro", "--series", "alt", "--tol", tol, "-o", "json")
    assert code == 1
    assert out == ""
    assert "--tol" in err


def test_terms_env_override(capsys, monkeypatch):
    monkeypatch.setenv("REGSUM_TERMS", "2048")
    code, out, _ = run(capsys, "cesaro", "--series", "alt", "--k", "1")
    assert code == 0
    assert text_fields(out)["terms_used"] == "2049"
    # an explicit flag beats the environment
    code, out, _ = run(capsys, "cesaro", "--series", "alt", "--k", "1", "-N", "1024")
    assert text_fields(out)["terms_used"] == "1025"


def test_terms_above_the_cap_exit_1(capsys, monkeypatch):
    monkeypatch.delenv("REGSUM_TERMS", raising=False)
    code, out, _ = run(capsys, "abel", "--series", "alt", "-N", str(MAX_TERMS))
    assert code == 0 and text_fields(out)["converged"] == "True"
    for command in (["abel"], ["cesaro"], ["sum", "--poly", "x"]):
        code, out, err = run(capsys, *command, "--series", "alt", "-N", str(MAX_TERMS + 1))
        assert (code, out) == (1, ""), command
        assert "--terms" in err and str(MAX_TERMS) in err


@pytest.mark.parametrize("terms", [MAX_TERMS + 1, 8])
def test_terms_env_out_of_range_exit_1(capsys, monkeypatch, terms):
    monkeypatch.setenv("REGSUM_TERMS", str(terms))
    code, out, err = run(capsys, "cesaro", "--series", "alt")
    assert (code, out) == (1, "")
    assert "REGSUM_TERMS" in err and str(MAX_TERMS) in err


def test_poly_degree_above_the_cap_exit_1(capsys):
    # each power is checked as it is read, before any coefficient list is built
    code, out, _ = run(capsys, "sum", "--series", "alt",
                       "--poly", f"x^{MAX_DEGREE} - x^{MAX_DEGREE} + 1")
    assert code == 0 and text_fields(out)["value_exact"] == "1/2"
    code, out, err = run(capsys, "sum", "--series", "alt",
                         "--poly", f"1 + x^{MAX_DEGREE + 1}")
    assert (code, out) == (1, "")
    assert "--poly" in err and str(MAX_DEGREE) in err


def test_terms_env_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("REGSUM_TERMS", "many")
    code, _, err = run(capsys, "cesaro", "--series", "alt")
    assert code == 1
    assert "REGSUM_TERMS" in err


# ---------------------------------------------------------------------------
# symbol


def test_symbol_text(capsys):
    code, out, _ = run(capsys, "symbol", "shift:1/2")
    assert code == 0
    assert out.startswith("1 + 1/2*t + 1/8*t^2 + 1/48*t^3")


def test_symbol_json_respects_order(capsys):
    code, out, _ = run(capsys, "symbol", "diff", "--order", "4", "-o", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == ["0", "1", "0", "0", "0"]


@pytest.mark.parametrize("argv", [
    ("shift:1", "--order", "-1"),
    ("symbol:[1,2]", "--order", "-2"),
    ("diff", "--order", "0"),
    ("shift:1", "--order", str(MAX_ORDER + 1)),
])
def test_symbol_order_validation(capsys, argv):
    code, out, err = run(capsys, "symbol", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: --order:")


@pytest.mark.parametrize("output", ["text", "json"])
def test_symbol_prints_coefficients_of_any_size(capsys, output):
    # 1/1600! has 4,437 digits, past str()'s default 4,300
    code, out, err = run(capsys, "symbol", "shift:1", "--order", "1600", "-o", output)
    assert (code, err) == (0, "")
    if output == "json":
        last = strict_json(out)["coefficients"][1600]
    else:
        assert out.rstrip().endswith("*t^1600 + O(t^1601)")
        last = out.split(" + ")[-2].removesuffix("*t^1600")
    one, den = last.split("/")
    assert one == "1" and decimal_int(den) == math.factorial(1600)


def test_symbol_order_cuts_a_longer_literal(capsys):
    code, out, _ = run(capsys, "symbol", "symbol:[1,2,3]", "--order", "1")
    assert (code, out.strip()) == (0, "1 + 2*t + O(t^2)")
    # sum builds its operator to order 16 here, which the cut cannot reach
    argv = ("sum", "--series", "alt", "--poly", "x^2", "-o", "json", "--op")
    fitting = "symbol:[" + ",".join(f"1/{k + 1}" for k in range(17)) + "]"
    longer = fitting[:-1] + ",5,7]"
    code, out, _ = run(capsys, *argv, fitting)
    assert code == 0
    assert run(capsys, *argv, longer)[:2] == (0, out.replace(fitting, longer))


def test_symbol_bad_literal(capsys):
    code, _, err = run(capsys, "symbol", "twist:2")
    assert code == 1
    assert "operator" in err


# (10^300 + 7)/(10^300 - 3): 997 + 997 bits
LONG_STEP = f"{10 ** 300 + 7}/{10 ** 300 - 3}"


@pytest.mark.parametrize("argv, flag", [
    (("symbol", f"shift:{LONG_STEP}", "--order", "100"), "operator"),
    (("symbol", f" delta:{LONG_STEP}", "--order", "15"), "operator"),
    (("sum", "--series", "alt", "--poly", "x", f"--h={LONG_STEP}"), "--h"),
    (("sum", "--series", "alt", "--poly", "x", f"--op=shift:{LONG_STEP}"), "--op"),
])
def test_a_long_step_exits_1_before_the_symbol_is_built(capsys, argv, flag):
    # order x step bits is capped at shift:97/89's 2000 x 14; the symbol
    # holds h^n/n! exactly, and shift:H at order 100 printed 3 MB in 2.9 s.
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {flag}: ") and str(MAX_STEP_WORK) in err


def test_the_step_cap_admits_its_own_case(capsys):
    assert MAX_STEP_WORK == MAX_ORDER * ((97).bit_length() + (89).bit_length())
    code, out, err = run(capsys, "symbol", "shift:97/89", "--order", str(MAX_ORDER))
    assert (code, err) == (0, "")
    assert out.rstrip().endswith(f"*t^{MAX_ORDER} + O(t^{MAX_ORDER + 1})")
    code, out, err = run(capsys, "symbol", f"shift:{LONG_STEP}", "--order", "14")
    assert (code, err) == (0, "")
    code, out, err = run(capsys, "sum", "--series", "alt", "--poly", "x", "--h", "97/89")
    assert (code, err) == (0, "")


# ---------------------------------------------------------------------------
# check suites


@pytest.mark.parametrize("suite", ["functional-equation", "operator-ring",
                                   "shift-invariance", "three-way"])
def test_check_suites_pass(capsys, suite):
    code, out, _ = run(capsys, "check", suite)
    assert code == 0
    assert out.strip().endswith(f"suite {suite}: PASS")


def test_check_product_rule_passes(capsys):
    code, out, _ = run(capsys, "check", "product-rule", "-o", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True


@pytest.mark.parametrize("seed", [1, 11, 35])
def test_check_three_way_numeric_leg_settles_on_criterion_3_budget(capsys, seed):
    code, out, _ = run(capsys, "check", "three-way", "--seed", str(seed))
    assert code == 0, out


# suite -> (owner, attribute, breaking wrapper of the real one, a line of its log)
BROKEN = {
    "functional-equation": (checks, "reg_operator",
                            lambda real: lambda *args: real(*args).scale(2),
                            "functional-equation trial 0: residue "),
    "product-rule": (checks, "product_rule_check",
                     lambda real: lambda *args: (0.0, 1.0),
                     "product-rule n=0: lhs=0 rhs=1 FAIL"),
    "shift-invariance": (checks, "shift_check",
                         lambda real: lambda *args: (0.0, 1.0),
                         "shift-invariance alt: lhs=0 rhs=1 FAIL"),
    "operator-ring": (OperatorSpec, "remainder",
                      lambda real: lambda self: (self.constant, self),
                      ": remainder not nilpotent"),
    "three-way": (checks, "euler_alt_sum",
                  lambda real: lambda *args: real(*args) + 1,
                  "three-way trial 0: exact_eq=False "),
}


@pytest.mark.parametrize("suite", list(BROKEN))
def test_check_reports_a_broken_invariant(capsys, monkeypatch, suite):
    owner, name, breaking, failing = BROKEN[suite]
    monkeypatch.setattr(owner, name, breaking(getattr(owner, name)))

    code, out, _ = run(capsys, "check", suite)
    assert code == 2
    assert out.rstrip().endswith(f"suite {suite}: FAIL")
    assert failing in out

    code, out, _ = run(capsys, "check", suite, "-o", "json")
    payload = strict_json(out)
    assert code == 2 and payload["passed"] is False
    assert any(failing in line for line in payload["log"])


# A cold interpreter runs a statement, then main on the arguments when there
# are any, and prints, last, the regsum modules and dataclasses it holds.
LOADED_PROBE = """
import sys
{statement}
if sys.argv[1:]:
    regsum.cli.main(sys.argv[1:])
print(*sorted(m for m in sys.modules if m.startswith("regsum.") or m == "dataclasses"))
"""
LOADS_CLI = {"regsum.algebra", "regsum.budgets", "regsum.cli"}
LOADS_ENGINES = {"regsum.summation", "dataclasses"}
LOADS_EXACT = {"regsum.power_series", "regsum.operators", "regsum.regularize"}


@pytest.mark.parametrize("statement, argv, loaded", [
    ("import regsum", (), set()),
    ("import regsum; regsum.summation", (),
     {"regsum.algebra", "regsum.budgets", "regsum.summation", "dataclasses"}),
    ("import regsum.cli", (), LOADS_CLI),
    ("import regsum.cli", ("symbol", "diff", "--order", "4"),
     LOADS_CLI | {"regsum.power_series", "regsum.operators"}),
    ("import regsum.cli", ("euler", "5"), LOADS_CLI | {"regsum.power_series"}),
    ("import regsum.cli", ("cesaro", "--series", "alt", "-N", "100"), LOADS_CLI | LOADS_ENGINES),
    ("import regsum.cli", ("abel", "--series", "alt"), LOADS_CLI | LOADS_ENGINES),
    ("import regsum.cli", ("sum", "--series", "alt", "--poly", "x"),
     LOADS_CLI | LOADS_ENGINES | LOADS_EXACT),
], ids=["import", "submodule", "import-cli", "symbol", "euler", "cesaro", "abel", "sum"])
def test_only_check_loads_the_suites(statement, argv, loaded):
    # Each command loads only the modules it runs: symbol and euler no
    # numeric engine (nor dataclasses), cesaro and abel no exact reduction,
    # and only check loads the suites.
    env = {k: v for k, v in os.environ.items() if k != "REGSUM_TERMS"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_PROBE.format(statement=statement), *argv],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.splitlines()[-1].split()) == loaded


@pytest.mark.parametrize("error", [
    regularize.NotRegularError("did not settle"),
    regularize.InexactDataError("numeric values in an exact construction"),
    summation.NotConvergedError("did not converge"),
], ids=lambda exc: type(exc).__name__)
def test_budget_errors_exit_2(capsys, monkeypatch, error):
    # Raised from a command whose own body loads neither regularize nor
    # summation: main maps the error by its class alone.
    def body(args):
        raise error

    monkeypatch.setattr(cli, "cmd_euler", body)
    code, out, err = run(capsys, "euler", "3")
    assert (code, out) == (2, "")
    assert err == f"error: {error}\n"


def test_check_unknown_suite(capsys):
    code, _, err = run(capsys, "check", "everything")
    assert code == 1
    assert "invalid choice" in err


def test_missing_subcommand(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# request echo and the real entry point


@pytest.mark.parametrize("argv, echo", [
    (("sum", "--series", "alt", "--poly", "x^2 - 1", "--x", "1/2", "--h", "2",
      "--method", "exact", "-N", "600", "--tol", "0.01"),
     {"subcommand": "sum", "series": "alt", "polynomial": "x^2 - 1", "x": "1/2",
      "h": "2", "method": "exact", "n_max": 600, "tol": 0.01}),
    (("sum", "--series", "alt", "--op", "diff", "--poly", "x"),
     {"subcommand": "sum", "series": "alt", "operator": "diff", "polynomial": "x",
      "x": "0", "n_max": 4000, "tol": 0.001}),
    (("cesaro", "--series", "alt", "--k", "1", "-N", "2000"),
     {"subcommand": "cesaro", "series": "alt", "order": "1", "n_max": 2000, "tol": 0.001}),
    (("abel", "--series", "alt", "--tol", "0.01"),
     {"subcommand": "abel", "series": "alt", "n_max": 4000, "tol": 0.01}),
    (("euler", "5"), {"subcommand": "euler", "n_max": 5}),
    (("symbol", "diff", "--order", "4"),
     {"subcommand": "symbol", "operator": "diff", "order": "4"}),
    (("check", "operator-ring", "--seed", "7"),
     {"subcommand": "check", "suite": "operator-ring", "seed": 7}),
])
def test_request_echoes_exactly_the_arguments_taken(capsys, monkeypatch, argv, echo):
    monkeypatch.delenv("REGSUM_TERMS", raising=False)
    code, out, _ = run(capsys, *argv, "-o", "json")
    assert code == 0
    assert strict_json(out)["request"] == echo


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("argv, expected", [
    (("sum", "--series", "alt", "--poly", "1", "-o", "json"), 0),
    (("sum", "--series", "alt", "--poly", "x^^2", "-o", "json"), 1),
    (("cesaro", "--series", "geom:1", "-N", "400", "-o", "json"), 2),
])
def test_python_m_regsum_exit_codes(argv, expected):
    env = {k: v for k, v in os.environ.items() if k != "REGSUM_TERMS"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-m", "regsum", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == expected
    if expected == 1:
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: --poly:")
    else:
        assert strict_json(proc.stdout)["request"]["subcommand"] == argv[0]


def test_closed_stdout_is_not_a_usage_error():
    # The table is about 74 kB, more than a pipe holds, so the writer meets
    # the closed pipe after the reader takes its one line and leaves.
    env = {k: v for k, v in os.environ.items() if k != "REGSUM_TERMS"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.Popen([sys.executable, "-m", "regsum", "euler", "400"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0)
    assert proc.stdout.readline() == b"E_0: 1\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert "Traceback" not in err


# An exact sum, an altlog sum, the zigzag table, a numeric engine and an exit-1 case.
INTERPRETER_ARGVS = [
    ("sum", "--series", "alt", "--poly", "3*x^2 - 1/2*x + 4", "--x", "1/2", "-o", "json"),
    ("sum", "--series", "altlog", "--poly", "x^2 + 1"),
    ("euler", "20"),
    ("cesaro", "--series", "alt", "-N", "1000", "-o", "json"),
    ("sum", "--series", "alt", "--poly", "x^^2"),
]


@pytest.mark.parametrize("version", ["3.10", "3.11", "3.12", "3.13"])
def test_each_supported_python_gives_the_same_output(version):
    # requires-python is >= 3.10: each such interpreter that starts must
    # print what the running one prints, byte for byte, with its exit code.
    if sys.version_info[:2] == tuple(map(int, version.split("."))):
        pytest.skip("the running interpreter is the reference")
    env = {k: v for k, v in os.environ.items() if k != "REGSUM_TERMS"}
    env["PYTHONPATH"] = str(SRC)
    found = _starting_python(version, env)
    if found is None:
        pytest.skip(f"python{version} does not start here")

    def outputs(interpreter, env):
        procs = [subprocess.run([interpreter, "-m", "regsum", *argv], env=env,
                                capture_output=True, timeout=120)
                 for argv in INTERPRETER_ARGVS]
        return [(p.returncode, p.stdout, p.stderr) for p in procs]

    expect = outputs(sys.executable, env)
    assert [code for code, _, _ in expect] == [0, 0, 0, 0, 1]
    assert outputs(*found) == expect


def _starting_python(version, env):
    """(path of pythonX.Y, the environment it starts in), or None.  A pyenv
    shim exits 127 unless PYENV_VERSION names an installed version, so a
    name that does not start is tried again with the newest installed
    X.Y.* under `pyenv root` named."""
    python = shutil.which(f"python{version}")
    if python is None:
        return None
    tries = [env]
    pyenv = shutil.which("pyenv")
    root = pyenv and subprocess.run([pyenv, "root"], capture_output=True, text=True,
                                    timeout=60).stdout.strip()
    if root:
        installed = [tuple(map(int, p.name.split(".")))
                     for p in Path(root, "versions").glob(f"{version}.*")
                     if p.name.count(".") == 2 and p.name.replace(".", "").isdigit()]
        if installed:
            newest = ".".join(map(str, max(installed)))
            tries.append({**env, "PYENV_VERSION": newest})
    for attempt in tries:
        if not subprocess.run([python, "-c", "pass"], env=attempt,
                              capture_output=True, timeout=60).returncode:
            return python, attempt
    return None


# ---------------------------------------------------------------------------
# fuzzing over series literals


FUZZ_POLYS = ["1", "x", "x^2 - 1/2", "3*x^3 + x", "-2/3*x^4 + 5"]
RATIOS = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@st.composite
def series_argv(draw):
    # Every draw passes -N, which bounds the abel scan too, so every ratio
    # is drawn for every command.
    command = draw(st.sampled_from(["cesaro", "abel", "sum"]))
    series = draw(st.one_of(st.sampled_from(["alt", "altlog"]),
                            RATIOS.map(lambda r: f"geom:{r}")))
    argv = [command, f"--series={series}", "-N", str(draw(st.integers(16, 700)))]
    if command == "sum":
        argv.append(f"--poly={draw(st.sampled_from(FUZZ_POLYS))}")
    if command == "cesaro" and draw(st.booleans()):
        argv += ["--k", str(draw(st.integers(0, 4)))]
    return argv + ["-o", draw(st.sampled_from(["text", "json"]))]


@settings(max_examples=100, deadline=None)
@given(series_argv())
def test_series_literal_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if argv[-1] == "json":
        if out.getvalue():
            payload = strict_json(out.getvalue())
            assert payload["request"]["subcommand"] == argv[0]
        else:
            assert code == 2 and err.getvalue().startswith("error:")


# ---------------------------------------------------------------------------
# fuzzing over polynomial and operator literals

SMALL = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
OP_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def _coeff_text(c):
    return str(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


@st.composite
def _mangled(draw, text, alphabet):
    """text as drawn, or (half the time) with one to three insertions,
    replacements or deletions of characters from alphabet."""
    for _ in range(draw(st.integers(1, 3)) if draw(st.booleans()) else 0):
        action = draw(st.sampled_from(["insert", "replace", "delete"]))
        if action == "insert" or not text:
            i = draw(st.integers(0, len(text)))
            text = text[:i] + draw(st.sampled_from(alphabet)) + text[i:]
        else:
            i = draw(st.integers(0, len(text) - 1))
            new = draw(st.sampled_from(alphabet)) if action == "replace" else ""
            text = text[:i] + new + text[i + 1:]
    return text


def _degree_at_most_12(text):
    # A deletion can join two digit runs into a higher power ("x^1 + 2"
    # to "x^12"); such texts are redrawn to keep each example quick.
    try:
        return len(parse_polynomial(text).coeffs) <= 13
    except (ValueError, ZeroDivisionError):
        return True


@st.composite
def poly_text(draw):
    text = ""
    for i in range(draw(st.integers(1, 4))):
        c, k = draw(SMALL), draw(st.integers(0, 12))
        sign = "-" if c < 0 else ("+" if i else "")
        term = _coeff_text(abs(c)) + (f"*x^{k}" if k else "")
        text += f" {sign} {term}" if i else sign + term
    return draw(_mangled(text, "x^*/+- ()").filter(_degree_at_most_12))


@st.composite
def op_text(draw):
    kind = draw(st.sampled_from(["identity", "diff", "shift", "delta", "symbol"]))
    if kind in ("shift", "delta"):
        text = f"{kind}:{_coeff_text(draw(OP_RATIONALS))}"
    elif kind == "symbol":
        coeffs = draw(st.lists(OP_RATIONALS, min_size=1, max_size=6))
        text = "symbol:[" + ",".join(map(_coeff_text, coeffs)) + "]"
    else:
        text = kind
    return draw(_mangled(text, ":[],/- x"))


@st.composite
def poly_op_argv(draw):
    argv = ["sum", f"--series={draw(st.sampled_from(['alt', 'altlog']))}",
            f"--poly={draw(poly_text())}", f"--op={draw(op_text())}",
            "-N", str(draw(st.integers(16, 700)))]
    if draw(st.booleans()):
        argv.append(f"--x={_coeff_text(draw(OP_RATIONALS))}")
    return argv + ["-o", draw(st.sampled_from(["text", "json"]))]


@settings(max_examples=100, deadline=None)
@given(poly_op_argv())
def test_poly_and_operator_literal_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
    elif argv[-1] == "json" and out.getvalue():
        assert strict_json(out.getvalue())["request"]["subcommand"] == "sum"
    elif out.getvalue() == "":
        assert code == 2 and err.getvalue().startswith("error:")


# ---------------------------------------------------------------------------
# README examples


def _readme_examples():
    """(command, shown lines) for each ``$ regsum ...`` line of the README's
    Examples section, with a trailing ``| ...`` pipe dropped from the command,
    each named by its command."""
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Examples", 1)[1].split("\n### ", 1)[0]
    examples = []
    for block in re.split(r"\n(?=\$ )", section.split("```sh\n", 1)[1].split("```", 1)[0]):
        command, *shown = block.strip().splitlines()
        command = command[2:].split("|")[0].strip()
        examples.append(pytest.param(command, shown, id=command))
    return examples


@pytest.mark.parametrize("command, shown", _readme_examples())
def test_readme_examples_print_what_they_show(capsys, monkeypatch, command, shown):
    monkeypatch.delenv("REGSUM_TERMS", raising=False)
    argv = shlex.split(command)
    assert argv[0] == "regsum"
    code, out, err = run(capsys, *argv[1:])
    assert (code, err) == (0, "")
    if "json" in argv:
        assert json.loads(out) == json.loads(" ".join(shown))
        return
    # each run of shown lines between "..." elisions is a slice of the output, in order
    lines, at = out.splitlines(), 0
    for run_text in "\n".join(shown).split("..."):
        part = run_text.strip("\n").splitlines()
        while part and lines[at:at + len(part)] != part:
            at += 1
            assert at < len(lines), f"{part!r} not in {lines!r}"
        at += len(part)
