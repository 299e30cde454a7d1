"""Command-line interface: subcommands, output modes, exit codes."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from regsum.algebra import parse_polynomial
from regsum.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """json.loads that refuses NaN and the infinities."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


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
    assert set(payload) == {"request", "value_exact", "value_float", "method",
                            "order_used", "terms_used", "provenance", "converged",
                            "residual"}
    assert payload["request"]["polynomial"] == "x^2 - 1"
    assert payload["request"]["x"] == "1/2"


def test_sum_text_and_json_agree(capsys):
    args = ("sum", "--series", "geom:1/2", "--op", "identity", "--poly", "1",
            "--x", "0", "--method", "classical")
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


def test_sum_numeric_fallback_when_no_closed_form(capsys):
    # geometric ratio 1/2 has no derivative table; the default method list
    # falls back to the iterated means and still succeeds
    code, out, _ = run(capsys, "sum", "--series", "geom:1/2", "--op", "identity",
                       "--poly", "1", "--x", "0")
    fields = text_fields(out)
    assert code == 0
    assert "value_exact" not in fields
    assert fields["provenance"] == "numeric-cesaro"
    assert abs(float(fields["value_float"]) - 2.0) <= 1e-3


def test_sum_exact_method_fails_fast(capsys):
    code, out, err = run(capsys, "sum", "--series", "geom:1/2", "--method", "exact",
                         "--poly", "x", "--x", "0")
    assert code == 2
    assert out == ""
    assert "no closed form" in err


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


def test_abel_terms_bound_the_scan(capsys):
    code, out, _ = run(capsys, "abel", "--series", "alt", "-N", "20", "-o", "json")
    payload = strict_json(out)
    assert code == 2
    assert payload["request"]["n_max"] == 20
    assert payload["terms_used"] == 0 and payload["converged"] is False
    code, out, _ = run(capsys, "abel", "--series", "geom:1/2", "-N", "7680", "-o", "json")
    assert code == 0 and strict_json(out)["terms_used"] == 7681
    code, out, _ = run(capsys, "abel", "--series", "geom:1/2", "-o", "json")
    assert code == 0 and strict_json(out)["terms_used"] == 3841


def test_sum_abel_method_reads_the_term_budget(capsys):
    code, out, _ = run(capsys, "sum", "--series", "altlog", "--poly", "x^2 + 1",
                       "--method", "abel", "-N", "500", "-o", "json")
    assert code == 2
    code, out, _ = run(capsys, "sum", "--series", "altlog", "--poly", "x^2 + 1",
                       "--method", "abel", "-o", "json")
    payload = strict_json(out)
    assert code == 0 and payload["terms_used"] == 3841


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


@pytest.mark.parametrize("series", ["altlog", "geom:1/2"])
@pytest.mark.parametrize("output", ["text", "json"])
def test_sum_numeric_value_beyond_float_range_exits_2(capsys, series, output):
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
    # 171! overflows a float; the value 170!/2^171 does not
    code, out, err = run(capsys, "sum", "--series", "altlog", "--op", "symbol:[1,1]",
                         "--poly", "x^171", "--x", "0")
    assert code == 0
    assert err == ""
    fields = text_fields(out)
    assert fields["value_float"] == "2.42467054288e+255"
    assert fields["converged"] == "true"


def test_sum_mixed_table_keeps_its_exact_legs_exact(capsys):
    # altlog at c = 1 has a numeric v_0 and exact v_k for k >= 1; the value
    # is eta(-20) = 0, which a float sum of the exact legs misses.
    code, out, err = run(capsys, "sum", "--series", "altlog", "--poly", "x^21",
                         "-o", "json")
    assert (code, err) == (0, "")
    payload = strict_json(out)
    assert payload["value_float"] == 0.0
    assert payload["converged"] is True
    code, out, _ = run(capsys, "sum", "--series", "altlog", "--poly", "x^21")
    assert code == 0
    assert text_fields(out)["value_float"] == "0"


def test_sum_degree_171_on_the_default_shift(capsys):
    code, out, err = run(capsys, "sum", "--series", "altlog", "--poly", "x^171",
                         "-o", "json")
    assert code in (0, 2)
    assert "Traceback" not in err
    payload = strict_json(out)
    assert payload["converged"] is (code == 0)


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
])
def test_symbol_order_validation(capsys, argv):
    code, out, err = run(capsys, "symbol", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: --order:")


def test_symbol_bad_literal(capsys):
    code, _, err = run(capsys, "symbol", "twist:2")
    assert code == 1
    assert "operator" in err


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


# ---------------------------------------------------------------------------
# fuzzing over series literals


FUZZ_POLYS = ["1", "x", "x^2 - 1/2", "3*x^3 + x", "-2/3*x^4 + 5"]
RATIOS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


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
