"""Command-line front end.

Subcommands: sum (regularized operator series against a polynomial), euler
(zigzag integer table), cesaro / abel (raw numeric summation of a series
literal), symbol (print an operator's series), check (named invariant
suites).  Exit codes: 0 success, 1 argument or literal parse error, 2
regularization or budget failure (including failed check suites).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import ParseError, Polynomial, format_polynomial, parse_polynomial
from .operators import OperatorSpec, op_shift, parse_operator
from .summation import (
    ConvergenceReport,
    NotConvergedError,
    SummationMethod,
    _sig12,
    abel_limit,
    cesaro_auto,
    cesaro_limit,
    parse_series,
    series_alt,
    series_custom,
    shift_check,
)
from .regularize import (
    InexactDataError,
    NotRegularError,
    _reduced_values,
    euler_alt_sum,
    euler_numbers,
    product_rule_check,
    reg_operator,
    reg_sum,
)

ENV_TERMS = "REGSUM_TERMS"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_REGULAR = 2


class CliError(Exception):
    """Bad arguments or literals; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


@dataclass
class CliRequest:
    subcommand: str
    polynomial: Optional[str] = None
    operator: Optional[str] = None
    series: Optional[str] = None
    method: Optional[str] = None
    x: str = "0"
    h: Optional[str] = None
    output: str = "text"
    n_max: int = 4000
    tol: float = 1e-3
    order: Optional[str] = None
    n_arg: Optional[int] = None
    suite: Optional[str] = None

    def echo(self) -> dict:
        out = {"subcommand": self.subcommand}
        for key in ("polynomial", "operator", "series", "method", "x", "h",
                    "order", "suite"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        out["n_max"] = self.n_max
        out["tol"] = self.tol
        return out


def _rat(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _flt(x: float) -> str:
    return f"{x:.12g}"


def _parse_fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"{flag}: not a rational number: {text!r} ({exc})") from None


def _parse_method(text: str, req: CliRequest) -> SummationMethod:
    text = text.strip()
    if text == "exact":
        return SummationMethod("exact", order=0, n_max=req.n_max, tol=req.tol)
    if text == "classical":
        return SummationMethod("classical", order=0, n_max=req.n_max, tol=req.tol)
    if text == "abel":
        return SummationMethod("abel", order=2, n_max=req.n_max, tol=req.tol)
    if text == "cesaro":
        return SummationMethod("cesaro", order="auto", n_max=req.n_max, tol=req.tol)
    if text.startswith("cesaro:"):
        tail = text[7:]
        if tail == "auto":
            return SummationMethod("cesaro", order="auto", n_max=req.n_max, tol=req.tol)
        try:
            k = int(tail)
        except ValueError:
            raise CliError(f"--method: bad order {tail!r} in {text!r}") from None
        if k < 0:
            raise CliError(f"--method: order must be nonnegative, got {k}")
        return SummationMethod("cesaro", order=k, n_max=req.n_max, tol=req.tol)
    raise CliError(
        f"--method: unknown method {text!r} "
        "(expected cesaro[:k|:auto], abel, classical, or exact)"
    )


def _print_json(payload: dict) -> None:
    """Print one strict JSON object: NaN and infinities are refused."""
    print(json.dumps(payload, allow_nan=False))


def _emit(req: CliRequest, lines: list[tuple[str, object]], json_extra: dict) -> None:
    if req.output == "json":
        payload = {"request": req.echo()}
        payload.update(json_extra)
        _print_json(payload)
    else:
        for key, value in lines:
            print(f"{key}: {value}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="regsum", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, series=False, method=False):
        p.add_argument("--output", "-o", choices=("text", "json"), default="text")
        p.add_argument("--terms", "-N", type=int, default=None,
                       help=f"term budget (default 4000; env {ENV_TERMS} overrides)")
        p.add_argument("--tol", type=float, default=1e-3)
        if series:
            p.add_argument("--series", required=True,
                           help="alt | altlog | geom:p/q | table:@file.json")
        if method:
            p.add_argument("--method", default=None,
                           help="cesaro[:k|:auto] | abel | classical | exact "
                                "(default: exact when available, else cesaro:auto)")

    p = sub.add_parser("sum", help="regularized sum of a_n (T^n P)(x)")
    common(p, series=True, method=True)
    p.add_argument("--poly", required=True, help="polynomial in x, e.g. '3*x^2 - 1/2*x + 4'")
    p.add_argument("--op", default=None,
                   help="identity | diff | shift:h | delta:h | symbol:[c0,c1,...] "
                        "(default shift:h with h from --h, else shift:1)")
    p.add_argument("--x", default="0", help="evaluation point (rational)")
    p.add_argument("--h", default=None, help="shift step when --op is omitted")

    p = sub.add_parser("euler", help="print the zigzag integer table E_0..E_n")
    p.add_argument("n_max", type=int)
    p.add_argument("--output", "-o", choices=("text", "json"), default="text")

    p = sub.add_parser("cesaro", help="iterated-mean summation of a series literal")
    common(p, series=True)
    p.add_argument("--k", default="auto", help="mean order (nonnegative int) or 'auto'")

    p = sub.add_parser("abel", help="power-boundary summation of a series literal")
    common(p, series=True)

    p = sub.add_parser("symbol", help="print an operator's symbol series")
    p.add_argument("operator", help="identity | diff | shift:h | delta:h | symbol:[...]")
    p.add_argument("--output", "-o", choices=("text", "json"), default="text")
    p.add_argument("--order", type=int, default=12)

    p = sub.add_parser("check", help="run a named invariant suite")
    p.add_argument("suite", choices=("functional-equation", "product-rule",
                                     "shift-invariance", "operator-ring", "three-way"))
    p.add_argument("--output", "-o", choices=("text", "json"), default="text")
    p.add_argument("--seed", type=int, default=2024)
    return parser


def _default_terms(cli_value: Optional[int]) -> int:
    if cli_value is not None:
        return cli_value
    env = os.environ.get(ENV_TERMS)
    if env:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"{ENV_TERMS}: not an integer: {env!r}") from None
    return 4000


def _request_from_args(args: argparse.Namespace) -> CliRequest:
    req = CliRequest(subcommand=args.subcommand)
    req.output = getattr(args, "output", "text")
    if hasattr(args, "terms"):
        req.n_max = _default_terms(args.terms)
        if req.n_max < 16:
            raise CliError("--terms: need at least 16")
    if hasattr(args, "tol"):
        req.tol = args.tol
        if not (0 < req.tol < math.inf):
            raise CliError("--tol: must be positive and finite")
    req.polynomial = getattr(args, "poly", None)
    req.operator = getattr(args, "op", None) or getattr(args, "operator", None)
    req.series = getattr(args, "series", None)
    req.method = getattr(args, "method", None)
    req.x = getattr(args, "x", "0")
    req.h = getattr(args, "h", None)
    order = getattr(args, "k", None)
    if order is None:
        order = getattr(args, "order", None)
    req.order = str(order) if order is not None else None
    if hasattr(args, "n_max"):
        req.n_arg = args.n_max
    req.suite = getattr(args, "suite", None)
    return req


# ---------------------------------------------------------------------------
# Subcommand bodies


def cmd_sum(req: CliRequest) -> int:
    try:
        poly = parse_polynomial(req.polynomial)
    except ParseError as exc:
        raise CliError(f"--poly: {exc}") from None
    x = _parse_fraction(req.x, "--x")
    deg = len(poly.coeffs) - 1 if poly.coeffs else 0
    order = max(16, deg + 4)
    if req.operator is not None:
        try:
            op = parse_operator(req.operator, order=order)
        except ParseError as exc:
            raise CliError(f"--op: {exc}") from None
    else:
        h = _parse_fraction(req.h, "--h") if req.h is not None else Fraction(1)
        op = op_shift(h, order=order)
    try:
        series = parse_series(req.series)
    except ParseError as exc:
        raise CliError(f"--series: {exc}") from None

    if req.method is not None:
        methods = [_parse_method(req.method, req)]
    else:
        methods = [
            SummationMethod("exact", order=0, n_max=req.n_max, tol=req.tol),
            SummationMethod("cesaro", order="auto", n_max=req.n_max, tol=req.tol),
        ]

    value = report = None
    failure: Optional[NotRegularError] = None
    for method in methods:
        try:
            value, report = reg_sum(series, op, poly, x, method)
            failure = None
            break
        except NotRegularError as exc:
            failure = exc
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return EXIT_NOT_REGULAR

    exact = value if isinstance(value, Fraction) else None
    value_float = _flt(report.value) if math.isfinite(report.value) else None
    lines: list[tuple[str, object]] = [("value_float", value_float)]
    if exact is not None:
        lines.append(("value_exact", _rat(exact)))
    lines += [
        ("method", report.method_used.describe()),
        ("order_used", report.order_used),
        ("terms_used", report.terms_used),
        ("provenance", report.provenance),
        ("converged", str(report.converged).lower()),
    ]
    _emit(req, lines, {
        "value_exact": _rat(exact) if exact is not None else None,
        "value_float": _sig12(report.value),
        "method": report.method_used.describe(),
        "order_used": report.order_used,
        "terms_used": report.terms_used,
        "provenance": report.provenance,
    })
    return EXIT_OK if report.converged else EXIT_NOT_REGULAR


def cmd_euler(req: CliRequest) -> int:
    if req.n_arg is None or req.n_arg < 0:
        raise CliError("n_max: must be a nonnegative integer")
    table = euler_numbers(req.n_arg)
    if req.output == "json":
        _print_json({"request": req.echo(), "values": table.to_json_list()})
    else:
        for k, v in enumerate(table.values):
            print(f"E_{k}: {v}")
    return EXIT_OK


def _report_out(req: CliRequest, report: ConvergenceReport) -> int:
    if req.output == "json":
        payload = {"request": req.echo()}
        payload.update(report.to_json_dict())
        _print_json(payload)
    else:
        for key, value in report.to_json_dict().items():
            print(f"{key}: {value}")
    return EXIT_OK if report.converged else EXIT_NOT_REGULAR


def cmd_cesaro(req: CliRequest) -> int:
    try:
        series = parse_series(req.series)
    except ParseError as exc:
        raise CliError(f"--series: {exc}") from None
    if req.order == "auto":
        report = cesaro_auto(series, N=req.n_max, tol=req.tol)
    else:
        try:
            k = int(req.order)
        except ValueError:
            raise CliError(f"--k: expected a nonnegative integer or 'auto', got {req.order!r}") from None
        if k < 0:
            raise CliError("--k: must be nonnegative")
        report = cesaro_limit(series, k, N=req.n_max, tol=req.tol)
    return _report_out(req, report)


def cmd_abel(req: CliRequest) -> int:
    try:
        series = parse_series(req.series)
    except ParseError as exc:
        raise CliError(f"--series: {exc}") from None
    report = abel_limit(series, tol=req.tol)
    return _report_out(req, report)


def cmd_symbol(req: CliRequest) -> int:
    order = int(req.order) if req.order is not None else 12
    if order < 0:
        raise CliError(f"--order: must be nonnegative, got {order}")
    try:
        op = parse_operator(req.operator, order=order)
    except ParseError as exc:
        raise CliError(f"operator: {exc}") from None
    except ValueError as exc:  # an order too short for the operator, e.g. diff
        raise CliError(f"--order: {exc}") from None
    if req.output == "json":
        _print_json({"request": req.echo(), "coefficients": op.symbol.to_strings()})
    else:
        print(op.symbol)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Invariant suites


def _random_poly(rng: random.Random, max_deg: int) -> Polynomial:
    deg = rng.randint(0, max_deg)
    return Polynomial([
        Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(deg + 1)
    ])


def _random_h(rng: random.Random) -> Fraction:
    num = rng.randint(-8, 8) or 3
    return Fraction(num, rng.randint(1, 4))


def _suite_functional_equation(rng: random.Random, say) -> bool:
    alt = series_alt()
    method = SummationMethod("exact")
    ok = True
    for trial in range(30):
        p = _random_poly(rng, 8)
        h = _random_h(rng)
        deg = max(len(p.coeffs) - 1, 0)
        half = reg_operator(alt, op_shift(h, order=deg + 6), method, deg + 2)
        s = half.apply(p)
        residue = s.translate(h) + s - p
        if not residue.is_zero:
            say(f"functional-equation trial {trial}: residue {format_polynomial(residue)}")
            ok = False
    say(f"functional-equation: 30 random (P,h) {'pass' if ok else 'FAIL'}")
    return ok


def _suite_product_rule(rng: random.Random, say) -> bool:
    alt = series_alt()
    method = SummationMethod("cesaro", order="auto", n_max=2000, k_max=10)
    ok = True
    for n in (0, 1):
        lhs, rhs = product_rule_check(alt, alt, n, method)
        good = abs(lhs - rhs) <= 2e-3
        say(f"product-rule n={n}: lhs={_flt(lhs)} rhs={_flt(rhs)} {'pass' if good else 'FAIL'}")
        ok = ok and good
    return ok


def _suite_shift_invariance(rng: random.Random, say) -> bool:
    ok = True
    cases = [
        (series_alt(), SummationMethod("cesaro", order=1)),
        (series_custom(lambda n: Fraction((-1) ** n * (n + 1)), "alt-weighted"),
         SummationMethod("cesaro", order=2)),
    ]
    for series, method in cases:
        try:
            lhs, rhs = shift_check(series, method)
        except NotConvergedError as exc:
            say(f"shift-invariance {series.label}: {exc}")
            ok = False
            continue
        good = abs(lhs - rhs) <= 1e-3
        say(f"shift-invariance {series.label}: lhs={_flt(lhs)} rhs={_flt(rhs)} "
            f"{'pass' if good else 'FAIL'}")
        ok = ok and good
    return ok


def _suite_operator_ring(rng: random.Random, say) -> bool:
    from .power_series import PowerSeries

    ok = True
    for trial in range(30):
        p = _random_poly(rng, 8)
        f = PowerSeries([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(12)])
        g = PowerSeries([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(12)])
        sf, sg = OperatorSpec(f), OperatorSpec(g)
        combined = OperatorSpec(f * g).apply(p)
        chained = sf.apply(sg.apply(p))
        if combined != chained:
            say(f"operator-ring trial {trial}: composition mismatch")
            ok = False
        h = _random_h(rng)
        if sf.apply(p.translate(h)) != sf.apply(p).translate(h):
            say(f"operator-ring trial {trial}: translation invariance mismatch")
            ok = False
        if sf.apply(p.derivative()) != sf.apply(p).derivative():
            say(f"operator-ring trial {trial}: derivative commutation mismatch")
            ok = False
        c, rem = sf.remainder()
        deg = max(len(p.coeffs) - 1, 0)
        power = p
        for _ in range(deg + 1):
            power = rem.apply(power)
        if not power.is_zero:
            say(f"operator-ring trial {trial}: remainder not nilpotent")
            ok = False
    say(f"operator-ring: 30 random instances x 4 laws {'pass' if ok else 'FAIL'}")
    return ok


def _normalized_alt_instance(
    p: Polynomial, h: Fraction, xv: Fraction
) -> Polynomial:
    """Rescale P by an exact rational so the alternating-sum reduction of
    (P, h, x) has parts of order one.  The numeric engine's accuracy is
    absolute while its error constants scale linearly with the instance, so
    this keeps a fixed tolerance meaningful; by linearity the rescaled
    triple is as random as the original."""
    if p.is_zero:
        return p
    applied = _reduced_values(op_shift(h, order=len(p.coeffs) - 1), p, xv)
    magnitude = sum(abs(v) / 2 ** (k + 1) for k, v in enumerate(applied))
    return p * Fraction(1, 1 + magnitude.numerator // magnitude.denominator)


def _suite_three_way(rng: random.Random, say) -> bool:
    alt = series_alt()
    exact_m = SummationMethod("exact")
    ok = True
    for trial in range(10):
        p = _random_poly(rng, 4)
        h = _random_h(rng)
        xv = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        p = _normalized_alt_instance(p, h, xv)
        a, _ = reg_sum(alt, op_shift(h, order=12), p, xv, exact_m)
        b = euler_alt_sum(p, h, xv)
        signed = series_custom(
            lambda n, pp=p, hh=h, xx=xv: Fraction(-1) ** n * pp(xx + n * hh),
            "alt-shifted",
        )
        rep = cesaro_auto(signed, k_max=10, N=4000)
        exact_eq = a == b
        num_ok = rep.converged and abs(rep.value - float(a)) <= 1e-3
        if not (exact_eq and num_ok):
            say(f"three-way trial {trial}: exact_eq={exact_eq} numeric={rep.value} "
                f"target={float(a)} converged={rep.converged}")
            ok = False
    say(f"three-way: 10 random (P,h,x) {'pass' if ok else 'FAIL'}")
    return ok


_SUITES = {
    "functional-equation": _suite_functional_equation,
    "product-rule": _suite_product_rule,
    "shift-invariance": _suite_shift_invariance,
    "operator-ring": _suite_operator_ring,
    "three-way": _suite_three_way,
}


def cmd_check(req: CliRequest, seed: int) -> int:
    rng = random.Random(seed)
    messages: list[str] = []
    say = messages.append
    ok = _SUITES[req.suite](rng, say)
    if req.output == "json":
        _print_json({"request": req.echo(), "passed": ok, "log": messages})
    else:
        for line in messages:
            print(line)
        print(f"suite {req.suite}: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_NOT_REGULAR


# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        req = _request_from_args(args)
        if req.subcommand == "sum":
            return cmd_sum(req)
        if req.subcommand == "euler":
            return cmd_euler(req)
        if req.subcommand == "cesaro":
            return cmd_cesaro(req)
        if req.subcommand == "abel":
            return cmd_abel(req)
        if req.subcommand == "symbol":
            return cmd_symbol(req)
        if req.subcommand == "check":
            return cmd_check(req, getattr(args, "seed", 2024))
        raise CliError(f"unknown subcommand {req.subcommand!r}")
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NotRegularError, InexactDataError, NotConvergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_REGULAR


if __name__ == "__main__":
    sys.exit(main())
