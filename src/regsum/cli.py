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
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

from .algebra import ParseError, Polynomial, format_polynomial, parse_polynomial
from .operators import OperatorSpec, op_shift, parse_operator
from .summation import (
    DEFAULT_TERMS,
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

# --method literal -> (engine, order); "cesaro:k" also takes any k >= 0.
_METHODS = {
    "exact": ("exact", 0),
    "classical": ("classical", 0),
    "abel": ("abel", 2),
    "cesaro": ("cesaro", "auto"),
    "cesaro:auto": ("cesaro", "auto"),
}


class CliError(Exception):
    """Bad arguments or literals; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _rat(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _flt(x: float) -> str:
    return f"{x:.12g}"


def _literal(parse, text, flag: str):
    """parse(text), with a malformed literal reported as a CliError naming flag."""
    try:
        return parse(text)
    except ParseError as exc:
        raise CliError(f"{flag}: {exc}") from None
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"{flag}: bad value {text!r} ({exc})") from None


def _parse_method(text: str, args: argparse.Namespace) -> SummationMethod:
    text = text.strip()
    if text in _METHODS:
        name, order = _METHODS[text]
    elif text.startswith("cesaro:"):
        name, order = "cesaro", _literal(int, text[7:], "--method")
        if order < 0:
            raise CliError(f"--method: order must be nonnegative, got {order}")
    else:
        raise CliError(
            f"--method: unknown method {text!r} "
            "(expected cesaro[:k|:auto], abel, classical, or exact)"
        )
    return SummationMethod(name, order=order, n_max=args.n_max, tol=args.tol)


def _check_budget(args: argparse.Namespace) -> None:
    """Resolve the term budget (--terms, else $REGSUM_TERMS, else the
    default) into args.n_max, so the request echo shows the budget used,
    and check it and --tol."""
    if args.n_max is None:
        env = os.environ.get(ENV_TERMS)
        args.n_max = _literal(int, env, ENV_TERMS) if env else DEFAULT_TERMS
    if args.n_max < 16:
        raise CliError("--terms: need at least 16")
    if not 0 < args.tol < math.inf:
        raise CliError("--tol: must be positive and finite")


def _field_lines(fields: dict) -> list[str]:
    return [f"{key}: {value}" for key, value in fields.items()]


def _emit(args: argparse.Namespace, lines: Sequence[str], payload: dict,
          ok: bool = True) -> int:
    """Print a result, as text lines or as one strict JSON object (NaN and
    the infinities refused) led by the echo of the subcommand's arguments;
    return the exit code for ok, also when the reader closed stdout early."""
    if args.output == "json":
        request = {key: value for key, value in vars(args).items()
                   if key not in ("output", "run") and value is not None}
        lines = [json.dumps({"request": request, **payload}, allow_nan=False)]
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone (as in `regsum euler 400 | head -1`).  Point
        # stdout at devnull so the flush at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK if ok else EXIT_NOT_REGULAR


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="regsum", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, series=False, method=False):
        p.add_argument("--output", "-o", choices=("text", "json"), default="text")
        p.add_argument("--terms", "-N", dest="n_max", metavar="TERMS", type=int, default=None,
                       help=f"term budget (default {DEFAULT_TERMS}; env {ENV_TERMS} overrides)")
        p.add_argument("--tol", type=float, default=1e-3)
        if series:
            p.add_argument("--series", required=True,
                           help="alt | altlog | geom:p/q | table:@file.json")
        if method:
            p.add_argument("--method", default=None,
                           help="cesaro[:k|:auto] | abel | classical | exact "
                                "(default: exact when available, else cesaro:auto)")

    p = sub.add_parser("sum", help="regularized sum of a_n (T^n P)(x)")
    p.set_defaults(run=cmd_sum)
    common(p, series=True, method=True)
    p.add_argument("--poly", dest="polynomial", metavar="POLY", required=True,
                   help="polynomial in x, e.g. '3*x^2 - 1/2*x + 4'")
    p.add_argument("--op", dest="operator", metavar="OP", default=None,
                   help="identity | diff | shift:h | delta:h | symbol:[c0,c1,...] "
                        "(default shift:h with h from --h, else shift:1)")
    p.add_argument("--x", default="0", help="evaluation point (rational)")
    p.add_argument("--h", default=None, help="shift step when --op is omitted")

    p = sub.add_parser("euler", help="print the zigzag integer table E_0..E_n")
    p.set_defaults(run=cmd_euler)
    p.add_argument("n_max", type=int)
    p.add_argument("--output", "-o", choices=("text", "json"), default="text")

    p = sub.add_parser("cesaro", help="iterated-mean summation of a series literal")
    p.set_defaults(run=cmd_cesaro)
    common(p, series=True)
    p.add_argument("--k", dest="order", metavar="K", default="auto",
                   help="mean order (nonnegative int) or 'auto'")

    p = sub.add_parser("abel", help="power-boundary summation of a series literal")
    p.set_defaults(run=cmd_abel)
    common(p, series=True)

    p = sub.add_parser("symbol", help="print an operator's symbol series")
    p.set_defaults(run=cmd_symbol)
    p.add_argument("operator", help="identity | diff | shift:h | delta:h | symbol:[...]")
    p.add_argument("--output", "-o", choices=("text", "json"), default="text")
    p.add_argument("--order", default="12")

    p = sub.add_parser("check", help="run a named invariant suite")
    p.set_defaults(run=cmd_check)
    p.add_argument("suite", choices=_SUITES)
    p.add_argument("--output", "-o", choices=("text", "json"), default="text")
    p.add_argument("--seed", type=int, default=2024)
    return parser


# ---------------------------------------------------------------------------
# Subcommand bodies


def cmd_sum(args: argparse.Namespace) -> int:
    _check_budget(args)
    poly = _literal(parse_polynomial, args.polynomial, "--poly")
    x = _literal(Fraction, args.x, "--x")
    order = max(16, len(poly.coeffs) + 3)
    if args.operator is not None:
        op = _literal(partial(parse_operator, order=order), args.operator, "--op")
    else:
        h = _literal(Fraction, args.h, "--h") if args.h is not None else Fraction(1)
        op = op_shift(h, order=order)
    series = _literal(parse_series, args.series, "--series")

    # Without --method: the exact route, else the iterated means.  The
    # last method's NotRegularError reaches main, which exits 2.
    methods = [_parse_method(m, args)
               for m in ([args.method] if args.method is not None else ["exact", "cesaro"])]
    for method in methods:
        try:
            value, report = reg_sum(series, op, poly, x, method)
            break
        except NotRegularError:
            if method is methods[-1]:
                raise

    exact = _rat(value) if isinstance(value, Fraction) else None
    shared = {
        "method": report.method_used.describe(),
        "order_used": report.order_used,
        "terms_used": report.terms_used,
        "provenance": report.provenance,
    }
    text = {"value_float": _flt(report.value) if math.isfinite(report.value) else None}
    if exact is not None:
        text["value_exact"] = exact
    text.update(shared, converged=str(report.converged).lower())
    return _emit(args, _field_lines(text), {
        "value_exact": exact,
        "value_float": _sig12(report.value),
        **shared,
        "converged": report.converged,
        "residual": _sig12(report.residual),
    }, report.converged)


def cmd_euler(args: argparse.Namespace) -> int:
    if args.n_max < 0:
        raise CliError("n_max: must be a nonnegative integer")
    table = euler_numbers(args.n_max)
    return _emit(args, [f"E_{k}: {v}" for k, v in enumerate(table.values)],
                 {"values": table.to_json_list()})


def cmd_cesaro(args: argparse.Namespace) -> int:
    _check_budget(args)
    series = _literal(parse_series, args.series, "--series")
    if args.order == "auto":
        report = cesaro_auto(series, N=args.n_max, tol=args.tol)
    else:
        k = _literal(int, args.order, "--k")
        if k < 0:
            raise CliError("--k: must be nonnegative")
        report = cesaro_limit(series, k, N=args.n_max, tol=args.tol)
    fields = report.to_json_dict()
    return _emit(args, _field_lines(fields), fields, report.converged)


def cmd_abel(args: argparse.Namespace) -> int:
    _check_budget(args)
    series = _literal(parse_series, args.series, "--series")
    report = abel_limit(series, tol=args.tol, max_terms=args.n_max)
    fields = report.to_json_dict()
    return _emit(args, _field_lines(fields), fields, report.converged)


def cmd_symbol(args: argparse.Namespace) -> int:
    order = _literal(int, args.order, "--order")
    if order < 0:
        raise CliError(f"--order: must be nonnegative, got {order}")
    # The literal is read first, so what fails after it is the order's
    # (diff needs t^1).
    _literal(parse_operator, args.operator, "operator")
    op = _literal(partial(parse_operator, args.operator), order, "--order")
    return _emit(args, [str(op.symbol)], {"coefficients": op.symbol.to_strings()})


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


def cmd_check(args: argparse.Namespace) -> int:
    messages: list[str] = []
    ok = _SUITES[args.suite](random.Random(args.seed), messages.append)
    return _emit(args, [*messages, f"suite {args.suite}: {'PASS' if ok else 'FAIL'}"],
                 {"passed": ok, "log": messages}, ok)


# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except (CliError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NotRegularError, InexactDataError, NotConvergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_REGULAR


if __name__ == "__main__":
    sys.exit(main())
