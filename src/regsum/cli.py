"""Command-line front end.

Subcommands: sum (regularized operator series against a polynomial), euler
(zigzag integer table), cesaro / abel (raw numeric summation of a series
literal), symbol (print an operator's series), check (named invariant
suites).  Exit codes: 0 success, 1 argument or literal parse error (or a
value above its cap), 2 regularization or budget failure (including failed
check suites).  Each subcommand imports the modules it runs when it runs,
so a cold ``euler`` or ``symbol`` never loads the numeric engines.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

from .algebra import ParseError, _decimal, parse_polynomial
from .budgets import (
    DEFAULT_TERMS,
    DEFAULT_TOL,
    MAX_ORDER_CAP,
    MIN_TERMS,
    InexactDataError,
    NotConvergedError,
    NotRegularError,
)

ENV_TERMS = "REGSUM_TERMS"

# Caps on one command's work (the README gives their costs); above one, exit 1.
MAX_DEGREE = 400
MAX_TERMS = 32768
MAX_EULER = 1000
MAX_ORDER = 2000
# order x (bits of a shift:/delta: step's numerator + denominator): the
# symbol holds h^n/n! exactly, so its size grows with both.  The cap is
# shift:97/89 (7 + 7 bits) at the order cap.
MAX_STEP_WORK = MAX_ORDER * 14

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_REGULAR = 2


class CliError(Exception):
    """Bad arguments or literals; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _rat(q: Fraction) -> str:
    return f"{_decimal(q.numerator)}/{_decimal(q.denominator)}"


def _literal(parse, text, flag: str):
    """parse(text), with a malformed literal reported as a CliError naming flag."""
    try:
        return parse(text)
    except ParseError as exc:
        raise CliError(f"{flag}: {exc}") from None
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"{flag}: bad value {text!r} ({exc})") from None


def _mean_order(text: str, flag: str) -> int:
    """An iterated-mean order literal in 0..MAX_ORDER_CAP, checked here
    because SummationMethod's ValueError would not reach an exit code."""
    k = _literal(int, text, flag)
    if not 0 <= k <= MAX_ORDER_CAP:
        raise CliError(f"{flag}: order must be in 0..{MAX_ORDER_CAP}, got {k}")
    return k


def _parse_method(text: str, args: argparse.Namespace):
    """A --method literal: exact, classical, abel, or cesaro[:k|:auto]."""
    from .summation import SummationMethod

    text = text.strip()
    tag, colon, order = text.partition(":")
    if text in ("exact", "classical", "abel", "cesaro", "cesaro:auto"):
        order = "auto"
    elif tag == "cesaro" and colon:
        order = _mean_order(order, "--method")
    else:
        raise CliError(
            f"--method: unknown method {text!r} "
            "(expected cesaro[:k|:auto], abel, classical, or exact)"
        )
    return SummationMethod(tag, order=order, n_max=args.n_max, tol=args.tol)


def _check_budget(args: argparse.Namespace) -> None:
    """Resolve the term budget (--terms, else $REGSUM_TERMS, else the
    default) into args.n_max and --tol into args.tol, so the request echo
    shows the budget used, and check both."""
    source = "--terms"
    if args.n_max is None:
        source, env = ENV_TERMS, os.environ.get(ENV_TERMS)
        args.n_max = _literal(int, env, ENV_TERMS) if env else DEFAULT_TERMS
    if not MIN_TERMS <= args.n_max <= MAX_TERMS:
        raise CliError(f"{source}: need {MIN_TERMS}..{MAX_TERMS} terms, got {args.n_max}")
    if args.tol is None:
        args.tol = DEFAULT_TOL
    if not 0 < args.tol < math.inf:
        raise CliError("--tol: must be positive and finite")


def _check_step(text: str, order: int, flag: str) -> None:
    """Exit 1 when the step of a ``shift:h``/``delta:h`` literal, or a bare
    --h step, is above MAX_STEP_WORK at this symbol order.  Other literals,
    and malformed steps, pass on to their parser."""
    text = text.strip()
    if text.startswith(("shift:", "delta:")):
        text = text[6:]
    try:
        h = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return
    bits = h.numerator.bit_length() + h.denominator.bit_length()
    if order * bits > MAX_STEP_WORK:
        raise CliError(f"{flag}: order {order} x {bits} step bits is above the cap "
                       f"{MAX_STEP_WORK}")


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
        p.add_argument("--tol", type=float, default=None)
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
    p.set_defaults(run=cmd_engine)
    common(p, series=True)
    p.add_argument("--k", dest="order", metavar="K", default="auto",
                   help=f"mean order (0..{MAX_ORDER_CAP}) or 'auto'")

    p = sub.add_parser("abel", help="power-boundary summation of a series literal")
    p.set_defaults(run=cmd_engine)
    common(p, series=True)

    p = sub.add_parser("symbol", help="print an operator's symbol series")
    p.set_defaults(run=cmd_symbol)
    p.add_argument("operator", help="identity | diff | shift:h | delta:h | symbol:[...]")
    p.add_argument("--output", "-o", choices=("text", "json"), default="text")
    p.add_argument("--order", default="12")

    p = sub.add_parser("check", help="run a named invariant suite")
    p.set_defaults(run=cmd_check)
    p.add_argument("suite", help="suite name (an unknown name lists them)")
    p.add_argument("--output", "-o", choices=("text", "json"), default="text")
    p.add_argument("--seed", type=int, default=2024)
    return parser


# ---------------------------------------------------------------------------
# Subcommand bodies


def cmd_sum(args: argparse.Namespace) -> int:
    from .operators import DEFAULT_SYMBOL_ORDER, op_shift, parse_operator
    from .regularize import reg_sum
    from .summation import LogValue, _sig12, parse_series

    _check_budget(args)
    poly = _literal(partial(parse_polynomial, max_degree=MAX_DEGREE), args.polynomial, "--poly")
    x = _literal(Fraction, args.x, "--x")
    order = max(DEFAULT_SYMBOL_ORDER, len(poly.nums) + 3)
    if args.operator is not None:
        if args.h is not None:
            raise CliError("--h: not used with --op; give the step in --op (shift:h or delta:h)")
        _check_step(args.operator, order, "--op")
        op = _literal(partial(parse_operator, order=order), args.operator, "--op")
    else:
        h = Fraction(1)
        if args.h is not None:
            h = _literal(Fraction, args.h, "--h")
            _check_step(args.h, order, "--h")
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
    closed = str(value) if isinstance(value, LogValue) else None
    shared = {
        "method": report.method_used.describe(),
        "order_used": report.order_used,
        "terms_used": report.terms_used,
        "provenance": report.provenance,
    }
    text = {"value_float": f"{report.value:.12g}" if math.isfinite(report.value) else None}
    if exact is not None:
        text["value_exact"] = exact
    if closed is not None:
        text["value_closed"] = closed
    text.update(shared, converged=str(report.converged).lower())
    return _emit(args, _field_lines(text), {
        "value_exact": exact,
        "value_closed": closed,
        "value_float": _sig12(report.value),
        **shared,
        "converged": report.converged,
        "residual": _sig12(report.residual),
    }, report.converged)


def cmd_euler(args: argparse.Namespace) -> int:
    from .power_series import euler_numbers

    if args.n_max < 0:
        raise CliError("n_max: must be a nonnegative integer")
    if args.n_max > MAX_EULER:
        raise CliError(f"n_max: {args.n_max} is above the cap {MAX_EULER}")
    table = euler_numbers(args.n_max)
    return _emit(args, [f"E_{k}: {v}" for k, v in enumerate(table)],
                 {"values": [str(v) for v in table]})


def cmd_engine(args: argparse.Namespace) -> int:
    """The cesaro and abel subcommands: one numeric engine on a series literal."""
    from .summation import SummationMethod, evaluate, parse_series

    _check_budget(args)
    series = _literal(parse_series, args.series, "--series")
    order = "auto"
    if args.subcommand == "cesaro" and args.order != "auto":
        order = _mean_order(args.order, "--k")
    method = SummationMethod(args.subcommand, order=order, n_max=args.n_max, tol=args.tol)
    report = evaluate(series, method)
    fields = report.to_json_dict()
    return _emit(args, _field_lines(fields), fields, report.converged)


def cmd_symbol(args: argparse.Namespace) -> int:
    from .operators import parse_operator

    order = _literal(int, args.order, "--order")
    if order < 0:
        raise CliError(f"--order: must be nonnegative, got {order}")
    if order > MAX_ORDER:
        raise CliError(f"--order: {order} is above the cap {MAX_ORDER}")
    _check_step(args.operator, order, "operator")
    # The literal is read first, so what fails after it is the order's
    # (diff needs t^1).
    _literal(parse_operator, args.operator, "operator")
    op = _literal(partial(parse_operator, args.operator), order, "--order")
    return _emit(args, [str(op.symbol)], {"coefficients": op.symbol.to_strings()})


def cmd_check(args: argparse.Namespace) -> int:
    from .checks import SUITES, run_suite

    if args.suite not in SUITES:
        # argparse's own wording, as if the names were the argument's choices
        choices = ", ".join(map(repr, SUITES))
        raise CliError(f"argument suite: invalid choice: {args.suite!r} (choose from {choices})")
    ok, messages = run_suite(args.suite, args.seed)
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
