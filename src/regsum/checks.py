"""The invariant suites of `regsum check`, one row of `SUITES` each: a
driver, the cases it runs and their tolerance (0: exact equality).  Only
the `check` subcommand imports this module, so no other command compiles it.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import Polynomial, format_polynomial
from .operators import OperatorSpec, op_shift
from .power_series import PowerSeries
from .regularize import (
    NotRegularError,
    _reduced_values,
    euler_alt_sum,
    product_rule_check,
    reg_operator,
    reg_sum,
)
from .summation import (
    NotConvergedError,
    SummationMethod,
    cesaro_auto,
    series_alt,
    series_custom,
    shift_check,
)

_ALT = series_alt()
_EXACT = SummationMethod("exact")


def _random_poly(rng: random.Random, max_deg: int) -> Polynomial:
    deg = rng.randint(0, max_deg)
    return Polynomial([
        Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(deg + 1)
    ])


def _random_h(rng: random.Random) -> Fraction:
    num = rng.randint(-8, 8) or 3
    return Fraction(num, rng.randint(1, 4))


def _random_symbol(rng: random.Random) -> PowerSeries:
    return PowerSeries([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(12)])


def _functional_equation(rng: random.Random, _tol):
    """S(x+h) + S(x) = P, for S the exact regularized sum of (-1)^n P(x+nh)."""
    p, h = _random_poly(rng, 8), _random_h(rng)
    deg = max(len(p.nums) - 1, 0)
    s = reg_operator(_ALT, op_shift(h, order=deg + 6), _EXACT, deg + 2).apply(p)
    residue = s.translate(h) + s - p
    if not residue.is_zero:
        yield f"residue {format_polynomial(residue)}"


def _operator_ring(rng: random.Random, _tol):
    """The ring laws of symbols, exactly, on random P, f, g and h."""
    p, f, g, h = _random_poly(rng, 8), _random_symbol(rng), _random_symbol(rng), _random_h(rng)
    sf = OperatorSpec(f)
    _, rem = sf.remainder()
    power = p
    for _ in range(len(p.nums)):
        power = rem.apply(power)
    laws = {
        "composition mismatch": OperatorSpec(f * g).apply(p) == sf.apply(OperatorSpec(g).apply(p)),
        "translation invariance mismatch": sf.apply(p.translate(h)) == sf.apply(p).translate(h),
        "derivative commutation mismatch": sf.apply(p.derivative()) == sf.apply(p).derivative(),
        "remainder not nilpotent": power.is_zero,
    }
    yield from (failure for failure, holds in laws.items() if not holds)


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
    applied = _reduced_values(op_shift(h, order=len(p.nums) - 1), p, xv)
    magnitude = sum(abs(v) / 2 ** (k + 1) for k, v in enumerate(applied))
    return p * Fraction(1, 1 + magnitude.numerator // magnitude.denominator)


def _three_way(rng: random.Random, tol: float):
    """Reduction = zigzag table exactly; the iterated means of (-1)^n P(x+nh),
    on acceptance criterion 3's budget, reach it within tol."""
    p, h = _random_poly(rng, 4), _random_h(rng)
    xv = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    p = _normalized_alt_instance(p, h, xv)
    a, _ = reg_sum(_ALT, op_shift(h, order=12), p, xv, _EXACT)
    exact_eq = a == euler_alt_sum(p, h, xv)
    signed = series_custom(lambda n: Fraction(-1) ** n * p(xv + n * h), "alt-shifted")
    rep = cesaro_auto(signed, k_max=8, N=8000)
    if not (exact_eq and rep.converged and abs(rep.value - float(a)) <= tol):
        yield (f"exact_eq={exact_eq} numeric={rep.value} "
               f"target={float(a)} converged={rep.converged}")


def _trials(name, cases, tol, rng, say) -> bool:
    """Log each broken law of `count` random instances, then a summary."""
    count, drawn, case = cases
    ok = True
    for trial in range(count):
        for failure in case(rng, tol):
            say(f"{name} trial {trial}: {failure}")
            ok = False
    say(f"{name}: {count} random {drawn} {'pass' if ok else 'FAIL'}")
    return ok


def _agreement(name, cases, tol, rng, say) -> bool:
    """Log both sides of each case; a side that did not settle fails it."""
    ok = True
    for label, sides in cases:
        try:
            lhs, rhs = sides()
        except (NotConvergedError, NotRegularError) as exc:
            say(f"{name} {label}: {exc}")
            ok = False
            continue
        good = abs(lhs - rhs) <= tol
        say(f"{name} {label}: lhs={lhs:.12g} rhs={rhs:.12g} {'pass' if good else 'FAIL'}")
        ok = ok and good
    return ok


# name -> (driver, cases, tolerance); the names in this order are the
# choices of `regsum check`.
SUITES = {
    "functional-equation": (_trials, (30, "(P,h)", _functional_equation), 0),
    "product-rule": (_agreement, [
        (f"n={n}", lambda n=n: product_rule_check(
            _ALT, _ALT, n, SummationMethod("cesaro", order="auto", n_max=2000, k_max=10)))
        for n in (0, 1)
    ], 2e-3),
    "shift-invariance": (_agreement, [
        ("alt", lambda: shift_check(_ALT, SummationMethod("cesaro", order=1))),
        ("alt-weighted", lambda: shift_check(
            series_custom(lambda n: Fraction((-1) ** n * (n + 1)), "alt-weighted"),
            SummationMethod("cesaro", order=2))),
    ], 1e-3),
    "operator-ring": (_trials, (30, "instances x 4 laws", _operator_ring), 0),
    "three-way": (_trials, (10, "(P,h,x)", _three_way), 1e-3),
}


def run_suite(name: str, seed: int) -> tuple[bool, list[str]]:
    """Run one suite from its seed; return whether it passed and its log."""
    driver, cases, tol = SUITES[name]
    log: list[str] = []
    ok = driver(name, cases, tol, random.Random(seed), log.append)
    return ok, log
