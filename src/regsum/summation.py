"""Numeric summation of (possibly divergent) series.

Three methods share one report shape: classical partial sums, iterated-mean
summation of integer order k (ratio of k+1-fold prefix sums to binom(n+k,k)),
and power-boundary summation (evaluate sum a_n t^n inside the unit interval,
extrapolate t -> 1).  Prefix sums are kept exact, as Python ints over one
common denominator of the terms, and converted to float only at the final
ratio, because the alternating cancellation these series live on makes float
accumulation untrustworthy.  This engine is the independent cross-check for
the exact closed forms elsewhere in the package.
"""

from __future__ import annotations

import decimal
import json
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .algebra import ParseError, RationalLike, _scale_to_ints, as_rational, format_rational
from .budgets import (
    DEFAULT_ORDER_CAP,
    DEFAULT_TERMS,
    DEFAULT_TOL,
    MAX_ORDER_CAP,
    MIN_TERMS,
    NotConvergedError,
)

# Per-point truncation so the dropped geometric tail is below e^-60.
ABEL_TAIL_EXPONENT = 60.0


def falling_factorial_value(n: int, k: int) -> int:
    """n(n-1)...(n-k+1) as an integer; 1 for k = 0, 0 once k > n >= 0."""
    out = 1
    for i in range(k):
        out *= n - i
    return out


@dataclass(frozen=True)
class SeriesSpec:
    """A series given by its coefficient sequence n -> a_n (exact rationals).

    ``exact_reg_deriv(k, c, method)`` optionally returns the closed-form value
    of sum_n a_n * [n]_k * c^(n-k) under the given method (a Fraction, or
    for k = 0 a ``LogValue``), or None when no closed form applies there;
    ``alt``, ``altlog`` and ``geom:r`` carry the one rule of
    ``_geometric_rule``, ``table:`` and custom series none.

    ``label`` names the series in messages and in ``regularized[...]``
    operator labels.  A ``series_custom`` keeps its terms a_0..a_DEFAULT_TERMS
    after the first read, so every engine over one such object reads them
    once.
    """

    term: Callable[[int], Fraction]
    label: str = "custom"
    exact_reg_deriv: Optional[
        Callable[[int, Fraction, "SummationMethod"], Union[Fraction, "LogValue", None]]
    ] = None

    def terms(self, count: int) -> list[Fraction]:
        return [self.term(n) for n in range(count)]


@dataclass(frozen=True)
class SummationMethod:
    """Which limit notion to use and its working budget.

    tag: "classical", "cesaro", "abel", or "exact" (closed forms only).
    order: iterated-mean order k for "cesaro", or "auto" to escalate; no
        other tag reads it.
    tol: positive and finite; every engine reads it from here.
    """

    tag: str = "cesaro"
    order: int | str = "auto"
    n_max: int = DEFAULT_TERMS
    tol: float = DEFAULT_TOL
    k_max: int = DEFAULT_ORDER_CAP

    def __post_init__(self):
        if self.tag not in ("classical", "cesaro", "abel", "exact"):
            raise ValueError(f"unknown summation method tag {self.tag!r}")
        if self.tag == "cesaro" and self.order != "auto":
            if not isinstance(self.order, int) or not 0 <= self.order <= MAX_ORDER_CAP:
                raise ValueError(
                    f"iterated-mean order must be an int in 0..{MAX_ORDER_CAP} or 'auto'")
        if not isinstance(self.k_max, int) or not 0 <= self.k_max <= MAX_ORDER_CAP:
            raise ValueError(f"order cap k_max must be an int in 0..{MAX_ORDER_CAP}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tol!r}")

    def describe(self) -> str:
        if self.tag == "cesaro":
            return f"cesaro:{self.order}"
        return self.tag


@dataclass(frozen=True)
class ConvergenceReport:
    value: float
    exact: Optional[Fraction]
    method_used: SummationMethod
    order_used: int
    terms_used: int
    converged: bool
    residual: float
    provenance: Optional[str] = None

    def to_json_dict(self) -> dict:
        """Plain-data form; floats rounded to 12 significant digits, and a
        non-finite value or residual as None (JSON null)."""
        out = {
            "value": _sig12(self.value),
            "exact": format_rational(self.exact) if self.exact is not None else None,
            "method": self.method_used.describe(),
            "order_used": self.order_used,
            "terms_used": self.terms_used,
            "converged": self.converged,
            "residual": _sig12(self.residual),
        }
        if self.provenance is not None:
            out["provenance"] = self.provenance
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), allow_nan=False)


def _sig12(x: float) -> Optional[float]:
    if not math.isfinite(x):
        return None
    return float(f"{x:.12g}")


@dataclass(frozen=True, slots=True, repr=False)
class LogValue:
    """The exact real a + b*log(q), with a, b and q > 0 rational: ``altlog``'s
    v_0 = log(1 + c), and a sum over it.  Immutable; equal when (a, b, q)
    are.  ``float()`` rounds it once: log q comes from ``decimal`` at a
    precision raised until a and b*log q cannot cancel."""

    a: Fraction
    b: Fraction
    q: Fraction

    def __post_init__(self):
        for name in self.__slots__:
            object.__setattr__(self, name, as_rational(getattr(self, name)))
        if self.q <= 0:
            raise ValueError(f"log argument must be positive, got {self.q}")

    def __repr__(self) -> str:
        return f"LogValue({self.a!r}, {self.b!r}, {self.q!r})"

    def __str__(self) -> str:
        sign = "-" if self.b < 0 else "+"
        return (f"{format_rational(self.a)} {sign} "
                f"{format_rational(abs(self.b))}*log({format_rational(self.q)})")

    def __float__(self) -> float:
        a, b, q = self.a, self.b, self.q
        if not b or q == 1:
            return _ratio(*a.as_integer_ratio())
        # log q loses the digits by which q is near 1 when q is rounded, and
        # the sum those by which a and b*log q cancel; 25 must remain.
        p, r = q.numerator, q.denominator
        near = max(0, r.bit_length() - abs(p - r).bit_length()) * 3 // 10
        prec = 40 + near
        while True:
            ctx = decimal.Context(prec=prec, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
            parts = [ctx.divide(a.numerator, a.denominator),
                     ctx.multiply(ctx.divide(b.numerator, b.denominator),
                                  ctx.ln(ctx.divide(p, r)))]
            total = ctx.add(*parts)
            lost = near + (max(x.adjusted() for x in parts if x) - total.adjusted()
                           if total else prec)
            if prec - lost >= 25:
                return float(total)
            prec = lost + 50


# ---------------------------------------------------------------------------
# Built-in series


def _geometric_rule(r: Fraction, lag: int = 0):
    """``exact_reg_deriv`` of a_n = r^n (lag 0), f = 1/(1 - rt), and of its
    integral r^(n-1)/n (lag 1), f = -log(1 - rt)/r: with z = rc and
    j = k - lag, v_k = f^(k)(c) = j! r^j / (1 - z)^(j+1), and the lag-1
    v_0 = -log(1 - z)/r, a ``LogValue`` (the rational 0 at z = 0).  The k-th
    derivative series has terms of size n^j z^n: it converges when |z| < 1;
    at z = -1 every method sums it for j < 0, and otherwise only the power
    boundary and the iterated means of order j + 1 or more (cesaro:auto
    whatever its numeric order cap); z = 1 and |z| > 1 have no closed form.
    With r = p/q and z = a/b (b > 0, not reduced), the checks on z compare
    ints and v_k is one Fraction, j! p^j b^(j+1) / (q^j (b - a)^(j+1))."""
    p, q = r.as_integer_ratio()

    def exact(k: int, c: Fraction, method: SummationMethod) -> Union[Fraction, LogValue, None]:
        cn, cd = c.as_integer_ratio()
        j, a, b = k - lag, p * cn, q * cd
        if a == b or abs(a) > b:
            return None
        if j < 0:
            return LogValue(0, -1 / r, Fraction(b - a, b)) if a else Fraction(0)
        if a == -b and (method.tag == "classical" or method.tag == "cesaro"
                        and method.order != "auto" and method.order <= j):
            return None
        return Fraction(math.factorial(j) * p ** j * b ** (j + 1), q ** j * (b - a) ** (j + 1))

    return exact


def series_alt() -> SeriesSpec:
    """a_n = (-1)^n, the alternating unit series: ``geom:-1`` by its own name."""
    return replace(series_geometric(-1), label="alt")


def series_alt_log() -> SeriesSpec:
    """a_0 = 0, a_n = (-1)^(n+1)/n: the log(1+t) coefficient sequence, the
    integral of ``alt``."""

    def term(n: int) -> Fraction:
        if n == 0:
            return Fraction(0)
        return Fraction(1 if n % 2 == 1 else -1, n)

    return SeriesSpec(term, "altlog", _geometric_rule(Fraction(-1), lag=1))


def series_geometric(ratio: RationalLike) -> SeriesSpec:
    """a_n = r^n for a rational ratio r.  Sequential access, as the
    engines scan, steps from the previous power instead of recomputing it."""
    r = as_rational(ratio)
    last = [0, Fraction(1)]  # the latest n and r^n

    def term(n: int) -> Fraction:
        m, value = last
        if n == m + 1:
            value = value * r
        elif n != m:
            value = r ** n
        last[:] = n, value
        return value

    return SeriesSpec(term, f"geom:{r}", _geometric_rule(r))


def series_table(values: Sequence[RationalLike]) -> SeriesSpec:
    """Finite coefficient list; zero beyond its length."""
    vals = tuple(as_rational(v) for v in values)

    def term(n: int) -> Fraction:
        return vals[n] if 0 <= n < len(vals) else Fraction(0)

    return SeriesSpec(term, f"table[{len(vals)}]")


def series_custom(term: Callable[[int], Fraction], label: str = "custom") -> SeriesSpec:
    """A series of the caller's terms.  a_0..a_DEFAULT_TERMS (every engine's
    default budget) are computed once, in order, and kept while the series
    lives, so all its readers share them; later terms are computed per read."""
    return SeriesSpec(_memoized(term, DEFAULT_TERMS + 1), label)


def parse_series(text: str) -> SeriesSpec:
    """Parse a series literal: alt | altlog | geom:p/q | table:@file.json."""
    text = text.strip()
    if text == "alt":
        return series_alt()
    if text == "altlog":
        return series_alt_log()
    if text.startswith("geom:"):
        body = text[5:].strip()
        try:
            return series_geometric(Fraction(body))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad ratio {body!r} in series literal: {exc}", 5) from None
    if text.startswith("table:@"):
        path = text[7:].strip()
        if not path:
            raise ParseError("table literal needs a file path after '@'", 7)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ParseError(f"cannot read table file {path!r}: {exc}", 7) from None
        except json.JSONDecodeError as exc:
            raise ParseError(f"table file {path!r} is not valid JSON: {exc}", 7) from None
        if not isinstance(data, list):
            raise ParseError(f"table file {path!r} must hold a JSON array", 7)
        try:
            values = [Fraction(str(v)) for v in data]
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad entry in table file {path!r}: {exc}", 7) from None
        return series_table(values)
    raise ParseError(f"unknown series literal {text!r}", 0)


# ---------------------------------------------------------------------------
# Sequence combinators


def _exact_term(t: Fraction) -> Fraction:
    """t, refused with TypeError unless an int or a Fraction: every engine
    and closed-form reader of series terms checks them here.  Floats have
    as_integer_ratio too, so the type is what is checked."""
    if not isinstance(t, (int, Fraction)):
        raise TypeError(f"series term {t!r} is not an exact rational")
    return t


def _memoized(term: Callable[[int], Fraction], bound: float) -> Callable[[int], Fraction]:
    """term, read in order and kept for n < bound; later n are not kept."""
    cache: list[Fraction] = []

    def cached(n: int) -> Fraction:
        if n < 0:
            raise IndexError("series index must be nonnegative")
        if n >= bound:
            return term(n)
        while len(cache) <= n:
            cache.append(term(len(cache)))
        return cache[n]

    return cached


def partial_sums(a: SeriesSpec) -> SeriesSpec:
    """The running-total sequence of a, exact, memoized; reads each a_n once."""

    def total(n: int) -> Fraction:
        # _memoized fills in order, so sums(n - 1) is already kept
        return (sums(n - 1) if n else Fraction(0)) + _exact_term(a.term(n))

    sums = _memoized(total, math.inf)
    return SeriesSpec(sums, f"sums({a.label})")


def cauchy_product(a: SeriesSpec, b: SeriesSpec) -> SeriesSpec:
    """Coefficientwise product series: c_n = sum_i a_(n-i) b_i, exact.

    The convolution runs on each factor's numerators over its running
    common denominator, so an output term costs n + 1 int products and one
    Fraction.  The triangle is quadratic in the number of terms; the
    returned series is a ``series_custom``, which keeps its first terms, so
    repeated evaluations of one product at increasing depth pay it once.

    A product retains its terms and both factors' numerators.  When term
    sizes grow at most linearly in n, as for the built-in series, that is
    at most quadratic in the terms read: ``altlog`` x ``alt`` retains
    0.18 MB through n = 500 and 6.8 MB through n = 4000.
    """
    ta, tb = _IntTerms(a.term), _IntTerms(b.term)

    def term(n: int) -> Fraction:
        na, nb = ta.upto(n), tb.upto(n)
        return Fraction(sum(map(operator.mul, na[n::-1], nb)), ta.den * tb.den)

    return series_custom(term, label=f"product({a.label},{b.label})")


class _IntTerms:
    """A series' terms read so far, as ints over their least common
    denominator ``den``; the list is rescaled whenever a new term's
    denominator does not divide it."""

    def __init__(self, term: Callable[[int], Fraction]):
        self.term = term
        self.nums: list[int] = []
        self.den = 1

    def upto(self, n: int) -> list[int]:
        """The numerators, read through term n at least."""
        nums = self.nums
        while len(nums) <= n:
            t = _exact_term(self.term(len(nums)))
            d = t.denominator
            if self.den % d:
                grow = d // math.gcd(self.den, d)
                nums[:] = [v * grow for v in nums]
                self.den *= grow
            nums.append(t.numerator * (self.den // d))
        return nums


# ---------------------------------------------------------------------------
# Iterated-mean (Cesaro-type) engine


def _scaled_terms(a: SeriesSpec, count: int) -> tuple[list[int], int]:
    """The first ``count`` terms as ints over their least common denominator
    D: returns (numerators, D) with a_n = numerators[n] / D exactly.  The
    term list is converted in place, so its Fractions are dropped as they
    are read."""
    terms = a.terms(count)
    for t in terms:
        _exact_term(t)
    return terms, _scale_to_ints(terms)


def _ratio(num: int, den: int) -> float:
    """num/den (den > 0) correctly rounded; +-inf when it overflows a float."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _checkpoint_report(
    sums: list[int], den: int, k: int, method: SummationMethod
) -> ConvergenceReport:
    # sums[n] / den is the exact (k+1)-fold prefix sum at n.
    # Alternating series one mean short of their summability order produce
    # ratio estimates with a non-decaying even/odd oscillation; checkpoints
    # at N/4, N/2, N can all share a parity, so the neighbor estimate at N-1
    # joins the gap test to rule that false agreement out.  An estimate too
    # large for a float is infinite and makes the residual infinite.
    n_last = len(sums) - 1
    points = sorted({max(1, n_last // 4), max(1, n_last // 2), n_last})
    estimates = [_ratio(sums[n], den * math.comb(n + k, k)) for n in points]
    neighbor = _ratio(sums[n_last - 1], den * math.comb(n_last - 1 + k, k))
    if math.isfinite(neighbor) and all(map(math.isfinite, estimates)):
        gaps = [abs(b - a) for a, b in zip(estimates, estimates[1:])]
        gaps.append(abs(estimates[-1] - neighbor))
        residual = max(gaps)
    else:
        residual = math.inf
    return ConvergenceReport(
        value=estimates[-1],
        exact=None,
        method_used=method,
        order_used=k,
        terms_used=n_last + 1,
        converged=residual <= method.tol,
        residual=residual,
    )


def _mean_orders(method: SummationMethod) -> tuple[range, int]:
    """The iterated-mean orders a classical or Cesaro method runs, and the
    order cap its reports carry: classical is order 0 and cesaro:k is order
    k, both under the default cap; cesaro:auto escalates through 0..k_max."""
    if method.tag == "classical":
        return range(1), DEFAULT_ORDER_CAP
    if method.order == "auto":
        return range(method.k_max + 1), method.k_max
    return range(method.order, method.order + 1), DEFAULT_ORDER_CAP


def _prefix_pass(values: list) -> None:
    # In place: a second list of (possibly long) ints would double the peak.
    acc = 0
    for i, v in enumerate(values):
        acc += v
        values[i] = acc


def _iterated_means(sums: list[int], den: int, method: SummationMethod) -> ConvergenceReport:
    """The iterated-mean engine on the scaled terms sums[n] / den, n = 0..n_max:
    the means of the method's orders, with every prefix pass run in place.
    Returns the first converged report, or else the one with the smallest
    residual."""
    orders, cap = _mean_orders(method)
    if method.n_max < MIN_TERMS:
        raise ValueError(f"need at least {MIN_TERMS} terms for the checkpoint scheme")
    for _ in range(orders.start):
        _prefix_pass(sums)
    best: ConvergenceReport | None = None
    for k in orders:
        _prefix_pass(sums)
        used = SummationMethod("cesaro", order=k, n_max=method.n_max, tol=method.tol, k_max=cap)
        report = _checkpoint_report(sums, den, k, used)
        if report.converged:
            return report
        if best is None or report.residual < best.residual:
            best = report
    return best


def cesaro_limit(a: SeriesSpec, k: int, N: int = DEFAULT_TERMS, tol: float = DEFAULT_TOL) -> ConvergenceReport:
    """Order-k iterated-mean sum of the series: lim of the (k+1)-fold prefix
    sum at n divided by binom(n+k, k).

    Prefix sums are exact ints over the terms' common denominator; estimates
    are compared at the n = N/4, N/2, N checkpoints and the run counts as
    converged when successive estimates agree within tol.  Budget exhaustion
    is reported as converged=False, never raised; so is an estimate beyond
    float range, which gets an infinite residual.  Terms must be ints or
    Fractions (TypeError otherwise).
    """
    return evaluate(a, SummationMethod("cesaro", order=k, n_max=N, tol=tol))


def cesaro_auto(
    a: SeriesSpec,
    k_max: int = DEFAULT_ORDER_CAP,
    N: int = DEFAULT_TERMS,
    tol: float = DEFAULT_TOL,
) -> ConvergenceReport:
    """Escalate the iterated-mean order 0..k_max, return the first converged
    report; when none converge, the attempt with the smallest residual is
    returned with converged=False.

    Each escalation adds one more prefix pass to the same array, so the whole
    scan costs the same as a single run at k_max.
    """
    return evaluate(a, SummationMethod("cesaro", order="auto", n_max=N, tol=tol, k_max=k_max))


# ---------------------------------------------------------------------------
# Power-boundary (Abel-type) engine


def default_abel_schedule() -> list[float]:
    """Half-octave points t = 1 - 2^(-j/2), j = 6..28, from 0.875 to
    1 - 2^-14: with ``default_abel_budget`` they read 481, 680, 961, 1359,
    1921, 2717, 3841, ... terms.  Half steps give the sliding quadratic
    extrapolant several estimates before the float-noise guard ends a scan,
    which on degree-6 terms it can do by about 2,000 terms."""
    return [1.0 - 2.0 ** (-j / 2) for j in range(6, 29)]


def default_abel_budget(t: float) -> int:
    return math.ceil(ABEL_TAIL_EXPONENT / (1.0 - t))


def _quadratic_at_zero(hs: Sequence[float], ys: Sequence[float]) -> float:
    (h0, h1, h2), (y0, y1, y2) = hs, ys
    l0 = (h1 * h2) / ((h0 - h1) * (h0 - h2))
    l1 = (h0 * h2) / ((h1 - h0) * (h1 - h2))
    l2 = (h0 * h1) / ((h2 - h0) * (h2 - h1))
    return y0 * l0 + y1 * l1 + y2 * l2


def abel_limit(
    a: SeriesSpec,
    schedule: Sequence[float] | None = None,
    term_budget_per_point: Callable[[float], int] | None = None,
    tol: float = DEFAULT_TOL,
    max_terms: int | None = None,
) -> ConvergenceReport:
    """Sum by the power-boundary method: evaluate g(t) = sum a_n t^n at an
    increasing schedule of t in (0,1) and extrapolate to t = 1.  The default
    schedule is ``default_abel_schedule``'s half-octave points, each summed
    to ``default_abel_budget`` terms: 481, 680, 961, ..., 983,041.

    Extrapolation is quadratic in h = 1 - t over a sliding window of three
    points.  Three guards end the scan early: agreement of successive
    extrapolants well inside tol, a non-finite point sum or an estimate of
    float cancellation noise (machine epsilon times sum |a_n| t^n) crossing
    tol/10, beyond which deeper points only add noise, and a point that
    would read terms past index ``max_terms`` (None: no bound).  Each a_n is
    read as its correctly rounded float, infinite beyond the float range;
    terms must be ints or Fractions (TypeError otherwise).
    Fewer than three points give no extrapolant, which is reported as not
    converged.
    """
    term = a.term
    return _abel_scan(lambda n: _ratio(*_exact_term(term(n)).as_integer_ratio()),
                      tol, max_terms, schedule, term_budget_per_point)


def _abel_scan(
    value: Callable[[int], float],
    tol: float,
    max_terms: int | None,
    schedule: Sequence[float] | None = None,
    term_budget_per_point: Callable[[float], int] | None = None,
) -> ConvergenceReport:
    """The power-boundary engine of ``abel_limit`` on the floats value(n)."""
    schedule = list(default_abel_schedule() if schedule is None else schedule)
    if not schedule:
        raise ValueError("empty evaluation schedule")
    if any(not (0.0 < t < 1.0) for t in schedule):
        raise ValueError("schedule points must lie strictly inside (0,1)")
    if any(b <= a_ for a_, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must increase strictly toward 1")
    budget = term_budget_per_point or default_abel_budget
    method = SummationMethod("abel", tol=tol)

    eps = math.ulp(1.0)
    fvals: list[float] = []
    hs: list[float] = []
    gs: list[float] = []
    extrapolants: list[float] = []
    residual = math.inf
    terms_used = 0

    for t in schedule:
        n_terms = max(4, budget(t))
        if max_terms is not None and n_terms > max_terms:
            break
        fvals.extend(map(value, range(len(fvals), n_terms + 1)))
        total = 0.0
        magnitude = 0.0
        tn = 1.0
        for n in range(n_terms + 1):
            term = fvals[n] * tn
            total += term
            magnitude += abs(term)
            tn *= t
        noise = magnitude * eps
        if not math.isfinite(total) or noise > tol / 10.0:
            break
        terms_used = max(terms_used, n_terms + 1)
        hs.append(1.0 - t)
        gs.append(total)
        if len(gs) >= 3:
            ext = _quadratic_at_zero(hs[-3:], gs[-3:])
            if extrapolants:
                residual = abs(ext - extrapolants[-1])
            extrapolants.append(ext)
            if residual <= tol * 0.05:
                break

    if extrapolants:
        value = extrapolants[-1]
    elif gs:
        value = gs[-1]
    else:
        value = math.nan
    converged = bool(extrapolants) and residual <= tol
    return ConvergenceReport(
        value=value,
        exact=None,
        method_used=method,
        order_used=2,
        terms_used=terms_used,
        converged=converged,
        residual=residual,
    )


# ---------------------------------------------------------------------------
# Dispatch and consistency checks


def evaluate(a: SeriesSpec, method: SummationMethod) -> ConvergenceReport:
    """Run the numeric method the tag names, within its term budget n_max:
    the power boundary, or the iterated means of ``_mean_orders`` on the
    first n_max + 1 terms."""
    if method.tag == "abel":
        return abel_limit(a, tol=method.tol, max_terms=method.n_max)
    if method.tag == "exact":
        raise ValueError(f"method {method.tag!r} has no numeric engine")
    return _iterated_means(*_scaled_terms(a, method.n_max + 1), method)


def _block_limit(nums: list[int], den: int, method: SummationMethod) -> ConvergenceReport:
    """``evaluate`` on the series nums[n] / den, n = 0..n_max, read from the
    block itself: the iterated means run their prefix passes in it, and the
    power boundary reads its correctly rounded ratios."""
    if method.tag == "abel":
        return _abel_scan(lambda n: _ratio(nums[n], den), method.tol, method.n_max)
    return _iterated_means(nums, den, method)


def shift_check(a: SeriesSpec, method: SummationMethod) -> tuple[float, float]:
    """Evaluate both sides of: sum over n>=0 equals a_0 plus the sum of the
    sequence shifted by one.  Raises NotConvergedError when either side's
    numeric limit fails, so disagreement is never silently averaged away.
    """
    left = evaluate(a, method)
    if not left.converged:
        raise NotConvergedError(f"left side did not converge under {method.describe()}", left)
    shifted = SeriesSpec(lambda n: a.term(n + 1), f"shift({a.label})")
    right = evaluate(shifted, method)
    if not right.converged:
        raise NotConvergedError(f"shifted side did not converge under {method.describe()}", right)
    return left.value, float(a.term(0)) + right.value
