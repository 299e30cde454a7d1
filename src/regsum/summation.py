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

import json
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence

from .algebra import ParseError, RationalLike, as_rational

DEFAULT_TERMS = 4000
DEFAULT_TOL = 1e-3
DEFAULT_ORDER_CAP = 8
MAX_ORDER_CAP = 12

# Per-point truncation so the dropped geometric tail is below e^-60.
ABEL_TAIL_EXPONENT = 60.0


class NotConvergedError(RuntimeError):
    """A required numeric limit did not settle within its budget."""

    def __init__(self, message: str, report: "ConvergenceReport | None" = None):
        super().__init__(message)
        self.report = report


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
    of sum_n a_n * [n]_k * c^(n-k) under the given method, or None when no
    closed form applies there; ``alt``, ``altlog`` and ``geom:r`` carry the
    one rule of ``_geometric_rule``, ``table:`` and custom series none.

    ``term`` must be a pure function of n: ``reg_derivatives`` works out each
    numeric v_k once per (series, c, method) and keeps it, in at most 64
    tables, so a series whose terms change later gets the earlier answer.
    A ``series_custom`` also keeps its terms a_0..a_DEFAULT_TERMS after the
    first read, so every engine over one such object reads them once.
    """

    term: Callable[[int], Fraction]
    kind: str = "custom"
    label: str = ""
    exact_reg_deriv: Optional[
        Callable[[int, Fraction, "SummationMethod"], Optional[Fraction]]
    ] = None

    def terms(self, count: int) -> list[Fraction]:
        return [self.term(n) for n in range(count)]


@dataclass(frozen=True)
class SummationMethod:
    """Which limit notion to use and its working budget.

    tag: "classical", "cesaro", "abel", or "exact" (closed forms only).
    order: iterated-mean order k for "cesaro", or "auto" to escalate.
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
            if not isinstance(self.order, int) or self.order < 0:
                raise ValueError("iterated-mean order must be a nonnegative int or 'auto'")
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
            "exact": str(self.exact) if self.exact is not None else None,
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


# ---------------------------------------------------------------------------
# Built-in series


def _geometric_rule(r: Fraction, lag: int = 0):
    """``exact_reg_deriv`` of a_n = r^n (lag 0), f = 1/(1 - rt), and of its
    integral r^(n-1)/n (lag 1): with z = rc and j = k - lag, v_k = f^(k)(c)
    = j! r^j / (1 - z)^(j+1).  The k-th derivative series has terms of size
    n^j z^n: it converges when |z| < 1; at z = -1 only the power boundary
    and the iterated means of order j + 1 or more (cesaro:auto whatever its
    numeric order cap) sum it; j < 0, z = 1 and |z| > 1 have no closed form."""

    def exact(k: int, c: Fraction, method: SummationMethod) -> Optional[Fraction]:
        j, z = k - lag, r * c
        if j < 0 or z == 1 or abs(z) > 1:
            return None
        if z == -1 and (method.tag == "classical" or method.tag == "cesaro"
                        and method.order != "auto" and method.order <= j):
            return None
        return math.factorial(j) * r ** j / (1 - z) ** (j + 1)

    return exact


def series_alt() -> SeriesSpec:
    """a_n = (-1)^n, the alternating unit series: ``geom:-1`` by its own name."""
    return replace(series_geometric(-1), kind="alt_geometric", label="alt")


def series_alt_log() -> SeriesSpec:
    """a_0 = 0, a_n = (-1)^(n+1)/n: the log(1+t) coefficient sequence, the
    integral of ``alt``."""

    def term(n: int) -> Fraction:
        if n == 0:
            return Fraction(0)
        return Fraction(1 if n % 2 == 1 else -1, n)

    return SeriesSpec(term, kind="alt_log", label="altlog",
                      exact_reg_deriv=_geometric_rule(Fraction(-1), lag=1))


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

    return SeriesSpec(term, kind="geometric", label=f"geom:{r}",
                      exact_reg_deriv=_geometric_rule(r))


def series_table(values: Sequence[RationalLike]) -> SeriesSpec:
    """Finite coefficient list; zero beyond its length."""
    vals = tuple(as_rational(v) for v in values)

    def term(n: int) -> Fraction:
        return vals[n] if 0 <= n < len(vals) else Fraction(0)

    return SeriesSpec(term, kind="table", label=f"table[{len(vals)}]")


def series_custom(term: Callable[[int], Fraction], label: str = "custom") -> SeriesSpec:
    """A series of the caller's terms.  a_0..a_DEFAULT_TERMS (every engine's
    default budget) are computed once, in order, and kept while the series
    lives, so all its readers share them; later terms are computed per read."""
    return SeriesSpec(_memoized(term, DEFAULT_TERMS + 1), kind="custom", label=label)


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


def _memoized(term: Callable[[int], Fraction], bound: int) -> Callable[[int], Fraction]:
    """term, keeping its values for n < bound; later n are not kept."""
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
    sums: list[Fraction] = []

    def term(n: int) -> Fraction:
        if n < 0:
            raise IndexError("series index must be nonnegative")
        while len(sums) <= n:
            i = len(sums)
            prev = sums[-1] if sums else Fraction(0)
            sums.append(prev + a.term(i))
        return sums[n]

    return SeriesSpec(term, kind="custom", label=f"sums({a.label})")


@lru_cache(maxsize=4)
def cauchy_product(a: SeriesSpec, b: SeriesSpec) -> SeriesSpec:
    """Coefficientwise product series: c_n = sum_i a_(n-i) b_i, exact.

    The convolution runs on each factor's numerators over its running
    common denominator, so an output term costs n + 1 int products and one
    Fraction.  The triangle is still quadratic in the number of terms, so
    results are cached per input pair and the returned series is a
    ``series_custom``, which keeps its first terms; repeated evaluations at
    increasing depth pay the triangle once.

    The cache keeps the last 4 pairs.  An entry retains the product's terms
    and both factors' numerators.  When term sizes grow at most linearly in
    n, as for the built-in series, that is at most quadratic in the terms
    read: ``altlog`` x ``alt`` retains 0.18 MB through n = 500 and 6.8 MB
    through n = 4000.  For factors of that size a full cache holds under
    48 MB (4 x (4000/500)^2 x 0.18 MB); factors with longer terms retain more.
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
            t = self.term(len(nums))
            if not isinstance(t, (int, Fraction)):
                raise TypeError(f"series term {t!r} is not an exact rational")
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
    are read; each term's ratio is read once."""
    terms = a.terms(count)
    dens = [1] * count
    for i, t in enumerate(terms):
        # Floats have as_integer_ratio too, so the type is checked first.
        if not isinstance(t, (int, Fraction)):
            raise TypeError(f"series term {t!r} is not an exact rational")
        terms[i], dens[i] = t.as_integer_ratio()
    # Distinct denominators in term order: successive lcm steps then mostly
    # meet a multiple of the running lcm, which keeps each gcd cheap.
    den = math.lcm(*dict.fromkeys(dens))
    # Scale factors den // d, walked backwards: when d divides the following
    # term's denominator (as in geometric-like sequences) the factor follows
    # from that term's by a small multiplication instead of a long division.
    # Each denominator is popped as its numerator grows, so the two lists
    # never peak together.
    factor, following = 1, den
    for i in range(count - 1, -1, -1):
        d = dens.pop()
        if d != following:
            quotient, rest = divmod(following, d)
            factor = factor * quotient if rest == 0 else den // d
            following = d
        terms[i] *= factor
    return terms, den


def _prefix_pass(values: list[int]) -> None:
    # In place: a second list of (possibly long) ints would double the peak.
    acc = 0
    for i, v in enumerate(values):
        acc += v
        values[i] = acc


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


def _iterated_means(sums: list[int], den: int, method: SummationMethod) -> ConvergenceReport:
    """The iterated-mean engine on the scaled terms sums[n] / den, n = 0..n_max:
    the means of the method's orders, with every prefix pass run in place.
    Returns the first converged report, or else the one with the smallest
    residual."""
    orders, cap = _mean_orders(method)
    if method.n_max < 16:
        raise ValueError("need at least 16 terms for the checkpoint scheme")
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
    return [1.0 - 2.0 ** (-j) for j in range(3, 15)]


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
    increasing schedule of t in (0,1) and extrapolate to t = 1.

    Extrapolation is quadratic in h = 1 - t over a sliding window of three
    points.  Three guards end the scan early: agreement of successive
    extrapolants well inside tol, a non-finite point sum or an estimate of
    float cancellation noise (machine epsilon times sum |a_n| t^n) crossing
    tol/10, beyond which deeper points only add noise, and a point that
    would read terms past index ``max_terms`` (None: no bound).  Each a_n is
    read as its correctly rounded float, infinite beyond the float range.
    Fewer than three points give no extrapolant, which is reported as not
    converged.
    """
    return _abel_scan(lambda n: _ratio(*a.term(n).as_integer_ratio()), tol, max_terms,
                      schedule, term_budget_per_point)


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
    method = SummationMethod("abel", order=2, tol=tol)

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
        while len(fvals) < n_terms + 1:
            fvals.append(value(len(fvals)))
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
    shifted = SeriesSpec(lambda n: a.term(n + 1), kind="custom", label=f"shift({a.label})")
    right = evaluate(shifted, method)
    if not right.converged:
        raise NotConvergedError(f"shifted side did not converge under {method.describe()}", right)
    return left.value, float(a.term(0)) + right.value
