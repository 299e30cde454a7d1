"""Exact rational scalars and dense univariate polynomials.

Scalars are ``fractions.Fraction`` throughout: always in lowest terms with a
positive denominator, and every arithmetic operation is exact.  ``Rational``
is re-exported here so the rest of the package has a single spelling.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Fraction

RationalLike = Union[Fraction, int, str]

NEG_INFINITY = float("-inf")


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, string like ``p/q``, or Fraction to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class ParseError(ValueError):
    """Malformed polynomial (or rational) text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# The integer Horner form of the last polynomial evaluated:
# (coeffs, A_d..A_0, L) with coeffs[i] = A_i / L.  It is keyed by the
# identity of the coeffs tuple and holds that tuple, so the id cannot be
# reused while the entry stands; it is replaced by one assignment, so a
# reader sees a whole entry.  One entry, not one per polynomial, keeps memory
# flat however many polynomials a caller holds.
_last_form: tuple = ((), (), 1)


class Polynomial:
    """Dense polynomial in one variable over exact rationals.

    Coefficients are stored by ascending power with trailing zeros trimmed.
    The zero polynomial has an empty coefficient list and degree -inf, so it
    never collides with degree-0 constants.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def constant(cls, c: RationalLike) -> "Polynomial":
        return cls((as_rational(c),))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def monomial(cls, power: int, coeff: RationalLike = 1) -> "Polynomial":
        if power < 0:
            raise ValueError("monomial power must be nonnegative")
        return cls([0] * power + [as_rational(coeff)])

    @property
    def degree(self) -> float:
        """Degree as an int, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, power: int) -> Fraction:
        """Coefficient of x**power (zero beyond the stored degree)."""
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def __call__(self, x: RationalLike) -> Fraction:
        """Evaluate exactly at a rational point by Horner's scheme on ints.

        With the coefficients written as A_i / L over their common
        denominator L and x = p/q, the value is
        (sum_i A_i p^i q^(d-i)) / (L q^d); one Fraction is built at the end.
        The A_i and L of the last polynomial evaluated are kept (see
        ``_last_form``), so evaluating one polynomial at many points builds
        them once.
        """
        global _last_form
        p, q = as_rational(x).as_integer_ratio()
        coeffs = self.coeffs
        if not coeffs:
            return Fraction(0)
        key, scaled, den = _last_form
        if key is not coeffs:
            pairs = [c.as_integer_ratio() for c in coeffs]
            den = math.lcm(*[d for _, d in pairs])
            scaled = tuple([a * (den // d) for a, d in reversed(pairs)])
            _last_form = (coeffs, scaled, den)
        terms = iter(scaled)
        acc = next(terms)
        q_power = 1
        for a in terms:
            q_power *= q
            acc = acc * p + a * q_power
        return Fraction(acc, den * q_power)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            a, b = self.coeffs, other.coeffs
            return Polynomial(_convolve(a, b, len(a) + len(b) - 1))
        c = as_rational(other)
        return Polynomial([c * a for a in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.constant(1)
        for _ in range(n):
            result = result * self
        return result

    def derivative(self) -> "Polynomial":
        """d/dx, exact; drops the degree by one for nonconstant input."""
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def translate(self, h: RationalLike) -> "Polynomial":
        """Return P(x+h) via the Taylor expansion sum_n h^n/n! P^(n)(x)."""
        h = as_rational(h)
        if h == 0:
            return self
        weights = [Fraction(1)]  # h^n / n!
        for n in range(1, len(self.coeffs)):
            weights.append(weights[-1] * h / n)
        return _derivative_sum(self, weights)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return format_polynomial(self)


def _convolve(a: Sequence[Fraction], b: Sequence[Fraction], size: int) -> list[Fraction]:
    """The first ``size`` coefficients of the product of the coefficient
    sequences a and b (ascending powers); zero entries are skipped."""
    out = [Fraction(0)] * size
    for i, x in enumerate(a[:size]):
        if x:
            for j, y in enumerate(b[:size - i]):
                if y:
                    out[i + j] += x * y
    return out


def _derivative_sum(p: Polynomial, weights: Iterable[Fraction]) -> Polynomial:
    """sum_n weights[n] P^(n), read until the derivatives of P vanish; a
    zero weight is skipped.  ``weights`` must reach deg P."""
    acc = Polynomial()
    term = p
    for w in weights:
        if term.is_zero:
            break
        if w != 0:
            acc = acc + w * term
        term = term.derivative()
    return acc


def falling_factorial_poly(k: int) -> Polynomial:
    """The degree-k polynomial x(x-1)...(x-k+1); the empty product 1 for k=0."""
    if k < 0:
        raise ValueError("falling factorial order must be nonnegative")
    result = Polynomial.constant(1)
    for i in range(k):
        result = result * Polynomial((-i, 1))
    return result


def binomial_poly(k: int) -> Polynomial:
    """Binomial-coefficient polynomial: the falling factorial divided by k!."""
    return falling_factorial_poly(k) * Fraction(1, math.factorial(k))


_TOKEN = re.compile(
    r"""(?P<rat>\d+/\d+)
      | (?P<int>\d+)
      | (?P<var>x)
      | (?P<op>[-+*^])
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


def parse_polynomial(text: str, max_degree: int | None = None) -> Polynomial:
    """Parse terms ``c``, ``c*x``, ``c*x^k``, ``x^k`` joined by +/-.

    Coefficients are integers or ``p/q``; whitespace is ignored; ``^`` is the
    only power notation and ``c*x`` the only implicit-free product form.
    A power above ``max_degree`` (None: no cap) is refused as it is read.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial", 0)
    coeffs: dict[int, Fraction] = {}
    i = 0
    n = len(tokens)

    def fail(message: str, index: int):
        pos = tokens[index][2] if index < n else len(text)
        raise ParseError(message, pos)

    first = True
    while i < n:
        sign = Fraction(1)
        kind, value, _ = tokens[i]
        if kind == "op" and value in "+-":
            if value == "-":
                sign = Fraction(-1)
            i += 1
        elif not first:
            fail("expected '+' or '-' between terms", i)
        first = False
        if i >= n:
            fail("dangling sign", i)

        kind, value, _ = tokens[i]
        coeff = Fraction(1)
        has_coeff = False
        if kind in ("rat", "int"):
            coeff = Fraction(value)
            has_coeff = True
            i += 1
            if i < n and tokens[i][:2] == ("op", "*"):
                i += 1
                if i >= n or tokens[i][0] != "var":
                    fail("expected 'x' after '*'", i)
            elif i < n and tokens[i][0] == "var":
                fail("missing '*' between coefficient and 'x'", i)

        power = 0
        if i < n and tokens[i][0] == "var":
            power = 1
            i += 1
            if i < n and tokens[i][:2] == ("op", "^"):
                i += 1
                if i >= n or tokens[i][0] != "int":
                    fail("expected integer exponent after '^'", i)
                power = int(tokens[i][1])
                if max_degree is not None and power > max_degree:
                    fail(f"degree {power} is above the cap {max_degree}", i)
                i += 1
        elif not has_coeff:
            fail("expected a coefficient or 'x'", i)

        coeffs[power] = coeffs.get(power, Fraction(0)) + sign * coeff

    out = [Fraction(0)] * (max(coeffs) + 1)
    for power, c in coeffs.items():
        out[power] = c
    return Polynomial(out)


def _decimal(n: int) -> str:
    """str(n) for an int of any size.  str() refuses ints longer than
    sys.get_int_max_str_digits() (4300 digits by default), so a longer one
    is split at a power of ten near half its digits."""
    try:
        return str(n)
    except ValueError:
        k = n.bit_length() * 3 // 20  # about half its decimal digits
        high, low = divmod(abs(n), 10 ** k)
        return ("-" if n < 0 else "") + _decimal(high) + _decimal(low).zfill(k)


def format_rational(q: Fraction) -> str:
    """Lowest-terms text: ``p/q``, or just ``p`` for integers, of any size."""
    if q.denominator == 1:
        return _decimal(q.numerator)
    return f"{_decimal(q.numerator)}/{_decimal(q.denominator)}"


def _terms_text(terms: Iterable[tuple[int, Fraction]], var: str) -> str:
    """The nonzero (power, c) terms, in the order given, as ``c*var^power``
    joined by `` + `` and `` - ``; a unit coefficient is left out.  "0" when
    every term is zero."""
    parts = []
    for power, c in terms:
        if c == 0:
            continue
        mag = abs(c)
        body = format_rational(mag)
        if power:
            v = var if power == 1 else f"{var}^{power}"
            body = v if mag == 1 else f"{body}*{v}"
        if parts:
            parts.append(" - " if c < 0 else " + ")
        elif c < 0:
            parts.append("-")
        parts.append(body)
    return "".join(parts) or "0"


def format_polynomial(p: Polynomial) -> str:
    """Canonical text form, descending powers; parses back to the same value."""
    return _terms_text(reversed(list(enumerate(p.coeffs))), "x")
