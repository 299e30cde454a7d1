"""Exact rational scalars and dense univariate polynomials.

Scalars are ``fractions.Fraction`` throughout: always in lowest terms with a
positive denominator, and every arithmetic operation is exact.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence, Union

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


class _Frozen:
    """Base of the exact value types: each field is set once, with
    ``object.__setattr__`` while the value is built, and can then be
    neither assigned nor deleted, so a hash read from the fields holds."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):  # copy and pickle restore the slots here
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class Polynomial(_Frozen):
    """Dense polynomial in one variable over exact rationals, stored as int
    numerators ``nums`` (ascending powers, trailing zeros trimmed) over one
    denominator ``den`` > 0 with gcd(den, *nums) == 1, so equal polynomials
    have equal stored forms.  Arithmetic runs on these ints and reduces each
    result once.  The zero polynomial has no numerators and degree -inf."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        nums = [as_rational(c) for c in coeffs]
        self._store(nums, _scale_to_ints(nums))

    def _store(self, nums: list[int], den: int) -> "Polynomial":
        """Set the form sum_i nums[i]/den x^i (den > 0), trimmed and reduced."""
        while nums and not nums[-1]:
            nums.pop()
        g = math.gcd(den, *nums)
        object.__setattr__(self, "nums", tuple([n // g for n in nums]))
        object.__setattr__(self, "den", den // g)
        return self

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as lowest-terms Fractions, built on each read."""
        den = self.den
        return tuple([Fraction(n, den) for n in self.nums])

    @property
    def degree(self) -> float:
        """Degree as an int, or -inf for the zero polynomial."""
        return len(self.nums) - 1 if self.nums else NEG_INFINITY

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def coeff(self, power: int) -> Fraction:
        """Coefficient of x**power (zero beyond the stored degree)."""
        if 0 <= power < len(self.nums):
            return Fraction(self.nums[power], self.den)
        return Fraction(0)

    def __call__(self, x: RationalLike) -> Fraction:
        """Exact value at x = p/q by Horner's scheme on ints:
        (sum_i nums[i] p^i q^(d-i)) / (den q^d), one Fraction at the end."""
        p, q = as_rational(x).as_integer_ratio()
        if not self.nums:
            return Fraction(0)
        terms = reversed(self.nums)
        acc = next(terms)
        q_power = 1
        for a in terms:
            q_power *= q
            acc = acc * p + a * q_power
        return Fraction(acc, self.den * q_power)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.nums == other.nums and self.den == other.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        g = math.gcd(self.den, other.den)
        a, sa, b, sb = self.nums, other.den // g, other.nums, self.den // g
        den = self.den * sa
        if len(a) < len(b):
            a, sa, b, sb = b, sb, a, sa
        out = [n * sa for n in a]
        for i, n in enumerate(b):
            out[i] += n * sb
        return _poly(out, den)

    def __neg__(self) -> "Polynomial":
        return _poly([-n for n in self.nums], self.den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        a = self.nums
        if isinstance(other, Polynomial):
            b = other.nums
            return _poly(_convolve(a, b, len(a) + len(b) - 1), self.den * other.den)
        n, d = as_rational(other).as_integer_ratio()
        return _poly([n * c for c in a], self.den * d)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        return _power(self, Polynomial([1]), n)

    def derivative(self) -> "Polynomial":
        """d/dx, exact; drops the degree by one for nonconstant input."""
        return _poly([i * n for i, n in enumerate(self.nums)][1:], self.den)

    def translate(self, h: RationalLike) -> "Polynomial":
        """Return P(x+h) via the Taylor expansion sum_n h^n/n! P^(n)(x)."""
        h = as_rational(h)
        if h == 0:
            return self
        return _derivative_sum(self, _translation_weights(h, len(self.nums)))

    def __repr__(self) -> str:
        return f"Polynomial({[format_rational(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        return format_polynomial(self)


def _scale_to_ints(values: list) -> int:
    """Convert ``values`` (ints and Fractions) in place to int numerators
    over their least common denominator D, and return D, so that each
    values[i] / D is the rational that was there.  Each value's ratio is
    read once, and its Fraction dropped as it is read."""
    dens = [1] * len(values)
    for i, v in enumerate(values):
        values[i], dens[i] = v.as_integer_ratio()
    # Distinct denominators in order: successive lcm steps then mostly
    # meet a multiple of the running lcm, which keeps each gcd cheap.
    den = math.lcm(*dict.fromkeys(dens))
    # Scale factors den // d, walked backwards: when d divides the following
    # value's denominator (as in geometric-like sequences) the factor follows
    # from that value's by a small multiplication instead of a long division.
    # Each denominator is popped as its numerator grows, so the two lists
    # never peak together.
    factor, following = 1, den
    for i in range(len(values) - 1, -1, -1):
        d = dens.pop()
        if d != following:
            quotient, rest = divmod(following, d)
            factor = factor * quotient if rest == 0 else den // d
            following = d
        values[i] *= factor
    return den


def _poly(nums: list[int], den: int) -> Polynomial:
    """The polynomial sum_i nums[i]/den x^i (den > 0), reduced once."""
    return Polynomial.__new__(Polynomial)._store(nums, den)


def _convolve(a: Sequence, b: Sequence, size: int) -> list:
    """The first ``size`` coefficients of the product of the coefficient
    sequences a and b (ascending, ints or Fractions); zeros are skipped."""
    out = [0] * size
    for i, x in enumerate(a[:size]):
        if x:
            for j, y in enumerate(b[:size - i]):
                if y:
                    out[i + j] += x * y
    return out


def _power(base, one, n: int):
    """base ** n (n >= 0) by n products from the unit ``one``: the power of
    a polynomial and of a series."""
    result = one
    for _ in range(n):
        result = result * base
    return result


def _translation_weights(h: Fraction, count: int) -> list[Fraction]:
    """h^n / n! for n = 0..count-1 (at least the first): the symbol of
    translation by h, read by ``Polynomial.translate`` and ``exp_series``."""
    weights = [Fraction(1)]
    for n in range(1, count):
        weights.append(weights[-1] * h / n)
    return weights


def _derivative_sum(p: Polynomial, weights: Iterable[Fraction]) -> Polynomial:
    """sum_n weights[n] P^(n) for n = 0..deg P (``weights`` must reach it),
    on P's numerators with the weights over one common denominator."""
    scales = [w for w, _ in zip(weights, p.nums)]
    common = _scale_to_ints(scales)
    out = [0] * len(p.nums)
    term = list(p.nums)  # numerators of P^(n), over p.den
    for scale in scales:
        if scale:
            for i, t in enumerate(term):
                out[i] += scale * t
        term = [i * t for i, t in enumerate(term)][1:]
    return _poly(out, p.den * common)


def falling_factorial_poly(k: int) -> Polynomial:
    """The degree-k polynomial x(x-1)...(x-k+1); the empty product 1 for k=0."""
    if k < 0:
        raise ValueError("falling factorial order must be nonnegative")
    result = Polynomial([1])
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

    return Polynomial([coeffs.get(i, 0) for i in range(max(coeffs) + 1)])


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
