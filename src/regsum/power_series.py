"""Truncated formal power series over exact rationals.

A series carries its coefficients for t^0..t^order plus the explicit
truncation order; nothing beyond the order is known or claimed.  Arithmetic
propagates orders pessimistically (the min of the operands), and this module
never touches floats: numeric evaluation lives elsewhere.  The zigzag
integers E_k = k! [t^k] 1/cosh t live here too, computed on ints from
cosh t * sech t = 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .algebra import (RationalLike, _convolve, _Frozen, _power, _terms_text, _translation_weights,
                      as_rational, format_rational)


class NonUnitError(ZeroDivisionError):
    """Inverse of a series whose constant term is zero."""


class DomainError(ValueError):
    """Series operation applied outside its exactly-representable domain."""


class OrderExceededError(IndexError):
    """Coefficient requested beyond the truncation order."""


class PowerSeries(_Frozen):
    """Formal power series truncated at an explicit inclusive order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike]):
        cs = tuple(as_rational(c) for c in coeffs)
        if not cs:
            raise ValueError("a truncated series needs at least the t^0 term")
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def constant(cls, c: RationalLike, order: int) -> "PowerSeries":
        return cls([as_rational(c)] + [0] * order)

    @classmethod
    def t(cls, order: int) -> "PowerSeries":
        """The series t (requires order >= 1)."""
        if order < 1:
            raise ValueError("order must be at least 1 to represent t")
        return cls([0, 1] + [0] * (order - 1))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> Fraction:
        if n < 0:
            raise OrderExceededError(f"negative power t^{n}")
        if n > self.order:
            raise OrderExceededError(f"coefficient t^{n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise OrderExceededError(f"cannot extend order {self.order} to {order}")
        return PowerSeries(self.coeffs[: order + 1])

    # Equality is coefficient-wise up to the common (min) order.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

    __hash__ = None  # equality ignores tails, so hashing would be unsound

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return PowerSeries([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "PowerSeries":
        return PowerSeries([-c for c in self.coeffs])

    def __mul__(self, other) -> "PowerSeries":
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            return PowerSeries(_convolve(self.coeffs, other.coeffs, n + 1))
        c = as_rational(other)
        return PowerSeries([c * a for a in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "PowerSeries":
        if n < 0:
            raise ValueError("negative series power; use inverse() first")
        return _power(self, PowerSeries.constant(1, self.order), n)

    def inverse(self) -> "PowerSeries":
        """Multiplicative inverse up to the truncation order."""
        f0 = self.coeffs[0]
        if f0 == 0:
            raise NonUnitError("series with zero constant term has no inverse")
        # out_n = -(1/f_0) sum_{j=1..n} f_j out_(n-j), an O(n^2) triangular loop
        inv0 = 1 / f0
        out = [inv0]
        for n in range(1, len(self.coeffs)):
            acc = sum((f * o for f, o in zip(self.coeffs[1 : n + 1], reversed(out)) if f),
                      Fraction(0))
            out.append(-inv0 * acc)
        return PowerSeries(out)

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """Substitute ``inner`` g (which must vanish at 0) for t: sum_k a_k g^k,
        each power of g one product from the last, none past the last nonzero
        a_k.  g^k starts at t^k, so the work is triangular."""
        if inner.coeffs[0] != 0:
            raise DomainError("composition needs inner constant term 0")
        n = min(self.order, inner.order)
        acc, power, built = PowerSeries.constant(0, n), PowerSeries.constant(1, n), 0
        for k, a in enumerate(self.coeffs[: n + 1]):
            if a:
                power, built = _power(inner, power, k - built), k
                acc = acc + power * a
        return acc

    def to_strings(self) -> list[str]:
        """Machine form: ``p/q`` strings by ascending power."""
        return [format_rational(c) for c in self.coeffs]

    def __repr__(self) -> str:
        return f"PowerSeries({self.to_strings()})"

    def __str__(self) -> str:
        return f"{_terms_text(enumerate(self.coeffs), 't')} + O(t^{self.order + 1})"


def exp_series(scale: RationalLike, order: int) -> PowerSeries:
    """The series with coefficients scale^n / n! (the exponential of scale*t)."""
    return PowerSeries(_translation_weights(as_rational(scale), order + 1))


def cosh_series(order: int) -> PowerSeries:
    """Even series with coefficients 1/(2m)! at t^(2m): the even part of
    the exponential, refused (no t^0 term) for a negative order; its
    inverse checks ``euler_numbers`` in the tests."""
    coeffs = exp_series(1, order).coeffs[: order + 1]
    return PowerSeries([0 if n % 2 else c for n, c in enumerate(coeffs)])


def euler_numbers(n_max: int) -> tuple[int, ...]:
    """E_k = k! times the t^k coefficient of 1/cosh t, exact integers, from
    cosh t * sech t = 1: E_0 = 1, E_n = 0 for odd n, and otherwise
    E_n = -sum_{even j = 2..n} C(n, j) E_(n-j)."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    values = [1]
    for n in range(1, n_max + 1):
        values.append(0 if n % 2 else
                      -sum(math.comb(n, j) * values[n - j] for j in range(2, n + 1, 2)))
    return tuple(values)
