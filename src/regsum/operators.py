"""Translation-invariant operators on polynomials, stored by symbol.

An operator commuting with d/dx is determined by the series sum_n c_n/n! D^n;
we keep exactly that coefficient list (c_n/n! by ascending n) as a truncated
power series and apply it term by term.  Because the remainder part (operator
minus its constant) raises the minimum power of D, only the first deg P + 1
symbol coefficients can act on a polynomial P, so a sufficiently deep
truncation is lossless.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import ParseError, Polynomial, RationalLike, _derivative_sum, _Frozen, as_rational
from .power_series import OrderExceededError, PowerSeries, exp_series

DEFAULT_SYMBOL_ORDER = 16


class OperatorSpec(_Frozen):
    """A translation-invariant operator, identified by its symbol series.
    Its symbol and label can be neither assigned nor deleted."""

    __slots__ = ("symbol", "label")

    def __init__(self, symbol: PowerSeries, label: str | None = None):
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "label", label)

    @property
    def constant(self) -> Fraction:
        """The image of 1, i.e. the symbol's constant term."""
        return self.symbol.coeffs[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OperatorSpec):
            return NotImplemented
        return self.symbol == other.symbol

    __hash__ = None

    def _check_reach(self, degree: int) -> None:
        """Refuse a polynomial degree beyond the symbol's truncation order:
        all of t^0..t^degree act on such a polynomial."""
        if self.symbol.order < degree:
            raise OrderExceededError(
                f"symbol truncated at order {self.symbol.order} cannot act on degree {degree}; "
                "rebuild the operator with a deeper symbol"
            )

    def apply(self, p: Polynomial) -> Polynomial:
        """Apply to a polynomial: sum of symbol coefficients times derivatives."""
        self._check_reach(len(p.nums) - 1)
        return _derivative_sum(p, self.symbol.coeffs)

    def compose(self, other: "OperatorSpec") -> "OperatorSpec":
        """Operator composition; symbols multiply."""
        return OperatorSpec(self.symbol * other.symbol)

    def __add__(self, other: "OperatorSpec") -> "OperatorSpec":
        if not isinstance(other, OperatorSpec):
            return NotImplemented
        return OperatorSpec(self.symbol + other.symbol)

    def __sub__(self, other: "OperatorSpec") -> "OperatorSpec":
        if not isinstance(other, OperatorSpec):
            return NotImplemented
        return OperatorSpec(self.symbol - other.symbol)

    def scale(self, c: RationalLike) -> "OperatorSpec":
        return OperatorSpec(self.symbol * as_rational(c))

    def remainder(self) -> tuple[Fraction, "OperatorSpec"]:
        """Split off the constant: returns (c, T - c) with a zero-constant rest."""
        rest = PowerSeries([0, *self.symbol.coeffs[1:]])
        return self.constant, OperatorSpec(rest)

    def __repr__(self) -> str:
        name = self.label or "operator"
        return f"<{name}: {self.symbol}>"


def op_identity(order: int = DEFAULT_SYMBOL_ORDER) -> OperatorSpec:
    return OperatorSpec(PowerSeries.constant(1, order), "identity")


def op_diff(order: int = DEFAULT_SYMBOL_ORDER) -> OperatorSpec:
    return OperatorSpec(PowerSeries.t(order), "diff")


def op_shift(h: RationalLike, order: int = DEFAULT_SYMBOL_ORDER) -> OperatorSpec:
    """Translation by h: the exponential symbol, acting as P(x) -> P(x+h)."""
    h = as_rational(h)
    return OperatorSpec(exp_series(h, order), f"shift:{h}")


def op_delta(h: RationalLike, order: int = DEFAULT_SYMBOL_ORDER) -> OperatorSpec:
    """Forward difference: shift by h minus the identity."""
    h = as_rational(h)
    sym = exp_series(h, order) - PowerSeries.constant(1, order)
    return OperatorSpec(sym, f"delta:{h}")


def parse_operator(text: str, order: int | None = None) -> OperatorSpec:
    """Parse an operator literal.

    Forms: ``identity``, ``diff``, ``shift:h``, ``delta:h``, and
    ``symbol:[c0,c1,...]`` with rational entries (the symbol coefficients,
    i.e. already divided by the factorials).
    """
    order = DEFAULT_SYMBOL_ORDER if order is None else order
    text = text.strip()
    if text == "identity":
        return op_identity(order)
    if text == "diff":
        return op_diff(order)
    if text.startswith("shift:"):
        return op_shift(_parse_rational(text[6:], text), order)
    if text.startswith("delta:"):
        return op_delta(_parse_rational(text[6:], text), order)
    if text.startswith("symbol:"):
        body = text[7:].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ParseError(f"symbol literal needs [c0,c1,...], got {body!r}", 7)
        items = [s.strip() for s in body[1:-1].split(",") if s.strip()]
        if not items:
            raise ParseError("empty symbol coefficient list", 8)
        coeffs = [_parse_rational(s, text) for s in items]
        coeffs = (coeffs + [Fraction(0)] * order)[: order + 1]
        return OperatorSpec(PowerSeries(coeffs), "symbol")
    raise ParseError(f"unknown operator literal {text!r}", 0)


def _parse_rational(s: str, context: str) -> Fraction:
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {s!r} in {context!r}: {exc}", context.find(s)) from None
