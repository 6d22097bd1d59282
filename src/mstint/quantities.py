"""Exact fixed-point quantities and the extended (+infinity) value domain.

All weights and costs are stored as integers in units of 10**-6, so that
greedy ratio comparisons and optimality checks are exact and reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

SCALE = 10**6
FRACTION_DIGITS = 6

# Quantities are kept inside the signed 64-bit range so that serialized
# instances stay portable; Python ints never wrap, so we check explicitly.
QUANTITY_MAX = 2**63 - 1


class InputError(ValueError):
    """Anything wrong with arguments, files, or instance contents."""


class QuantityOverflowError(InputError, OverflowError):
    """A quantity computation left the 64-bit range."""


class QuantityParseError(InputError):
    """A decimal token could not be converted to an exact quantity."""


class GuaranteeError(Exception):
    """An exact recomputation contradicts what an algorithm claims.

    Raised by explicit checks, not `assert`, so `python -O` keeps them.
    """


def check_quantity(units: int) -> int:
    if not -QUANTITY_MAX - 1 <= units <= QUANTITY_MAX:
        raise QuantityOverflowError(f"quantity out of range: {units}")
    return units


def parse_digits(token: str) -> int:
    """A nonnegative integer in ASCII digits 0-9, else ValueError; int()
    alone also reads '٣' as 3, '1_0' as 10 and '+0' as 0."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"not a digit string: {echo(token)}")
    return int(token)


def echo(token: str) -> str:
    """A token as an error message shows it: its repr, cut to its first 24
    characters and its length when longer, so the message stays one short
    line."""
    if len(token) <= 24:
        return repr(token)
    return f"{token[:24]!r}... ({len(token)} characters)"


def parse_quantity(token: str) -> int:
    """Parse a nonnegative decimal literal into scaled integer units."""
    text = token.strip()
    whole, _, frac = text.partition(".")
    digits = whole + frac  # ASCII only: str.isdigit also admits '٣'
    if not (digits.isascii() and digits.isdigit()):
        raise QuantityParseError(f"bad quantity literal: {echo(token)}")
    if len(frac) > FRACTION_DIGITS:
        raise QuantityParseError(
            f"more than {FRACTION_DIGITS} fractional digits: {echo(token)}"
        )
    if len(whole.lstrip("0")) > 19:  # past 2**63, and int() stops at 4300 digits
        raise QuantityOverflowError(f"quantity out of range: {echo(token)}")
    units = int(whole or "0") * SCALE + int(frac.ljust(FRACTION_DIGITS, "0"))
    return check_quantity(units)


def format_quantity(units: int) -> str:
    """Render scaled units as a minimal decimal literal (inverse of parse)."""
    sign = "-" if units < 0 else ""
    units = abs(units)
    whole, frac = divmod(units, SCALE)
    if frac == 0:
        return f"{sign}{whole}"
    digits = f"{frac:06d}".rstrip("0")
    return f"{sign}{whole}.{digits}"


@dataclass(frozen=True, order=False)
class ExtendedValue:
    """A nonnegative exact quantity or +infinity (units=None).

    Houses the `MST of a disconnected graph is infinite` convention and all
    profit values.  Infinity is the unique maximum of the ordering.
    """

    units: int | None

    @property
    def is_finite(self) -> bool:
        return self.units is not None

    def __sub__(self, other: "ExtendedValue") -> "ExtendedValue":
        if other.units is None:
            raise ArithmeticError("cannot subtract infinity")
        if self.units is None:
            return INFINITY
        return ExtendedValue(check_quantity(self.units - other.units))

    def _key(self) -> tuple[int, int]:
        return (1, 0) if self.units is None else (0, self.units)

    # a < b and a <= b reflect to b > a and b >= a
    def __gt__(self, other: "ExtendedValue") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "ExtendedValue") -> bool:
        return self._key() >= other._key()

    def __str__(self) -> str:
        return "inf" if self.units is None else format_quantity(self.units)


INFINITY = ExtendedValue(None)
ZERO = ExtendedValue(0)


def finite(units: int) -> ExtendedValue:
    return ExtendedValue(check_quantity(units))


def log2_bounds(n: int, bits: int = 30) -> tuple[Fraction, Fraction]:
    """Rational lower/upper bounds on log2(n), tight to about 2**-bits.

    Used wherever an algorithm guard or a certified inequality involves
    log2 of a count: comparisons stay exact-rational instead of floating.
    Binary digit extraction by repeated squaring, at fixed precision with
    directed rounding (down for the lower bound, up for the upper), so the
    integers stay small and each bound errs only in its safe direction.
    """
    if n < 1:
        raise ValueError("log2 undefined for n < 1")
    k = n.bit_length() - 1
    prec = bits + 32
    one = 1 << prec

    def digits(round_up: bool) -> int:
        # x = n / 2**k scaled by 2**prec, in [1, 2)
        scaled = n << prec
        x = -(-scaled >> k) if round_up else scaled >> k
        frac = 0
        for _ in range(bits):
            sq = x * x
            x = -(-sq >> prec) if round_up else sq >> prec
            frac <<= 1
            if x >= 2 * one:
                frac |= 1
                x = -(-x >> 1) if round_up else x >> 1
        return frac

    lo = Fraction(k) + Fraction(digits(False), 1 << bits)
    hi = Fraction(k) + Fraction(digits(True) + 1, 1 << bits)
    return lo, hi
