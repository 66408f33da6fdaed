"""Interval arithmetic over exact rational endpoints, and the rounding
primitives of the enclosures built on it.

Closed intervals [lo, hi] with `fractions.Fraction` endpoints.  `Interval`
has only the exact operation the enclosures combine with, scaling by a
nonnegative rational, which needs no rounding, and takes no sign: signs
come from integer kernels, in `polycore` and `bounds.horner_sign`.

The rounding primitives run on integer mantissas over 2^bits: a value
rounds to floor(num * 2^bits / den) or the matching ceiling by one
integer floor division on its own numerator and denominator
(`floor_scaled`, `ceil_scaled`), and `_horner_mantissas` is step-rounded
Horner on such mantissas.  The enclosures of pi, cos and zeta that use
them live in `bounds`; `certify`'s alpha step rounds its radicand with
the same two kernels.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

_NumLike = Union[int, Fraction]


class Interval:
    """A closed interval with rational endpoints.

    It holds an enclosure, reports its width, and scales exactly by a
    nonnegative rational; a negative scale trips the order check.  Nothing
    in the library negates, adds, subtracts, divides, multiplies two or
    raises one, or takes its sign, so it has no such operators.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: _NumLike, hi: _NumLike | None = None):
        if hi is None:
            hi = lo
        # a Fraction is kept as it is, without the numbers.Rational check
        if type(lo) is not Fraction:
            lo = Fraction(lo)
        if type(hi) is not Fraction:
            hi = Fraction(hi)
        if lo > hi:
            raise ValueError("interval endpoints out of order: %s > %s" % (lo, hi))
        self.lo = lo
        self.hi = hi

    # -- basic queries ----------------------------------------------------

    def width(self) -> Fraction:
        return self.hi - self.lo

    def __eq__(self, other) -> bool:
        return isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return "Interval(%s, %s)" % (self.lo, self.hi)

    # -- arithmetic -------------------------------------------------------

    def __mul__(self, c: _NumLike) -> "Interval":
        return Interval(self.lo * c, self.hi * c)

    __rmul__ = __mul__


def floor_scaled(num: int, den: int, bits: int) -> int:
    """floor(num / den * 2^bits) for den > 0: the mantissa of a downward rounding."""
    return (num << bits) // den


def ceil_scaled(num: int, den: int, bits: int) -> int:
    """ceil(num / den * 2^bits) for den > 0: the mantissa of an upward rounding."""
    return -((-num << bits) // den)


def _horner_mantissas(coeffs: Sequence[tuple[int, int]], xlo: int, xhi: int,
                      bits: int) -> tuple[int, int]:
    """Step-rounded Horner on mantissas over 2^bits.

    coeffs holds the (floor, ceil) mantissas of each coefficient, lowest
    degree first, and [xlo, xhi] those of the argument; returns the
    (floor, ceil) mantissas of the enclosure.
    """
    lo = hi = 0
    for clo, chi in reversed(coeffs):
        products = (lo * xlo, lo * xhi, hi * xlo, hi * xhi)
        lo = (min(products) >> bits) + clo
        hi = -(-max(products) >> bits) + chi
    return lo, hi


def dyadic_mantissa(x: Fraction, bits: int) -> int:
    """x * 2^bits for a dyadic x whose denominator divides 2^bits."""
    return x.numerator << (bits + 1 - x.denominator.bit_length())

