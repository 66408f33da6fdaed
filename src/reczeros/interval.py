"""Interval arithmetic over exact rational endpoints.

Closed intervals [lo, hi] with `fractions.Fraction` endpoints.  Every
operation is inclusion-correct: the result interval contains every value
f(x) for x in the operand intervals.  `Interval` itself has only the
exact operation the enclosures combine with, scaling by a nonnegative
rational, which needs no rounding; the rounded kernels keep endpoint
denominators from growing without bound in long computations (they only
ever widen).  It takes no sign: signs come from integer kernels, here
`horner_sign` and in `polycore`.

The rounded kernels (`pow_rounded`, `horner_sign`, `cos_enclosure`) run
on integer mantissas over 2^bits: a value rounds to floor(num * 2^bits /
den) or the matching ceiling by one integer floor division on its own
numerator and denominator (`floor_scaled`, `ceil_scaled`), which needs no
grid assumption about the operand, and a product of two mantissas rounds
by a shift.  Each returns exactly the interval that the same steps on
`Fraction` endpoints, each rounded outward, would give, and runs no gcd
until the result is built; `horner_sign`, which returns a sign, builds
no `Fraction` at all.  (The one square root, in `certify`'s alpha step,
takes its radicand through the same two kernels and is rounded by
`isqrt` there.)

Also provides certified enclosures of pi (Machin's formula with
alternating-series tail bounds, summed as exact integer ratios) and of cos
on nonnegative rational-endpoint intervals: a Taylor partial sum with a
Lagrange remainder bound, evaluated by step-rounded Horner with guard bits
that grow with the term count, so that the rounding error, amplified by at
most |x|^(2n) over n terms, stays below the requested precision.
`cos_pi_square` gives the boundary sign grids cos^2(pi r) for rational r
as integer mantissas, ready for `horner_sign`: it reduces r exactly to
[0, 1/2] (period 1 and evenness) and memoizes per (reduced r, precision)
in a module dict filled on first use, so every grid point of one class,
in every grid, shares one series evaluation.

Every enclosure here is a pure function of its arguments: `pi_enclosure(p)`
is the cell of the 2^-(p + 8) grid that holds pi, whatever ran earlier in
the process (it shifts the finest floor of pi found so far), so the memos
change no result.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
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


def pow_rounded(iv: Interval, n: int, bits: int) -> Interval:
    """iv**n for a nonnegative interval, outward-rounding after each step.

    Keeps endpoint sizes near `bits` fractional bits instead of letting exact
    powers grow to n times the operand size.  Always contains iv**n.
    Square-and-multiply on integer mantissas over 2^bits: the first rounding
    of the operand (and of its square) divides its own numerator by its own
    denominator, since the operand need not lie on the 2^-bits grid; every
    later step rounds a product of two mantissas by a shift.
    """
    if iv.lo < 0:
        raise ValueError("pow_rounded requires a nonnegative interval")
    a, b = iv.lo.numerator, iv.lo.denominator
    c, d = iv.hi.numerator, iv.hi.denominator
    lo = hi = 1 << bits  # the exact 1 the product starts from
    if n & 1:
        lo, hi = floor_scaled(a, b, bits), ceil_scaled(c, d, bits)
    n >>= 1
    if n:
        blo, bhi = floor_scaled(a * a, b * b, bits), ceil_scaled(c * c, d * d, bits)
    while n:
        if n & 1:
            lo, hi = lo * blo >> bits, -(-hi * bhi >> bits)
        n >>= 1
        if n:
            blo, bhi = blo * blo >> bits, -(-bhi * bhi >> bits)
    scale = 1 << bits
    return Interval(Fraction(lo, scale), Fraction(hi, scale))


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


def horner_sign(coeffs: Sequence[int], xlo: int, xhi: int, xbits: int,
                bits: int) -> int:
    """Sign of sum(coeffs[i] * y**i) for integer coefficients on the dyadic
    enclosure y in [xlo, xhi] / 2^xbits: +1 / -1 when its enclosure is
    positive / negative, else 0 (undecided at this precision, not a zero).

    The enclosure is Horner on integer mantissas over 2^bits: y's ends are
    rounded outward to 2^bits, each step's result is rounded outward, and
    a coefficient c enters exactly as c * 2^bits.  Each step widens by
    less than 2^(1-bits) before the later steps multiply it by y.
    """
    one = 1 << xbits
    lo, hi = _horner_mantissas([(c << bits, c << bits) for c in coeffs],
                               floor_scaled(xlo, one, bits),
                               ceil_scaled(xhi, one, bits), bits)
    return 1 if lo > 0 else -1 if hi < 0 else 0


def dyadic_mantissa(x: Fraction, bits: int) -> int:
    """x * 2^bits for a dyadic x whose denominator divides 2^bits."""
    return x.numerator << (bits + 1 - x.denominator.bit_length())


# -- pi ------------------------------------------------------------------

#: (B, floor(pi 2^B)) for the finest grid computed so far; every coarser
#: floor is a shift of it.
_pi_floor = (0, 3)


def _arctan_recip_enclosure(x: int, precision: int) -> Interval:
    """Enclosure of arctan(1/x) for integer x >= 2.

    The series arctan(1/x) = sum (-1)^i / ((2i+1) x^(2i+1)) is alternating
    with strictly decreasing terms, so consecutive partial sums bracket the
    limit.  Terms are taken until the first omitted one is below 2^-precision.
    The partial sums stay exact integer ratios num / den over
    den = prod(2i+1) * x^(2i+1), reduced once at the end.
    """
    num, den = 0, 1        # the partial sum before term i
    odd_prod, xpow = 1, x  # prod_{l<i} (2l+1) and x^(2i+1)
    i = 0
    while True:
        k = 2 * i + 1
        # with step = den' / den, term i is odd_prod / den'
        step = k * (x * x if i else x)
        nxt_num = num * step + (-odd_prod if i % 2 else odd_prod)
        nxt_den = den * step
        if k * xpow > 1 << precision:  # term i is below 2^-precision
            s, nxt = Fraction(num, den), Fraction(nxt_num, nxt_den)
            return Interval(min(s, nxt), max(s, nxt))
        num, den, odd_prod, xpow = nxt_num, nxt_den, odd_prod * k, xpow * x * x
        i += 1


def pi_enclosure(precision: int) -> Interval:
    """The cell [f, f + 1] / 2^b of the 2^-b grid that holds pi, where
    b = precision + 8 and f = floor(pi * 2^b); its width is 2^-b.

    A pure function of `precision` (raised to 4 if smaller).  Enclosures
    at different precisions are nested, because a finer dyadic grid
    refines a coarser one: f is floor(pi 2^B) >> (B - b) for any B >= b.
    The module keeps the finest floor found; a finer request reads
    Machin's pi = 16 arctan(1/5) - 4 arctan(1/239) at B = 2b, enclosed at
    B + 3 bits and then with more guard bits until both ends of that
    enclosure give the same floor; pi is irrational, so this ends.

    >>> pi_enclosure(8)
    Interval(205887/65536, 3217/1024)
    """
    global _pi_floor
    b = max(precision, 4) + 8
    top, f = _pi_floor
    if top < b:
        top = 2 * b
        guard = top + 3
        while True:
            a = _arctan_recip_enclosure(5, guard)
            c = _arctan_recip_enclosure(239, guard)
            lo, hi = 16 * a.lo - 4 * c.hi, 16 * a.hi - 4 * c.lo
            f = floor_scaled(lo.numerator, lo.denominator, top)
            if f == floor_scaled(hi.numerator, hi.denominator, top):
                break
            guard += 8
        _pi_floor = top, f
    f >>= top - b
    return Interval(Fraction(f, 1 << b), Fraction(f + 1, 1 << b))


# -- cos -----------------------------------------------------------------

def cos_enclosure(x: Interval, precision: int) -> Interval:
    """Certified enclosure of cos over the nonnegative interval x (radians).

    Taylor partial sum with the Lagrange bound |R_N| <= x^(2N) / (2N)! for
    the tail after the x^(2N-2) term; efficient for x up to a few units.
    The n-term Horner runs in y = x^2 = [lo^2, hi^2] and rounds outward
    after each step; its rounding error is amplified by up to
    max(1, y)^n, so the guard bits grow by the bit length of ceil(hi^2)
    per term.  Everything runs on integers: y and the coefficients
    (-1)^i / (2i)! enter the Horner kernel as mantissas over 2^bits, the
    tail bound is kept as an integer numerator and denominator, and the
    final clamp to [-1, 1] and rounding divide once.
    """
    if x.lo < 0:
        raise ValueError("cos_enclosure requires a nonnegative interval")
    a, b = x.lo.numerator, x.lo.denominator
    c, d = x.hi.numerator, x.hi.denominator
    mn, md = c * c, d * d
    # term = tn / td = hi^(2n) / (2n)!, kept while >= 2^-(precision + 2)
    n, tn, td = 1, mn, 2 * md
    while tn << (precision + 2) >= td:
        n += 1
        tn *= mn
        td *= md * (2 * n - 1) * (2 * n)
    bits = precision + 8 + n * max(1, (-(-mn // md)).bit_length())
    # partial sum sum_{i<n} (-1)^i y^i/(2i)!  evaluated at y = x^2
    coeffs = []
    fact = 1
    for i in range(n):
        if i:
            fact *= (2 * i - 1) * (2 * i)
        unit = -1 << bits if i % 2 else 1 << bits
        coeffs.append((unit // fact, -(-unit // fact)))
    lo, hi = _horner_mantissas(coeffs, floor_scaled(a * a, b * b, bits),
                               ceil_scaled(mn, md, bits), bits)
    # [lo, hi] / 2^bits widened by the tail, clamped to [-1, 1] and
    # rounded outward to 2^-(precision + 8)
    den = td << (bits - precision - 8)
    one = 1 << (precision + 8)
    lo = max((lo * td - (tn << bits)) // den, -one)
    hi = min(-((-hi * td - (tn << bits)) // den), one)
    return Interval(Fraction(lo, one), Fraction(hi, one))


_cos_pi_square_cache: dict[tuple[int, int, int], tuple[int, int]] = {}


def cos_pi_square(p: int, den: int, precision: int) -> tuple[int, int]:
    """Mantissas (lo, hi) over 2^(2 precision + 16) of an enclosure of
    cos(pi p / den)^2, for den > 0.

    p / den is reduced exactly to t / den in [0, 1/2], so the cos series
    sees theta in [0, pi/2]; the square of its enclosure [a, b] (multiples of
    2^-(precision + 8)) is the interval product, [min, max] of a^2, ab and
    b^2.  Memoized per (reduced t / den, precision).

    >>> cos_pi_square(1, 3, 64) == cos_pi_square(-4, 6, 64)
    True
    """
    t = p % den
    t = min(t, den - t)
    g = gcd(t, den)
    key = (t // g, den // g, precision)
    sq = _cos_pi_square_cache.get(key)
    if sq is None:
        enc = cos_enclosure(pi_enclosure(precision) * Fraction(t, den),
                            precision)
        a = dyadic_mantissa(enc.lo, precision + 8)
        b = dyadic_mantissa(enc.hi, precision + 8)
        products = (a * a, a * b, b * b)
        sq = _cos_pi_square_cache[key] = (min(products), max(products))
    return sq
