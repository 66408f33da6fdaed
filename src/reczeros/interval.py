"""Interval arithmetic over exact rational endpoints.

Closed intervals [lo, hi] with `fractions.Fraction` endpoints.  Every
operation is inclusion-correct: the result interval contains every value
f(x) for x in the operand intervals.  Because rationals are closed under
+, -, *, /, the arithmetic itself needs no rounding; the rounded kernels
keep endpoint denominators from growing without bound in long computations
(they only ever widen).

The rounded kernels (`pow_rounded`, `horner_rounded`, `cos_enclosure`) run
on integer mantissas over 2^bits: a value rounds to floor(num * 2^bits /
den) or the matching ceiling by one integer floor division on its own
numerator and denominator (`floor_scaled`, `ceil_scaled`), which needs no
grid assumption about the operand, and a product of two mantissas rounds
by a shift.  Each returns exactly the interval that the same steps on
`Fraction` endpoints, each rounded outward, would give, and runs no gcd
until the result is built.

Also provides certified enclosures of pi (Machin's formula with
alternating-series tail bounds, summed as exact integer ratios) and of cos
on rational-endpoint intervals: a Taylor partial sum with a Lagrange
remainder bound, evaluated by step-rounded Horner with guard bits that
grow with the term count, so that the rounding error, amplified by at most
|x|^(2n) over n terms, stays below the requested precision.
`cos_pi_enclosure` serves cos(pi r) for rational r: it reduces r exactly to
[0, 1/2] (r mod 2, r -> 2 - r, and cos(pi - t) = -cos t) before multiplying
by the pi enclosure, so the series argument stays below pi/2, and it
memoizes the reduced enclosure per (r, precision) in a module dict filled
on first use.

Every enclosure here is a pure function of its arguments: `pi_enclosure(p)`
is the cell of the 2^-(p + 8) grid that holds pi, whatever ran earlier in
the process, so the memos change no result.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, ceil, isqrt
from typing import Sequence, Union

_NumLike = Union[int, Fraction]


class Interval:
    """A closed interval with rational endpoints.

    `contains` has no library caller; it is the inclusion check the tests
    use to assert that an enclosure holds a known value.
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

    def contains(self, x) -> bool:
        if isinstance(x, Interval):
            return self.lo <= x.lo and x.hi <= self.hi
        x = Fraction(x)
        return self.lo <= x <= self.hi

    def sign(self) -> int:
        """+1 / -1 if the interval is entirely positive / negative, else 0.

        0 means the sign is undecided at this width, not that the value is 0.
        """
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        return 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return "Interval(%s, %s)" % (self.lo, self.hi)

    # -- arithmetic -------------------------------------------------------

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __add__(self, other) -> "Interval":
        other = _as_interval(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        return self + (-_as_interval(other))

    def __rsub__(self, other) -> "Interval":
        return _as_interval(other) + (-self)

    def __mul__(self, other) -> "Interval":
        other = _as_interval(other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def inverse(self) -> "Interval":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval straddles zero: %r" % self)
        return Interval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other) -> "Interval":
        return self * _as_interval(other).inverse()

    def __rtruediv__(self, other) -> "Interval":
        return _as_interval(other) * self.inverse()

    def __pow__(self, n: int) -> "Interval":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        if n == 0:
            return Interval(1)
        plo, phi = self.lo**n, self.hi**n
        if n % 2 == 1:
            return Interval(plo, phi)
        if self.lo >= 0:
            return Interval(plo, phi)
        if self.hi <= 0:
            return Interval(phi, plo)
        return Interval(Fraction(0), max(plo, phi))


def _as_interval(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval(Fraction(x))


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


def horner_rounded(coeffs: Sequence[_NumLike], x: Interval, bits: int,
                   x_shift: int = 0) -> Interval:
    """Enclosure of sum(coeffs[i] * y**i) at y = x * 2^x_shift, rounding
    outward after each Horner step.

    y, each coefficient and each step's result are rounded outward to
    multiples of 2^-bits (floor for the lower end, ceiling for the upper),
    so the steps run on integer mantissas with no gcd work.  y is rounded
    straight from x, as floor(x * 2^(bits + x_shift)) and the ceiling, which
    are exactly the mantissas of the rounded product.  Each step widens by
    less than 2^(2-bits) before the later steps multiply it by y, so the
    rounding adds less than 2^(2-bits) * sum |y|^i, plus the effect of
    rounding y itself (none when y already lies on the 2^-bits grid).
    """
    scale = 1 << bits
    lo, hi = _horner_mantissas(
        [(floor(c * scale), ceil(c * scale)) for c in coeffs],
        floor_scaled(x.lo.numerator, x.lo.denominator, bits + x_shift),
        ceil_scaled(x.hi.numerator, x.hi.denominator, bits + x_shift), bits)
    return Interval(Fraction(lo, scale), Fraction(hi, scale))


def sqrt_enclosure(iv: Interval, bits: int) -> Interval:
    """Certified enclosure of the square root of a nonnegative interval.

    Endpoints are multiples of 2^-bits obtained from integer square roots,
    so the result always contains the exact square root set.
    `certify._alpha_step` takes the same bounds on integers; this interval
    form stays as the reference the tests hold it to, and as an entry
    point the benchmark tracer names.
    """
    if iv.lo < 0:
        raise ValueError("sqrt_enclosure requires a nonnegative interval")
    sq = 1 << (2 * bits)
    lo_num = isqrt(floor(iv.lo * sq))
    hi_arg = ceil(iv.hi * sq)
    hi_num = isqrt(hi_arg)
    if hi_num * hi_num < hi_arg:
        hi_num += 1
    scale = 1 << bits
    return Interval(Fraction(lo_num, scale), Fraction(hi_num, scale))


# -- pi ------------------------------------------------------------------

_pi_cache: dict[int, Interval] = {}


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

    A pure function of `precision` (raised to 4 if smaller), memoized per
    precision.  Enclosures at different precisions are nested, because a
    finer dyadic grid refines a coarser one.  f is read off Machin's
    pi = 16 arctan(1/5) - 4 arctan(1/239), enclosed at b + 3 bits and then
    with more guard bits until both ends of that enclosure give the same
    floor; pi is irrational, so this ends.

    >>> pi_enclosure(8)
    Interval(205887/65536, 3217/1024)
    """
    precision = max(precision, 4)
    cached = _pi_cache.get(precision)
    if cached is not None:
        return cached
    b = precision + 8
    guard = b + 3
    while True:
        a = _arctan_recip_enclosure(5, guard)
        c = _arctan_recip_enclosure(239, guard)
        lo, hi = 16 * a.lo - 4 * c.hi, 16 * a.hi - 4 * c.lo
        f = floor_scaled(lo.numerator, lo.denominator, b)
        if f == floor_scaled(hi.numerator, hi.denominator, b):
            break
        guard += 8
    enc = Interval(Fraction(f, 1 << b), Fraction(f + 1, 1 << b))
    _pi_cache[precision] = enc
    return enc


# -- cos -----------------------------------------------------------------

def cos_enclosure(x: Interval, precision: int) -> Interval:
    """Certified enclosure of cos over the interval x (radians).

    Taylor partial sum with the Lagrange bound |R_N| <= |x|^(2N) / (2N)! for
    the tail after the x^(2N-2) term; valid for any real x, efficient for
    |x| up to a few units.  The n-term Horner runs in y = x^2 and rounds
    outward after each step; its rounding error is amplified by up to
    max(1, |y|)^n, so the guard bits grow by the bit length of ceil(|y|)
    per term.  Everything runs on integers: y and the coefficients
    (-1)^i / (2i)! enter the Horner kernel as mantissas over 2^bits, the
    tail bound is kept as an integer numerator and denominator, and the
    final clamp to [-1, 1] and rounding divide once.
    """
    a, b = x.lo.numerator, x.lo.denominator
    c, d = x.hi.numerator, x.hi.denominator
    lo_sq, hi_sq = (a * a, b * b), (c * c, d * d)
    lo_smaller = lo_sq[0] * hi_sq[1] <= hi_sq[0] * lo_sq[1]
    # y = x^2 = [ylo, mn / md] as exact integer ratios
    mn, md = hi_sq if lo_smaller else lo_sq
    if a < 0 < c:
        ylo = (0, 1)
    else:
        ylo = lo_sq if lo_smaller else hi_sq
    # term = tn / td = |x|^(2n) / (2n)!, kept while >= 2^-(precision + 2)
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
    lo, hi = _horner_mantissas(coeffs, floor_scaled(*ylo, bits),
                               ceil_scaled(mn, md, bits), bits)
    # [lo, hi] / 2^bits widened by the tail, clamped to [-1, 1] and
    # rounded outward to 2^-(precision + 8)
    den = td << (bits - precision - 8)
    one = 1 << (precision + 8)
    lo = max((lo * td - (tn << bits)) // den, -one)
    hi = min(-((-hi * td - (tn << bits)) // den), one)
    return Interval(Fraction(lo, one), Fraction(hi, one))


_cos_pi_cache: dict[tuple[Fraction, int], Interval] = {}


def cos_pi_enclosure(r: _NumLike, precision: int) -> Interval:
    """Certified enclosure of cos(pi r) for rational r.

    r is reduced exactly to [0, 1/2] (period 2, evenness, and
    cos(pi - t) = -cos t), so the cos series sees |theta| <= pi/2.  The
    reduced enclosure is memoized per (reduced r, precision).
    """
    r = Fraction(r) % 2
    if r > 1:
        r = 2 - r
    negate = r > Fraction(1, 2)
    if negate:
        r = 1 - r
    key = (r, precision)
    enc = _cos_pi_cache.get(key)
    if enc is None:
        enc = cos_enclosure(r * pi_enclosure(precision), precision)
        _cos_pi_cache[key] = enc
    return -enc if negate else enc
