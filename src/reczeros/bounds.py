"""The paper's inequality stack: its exact constants (q, c_of, d, epsilon),
certified enclosures of pi, cos and zeta, and the stated alpha window.
Only `claims` (verify) and `analysis` (analyze) import it.

The rounded kernels (`pow_rounded`, `horner_sign`, `cos_enclosure`) run on
integer mantissas over 2^bits, rounded by `interval.floor_scaled` and
`ceil_scaled`; each returns exactly the interval that the same steps on
`Fraction` endpoints, each rounded outward, would give.  pi comes from
one fixed-point Machin sum on integers; cos from a Taylor
partial sum with a Lagrange remainder, by step-rounded Horner with guard
bits that grow with the term count; and `cos_pi_square` gives the sign
grids cos^2(pi r) as mantissas, memoized per reduced (r, precision).  Every
enclosure is a pure function of its arguments: `pi_enclosure(p)` is the
cell of the 2^-(p + 8) grid that holds pi, whatever ran earlier in the
process, so the memos change no result.  `ladder` is the one escalation
ladder, and `window_walk` the one walk that reads alpha against
`stated_alpha_upper`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd
from typing import Sequence

from .certify import ALPHA_WIDTH, alpha_enclosure
from .exactnum import zeta_even_rational
from .interval import (Interval, _horner_mantissas, ceil_scaled,
                       dyadic_mantissa, floor_scaled)


# -- exact constants -----------------------------------------------------

def q(k: int, j: int) -> Fraction:
    """zeta(2j) * zeta(2k+2-2j) / zeta(2k+2) as an exact rational.

    Defined for 1 <= j <= k; symmetric under j <-> k+1-j and always > 1.

    >>> q(1, 1), q(2, 1), q(3, 2)
    (Fraction(5, 2), Fraction(7, 4), Fraction(7, 6))
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError("q needs k >= 1")
    if not isinstance(j, int) or not 1 <= j <= k:
        raise ValueError("q needs 1 <= j <= k")
    return zeta_even_rational(j) * zeta_even_rational(k + 1 - j) / zeta_even_rational(k + 1)


def c_of(b: Fraction, ell: int) -> Fraction:
    """((1+b)^ell - 1) / b for rational b > 0: sum_{i<ell} (1+b)^i."""
    b = Fraction(b)
    if b <= 0:
        raise ValueError("c_of needs b > 0")
    if not isinstance(ell, int) or ell < 1:
        raise ValueError("c_of needs ell >= 1")
    return ((1 + b) ** ell - 1) / b


def d(ell: int) -> Fraction:
    """c_of at b = 3/4: the growth constant in the upper alpha bound.

    >>> d(1), d(2), d(3)
    (Fraction(1, 1), Fraction(11, 4), Fraction(93, 16))
    """
    return c_of(Fraction(3, 4), ell)


def epsilon(k: int, j: int) -> tuple[int, int]:
    """Tail-weight bound for the quotient coefficients, 2 <= j <= k-1, k >= 3.

    eps(k, j) = (2j+1)/(2j-1) * 4^-j
              + (2k+3-2j)/(2k+1-2j) * 4^(j-k-1)
              + (2j+1)(2k+3-2j)/((2j-1)(2k+1-2j)) * 4^(-k-1)

    as an integer pair (num, den) over den = (2j-1)(2k+1-2j) 4^(k+1), not
    reduced, which the checks compare by cross-multiplication.

    >>> epsilon(3, 2)
    (505, 2304)
    """
    if not isinstance(k, int) or k < 3:
        raise ValueError("epsilon needs k >= 3")
    if not isinstance(j, int) or not 2 <= j <= k - 1:
        raise ValueError("epsilon needs 2 <= j <= k-1")
    a, b = 2 * j - 1, 2 * k + 1 - 2 * j
    return ((a + 2) * b * 4 ** (k + 1 - j) + a * (b + 2) * 4**j
            + (a + 2) * (b + 2), a * b * 4 ** (k + 1))


# -- rounded kernels -----------------------------------------------------

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


# -- pi ------------------------------------------------------------------

#: (B, floor(pi 2^B)) for the finest grid computed so far; every coarser
#: floor is a shift of it.
_pi_floor = (0, 3)


def _arctan_recip_fixed(x: int, bits: int) -> tuple[int, int]:
    """(s, n) with |arctan(1/x) 2^bits - s| < n + 1, for integer x >= 2.

    s sums the terms (-1)^i floor(2^bits / ((2i+1) x^(2i+1))) for i < n,
    the first i whose power floor(2^bits / x^(2i+1)) is 0.  Flooring a
    floor over x^2 is the exact floor, so each term is floored once and is
    off by less than 1, and the alternating tail is below 1.
    """
    s = n = 0
    power = (1 << bits) // x
    while power:
        term = power // (2 * n + 1)
        s += -term if n % 2 else term
        power //= x * x
        n += 1
    return s, n


def pi_enclosure(precision: int) -> Interval:
    """The cell [f, f + 1] / 2^b of the 2^-b grid that holds pi, where
    b = precision + 8 and f = floor(pi * 2^b); its width is 2^-b.

    A pure function of `precision` (raised to 4 if smaller).  Enclosures
    at different precisions are nested, because a finer dyadic grid
    refines a coarser one: f is floor(pi 2^B) >> (B - b) for any B >= b.
    The module keeps the finest floor found; a finer request reads
    Machin's pi = 16 arctan(1/5) - 4 arctan(1/239) at B = 2b off the
    bracket that the fixed-point sums at B + g bits give, g growing until
    both of its ends give the same floor; pi is irrational, so this ends.

    >>> pi_enclosure(8)
    Interval(205887/65536, 3217/1024)
    """
    global _pi_floor
    b = max(precision, 4) + 8
    top, f = _pi_floor
    if top < b:
        top = 2 * b
        guard = top.bit_length() + 8
        while True:
            s5, n5 = _arctan_recip_fixed(5, top + guard)
            s239, n239 = _arctan_recip_fixed(239, top + guard)
            mid, err = 16 * s5 - 4 * s239, 16 * (n5 + 1) + 4 * (n239 + 1)
            f = (mid - err) >> guard
            if f == (mid + err) >> guard:
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


# -- zeta ----------------------------------------------------------------

def zeta_even_enclosure(m: int, precision: int) -> Interval:
    """Enclosure of zeta(2m) via Euler's formula and a pi enclosure.

    Relative width at most about 2^-precision.  pi^(2m), by
    square-and-multiply whose first rounded square is pi^2, and r_m times
    that power are each rounded outward on integer mantissas: one floor or
    ceiling division per endpoint, no gcd until the result.
    """
    if m < 1:
        raise ValueError("zeta_even_enclosure needs m >= 1")
    pp = precision + max(4, (2 * m).bit_length()) + 8
    power = pow_rounded(pi_enclosure(pp), 2 * m, pp + 4)
    r = zeta_even_rational(m)
    rn, rd = r.numerator, r.denominator
    bits = precision + 16
    lo = floor_scaled(rn * power.lo.numerator, rd * power.lo.denominator, bits)
    hi = ceil_scaled(rn * power.hi.numerator, rd * power.hi.denominator, bits)
    return Interval(Fraction(lo, 1 << bits), Fraction(hi, 1 << bits))


#: Most terms zeta_series_enclosure sums before it refuses a precision.
SERIES_TERM_LIMIT = 1 << 22


def zeta_series_enclosure(n: int, precision: int) -> Interval:
    """Enclosure of zeta(n), n >= 2, by a partial sum plus an integral tail.

    sum_{i>N} i^-n < N^(1-n)/(n-1), so [S_N, S_N + tail] brackets zeta(n).
    N doubles until the tail drops below 2^-precision; raises if that would
    need more than SERIES_TERM_LIMIT terms (small n with large precision).
    The partial sum is accumulated in fixed point with floor division --
    exact rational accumulation would build lcm-sized denominators -- and
    the (< N ulp) downward rounding is absorbed into the upper endpoint.
    """
    if n < 2:
        raise ValueError("zeta_series_enclosure needs n >= 2")
    big = 2
    while (n - 1) * big ** (n - 1) <= 1 << precision:  # tail >= 2^-precision
        big *= 2
        if big > SERIES_TERM_LIMIT:
            raise ValueError(
                "zeta_series_enclosure: precision %d unreachable for n=%d "
                "within %d terms" % (precision, n, SERIES_TERM_LIMIT)
            )
    scale = 1 << (precision + big.bit_length() + 2)
    acc = scale  # the i = 1 term, exact
    for i in range(2, big + 1):
        acc += scale // i**n
    tail = Fraction(1, (n - 1) * big ** (n - 1))
    return Interval(Fraction(acc, scale), Fraction(acc + big, scale) + tail)


# -- the ladder and the stated window ------------------------------------

#: Ceiling of every precision ladder in bits; the ladders double their
#: precision up to it, and each step costs more than the last.
PRECISION_CAP = 4096

#: Finest width a width ladder refines an enclosure to before it gives up.
WIDTH_FLOOR = Fraction(1, 2**2048)


def ladder(first, factor, limit):
    """The escalation rungs first, first*factor, first*factor^2, ...

    The first rung is yielded unconditionally; each later one only while it
    stays within `limit` (at most it for factor > 1, at least it for
    factor < 1).  Precisions climb with factor 2 up to PRECISION_CAP,
    widths shrink toward WIDTH_FLOOR; a caller that exhausts the ladder
    without a decision reports that through the loop's `else`.

    >>> list(ladder(192, 2, 1024)), list(ladder(5000, 2, 4096))
    ([192, 384, 768], [5000])
    """
    rung = first
    while True:
        yield rung
        rung = rung * factor
        if (rung > limit) if factor > 1 else (rung < limit):
            return


def corrected_alpha_upper(k: int, ell: int) -> Fraction:
    """The index-optimized upper endpoint that the inequality chain supports.

    The derivation of the window reduces, index by index, to
    (4+t)/4 > (2 zeta(2))^((l-1)/j) (1 + 3 d_l 4^(j-k-1) / j) for j = 1..k,
    and the stated endpoint keeps only the j = 1 term.  For l = 1 the first
    factor is identically 1 and the requirement is largest at j = k, giving
    the exact rational endpoint 4 (1 + 3 d_1 / (4k)) = 4 + 3/k.
    """
    if ell != 1:
        raise ValueError("only the l = 1 endpoint needs correcting")
    return 4 + Fraction(3 * d(1), k)


#: Precision of the stated endpoint's zeta(2) power where the window checks
#: start; check_alpha_interval doubles it when alpha straddles the endpoint.
WINDOW_PRECISION = 192


def stated_alpha_upper(k: int, ell: int, precision: int) -> Interval:
    """The stated upper window endpoint 2^(l+1) zeta(2)^(l-1) (1 + 3 d_l 4^-k).

    Exact for l = 1 (the point interval 4 (1 + 3 d_1 4^-k)); otherwise the
    zeta(2) enclosure at `precision` bits, raised to l - 1 with outward
    rounding at precision + 16 bits, times the exact rational factor.
    """
    factor = 1 + 3 * d(ell) * Fraction(1, 4**k)
    if ell == 1:
        return Interval(4 * factor)
    return (pow_rounded(zeta_even_enclosure(1, precision), ell - 1,
                        precision + 16) * (2 ** (ell + 1) * factor))


def window_walk(k: int, ell: int):
    """(alpha enclosure, stated upper endpoint, precision) per ladder rung.

    The one walk that reads alpha against the window: alpha_enclosure
    narrows from ALPHA_WIDTH by 2^-64 per rung toward WIDTH_FLOOR, and the
    stated endpoint is taken at WINDOW_PRECISION, doubling in step for
    l > 1 up to PRECISION_CAP; that ladder runs out first.  For l = 1 the
    endpoint is exact and the widths alone set the length.  The consumer
    stops at the first rung that decides what it reads.

    >>> [pr for _, _, pr in window_walk(3, 3)]
    [192, 384, 768, 1536, 3072]
    >>> len(list(window_walk(3, 1)))
    31
    """
    precisions = (repeat(WINDOW_PRECISION) if ell == 1
                  else ladder(WINDOW_PRECISION, 2, PRECISION_CAP))
    for width, pr in zip(ladder(ALPHA_WIDTH, Fraction(1, 2**64), WIDTH_FLOOR),
                         precisions):
        yield (alpha_enclosure(k, ell, width=width),
               stated_alpha_upper(k, ell, pr), pr)
