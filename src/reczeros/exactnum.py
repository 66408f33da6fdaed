"""Exact rational number theory kernel.

Bernoulli numbers from the integer tangent numbers, the rational factors
r_m with zeta(2m) = r_m * pi^(2m), the zeta-quotient coefficients

    q(k, j) = zeta(2j) * zeta(2k+2-2j) / zeta(2k+2)

(rational: the pi powers cancel), and the small closed-form quantities used
by the inequality checks.  Everything here is exact `fractions.Fraction`
arithmetic; certified real enclosures (pi, zeta values) live at the bottom
and are built on `interval.Interval`.  `zeta_even_enclosure` rounds pi^2,
its power and r_m times the power on integer mantissas, by the rule the
`interval` module describes, and returns exactly what the same steps on
`Fraction` endpoints would.  Like `interval.pi_enclosure`, a zeta
enclosure is a pure function of its arguments, whatever ran earlier in the
process.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .interval import Interval, ceil_scaled, floor_scaled, pi_enclosure, pow_rounded

__all__ = [
    "bernoulli",
    "zeta_even_rational",
    "q",
    "c_of",
    "d",
    "epsilon",
    "pi_enclosure",
    "zeta_even_enclosure",
    "zeta_series_enclosure",
    "Interval",
]

# cache of B_0, B_2, B_4, ... (even indices only; odd ones past B_1 vanish)
_bern_even: list[Fraction] = [Fraction(1)]


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (convention B_1 = -1/2).

    Even indices come from the integer tangent numbers T_i,
    B_2i = (-1)^(i-1) * 2i * T_i / (4^i (4^i - 1)), computed by the
    Brent-Harvey recurrence; the cache at least doubles when it grows, so
    rebuilding the tangent table from T_1 stays quadratic overall.

    >>> bernoulli(12)
    Fraction(-691, 2730)
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("Bernoulli index must be a nonnegative integer")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    m = n // 2
    have = len(_bern_even)
    if have <= m:
        top = max(m, 2 * have)
        t = [0, 1] + [0] * (top - 1)  # t[i] = T_i, the tangent numbers
        for i in range(2, top + 1):
            t[i] = (i - 1) * t[i - 1]
        for i in range(2, top + 1):
            for j in range(i, top + 1):
                t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
        _bern_even.extend(
            Fraction((-1) ** (i - 1) * 2 * i * t[i], 4**i * (4**i - 1))
            for i in range(have, top + 1))
    return _bern_even[m]


_zeta_rational_cache: dict[int, Fraction] = {}


def zeta_even_rational(m: int) -> Fraction:
    """The rational r_m with zeta(2m) = r_m * pi^(2m)  (Euler).

    r_m = (-1)^(m+1) * 2^(2m-1) * B_2m / (2m)!, memoized per m.

    >>> [zeta_even_rational(m) for m in (1, 2, 3)]
    [Fraction(1, 6), Fraction(1, 90), Fraction(1, 945)]
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError("zeta_even_rational needs m >= 1")
    got = _zeta_rational_cache.get(m)
    if got is None:
        sign = 1 if m % 2 == 1 else -1
        num = sign * (1 << (2 * m - 1)) * bernoulli(2 * m)
        got = _zeta_rational_cache[m] = num / factorial(2 * m)
    return got


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


def epsilon(k: int, j: int) -> Fraction:
    """Tail-weight bound for the quotient coefficients, 2 <= j <= k-1, k >= 3.

    eps(k, j) = (2j+1)/(2j-1) * 4^-j
              + (2k+3-2j)/(2k+1-2j) * 4^(j-k-1)
              + (2j+1)(2k+3-2j)/((2j-1)(2k+1-2j)) * 4^(-k-1)

    >>> epsilon(3, 2)
    Fraction(505, 2304)
    """
    if not isinstance(k, int) or k < 3:
        raise ValueError("epsilon needs k >= 3")
    if not isinstance(j, int) or not 2 <= j <= k - 1:
        raise ValueError("epsilon needs 2 <= j <= k-1")
    a = Fraction(2 * j + 1, 2 * j - 1)
    b = Fraction(2 * k + 3 - 2 * j, 2 * k + 1 - 2 * j)
    return (
        a * Fraction(1, 4**j)
        + b * Fraction(1, 4 ** (k + 1 - j))
        + a * b * Fraction(1, 4 ** (k + 1))
    )


# -- certified enclosures ------------------------------------------------

def zeta_even_enclosure(m: int, precision: int) -> Interval:
    """Enclosure of zeta(2m) via Euler's formula and a pi enclosure.

    Relative width at most about 2^-precision.  pi^2, its m-th power and
    r_m times that power are each rounded outward on integer mantissas:
    one floor or ceiling division per endpoint, no gcd until the result.
    """
    if m < 1:
        raise ValueError("zeta_even_enclosure needs m >= 1")
    pp = precision + max(4, (2 * m).bit_length()) + 8
    pi = pi_enclosure(pp)
    a, b = pi.lo.numerator, pi.lo.denominator
    c, d = pi.hi.numerator, pi.hi.denominator
    scale = 1 << (pp + 4)
    pisq = Interval(Fraction(floor_scaled(a * a, b * b, pp + 4), scale),
                    Fraction(ceil_scaled(c * c, d * d, pp + 4), scale))
    power = pow_rounded(pisq, m, pp + 4)
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
    tol = Fraction(1, 1 << precision)
    big = 2
    while Fraction(1, (n - 1) * big ** (n - 1)) >= tol:  # tail at N = big
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
