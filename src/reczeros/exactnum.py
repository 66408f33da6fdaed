"""Exact rational number theory kernel: Bernoulli numbers from the integer
tangent numbers, and the rational factors r_m with zeta(2m) = r_m * pi^(2m).

Everything here is exact `fractions.Fraction` arithmetic.  `family` builds
every member from these; the zeta quotients q(k, j) and the certified
zeta enclosures built on them live in `bounds`.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

__all__ = ["bernoulli", "zeta_even_rational"]

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
