"""Constructors for the two-parameter reciprocal family.

For integers k >= 1 and ell >= 1 the base polynomial has degree k + 1 and
coefficients

    a_j = (-1)^((ell+1) j) * ( B_{2j} B_{2k+2-2j} / ((2j)! (2k+2-2j)!) )^ell

with B the Bernoulli numbers, built with one reduced base per symmetric
pair (j, k+1-j) and handed over as its primitive integer coefficients
and one positive rational scale, R = scale * ints, with no `Fraction`
per coefficient.  Dividing by the leading coefficient and substituting
x = z^2 gives the monic even companion of degree 2k + 2, whose interior
coefficients are, up to sign, 2^ell times ell-th powers of the even-zeta
quotients q(k, j).  That identity is checked as each member is built:
per pair, the base's ratio to the outer base is -2 q(k, j), one integer
cross-multiplication against the zeta rationals before the ell-th power,
and each coefficient's sign relative to the leading one is the
companion's.

Both are self-reciprocal with reversal sign -1 exactly when k and ell are
both even.  `boundary_profile` rewrites the base polynomial in x + 1/x,
straight from its integer coefficients, as the half-degree polynomial W
in v = x + 2 + 1/x (= w^2 for w = z + 1/z) that the root-counting
machinery works on.  `circle_approximant` snaps the interior quotient
weights to 1 and keeps the exact difference, whose coefficient mass
bounds the perturbation on the unit circle.  The companion and the
approximant are tuples of `Fraction`, low degree first, which only the
construct documents print.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from typing import NamedTuple

from .exactnum import bernoulli, zeta_even_rational
from .polycore import _trim, reciprocal_transform


def _validate(k: int, ell: int) -> None:
    # bool is an int subclass, and True would be cached as a second key
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError("k must be an integer >= 1")
    if not isinstance(ell, int) or isinstance(ell, bool) or ell < 1:
        raise ValueError("ell must be an integer >= 1")


def _sigma(k: int, ell: int) -> int:
    return -1 if k % 2 == 0 and ell % 2 == 0 else 1


def sigma_of(k: int, ell: int) -> int:
    """Reversal sign (-1)^((ell+1)(k+1)): -1 iff k and ell are both even."""
    _validate(k, ell)
    return _sigma(k, ell)


class Member(NamedTuple):
    """R = scale * ints: R's primitive integer coefficients, low degree
    first, and one positive rational scale."""

    ints: tuple[int, ...]
    scale: Fraction


@lru_cache(maxsize=None, typed=True)
def reciprocal_poly(k: int, ell: int) -> Member:
    """The degree k+1 base polynomial in x, directly from its coefficients.

    With x_j = n_j / d_j the reduced base of the pair j, D = lcm(d_j) and
    g = gcd(n_j D / d_j), the integers are +-(n_j D / (d_j g))^ell and the
    scale is (g / D)^ell.  Each coefficient is checked against the
    companion's: a_j / a_(k+1) is sigma at j = 0 and +-(2 q(k, j))^ell
    for 1 <= j <= k, with the sign + exactly when (ell+1)(k+j) is odd.

    >>> reciprocal_poly(1, 1)
    Member(ints=(-1, 5, -1), scale=Fraction(1, 720))
    """
    _validate(k, ell)
    sig = _sigma(k, ell)
    top = zeta_even_rational(k + 1)
    bases = []
    holds = True
    # a_j and a_(k+1-j) share their base b_j; one reduction per pair
    for j in range((k + 1) // 2 + 1):
        b, c = bernoulli(2 * j), bernoulli(2 * k + 2 - 2 * j)
        num = b.numerator * c.numerator
        den = (b.denominator * c.denominator * factorial(2 * j)
               * factorial(2 * k + 2 - 2 * j))
        if j == 0:
            num0, den0 = num, den
        else:
            # b_j / b_0 = -2 q(k, j) = -2 r_j r_(k+1-j) / r_(k+1), cross-
            # multiplied on the integer numerators and denominators
            r, s = zeta_even_rational(j), zeta_even_rational(k + 1 - j)
            holds &= (num * den0 * top.numerator * r.denominator * s.denominator
                      == -2 * num0 * den * top.denominator * r.numerator
                      * s.numerator)
        h = gcd(num, den)
        bases.append((num // h, den // h))
    big_d = lcm(*(d for _, d in bases))
    nums = [n * (big_d // d) for n, d in bases]
    g = gcd(*nums)
    ints = [0] * (k + 2)
    for j, n in enumerate(nums):
        base = (n // g) ** ell
        for i in (j, k + 1 - j):
            ints[i] = -base if ((ell + 1) * i) % 2 else base
    lead = ints[k + 1] > 0
    for i in range(k + 1):
        want = sig == 1 if i == 0 else ((ell + 1) * (k + i)) % 2 == 1
        holds &= ((ints[i] > 0) == lead) == want
    if not holds:
        raise AssertionError(
            "companion coefficient identity failed at k=%d, ell=%d" % (k, ell)
        )
    return Member(tuple(ints), Fraction(g, big_d) ** ell)


@lru_cache(maxsize=None, typed=True)
def monic_even_form(k: int, ell: int) -> tuple[Fraction, ...]:
    """The monic even companion R(z^2)/lc(R) of degree 2k+2 in z, as its
    coefficients, low degree first.

    Its interior coefficients are +-2^ell q(k, j)^ell, which
    `reciprocal_poly` checks as it builds R.

    >>> [str(c) for c in monic_even_form(1, 1)]
    ['1', '0', '-5', '0', '1']
    """
    ints = reciprocal_poly(k, ell).ints
    coeffs = [Fraction(0)] * (2 * k + 3)
    coeffs[::2] = [Fraction(c, ints[-1]) for c in ints]
    return tuple(coeffs)


class ApproximantPair(NamedTuple):
    """The companion with interior weights snapped to 1, plus the difference.

    Both are coefficient tuples, low degree first; the difference has no
    trailing zeros.  `weight` is the sum of absolute values of the
    difference's coefficients, an upper bound for |difference| on the unit
    circle.
    """

    approx: tuple[Fraction, ...]
    delta: tuple[Fraction, ...]
    weight: Fraction


def circle_approximant(k: int, ell: int) -> ApproximantPair:
    """The companion m with its weights 2^ell q(k,j)^ell, 2 <= j <= k-1,
    snapped to 2^ell (keeping their signs), and the exact difference
    m - approx; for k <= 2 there are no interior weights and the
    difference is zero."""
    m = monic_even_form(k, ell)
    scale = Fraction(2) ** ell
    approx = list(m)
    for j in range(2, k):
        approx[2 * j] = scale if m[2 * j] > 0 else -scale
    delta = [c - a for c, a in zip(m, approx)]
    weight = sum(map(abs, delta))  # before the trim: a Fraction even at 0
    _trim(delta)
    return ApproximantPair(tuple(approx), tuple(delta), weight)


class BoundaryProfile(NamedTuple):
    """A member's W, with its reversal sign and W's parity.

    R = c x^h W(x + 2 + 1/x) times x - 1 when sigma = -1 and times x + 1
    when w_parity is "odd"; `w_square` is W's primitive integer
    coefficients, low degree first, with a positive leading one.
    """

    sigma: int
    w_parity: str
    w_square: tuple[int, ...]


@lru_cache(maxsize=None, typed=True)
def boundary_profile(k: int, ell: int) -> BoundaryProfile:
    """W straight from the base polynomial's integer coefficients, its shape
    checked: degree ceil(k/2), and parity "odd" exactly when sigma = 1
    and k is even.
    """
    ints = reciprocal_poly(k, ell).ints  # validates (k, ell)
    sig = _sigma(k, ell)
    w, parity = reciprocal_transform(ints, sig)
    if len(w) - 1 != (k + 1) // 2 or parity != (
            "odd" if sig == 1 and k % 2 == 0 else "even"):
        raise AssertionError(
            "transform shape mismatch at k=%d, ell=%d: degree %d parity %s"
            % (k, ell, len(w) - 1, parity)
        )
    return BoundaryProfile(sig, parity, w)
