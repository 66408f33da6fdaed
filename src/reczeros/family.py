"""Constructors for the two-parameter reciprocal family.

For integers k >= 1 and ell >= 1 the base polynomial has degree k + 1 and
coefficients

    a_j = (-1)^((ell+1) j) * ( B_{2j} B_{2k+2-2j} / ((2j)! (2k+2-2j)!) )^ell

with B the Bernoulli numbers, built with one reduced base per symmetric
pair (j, k+1-j).  Dividing by the leading coefficient and substituting
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
bounds the perturbation on the unit circle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import NamedTuple

from .exactnum import bernoulli, zeta_even_rational
from .polycore import Poly, reciprocal_transform


def _validate(k: int, ell: int) -> None:
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be an integer >= 1")
    if not isinstance(ell, int) or ell < 1:
        raise ValueError("ell must be an integer >= 1")


def sigma_of(k: int, ell: int) -> int:
    """Reversal sign (-1)^((ell+1)(k+1)): -1 iff k and ell are both even."""
    _validate(k, ell)
    return -1 if k % 2 == 0 and ell % 2 == 0 else 1


@lru_cache(maxsize=None)
def reciprocal_poly(k: int, ell: int) -> Poly:
    """The degree k+1 base polynomial in x, directly from its coefficients.

    Each coefficient is checked against the companion's: a_j / a_(k+1) is
    sigma at j = 0 and +-(2 q(k, j))^ell for 1 <= j <= k, with the sign +
    exactly when (ell+1)(k+j) is odd.
    """
    _validate(k, ell)
    sig = sigma_of(k, ell)
    top = zeta_even_rational(k + 1)
    coeffs = [None] * (k + 2)
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
        base = Fraction(num, den) ** ell
        for i in (j, k + 1 - j):
            coeffs[i] = -base if ((ell + 1) * i) % 2 else base
    lead = coeffs[k + 1] > 0
    for i in range(k + 1):
        want = sig == 1 if i == 0 else ((ell + 1) * (k + i)) % 2 == 1
        holds &= ((coeffs[i] > 0) == lead) == want
    if not holds:
        raise AssertionError(
            "companion coefficient identity failed at k=%d, ell=%d" % (k, ell)
        )
    return Poly(coeffs)


@lru_cache(maxsize=None)
def monic_even_form(k: int, ell: int) -> Poly:
    """The monic even companion R(z^2)/lc(R) of degree 2k+2 in z.

    Its interior coefficients are +-2^ell q(k, j)^ell, which
    `reciprocal_poly` checks as it builds R.

    >>> monic_even_form(1, 1)
    Poly(1 + -5*x^2 + 1*x^4)
    """
    r = reciprocal_poly(k, ell)
    lead = r.lc()
    coeffs = [Fraction(0)] * (2 * k + 3)
    coeffs[::2] = [c / lead for c in r.coeffs]
    return Poly(coeffs)


class ApproximantPair(NamedTuple):
    """The companion with interior weights snapped to 1, plus the difference.

    `weight` is the sum of absolute values of the difference's coefficients,
    an upper bound for |difference| on the unit circle.
    """

    approx: Poly
    delta: Poly
    weight: Fraction


def circle_approximant(k: int, ell: int) -> ApproximantPair:
    """The companion m with its weights 2^ell q(k,j)^ell, 2 <= j <= k-1,
    snapped to 2^ell (keeping their signs), and the exact difference
    m - approx; for k <= 2 there are no interior weights and the
    difference is zero."""
    m = monic_even_form(k, ell).coeffs
    scale = Fraction(2) ** ell
    approx = list(m)
    for j in range(2, k):
        approx[2 * j] = scale if m[2 * j] > 0 else -scale
    delta = [c - a for c, a in zip(m, approx)]
    return ApproximantPair(Poly(approx), Poly(delta), sum(map(abs, delta)))


class BoundaryProfile(NamedTuple):
    """A member's W, with its reversal sign and W's parity.

    R = c x^h W(x + 2 + 1/x) times x - 1 when sigma = -1 and times x + 1
    when w_parity is "odd"; `w_square` is W's primitive integer
    coefficients, low degree first, with a positive leading one.
    """

    sigma: int
    w_parity: str
    w_square: tuple[int, ...]


@lru_cache(maxsize=None)
def boundary_profile(k: int, ell: int) -> BoundaryProfile:
    """W straight from the base polynomial's integer coefficients, its shape
    checked: degree ceil(k/2), and parity "odd" exactly when sigma = 1
    and k is even.
    """
    _validate(k, ell)
    sig = sigma_of(k, ell)
    w, parity = reciprocal_transform(reciprocal_poly(k, ell).int_coeffs(), sig)
    if len(w) - 1 != (k + 1) // 2 or parity != (
            "odd" if sig == 1 and k % 2 == 0 else "even"):
        raise AssertionError(
            "transform shape mismatch at k=%d, ell=%d: degree %d parity %s"
            % (k, ell, len(w) - 1, parity)
        )
    return BoundaryProfile(sig, parity, w)
