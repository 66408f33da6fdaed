"""Constructors for the two-parameter reciprocal family.

For integers k >= 1 and ell >= 1 the base polynomial has degree k + 1 and
coefficients

    a_j = (-1)^((ell+1) j) * ( B_{2j} B_{2k+2-2j} / ((2j)! (2k+2-2j)!) )^ell

with B the Bernoulli numbers.  Dividing by the leading coefficient and
substituting x = z^2 gives a monic even companion of degree 2k + 2 whose
interior coefficients are, up to sign, 2^ell times ell-th powers of the
even-zeta quotients q(k, j); both routes are computed independently and
compared exactly at construction time.  Each route builds one reduced
coefficient per symmetric pair (j, k+1-j), straight from the integer
numerators and denominators of its Bernoulli or zeta rationals, and the
comparison runs on the two primitive integer coefficient lists.

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

from .exactnum import bernoulli, q, zeta_even_rational
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
    """The degree k+1 base polynomial in x, directly from its coefficients."""
    _validate(k, ell)
    coeffs = [None] * (k + 2)
    # a_j and a_(k+1-j) share their base; one reduction per pair
    for j in range((k + 1) // 2 + 1):
        b, c = bernoulli(2 * j), bernoulli(2 * k + 2 - 2 * j)
        base = Fraction(b.numerator * c.numerator,
                        b.denominator * c.denominator * factorial(2 * j)
                        * factorial(2 * k + 2 - 2 * j)) ** ell
        for i in (j, k + 1 - j):
            coeffs[i] = -base if ((ell + 1) * i) % 2 else base
    return Poly(coeffs)


@lru_cache(maxsize=None)
def monic_even_form(k: int, ell: int) -> Poly:
    """The monic even companion of degree 2k+2 in z.

    Built from the quotient weights q(k, j) and verified coefficient by
    coefficient against the rescaled x = z^2 substitution of
    reciprocal_poly, which ties the two constructions together exactly.
    """
    _validate(k, ell)
    sig = sigma_of(k, ell)
    coeffs = [Fraction(0)] * (2 * k + 3)
    coeffs[0] = Fraction(sig)
    coeffs[2 * k + 2] = Fraction(1)
    # 2 q(k, j) = 2 zeta(2j) zeta(2k+2-2j) / zeta(2k+2), reduced once on
    # the numerators and denominators of the zeta rationals; q(k, j) =
    # q(k, k+1-j), so one power serves each pair
    top = zeta_even_rational(k + 1)
    for j in range(1, (k + 1) // 2 + 1):
        a, b = zeta_even_rational(j), zeta_even_rational(k + 1 - j)
        weight = Fraction(2 * a.numerator * b.numerator * top.denominator,
                          a.denominator * b.denominator * top.numerator) ** ell
        for i in (j, k + 1 - j):
            coeffs[2 * i] = weight if ((ell + 1) * (k + i)) % 2 else -weight
    m = Poly(coeffs)
    # both sides monic, so equal exactly when their primitive integer forms
    # (positive leading coefficient) are
    r = reciprocal_poly(k, ell)
    ints = r.int_coeffs()
    stretched = [0] * (2 * len(ints) - 1)
    stretched[::2] = ints
    if ints[-1] < 0:
        stretched = [-c for c in stretched]
    if tuple(stretched) != m.int_coeffs():
        raise AssertionError(
            "companion coefficient identity failed at k=%d, ell=%d" % (k, ell)
        )
    return m


class ApproximantPair:
    """The companion with interior weights snapped to 1, plus the difference.

    `weight` is the sum of absolute values of the difference's coefficients,
    an upper bound for |difference| on the unit circle.
    """

    __slots__ = ("k", "ell", "approx", "delta", "weight")

    def __init__(self, k: int, ell: int, approx: Poly, delta: Poly, weight: Fraction):
        self.k = k
        self.ell = ell
        self.approx = approx
        self.delta = delta
        self.weight = weight


def circle_approximant(k: int, ell: int) -> ApproximantPair:
    """Replace the q(k,j)^ell weights by 1 for 2 <= j <= k-1 and keep the
    exact difference; for k <= 2 there are no interior weights and the
    difference is zero."""
    _validate(k, ell)
    m = monic_even_form(k, ell)
    scale = Fraction(2) ** ell
    delta_coeffs = [Fraction(0)] * (2 * k + 3)
    weight = Fraction(0)
    for j in range(2, k):
        s = -1 if ((ell + 1) * (k + j)) % 2 else 1
        excess = q(k, j) ** ell - 1
        delta_coeffs[2 * j] = -scale * s * excess
        weight += scale * excess
    delta = Poly(delta_coeffs)
    approx = Poly([c - dc for c, dc in zip(m.coeffs, delta_coeffs)])
    return ApproximantPair(k, ell, approx, delta, weight)


class BoundaryProfile(NamedTuple):
    """A member's W, with its reversal sign and W's parity.

    R = c x^h W(x + 2 + 1/x) times x - 1 when sigma = -1 and times x + 1
    when w_parity is "odd"; W is primitive with a positive leading
    coefficient.
    """

    sigma: int
    w_parity: str
    w_square: Poly


@lru_cache(maxsize=None)
def boundary_profile(k: int, ell: int) -> BoundaryProfile:
    """W straight from the base polynomial's integer coefficients, its shape
    checked: degree ceil(k/2), and parity "odd" exactly when sigma = 1
    and k is even.  The companion is built too, for its identity check.
    """
    _validate(k, ell)
    monic_even_form(k, ell)
    sig = sigma_of(k, ell)
    w, parity = reciprocal_transform(reciprocal_poly(k, ell).int_coeffs(), sig)
    if w.degree() != (k + 1) // 2 or parity != (
            "odd" if sig == 1 and k % 2 == 0 else "even"):
        raise AssertionError(
            "transform shape mismatch at k=%d, ell=%d: degree %d parity %s"
            % (k, ell, w.degree(), parity)
        )
    return BoundaryProfile(sig, parity, w)
