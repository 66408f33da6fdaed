"""Discriminants, Mahler measure, and the discriminant-based root window.

Everything here rides on one exact primitive: the resultant of two
integer polynomials, computed by the subresultant pseudo-remainder
sequence, with `polycore._prem` (the kernel of the Sturm chain) as its
only elimination step.  It gives the one integer discriminant, of an
integer polynomial.  A member's discriminant applies it not to the degree
k + 1 polynomial R but, through the reciprocal structure, to the integer
coefficients of the half-degree W of `family.boundary_profile` (see
_family_discriminant).  From the
discriminant come the classical inequality |Disc(f)| <= m^m M(f)^(2m-2)
relating it to the Mahler measure (m the degree), and a two-sided window
for the outlying real zero alpha whose lower endpoint is read off the
discriminant:

    L = ((m^-m) prod_{i<j} (a_i - a_j)^2)^(1/(2m-2)),

the product over zero differences being |Disc|/lc^(2m-2) exactly.  With
every zero but the pair (alpha, 1/alpha) on the unit circle, M = |lc|
alpha, so the inequality says exactly alpha >= L, and `analyze` decides
both it and window membership on one pass of bounds.window_walk, the walk
the window checks take; the measure itself is |lc| times the walk's first
alpha enclosure.  The upper endpoint is bounds.stated_alpha_upper
-- and it inherits the checks' defect: for exponent 1 it is exceeded once
k >= 7, so membership is reported honestly as False there (see claims.py
for the certified finding and the corrected endpoint 4 + 3/k).

Each function takes (k, ell) and reads the member's memoized
certify.zero_certificate; analyze refuses a member whose zeros do not
conform, for which the measure formula would not hold.

Real 2k-th roots of rationals are enclosed by an integer floor-root plus
dyadic bounds verified by exact powering, not by floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .bounds import window_walk
from .certify import DEFAULT_PRECISION, zero_certificate
from .family import boundary_profile, reciprocal_poly
from .interval import Interval
from .polycore import _dyadic_values, _prem


# ---------------------------------------------------------------------------
# exact resultants and discriminants
# ---------------------------------------------------------------------------

def resultant(a: Sequence[int], b: Sequence[int]) -> int:
    """Res(a, b) of two integer polynomials, exact.

    Each is a list of ints, low degree first, with a nonzero top
    coefficient, and they are not both constants.  The resultant is taken
    by the subresultant PRS of Collins and Brown-Traub (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 3.3.7), in which every
    division is exact.

    >>> resultant((-2, 1), (-3, 1))  # (x - 2) at x = 3
    -1
    """
    s = 1
    if len(a) < len(b):
        a, b = b, a
        s = -1 if (len(a) - 1) & (len(b) - 1) & 1 else 1
    g = h = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da & db & 1:
            s = -s
        r = _prem(a, b)
        if not r:
            return 0
        div = g * h**delta
        a, b = b, [c // div for c in r]
        g = a[-1]
        h = g**delta * h // h**delta
    da = len(a) - 1
    return s * b[0] ** da // h ** (da - 1)


def discriminant(a: Sequence[int]) -> int:
    """Disc(a) = (-1)^(d(d-1)/2) Res(a, a') / lc(a) of an integer polynomial
    of degree d >= 1, an integer; zero iff a repeated zero exists.

    >>> discriminant((1, -5, 1))
    21
    """
    d = len(a) - 1
    if d < 1:
        raise ValueError("needs degree >= 1")
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * resultant(a, [i * c for i, c in enumerate(a) if i]) // a[-1]


def _family_discriminant(k: int, ell: int) -> Fraction:
    """Disc(R) for R = reciprocal_poly(k, ell), from its half-degree W.

    R = c * x^d W(x + 2 + 1/x) * F with d = deg W, c = lc(R) / lc(W) and
    F = x - 1 (sigma = -1), x + 1 (W of odd parity) or 1; no member has
    both.  The zeros x, 1/x over a zero v of W differ by v (v - 4) squared,
    and the four differences between the pairs over v and v' multiply to
    (v - v')^2, so with P(1) = W(4) and P(-1) = +-W(0) for the palindromic
    P = x^d W(x + 2 + 1/x),

        Disc(R) = c^(4d-2) Disc(W)^2 W(0) W(4) * E,

    where E = (c W(4))^2, (c W(0))^2 or 1 is F's share Res(c P, F)^2.
    """
    profile = boundary_profile(k, ell)
    w = profile.w_square
    d = len(w) - 1
    r = reciprocal_poly(k, ell)
    c = r.scale * r.ints[-1] / w[-1]
    w0, w4 = w[0], _dyadic_values(w, (4,), 0)[0]
    disc = c ** (4 * d - 2) * discriminant(w) ** 2 * w0 * w4
    if profile.sigma == -1:
        disc *= (c * w4) ** 2
    elif profile.w_parity == "odd":
        disc *= (c * w0) ** 2
    return disc


# ---------------------------------------------------------------------------
# certified real roots of rationals
# ---------------------------------------------------------------------------

def _floor_nth_root(a: int, n: int) -> int:
    """Largest r with r^n <= a, by integer Newton iteration."""
    if a < 0 or n < 1:
        raise ValueError("needs a >= 0 and n >= 1")
    if n == 1 or a < 2:
        return a
    x = 1 << ((a.bit_length() + n - 1) // n + 1)
    while True:
        y = ((n - 1) * x + a // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    while x**n > a:
        x -= 1
    while (x + 1) ** n <= a:
        x += 1
    return x


def nth_root_enclosure(value, n: int) -> Interval:
    """Dyadic enclosure of value^(1/n), width 2^-DEFAULT_PRECISION, exactly
    verified.

    Floor-root of the scaled numerator gives the candidate; raising both
    dyadic endpoints to the n-th power certifies them against the input.
    """
    value = Fraction(value)
    if value <= 0:
        raise ValueError("needs a positive value")
    if n < 1:
        raise ValueError("needs n >= 1")
    t = (value.numerator << (n * DEFAULT_PRECISION)) // value.denominator
    r = _floor_nth_root(t, n)
    lo = Fraction(r, 1 << DEFAULT_PRECISION)
    hi = Fraction(r + 1, 1 << DEFAULT_PRECISION)
    if not (lo**n <= value < hi**n):
        raise AssertionError("root enclosure failed its own certificate")
    return Interval(lo, hi)


# ---------------------------------------------------------------------------
# one-stop record
# ---------------------------------------------------------------------------

class AnalysisRecord(NamedTuple):
    """The analyze workup of one member, in the fields of its document."""

    k: int
    ell: int
    discriminant: Fraction
    mahler: Interval
    mahler_inequality_ok: bool
    disc_lower: Interval
    stated_upper: Interval
    alpha_in_interval: bool


def analyze(k: int, ell: int) -> AnalysisRecord:
    """Full exact workup of one family member.

    Cross-checks that the discriminant vanishes exactly when the
    squarefreeness certificate says it should.  Both read the same W; the
    route independent of W and of the PRS, the full-degree Sylvester
    determinant of reciprocal_poly(k, ell), is the test oracle.

    The Mahler measure |lc| alpha takes alpha off the walk's first rung;
    a certificate that does not conform, for which it fails, is refused.

    The Mahler inequality is alpha >= L, decided exactly against the
    rational L^2k = size / scale, so it and window membership are read off
    the first rung of bounds.window_walk that settles both: alpha below L
    fails both, and alpha above L and clear of the stated endpoint passes
    the inequality, inside the window when below the endpoint.  A walk
    that ends undecided raises ArithmeticError.
    """
    disc = _family_discriminant(k, ell)
    cert = zero_certificate(k, ell)
    if (disc != 0) != cert.simple:
        raise AssertionError(
            "discriminant and squarefreeness certificate disagree")
    if not cert.conforms:
        raise ValueError("certificate does not conform; measure formula "
                         "would be unjustified")
    # |Disc| <= (k+1)^(k+1) M^2k with M = |lc| alpha is size <= scale alpha^2k
    r = reciprocal_poly(k, ell)
    lead = r.scale * abs(r.ints[-1])
    size = abs(disc)
    scale = lead ** (2 * k) * (k + 1) ** (k + 1)
    lower = nth_root_enclosure(size / scale, 2 * k)
    measure = None
    for a, upper, _ in window_walk(k, ell):
        if measure is None:  # the first rung: alpha at ALPHA_WIDTH
            measure = lead * a
        if size > scale * a.hi ** (2 * k):  # alpha < L: both fail
            ok = inside = False
            break
        if size < scale * a.lo ** (2 * k) and (a.hi < upper.lo
                                               or a.lo > upper.hi):
            ok, inside = True, a.hi < upper.lo
            break
    else:
        raise ArithmeticError("window undecided at the last rung")
    return AnalysisRecord(k, ell, disc, measure, ok, lower, upper, inside)
