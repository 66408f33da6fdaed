"""Discriminants, Mahler measure, and the discriminant-based root window.

Everything here rides on one exact primitive: the resultant of two
rational polynomials, computed fraction-free on the integer Sylvester
matrix.  From it come the discriminant, the classical inequality
|Disc(f)| <= m^m M(f)^(2m-2) relating it to the Mahler measure (m the
degree), and a two-sided window for the outlying real zero alpha whose
lower endpoint is read off the discriminant:

    ((m^-m) prod_{i<j} (a_i - a_j)^2)^(1/(2m-2)),

the product over zero differences being |Disc|/lc^(2m-2) exactly.  The
upper endpoint is claims.stated_alpha_upper, the one the window checkers
use -- and it inherits the same defect: for exponent 1 it is exceeded
once k >= 7, so membership is reported honestly as False there (see
claims.py for the certified finding and the corrected endpoint 4 + 3/k).

Each function takes (k, ell) and reads the member's memoized
certify.zero_certificate; the measure and the window refuse a member whose
zeros do not conform.

Real 2k-th roots of rationals are enclosed by an integer floor-root plus
dyadic bounds verified by exact powering, not by floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .certify import ALPHA_WIDTH, alpha_enclosure, zero_certificate
from .claims import WIDTH_FLOOR, ladder, stated_alpha_upper
from .family import RESULTANT_K_CAP, reciprocal_poly
from .interval import Interval
from .polycore import Poly


# ---------------------------------------------------------------------------
# exact resultants and discriminants
# ---------------------------------------------------------------------------

def _bareiss_det(rows: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for r in range(i + 1, n):
                if m[r][i] != 0:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        piv = m[i][i]
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * piv - m[r][i] * m[i][c]) // prev
            m[r][i] = 0
        prev = piv
    return sign * m[n - 1][n - 1]


def resultant(p: Poly, q: Poly) -> Fraction:
    """Res(p, q), exact.

    Both polynomials are scaled to primitive integer form, the integer
    Sylvester determinant is taken fraction-free, and the two scale
    factors are restored via Res(c p, e q) = c^deg(q) e^deg(p) Res(p, q).
    """
    if p.is_zero() or q.is_zero():
        return Fraction(0)
    dp, dq = p.degree(), q.degree()
    if dp == 0 and dq == 0:
        return Fraction(1)
    pi, qi = p.int_coeffs(), q.int_coeffs()
    sp = p.lc() / pi[-1]
    sq = q.lc() / qi[-1]
    pd = list(reversed(pi))
    qd = list(reversed(qi))
    n = dp + dq
    rows = []
    for i in range(dq):
        rows.append([0] * i + pd + [0] * (n - i - len(pd)))
    for i in range(dp):
        rows.append([0] * i + qd + [0] * (n - i - len(qd)))
    det = _bareiss_det(rows)
    return sp**dq * sq**dp * det


def discriminant(p: Poly) -> Fraction:
    """Disc(p) = (-1)^(d(d-1)/2) Res(p, p') / lc(p), exact; zero iff a
    repeated zero exists."""
    dp = p.degree()
    if dp < 1:
        raise ValueError("needs degree >= 1")
    sign = -1 if (dp * (dp - 1) // 2) % 2 else 1
    return sign * resultant(p, p.derivative()) / p.lc()


@lru_cache(maxsize=None)
def _family_discriminant(k: int, ell: int) -> Fraction:
    return discriminant(reciprocal_poly(k, ell))


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


def nth_root_enclosure(value, n: int, precision: int = 128) -> Interval:
    """Dyadic enclosure of value^(1/n), width 2^-precision, exactly verified.

    Floor-root of the scaled numerator gives the candidate; raising both
    dyadic endpoints to the n-th power certifies them against the input.
    """
    value = Fraction(value)
    if value <= 0:
        raise ValueError("needs a positive value")
    if n < 1 or precision < 1:
        raise ValueError("needs n >= 1 and precision >= 1")
    t = (value.numerator << (n * precision)) // value.denominator
    r = _floor_nth_root(t, n)
    lo = Fraction(r, 1 << precision)
    hi = Fraction(r + 1, 1 << precision)
    if not (lo**n <= value < hi**n):
        raise AssertionError("root enclosure failed its own certificate")
    return Interval(lo, hi)


# ---------------------------------------------------------------------------
# Mahler measure and the discriminant inequality
# ---------------------------------------------------------------------------

def mahler_measure(k: int, ell: int, width: Fraction = ALPHA_WIDTH) -> Interval:
    """Enclosure of |lc| * alpha, the measure of the family member.

    Valid only because the certificate places every zero except the pair
    (alpha, 1/alpha) on the unit circle; a non-conforming certificate is
    refused rather than silently fed into the formula.
    """
    if not zero_certificate(k, ell).conforms:
        raise ValueError("certificate does not conform; measure formula "
                         "would be unjustified")
    lead = abs(reciprocal_poly(k, ell).lc())
    return lead * alpha_enclosure(k, ell, width=width)


def mahler_inequality_check(k: int, ell: int) -> bool:
    """Certified verdict on |Disc| <= m^m M^(2m-2) with m = k + 1.

    Both sides are compared exactly: the right side is an endpoint power
    of the measure enclosure, kept rational rather than rounded, because
    its magnitude (like 10^-900 already at k = 12) sits far below any
    practical absolute dyadic resolution.
    """
    lhs = abs(_family_discriminant(k, ell))
    scale = (k + 1) ** (k + 1)
    for width in ladder(ALPHA_WIDTH, Fraction(1, 2**32), WIDTH_FLOOR):
        measure = mahler_measure(k, ell, width=width)
        if lhs <= scale * measure.lo ** (2 * k):
            return True
        if lhs > scale * measure.hi ** (2 * k):
            return False
    raise ArithmeticError("inequality undecided at the width floor")


# ---------------------------------------------------------------------------
# the discriminant window
# ---------------------------------------------------------------------------

def two_sided_window(k: int, ell: int,
                     precision: int = 128) -> tuple[Interval, Interval, bool]:
    """(lower, upper, alpha inside?) with the discriminant lower endpoint.

    lower = (|Disc|/lc^2k * (k+1)^-(k+1))^(1/2k); upper is the stated
    endpoint 2^(l+1) zeta(2)^(l-1) (1 + 3 d_l 4^-k).  The boolean is a
    certified strict membership verdict; False is a real answer (it is
    the honest one for l = 1, k >= 7), not a failure.
    """
    if k < 1 or ell < 1:
        raise ValueError("needs k >= 1 and ell >= 1")
    if not zero_certificate(k, ell).conforms:
        raise ValueError("certificate does not conform")
    R = reciprocal_poly(k, ell)
    prod = abs(_family_discriminant(k, ell)) / abs(R.lc()) ** (2 * k)
    lower = nth_root_enclosure(prod / (k + 1) ** (k + 1), 2 * k, precision)
    upper = stated_alpha_upper(k, ell, max(precision, 160))
    for target in ladder(ALPHA_WIDTH, Fraction(1, 2**64), WIDTH_FLOOR):
        a = alpha_enclosure(k, ell, width=target)
        if lower.hi < a.lo and a.hi < upper.lo:
            return lower, upper, True
        if a.lo > upper.hi or a.hi < lower.lo:
            return lower, upper, False
    raise ArithmeticError("membership undecided at the width floor")


# ---------------------------------------------------------------------------
# one-stop record
# ---------------------------------------------------------------------------

class AnalysisRecord:
    """The analyze workup of one member, in the fields of its document."""

    __slots__ = ("k", "ell", "discriminant", "mahler", "mahler_inequality_ok",
                 "disc_lower", "stated_upper", "alpha_in_interval")

    def __init__(self, k: int, ell: int, discriminant: Fraction,
                 mahler: Interval, mahler_inequality_ok: bool,
                 disc_lower: Interval, stated_upper: Interval,
                 alpha_in_interval: bool):
        self.k = k
        self.ell = ell
        self.discriminant = discriminant
        self.mahler = mahler
        self.mahler_inequality_ok = mahler_inequality_ok
        self.disc_lower = disc_lower
        self.stated_upper = stated_upper
        self.alpha_in_interval = alpha_in_interval


def analyze(k: int, ell: int, force: bool = False,
            precision: int = 128) -> AnalysisRecord:
    """Full exact workup of one family member.

    Refuses k beyond RESULTANT_K_CAP unless forced, since the integer
    Sylvester entries blow up factorially.  Cross-checks that the
    discriminant vanishes exactly when the squarefreeness certificate
    says it should (two independent exact routes to the same fact).
    """
    if k > RESULTANT_K_CAP and not force:
        raise ValueError(
            "k = %d exceeds the exact-resultant cap %d; pass force=True "
            "to accept the cost" % (k, RESULTANT_K_CAP))
    disc = _family_discriminant(k, ell)
    if (disc != 0) != zero_certificate(k, ell).simple:
        raise AssertionError(
            "discriminant and squarefreeness certificate disagree")
    measure = mahler_measure(k, ell)
    ok = mahler_inequality_check(k, ell)
    lower, upper, inside = two_sided_window(k, ell, precision=precision)
    return AnalysisRecord(k, ell, disc, measure, ok, lower, upper, inside)
