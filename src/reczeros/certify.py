"""Zero-location certificates for the reciprocal family.

All counting happens on the half-degree polynomial W in v = w^2 = z + 1/z
squared, produced by `family.boundary_profile`.  Writing x = z^2 for the
base polynomial's variable, a simple real root v0 of W corresponds to:

    v0 in (0, 4)   one conjugate pair of unimodular zeros x, 1/x = conj(x)
    v0 in (4, oo)  one pair of real zeros (alpha, 1/alpha) with alpha > 1
    v0 < 0         one pair of real zeros (-g, -1/g) with g > 1
    v0 non-real    two non-real zeros off the unit circle (per root)

plus a zero at x = -1 when the transform has odd parity and a zero at
x = +1 when the reversal sign is -1.  Simplicity of the full zero set is
equivalent to W being squarefree with W(0) != 0 and W(4) != 0: a root of
W at 0 or 4 forces x = -1 or x = +1 to a multiplicity of at least two,
and any repeated root of W pulls back to a repeated zero.

A certificate "conforms" when the zeros are simple, exactly one pair sits
off the circle, and that pair is real positive: then the unimodular count
is k - 1 and the off-circle pair is (alpha, 1/alpha).

The counts come from the paper's own argument first: exact signs of W at
0, at 4, at the Cauchy bound B and at the cosine grid 4 cos^2(j pi/(2(k-1))).
Floats only choose the grid points, which are rounded to dyadic rationals;
integer Horner decides every sign.  The kernels follow one rule, integers
inside and Fraction only at the boundaries: the grid signs are one
homogeneous Horner on integer numerators over 2^GRID_BITS, the values at
x = +-1 are coefficient sums, and each alpha step (u = v - 2, u^2 - 4,
its isqrt bounds, (u + s) / 2) runs on the integer numerators and
denominators of the v-box endpoints.  When W (of degree h) shows h - 1 sign
changes on [0, 4] and opposite signs at 4 and B, each change brackets its
own root, so all h roots are real and simple: h - 1 in (0, 4) and one in
(4, B).  Otherwise the counts come from a Sturm chain, which decides every
case.  The certificate records which route closed.

The zero layout depends on (k, ell) alone.  `certify_zeros` computes a
certificate; `zero_certificate` memoizes it per member, as
`family.boundary_profile` is memoized, so `alpha_enclosure`, the claim
checks, the analysis layer and the documents all take (k, ell) and share
one certificate per member in a process.

Rational zeros at roots of unity are detected separately by exact division
with cyclotomic polynomials.  Each Phi_n is monic with integer coefficients,
so the division runs on the member's integer-cleared coefficients and stays
in the integers; the orders n to try come from a totient sieve built on
first use.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import cos, inf, isqrt, pi
from typing import Sequence

from .family import boundary_profile, reciprocal_poly
from .interval import Interval
from .polycore import (
    Poly,
    RootBox,
    SturmChain,
    _dyadic_signs,
    _sign_at,
    cauchy_bound,
    isolate_real_roots,
    refine_root,
)


class ZeroCertificate:
    """Exact accounting of the zeros of one family member.

    Counts are in the base variable x (degree k + 1).  `v_box` isolates
    the W-root in (4, oo) when there is exactly one; it seeds
    `alpha_enclosure`.  When `simple` is False the counts are None.
    `route` names the argument that closed: "alternation" or "sturm".
    """

    __slots__ = (
        "k",
        "ell",
        "sigma",
        "degree",
        "simple",
        "unimodular_count",
        "positive_pair_count",
        "negative_pair_count",
        "complex_offcircle_count",
        "root_at_one",
        "root_at_minus_one",
        "conforms",
        "w_square",
        "v_box",
        "route",
    )

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "ell": self.ell,
            "sigma": self.sigma,
            "degree": self.degree,
            "simple": self.simple,
            "unimodular_count": self.unimodular_count,
            "positive_pair_count": self.positive_pair_count,
            "negative_pair_count": self.negative_pair_count,
            "complex_offcircle_count": self.complex_offcircle_count,
            "root_at_one": self.root_at_one,
            "root_at_minus_one": self.root_at_minus_one,
            "conforms": self.conforms,
        }

    def __repr__(self) -> str:
        return "ZeroCertificate(k=%d, ell=%d, conforms=%s)" % (
            self.k,
            self.ell,
            self.conforms,
        )


#: Fractional bits of the dyadic rationals the cosine grid is rounded to.
GRID_BITS = 24


def cosine_grid(n: int) -> list[int]:
    """The points 4 cos^2(j pi / (2n)), j = 1..2n-1, sorted and distinct,
    as integer numerators over 2^GRID_BITS.

    Floats place the points and each is rounded to a multiple of
    2^-GRID_BITS, so the grid is exact rationals whatever the float error;
    the alternation argument holds for any points.
    """
    scale = 1 << GRID_BITS
    return sorted({round(4 * cos(j * pi / (2 * n)) ** 2 * scale)
                   for j in range(1, 2 * n)})


def alternation_box(w: Poly, n: int) -> RootBox | None:
    """The box (4, B) of the one root of W beyond 4, when alternation proves it.

    Signs of W are taken exactly at 0, at the interior points of
    cosine_grid(n), at 4 and at the Cauchy bound B.  With h = deg W, h - 1
    sign changes on [0, 4] plus opposite signs at 4 and B bracket h
    distinct real roots in disjoint open intervals, which are all of them.
    Returns None when a sign is zero or the changes fall short.
    """
    ints = w.int_coeffs()
    four = 4 << GRID_BITS
    points = [0] + [v for v in cosine_grid(n) if 0 < v < four] + [four]
    signs = _dyadic_signs(ints, points, GRID_BITS)
    changes = sum(a != b for a, b in zip(signs, signs[1:]))
    if 0 in signs or changes != w.degree() - 1:
        return None
    bound = cauchy_bound(w)
    sign_bound = _sign_at(ints, bound)
    if sign_bound == signs[-1]:
        return None
    return RootBox(w, Fraction(4), bound, signs[-1], sign_bound)


def _sturm_counts(w: Poly):
    """(n_in, n_out, n_neg, n_cx, v_box) for W from its Sturm chain.

    None when W is not simple: a root at 0 or 4, or a repeated root.
    """
    if w(0) == 0 or w(4) == 0:
        return None
    try:
        chain = SturmChain(w)
    except ValueError:
        return None
    n_in = chain.count_open(Fraction(0), Fraction(4))
    n_out = chain.count_open(Fraction(4), inf)
    n_neg = chain.count_open(-inf, Fraction(0))
    n_real = chain.count_open(-inf, inf)
    if n_in + n_out + n_neg != n_real:
        raise AssertionError("root counts of W are inconsistent")
    v_box = None
    if n_out == 1:
        (v_box,) = isolate_real_roots(w, Fraction(4), inf, chain=chain)
    return n_in, n_out, n_neg, w.degree() - n_real, v_box


def certify_zeros(k: int, ell: int) -> ZeroCertificate:
    """Count and classify all zeros of the (k, ell) member exactly."""
    profile = boundary_profile(k, ell)
    w = profile.w_square
    m0 = 1 if profile.w_parity == "odd" else 0
    circ = 1 if profile.sigma == -1 else 0

    v_box = alternation_box(w, max(k - 1, 1))
    if v_box is not None:
        route, counts = "alternation", (w.degree() - 1, 1, 0, 0, v_box)
    else:
        route, counts = "sturm", _sturm_counts(w)

    if counts is None:
        return ZeroCertificate(
            k=k,
            ell=ell,
            sigma=profile.sigma,
            degree=k + 1,
            simple=False,
            unimodular_count=None,
            positive_pair_count=None,
            negative_pair_count=None,
            complex_offcircle_count=None,
            root_at_one=None,
            root_at_minus_one=None,
            conforms=False,
            w_square=w,
            v_box=None,
            route=route,
        )
    n_in, n_out, n_neg, n_cx, v_box = counts

    # the values at 1 and -1 are the plain and the alternating coefficient sums
    ints = reciprocal_poly(k, ell).int_coeffs()
    at_one = sum(ints) == 0
    at_minus_one = sum(ints[0::2]) == sum(ints[1::2])
    if at_minus_one != bool(m0) or at_one != bool(circ):
        raise AssertionError(
            "special zeros disagree with parity bookkeeping at k=%d, ell=%d"
            % (k, ell)
        )

    conforms = n_out == 1 and n_neg == 0 and n_cx == 0
    return ZeroCertificate(
        k=k,
        ell=ell,
        sigma=profile.sigma,
        degree=k + 1,
        simple=True,
        unimodular_count=2 * n_in + m0 + circ,
        positive_pair_count=n_out,
        negative_pair_count=n_neg,
        complex_offcircle_count=2 * n_cx,
        root_at_one=at_one,
        root_at_minus_one=at_minus_one,
        conforms=conforms,
        w_square=w,
        v_box=v_box,
        route=route,
    )


@lru_cache(maxsize=None)
def zero_certificate(k: int, ell: int) -> ZeroCertificate:
    """The (k, ell) certificate, computed once per process by certify_zeros."""
    return certify_zeros(k, ell)


#: Default width of an alpha enclosure, and the first rung of every width
#: ladder that refines one.
ALPHA_WIDTH = Fraction(1, 10**20)


def alpha_enclosure(k: int, ell: int, width: Fraction = ALPHA_WIDTH) -> Interval:
    """Enclosure, to the requested width, of the real zero alpha > 1.

    alpha and 1/alpha are the preimages of the single W-root v0 > 4 under
    x + 1/x = v - 2, so alpha = ((v0 - 2) + sqrt((v0 - 2)^2 - 4)) / 2; the
    v-box of the member's certificate is refined and the square root
    widened outward until the interval is narrow enough.
    """
    width = Fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    box = zero_certificate(k, ell).v_box
    if box is None:
        raise ValueError(
            "no isolated real pair beyond the circle at k=%d, ell=%d" % (k, ell)
        )
    return _alpha_from_box(box, width)


def _alpha_from_box(box: RootBox, width: Fraction) -> Interval:
    """The refinement loop of alpha_enclosure, on integer endpoints.

    The first pass refines the v-box to width / 8, each later one to a
    sixteenth of the previous target with 16 more square-root bits; each
    encloses alpha by _alpha_step and compares the enclosure's width with
    the target by cross-multiplication.
    """
    delta = width / 8
    bits = max(32, (width.denominator
                    // max(width.numerator, 1)).bit_length() + 16)
    wnum, wden = width.numerator, width.denominator
    while True:
        box = refine_root(box, delta)
        (lo, lo_den), (hi, hi_den) = _alpha_step(box.lo, box.hi, bits)
        if (hi * lo_den - lo * hi_den) * wden <= wnum * lo_den * hi_den:
            if lo <= lo_den:
                raise AssertionError("alpha enclosure fell inside the unit disc")
            return Interval(Fraction(lo, lo_den), Fraction(hi, hi_den))
        delta /= 16
        bits += 16


def _alpha_step(lo: Fraction, hi: Fraction,
                bits: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(numerator, denominator) of each end of (u + sqrt(u^2 - 4)) / 2 over
    u = [lo - 2, hi - 2], for 4 <= lo < hi.

    At an end p / D of the v-box, u^2 - 4 is p (p - 4D) / D^2; its square
    root s is rounded outward to a multiple of 2^-bits by isqrt, and the
    end of alpha is ((p - 2D) 2^bits + D s) / (D 2^(bits + 1)).  These are
    the values the Interval chain u**2 - 4, sqrt_enclosure, (u + s) / 2
    gives, without its Fraction reductions.
    """
    a, da = lo.numerator, lo.denominator
    b, db = hi.numerator, hi.denominator
    s_lo = isqrt((a * (a - 4 * da) << 2 * bits) // (da * da))
    arg = -((-b * (b - 4 * db) << 2 * bits) // (db * db))
    s_hi = isqrt(arg)
    if s_hi * s_hi < arg:
        s_hi += 1
    return ((((a - 2 * da) << bits) + da * s_lo, da << (bits + 1)),
            (((b - 2 * db) << bits) + db * s_hi, db << (bits + 1)))


# -- zeros at roots of unity ---------------------------------------------

_cyclo_cache: dict[int, tuple[int, ...]] = {1: (-1, 1)}
_phi_table: list[int] = []


def _divmod_monic(f: Sequence[int], g: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer f by monic integer g, over the integers."""
    rem = list(f)
    dg = len(g) - 1
    quo = [0] * (len(rem) - dg)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + dg]
        if c:
            quo[i] = c
            for j in range(dg):
                rem[i + j] -= c * g[j]
    del rem[dg:]
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


def _cyclotomic_ints(n: int) -> tuple[int, ...]:
    got = _cyclo_cache.get(n)
    if got is None:
        num = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n // 2 + 1):
            if n % d == 0:
                num, rem = _divmod_monic(num, _cyclotomic_ints(d))
                if rem:
                    raise AssertionError("cyclotomic division is not exact")
        got = _cyclo_cache[n] = tuple(num)
    return got


def cyclotomic(n: int) -> Poly:
    """The n-th cyclotomic polynomial, by exact division of x^n - 1."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("cyclotomic needs n >= 1")
    return Poly(_cyclotomic_ints(n))


def _totients(limit: int) -> list[int]:
    """Euler's phi for 0..limit (at least), from a sieve grown on demand."""
    global _phi_table
    if len(_phi_table) <= limit:
        size = max(limit + 1, 2 * len(_phi_table))
        phi = list(range(size))
        for p in range(2, size):
            if phi[p] == p:
                for m in range(p, size, p):
                    phi[m] -= phi[m] // p
        _phi_table = phi
    return _phi_table


def euler_phi(n: int) -> int:
    if not isinstance(n, int) or n < 1:
        raise ValueError("euler_phi needs n >= 1")
    return _totients(n)[n]


def roots_of_unity_zeros(k: int, ell: int) -> list[int]:
    """Orders n for which every primitive n-th root of unity is a zero.

    Scans all n with euler_phi(n) <= k+1, read from a totient sieve; since
    phi(n) >= sqrt(n/2), the scan can stop at 2 (k+1)^2.  Phi_n is monic
    with integer coefficients, so it divides the member over the rationals
    exactly when the integer remainder of r.int_coeffs() by Phi_n is zero.
    """
    ints = reciprocal_poly(k, ell).int_coeffs()
    deg = k + 1
    limit = 2 * deg * deg
    phi = _totients(limit)
    out = []
    for n in range(1, limit + 1):
        if phi[n] > deg:
            continue
        if not _divmod_monic(ints, _cyclotomic_ints(n))[1]:
            out.append(n)
    return out
