"""Zero-location certificates for the reciprocal family.

All counting happens on the half-degree polynomial W in v = x + 2 + 1/x,
produced by `family.boundary_profile` from the base polynomial's own
integer coefficients (x = z^2, so v = w^2 for w = z + 1/z), as the tuple
of W's primitive integer coefficients that every kernel here takes.  A
simple real root v0 of W corresponds to:

    v0 in (0, 4)   one conjugate pair of unimodular zeros x, 1/x = conj(x)
    v0 in (4, oo)  one pair of real zeros (alpha, 1/alpha) with alpha > 1
    v0 < 0         one pair of real zeros (-g, -1/g) with g > 1
    v0 non-real    two non-real zeros off the unit circle (per root)

plus a zero at x = -1 when W has odd parity and a zero at x = +1 when
the reversal sign is -1: the linear factors the transform divides out.
Simplicity of the full zero set is equivalent to W being squarefree
with W(0) != 0 and W(4) != 0: a root of W at 0 or 4 forces x = -1 or
x = +1 to a multiplicity of at least two, and any repeated root of W
pulls back to a repeated zero.

A certificate "conforms" when the zeros are simple, exactly one pair sits
off the circle, and that pair is real positive: then the unimodular count
is k - 1 and the off-circle pair is (alpha, 1/alpha).

The counts come from the paper's own argument first: exact signs of W at
0, at 4 and at the cosine grid 4 cos^2(j pi/(2(k-1))), and at the Cauchy
bound B the sign of W's leading coefficient, which the bound's proof gives.
Floats only choose the grid points, which are rounded to dyadic rationals;
integer Horner decides every sign.  The kernels follow one rule, integers
inside and Fraction only at the boundaries: the grid signs are one
homogeneous Horner on integer numerators over 2^GRID_BITS, the values at
x = +-1 are `Member.unit_values`, and each alpha step (u = v - 2, u^2 - 4,
its isqrt bounds, (u + s) / 2) runs on the integer numerators and
denominators of the v-box endpoints.  W's leading coefficient is positive,
so W(B) > 0.  When W (of degree h) shows h - 1 sign changes on [0, 4] and
W(4) < 0, each change brackets its own root, so all h roots are real and
simple: h - 1 in (0, 4) and one in (4, B).  Otherwise the counts come from
a Sturm chain, which decides every case.  The certificate records which
route closed.  It stores no box: a member with one pair beyond the circle
has W(4) < 0 < W(B), so `alpha_enclosure` refines (4, B), worked out
from W.

The zero layout depends on (k, ell) alone.  `certify_zeros` computes a
certificate; `zero_certificate` memoizes it per member, as
`family.boundary_profile` is memoized, so `alpha_enclosure`, the claim
checks, the analysis layer and the documents all take (k, ell) and share
one certificate per member in a process.

Zeros at roots of unity are detected separately, by cyclotomic factors.
Each Phi_n is monic with integer coefficients, so when it divides the
member R the integer Phi_n(t) divides R(t) at every integer t, and, as a
conjugate of each root of unity z is one of -z, z^2 and -z^2, also one of
R(-t), R(t^2) and R(-t^2).  At one t = 2^b beyond R's Cauchy bound, three
integer gcds of these values bound phi(n) for every order that can occur;
exact division on the member's integer coefficients decides those few.

The ladder and the stated window that verify and analyze read alpha
against are in `bounds`, which this module does not import.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from math import cos, gcd, isqrt, pi
from typing import NamedTuple, Sequence

from .family import boundary_profile, reciprocal_poly
from .interval import Interval, ceil_scaled, floor_scaled
from .polycore import (
    SturmChain,
    _divmod_monic,
    _dyadic_signs,
    _dyadic_values,
    _sign_at,
    _variations,
    cauchy_bound,
    refine_root,
)


class ZeroCertificate(NamedTuple):
    """Exact accounting of the zeros of one family member.

    Counts are in the base variable x (degree k + 1).  When `simple` is
    False the counts are None.  `route` names the argument that closed:
    "alternation" or "sturm".  The fields before it are the certificate's
    document.
    """

    k: int
    ell: int
    sigma: int
    degree: int
    simple: bool
    unimodular_count: int | None
    positive_pair_count: int | None
    negative_pair_count: int | None
    complex_offcircle_count: int | None
    root_at_one: bool | None
    root_at_minus_one: bool | None
    conforms: bool
    route: str

    def as_dict(self) -> dict:
        """The document fields, in order, as library values."""
        doc = self._asdict()
        del doc["route"]
        return doc


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


def alternation_box(w: Sequence[int], n: int) -> bool:
    """Whether alternation proves W's roots: h - 1 in (0, 4) and one in
    the box (4, B).

    Signs of W's integer coefficients are taken exactly at 0, at the
    interior points of cosine_grid(n) and at 4.  W's leading coefficient
    is positive, as `reciprocal_transform` returns it, so W is positive at
    the Cauchy bound B.  With h = deg W, h - 1 sign changes on [0, 4] plus
    W(4) < 0 bracket h distinct real roots in disjoint open intervals,
    which are all of them.  False when a sign is zero, the changes fall
    short or W(4) > 0.
    """
    four = 4 << GRID_BITS
    points = [0] + [v for v in cosine_grid(n) if 0 < v < four] + [four]
    signs = _dyadic_signs(w, points, GRID_BITS)
    changes = sum(a != b for a, b in zip(signs, signs[1:]))
    return 0 not in signs and changes == len(w) - 2 and signs[-1] < 0


def _sturm_counts(w: Sequence[int]):
    """(n_in, n_out, n_neg, n_cx) for W from its Sturm chain.

    None when W is not simple: a root at 0 or 4, or a repeated root.
    Otherwise W(0) and W(4) are nonzero, so the variation counts at -inf,
    0, 4 and +inf give the roots on each open interval between them.  At
    +-inf a chain member has the sign of its leading term.
    """
    if w[0] == 0 or _sign_at(w, 4) == 0:
        return None
    try:
        chain = SturmChain(w).chain
    except ValueError:
        return None
    at_pos = [1 if m[-1] > 0 else -1 for m in chain]
    v_neg = _variations(s if len(m) % 2 else -s for s, m in zip(at_pos, chain))
    v_zero, v_four = (_variations(_sign_at(m, x) for m in chain) for x in (0, 4))
    v_pos = _variations(at_pos)
    n_in, n_out, n_neg = v_zero - v_four, v_four - v_pos, v_neg - v_zero
    return n_in, n_out, n_neg, len(w) - 1 - (n_in + n_out + n_neg)


def certify_zeros(k: int, ell: int) -> ZeroCertificate:
    """Count and classify all zeros of the (k, ell) member exactly."""
    profile = boundary_profile(k, ell)
    w = profile.w_square
    m0 = 1 if profile.w_parity == "odd" else 0
    circ = 1 if profile.sigma == -1 else 0

    if alternation_box(w, max(k - 1, 1)):
        route, counts = "alternation", (len(w) - 2, 1, 0, 0)
    else:
        route, counts = "sturm", _sturm_counts(w)

    simple = counts is not None
    unimodular = pos = neg = cx = at_one = at_minus_one = None
    conforms = False
    if simple:
        n_in, n_out, n_neg, n_cx = counts
        one, minus_one, _ = reciprocal_poly(k, ell).unit_values()
        at_one, at_minus_one = one == 0, minus_one == 0
        if at_minus_one != bool(m0) or at_one != bool(circ):
            raise AssertionError("special zeros disagree with parity "
                                 "bookkeeping at k=%d, ell=%d" % (k, ell))
        unimodular, pos, neg, cx = 2 * n_in + m0 + circ, n_out, n_neg, 2 * n_cx
        conforms = n_out == 1 and n_neg == 0 and n_cx == 0
    return ZeroCertificate(
        k=k,
        ell=ell,
        sigma=profile.sigma,
        degree=k + 1,
        simple=simple,
        unimodular_count=unimodular,
        positive_pair_count=pos,
        negative_pair_count=neg,
        complex_offcircle_count=cx,
        root_at_one=at_one,
        root_at_minus_one=at_minus_one,
        conforms=conforms,
        route=route,
    )


@lru_cache(maxsize=None, typed=True)
def zero_certificate(k: int, ell: int) -> ZeroCertificate:
    """The (k, ell) certificate, computed once per process by certify_zeros."""
    return certify_zeros(k, ell)


#: Default width of an alpha enclosure, and the first rung of every width
#: ladder that refines one.
ALPHA_WIDTH = Fraction(1, 10**20)


def alpha_enclosure(k: int, ell: int, width: Fraction = ALPHA_WIDTH) -> Interval:
    """Enclosure, to the requested width, of the real zero alpha > 1.

    alpha and 1/alpha are the preimages of the single W-root v0 > 4 under
    x + 1/x = v - 2, so alpha = ((v0 - 2) + sqrt((v0 - 2)^2 - 4)) / 2.  A
    member whose certificate counts one such pair has W(4) < 0 < W(B) at
    the Cauchy bound B of W; the box (4, B) is refined and the square root
    widened outward until the interval is narrow enough.
    """
    width = Fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    if zero_certificate(k, ell).positive_pair_count != 1:
        raise ValueError(
            "no isolated real pair beyond the circle at k=%d, ell=%d" % (k, ell)
        )
    w = boundary_profile(k, ell).w_square
    return _alpha_from_box(Interval(4, cauchy_bound(w)), w, width)


def _alpha_from_box(box: Interval, w: Sequence[int],
                    width: Fraction) -> Interval:
    """The refinement loop of alpha_enclosure, on integer endpoints, for a
    box (4, hi) on which W rises through its one simple root.

    The first pass refines the v-box to width / 8, each later one to a
    sixteenth of the previous target with 16 more square-root bits; each
    encloses alpha by _alpha_step and compares the enclosure's width with
    the target by cross-multiplication.  A box whose lower end is still 4,
    where alpha's lower end would be 1, is not narrow enough whatever its
    width: W(4) != 0, so refining moves that end off 4.  Passes whose
    target is at least the box's width leave it as it is, so they are
    skipped at once, with delta and bits advanced as those passes would.
    """
    delta = width / 8
    bits = max(32, (width.denominator
                    // max(width.numerator, 1)).bit_length() + 16)
    # the least m with delta / 16^m below the box's width: a lower bound
    # from bit lengths, then exact steps up
    ratio = delta / (box.hi - box.lo)
    m = max(0, ratio.numerator.bit_length()
            - ratio.denominator.bit_length() - 1) // 4
    while ratio >= 16 ** m:
        m += 1
    delta /= 16 ** m
    bits += 16 * m
    wnum, wden = width.numerator, width.denominator
    while True:
        box = refine_root(box, w, delta)
        (lo, lo_den), (hi, hi_den) = _alpha_step(box.lo, box.hi, bits)
        if box.lo > 4 and ((hi * lo_den - lo * hi_den) * wden
                           <= wnum * lo_den * hi_den):
            if lo <= lo_den:
                raise AssertionError("alpha enclosure fell inside the unit disc")
            return Interval(Fraction(lo, lo_den), Fraction(hi, hi_den))
        delta /= 16
        bits += 16


def _alpha_step(lo: Fraction, hi: Fraction,
                bits: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(numerator, denominator) of each end of (u + sqrt(u^2 - 4)) / 2 over
    u = [lo - 2, hi - 2], for 4 <= lo < hi.

    At an end p / D of the v-box, u^2 - 4 is p (p - 4D) / D^2; it is
    rounded outward to a multiple of 2^(-2 bits) by floor_scaled and
    ceil_scaled, its square root s to a multiple of 2^-bits by isqrt, and the
    end of alpha is ((p - 2D) 2^bits + D s) / (D 2^(bits + 1)).  These are
    the values the Interval reference in tests/test_enclosure_reference.py
    gives, without its Fraction reductions.
    """
    a, da = lo.numerator, lo.denominator
    b, db = hi.numerator, hi.denominator
    s_lo = isqrt(floor_scaled(a * (a - 4 * da), da * da, 2 * bits))
    arg = ceil_scaled(b * (b - 4 * db), db * db, 2 * bits)
    s_hi = isqrt(arg)
    if s_hi * s_hi < arg:
        s_hi += 1
    return ((((a - 2 * da) << bits) + da * s_lo, da << (bits + 1)),
            (((b - 2 * db) << bits) + db * s_hi, db << (bits + 1)))


# -- zeros at roots of unity ---------------------------------------------

@lru_cache(maxsize=None, typed=True)
def _cyclotomic_ints(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, by exact division of
    x^n - 1 by each Phi_d for the proper divisors d of n; memoized per n.
    For n = 1 there is no divisor to take out, so Phi_1 is x^n - 1 itself."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n // 2 + 1):
        if n % d == 0:
            num, rem = _divmod_monic(num, _cyclotomic_ints(d))
            if rem:
                raise AssertionError("cyclotomic division is not exact")
    return tuple(num)


def _phi(n: int) -> int:
    """Euler's totient of n >= 1, by trial division.

    >>> [_phi(n) for n in (1, 2, 12, 97, 360)]
    [1, 1, 4, 96, 96]
    """
    out = m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


def roots_of_unity_zeros(k: int, ell: int) -> list[int]:
    """Orders n for which every primitive n-th root of unity is a zero of
    the (k, ell) member: `_unity_orders` of its integer coefficients."""
    return _unity_orders(reciprocal_poly(k, ell).ints)


def _unity_orders(ints: Sequence[int]) -> list[int]:
    """Orders n for which Phi_n divides the integer polynomial f.

    For a root of unity z, one of -z, z^2 and -z^2 is a conjugate of z
    (Beukers & Smyth, "Cyclotomic points on curves", 2002, Lemma 1), so a
    Phi_n that divides f also divides one of g = f(-x), f(x^2), f(-x^2).
    Phi_n is monic, so the integer Phi_n(t) divides gcd(f(t), g(t)) at
    every integer t.  At t = 2^b beyond the Cauchy bound f(t) is not 0,
    and Phi_n(t) >= (t - 1)^phi(n) >= 2^((b - 1) phi(n)), so the largest of
    the three gcds bounds phi(n) by D.  As phi(n) >= sqrt(n / 2), only the
    n <= 2 D^2 with phi(n) <= D can occur.  Exact division decides each,
    and divides a found Phi_n out of a running quotient; the scan stops
    once n passes 2 deg^2 of that quotient, which no order beyond can
    divide, so x^N - 1 takes N orders, not 2 N^2.

    >>> _unity_orders([1, 0, 0, 1])  # x^3 + 1 = Phi_2 Phi_6
    [2, 6]
    """
    # b - 2 bits hold max|c_i| / |c_n|, so t > 1 + max|c_i / c_n|.  The
    # 24-bit floor keeps common factors of the values that are no values
    # of Phi_n from raising D: at 8 bits D reached 3 on members with no
    # order past 2, and 64 bits only makes the gcds slower.
    b = max(24, (max(map(abs, ints)) // abs(ints[-1])).bit_length() + 2)
    t = 1 << b
    at_t, *others = _dyadic_values(ints, (t, -t, t * t, -t * t), 0)
    common = max(gcd(at_t, v) for v in others)
    top = min(len(ints) - 1, (common.bit_length() - 1) // (b - 1))
    orders, rest = [], ints
    for n in range(1, 2 * top * top + 1):
        if n > 2 * (len(rest) - 1) ** 2:  # so phi(n) > deg rest
            break
        if _phi(n) <= top:
            quo, rem = _divmod_monic(rest, _cyclotomic_ints(n))
            if not rem:
                orders.append(n)
                rest = quo
    return orders


# -- what claims shares, so that only verify runs it: the default
# precision, the grid bounds, the suite names and the pool map --

DEFAULT_PRECISION = 128

#: Most values one --k or --ell flag may name, counted before
#: deduplication, and most (k, ell) instances one grid may hold;
#: claims.run_all refuses a larger claim grid.
MAX_RANGE_VALUES = 10_000

#: Suite names for partial claims.run_all runs: exact/enclosure inequality
#: chains ("lemmas"), structural facts about the polynomials themselves
#: ("props"), the real-pair window checks ("intervals"), or everything.
SUITES = ("lemmas", "props", "intervals", "all")


def map_calls(calls, jobs: int | None) -> list:
    """[fn(*args) for fn, args in calls], in order, on a pool when jobs > 1.

    The pool gets min(jobs, len(calls), os.cpu_count()) workers; with one
    worker or fewer the calls run in this process.  Results do not depend
    on the worker count.
    """
    workers = min(jobs or 1, len(calls), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(*args) for fn, args in calls]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *args) for fn, args in calls]
        return [fut.result() for fut in futures]
