"""Verifiers for the quantitative inequalities behind the zero certificates.

Each checker establishes one arithmetic fact -- an inequality chain, a sign
pattern on the unit circle, or an interval membership -- over a requested
parameter range.  Facts that live in Q are decided by exact rational
arithmetic and can only pass or fail; the lemma sums (the majorant and
the G/H sums) run it on integers, numerators over one denominator per
(k, l) compared by cross-multiplication, and build a Fraction only for
a witness or a printed margin.  Facts involving zeta values or pi go
through certified enclosures that are tightened until a sign is decided,
and may additionally come back "inconclusive" when the ladder runs out
first.  There is one ladder, `bounds.ladder`: precisions double up to
the constant PRECISION_CAP, which no setting changes, and widths shrink
toward WIDTH_FLOOR.  The stated upper window endpoint is built only by
bounds.stated_alpha_upper, and alpha is read against it only along
bounds.window_walk, whose first rung takes it at WINDOW_PRECISION; the
window checks and analysis.analyze share that walk.  Values of a polynomial at
+-1 are coefficient sums on its integer coefficients, so the exact checks
follow the integer rule of the kernels; a fail witness still carries the
exact Fraction value.
Results (ClaimResult, VerificationReport) are NamedTuples, the one record
idiom of the package, which keeps `dataclasses` and its imports out of
every command; serialize owns their wire form.  run_all refuses a grid
of more than MAX_RANGE_VALUES instances, the bound the command line
reads too.

A "finding" is a result that contradicts or sharpens the expected
statement without invalidating the surrounding certificates: the single
equality corner of the index-ratio bound, the informational k = 2 window
report, and -- most substantially -- the l = 1 upper window endpoint,
which the checker refutes with certified enclosures for every k >= 7 and
replaces with the endpoint 4 + 3/k that the same derivation supports.
Findings always carry enough witness data to reproduce the verdict.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .bounds import (PRECISION_CAP, WINDOW_PRECISION, c_of,
                     corrected_alpha_upper, cos_pi_square, epsilon,
                     horner_sign, ladder, pi_enclosure, pow_rounded, q,
                     window_walk, zeta_even_enclosure, zeta_series_enclosure)
from .certify import (DEFAULT_PRECISION, MAX_RANGE_VALUES, SUITES, map_calls,
                      zero_certificate)
from .exactnum import zeta_even_rational
from .family import boundary_profile, reciprocal_poly
from .interval import Interval, dyadic_mantissa
from .polycore import _sign_at

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
FINDING = "finding"

#: Exact constants of the majorant chain: the per-index tail weights never
#: exceed 306/1000, and their sum over 2 <= j <= k-1 stays below 2762/10000.
EPS_SINGLE_CAP = Fraction(306, 1000)
EPS_TOTAL_CAP = Fraction(2762, 10000)


def _exp2(x) -> int:
    """Integer within 1 of log2(x) for positive x; compact margin summary."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("needs a positive value")
    return x.numerator.bit_length() - x.denominator.bit_length()


class ClaimResult(NamedTuple):
    """One claim's verdict over the parameters it covered.

    `witness` holds the data that decided a fail, finding or inconclusive
    verdict (None on pass), `data` the summary figures, `detail` one line
    of prose.
    """

    claim_id: str
    params: dict
    status: str
    witness: dict | None
    data: dict
    detail: str

    @property
    def ok(self) -> bool:
        return self.status in (PASS, FINDING)


class VerificationReport(NamedTuple):
    """The results of one run_all, in plan order, with the grid they cover."""

    k_max: int
    ell_max: int
    precision: int
    results: tuple

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, INCONCLUSIVE: 0, FINDING: 0}
        for r in self.results:
            out[r.status] = out.get(r.status, 0) + 1
        return out


#: The detail of a claim that holds vacuously: nothing in range to check.
EMPTY_RANGE = "empty parameter range"


def _vacuous(claim_id: str, params: dict) -> ClaimResult:
    return ClaimResult(claim_id, params, PASS, None, {"checked": 0},
                       EMPTY_RANGE)


# ---------------------------------------------------------------------------
# zeta-value inequalities
# ---------------------------------------------------------------------------

def check_zeta_bounds(n_max: int) -> ClaimResult:
    """1 + 2^-n < zeta(n) < 1 + ((n+1)/(n-1)) 2^-n for 2 <= n <= n_max.

    Even arguments use the exact Bernoulli formula, odd ones a partial sum
    with an integral tail bound.  The gap on the lower side shrinks like
    3^-n, so the starting precision is sized to ~1.6 n bits.
    """
    if n_max < 2:
        raise ValueError("needs n_max >= 2")
    max_pr = 0
    tight = None
    for n in range(2, n_max + 1):
        lo_bound = 1 + Fraction(1, 2**n)
        hi_bound = 1 + Fraction(n + 1, n - 1) / 2**n
        for pr in ladder(max(24, (8 * n) // 5 + 16), 2, PRECISION_CAP):
            try:
                if n % 2 == 0:
                    enc = zeta_even_enclosure(n // 2, pr)
                else:
                    enc = zeta_series_enclosure(n, pr)
            except ValueError:
                return ClaimResult(
                    "zeta-bounds", {"n_min": 2, "n_max": n_max}, INCONCLUSIVE,
                    {"n": n, "precision": pr}, {},
                    "series budget exhausted before the sign was decided")
            if lo_bound < enc.lo and enc.hi < hi_bound:
                break
            if enc.hi <= lo_bound or enc.lo >= hi_bound:
                return ClaimResult(
                    "zeta-bounds", {"n_min": 2, "n_max": n_max}, FAIL,
                    {"n": n, "enclosure": enc}, {},
                    "enclosure escaped the stated bracket")
        else:
            return ClaimResult(
                "zeta-bounds", {"n_min": 2, "n_max": n_max}, INCONCLUSIVE,
                {"n": n, "precision_cap": PRECISION_CAP}, {},
                "undecided at the precision cap")
        max_pr = max(max_pr, pr)
        margin = min(enc.lo - lo_bound, hi_bound - enc.hi)
        scaled = margin * 2**n
        if tight is None or scaled < tight[1]:
            tight = (n, scaled)
    data = {
        "max_precision": max_pr,
        "tightest_n": tight[0],
        "tightest_margin_exp2": _exp2(tight[1] / 2 ** tight[0]),
    }
    return ClaimResult("zeta-bounds", {"n_min": 2, "n_max": n_max}, PASS, None,
                       data, "bracketed %d arguments" % (n_max - 1))


def check_quotient_bound(k_max: int) -> ClaimResult:
    """zeta(2k+2-2j)/zeta(2k+2) - 1 < 3*4^(j-k-1) for 1 <= j <= k <= k_max.

    The quotient is an exact rational times pi^(-2j); a certified pi power
    at ~2(k+1-j)+64 bits separates it from the bound, escalating if needed.
    With rat = rn/rd, a pi-power endpoint p = pn/pd and bound = 3/4^e, the
    test rat/p - 1 < bound is the integer comparison
    rn * pd * 4^e < (4^e + 3) * rd * pn; the relative margin of each pair
    stays an integer pair, and only the tightest becomes a Fraction.
    """
    if k_max < 1:
        raise ValueError("needs k_max >= 1")
    params = {"k_min": 1, "k_max": k_max}
    max_pr = 0
    tight = None
    for k in range(1, k_max + 1):
        r_den = zeta_even_rational(k + 1)
        for j in range(1, k + 1):
            e4 = 4 ** (k + 1 - j)
            rat = zeta_even_rational(k + 1 - j)
            rn = rat.numerator * r_den.denominator
            rd = rat.denominator * r_den.numerator
            for pr in ladder(2 * (k + 1 - j) + 64, 2, PRECISION_CAP):
                power = pow_rounded(pi_enclosure(pr), 2 * j, pr + 16)
                pn, pd = power.lo.numerator, power.lo.denominator
                if rn * pd * e4 < (e4 + 3) * rd * pn:  # excess.hi < bound
                    break
                if (rn * power.hi.denominator * e4
                        >= (e4 + 3) * rd * power.hi.numerator):
                    # the quotient rn/rd over the pi power, less 1; both
                    # are positive, so the ends pair up crosswise
                    ratio = Fraction(rn, rd)
                    excess = Interval(ratio / power.hi - 1, ratio / power.lo - 1)
                    return ClaimResult(
                        "zeta-quotient-bound", params, FAIL,
                        {"k": k, "j": j, "excess": excess}, {},
                        "bound violated")
            else:
                return ClaimResult(
                    "zeta-quotient-bound", params, INCONCLUSIVE,
                    {"k": k, "j": j, "precision_cap": PRECISION_CAP}, {},
                    "undecided at the precision cap")
            max_pr = max(max_pr, pr)
            # (bound - excess.hi) / bound = rel_n / rel_d
            rel_d = 3 * rd * pn
            rel_n = rel_d - e4 * (rn * pd - rd * pn)
            if tight is None or rel_n * tight[3] < tight[2] * rel_d:
                tight = (k, j, rel_n, rel_d)
    data = {
        "pairs": k_max * (k_max + 1) // 2,
        "max_precision": max_pr,
        "tightest": {"k": tight[0], "j": tight[1],
                     "rel_margin_exp2": _exp2(Fraction(tight[2], tight[3]))},
    }
    return ClaimResult("zeta-quotient-bound", params, PASS, None, data,
                       "strict on %d pairs" % data["pairs"])


def check_ratio_max(k_max: int) -> ClaimResult:
    """(2j+1)(2k+3-2j)/((2j-1)(2k+1-2j)) vs 25/9 on 2 <= j <= k-1, k >= 3.

    Strict inequality everywhere except the corner (k, j) = (3, 2), where
    the ratio equals 25/9 exactly; that corner is reported as a finding.
    """
    if k_max < 3:
        raise ValueError("needs k_max >= 3")
    top = Fraction(25, 9)
    params = {"k_min": 3, "k_max": k_max}
    equalities = []
    checked = 0
    for k in range(3, k_max + 1):
        for j in range(2, k):
            checked += 1
            value = Fraction((2 * j + 1) * (2 * k + 3 - 2 * j),
                             (2 * j - 1) * (2 * k + 1 - 2 * j))
            if value > top:
                return ClaimResult("index-ratio-bound", params, FAIL,
                                   {"k": k, "j": j, "value": value}, {},
                                   "ratio exceeds 25/9")
            if value == top:
                equalities.append({"k": k, "j": j})
    data = {"checked": checked, "equalities": equalities}
    if equalities == [{"k": 3, "j": 2}]:
        return ClaimResult(
            "index-ratio-bound", params, FINDING,
            {"k": 3, "j": 2, "value": top}, data,
            "strict on %d pairs; equality at the single corner (3, 2)"
            % (checked - 1))
    if equalities:
        return ClaimResult("index-ratio-bound", params, FAIL,
                           {"equalities": equalities}, data,
                           "unexpected equality cases")
    return ClaimResult("index-ratio-bound", params, PASS, None, data,
                       "strict on %d pairs" % checked)


def check_zeta_sum_identity(terms: int) -> ClaimResult:
    """Certified bracket around sum_{j>=1} zeta(2j)/4^j = 1/2.

    The partial sum uses exact Bernoulli enclosures, summed as integers
    over one power of two.  For the tail over j > N, the first series
    term and the integral comparison give
    4^-j < zeta(2j) - 1 < 3*4^-j, so the tail lies strictly between
    4^-N/3 + 16^-N/15 and 4^-N/3 + 16^-N/5, an exact rational bracket.
    """
    if terms < 4:
        raise ValueError("needs at least 4 terms")
    pr = max(DEFAULT_PRECISION, terms + 64)
    half = Fraction(1, 2)
    # sum_j zeta(2j)/4^j over 2^scale (the enclosure ends are multiples of
    # 2^-(pr + 16)), last index first so the Bernoulli table is built once
    scale = pr + 16 + 2 * terms
    lo = hi = 0
    for j in range(terms, 0, -1):
        enc = zeta_even_enclosure(j, pr)
        lo += dyadic_mantissa(enc.lo, scale - 2 * j)
        hi += dyadic_mantissa(enc.hi, scale - 2 * j)
    tail_lo = Fraction(1, 3 * 4**terms) + Fraction(1, 15 * 16**terms)
    tail_hi = Fraction(1, 3 * 4**terms) + Fraction(1, 5 * 16**terms)
    bracket = Interval(Fraction(lo, 1 << scale) + tail_lo,
                       Fraction(hi, 1 << scale) + tail_hi)
    params = {"terms": terms}
    if not bracket.lo < half < bracket.hi:
        return ClaimResult("zeta-sum-half", params, FAIL,
                           {"bracket": bracket}, {},
                           "bracket misses 1/2")
    data = {
        "precision": pr,
        "width": bracket.width(),
        "width_exp2": _exp2(bracket.width()),
    }
    return ClaimResult("zeta-sum-half", params, PASS, None, data,
                       "bracket width ~2^%d" % data["width_exp2"])


def check_qj_monotone(k_max: int) -> ClaimResult:
    """q(k, .) strictly decreases on 1..floor((k+1)/2) for every k <= k_max.

    By the j <-> k+1-j symmetry this pins the whole profile: largest at the
    ends, smallest in the middle.  Fully exact.
    """
    if k_max < 2:
        raise ValueError("needs k_max >= 2")
    params = {"k_min": 2, "k_max": k_max}
    comparisons = 0
    tight = None
    for k in range(2, k_max + 1):
        prev = q(k, 1)
        for j in range(2, (k + 1) // 2 + 1):
            cur = q(k, j)
            if not cur < prev:
                return ClaimResult("q-monotone", params, FAIL,
                                   {"k": k, "j": j, "q_j": cur,
                                    "q_prev": prev}, {},
                                   "profile fails to decrease")
            comparisons += 1
            gap = prev - cur
            if tight is None or gap < tight[2]:
                tight = (k, j, gap)
            prev = cur
    data = {"comparisons": comparisons}
    if tight is not None:
        data["tightest"] = {"k": tight[0], "j": tight[1],
                            "gap_exp2": _exp2(tight[2])}
    return ClaimResult("q-monotone", params, PASS, None, data,
                       "%d strict comparisons" % comparisons)


# ---------------------------------------------------------------------------
# the off-profile majorant
# ---------------------------------------------------------------------------

def _q_numerators(k: int, js) -> tuple[list[int], int]:
    """q(k, j) for j in js as integer numerators u_j over one denominator m.

    Each q(k, j) is read once as a reduced pair; m is the lcm of their
    denominators, so q(k, j)^l = u_j^l / m^l for every exponent l.
    """
    qs = [q(k, j) for j in js]
    m = lcm(*(x.denominator for x in qs))
    return [x.numerator * (m // x.denominator) for x in qs], m


def check_delta_bound(k_range, ell_range) -> ClaimResult:
    """2^l sum_{j=2}^{k-1} (q_j^l - 1) < 2^l c_l (2762/10000), exactly.

    Verifies the full chain behind the majorant: each q_j - 1 is below the
    explicit tail weight eps(k, j), every weight is at most 306/1000 so the
    secant slope c_l = c_of(306/1000, l) applies, q_j^l - 1 < c_l eps(k, j),
    and the weights sum below 2762/10000.  Every comparison is between
    integer products: q_j = u_j / m over one denominator per k, each
    eps(k, j) is an integer pair, and the weight sum is taken over m^l.
    """
    k_lo, k_hi = k_range
    l_lo, l_hi = ell_range
    if k_lo < 3:
        raise ValueError("needs k >= 3")
    params = {"k": [k_lo, k_hi], "ell": [l_lo, l_hi]}
    slopes = [(ell, c_of(EPS_SINGLE_CAP, ell)) for ell in range(l_lo, l_hi + 1)]
    one_n, one_d = EPS_SINGLE_CAP.numerator, EPS_SINGLE_CAP.denominator
    cap_n, cap_d = EPS_TOTAL_CAP.numerator, EPS_TOTAL_CAP.denominator
    tight = None  # (k, ell, rel numerator, rel denominator)
    checked = 0
    for k in range(k_lo, k_hi + 1):
        js = range(2, k)
        eps = [epsilon(k, j) for j in js]  # integer pairs e / f
        den = lcm(*(f for _, f in eps))
        total = sum(e * (den // f) for e, f in eps)
        if not total * cap_d < cap_n * den:
            return ClaimResult("delta-majorant", params, FAIL,
                               {"k": k, "eps_sum": Fraction(total, den)}, {},
                               "tail weights exceed the cap")
        if any(e * one_d > one_n * f for e, f in eps):
            return ClaimResult("delta-majorant", params, FAIL,
                               {"k": k}, {}, "single tail weight too large")
        us, m = _q_numerators(k, js)
        for j, u, (e, f) in zip(js, us, eps):
            if not (u - m) * f < e * m:
                return ClaimResult("delta-majorant", params, FAIL,
                                   {"k": k, "j": j, "q": Fraction(u, m),
                                    "eps": Fraction(e, f)}, {},
                                   "per-index weight bound fails")
        for ell, c in slopes:
            cn, cd = c.numerator, c.denominator
            mp = m**ell
            powers = [u**ell for u in us]
            for j, p, (e, f) in zip(js, powers, eps):
                if not (p - mp) * cd * f < cn * e * mp:
                    return ClaimResult("delta-majorant", params, FAIL,
                                       {"k": k, "j": j, "ell": ell}, {},
                                       "secant-slope step fails")
            # the weight is 2^l wn / m^l; weight / bound = x / y
            wn = sum(powers) - len(powers) * mp
            x, y = wn * cd * cap_d, cn * cap_n * mp
            if not x < y:
                return ClaimResult("delta-majorant", params, FAIL,
                                   {"k": k, "ell": ell,
                                    "weight": Fraction(2**ell * wn, mp),
                                    "bound": 2**ell * c * EPS_TOTAL_CAP}, {},
                                   "majorant bound fails")
            checked += 1
            # the relative margin (bound - weight) / bound is (y - x) / y
            if tight is None or (y - x) * tight[3] < tight[2] * y:
                tight = (k, ell, y - x, y)
    data = {"instances": checked}
    if tight is not None:
        data["tightest"] = {"k": tight[0], "ell": tight[1],
                            "rel_margin_milli": tight[2] * 1000 // tight[3]}
    return ClaimResult("delta-majorant", params, PASS, None, data,
                       "exact on %d instances" % checked)


# ---------------------------------------------------------------------------
# boundary sign patterns
# ---------------------------------------------------------------------------

def check_sign_pattern(k: int, ell: int, precision: int = DEFAULT_PRECISION) -> ClaimResult:
    """Alternating boundary signs of the companion at an explicit theta grid.

    With w = 2 cos theta the companion restricted to the unit circle is a
    real profile: T(w) when the reversal sign is +1, and 2 sin(theta) T(w)
    when it is -1.  The grid depends on the parities:

      l odd, or l even with k odd:  theta_j = j pi/(k-1), j = 0..2k-3,
                                    expected sign (-1)^(j+1);
      l and k both even:            theta_j = (2j-1) pi/(2(k-1)),
                                    j = 1..2k-2, expected sign (-1)^j.

    Alternation at the full cyclic grid forces 2k-2 sign changes per turn,
    which is exactly the number of unimodular zero pairs times two.  T is
    read through W: T(w) = W(w^2), times w when W's parity is odd, so
    every sign is taken on the integer coefficients of W, and w's sign
    comes from theta / pi = p / den.  W(4 cos^2 theta) depends only on
    p / den mod 1 up to r <-> 1 - r, so it is decided once per such class,
    at its first grid point: exactly by `_sign_at` where 4 cos^2 theta is
    4, 0 or 1, elsewhere by `horner_sign` on the mantissas of
    `cos_pi_square`, with an escalating precision ladder.
    """
    if k < 3:
        raise ValueError("needs k >= 3")
    prof = boundary_profile(k, ell)
    # W's primitive integer coefficients: integer Horner steps
    ints = prof.w_square
    odd = prof.w_parity == "odd"
    even_even = ell % 2 == 0 and k % 2 == 0
    # (j, p, expected) with theta_j / pi = p / den
    if even_even:
        den = 2 * (k - 1)
        points = [(j, 2 * j - 1, 1 if j % 2 == 0 else -1)
                  for j in range(1, 2 * k - 1)]
        case = "ell even, k even"
    else:
        den = k - 1
        points = [(j, j, -1 if j % 2 == 0 else 1) for j in range(0, 2 * k - 2)]
        case = "ell odd" if ell % 2 else "ell even, k odd"
    if prof.sigma != (-1 if even_even else 1):
        raise AssertionError("reversal sign disagrees with the parity split")
    cid = "sign-pattern-k%d-l%d" % (k, ell)
    params = {"k": k, "ell": ell, "precision": precision}
    signs = []
    exact_points = 0
    max_pr = 0
    decided = {}  # cos^2 class -> (sign of W(4 cos^2), precision; 0 if exact)
    for j, p, expected in points:
        cls = min(p % den, -p % den)
        got = decided.get(cls)
        if got is None:
            reduced = den // gcd(cls, den)
            if reduced <= 3:
                got = (_sign_at(ints, (4, 0, 1)[reduced - 1]), 0)
            else:
                for pr in ladder(max(precision, 64), 2, PRECISION_CAP):
                    # W(4 cos^2): the factor 4 is folded into the exponent
                    lo, hi = cos_pi_square(cls, den, pr)
                    s = horner_sign(ints, lo, hi, 2 * pr + 14,
                                    pr + len(ints) + 8)
                    if s:
                        break
                else:
                    return ClaimResult(
                        cid, params, INCONCLUSIVE,
                        {"j": j, "precision_cap": PRECISION_CAP}, {},
                        "grid sign undecided at the precision cap")
                got = (s, pr)
            decided[cls] = got
        s, pr = got
        if odd:
            # w = 2 cos(pi p / den) < 0 exactly when p mod 2den lies in
            # (den/2, 3den/2), and w = 0 at either end
            t = 2 * (p % (2 * den))
            s *= 0 if t in (den, 3 * den) else -1 if den < t < 3 * den else 1
        if not pr:
            if s == 0:
                return ClaimResult(cid, params, FAIL,
                                   {"j": j, "theta_over_pi": Fraction(p, den)},
                                   {}, "profile vanishes at a grid point")
            exact_points += 1
        max_pr = max(max_pr, pr)
        if prof.sigma < 0 and p > den:
            s = -s
        if s != expected:
            return ClaimResult(cid, params, FAIL,
                               {"j": j, "theta_over_pi": Fraction(p, den),
                                "got": s, "expected": expected}, {},
                               "grid sign disagrees")
        signs.append(s)
    m = len(signs)
    changes = sum(1 for i in range(m) if signs[i] != signs[(i + 1) % m])
    data = {
        "case": case,
        "points": m,
        "exact_points": exact_points,
        "sign_changes": changes,
        "max_precision": max_pr,
    }
    return ClaimResult(cid, params, PASS, None, data,
                       "%d alternating points, %d sign changes" % (m, changes))


# ---------------------------------------------------------------------------
# values at +-1 and the derivative sums
# ---------------------------------------------------------------------------

def _companion_at_one(k: int, ell: int) -> tuple[int, int, int]:
    """(a, b, c) with m(1) = a / c and m'(1) = b / c for the monic
    companion m(z) = R(z^2) / lc(R).

    m(1) = R(1) / lc and m'(1) = 2 R'(1) / lc, so for R's integer
    coefficients the two numerators are the plain and twice the
    index-weighted sums of them, and c is the top one.
    """
    ints = reciprocal_poly(k, ell).ints
    return (sum(ints), 2 * sum(i * c for i, c in enumerate(ints)), ints[-1])


def check_pm1_zero(k_max: int, ell_max: int) -> ClaimResult:
    """Exact vanishing pattern at the unit points.

    For even k the base polynomial vanishes at +1 when l is even and at -1
    when l is odd, and only there; for odd k it vanishes at neither point.
    """
    params = {"k_max": k_max, "ell_max": ell_max}
    checked = 0
    for k in range(1, k_max + 1):
        for ell in range(1, ell_max + 1):
            # the plain and the alternating sums of r's integer
            # coefficients are positive multiples of r(1) and r(-1)
            r = reciprocal_poly(k, ell)
            ints = r.ints
            at_one = sum(ints)
            at_minus = sum(ints[0::2]) - sum(ints[1::2])
            if k % 2 == 0:
                want_zero, want_nonzero = (
                    (at_one, at_minus) if ell % 2 == 0 else (at_minus, at_one))
                good = want_zero == 0 and want_nonzero != 0
            else:
                good = at_one != 0 and at_minus != 0
            if not good:
                return ClaimResult("unit-values", params, FAIL,
                                   {"k": k, "ell": ell,
                                    "at_one": r.scale * at_one,
                                    "at_minus_one": r.scale * at_minus}, {},
                                   "vanishing pattern violated")
            checked += 1
    return ClaimResult("unit-values", params, PASS, None,
                       {"checked": checked},
                       "pattern exact on %d instances" % checked)


def check_GH_signs(k_max: int, ell_max: int) -> ClaimResult:
    """Signs of the alternating sums G and H for even exponents, exactly.

    G = sum_j (-1)^j q_j^l (k odd) stays below -1, which makes the
    companion value at 1 equal to 2 + 2^l G < 0.  H = (2^l/(k+1))
    sum_j (-1)^j j q_j^l (k even) stays above 1, hence above 3/2 from k=4
    on, which makes the companion derivative at 1 equal to
    (2k+2)(1 - H) < 0.  The k=2 value collapses to (2 q_1)^l / 3.  With
    q_j = u_j / m, each sum is an integer over m^l, and every test
    cross-multiplies integers.
    """
    params = {"k_max": k_max, "ell_max": ell_max}
    if k_max < 1 or ell_max < 2:
        return _vacuous("derivative-sign-sums", params)
    checked = 0
    g_tight = None  # (k, ell, numerator, denominator), as for h_tight
    h_tight = None
    numerators = [_q_numerators(k, range(1, k + 1))
                  for k in range(1, k_max + 1)]
    for ell in range(2, ell_max + 1, 2):
        for k in range(1, k_max + 1):
            us, m = numerators[k - 1]
            mp = m**ell
            at_one, slope, lc = _companion_at_one(k, ell)
            if k % 2 == 1:
                gn = sum(-u**ell if j % 2 else u**ell
                         for j, u in enumerate(us, 1))
                # G = gn / mp, and the companion value at 1 is value / mp
                value = 2 * mp + 2**ell * gn
                if not (gn < -mp and at_one * mp == value * lc
                        and value < 0):
                    return ClaimResult("derivative-sign-sums", params, FAIL,
                                       {"k": k, "ell": ell,
                                        "G": Fraction(gn, mp)}, {},
                                       "alternating sum fails its sign")
                if g_tight is None or gn * g_tight[3] > g_tight[2] * mp:
                    g_tight = (k, ell, gn, mp)
            else:
                alt = sum(-j * u**ell if j % 2 else j * u**ell
                          for j, u in enumerate(us, 1))
                # H = hn / hd, and the slope at 1 is (2k+2)(hd - hn) / hd
                hn, hd = 2**ell * alt, (k + 1) * mp
                good = (hn > hd and at_one == 0
                        and slope * hd == (2 * k + 2) * (hd - hn) * lc)
                if good and k >= 4:
                    good = 2 * hn > 3 * hd
                if good and k == 2:
                    good = 3 * hn * mp == (2 * us[0]) ** ell * hd
                if not good:
                    return ClaimResult("derivative-sign-sums", params, FAIL,
                                       {"k": k, "ell": ell,
                                        "H": Fraction(hn, hd)}, {},
                                       "weighted sum fails its sign")
                if h_tight is None or hn * h_tight[3] < h_tight[2] * hd:
                    h_tight = (k, ell, hn, hd)
            checked += 1
    data = {"checked": checked}
    if g_tight is not None:
        k, ell, gn, gd = g_tight
        data["G_max"] = {"k": k, "ell": ell,
                         "margin_exp2": _exp2(Fraction(-gd - gn, gd))}
    if h_tight is not None:
        k, ell, hn, hd = h_tight
        data["H_min"] = {"k": k, "ell": ell,
                         "margin_exp2": _exp2(Fraction(hn - hd, hd))}
    return ClaimResult("derivative-sign-sums", params, PASS, None, data,
                       "exact signs on %d instances" % checked)


# ---------------------------------------------------------------------------
# the real-pair window for odd exponents
# ---------------------------------------------------------------------------

def check_alpha_interval(k_range, ell_odd_range) -> ClaimResult:
    """alpha against the window ((2 q_1)^l, 2^(l+1) zeta(2)^(l-1)(1+3 d_l 4^-k)).

    Odd exponents only, k >= 3.  The lower endpoint is exact; the upper one
    is rational for l = 1 and a zeta(2)-power enclosure otherwise.  The
    certified alpha enclosure is refined adaptively, since for l = 1 the
    distance from alpha to 4 shrinks like k 4^-k.

    That same growth is why the stated l = 1 upper endpoint fails once
    k >= 7: alpha - 4 ~ (log 3/2) k 4^(1-k) eventually exceeds 12 d_1 4^-k.
    Each such violation is certified exactly (the enclosure lies wholly
    above the endpoint) and recorded, and the corrected endpoint 4 + 3/k
    from corrected_alpha_upper is certified in its place; the claim then
    reports status "finding" instead of "pass".  The companion value at 1
    is also checked negative, the exact fact forcing the real pair to
    exist.
    """
    k_lo, k_hi = k_range
    l_lo, l_hi = ell_odd_range
    if k_lo < 3:
        raise ValueError("needs k >= 3")
    ells = [ell for ell in range(max(1, l_lo), l_hi + 1) if ell % 2 == 1]
    params = {"k": [k_lo, k_hi], "ell_odd": [l_lo, l_hi]}
    if not ells or k_hi < k_lo:
        return _vacuous("alpha-interval", params)
    checked = 0
    violations = []
    first_witness = None
    tight = None
    max_pr = 0
    for ell in ells:
        for k in range(k_lo, k_hi + 1):
            lower = (2 * q(k, 1)) ** ell
            at_one, _, lc = _companion_at_one(k, ell)
            if not at_one * lc < 0:  # m(1) = at_one / lc
                return ClaimResult("alpha-interval", params, FAIL,
                                   {"k": k, "ell": ell,
                                    "at_one": Fraction(at_one, lc)}, {},
                                   "companion fails to dip below 0 at 1")
            if not zero_certificate(k, ell).conforms:
                return ClaimResult("alpha-interval", params, FAIL,
                                   {"k": k, "ell": ell}, {},
                                   "certificate does not conform")
            for a, upper, pr in window_walk(k, ell):
                if not lower < upper.lo:
                    return ClaimResult("alpha-interval", params, FAIL,
                                       {"k": k, "ell": ell}, {},
                                       "window is empty")
                if pr > WINDOW_PRECISION:
                    max_pr = max(max_pr, pr)
                if a.hi < lower:
                    return ClaimResult("alpha-interval", params, FAIL,
                                       {"k": k, "ell": ell, "alpha": a}, {},
                                       "alpha below the lower endpoint")
                if lower < a.lo and (a.hi < upper.lo or a.lo > upper.hi):
                    break
            else:
                if ell == 1:
                    return ClaimResult(
                        "alpha-interval", params, INCONCLUSIVE,
                        {"k": k, "ell": ell, "alpha": a}, {},
                        "window membership undecided at the width floor")
                return ClaimResult(
                    "alpha-interval", params, INCONCLUSIVE,
                    {"k": k, "ell": ell, "alpha": a,
                     "precision_cap": PRECISION_CAP}, {},
                    "window membership undecided at the precision cap")
            checked += 1
            if a.lo > upper.hi:
                if ell != 1 or not a.hi < corrected_alpha_upper(k, ell):
                    return ClaimResult("alpha-interval", params, FAIL,
                                       {"k": k, "ell": ell, "alpha": a}, {},
                                       "alpha beyond even the corrected endpoint")
                excess = a.lo - upper.hi
                violations.append({"k": k, "ell": ell,
                                   "excess_exp2": _exp2(excess)})
                if first_witness is None:
                    first_witness = {"k": k, "ell": ell,
                                     "stated_upper": upper.hi,
                                     "alpha": a}
                continue
            rel = (upper.lo - a.hi) / upper.lo
            if tight is None or rel < tight[2]:
                tight = (k, ell, rel)
    data = {"checked": checked, "violations": violations}
    if tight is not None:
        data["tightest_upper"] = {"k": tight[0], "ell": tight[1],
                                  "rel_margin_exp2": _exp2(tight[2])}
    if max_pr:
        data["max_precision"] = max_pr
    if violations:
        return ClaimResult(
            "alpha-interval", params, FINDING, first_witness, data,
            "lower endpoint holds on all %d instances; stated upper endpoint "
            "certifiably exceeded on %d of them (l = 1, k >= %d), where the "
            "corrected endpoint 4 + 3/k holds instead"
            % (checked, len(violations), violations[0]["k"]))
    return ClaimResult("alpha-interval", params, PASS, None, data,
                       "%d windows certified" % checked)


def check_alpha_k2_report(ell_odd_max: int) -> ClaimResult:
    """Report, without asserting, how k = 2 sits against the same window.

    The window claim starts at k = 3; one of its restatements starts at
    k = 2, so the suite measures that edge case and publishes the outcome
    as an informational record.  Nothing here can fail: the status is
    always "finding" with the measured memberships as data.
    """
    ells = [ell for ell in range(1, ell_odd_max + 1) if ell % 2 == 1]
    params = {"k": 2, "ell_odd_max": ell_odd_max}
    if not ells:
        return _vacuous("alpha-interval-k2", params)
    inside = {}
    for ell in ells:
        lower = (2 * q(2, 1)) ** ell
        a, upper, _ = next(window_walk(2, ell))
        inside[ell] = bool(lower < a.lo and a.hi < upper.lo)
    return ClaimResult("alpha-interval-k2", params, FINDING, None,
                       {"inside_unasserted": inside},
                       "k = 2 outcome reported without assertion")


# ---------------------------------------------------------------------------
# the zero-location grid and the full suite
# ---------------------------------------------------------------------------

def check_zero_location_grid(k_max: int, ell_max: int) -> ClaimResult:
    """Every instance in the grid certifies to the expected zero partition."""
    params = {"k_max": k_max, "ell_max": ell_max}
    instances = 0
    unimodular = 0
    for k in range(1, k_max + 1):
        for ell in range(1, ell_max + 1):
            cert = zero_certificate(k, ell)
            if not cert.conforms:
                return ClaimResult("zero-location-grid", params, FAIL,
                                   {"k": k, "ell": ell,
                                    "certificate": cert.as_dict()}, {},
                                   "instance does not conform")
            instances += 1
            unimodular += cert.unimodular_count
    return ClaimResult("zero-location-grid", params, PASS, None,
                       {"instances": instances,
                        "unimodular_zeros": unimodular},
                       "%d instances, %d unimodular zeros" %
                       (instances, unimodular))


def run_all(k_max: int, ell_max: int, precision: int = DEFAULT_PRECISION,
            jobs: int | None = None, suite: str = "all") -> VerificationReport:
    """Run the suite on the [1..k_max] x [1..ell_max] grid.

    Deterministic for fixed inputs; `jobs` > 1 fans independent checks out
    to worker processes without changing the report.  `suite` restricts
    the plan to one of the SUITES groups.  A grid of more than
    MAX_RANGE_VALUES instances is refused before anything is planned.
    """
    if k_max < 0 or ell_max < 0:
        raise ValueError("grid bounds must be nonnegative")
    # the plan and the grid checks grow with k_max and ell_max even where
    # the other one is 0, so each counts as at least 1
    if max(k_max, 1) * max(ell_max, 1) > MAX_RANGE_VALUES:
        raise ValueError("more than %d (k, ell) instances in the verify grid"
                         % MAX_RANGE_VALUES)
    if suite not in SUITES:
        raise ValueError("unknown suite %r" % (suite,))
    plan = []

    def call(tag, fn, *args):
        if suite in ("all", tag):
            plan.append((fn, args))

    call("lemmas", check_zeta_bounds, 2 * k_max + 2 if k_max >= 1 else 2)
    if k_max >= 1:
        call("lemmas", check_quotient_bound, k_max)
    else:
        call("lemmas", _vacuous, "zeta-quotient-bound", {"k_max": k_max})
    if k_max >= 3:
        call("lemmas", check_ratio_max, k_max)
    else:
        call("lemmas", _vacuous, "index-ratio-bound", {"k_max": k_max})
    call("lemmas", check_zeta_sum_identity, 64)
    if k_max >= 3:  # q(2, .) has one index on its half: nothing to compare
        call("lemmas", check_qj_monotone, k_max)
    else:
        call("lemmas", _vacuous, "q-monotone", {"k_max": k_max})
    grid = {"k_max": k_max, "ell_max": ell_max}
    if k_max >= 3 and ell_max >= 1:
        call("lemmas", check_delta_bound, (3, k_max), (1, ell_max))
    else:
        call("lemmas", _vacuous, "delta-majorant", grid)
    call("props", check_GH_signs, k_max, ell_max)
    if k_max >= 1 and ell_max >= 1:
        call("props", check_pm1_zero, k_max, ell_max)
    else:
        call("props", _vacuous, "unit-values", grid)
    for k in range(3, min(k_max, 12) + 1):
        for ell in range(1, ell_max + 1):
            call("props", check_sign_pattern, k, ell, precision)
    if k_max >= 3 and ell_max >= 1:
        call("intervals", check_alpha_interval, (3, k_max), (1, ell_max))
        call("intervals", check_alpha_k2_report, ell_max)
    else:
        call("intervals", _vacuous, "alpha-interval", grid)
        call("intervals", _vacuous, "alpha-interval-k2", grid)
    if k_max >= 1 and ell_max >= 1:
        call("props", check_zero_location_grid, k_max, ell_max)
    else:
        call("props", _vacuous, "zero-location-grid", grid)

    results = tuple(map_calls(plan, jobs))
    return VerificationReport(k_max, ell_max, precision, results)
