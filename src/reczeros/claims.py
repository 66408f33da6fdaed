"""Verifiers for the quantitative inequalities behind the zero certificates.

Each checker establishes one arithmetic fact -- an inequality chain, a sign
pattern on the unit circle, or an interval membership -- over a requested
parameter range.  Facts that live in Q are decided by exact rational
arithmetic and can only pass or fail; facts involving zeta values or pi go
through certified enclosures that are tightened until a sign is decided,
and may additionally come back "inconclusive" when the ladder runs out
first.  There is one ladder, `ladder`: precisions double up to
precision_cap(), widths shrink toward WIDTH_FLOOR, and analysis uses the
same helper.  The stated upper window endpoint is built only by
stated_alpha_upper.  Values of a polynomial at +-1 are coefficient sums
on its integer coefficients, so the exact checks follow the integer rule
of the kernels; a fail witness still carries the exact Fraction value.
Results (ClaimResult, VerificationReport) are plain __slots__ records,
which keeps `dataclasses` and its imports out of every command;
serialize owns their wire form.  run_all refuses a grid of more than
MAX_RANGE_VALUES instances, the bound the command line reads too.

A "finding" is a result that contradicts or sharpens the expected
statement without invalidating the surrounding certificates: the single
equality corner of the index-ratio bound, the informational k = 2 window
report, and -- most substantially -- the l = 1 upper window endpoint,
which the checker refutes with certified enclosures for every k >= 7 and
replaces with the endpoint 4 + 3/k that the same derivation supports.
Findings always carry enough witness data to reproduce the verdict.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import repeat

from .certify import ALPHA_WIDTH, alpha_enclosure, zero_certificate
from .exactnum import (
    c_of,
    d,
    epsilon,
    q,
    zeta_even_enclosure,
    zeta_even_rational,
    zeta_series_enclosure,
)
from .family import boundary_profile, monic_even_form, reciprocal_poly
from .interval import (
    Interval,
    cos_pi_enclosure,
    horner_rounded,
    pi_enclosure,
    pow_rounded,
)

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
FINDING = "finding"

DEFAULT_PRECISION = 128

#: Exact constants of the majorant chain: the per-index tail weights never
#: exceed 306/1000, and their sum over 2 <= j <= k-1 stays below 2762/10000.
EPS_SINGLE_CAP = Fraction(306, 1000)
EPS_TOTAL_CAP = Fraction(2762, 10000)


#: Largest ladder ceiling REC_ZEROS_PREC_CAP may set; the ladders double
#: their precision up to the cap, and each step costs more than the last.
PREC_CAP_MAX = 65536

#: Most values one --k or --ell flag may name, counted before
#: deduplication, and most (k, ell) instances one grid may hold; run_all
#: refuses a larger claim grid.
MAX_RANGE_VALUES = 10_000

#: Finest width a width ladder refines an enclosure to before it gives up.
WIDTH_FLOOR = Fraction(1, 2**2048)


def precision_cap() -> int:
    """Ladder ceiling in bits; override with the REC_ZEROS_PREC_CAP variable.

    The override is clamped to [256, PREC_CAP_MAX].
    """
    try:
        value = int(os.environ.get("REC_ZEROS_PREC_CAP", ""))
    except ValueError:
        return 4096
    return min(max(256, value), PREC_CAP_MAX)


def ladder(first, factor, limit):
    """The escalation rungs first, first*factor, first*factor^2, ...

    The first rung is yielded unconditionally; each later one only while it
    stays within `limit` (at most it for factor > 1, at least it for
    factor < 1).  Precisions climb with factor 2 up to precision_cap(),
    widths shrink toward WIDTH_FLOOR; a caller that exhausts the ladder
    without a decision reports that through the loop's `else`.

    >>> list(ladder(192, 2, 1024)), list(ladder(5000, 2, 4096))
    ([192, 384, 768], [5000])
    """
    rung = first
    while True:
        yield rung
        rung = rung * factor
        if (rung > limit) if factor > 1 else (rung < limit):
            return


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


def _exp2(x) -> int:
    """Integer within 1 of log2(x) for positive x; compact margin summary."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("needs a positive value")
    return x.numerator.bit_length() - x.denominator.bit_length()


class ClaimResult:
    """One claim's verdict over the parameters it covered.

    `witness` holds the data that decided a fail, finding or inconclusive
    verdict (None on pass), `data` the summary figures, `detail` one line
    of prose.
    """

    __slots__ = ("claim_id", "params", "status", "witness", "data", "detail")

    def __init__(self, claim_id: str, params: dict, status: str,
                 witness: dict | None = None, data: dict | None = None,
                 detail: str = ""):
        self.claim_id = claim_id
        self.params = params
        self.status = status
        self.witness = witness
        self.data = {} if data is None else data
        self.detail = detail

    @property
    def ok(self) -> bool:
        return self.status in (PASS, FINDING)

    def __repr__(self) -> str:
        return "ClaimResult(%r, status=%r)" % (self.claim_id, self.status)


class VerificationReport:
    """The results of one run_all, in plan order, with the grid they cover."""

    __slots__ = ("k_max", "ell_max", "precision", "results")

    def __init__(self, k_max: int, ell_max: int, precision: int,
                 results: tuple):
        self.k_max = k_max
        self.ell_max = ell_max
        self.precision = precision
        self.results = results

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def find(self, claim_id: str) -> ClaimResult:
        for r in self.results:
            if r.claim_id == claim_id:
                return r
        raise KeyError(claim_id)

    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, INCONCLUSIVE: 0, FINDING: 0}
        for r in self.results:
            out[r.status] = out.get(r.status, 0) + 1
        return out


#: The detail of a claim that holds vacuously: nothing in range to check.
EMPTY_RANGE = "empty parameter range"


def _vacuous(claim_id: str, **params) -> ClaimResult:
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
    cap = precision_cap()
    max_pr = 0
    tight = None
    for n in range(2, n_max + 1):
        lo_bound = 1 + Fraction(1, 2**n)
        hi_bound = 1 + Fraction(n + 1, n - 1) / 2**n
        for pr in ladder(max(24, (8 * n) // 5 + 16), 2, cap):
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
                {"n": n, "precision_cap": cap}, {},
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
    cap = precision_cap()
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
            for pr in ladder(2 * (k + 1 - j) + 64, 2, cap):
                power = pow_rounded(pi_enclosure(pr), 2 * j, pr + 16)
                pn, pd = power.lo.numerator, power.lo.denominator
                if rn * pd * e4 < (e4 + 3) * rd * pn:  # excess.hi < bound
                    break
                if (rn * power.hi.denominator * e4
                        >= (e4 + 3) * rd * power.hi.numerator):
                    return ClaimResult(
                        "zeta-quotient-bound", params, FAIL,
                        {"k": k, "j": j,
                         "excess": Fraction(rn, rd) / power - 1}, {},
                        "bound violated")
            else:
                return ClaimResult(
                    "zeta-quotient-bound", params, INCONCLUSIVE,
                    {"k": k, "j": j, "precision_cap": cap}, {},
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

    The partial sum uses exact Bernoulli enclosures.  For the tail over
    j > N, the first series term and the integral comparison give
    4^-j < zeta(2j) - 1 < 3*4^-j, so the tail lies strictly between
    4^-N/3 + 16^-N/15 and 4^-N/3 + 16^-N/5, an exact rational bracket.
    """
    if terms < 4:
        raise ValueError("needs at least 4 terms")
    pr = max(DEFAULT_PRECISION, terms + 64)
    half = Fraction(1, 2)
    acc = Interval(Fraction(0))
    for j in range(1, terms + 1):
        acc = acc + zeta_even_enclosure(j, pr) * Fraction(1, 4**j)
    tail_lo = Fraction(1, 3 * 4**terms) + Fraction(1, 15 * 16**terms)
    tail_hi = Fraction(1, 3 * 4**terms) + Fraction(1, 5 * 16**terms)
    bracket = Interval(acc.lo + tail_lo, acc.hi + tail_hi)
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

def check_delta_bound(k_range, ell_range) -> ClaimResult:
    """2^l sum_{j=2}^{k-1} (q_j^l - 1) < 2^l c_l (2762/10000), exactly.

    Verifies the full chain behind the majorant: each q_j - 1 is below the
    explicit tail weight eps(k, j), every weight is at most 306/1000 so the
    secant slope c_l = c_of(306/1000, l) applies, q_j^l - 1 < c_l eps(k, j),
    and the weights sum below 2762/10000.  All comparisons are rational.
    """
    k_lo, k_hi = k_range
    l_lo, l_hi = ell_range
    if k_lo < 3:
        raise ValueError("needs k >= 3")
    params = {"k": [k_lo, k_hi], "ell": [l_lo, l_hi]}
    tight = None
    checked = 0
    for k in range(k_lo, k_hi + 1):
        eps = {j: epsilon(k, j) for j in range(2, k)}
        total = sum(eps.values())
        if not total < EPS_TOTAL_CAP:
            return ClaimResult("delta-majorant", params, FAIL,
                               {"k": k, "eps_sum": total}, {},
                               "tail weights exceed the cap")
        if eps and not max(eps.values()) <= EPS_SINGLE_CAP:
            return ClaimResult("delta-majorant", params, FAIL,
                               {"k": k}, {}, "single tail weight too large")
        qs = {j: q(k, j) for j in range(2, k)}
        for j in range(2, k):
            if not qs[j] - 1 < eps[j]:
                return ClaimResult("delta-majorant", params, FAIL,
                                   {"k": k, "j": j, "q": qs[j],
                                    "eps": eps[j]}, {},
                                   "per-index weight bound fails")
        for ell in range(l_lo, l_hi + 1):
            c = c_of(EPS_SINGLE_CAP, ell)
            for j in range(2, k):
                if not qs[j] ** ell - 1 < c * eps[j]:
                    return ClaimResult("delta-majorant", params, FAIL,
                                       {"k": k, "j": j, "ell": ell}, {},
                                       "secant-slope step fails")
            weight = 2**ell * sum(qs[j] ** ell - 1 for j in range(2, k))
            bound = 2**ell * c * EPS_TOTAL_CAP
            if not weight < bound:
                return ClaimResult("delta-majorant", params, FAIL,
                                   {"k": k, "ell": ell, "weight": weight,
                                    "bound": bound}, {},
                                   "majorant bound fails")
            checked += 1
            rel = (bound - weight) / bound
            if tight is None or rel < tight[2]:
                tight = (k, ell, rel)
    data = {"instances": checked}
    if tight is not None:
        data["tightest"] = {"k": tight[0], "ell": tight[1],
                            "rel_margin_milli": int(tight[2] * 1000)}
    return ClaimResult("delta-majorant", params, PASS, None, data,
                       "exact on %d instances" % checked)


# ---------------------------------------------------------------------------
# boundary sign patterns
# ---------------------------------------------------------------------------

def _exact_two_cos(r: Fraction):
    """2 cos(r pi) when rational (denominator 1, 2 or 3), else None."""
    p, den = r.numerator, r.denominator
    if den == 1:
        return Fraction(2) if p % 2 == 0 else Fraction(-2)
    if den == 2:
        return Fraction(0)
    if den == 3:
        return Fraction(1) if p % 6 in (1, 5) else Fraction(-1)
    return None


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
    which is exactly the number of unimodular zero pairs times two.  Grid
    angles with 2 cos theta in {0, +-1, +-2} are evaluated exactly; the
    rest through cos(pi r) enclosures and a step-rounded Horner on the
    integer coefficients of T, with an escalating precision ladder.
    """
    if k < 3:
        raise ValueError("needs k >= 3")
    prof = boundary_profile(k, ell)
    T = prof.transform
    # a positive multiple of T: same signs, integer Horner steps
    ints = T.int_coeffs()
    even_even = ell % 2 == 0 and k % 2 == 0
    if even_even:
        points = [(j, Fraction(2 * j - 1, 2 * (k - 1)), 1 if j % 2 == 0 else -1)
                  for j in range(1, 2 * k - 1)]
        case = "ell even, k even"
    else:
        points = [(j, Fraction(j, k - 1), -1 if j % 2 == 0 else 1)
                  for j in range(0, 2 * k - 2)]
        case = "ell odd" if ell % 2 else "ell even, k odd"
    if prof.sigma != (-1 if even_even else 1):
        raise AssertionError("reversal sign disagrees with the parity split")
    cap = precision_cap()
    params = {"k": k, "ell": ell, "precision": precision}
    signs = []
    exact_points = 0
    max_pr = 0
    for j, r, expected in points:
        two_cos = _exact_two_cos(r)
        if two_cos is not None:
            value = T(two_cos)
            if value == 0:
                return ClaimResult("sign-pattern-k%d-l%d" % (k, ell), params,
                                   FAIL, {"j": j, "theta_over_pi": r}, {},
                                   "profile vanishes at a grid point")
            s = 1 if value > 0 else -1
            exact_points += 1
        else:
            for pr in ladder(max(precision, 64), 2, cap):
                # T(2 cos): the doubling is folded into rounding the argument
                s = horner_rounded(ints, cos_pi_enclosure(r, pr),
                                   pr + len(ints) + 8, x_shift=1).sign()
                if s:
                    break
            else:
                return ClaimResult(
                    "sign-pattern-k%d-l%d" % (k, ell), params,
                    INCONCLUSIVE, {"j": j, "precision_cap": cap}, {},
                    "grid sign undecided at the precision cap")
            max_pr = max(max_pr, pr)
        if prof.sigma < 0 and r > 1:
            s = -s
        if s != expected:
            return ClaimResult("sign-pattern-k%d-l%d" % (k, ell), params,
                               FAIL,
                               {"j": j, "theta_over_pi": r, "got": s,
                                "expected": expected}, {},
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
    return ClaimResult("sign-pattern-k%d-l%d" % (k, ell), params, PASS, None,
                       data, "%d alternating points, %d sign changes"
                       % (m, changes))


# ---------------------------------------------------------------------------
# values at +-1 and the derivative sums
# ---------------------------------------------------------------------------

def _companion_at_one(k: int, ell: int) -> tuple[Fraction, Fraction]:
    """(m(1), m'(1)) for the monic companion m of (k, ell).

    m is ints / ints[-1] for its integer coefficients ints, so the two
    values are the plain and the index-weighted sums of ints over ints[-1].
    """
    ints = monic_even_form(k, ell).int_coeffs()
    return (Fraction(sum(ints), ints[-1]),
            Fraction(sum(i * c for i, c in enumerate(ints)), ints[-1]))


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
            ints = r.int_coeffs()
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
                                   {"k": k, "ell": ell, "at_one": r(1),
                                    "at_minus_one": r(-1)}, {},
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
    (2k+2)(1 - H) < 0.  The k=2 value collapses to (2 q_1)^l / 3.
    """
    params = {"k_max": k_max, "ell_max": ell_max}
    if k_max < 1 or ell_max < 2:
        return _vacuous("derivative-sign-sums", **params)
    checked = 0
    g_tight = None
    h_tight = None
    for ell in range(2, ell_max + 1, 2):
        for k in range(1, k_max + 1):
            qpow = [q(k, j) ** ell for j in range(1, k + 1)]
            m_at_one, m_slope = _companion_at_one(k, ell)
            if k % 2 == 1:
                g = sum(-qpow[j - 1] if j % 2 else qpow[j - 1]
                        for j in range(1, k + 1))
                value_at_one = 2 + 2**ell * g
                if not (g < -1 and m_at_one == value_at_one
                        and value_at_one < 0):
                    return ClaimResult("derivative-sign-sums", params, FAIL,
                                       {"k": k, "ell": ell, "G": g}, {},
                                       "alternating sum fails its sign")
                if g_tight is None or g > g_tight[2]:
                    g_tight = (k, ell, g)
            else:
                alt = sum(-j * qpow[j - 1] if j % 2 else j * qpow[j - 1]
                          for j in range(1, k + 1))
                h = Fraction(2**ell, k + 1) * alt
                slope_at_one = (2 * k + 2) * (1 - h)
                good = (h > 1 and m_at_one == 0 and m_slope == slope_at_one
                        and slope_at_one < 0)
                if good and k >= 4:
                    good = h > Fraction(3, 2)
                if good and k == 2:
                    good = h == (2 * q(2, 1)) ** ell / 3
                if not good:
                    return ClaimResult("derivative-sign-sums", params, FAIL,
                                       {"k": k, "ell": ell, "H": h}, {},
                                       "weighted sum fails its sign")
                if h_tight is None or h < h_tight[2]:
                    h_tight = (k, ell, h)
            checked += 1
    data = {"checked": checked}
    if g_tight is not None:
        data["G_max"] = {"k": g_tight[0], "ell": g_tight[1],
                         "margin_exp2": _exp2(-1 - g_tight[2])}
    if h_tight is not None:
        data["H_min"] = {"k": h_tight[0], "ell": h_tight[1],
                         "margin_exp2": _exp2(h_tight[2] - 1)}
    return ClaimResult("derivative-sign-sums", params, PASS, None, data,
                       "exact signs on %d instances" % checked)


# ---------------------------------------------------------------------------
# the real-pair window for odd exponents
# ---------------------------------------------------------------------------

def corrected_alpha_upper(k: int, ell: int) -> Fraction:
    """The index-optimized upper endpoint that the inequality chain supports.

    The derivation of the window reduces, index by index, to
    (4+t)/4 > (2 zeta(2))^((l-1)/j) (1 + 3 d_l 4^(j-k-1) / j) for j = 1..k,
    and the stated endpoint keeps only the j = 1 term.  For l = 1 the first
    factor is identically 1 and the requirement is largest at j = k, giving
    the exact rational endpoint 4 (1 + 3 d_1 / (4k)) = 4 + 3/k.
    """
    if ell != 1:
        raise ValueError("only the l = 1 endpoint needs correcting")
    return 4 + Fraction(3 * d(1), k)


#: Precision of the stated endpoint's zeta(2) power where the window checks
#: start; check_alpha_interval doubles it when alpha straddles the endpoint.
WINDOW_PRECISION = 192


def stated_alpha_upper(k: int, ell: int, precision: int) -> Interval:
    """The stated upper window endpoint 2^(l+1) zeta(2)^(l-1) (1 + 3 d_l 4^-k).

    Exact for l = 1 (the point interval 4 (1 + 3 d_1 4^-k)); otherwise the
    zeta(2) enclosure at `precision` bits, raised to l - 1 with outward
    rounding at precision + 16 bits, times the exact rational factor.
    """
    factor = 1 + 3 * d(ell) * Fraction(1, 4**k)
    if ell == 1:
        return Interval(4 * factor)
    return (pow_rounded(zeta_even_enclosure(1, precision), ell - 1,
                        precision + 16) * (2 ** (ell + 1) * factor))


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
        return _vacuous("alpha-interval", **params)
    cap = precision_cap()
    checked = 0
    violations = []
    first_witness = None
    tight = None
    max_pr = 0
    for ell in ells:
        for k in range(k_lo, k_hi + 1):
            lower = (2 * q(k, 1)) ** ell
            value_at_one = _companion_at_one(k, ell)[0]
            if not value_at_one < 0:
                return ClaimResult("alpha-interval", params, FAIL,
                                   {"k": k, "ell": ell,
                                    "at_one": value_at_one}, {},
                                   "companion fails to dip below 0 at 1")
            upper = stated_alpha_upper(k, ell, WINDOW_PRECISION)
            if not lower < upper.lo:
                return ClaimResult("alpha-interval", params, FAIL,
                                   {"k": k, "ell": ell}, {},
                                   "window is empty")
            if not zero_certificate(k, ell).conforms:
                return ClaimResult("alpha-interval", params, FAIL,
                                   {"k": k, "ell": ell}, {},
                                   "certificate does not conform")
            # l = 1 has an exact endpoint and walks the width ladder alone;
            # for l > 1 the zeta(2) power is refined in step, and that
            # ladder (9 rungs at most under PREC_CAP_MAX) runs out first.
            widths = ladder(ALPHA_WIDTH, Fraction(1, 2**64), WIDTH_FLOOR)
            precisions = (repeat(WINDOW_PRECISION) if ell == 1
                          else ladder(WINDOW_PRECISION, 2, cap))
            for target, pr in zip(widths, precisions):
                if pr != WINDOW_PRECISION:
                    upper = stated_alpha_upper(k, ell, pr)
                    max_pr = max(max_pr, pr)
                a = alpha_enclosure(k, ell, width=target)
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
                    {"k": k, "ell": ell, "alpha": a, "precision_cap": cap}, {},
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
        return _vacuous("alpha-interval-k2", **params)
    inside = {}
    for ell in ells:
        lower = (2 * q(2, 1)) ** ell
        upper = stated_alpha_upper(2, ell, WINDOW_PRECISION)
        a = alpha_enclosure(2, ell, width=ALPHA_WIDTH)
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


#: Suite names for partial runs: exact/enclosure inequality chains
#: ("lemmas"), structural facts about the polynomials themselves
#: ("props"), the real-pair window checks ("intervals"), or everything.
SUITES = ("lemmas", "props", "intervals", "all")


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

    def done(tag, result):
        if suite in ("all", tag):
            plan.append((None, result))

    call("lemmas", check_zeta_bounds, 2 * k_max + 2 if k_max >= 1 else 2)
    if k_max >= 1:
        call("lemmas", check_quotient_bound, k_max)
    else:
        done("lemmas", _vacuous("zeta-quotient-bound", k_max=k_max))
    if k_max >= 3:
        call("lemmas", check_ratio_max, k_max)
    else:
        done("lemmas", _vacuous("index-ratio-bound", k_max=k_max))
    call("lemmas", check_zeta_sum_identity, 64)
    if k_max >= 2:
        call("lemmas", check_qj_monotone, k_max)
    else:
        done("lemmas", _vacuous("q-monotone", k_max=k_max))
    if k_max >= 3 and ell_max >= 1:
        call("lemmas", check_delta_bound, (3, k_max), (1, ell_max))
    else:
        done("lemmas", _vacuous("delta-majorant", k_max=k_max,
                                ell_max=ell_max))
    call("props", check_GH_signs, k_max, ell_max)
    call("props", check_pm1_zero, k_max, ell_max)
    for k in range(3, min(k_max, 12) + 1):
        for ell in range(1, ell_max + 1):
            call("props", check_sign_pattern, k, ell, precision)
    if k_max >= 3 and ell_max >= 1:
        call("intervals", check_alpha_interval, (3, k_max), (1, ell_max))
        call("intervals", check_alpha_k2_report, ell_max)
    else:
        done("intervals", _vacuous("alpha-interval", k_max=k_max,
                                   ell_max=ell_max))
        done("intervals", _vacuous("alpha-interval-k2", k_max=k_max,
                                   ell_max=ell_max))
    call("props", check_zero_location_grid, k_max, ell_max)

    computed = iter(map_calls([step for step in plan if step[0] is not None],
                              jobs))
    results = tuple(payload if fn is None else next(computed)
                    for fn, payload in plan)
    return VerificationReport(k_max, ell_max, precision, results)
