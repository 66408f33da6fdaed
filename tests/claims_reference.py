"""Fraction reference routes for the claim checks that run on integers.

`check_sign_pattern`, `check_delta_bound`, `check_GH_signs` and
`check_zeta_sum_identity` decide their signs and sums on integers in the
library.  The functions here are the same checks as they were written on
`fractions.Fraction` and `Interval`: one cos(pi r) enclosure per grid
point, squared as an interval product (sympy's, as `Interval` only
scales) and rounded into the Horner kernel, and every lemma sum
accumulated as a `Fraction`.  The tests compare the
`(status, witness, data, detail)` of both routes.
"""

from __future__ import annotations

from fractions import Fraction

from reczeros.claims import (
    DEFAULT_PRECISION,
    EPS_SINGLE_CAP,
    EPS_TOTAL_CAP,
    FAIL,
    INCONCLUSIVE,
    PASS,
    PRECISION_CAP,
    ClaimResult,
    _exp2,
    _vacuous,
    ladder,
)
from reczeros.bounds import (
    c_of,
    cos_enclosure,
    pi_enclosure,
    q,
    zeta_even_enclosure,
)
from reczeros.family import boundary_profile, reciprocal_poly
from reczeros.interval import (
    Interval,
    _horner_mantissas,
    ceil_scaled,
    floor_scaled,
)
from reczeros.polycore import _sign_at

from sympy_oracle import from_bounds, to_bounds


def cos_pi_enclosure(r, precision: int) -> Interval:
    """Certified enclosure of cos(pi r) for rational r.

    r is reduced exactly to [0, 1/2] (period 2, evenness, and
    cos(pi - t) = -cos t), so the cos series sees |theta| <= pi/2.
    """
    r = Fraction(r) % 2
    if r > 1:
        r = 2 - r
    negate = r > Fraction(1, 2)
    if negate:
        r = 1 - r
    enc = cos_enclosure(r * pi_enclosure(precision), precision)
    return Interval(-enc.hi, -enc.lo) if negate else enc


def horner_sign(coeffs, x: Interval, bits: int, x_shift: int = 0) -> int:
    """Sign of sum(coeffs[i] * y**i) on y = x * 2^x_shift: y is rounded
    outward straight from x's rational ends, then step-rounded Horner."""
    lo, hi = _horner_mantissas(
        [(c << bits, c << bits) for c in coeffs],
        floor_scaled(x.lo.numerator, x.lo.denominator, bits + x_shift),
        ceil_scaled(x.hi.numerator, x.hi.denominator, bits + x_shift), bits)
    return 1 if lo > 0 else -1 if hi < 0 else 0


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


def check_sign_pattern(k: int, ell: int,
                       precision: int = DEFAULT_PRECISION) -> ClaimResult:
    """The boundary sign grid, one cos enclosure per grid point."""
    if k < 3:
        raise ValueError("needs k >= 3")
    prof = boundary_profile(k, ell)
    ints = prof.w_square
    odd = prof.w_parity == "odd"
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
    params = {"k": k, "ell": ell, "precision": precision}
    signs = []
    exact_points = 0
    max_pr = 0
    for j, r, expected in points:
        two_cos = _exact_two_cos(r)
        if two_cos is not None:
            s = _sign_at(ints, two_cos * two_cos)
            if odd:
                s *= (two_cos > 0) - (two_cos < 0)
            if s == 0:
                return ClaimResult("sign-pattern-k%d-l%d" % (k, ell), params,
                                   FAIL, {"j": j, "theta_over_pi": r}, {},
                                   "profile vanishes at a grid point")
            exact_points += 1
        else:
            for pr in ladder(max(precision, 64), 2, PRECISION_CAP):
                cos = cos_pi_enclosure(r, pr)
                cos_sq = from_bounds(to_bounds(cos) * to_bounds(cos))
                s = horner_sign(ints, cos_sq, pr + len(ints) + 8, x_shift=2)
                if s:
                    break
            else:
                return ClaimResult(
                    "sign-pattern-k%d-l%d" % (k, ell), params,
                    INCONCLUSIVE, {"j": j, "precision_cap": PRECISION_CAP}, {},
                    "grid sign undecided at the precision cap")
            max_pr = max(max_pr, pr)
            if odd and abs(r % 2 - 1) < Fraction(1, 2):
                s = -s
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


def epsilon(k: int, j: int) -> Fraction:
    """The tail weight eps(k, j) as a sum of three Fractions."""
    a = Fraction(2 * j + 1, 2 * j - 1)
    b = Fraction(2 * k + 3 - 2 * j, 2 * k + 1 - 2 * j)
    return (
        a * Fraction(1, 4**j)
        + b * Fraction(1, 4 ** (k + 1 - j))
        + a * b * Fraction(1, 4 ** (k + 1))
    )


def check_delta_bound(k_range, ell_range) -> ClaimResult:
    """The majorant chain with every weight and sum a Fraction."""
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


def companion_at_one(k: int, ell: int) -> tuple[Fraction, Fraction]:
    """(m(1), m'(1)) for the monic companion m(z) = R(z^2) / lc(R)."""
    ints = reciprocal_poly(k, ell).ints
    return (Fraction(sum(ints), ints[-1]),
            Fraction(2 * sum(i * c for i, c in enumerate(ints)), ints[-1]))


def check_GH_signs(k_max: int, ell_max: int) -> ClaimResult:
    """The alternating sums G and H, each accumulated as a Fraction."""
    params = {"k_max": k_max, "ell_max": ell_max}
    if k_max < 1 or ell_max < 2:
        return _vacuous("derivative-sign-sums", params)
    checked = 0
    g_tight = None
    h_tight = None
    for ell in range(2, ell_max + 1, 2):
        for k in range(1, k_max + 1):
            qpow = [q(k, j) ** ell for j in range(1, k + 1)]
            m_at_one, m_slope = companion_at_one(k, ell)
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


def check_zeta_sum_identity(terms: int) -> ClaimResult:
    """The zeta-sum bracket with the partial sum an `Interval` sum."""
    if terms < 4:
        raise ValueError("needs at least 4 terms")
    pr = max(DEFAULT_PRECISION, terms + 64)
    half = Fraction(1, 2)
    acc = Interval(Fraction(0))
    for j in range(1, terms + 1):
        term = zeta_even_enclosure(j, pr) * Fraction(1, 4**j)
        acc = Interval(acc.lo + term.lo, acc.hi + term.hi)
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
