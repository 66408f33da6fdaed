"""End-to-end acceptance runs: the ten headline guarantees, one test each.

Run with -v for the per-criterion pass/fail lines, -s for the printed
witness summaries.  Criterion 3 is special: its stated upper endpoint is
arithmetically false in the base case from k = 7 on, so that test
certifies the refutation and the corrected endpoint 4 + 3/k instead of
pretending the original window holds.  Everything here recomputes its
expected values independently (exact rationals, direct sums, a float
companion-matrix oracle) rather than trusting the claim checkers, which
are then cross-checked against the direct results.
"""

import time
from fractions import Fraction as F

import sympy
from numeric_oracle import complex_roots
from sympy_oracle import to_sympy, z

from reczeros.analysis import _family_discriminant, analyze, discriminant
from reczeros.bounds import corrected_alpha_upper, d, q, zeta_even_enclosure
from reczeros.certify import alpha_enclosure, certify_zeros
from reczeros.claims import (
    check_GH_signs,
    check_alpha_interval,
    check_delta_bound,
    check_qj_monotone,
    check_quotient_bound,
    check_ratio_max,
    check_sign_pattern,
    check_zeta_bounds,
    check_zeta_sum_identity,
)
from reczeros.exactnum import zeta_even_rational
from reczeros.family import reciprocal_poly


def narrow_alpha(k, ell):
    """Enclosure tight enough to separate alpha from thresholds that sit
    ~4^-k away (the default 10^-20 width straddles them for large k)."""
    return alpha_enclosure(k, ell, width=F(1, 10**20 * 4**k))


def test_criterion_01_zero_location_full_grid():
    start = time.monotonic()
    instances = unimodular = 0
    for k in range(1, 41):
        for ell in range(1, 7):
            cert = certify_zeros(k, ell)
            assert cert.simple is True, (k, ell)
            assert cert.positive_pair_count == 1, (k, ell)
            assert cert.negative_pair_count == 0, (k, ell)
            assert cert.complex_offcircle_count == 0, (k, ell)
            assert cert.unimodular_count == k - 1, (k, ell)
            assert cert.conforms is True, (k, ell)
            assert cert.route == "alternation", (k, ell)
            instances += 1
            unimodular += cert.unimodular_count
    elapsed = time.monotonic() - start
    assert instances == 240 and unimodular == 4680
    assert elapsed < 600.0
    print("criterion 1: PASS - 240/240 certificates conform, one real "
          "pair + %d unimodular zeros, %.1fs sequential" %
          (unimodular, elapsed))


def test_criterion_02_base_case_window():
    lo, hi = F(4), F(121, 25)
    for k in range(1, 41):
        a = narrow_alpha(k, 1)
        assert lo < a.lo, k
        assert a.hi < hi, k
    print("criterion 2: PASS - alpha strictly inside (4, 4.84) for "
          "k = 1..40, zero tolerance")


def test_criterion_03_odd_exponent_interval_finding():
    z2 = zeta_even_enclosure(1, 192)  # pi^2/6 to ~2^-192
    tol = F(1, 10**20)
    violations = []
    for ell in (1, 3, 5):
        dell = d(ell)
        for k in range(3, 41):
            a = narrow_alpha(k, ell)
            assert a.width() <= tol, (k, ell)
            lower = (2 * q(k, 1)) ** ell  # exact rational endpoint
            assert a.lo > lower, (k, ell)
            scale = 2 ** (ell + 1) * (1 + 3 * dell / F(4) ** k)
            if ell == 1:
                up_lo = up_hi = scale
            else:
                up_lo = scale * z2.lo ** (ell - 1)
                up_hi = scale * z2.hi ** (ell - 1)
            assert up_hi - up_lo <= tol, (k, ell)
            if a.hi < up_lo:
                pass  # strictly inside, as stated
            elif a.lo > up_hi:
                violations.append((k, ell))  # certified outside
            else:
                raise AssertionError("undecided at (%d, %d)" % (k, ell))
    # the documented true state: the upper endpoint fails exactly for
    # ell = 1 from k = 7 on, never for ell = 3 or 5
    assert violations == [(k, 1) for k in range(7, 41)]
    for k, ell in violations:
        a = narrow_alpha(k, ell)
        corrected = corrected_alpha_upper(k, ell)
        assert corrected == 4 + F(3, k)
        assert a.hi < corrected, (k, ell)
    claim = check_alpha_interval((3, 40), (1, 5))
    assert claim.status == "finding"
    assert [(v["k"], v["ell"]) for v in claim.data["violations"]] == violations
    print("criterion 3: FINDING - lower endpoint strict on all 114 "
          "instances; stated upper endpoint certifiably false for ell = 1, "
          "k = 7..40, where the corrected endpoint 4 + 3/k is certified; "
          "ell in {3, 5} strictly inside as stated")


def test_criterion_04_spot_values():
    a = alpha_enclosure(1, 1, width=F(1, 10**30))
    assert a.width() <= F(1, 10**30)
    # contains (5 + sqrt 21)/2: bracket 21 by squaring, no floats
    slo, shi = 2 * a.lo - 5, 2 * a.hi - 5
    assert slo > 0
    assert slo * slo < 21 < shi * shi

    # alpha + 1/alpha = 9/2 exactly at (2, 1): x^2 - (9/2)x + 1 divides,
    # and the cofactor is the root at -1
    r21 = reciprocal_poly(2, 1)
    cofactor, remainder = sympy.div(to_sympy(r21.ints),
                                    z**2 - sympy.Rational(9, 2) * z + 1)
    assert remainder.is_zero
    assert sympy.rem(cofactor, z + 1).is_zero and cofactor.degree() == 1

    assert to_sympy(r21.ints).eval(-1) == 0
    assert to_sympy(reciprocal_poly(2, 2).ints).eval(1) == 0
    print("criterion 4: PASS - (5+sqrt 21)/2 bracketed at 10^-30; "
          "alpha + 1/alpha = 9/2 exact; unit-root spot zeros exact")


def test_criterion_05_delta_majorant_exact():
    cap = F(2762, 10000)
    checked = 0
    for ell in range(1, 7):
        c_ell = (F(1306, 1000) ** ell - 1) / F(306, 1000)
        bound = 2**ell * c_ell * cap
        for k in range(3, 41):
            total = 2**ell * sum(q(k, j) ** ell - 1 for j in range(2, k))
            assert total < bound, (k, ell)
            checked += 1
    assert checked == 228
    assert check_delta_bound((3, 40), (1, 6)).status == "pass"
    print("criterion 5: PASS - exact majorant strict on all 228 instances")


def test_criterion_06_sign_pattern_grids():
    for k in range(3, 13):
        for ell in (1, 2, 3):
            r = check_sign_pattern(k, ell)
            assert r.status == "pass", (k, ell)
            assert r.data["max_precision"] <= 512, (k, ell)
            assert r.data["sign_changes"] == 2 * k - 2, (k, ell)
    print("criterion 6: PASS - 30 boundary sign grids match the parity "
          "pattern within 512 bits")


def test_criterion_07_lemma_suite_full_ranges():
    r = check_zeta_bounds(512)
    assert r.status == "pass"
    assert r.detail == "bracketed 511 arguments"

    assert check_quotient_bound(200).status == "pass"

    r = check_ratio_max(200)
    assert r.status == "finding"
    assert r.witness == {"k": 3, "j": 2, "value": F(25, 9)}

    r = check_zeta_sum_identity(64)
    assert r.status == "pass"
    assert r.data["width"] < F(1, 10**30)

    assert check_qj_monotone(200).status == "pass"
    print("criterion 7: PASS - brackets n <= 512, quotient and "
          "monotonicity k <= 200, ratio corner (3, 2) = 25/9 reported as "
          "a finding, series bracket < 10^-30 at 64 terms")


def test_criterion_08_alternating_sum_signs():
    r = check_GH_signs(40, 6)
    assert r.status == "pass"
    assert r.data["checked"] == 120

    # closed form at k = 2 as a single exact rational statement
    z1, z2, z3 = (zeta_even_rational(m) for m in (1, 2, 3))
    ratio = 2 * z1 * z2 / z3  # the pi powers cancel: 2 zeta(2) zeta(4) / zeta(6)
    assert ratio == 2 * q(2, 1) == F(7, 2)
    for ell in (2, 4, 6):
        assert ratio**ell / 3 > 1
    assert ratio**2 / 3 == F(49, 12)
    print("criterion 8: PASS - 120 exact alternating-sum signs; k = 2 "
          "closed form (7/2)^ell / 3 > 1 exact")


def test_criterion_09_discriminant_measure_window():
    ints, scale = reciprocal_poly(1, 1)
    assert scale**2 * discriminant(ints) == F(21, 518400)
    assert _family_discriminant(1, 1) == F(21, 518400)
    outside = []
    for k in range(1, 16):
        for ell in range(1, 5):
            rec = analyze(k, ell)
            assert rec.discriminant != 0, (k, ell)
            assert rec.mahler_inequality_ok is True, (k, ell)
            if not rec.alpha_in_interval:
                outside.append((k, ell))
    # window membership holds exactly where the stated endpoint is true;
    # the ell = 1, k >= 7 defect from criterion 3 shows up here too
    assert outside == [(k, 1) for k in range(7, 16)]
    for k, ell in outside:
        assert narrow_alpha(k, ell).hi < corrected_alpha_upper(k, ell)
    print("criterion 9: PASS - 60 discriminants nonzero with the measure "
          "inequality certified; window membership certified, false "
          "exactly on the known ell = 1, k >= 7 defect where the "
          "corrected endpoint is certified instead")


def test_criterion_10_float_oracle_agreement():
    tol = 1e-8
    for k in range(1, 7):
        for ell in range(1, 4):
            cert = certify_zeros(k, ell)
            roots = list(complex_roots(reciprocal_poly(k, ell).ints))
            assert len(roots) == k + 1
            on = [z for z in roots if abs(abs(z) - 1) < tol]
            off_real = [z for z in roots
                        if abs(abs(z) - 1) >= tol and abs(z.imag) <= tol]
            off_complex = [z for z in roots
                           if abs(abs(z) - 1) >= tol and abs(z.imag) > tol]
            assert len(on) == cert.unimodular_count, (k, ell)
            assert len(off_real) == 2 * cert.positive_pair_count, (k, ell)
            assert len(off_complex) == cert.complex_offcircle_count == 0
            for z in on:
                assert abs(abs(z) - 1) < tol
            pair = sorted(z.real for z in off_real)
            assert 0 < pair[0] < 1 < pair[1]
            assert abs(pair[0] * pair[1] - 1) < 1e-6  # reciprocal in floats
    print("criterion 10: PASS - certified partitions match the "
          "companion-matrix oracle on 18 instances at 10^-8")
