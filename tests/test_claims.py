import tracemalloc
from collections import Counter
from fractions import Fraction as F

import pytest

from fresh_process import fresh_python
from reczeros import bounds, claims, serialize
from reczeros.bounds import (
    PRECISION_CAP,
    WIDTH_FLOOR,
    corrected_alpha_upper,
    ladder,
    q,
)
from reczeros.certify import alpha_enclosure
from reczeros.claims import (
    EMPTY_RANGE,
    check_GH_signs,
    check_alpha_interval,
    check_alpha_k2_report,
    check_delta_bound,
    check_pm1_zero,
    check_qj_monotone,
    check_quotient_bound,
    check_ratio_max,
    check_sign_pattern,
    check_zero_location_grid,
    check_zeta_bounds,
    check_zeta_sum_identity,
    run_all,
)
from reczeros.family import BoundaryProfile, Member, reciprocal_poly
from reczeros.interval import Interval

from sympy_oracle import to_sympy


def test_zeta_bounds_bracket():
    r = check_zeta_bounds(40)
    assert r.status == "pass"
    # the lower gap behaves like 3^-n, so n = 40 is the tight end
    assert r.data["tightest_n"] == 40
    assert r.data["max_precision"] >= 24


def test_zeta_bounds_rejects_tiny_range():
    with pytest.raises(ValueError):
        check_zeta_bounds(1)


def test_quotient_bound_counts_pairs():
    r = check_quotient_bound(12)
    assert r.status == "pass"
    assert r.data["pairs"] == 78
    assert r.data["tightest"]["rel_margin_exp2"] < 0


def test_quotient_bound_fail_witness(monkeypatch):
    # pi taken as 2: zeta(2)/zeta(4) = 15/pi^2 reads 15/4, so the excess at
    # (k, j) = (1, 1) reaches 11/4, far past the bound 3/4
    monkeypatch.setattr(claims, "pi_enclosure",
                        lambda p: Interval(2, 2 + F(1, 2**p)))
    r = check_quotient_bound(3)
    assert r.status == "fail"
    assert r.detail == "bound violated"
    assert (r.witness["k"], r.witness["j"]) == (1, 1)
    assert r.witness["excess"].hi == F(11, 4)


def test_ratio_corner_is_a_finding():
    """The index-ratio bound is strict except at (k, j) = (3, 2) exactly."""
    r = check_ratio_max(6)
    assert r.status == "finding"
    assert r.ok
    assert r.witness == {"k": 3, "j": 2, "value": F(25, 9)}
    assert r.data["equalities"] == [{"k": 3, "j": 2}]
    assert r.data["checked"] == 10
    # independent arithmetic for the corner itself
    assert F((2 * 2 + 1) * (2 * 3 + 3 - 4), (2 * 2 - 1) * (2 * 3 + 1 - 4)) == F(25, 9)


def test_zeta_sum_bracket_is_tiny():
    r = check_zeta_sum_identity(64)
    assert r.status == "pass"
    assert r.data["width"] < F(1, 10**30)


def _fresh_zeta_sum_width(before: str) -> str:
    return fresh_python("-c", (
        "from reczeros.claims import run_all\n" + before
        + "rep = run_all(14, 2)\n"
        + "print({r.claim_id: r for r in rep.results}['zeta-sum-half']"
        + ".data['width'])"))


def test_zeta_sum_width_does_not_depend_on_pi_history():
    # the k = 5 sign grid needs cos(pi/4) at 1024 bits, hence pi at 1024 bits
    warmed = _fresh_zeta_sum_width(
        "run_all(5, 1, precision=1024, suite='props')\n")
    assert warmed == _fresh_zeta_sum_width("")


def test_qj_monotone():
    r = check_qj_monotone(12)
    assert r.status == "pass"
    assert r.data["comparisons"] == 30
    # q(4, .) runs 33/20 > 11/10 by known zeta ratios
    assert q(4, 1) == F(33, 20) and q(4, 2) == F(11, 10)


def test_delta_majorant_exact():
    r = check_delta_bound((3, 12), (1, 4))
    assert r.status == "pass"
    assert r.data["instances"] == 40
    assert r.data["tightest"]["rel_margin_milli"] > 0


def test_delta_majorant_rejects_small_k():
    with pytest.raises(ValueError):
        check_delta_bound((2, 5), (1, 1))


def test_sign_pattern_all_exact_for_small_denominators():
    """k = 3 and k = 4 grids hit only angles with 2cos(theta) in {0,+-1,+-2}."""
    r3 = check_sign_pattern(3, 1)
    assert r3.status == "pass"
    assert r3.data == {"case": "ell odd", "points": 4, "exact_points": 4,
                       "sign_changes": 4, "max_precision": 0}
    r4 = check_sign_pattern(4, 1)
    assert r4.data["exact_points"] == 6 and r4.data["max_precision"] == 0


def test_sign_pattern_shifted_grid_for_even_even():
    r = check_sign_pattern(4, 2)
    assert r.status == "pass"
    assert r.data["case"] == "ell even, k even"
    assert r.data["points"] == 6
    assert r.data["exact_points"] == 2
    assert r.data["sign_changes"] == 6


def test_sign_pattern_change_count_matches_circle_pairs():
    """Every grid the suite runs passes at its starting precision."""
    max_precision = Counter()
    for k in range(3, 13):
        for ell in range(1, 7):
            r = check_sign_pattern(k, ell)
            assert r.status == "pass", (k, ell)
            assert r.data["sign_changes"] == 2 * k - 2, (k, ell)
            max_precision[r.data["max_precision"]] += 1
    # 0 when every grid angle has a rational 2cos; none escalates past 128
    assert max_precision == {128: 51, 0: 9}


def test_sign_pattern_undecided_at_the_cap(monkeypatch):
    # cos^2 taken as [0, 1] leaves T(2 cos theta) straddling 0 at any
    # precision; j = 1 (theta = pi/4) is the first angle off the exact set
    monkeypatch.setattr(claims, "cos_pi_square",
                        lambda p, den, pr: (0, 1 << (2 * pr + 16)))
    r = check_sign_pattern(5, 1)
    assert r.status == "inconclusive"
    assert r.witness == {"j": 1, "precision_cap": PRECISION_CAP}
    assert r.detail == "grid sign undecided at the precision cap"


def test_sign_pattern_fail_on_a_wrong_grid_sign(monkeypatch):
    monkeypatch.setattr(claims, "horner_sign", lambda *a, **kw: -1)
    r = check_sign_pattern(5, 1)
    assert r.status == "fail"
    assert r.witness == {"j": 1, "theta_over_pi": F(1, 4), "got": -1,
                         "expected": 1}
    assert r.detail == "grid sign disagrees"


def test_sign_pattern_fail_on_a_grid_zero(monkeypatch):
    # W(v) = 3v - v^2, so T(w) = 3w^2 - w^4, has the expected signs at
    # theta = 0 and pi/4 and vanishes at theta = pi/2, where
    # 2 cos theta = 0 is evaluated exactly
    monkeypatch.setattr(claims, "boundary_profile", lambda k, ell:
                        BoundaryProfile(1, "even", (0, 3, -1)))
    r = check_sign_pattern(5, 1)
    assert r.status == "fail"
    assert r.witness == {"j": 2, "theta_over_pi": F(1, 2)}
    assert r.detail == "profile vanishes at a grid point"


def test_sign_pattern_needs_k3():
    with pytest.raises(ValueError):
        check_sign_pattern(2, 1)


def test_unit_values():
    r = check_pm1_zero(8, 3)
    assert r.status == "pass" and r.data["checked"] == 24
    assert to_sympy(reciprocal_poly(2, 1).ints).eval(-1) == 0
    assert to_sympy(reciprocal_poly(2, 2).ints).eval(1) == 0
    assert to_sympy(reciprocal_poly(3, 1).ints).eval(1) != 0


def test_alternating_sums_with_frozen_values():
    """G(3,2) = -151/36 and H(2,2) = 49/12, from the exact zeta ratios."""
    r = check_GH_signs(6, 2)
    assert r.status == "pass" and r.data["checked"] == 6
    g32 = -q(3, 1) ** 2 + q(3, 2) ** 2 - q(3, 3) ** 2
    assert g32 == F(-151, 36) and g32 < -1
    h22 = F(4, 3) * (-q(2, 1) ** 2 + 2 * q(2, 2) ** 2)
    assert h22 == F(49, 12)
    assert h22 == (2 * q(2, 1)) ** 2 / 3


def test_alternating_sums_vacuous_without_even_exponent():
    r = check_GH_signs(5, 1)
    assert r.status == "pass" and r.data["checked"] == 0
    assert r.detail == "empty parameter range"


def test_unit_values_fail_witness_is_the_exact_value(monkeypatch):
    # r = (2 + 3x + 2x^2) / 6 has r(1) = 7/6 and r(-1) = 1/6: neither
    # vanishes, so (2, 1) fails
    monkeypatch.setattr(claims, "reciprocal_poly",
                        lambda k, ell: Member((2, 3, 2), F(1, 6)))
    r = check_pm1_zero(2, 1)
    assert r.status == "fail"
    assert r.witness == {"k": 2, "ell": 1, "at_one": F(7, 6),
                         "at_minus_one": F(1, 6)}
    assert all(type(r.witness[key]) is F for key in ("at_one", "at_minus_one"))


def test_alternating_sums_vacuity_allocates_nothing_per_exponent():
    tracemalloc.start()
    try:
        r = check_GH_signs(0, 2_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r.detail == "empty parameter range"
    assert peak < 1 << 20


def test_run_all_refuses_a_grid_beyond_the_bound(monkeypatch):
    # the command-line test walks the other shapes of an oversized grid
    planned = []
    monkeypatch.setattr(claims, "map_calls", lambda *a: planned.append(a))
    with pytest.raises(ValueError, match="more than 10000"):
        run_all(0, 10**9)
    assert planned == []


def test_alpha_interval_passes_below_seven():
    r = check_alpha_interval((3, 6), (1, 5))
    assert r.status == "pass"
    assert r.data["checked"] == 12
    assert r.data["violations"] == []


def test_alpha_interval_upper_endpoint_fails_from_seven():
    """For l = 1 the stated upper endpoint is wrong once k >= 7.

    alpha - 4 grows like (log 3/2) k 4^(1-k), so the constant-3 budget in
    the endpoint 4(1 + 3*4^-k) is exhausted at k = 7.  The checker must
    certify the violation exactly and confirm the corrected endpoint
    4 + 3/k instead, reporting the whole claim as a finding.
    """
    r = check_alpha_interval((3, 8), (1, 1))
    assert r.status == "finding"
    assert r.ok
    assert [v["k"] for v in r.data["violations"]] == [7, 8]
    assert r.witness["k"] == 7 and r.witness["ell"] == 1
    assert r.witness["stated_upper"] == 4 + F(12, 4**7)
    assert r.witness["alpha"].lo > 4 + F(12, 4**7)
    assert r.witness["alpha"].hi < corrected_alpha_upper(7, 1)


def test_corrected_alpha_upper():
    assert corrected_alpha_upper(7, 1) == F(31, 7)
    assert corrected_alpha_upper(40, 1) == 4 + F(3, 40)
    with pytest.raises(ValueError):
        corrected_alpha_upper(7, 3)


def test_alpha_interval_vacuous_and_validation():
    r = check_alpha_interval((3, 6), (2, 2))
    assert r.status == "pass" and r.detail == "empty parameter range"
    with pytest.raises(ValueError):
        check_alpha_interval((2, 6), (1, 1))


def test_alpha_interval_ladder_stops_at_the_precision_cap(monkeypatch):
    # alpha pinned across the stated l = 3 endpoint (about 55.09) keeps the
    # window undecided; the zeta(2) power may then climb only to the cap,
    # and no environment variable lifts it
    real_zeta = bounds.zeta_even_enclosure
    asked = []

    def capped_zeta(m, precision):
        asked.append(precision)
        if precision > PRECISION_CAP:
            raise AssertionError("asked for %d bits" % precision)
        return real_zeta(m, 192)  # no real work at an escalated precision

    monkeypatch.setattr(bounds, "zeta_even_enclosure", capped_zeta)
    monkeypatch.setattr(bounds, "alpha_enclosure",
                        lambda k, ell, width:
                        Interval(50, 60))
    monkeypatch.setenv("REC_ZEROS_PREC_CAP", "8192")
    r = check_alpha_interval((3, 3), (3, 3))
    assert r.status == "inconclusive"
    assert r.witness["precision_cap"] == 4096
    assert asked == [192, 384, 768, 1536, 3072]


def test_alpha_interval_l1_walks_the_whole_width_ladder(monkeypatch):
    # like k = 180, which needs 6 width steps; l = 1 must not stop at the
    # length of a precision ladder
    widths = []

    def slow_alpha(k, ell, width):
        widths.append(width)
        if len(widths) <= 6:
            return Interval(4, 5)  # straddles the stated endpoint 4.1875
        return alpha_enclosure(k, ell, width=width)

    monkeypatch.setattr(bounds, "alpha_enclosure", slow_alpha)
    r = check_alpha_interval((3, 3), (1, 1))
    assert r.status == "pass" and r.data["checked"] == 1
    assert widths == [F(1, 10**20) / 2 ** (64 * i) for i in range(7)]


def test_ladder_rungs():
    assert list(ladder(5000, 2, 4096)) == [5000]  # first rung beyond the limit
    assert list(ladder(192, 2, 3072)) == [192, 384, 768, 1536, 3072]
    assert list(ladder(192, 2, 3071)) == [192, 384, 768, 1536]
    assert list(ladder(F(1), F(1, 4), F(1, 64))) == [1, F(1, 4), F(1, 16),
                                                     F(1, 64)]
    assert list(ladder(F(1), F(1, 4), F(1, 63))) == [1, F(1, 4), F(1, 16)]
    assert list(ladder(F(1, 128), F(1, 4), F(1, 64))) == [F(1, 128)]
    widths = list(ladder(F(1, 10**20), F(1, 2**64), WIDTH_FLOOR))
    assert len(widths) == 31
    assert widths[-1] / 2**64 < WIDTH_FLOOR <= widths[-1]


def test_alpha_k2_report_is_informational():
    r = check_alpha_k2_report(5)
    assert r.status == "finding" and r.ok
    assert r.data["inside_unasserted"] == {1: True, 3: True, 5: True}


def test_zero_location_grid_totals():
    r = check_zero_location_grid(6, 2)
    assert r.status == "pass"
    assert r.data == {"instances": 12, "unimodular_zeros": 30}


def test_run_all_order_and_statuses():
    rep = run_all(5, 2)
    assert rep.ok
    assert rep.counts() == {"pass": 15, "fail": 0, "inconclusive": 0,
                            "finding": 2}
    assert [r.claim_id for r in rep.results] == [
        "zeta-bounds",
        "zeta-quotient-bound",
        "index-ratio-bound",
        "zeta-sum-half",
        "q-monotone",
        "delta-majorant",
        "derivative-sign-sums",
        "unit-values",
        "sign-pattern-k3-l1",
        "sign-pattern-k3-l2",
        "sign-pattern-k4-l1",
        "sign-pattern-k4-l2",
        "sign-pattern-k5-l1",
        "sign-pattern-k5-l2",
        "alpha-interval",
        "alpha-interval-k2",
        "zero-location-grid",
    ]
    by_id = {r.claim_id: r for r in rep.results}
    assert by_id["index-ratio-bound"].status == "finding"
    assert by_id["alpha-interval"].status == "pass"
    table = serialize.to_table(serialize.verify_document(rep, "all"))
    assert table.splitlines()[0].startswith("claim")
    assert len(table.splitlines()) == len(rep.results) + 1


def test_run_all_suites_partition_the_plan():
    rep = run_all(4, 1, suite="lemmas")
    assert [r.claim_id for r in rep.results] == [
        "zeta-bounds", "zeta-quotient-bound", "index-ratio-bound",
        "zeta-sum-half", "q-monotone", "delta-majorant"]
    rep = run_all(4, 1, suite="intervals")
    assert [r.claim_id for r in rep.results] == ["alpha-interval",
                                                "alpha-interval-k2"]
    props = run_all(4, 1, suite="props")
    assert all(r.claim_id.startswith(("sign-pattern", "unit-values",
                                      "derivative-sign-sums",
                                      "zero-location"))
               for r in props.results)
    with pytest.raises(ValueError):
        run_all(4, 1, suite="everything")


def test_run_all_is_deterministic():
    assert (serialize.verify_document(run_all(4, 2), "all")
            == serialize.verify_document(run_all(4, 2), "all"))


def test_run_all_parallel_matches_serial():
    serial = run_all(4, 2)
    parallel = run_all(4, 2, jobs=3)
    assert (serialize.verify_document(parallel, "all")
            == serialize.verify_document(serial, "all"))


@pytest.mark.parametrize("k_max, ell_max", [(0, 0), (1, 0), (2, 1), (3, 0)])
def test_degenerate_grids_match_serial_through_the_pool(k_max, ell_max):
    # vacuous claims are planned as calls too, so they cross the pool
    for suite in claims.SUITES:
        serial = run_all(k_max, ell_max, suite=suite)
        parallel = run_all(k_max, ell_max, jobs=2, suite=suite)
        assert (serialize.verify_document(parallel, suite)
                == serialize.verify_document(serial, suite)), suite


def test_run_all_caps_the_sign_grid():
    """Beyond k = 12 the suite leaves boundary grids to direct calls."""
    rep = run_all(13, 1)
    ids = [r.claim_id for r in rep.results]
    assert "sign-pattern-k12-l1" in ids
    assert "sign-pattern-k13-l1" not in ids
    assert rep.ok
    alpha = {r.claim_id: r for r in rep.results}["alpha-interval"]
    assert alpha.status == "finding"
    assert [v["k"] for v in alpha.data["violations"]] == list(range(7, 14))


def test_run_all_empty_grid_is_all_vacuous_or_pass():
    rep = run_all(0, 0)
    assert rep.ok
    assert all(r.status == "pass" for r in rep.results)
    with pytest.raises(ValueError):
        run_all(-1, 0)


def test_claims_that_check_nothing_are_marked_vacuous():
    """q(2, .) has one index on its half, and no member has ell = 0."""
    by_id = {r.claim_id: r for r in run_all(2, 0).results}
    for claim_id in ("q-monotone", "unit-values", "zero-location-grid"):
        assert by_id[claim_id].status == "pass"
        assert by_id[claim_id].detail == EMPTY_RANGE, claim_id


def test_report_round_trips_to_plain_types():
    rep = run_all(3, 1)
    d = serialize.verify_document(rep, "all")
    assert d["ok"] is True

    def walk(obj):
        if isinstance(obj, dict):
            for v in obj.values():
                walk(v)
        elif isinstance(obj, (list, tuple)):
            for v in obj:
                walk(v)
        else:
            assert obj is None or isinstance(obj, (str, int, bool))

    walk(d)


def test_verify_document_requires_the_suite():
    # a default would label this lemmas-only report as the full suite
    rep = run_all(4, 2, suite="lemmas")
    with pytest.raises(TypeError):
        serialize.verify_document(rep)
    doc = serialize.verify_document(rep, "lemmas")
    assert doc["grid"]["suite"] == "lemmas"
