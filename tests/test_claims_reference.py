"""The integer claim routes against their Fraction references.

`claims_reference` keeps the sign grid, the majorant chain, the G/H sums
and the zeta-sum bracket as they were written on `Fraction` and
`Interval`.  Each property draws inputs and asks for the same
`(status, witness, data, detail)` from both routes: on the real family,
where every check passes, and with a perturbed q, cap or W, which drives
the checks into their failure branches.
"""

from fractions import Fraction as F

import pytest
from hypothesis import (currently_in_test_context, event, given, settings,
                        strategies as st)

import claims_reference as ref
from fresh_process import fresh_python
from reczeros import claims
from reczeros.bounds import q
from reczeros.family import BoundaryProfile


def outcome(r):
    return (r.claim_id, r.params, r.status, r.witness, r.data, r.detail)


def assert_same(got, want):
    """Both routes agree; under a property, the branch reached is recorded
    for --hypothesis-show-statistics."""
    assert outcome(got) == outcome(want)
    if currently_in_test_context():
        event(got.status if got.status == "pass" else got.detail)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(3, 24), ell=st.integers(1, 6),
       precision=st.integers(64, 200))
def test_sign_pattern_matches_the_fraction_route(k, ell, precision):
    assert_same(claims.check_sign_pattern(k, ell, precision),
                ref.check_sign_pattern(k, ell, precision))


def test_sign_pattern_matches_on_the_suite_grid():
    for k in range(3, 13):
        for ell in range(1, 4):
            for precision in (64, 127, 128):
                assert_same(claims.check_sign_pattern(k, ell, precision),
                            ref.check_sign_pattern(k, ell, precision))


@st.composite
def _profiles(draw):
    """(k, ell, a drawn W with the reversal sign the parity split asks)."""
    k = draw(st.integers(3, 12))
    ell = draw(st.integers(1, 4))
    w = (draw(st.lists(st.integers(-6, 6), max_size=5))
         + [draw(st.integers(1, 6))])
    sigma = -1 if ell % 2 == 0 and k % 2 == 0 else 1
    parity = draw(st.sampled_from(("even", "odd")))
    return k, ell, BoundaryProfile(sigma, parity, tuple(w))


@settings(max_examples=100, deadline=None)
@given(case=_profiles())
def test_sign_pattern_failures_match_the_fraction_route(case):
    k, ell, prof = case
    with pytest.MonkeyPatch.context() as mp:
        for module in (claims, ref):
            mp.setattr(module, "boundary_profile", lambda k, ell: prof)
        assert_same(claims.check_sign_pattern(k, ell),
                    ref.check_sign_pattern(k, ell))


def test_sign_pattern_undecided_matches_the_fraction_route(monkeypatch):
    # W(v) = 2 - v has the expected sign at theta = 0 and vanishes at
    # 4 cos^2(pi/4) = 2, which no precision decides; a lower cap keeps
    # the ladder short
    prof = BoundaryProfile(1, "even", (2, -1))
    for module in (claims, ref):
        monkeypatch.setattr(module, "boundary_profile", lambda k, ell: prof)
        monkeypatch.setattr(module, "PRECISION_CAP", 512)
    got = claims.check_sign_pattern(5, 1)
    assert got.status == "inconclusive"
    assert got.witness == {"j": 1, "precision_cap": 512}
    assert outcome(got) == outcome(ref.check_sign_pattern(5, 1))


_k_ranges = st.tuples(st.integers(3, 30), st.integers(0, 8)).map(
    lambda t: (t[0], t[0] + t[1]))
_ell_ranges = st.tuples(st.integers(1, 6), st.integers(0, 5)).map(
    lambda t: (t[0], min(6, t[0] + t[1])))


@settings(max_examples=60, deadline=None)
@given(k_range=_k_ranges, ell_range=_ell_ranges)
def test_delta_bound_matches_the_fraction_route(k_range, ell_range):
    assert_same(claims.check_delta_bound(k_range, ell_range),
                ref.check_delta_bound(k_range, ell_range))


@settings(max_examples=60, deadline=None)
@given(k_max=st.integers(0, 30), ell_max=st.integers(0, 6))
def test_GH_signs_match_the_fraction_route(k_max, ell_max):
    assert_same(claims.check_GH_signs(k_max, ell_max),
                ref.check_GH_signs(k_max, ell_max))


def _bumped_q(data, k0):
    """q with q(k0, j0) moved by n / 2^e, from far past every bound to
    about the size of its distance to the tail weight, 4^-j."""
    j0 = data.draw(st.integers(1, k0))
    bump = F(data.draw(st.integers(-3, 3)),
             2 ** data.draw(st.integers(0, 2 * k0 + 2)))
    return lambda k, j: q(k, j) + bump if (k, j) == (k0, j0) else q(k, j)


@settings(max_examples=100, deadline=None)
@given(k_range=_k_ranges, ell_range=_ell_ranges, data=st.data())
def test_delta_bound_failures_match_the_fraction_route(k_range, ell_range,
                                                       data):
    bumped = _bumped_q(data, data.draw(st.integers(*k_range)))
    with pytest.MonkeyPatch.context() as mp:
        for module in (claims, ref):
            mp.setattr(module, "q", bumped)
        assert_same(claims.check_delta_bound(k_range, ell_range),
                    ref.check_delta_bound(k_range, ell_range))


@settings(max_examples=60, deadline=None)
@given(k_range=_k_ranges, ell_range=_ell_ranges,
       single=st.fractions(F(1, 5), F(2, 5), max_denominator=10**4),
       total=st.fractions(F(1, 5), F(2, 5), max_denominator=10**4))
def test_delta_bound_caps_match_the_fraction_route(k_range, ell_range,
                                                   single, total):
    with pytest.MonkeyPatch.context() as mp:
        for module in (claims, ref):
            mp.setattr(module, "EPS_SINGLE_CAP", single)
            mp.setattr(module, "EPS_TOTAL_CAP", total)
        assert_same(claims.check_delta_bound(k_range, ell_range),
                    ref.check_delta_bound(k_range, ell_range))


@settings(max_examples=100, deadline=None)
@given(k_max=st.integers(1, 16), ell_max=st.integers(2, 6), data=st.data())
def test_GH_signs_failures_match_the_fraction_route(k_max, ell_max, data):
    bumped = _bumped_q(data, data.draw(st.integers(1, k_max)))
    with pytest.MonkeyPatch.context() as mp:
        for module in (claims, ref):
            mp.setattr(module, "q", bumped)
        assert_same(claims.check_GH_signs(k_max, ell_max),
                    ref.check_GH_signs(k_max, ell_max))


@pytest.mark.parametrize("terms", [4, 5, 17, 64, 65, 100])
def test_zeta_sum_matches_the_interval_sum(terms):
    assert_same(claims.check_zeta_sum_identity(terms),
                ref.check_zeta_sum_identity(terms))


def test_zeta_sum_builds_the_bernoulli_table_once():
    # the last index is asked for first, so B_2 .. B_128 come from one
    # tangent table and the doubling rule never runs past B_128
    out = fresh_python("-c", (
        "from reczeros import claims, exactnum\n"
        "claims.check_zeta_sum_identity(64)\n"
        "print(len(exactnum._bern_even))"))
    assert out.strip() == "65"
