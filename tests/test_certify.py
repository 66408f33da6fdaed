from fractions import Fraction as F
from math import inf

import pytest
from hypothesis import given, strategies as st

from reczeros import certify
from reczeros.certify import (
    alpha_enclosure,
    alternation_box,
    certify_zeros,
    cosine_grid,
    cyclotomic,
    euler_phi,
    roots_of_unity_zeros,
    zero_certificate,
)
from reczeros.family import monic_even_form, reciprocal_poly, sigma_of
from reczeros.polycore import Poly, SturmChain

from numeric_oracle import root_classes


def test_certificate_quartic_base():
    cert = certify_zeros(1, 1)
    assert cert.conforms and cert.simple
    assert cert.degree == 2
    assert cert.unimodular_count == 0
    assert cert.positive_pair_count == 1
    assert cert.negative_pair_count == 0
    assert cert.complex_offcircle_count == 0
    assert not cert.root_at_one and not cert.root_at_minus_one
    assert cert.v_box is not None
    assert cert.v_box.lo < 7 < cert.v_box.hi


def test_certificate_k2_picks_up_minus_one():
    cert = certify_zeros(2, 1)
    assert cert.conforms
    assert cert.unimodular_count == 1
    assert cert.root_at_minus_one and not cert.root_at_one
    assert reciprocal_poly(2, 1)(-1) == 0
    assert cert.v_box.lo < F(13, 2) < cert.v_box.hi


def test_certificate_k2_ell2_picks_up_plus_one():
    cert = certify_zeros(2, 2)
    assert cert.conforms
    assert cert.sigma == -1
    assert cert.unimodular_count == 1
    assert cert.root_at_one and not cert.root_at_minus_one
    assert reciprocal_poly(2, 2)(1) == 0


def test_certificate_k3_has_interior_pair():
    cert = certify_zeros(3, 1)
    assert cert.conforms
    assert cert.unimodular_count == 2
    assert cert.v_box.lo < F(19, 3) < cert.v_box.hi


def test_certificates_on_a_small_grid():
    for k in range(1, 9):
        for ell in range(1, 4):
            cert = certify_zeros(k, ell)
            assert cert.simple and cert.conforms, (k, ell)
            assert cert.unimodular_count == k - 1
            assert cert.positive_pair_count == 1
            assert cert.negative_pair_count == 0
            assert cert.complex_offcircle_count == 0
            assert cert.root_at_one == (sigma_of(k, ell) == -1)
            assert cert.root_at_minus_one == (k % 2 == 0 and sigma_of(k, ell) == 1)


def test_certificates_match_float_oracle():
    for k in range(1, 6):
        for ell in (1, 2):
            cert = certify_zeros(k, ell)
            got = root_classes(reciprocal_poly(k, ell))
            assert got["on"] == cert.unimodular_count, (k, ell)
            assert got["pos_out"] == 2 * cert.positive_pair_count
            assert got["neg_out"] == 2 * cert.negative_pair_count
            assert got["complex_off"] == cert.complex_offcircle_count


# -- the two certificate routes -----------------------------------------

def _fields(cert):
    box = cert.v_box
    return ({name: getattr(cert, name) for name in cert.__slots__
             if name not in ("v_box", "route")},
            None if box is None else
            (box.poly, box.lo, box.hi, box.sign_lo, box.sign_hi))


def test_alternation_and_sturm_certificates_agree(monkeypatch):
    fast = {(k, ell): certify_zeros(k, ell)
            for k in range(1, 29) for ell in range(1, 7)}
    monkeypatch.setattr(certify, "alternation_box", lambda w, n: None)
    for (k, ell), cert in fast.items():
        slow = certify_zeros(k, ell)
        assert cert.route == "alternation" and slow.route == "sturm"
        assert _fields(cert) == _fields(slow), (k, ell)


def test_one_certificate_per_member(monkeypatch):
    calls = []
    compute = certify.certify_zeros
    monkeypatch.setattr(certify, "certify_zeros",
                        lambda k, ell: calls.append((k, ell)) or compute(k, ell))
    zero_certificate.cache_clear()
    cert = zero_certificate(5, 2)
    alpha_enclosure(5, 2)
    alpha_enclosure(5, 2, F(1, 10**30))
    assert zero_certificate(5, 2) is cert
    assert calls == [(5, 2)]
    assert _fields(cert) == _fields(compute(5, 2))


def _sturm_root_counts(w):
    chain = SturmChain(w)
    return (chain.count_open(F(0), F(4)), chain.count_open(F(4), inf),
            chain.count_open(-inf, F(0)), chain.count_open(-inf, inf))


@given(inside=st.lists(st.fractions(min_value=0, max_value=4,
                                    max_denominator=1 << 12),
                       max_size=6),
       beyond=st.fractions(min_value=4, max_value=40, max_denominator=64),
       extra=st.lists(st.fractions(min_value=-8, max_value=40,
                                   max_denominator=64), max_size=2),
       n=st.integers(1, 40), scale=st.integers(-5, 5).filter(bool))
def test_alternation_counts_match_sturm(inside, beyond, extra, n, scale):
    # distinct rational roots, mostly laid out the way alternation can close
    roots = set(inside) | {beyond} | set(extra)
    w = Poly([scale])
    for r in roots:
        w = w * Poly([-r, 1])
    box = alternation_box(w, n)
    if box is None:
        return
    h = w.degree()
    assert _sturm_root_counts(w) == (h - 1, 1, 0, h)
    assert (box.lo, box.hi) == (F(4), certify.cauchy_bound(w))
    assert box.lo < max(roots) < box.hi


def _linears(*roots):
    out = Poly([1])
    for r in roots:
        out = out * Poly([-F(r), 1])
    return out


@pytest.mark.parametrize("w, control", [
    # a complex pair: two sign changes short on [0, 4]
    (_linears("3/2", 5) * Poly([1, 0, 1]), _linears("1/2", "3/2", "5/2", 5)),
    # a double root: W touches zero without changing sign
    (_linears("3/2", "3/2", 5), _linears("3/2", "5/2", 5)),
    # a root exactly on the grid point 4 cos^2(pi/3) = 1
    (_linears(1, "3/2", 5), _linears("1/2", "3/2", 5)),
    # the sign change on [0, 4] is there, but the other root is at -1
    (_linears("3/2", -1), _linears("3/2", 5)),
])
def test_alternation_declines_what_it_cannot_prove(w, control):
    assert 1 << certify.GRID_BITS in cosine_grid(6)  # the grid point 1
    assert alternation_box(w, 6) is None
    # the same shape without the defect closes
    assert alternation_box(control, 6) is not None


def test_alpha_enclosure_quartic_base():
    a = alpha_enclosure(1, 1, F(1, 10**30))
    assert a.width() <= F(1, 10**30)
    # the exact value is (5 + sqrt 21)/2: check by squaring, no floats
    lo, hi = 2 * a.lo - 5, 2 * a.hi - 5
    assert lo > 0
    assert lo * lo < 21 < hi * hi


def test_alpha_enclosure_k2_sum_is_nine_halves():
    a = alpha_enclosure(2, 1, F(1, 10**25))
    s = a + a.inverse()
    assert s.contains(F(9, 2))
    # equivalently alpha solves 2 x^2 - 9 x + 2 = 0
    lo, hi = 4 * a.lo - 9, 4 * a.hi - 9
    assert lo > 0
    assert lo * lo < 65 < hi * hi


def test_alpha_enclosure_width_and_reuse():
    wide = alpha_enclosure(4, 2, F(1, 10**6))
    tight = alpha_enclosure(4, 2, F(1, 10**40))
    assert wide.width() <= F(1, 10**6)
    assert tight.width() <= F(1, 10**40)
    assert wide.lo <= tight.lo and tight.hi <= wide.hi
    assert tight.lo > 1


def test_alpha_enclosure_rejects_bad_width():
    with pytest.raises(ValueError):
        alpha_enclosure(1, 1, F(0))


def test_alpha_against_float_oracle():
    from numeric_oracle import largest_real_root

    for k in range(1, 7):
        for ell in (1, 2, 3):
            a = alpha_enclosure(k, ell, F(1, 10**12))
            ref = largest_real_root(reciprocal_poly(k, ell))
            assert ref is not None
            assert abs(F(ref) - (a.lo + a.hi) / 2) < F(1, 10**6)


def test_cyclotomic_golden():
    assert cyclotomic(1) == Poly([-1, 1])
    assert cyclotomic(2) == Poly([1, 1])
    assert cyclotomic(3) == Poly([1, 1, 1])
    assert cyclotomic(4) == Poly([1, 0, 1])
    assert cyclotomic(6) == Poly([1, -1, 1])
    assert cyclotomic(8) == Poly([1, 0, 0, 0, 1])
    assert cyclotomic(12) == Poly([1, 0, -1, 0, 1])
    assert cyclotomic(7) == Poly([1] * 7)


def test_cyclotomic_product_recovers_power():
    for n in range(1, 61):
        prod = Poly([1])
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == Poly.monomial(n, 1) + Poly([-1]), n


def _phi_by_trial_division(n: int) -> int:
    out = n
    m = n
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


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert euler_phi(97) == 96
    assert euler_phi(360) == 96
    assert [euler_phi(n) for n in range(1, 3001)] == [
        _phi_by_trial_division(n) for n in range(1, 3001)]


def test_unity_orders_golden():
    assert roots_of_unity_zeros(1, 1) == []
    assert roots_of_unity_zeros(2, 1) == [2]
    assert roots_of_unity_zeros(2, 2) == [1]
    assert roots_of_unity_zeros(3, 1) == [3]


def test_unity_orders_match_fraction_division_oracle():
    for k in range(1, 21):
        deg = k + 1
        orders = [n for n in range(1, 2 * deg * deg + 1)
                  if _phi_by_trial_division(n) <= deg]
        for ell in range(1, 7):
            r = reciprocal_poly(k, ell)
            want = [n for n in orders if (r % cyclotomic(n)).is_zero()]
            assert roots_of_unity_zeros(k, ell) == want, (k, ell)


def test_unity_orders_stay_trivial_for_higher_ell():
    for k in range(3, 9):
        for ell in (2, 3):
            orders = roots_of_unity_zeros(k, ell)
            assert set(orders) <= {1, 2}, (k, ell, orders)


def test_unity_order_three_splits_off_exactly():
    r = reciprocal_poly(3, 1)
    quotient, remainder = divmod(r, cyclotomic(3))
    assert remainder.is_zero()
    assert quotient.degree() == 2
    assert (r % cyclotomic(4)).is_zero() is False
