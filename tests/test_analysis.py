from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, strategies as st

from reczeros import analysis, bounds, certify
from reczeros.analysis import (
    AnalysisRecord,
    _family_discriminant,
    _floor_nth_root,
    analyze,
    discriminant,
    nth_root_enclosure,
    resultant,
)
from reczeros.bounds import stated_alpha_upper
from reczeros.certify import ALPHA_WIDTH, DEFAULT_PRECISION, alpha_enclosure
from reczeros.claims import check_alpha_interval
from reczeros.family import reciprocal_poly
from reczeros.interval import Interval
from reczeros.serialize import analysis_instance

from numeric_oracle import largest_real_root
from sympy_oracle import to_sympy
from sylvester_oracle import sylvester_discriminant, sylvester_resultant


def test_resultant_linear_pair():
    # Res(x - a, x - b) = a - b
    assert resultant((-2, 1), (-3, 1)) == -1
    assert resultant((-3, 1), (-2, 1)) == 1


def test_resultant_detects_shared_root():
    p = (2, -3, 1)   # (x-1)(x-2)
    q = (3, -4, 1)   # (x-1)(x-3)
    assert resultant(p, q) == 0


def test_resultant_scaling_law():
    p = (1, -5, 1)
    q = (-5, 2)  # p'
    base = resultant(p, q)
    p3, q5 = [3 * c for c in p], [5 * c for c in q]
    assert resultant(p3, q5) == 3 ** (len(q) - 1) * 5 ** (len(p) - 1) * base


def test_resultant_with_constant():
    p = (1, 0, 0, 2)  # degree 3
    assert resultant(p, (7,)) == 343
    assert resultant((7,), p) == 343


#: small entries make zero coefficients, and so degree gaps in the
#: remainder sequence, common
_coeffs = st.one_of(st.integers(-3, 3), st.integers(-10**12, 10**12))


def _polys(max_degree):
    return st.lists(_coeffs, min_size=1,
                    max_size=max_degree + 1).filter(lambda c: c[-1] != 0)


def _product(a, b):
    return [int(c) for c in reversed((to_sympy(a) * to_sympy(b)).all_coeffs())]


@given(p=_polys(8), q=_polys(8))
# a constant on either side, degree 1, and first-step degree gaps of 3 and 1
# where the second step has a gap of 2
@example(p=[1, 0, 0, 2], q=[-7])
@example(p=[-3], q=[1, 2, 3, -4])
@example(p=[3, -2], q=[5, 0, 0, 0, 0, -1])
@example(p=[1, 2, 0, 0, 0, 0, 0, 0, -1], q=[3, 0, 0, 0, 0, 1])
@example(p=[1, 0, 0, 0, 0, 1], q=[0, 1, 0, 0, 1])
def test_resultant_matches_the_sylvester_oracle(p, q):
    assume(len(p) + len(q) > 2)
    assert resultant(p, q) == sylvester_resultant(p, q)
    if len(p) > 1:
        assert discriminant(p) == sylvester_discriminant(p)


@given(p=_polys(4), q=_polys(4), common=_polys(4))
@example(p=[1], q=[2, -1], common=[-1, 1])
def test_resultant_vanishes_on_a_shared_factor(p, q, common):
    a, b = _product(p, common), _product(q, common)
    assume(len(a) + len(b) > 2)
    if len(common) >= 2:
        assert resultant(a, b) == 0
    assert resultant(a, b) == sylvester_resultant(a, b)


def test_discriminant_quadratic_is_b2_minus_4ac():
    assert discriminant((1, -5, 1)) == 21
    assert discriminant((3, 2, 1)) == 2 * 2 - 4 * 3
    assert discriminant((1, -2, 1)) == 0  # (x-1)^2


def test_discriminant_depressed_cubic():
    # disc(x^3 + px + q) = -4p^3 - 27q^2
    assert discriminant((0, -1, 0, 1)) == 4
    assert discriminant((1, -2, 0, 1)) == -4 * (-2) ** 3 - 27


def test_discriminant_scaling_and_validation():
    # Disc(c a) = c^(2d-2) Disc(a) for a of degree d
    assert discriminant((3, -15, 3)) == 9 * discriminant((1, -5, 1)) == 189
    assert discriminant((1, 2)) == 1
    with pytest.raises(ValueError):
        discriminant((5,))


def test_family_discriminant_base_case():
    """Disc of the quadratic member: its scale squared times 21."""
    ints, scale = reciprocal_poly(1, 1)
    assert scale**2 * discriminant(ints) == F(21, 518400)
    assert _family_discriminant(1, 1) == F(21, 518400)


def test_family_discriminant_matches_the_full_degree_sylvester_route():
    """The half-degree identity and the PRS against Bareiss on the
    (2k+1)-dimensional Sylvester matrix of R itself, on a grid holding both
    parities of deg W and both cases with a zero at x = +-1."""
    for k in range(1, 16):
        for ell in range(1, 7):
            ints, scale = reciprocal_poly(k, ell)
            assert _family_discriminant(k, ell) == (
                scale ** (2 * k) * sylvester_discriminant(ints)), (k, ell)


def test_nth_root_enclosure_certified():
    r = nth_root_enclosure(2, 2)
    assert r.lo**2 <= 2 <= r.hi**2
    assert r.width() == F(1, 2**128)
    r = nth_root_enclosure(F(27, 8), 3)
    assert r.lo <= F(3, 2) <= r.hi
    assert r.width() == F(1, 2**128)
    r = nth_root_enclosure(F(10**30), 5)
    assert r.lo <= 10**6 <= r.hi


def test_nth_root_enclosure_validation():
    with pytest.raises(ValueError):
        nth_root_enclosure(0, 2)
    with pytest.raises(ValueError):
        nth_root_enclosure(-3, 2)
    with pytest.raises(ValueError):
        nth_root_enclosure(2, 0)


@given(a=st.one_of(st.integers(0, 64), st.integers(0, 10**400)),
       n=st.integers(1, 80), base=st.integers(0, 10**6),
       step=st.integers(-1, 1))
@example(a=2, n=2, base=1, step=1)
def test_floor_nth_root_brackets(a, n, base, step):
    """r^n <= a < (r + 1)^n, on any a and on a next to an exact power."""
    for value in (a, max(base**n + step, 0)):
        r = _floor_nth_root(value, n)
        assert r**n <= value < (r + 1) ** n


@given(num=st.integers(1, 10**60), den=st.integers(1, 10**60),
       n=st.integers(1, 80))
@example(num=27, den=8, n=3)
@example(num=1, den=1, n=80)
def test_nth_root_enclosure_brackets(num, den, n):
    v = F(num, den)
    r = nth_root_enclosure(v, n)
    assert r.lo**n <= v < r.hi**n
    assert r.width() == F(1, 2**DEFAULT_PRECISION)


def test_mahler_measure_base_case():
    """(1,1): measure is (5 + sqrt(21))/1440 ~ 0.0066546."""
    m = analyze(1, 1).mahler
    assert F(66545, 10**7) < m.lo < m.hi < F(66546, 10**7)


def test_mahler_measure_positive_on_grid():
    for k in range(1, 7):
        for ell in range(1, 4):
            m = analyze(k, ell).mahler
            assert m.lo > 0, (k, ell)


def test_mahler_measure_refuses_nonconforming_certificate(monkeypatch):
    monkeypatch.setattr(analysis, "zero_certificate",
                        lambda k, ell: SimpleNamespace(conforms=False,
                                                       simple=True))
    with pytest.raises(ValueError, match="does not conform"):
        analyze(1, 1)


def test_analyze_refines_alpha_once_per_member(monkeypatch):
    """The measure is |lc| times the window walk's first alpha enclosure,
    so a member whose walk settles on its first rung refines alpha once."""
    widths = []
    real_refine = certify._alpha_from_box

    def counted(box, ints, width):
        widths.append(width)
        return real_refine(box, ints, width)

    monkeypatch.setattr(certify, "_alpha_from_box", counted)
    members = [(k, ell) for k in range(1, 7) for ell in range(1, 4)]
    records = [analyze(k, ell) for k, ell in members]
    assert widths == [ALPHA_WIDTH] * len(members)
    for (k, ell), rec in zip(members, records):
        ints, scale = reciprocal_poly(k, ell)
        lead = scale * abs(ints[-1])
        assert rec.mahler == lead * alpha_enclosure(k, ell), (k, ell)


def test_mahler_inequality_small_cases():
    assert analyze(1, 1).mahler_inequality_ok
    assert analyze(2, 1).mahler_inequality_ok
    # direct arithmetic for (1,1): 21/518400 <= 4 M^2 with M < 0.0066547
    m_hi = F(66547, 10**7)
    assert F(21, 518400) <= 4 * m_hi**2


def test_window_base_case():
    rec = analyze(1, 1)
    assert rec.disc_lower.lo**2 <= F(21, 4) <= rec.disc_lower.hi**2
    assert rec.stated_upper.lo == rec.stated_upper.hi == 7
    assert rec.alpha_in_interval


def test_window_membership_fails_where_the_endpoint_is_wrong():
    """l = 1, k = 7 exceeds the stated upper endpoint; False is certified."""
    rec = analyze(7, 1)
    assert rec.stated_upper.hi == 4 + F(12, 4**7)
    assert not rec.alpha_in_interval
    assert rec.mahler_inequality_ok  # alpha clears L while missing the window
    assert analyze(3, 2).alpha_in_interval


def test_window_validation():
    with pytest.raises(ValueError):
        analyze(0, 1)
    with pytest.raises(ValueError):
        analyze(1, 0)


def test_analyze_and_the_window_check_share_one_walk(monkeypatch):
    """An alpha enclosure straddling the l = 3 endpoint (about 55.09) at
    ALPHA_WIDTH sends analyze and check_alpha_interval alike to the second
    rung of bounds.window_walk, where the endpoint is taken at 384 bits."""
    real_alpha = certify.alpha_enclosure

    def straddling_alpha(k, ell, width):
        if width == ALPHA_WIDTH:
            return Interval(50, 60)
        return real_alpha(k, ell, width=width)

    monkeypatch.setattr(bounds, "alpha_enclosure", straddling_alpha)
    rec = analyze(3, 3)
    assert rec.stated_upper == stated_alpha_upper(3, 3, 384)
    assert rec.mahler_inequality_ok and rec.alpha_in_interval
    r = check_alpha_interval((3, 3), (3, 3))
    assert r.status == "pass" and r.data["max_precision"] == 384


def test_analyze_base_record():
    rec = analyze(1, 1)
    assert isinstance(rec, AnalysisRecord)
    assert rec.discriminant == F(21, 518400)
    assert rec.mahler_inequality_ok
    assert rec.alpha_in_interval
    d = analysis_instance(1, 1)
    assert d["discriminant"] == "7/172800"  # reduced form of 21/518400
    assert set(d) == {"k", "ell", "discriminant", "mahler",
                      "mahler_inequality_ok", "disc_lower", "stated_upper",
                      "alpha_in_interval"}


def test_analyze_runs_past_the_old_resultant_cap():
    rec = analyze(16, 1)
    assert rec.discriminant != 0


def test_analyze_membership_pattern_through_the_cap():
    for k in (5, 6, 7, 8):
        rec = analyze(k, 1)
        assert rec.discriminant != 0
        assert rec.mahler_inequality_ok
        assert rec.alpha_in_interval == (k <= 6), k


def test_analyze_agrees_with_float_oracle():
    rec = analyze(5, 2)
    ints, scale = reciprocal_poly(5, 2)
    alpha = float(rec.mahler.lo / abs(scale * ints[-1]))
    assert abs(alpha - largest_real_root(ints)) < 1e-8
