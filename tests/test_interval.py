import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from reczeros.interval import (
    Interval,
    cos_enclosure,
    cos_pi_enclosure,
    horner_rounded,
    pi_enclosure,
    pow_rounded,
)

PI_40 = F("3.141592653589793238462643383279502884197")  # truncated, < pi


def test_construct_and_queries():
    iv = Interval(F(1, 3), F(1, 2))
    assert iv.width() == F(1, 6)
    assert iv.contains(F(2, 5))
    assert not iv.contains(F(2, 3))
    assert iv.contains(Interval(F(1, 3), F(5, 12)))
    assert Interval(2).lo == Interval(2).hi == 2


def test_point_interval_and_order_check():
    assert Interval(F(3, 7)).width() == 0
    with pytest.raises(ValueError):
        Interval(1, 0)


def test_signs():
    assert Interval(1, 2).sign() == 1
    assert Interval(-3, -1).sign() == -1
    assert Interval(-1, 1).sign() == 0
    assert Interval(0, 1).sign() == 0


def test_arithmetic_basics():
    a = Interval(1, 2)
    b = Interval(-3, 4)
    assert a + b == Interval(-2, 6)
    assert a - b == Interval(-3, 5)
    assert -b == Interval(-4, 3)
    assert 2 + a == Interval(3, 4)
    assert 3 - a == Interval(1, 2)
    assert a * b == Interval(-6, 8)
    assert 2 * a == Interval(2, 4)


_points = st.fractions(min_value=-8, max_value=8, max_denominator=1 << 12)


@st.composite
def _interval_and_member(draw):
    a, b = draw(_points), draw(_points)
    lo, hi = min(a, b), max(a, b)
    t = draw(st.sampled_from((0, 1))
             | st.fractions(0, 1, max_denominator=1 << 8))
    return Interval(lo, hi), lo + t * (hi - lo)


@given(xs=_interval_and_member(), ys=_interval_and_member(),
       n=st.integers(0, 7))
def test_arithmetic_contains_the_pointwise_results(xs, ys, n):
    (big_x, x), (big_y, y) = xs, ys
    assert (big_x + big_y).contains(x + y)
    assert (big_x - big_y).contains(x - y)
    assert (big_x * big_y).contains(x * y)
    assert (big_x ** n).contains(x ** n)
    if not big_y.lo <= 0 <= big_y.hi:
        assert (big_x / big_y).contains(x / y)


def test_mul_sign_cases():
    assert Interval(-2, -1) * Interval(-4, -3) == Interval(3, 8)
    assert Interval(-2, -1) * Interval(3, 4) == Interval(-8, -3)
    assert Interval(-2, 3) * Interval(-5, 7) == Interval(-15, 21)


def test_inverse_and_div():
    assert Interval(2, 4).inverse() == Interval(F(1, 4), F(1, 2))
    assert Interval(-4, -2).inverse() == Interval(F(-1, 2), F(-1, 4))
    assert Interval(1, 2) / Interval(2, 4) == Interval(F(1, 4), 1)
    assert 1 / Interval(2, 4) == Interval(F(1, 4), F(1, 2))
    with pytest.raises(ZeroDivisionError):
        Interval(-1, 1).inverse()
    with pytest.raises(ZeroDivisionError):
        Interval(0, 1).inverse()


def test_pow():
    assert Interval(-2, 3) ** 2 == Interval(0, 9)
    assert Interval(-2, -1) ** 2 == Interval(1, 4)
    assert Interval(-2, -1) ** 3 == Interval(-8, -1)
    assert Interval(-2, 3) ** 0 == Interval(1)
    with pytest.raises(ValueError):
        Interval(1, 2) ** (-1)


def test_pow_matches_random_products():
    rng = random.Random(20240817)
    for _ in range(120):
        lo = F(rng.randrange(-40, 40), rng.randrange(1, 9))
        hi = lo + F(rng.randrange(0, 30), rng.randrange(1, 9))
        n = rng.randrange(0, 6)
        iv = Interval(lo, hi)
        expected = Interval(1)
        for _ in range(n):
            expected = expected * iv
        got = iv**n
        # repeated multiplication may overestimate; the direct power may not
        assert expected.contains(got)
        for t in (lo, hi, (lo + hi) / 2):
            assert got.contains(t**n)


def test_pow_rounded_contains_exact():
    iv = Interval(F(10, 7), F(11, 7))
    exact = iv**13
    rough = pow_rounded(iv, 13, 64)
    assert rough.contains(exact)
    assert rough.width() <= exact.width() + F(1, 1 << 50)
    with pytest.raises(ValueError):
        pow_rounded(Interval(-1, 1), 2, 16)


def test_pi_enclosure_value_and_width():
    e = pi_enclosure(160)
    assert e.width() <= F(1, 1 << 156)
    # PI_40 is pi truncated at 39 places, so pi is in (PI_40, PI_40 + 1e-39)
    assert e.lo < PI_40 + F(1, 10**39)
    assert e.hi > PI_40
    assert F(314159, 100000) < e.lo and e.hi < F(314160, 100000)


def test_pi_enclosure_nesting():
    wide = pi_enclosure(48)
    tight = pi_enclosure(200)
    fresh = pi_enclosure(96)
    again = pi_enclosure(48)
    # any two enclosures are nested, whatever the call order
    assert wide.contains(tight)
    assert wide.contains(again)
    assert fresh.contains(tight) and wide.contains(fresh)


@given(p1=st.integers(4, 2000), p2=st.integers(4, 2000))
def test_pi_enclosure_is_the_dyadic_cell_of_pi(p1, p2):
    mpmath = pytest.importorskip("mpmath")
    b = p1 + 8
    with mpmath.workprec(p1 + 64):
        f = int(mpmath.floor(mpmath.pi * 2**b))
    assert pi_enclosure(p1) == Interval(F(f, 1 << b), F(f + 1, 1 << b))
    lo, hi = sorted((p1, p2))
    assert pi_enclosure(lo).contains(pi_enclosure(hi))


def test_cos_point_values():
    one = cos_enclosure(Interval(0), 64)
    assert one.contains(1) and one.width() <= F(1, 1 << 60)
    # cos(1), truncated well below the enclosure width
    c1 = cos_enclosure(Interval(1), 96)
    assert c1.contains(F("0.5403023058681397174009366074429766037323"))
    c2 = cos_enclosure(Interval(2), 96)
    assert c2.contains(F("-0.4161468365471423869975682295007621897660"))
    assert c2.sign() == -1


def test_cos_stays_in_unit_range():
    for x in (F(7, 2), F(-5, 3), F(31, 10)):
        e = cos_enclosure(Interval(x), 40)
        assert -1 <= e.lo <= e.hi <= 1


def test_cos_of_interval_argument():
    # cos over [1, 2] lands inside [cos 2, cos 1]
    e = cos_enclosure(Interval(1, 2), 48)
    assert e.lo <= F("-0.41614683654714") and e.hi >= F("0.54030230586813")
    assert e.contains(0)


def test_cos_near_pi():
    p = pi_enclosure(96)
    e = cos_enclosure(p, 96)
    assert e.contains(-1)
    assert e.lo >= -1


def test_cos_pi_enclosure_contains_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for precision in (64, 128, 256):
        with mpmath.workprec(precision + 64):
            for q in range(1, 25):
                for p in range(0, 4 * q + 1):
                    e = cos_pi_enclosure(F(p, q), precision)
                    v = mpmath.cospi(mpmath.mpf(p) / q)
                    exact = F(*mpmath.libmp.to_rational(v._mpf_))
                    assert e.contains(exact), (p, q, precision)
                    assert e.width() <= F(2) ** (4 - precision), (p, q)


_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=1 << 20)


@given(data=st.data(),
       coeffs=st.lists(st.integers(-(1 << 80), 1 << 80) | _rationals,
                       min_size=1, max_size=12),
       bits=st.integers(1, 96),
       shift=st.integers(0, 2))
def test_horner_rounded_contains_exact_value(data, coeffs, bits, shift):
    # endpoints on the 2^-bits grid leave the rounding no slack to hide in
    grid = st.integers(-4 << bits, 4 << bits).map(lambda n: F(n, 1 << bits))
    a, b = data.draw(grid | _rationals), data.draw(grid | _rationals)
    lo, hi = min(a, b), max(a, b)
    t = data.draw(st.sampled_from((0, 1))
                  | st.fractions(0, 1, max_denominator=1 << 10))
    x = lo + t * (hi - lo)
    exact = sum(c * (x * 2**shift)**i for i, c in enumerate(coeffs))
    got = horner_rounded(coeffs, Interval(lo, hi), bits, x_shift=shift)
    assert got.contains(exact)
    # the shift rounds x * 2^shift exactly as the scaled interval would
    scaled = horner_rounded(coeffs, Interval(lo * 2**shift, hi * 2**shift), bits)
    assert (got.lo, got.hi) == (scaled.lo, scaled.hi)
