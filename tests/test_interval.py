from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from reczeros import bounds
from reczeros.bounds import (
    PRECISION_CAP,
    cos_enclosure,
    cos_pi_square,
    horner_sign,
    pi_enclosure,
    pow_rounded,
)
from reczeros.interval import (
    Interval,
    _horner_mantissas,
    ceil_scaled,
    dyadic_mantissa,
    floor_scaled,
)

import claims_reference as ref
from sympy_oracle import encloses, from_bounds, to_bounds, to_rational

PI_40 = F("3.141592653589793238462643383279502884197")  # truncated, < pi


def test_construct_and_queries():
    iv = Interval(F(1, 3), F(1, 2))
    assert iv.width() == F(1, 6)
    assert encloses(iv, F(2, 5))
    assert not encloses(iv, F(2, 3))
    assert encloses(iv, Interval(F(1, 3), F(5, 12)))
    assert Interval(2).lo == Interval(2).hi == 2


def test_point_interval_and_order_check():
    assert Interval(F(3, 7)).width() == 0
    with pytest.raises(ValueError):
        Interval(1, 0)


def test_signs():
    # y itself over the interval: decided only where it keeps one sign
    y = [0, 1]
    assert horner_sign(y, 1, 2, 0, 8) == 1
    assert horner_sign(y, -3, -1, 0, 8) == -1
    assert horner_sign(y, -1, 1, 0, 8) == 0
    assert horner_sign(y, 0, 1, 0, 8) == 0
    # [3/1024, 5/1024] rounds outward to [0, 1/256] over 2^8
    assert horner_sign(y, 3, 5, 10, 8) == 0
    assert horner_sign(y, 3, 5, 10, 10) == 1


def test_dyadic_mantissa():
    assert dyadic_mantissa(F(3, 4), 2) == 3
    assert dyadic_mantissa(F(-3, 4), 5) == -24
    assert dyadic_mantissa(F(5), 3) == 40


def test_arithmetic_basics():
    a = Interval(1, 2)
    assert 2 * a == a * 2 == Interval(2, 4)
    assert a * F(1, 3) == Interval(F(1, 3), F(2, 3))
    assert a * 0 == Interval(0)


_points = st.fractions(min_value=-8, max_value=8, max_denominator=1 << 12)


@st.composite
def _interval_and_member(draw):
    a, b = draw(_points), draw(_points)
    lo, hi = min(a, b), max(a, b)
    t = draw(st.sampled_from((0, 1))
             | st.fractions(0, 1, max_denominator=1 << 8))
    return Interval(lo, hi), lo + t * (hi - lo)


@given(xs=_interval_and_member(),
       c=st.fractions(min_value=0, max_value=8, max_denominator=1 << 12))
def test_arithmetic_contains_the_pointwise_results(xs, c):
    big_x, x = xs
    assert encloses(big_x * c, x * c)
    assert big_x * c == from_bounds(to_bounds(big_x) * to_rational(c))


def test_mul_sign_cases():
    """Only scaling by a nonnegative rational: a negative scale trips the
    order check, and a product of two intervals is refused."""
    with pytest.raises(ValueError):
        Interval(1, 2) * -1
    with pytest.raises(ValueError):
        F(-1, 3) * Interval(-2, 3)
    with pytest.raises(TypeError):
        Interval(1, 2) * Interval(3, 4)


def test_pow_rounded_contains_exact():
    iv = Interval(F(10, 7), F(11, 7))
    exact = from_bounds(to_bounds(iv)**13)
    rough = pow_rounded(iv, 13, 64)
    assert encloses(rough, exact)
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
    assert encloses(wide, tight)
    assert encloses(wide, again)
    assert encloses(fresh, tight) and encloses(wide, fresh)


@given(p1=st.integers(4, PRECISION_CAP + 8),
       p2=st.integers(4, PRECISION_CAP + 8))
def test_pi_enclosure_is_the_dyadic_cell_of_pi(p1, p2):
    mpmath = pytest.importorskip("mpmath")
    b = p1 + 8
    with mpmath.workprec(p1 + 64):
        f = int(mpmath.floor(mpmath.pi * 2**b))
    assert pi_enclosure(p1) == Interval(F(f, 1 << b), F(f + 1, 1 << b))
    lo, hi = sorted((p1, p2))
    assert encloses(pi_enclosure(lo), pi_enclosure(hi))


def test_pi_enclosure_shifts_the_finest_floor(monkeypatch):
    fine = pi_enclosure(1000)
    monkeypatch.setattr(bounds, "_arctan_recip_fixed",
                        lambda x, bits: pytest.fail("series rerun"))
    for p in (4, 48, 129, 1000):
        b = p + 8
        f = floor_scaled(fine.lo.numerator, fine.lo.denominator, b)
        assert pi_enclosure(p) == Interval(F(f, 1 << b), F(f + 1, 1 << b))


def test_cos_point_values():
    one = cos_enclosure(Interval(0), 64)
    assert encloses(one, 1) and one.width() <= F(1, 1 << 60)
    # cos(1), truncated well below the enclosure width
    c1 = cos_enclosure(Interval(1), 96)
    assert encloses(c1, F("0.5403023058681397174009366074429766037323"))
    c2 = cos_enclosure(Interval(2), 96)
    assert encloses(c2, F("-0.4161468365471423869975682295007621897660"))
    assert c2.hi < 0


def test_cos_stays_in_unit_range():
    for x in (F(7, 2), F(5, 3), F(31, 10)):
        e = cos_enclosure(Interval(x), 40)
        assert -1 <= e.lo <= e.hi <= 1


def test_cos_refuses_a_negative_interval():
    for x in (Interval(F(-5, 3)), Interval(-1, 1), Interval(F(-1, 3), 0)):
        with pytest.raises(ValueError):
            cos_enclosure(x, 40)


def test_cos_of_interval_argument():
    # cos over [1, 2] lands inside [cos 2, cos 1]
    e = cos_enclosure(Interval(1, 2), 48)
    assert e.lo <= F("-0.41614683654714") and e.hi >= F("0.54030230586813")
    assert encloses(e, 0)


def test_cos_near_pi():
    p = pi_enclosure(96)
    e = cos_enclosure(p, 96)
    assert encloses(e, -1)
    assert e.lo >= -1


def test_cos_pi_square_contains_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for precision in (64, 128, 256):
        one = 1 << (2 * precision + 16)
        with mpmath.workprec(precision + 64):
            for q in range(1, 25):
                for p in range(0, 4 * q + 1):
                    lo, hi = cos_pi_square(p, q, precision)
                    e = Interval(F(lo, one), F(hi, one))
                    v = mpmath.cospi(mpmath.mpf(p) / q)
                    exact = F(*mpmath.libmp.to_rational(v._mpf_)) ** 2
                    assert encloses(e, exact), (p, q, precision)
                    assert e.width() <= F(2) ** (5 - precision), (p, q)


def test_cos_pi_square_is_the_square_of_the_cos_enclosure():
    # the interval product of the Fraction route's cos(pi r) enclosure with
    # itself, as sympy takes it
    for precision in (64, 100, 128):
        one = 1 << (2 * precision + 16)
        for q in range(1, 30):
            for p in range(-q, 3 * q):
                cos = ref.cos_pi_enclosure(F(p, q), precision)
                lo, hi = cos_pi_square(p, q, precision)
                square = from_bounds(to_bounds(cos) * to_bounds(cos))
                assert Interval(F(lo, one), F(hi, one)) == square, (p, q)


def test_cos_pi_square_computes_one_enclosure_per_reduced_class():
    """1/3, -4/6, 5/3 and 2/6 all reduce to the class 1/3 in [0, 1/2], so
    at one precision they share the one enclosure computed for it."""
    bounds._cos_pi_square_reduced.cache_clear()
    got = {cos_pi_square(p, den, 64)
           for p, den in ((1, 3), (-4, 6), (5, 3), (2, 6))}
    assert bounds._cos_pi_square_reduced.cache_info().misses == 1
    # the mantissas over 2^144 of the enclosure of cos(pi / 3)^2 = 1/4
    assert got == {(5575186299632655785379207201679220731281409,
                    5575186299632655785497266363750961861624384)}


_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=1 << 20)


@given(data=st.data(),
       coeffs=st.lists(st.integers(-(1 << 80), 1 << 80),
                       min_size=1, max_size=12),
       bits=st.integers(1, 96))
def test_horner_mantissas_enclose_the_exact_value(data, coeffs, bits):
    # endpoints on the 2^-bits grid leave the rounding no slack to hide in
    grid = st.integers(-4 << bits, 4 << bits).map(lambda n: F(n, 1 << bits))
    a, b = data.draw(grid | _rationals), data.draw(grid | _rationals)
    lo, hi = min(a, b), max(a, b)
    t = data.draw(st.sampled_from((0, 1))
                  | st.fractions(0, 1, max_denominator=1 << 10))
    x = lo + t * (hi - lo)
    exact = sum(c * x**i for i, c in enumerate(coeffs))
    mlo, mhi = _horner_mantissas(
        [(c << bits, c << bits) for c in coeffs],
        floor_scaled(lo.numerator, lo.denominator, bits),
        ceil_scaled(hi.numerator, hi.denominator, bits), bits)
    assert encloses(Interval(F(mlo, 1 << bits), F(mhi, 1 << bits)), exact)


@given(data=st.data(),
       coeffs=st.lists(st.integers(-(1 << 80), 1 << 80),
                       min_size=1, max_size=12),
       bits=st.integers(1, 96), xbits=st.integers(0, 200))
def test_horner_sign_matches_exact_sign(data, coeffs, bits, xbits):
    ends = st.integers(-4 << xbits, 4 << xbits)
    a, b = data.draw(ends), data.draw(ends)
    lo, hi = min(a, b), max(a, b)
    t = data.draw(st.sampled_from((0, 1))
                  | st.fractions(0, 1, max_denominator=1 << 10))
    x = (lo + t * (hi - lo)) / 2**xbits
    exact = sum(c * x**i for i, c in enumerate(coeffs))
    # a decided sign is the exact value's sign, wherever x lies
    got = horner_sign(coeffs, lo, hi, xbits, bits)
    if got:
        assert got == (exact > 0) - (exact < 0)
    # rounding the mantissas to 2^bits gives what the rational ends give
    y = Interval(F(lo, 1 << xbits), F(hi, 1 << xbits))
    assert got == ref.horner_sign(coeffs, y, bits)
    # and a factor 4 folded into xbits is the reference's x_shift = 2
    if xbits >= 2:
        assert (horner_sign(coeffs, lo, hi, xbits - 2, bits)
                == ref.horner_sign(coeffs, y, bits, x_shift=2))
