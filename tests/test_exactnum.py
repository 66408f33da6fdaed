import doctest
from fractions import Fraction as F

import pytest

import reczeros.exactnum
from reczeros.exactnum import (
    bernoulli,
    c_of,
    d,
    epsilon,
    q,
    zeta_even_enclosure,
    zeta_even_rational,
    zeta_series_enclosure,
)
from reczeros.interval import Interval

ZETA2_40 = F("1.644934066848226436472415166646025189218")
ZETA3_30 = F("1.202056903159594285399738161511")
ZETA4_30 = F("1.082323233711138191516003696541")


def test_bernoulli_small():
    assert bernoulli(0) == 1
    assert bernoulli(1) == F(-1, 2)
    assert bernoulli(2) == F(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == F(-1, 30)
    assert bernoulli(6) == F(1, 42)
    assert bernoulli(8) == F(-1, 30)
    assert bernoulli(10) == F(5, 66)


def test_bernoulli_larger():
    assert bernoulli(12) == F(-691, 2730)
    assert bernoulli(20) == F(-174611, 330)
    assert bernoulli(30) == F(8615841276005, 14322)
    for n in (5, 7, 9, 21):
        assert bernoulli(n) == 0


def test_bernoulli_validates():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_zeta_even_rational_values():
    # zeta(2m) / pi^(2m)
    assert zeta_even_rational(1) == F(1, 6)
    assert zeta_even_rational(2) == F(1, 90)
    assert zeta_even_rational(3) == F(1, 945)
    assert zeta_even_rational(4) == F(1, 9450)
    assert zeta_even_rational(5) == F(1, 93555)
    assert zeta_even_rational(6) == F(691, 638512875)


def test_zeta_even_rational_positive():
    for m in range(1, 60):
        assert zeta_even_rational(m) > 0


def test_q_values():
    assert q(1, 1) == F(5, 2)
    assert q(2, 1) == F(7, 4)
    assert q(2, 2) == F(7, 4)
    assert q(3, 1) == F(5, 3)
    assert q(3, 2) == F(7, 6)
    assert q(4, 2) == F(11, 10)


def test_q_symmetry_and_range():
    for k in range(1, 12):
        for j in range(1, k + 1):
            v = q(k, j)
            assert v == q(k, k + 1 - j)
            assert v > 1


def test_q_decreasing_towards_middle():
    for k in (5, 6, 9, 12):
        mid = (k + 1) // 2
        for j in range(1, mid):
            assert q(k, j) > q(k, j + 1)


def test_q_validates():
    with pytest.raises(ValueError):
        q(3, 0)
    with pytest.raises(ValueError):
        q(3, 4)
    with pytest.raises(ValueError):
        q(0, 1)


def test_c_of_and_d():
    assert c_of(F(1), 3) == 7
    assert c_of(F(1, 2), 1) == 1
    assert d(1) == 1
    assert d(2) == F(11, 4)
    assert d(3) == F(93, 16)
    # geometric-sum identity
    for ell in range(1, 7):
        b = F(3, 10)
        assert c_of(b, ell) == sum((1 + b) ** i for i in range(ell))
    with pytest.raises(ValueError):
        c_of(F(0), 2)


def test_epsilon_values_and_symmetry():
    assert epsilon(3, 2) == F(505, 2304)
    for k in (5, 7, 10):
        for j in range(2, k):
            assert epsilon(k, j) == epsilon(k, k + 1 - j)
            assert epsilon(k, j) > 0
    with pytest.raises(ValueError):
        epsilon(3, 1)


def test_zeta_even_enclosure_tight():
    e = zeta_even_enclosure(1, 160)
    assert e.width() <= F(1, 10**45)
    loose = Interval(ZETA2_40 - F(1, 10**38), ZETA2_40 + F(1, 10**38))
    assert loose.contains(e)


def test_zeta_even_enclosure_zeta4():
    e = zeta_even_enclosure(2, 120)
    assert e.width() <= F(1, 10**33)
    loose = Interval(ZETA4_30 - F(1, 10**28), ZETA4_30 + F(1, 10**28))
    assert loose.contains(e)


def test_zeta_series_contains_zeta3():
    e = zeta_series_enclosure(3, 40)
    assert e.width() <= F(1, 1 << 38)
    assert e.contains(ZETA3_30)


def test_zeta_series_agrees_with_euler_route():
    for m, prec in ((2, 30), (3, 30), (5, 40)):
        a = zeta_series_enclosure(2 * m, prec)
        b = zeta_even_enclosure(m, prec + 20)
        assert a.lo <= b.hi and b.lo <= a.hi  # the enclosures overlap
        assert a.lo - F(1, 1 << prec) < b.lo and b.hi < a.hi + F(1, 1 << prec)


def test_zeta_series_monotone_in_n():
    assert zeta_series_enclosure(7, 48).hi < zeta_series_enclosure(5, 48).lo


def test_zeta_series_refuses_hopeless_precision():
    with pytest.raises(ValueError):
        zeta_series_enclosure(2, 200)
    with pytest.raises(ValueError):
        zeta_series_enclosure(1, 20)


def test_docstring_examples():
    assert doctest.testmod(reczeros.exactnum).failed == 0
