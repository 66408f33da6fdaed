"""The integer-mantissa enclosure kernels against their Fraction originals.

Each reference below is the `Fraction` code the kernel replaced, kept
verbatim apart from names.  The kernels must return the same intervals,
endpoint for endpoint, not merely enclosures of the same value.
"""

from fractions import Fraction as F
from math import comb, factorial, floor, ceil

from hypothesis import given, settings, strategies as st

from reczeros import claims, exactnum
from reczeros.exactnum import bernoulli, zeta_even_enclosure, zeta_even_rational
from reczeros.interval import (
    Interval,
    _arctan_recip_enclosure,
    cos_enclosure,
    pi_enclosure,
    pow_rounded,
)


def round_outward_ref(iv, bits):
    scale = 1 << bits
    return Interval(F(floor(iv.lo * scale), scale), F(ceil(iv.hi * scale), scale))


def horner_ref(coeffs, x, bits):
    acc = Interval(0)
    xr = round_outward_ref(x, bits)
    for c in reversed(coeffs):
        acc = round_outward_ref(acc * xr + round_outward_ref(Interval(c), bits), bits)
    return acc


def pow_rounded_ref(iv, n, bits):
    result = Interval(1)
    base = iv
    while n:
        if n & 1:
            result = round_outward_ref(result * base, bits)
        n >>= 1
        if n:
            base = round_outward_ref(base * base, bits)
    return result


def zeta_even_enclosure_ref(m, precision):
    pp = precision + max(4, (2 * m).bit_length()) + 8
    pisq = round_outward_ref(pi_enclosure(pp) ** 2, pp + 4)
    power = pow_rounded_ref(pisq, m, pp + 4)
    r = zeta_even_rational(m)
    return round_outward_ref(Interval(r * power.lo, r * power.hi), precision + 16)


def cos_enclosure_ref(x, precision):
    m = max(abs(x.lo), abs(x.hi))
    msq = m * m
    tol = F(1, 1 << (precision + 2))
    n = 1
    term = msq / 2
    while term >= tol:
        n += 1
        term = term * msq / ((2 * n - 1) * (2 * n))
    bits = precision + 8 + n * max(1, ceil(msq).bit_length())
    coeffs = [F((-1) ** i, factorial(2 * i)) for i in range(n)]
    out = horner_ref(coeffs, x**2, bits) + Interval(-term, term)
    out = out.intersect(Interval(-1, 1))
    return round_outward_ref(out, precision + 8)


def arctan_recip_ref(x, precision):
    bound = F(1, 1 << precision)
    s = F(0)
    i = 0
    sign = 1
    while True:
        t = F(1, (2 * i + 1) * x ** (2 * i + 1))
        nxt = s + sign * t
        if t < bound:
            return Interval(min(s, nxt), max(s, nxt))
        s = nxt
        sign = -sign
        i += 1


def bernoulli_even_ref(count):
    """B_0, B_2, ..., B_(2 count - 2) by the binomial recurrence."""
    bern = [F(1)]
    while len(bern) < count:
        t = 2 * len(bern)
        acc = F(1) - F(t + 1, 2)
        for i in range(1, len(bern)):
            acc += comb(t + 1, 2 * i) * bern[i]
        bern.append(-acc / (t + 1))
    return bern


def endpoint(bits):
    """A rational on the 2^-bits grid, or one off it."""
    grid = st.integers(0, 8 << bits).map(lambda n: F(n, 1 << bits))
    return grid | st.fractions(0, 8, max_denominator=1 << 90)


@settings(max_examples=300)
@given(data=st.data(), n=st.integers(0, 70), bits=st.integers(0, 200))
def test_pow_rounded_matches_fraction_reference(data, n, bits):
    a, b = data.draw(endpoint(bits)), data.draw(endpoint(bits))
    iv = Interval(min(a, b), max(a, b))
    assert pow_rounded(iv, n, bits) == pow_rounded_ref(iv, n, bits)


def test_pow_rounded_on_a_finer_pi_enclosure():
    # pi_enclosure may hand back endpoints from a finer, earlier enclosure
    pi = pi_enclosure(400).intersect(pi_enclosure(100))
    for n in range(71):
        assert pow_rounded(pi, n, 116) == pow_rounded_ref(pi, n, 116)


@settings(max_examples=150)
@given(m=st.integers(1, 70), precision=st.integers(16, 300))
def test_zeta_even_enclosure_matches_fraction_reference(m, precision):
    assert zeta_even_enclosure(m, precision) == zeta_even_enclosure_ref(m, precision)


@settings(max_examples=300)
@given(data=st.data(), precision=st.integers(8, 200))
def test_cos_enclosure_matches_fraction_reference(data, precision):
    bits = precision + 8
    grid = st.integers(-4 << bits, 4 << bits).map(lambda n: F(n, 1 << bits))
    point = grid | st.fractions(-4, 4, max_denominator=1 << 90)
    a, b = data.draw(point), data.draw(point)
    x = Interval(min(a, b), max(a, b))
    assert cos_enclosure(x, precision) == cos_enclosure_ref(x, precision)


def test_cos_enclosure_at_the_clamps_matches_fraction_reference():
    # near pi the enclosure meets -1 and near 0 it meets +1; the last two
    # arguments reach 0, where y = x^2 starts at 0
    for p in (16, 96, 200):
        for x in (pi_enclosure(p), -pi_enclosure(p), Interval(0),
                  Interval(-1, 1), Interval(F(-1, 3), 0)):
            assert cos_enclosure(x, p) == cos_enclosure_ref(x, p), (x, p)
    # x^2 / 2 = 2^-(p + 2) exactly: the first tail term sits on the tolerance
    for p in (9, 17, 63):
        x = Interval(F(1, 1 << ((p + 1) // 2)))
        assert cos_enclosure(x, p) == cos_enclosure_ref(x, p), p


def test_arctan_series_matches_fraction_reference():
    for x in (2, 3, 5, 239):
        for precision in range(0, 300, 7):
            assert (_arctan_recip_enclosure(x, precision)
                    == arctan_recip_ref(x, precision)), (x, precision)


def test_bernoulli_matches_binomial_recurrence():
    ref = bernoulli_even_ref(151)
    exactnum._bern_even[1:] = []  # rebuild the cache in small steps
    assert [bernoulli(2 * i) for i in range(151)] == ref


def quotient_margins_ref(k_max):
    """(k, j, rel) of the tightest pair, with the Fraction excess test."""
    tight = None
    for k in range(1, k_max + 1):
        for j in range(1, k + 1):
            bound = F(3, 4 ** (k + 1 - j))
            rat = zeta_even_rational(k + 1 - j) / zeta_even_rational(k + 1)
            pr = 2 * (k + 1 - j) + 64
            while True:
                power = pow_rounded_ref(pi_enclosure(pr), 2 * j, pr + 16)
                excess = rat / power - 1
                if excess.hi < bound:
                    break
                assert excess.lo < bound
                pr *= 2
            rel = (bound - excess.hi) / bound
            if tight is None or rel < tight[2]:
                tight = (k, j, rel)
    return tight


def test_quotient_bound_integer_test_matches_fraction_reference():
    k, j, rel = quotient_margins_ref(40)
    data = claims.check_quotient_bound(40).data
    assert data["tightest"] == {"k": k, "j": j,
                                "rel_margin_exp2": claims._exp2(rel)}
