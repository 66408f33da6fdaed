"""The integer kernels against their Fraction originals.

Each reference below is the `Fraction` code the kernel replaced, kept
verbatim apart from names.  The kernels must return the same values --
intervals endpoint for endpoint, signs, coefficient lists -- not merely
enclosures of the same value.
"""

from fractions import Fraction as F
from math import comb, factorial, floor, ceil, gcd, lcm

from hypothesis import given, settings, strategies as st

from reczeros import claims, exactnum
from reczeros.certify import _alpha_from_box, _alpha_step
from reczeros.exactnum import (
    bernoulli,
    q,
    zeta_even_enclosure,
    zeta_even_rational,
)
from reczeros.family import monic_even_form, reciprocal_poly, sigma_of
from reczeros.interval import (
    Interval,
    _arctan_recip_enclosure,
    cos_enclosure,
    pi_enclosure,
    pow_rounded,
    sqrt_enclosure,
)
from reczeros.polycore import (
    Poly,
    RootBox,
    _dyadic_signs,
    _sign_at,
    cauchy_bound,
    reciprocal_transform,
    refine_root,
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
    out = Interval(max(out.lo, -1), min(out.hi, 1))
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
    # endpoints on the 2^-408 grid, off the 2^-116 grid the powers round to
    pi = pi_enclosure(400)
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


# ---------------------------------------------------------------------------
# the certify path: grid signs, integer clearing, the alpha step,
# construction and the transform
# ---------------------------------------------------------------------------

def int_coeffs_ref(coeffs):
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    g = 0
    for c in ints:
        g = gcd(g, c)
    return tuple(c // g for c in ints)


def cauchy_bound_ref(p):
    return 1 + max(abs(c) for c in p.coeffs[:-1]) / abs(p.lc())


def alpha_step_ref(v, bits):
    u = v - Interval(2)
    s = sqrt_enclosure(u**2 - Interval(4), bits)
    return (u + s) * F(1, 2)


def alpha_from_box_ref(box, width):
    """The Fraction loop, and the number of passes it took."""
    delta = width / 8
    bits = max(32, (width.denominator // max(width.numerator, 1)).bit_length() + 16)
    passes = 0
    while True:
        box = refine_root(box, delta)
        passes += 1
        alpha = alpha_step_ref(box.as_interval(), bits)
        if alpha.width() <= width:
            return alpha, passes
        delta /= 16
        bits += 16


def reciprocal_poly_ref(k, ell):
    coeffs = []
    for j in range(k + 2):
        base = (
            bernoulli(2 * j)
            * bernoulli(2 * k + 2 - 2 * j)
            / (factorial(2 * j) * factorial(2 * k + 2 - 2 * j))
        )
        sign = -1 if ((ell + 1) * j) % 2 else 1
        coeffs.append(sign * base**ell)
    return Poly(coeffs)


def monic_even_form_ref(k, ell):
    coeffs = [F(0)] * (2 * k + 3)
    coeffs[0] = F(sigma_of(k, ell))
    coeffs[2 * k + 2] = F(1)
    scale = F(2) ** ell
    for j in range(1, k + 1):
        s = -1 if ((ell + 1) * (k + j)) % 2 else 1
        coeffs[2 * j] = -scale * s * q(k, j) ** ell
    return Poly(coeffs)


@settings(max_examples=300)
@given(data=st.data(), bits=st.integers(0, 40),
       ints=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=9))
def test_dyadic_signs_match_sign_at(data, bits, ints):
    nums = data.draw(st.lists(st.integers(-8 << bits, 8 << bits), max_size=12))
    if data.draw(st.booleans()):
        # a factor 2^bits x - r puts an exact zero on the grid, at r
        r = data.draw(st.integers(-8 << bits, 8 << bits))
        ints = [int(c) for c in (Poly(ints) * Poly([-r, 1 << bits])).coeffs]
        nums.append(r)
        if ints:
            assert _dyadic_signs(ints, [r], bits) == [0]
    if ints:
        assert _dyadic_signs(ints, nums, bits) == [
            _sign_at(ints, F(n, 1 << bits)) for n in nums]


@settings(max_examples=200)
@given(coeffs=st.lists(st.fractions(-10**9, 10**9, max_denominator=10**12),
                       min_size=1, max_size=12))
def test_int_coeffs_match_fraction_clearing(coeffs):
    p = Poly(coeffs)
    if p.is_zero():
        return
    assert p.int_coeffs() == int_coeffs_ref(p.coeffs)
    if p.degree() >= 1:
        assert cauchy_bound(p) == cauchy_bound_ref(p)


def v_box(data):
    """A box (lo, hi) with 4 <= lo < hi, on a dyadic grid or off it."""
    point = (st.integers(0, 1 << 70).map(lambda n: 4 + F(n, 1 << 66))
             | st.fractions(4, 40, max_denominator=1 << 90))
    a, b = data.draw(point), data.draw(point)
    if a == b:
        b += F(1, 1 << 80)
    return min(a, b), max(a, b)


@settings(max_examples=300)
@given(data=st.data(), bits=st.integers(32, 200))
def test_alpha_step_matches_interval_chain(data, bits):
    lo, hi = v_box(data)
    want = alpha_step_ref(Interval(lo, hi), bits)
    (a, da), (b, db) = _alpha_step(lo, hi, bits)
    assert (F(a, da), F(b, db)) == (want.lo, want.hi)


@settings(max_examples=60)
@given(eps=st.fractions(F(1, 10**12), 30, max_denominator=10**15),
       exp=st.integers(6, 40))
def test_alpha_loop_matches_interval_chain(eps, exp):
    # W(v) = v - (4 + eps): the closer v0 is to 4, the steeper alpha(v0)
    # and the more passes the loop needs
    width = F(1, 10**exp)
    box = RootBox(Poly([-(4 + eps), 1]), F(4), F(4) + eps + 1, -1, 1)
    want, _ = alpha_from_box_ref(box, width)
    assert _alpha_from_box(box, width) == want


def test_alpha_loop_second_pass_matches_interval_chain():
    width = F(1, 10**20)
    box = RootBox(Poly([-(4 + F(1, 10**6)), 1]), F(4), F(5), -1, 1)
    want, passes = alpha_from_box_ref(box, width)
    assert passes >= 2
    assert _alpha_from_box(box, width) == want


def test_member_construction_matches_fraction_formulas():
    for k in range(1, 16):
        for ell in range(1, 7):
            assert reciprocal_poly(k, ell) == reciprocal_poly_ref(k, ell)
            assert monic_even_form(k, ell) == monic_even_form_ref(k, ell)


@settings(max_examples=200)
@given(half=st.lists(st.fractions(-20, 20, max_denominator=10**4),
                     min_size=2, max_size=7).filter(lambda cs: cs[0] != 0),
       sigma=st.sampled_from((1, -1)))
def test_transform_resubstitutes_to_the_input(half, sigma):
    # m of degree 2d with z^(2d) m(1/z) = sigma m(z); m(0) = half[0] != 0
    d = len(half) - 1
    if sigma == -1:
        half[d] = F(0)
    m = Poly(half[:d] + [half[d]] + [sigma * c for c in reversed(half[:d])])
    tr = reciprocal_transform(m)
    assert tr.sigma == sigma
    shift = d if sigma == 1 else d - 1
    back = Poly()
    for i, t in enumerate(tr.transform.coeffs):
        back = back + t * Poly([1, 0, 1]) ** i * Poly.monomial(shift - i)
    if sigma == -1:
        back = back * Poly([-1, 0, 1])
    assert back == m
    if tr.w_square is not None:
        w = tr.w_square.coeffs
        spread = [F(0)] * (2 * len(w))
        spread[0 if tr.w_parity == "even" else 1::2] = w
        assert Poly(spread) == tr.transform
