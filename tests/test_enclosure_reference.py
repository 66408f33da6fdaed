"""The integer kernels against their Fraction originals.

Each reference below is the `Fraction` code the kernel replaced, kept
apart from names; its interval arithmetic (sympy's `AccumBounds`),
polynomial products and the x + 1/x resubstitution are sympy's, and only
the outward rounding to a dyadic grid is done here, on `Fraction`
endpoints.  The kernels must return the same values -- intervals endpoint
for endpoint, signs, coefficient lists -- not merely enclosures of the
same value.
"""

from fractions import Fraction as F
from math import comb, factorial, floor, ceil, gcd, isqrt

from hypothesis import example, given, settings, strategies as st

from reczeros import claims, exactnum
from reczeros.bounds import (
    _arctan_recip_fixed,
    cos_enclosure,
    pi_enclosure,
    pow_rounded,
    q,
    zeta_even_enclosure,
)
from reczeros.certify import _alpha_from_box, _alpha_step
from reczeros.exactnum import bernoulli, zeta_even_rational
from reczeros.family import monic_even_form, reciprocal_poly, sigma_of
from reczeros.interval import Interval
from reczeros.polycore import (
    _dyadic_signs,
    _sign_at,
    cauchy_bound,
    reciprocal_transform,
    refine_root,
)

from sympy_oracle import (
    from_bounds,
    from_sympy,
    int_coeffs_ref,
    resubstitute,
    to_bounds,
    to_fraction,
    to_rational,
    to_sympy,
)


def round_outward_ref(b, bits):
    """The AccumBounds b rounded outward to the 2^-bits grid."""
    iv = from_bounds(b)
    scale = 1 << bits
    return to_bounds(Interval(F(floor(iv.lo * scale), scale),
                              F(ceil(iv.hi * scale), scale)))


def horner_ref(coeffs, x, bits):
    acc = to_rational(0)
    xr = round_outward_ref(x, bits)
    for c in reversed(coeffs):
        acc = round_outward_ref(acc * xr + round_outward_ref(to_rational(c), bits),
                                bits)
    return acc


def pow_rounded_ref(b, n, bits):
    """Square-and-multiply on a nonnegative AccumBounds b."""
    result = to_rational(1)
    while n:
        if n & 1:
            result = round_outward_ref(result * b, bits)
        n >>= 1
        if n:
            b = round_outward_ref(b**2, bits)
    return result


def zeta_even_enclosure_ref(m, precision):
    pp = precision + max(4, (2 * m).bit_length()) + 8
    pisq = round_outward_ref(to_bounds(pi_enclosure(pp)) ** 2, pp + 4)
    power = pow_rounded_ref(pisq, m, pp + 4)
    r = to_rational(zeta_even_rational(m))
    return from_bounds(round_outward_ref(r * power, precision + 16))


def cos_enclosure_ref(x, precision):
    msq = x.hi * x.hi
    tol = F(1, 1 << (precision + 2))
    n = 1
    term = msq / 2
    while term >= tol:
        n += 1
        term = term * msq / ((2 * n - 1) * (2 * n))
    bits = precision + 8 + n * max(1, ceil(msq).bit_length())
    coeffs = [F((-1) ** i, factorial(2 * i)) for i in range(n)]
    out = from_bounds(horner_ref(coeffs, to_bounds(x)**2, bits)
                      + to_bounds(Interval(-term, term)))
    out = Interval(max(out.lo, -1), min(out.hi, 1))
    return from_bounds(round_outward_ref(to_bounds(out), precision + 8))


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
    want = pow_rounded_ref(to_bounds(iv), n, bits)
    assert pow_rounded(iv, n, bits) == from_bounds(want)


def test_pow_rounded_on_a_finer_pi_enclosure():
    # endpoints on the 2^-408 grid, off the 2^-116 grid the powers round to
    pi = pi_enclosure(400)
    for n in range(71):
        assert pow_rounded(pi, n, 116) == from_bounds(
            pow_rounded_ref(to_bounds(pi), n, 116))


@settings(max_examples=150)
@given(m=st.integers(1, 70), precision=st.integers(16, 300))
def test_zeta_even_enclosure_matches_fraction_reference(m, precision):
    assert zeta_even_enclosure(m, precision) == zeta_even_enclosure_ref(m, precision)


@settings(max_examples=300)
@given(data=st.data(), precision=st.integers(8, 200))
def test_cos_enclosure_matches_fraction_reference(data, precision):
    bits = precision + 8
    grid = st.integers(0, 4 << bits).map(lambda n: F(n, 1 << bits))
    point = grid | st.fractions(0, 4, max_denominator=1 << 90)
    a, b = data.draw(point), data.draw(point)
    x = Interval(min(a, b), max(a, b))
    assert cos_enclosure(x, precision) == cos_enclosure_ref(x, precision)


def test_cos_enclosure_at_the_clamps_matches_fraction_reference():
    # near pi the enclosure meets -1 and near 0 it meets +1; the last three
    # arguments start at 0, where y = x^2 starts at 0
    for p in (16, 96, 200):
        pi = pi_enclosure(p)
        for x in (pi, Interval(0), Interval(0, 1), Interval(0, F(1, 3))):
            assert cos_enclosure(x, p) == cos_enclosure_ref(x, p), (x, p)
    # x^2 / 2 = 2^-(p + 2) exactly: the first tail term sits on the tolerance
    for p in (9, 17, 63):
        x = Interval(F(1, 1 << ((p + 1) // 2)))
        assert cos_enclosure(x, p) == cos_enclosure_ref(x, p), p


def test_arctan_series_matches_fraction_reference():
    # the fixed-point sum s of n terms is within n + 1 of arctan(1/x) 2^bits,
    # which one Fraction reference brackets to 2^-4 at every bits drawn, up
    # to past the bits that pi_enclosure(PRECISION_CAP + 8) sums at
    top = 9000
    for x in (2, 3, 5, 239):
        ref = arctan_recip_ref(x, top + 4)
        (a, b), (c, d) = (ref.lo.as_integer_ratio(),
                          ref.hi.as_integer_ratio())
        for bits in [*range(0, 300, 7), 1000, 4104, 8250, top]:
            s, n = _arctan_recip_fixed(x, bits)
            assert (s - n - 1) * b < a << bits, (x, bits)
            assert c << bits < (s + n + 1) * d, (x, bits)


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
            rat = to_rational(zeta_even_rational(k + 1 - j)
                              / zeta_even_rational(k + 1))
            pr = 2 * (k + 1 - j) + 64
            while True:
                power = pow_rounded_ref(to_bounds(pi_enclosure(pr)), 2 * j, pr + 16)
                excess = from_bounds(rat / power - 1)
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

def cauchy_bound_ref(coeffs):
    return 1 + max(abs(c) for c in coeffs[:-1]) / abs(coeffs[-1])


def sqrt_enclosure_ref(b, bits):
    """Certified enclosure of the square root of a nonnegative AccumBounds.

    Endpoints are multiples of 2^-bits obtained from integer square roots,
    so the result always contains the exact square root set.
    """
    iv = from_bounds(b)
    if iv.lo < 0:
        raise ValueError("sqrt_enclosure requires a nonnegative interval")
    sq = 1 << (2 * bits)
    lo_num = isqrt(floor(iv.lo * sq))
    hi_arg = ceil(iv.hi * sq)
    hi_num = isqrt(hi_arg)
    if hi_num * hi_num < hi_arg:
        hi_num += 1
    scale = 1 << bits
    return to_bounds(Interval(F(lo_num, scale), F(hi_num, scale)))


def alpha_step_ref(v, bits):
    """(u + sqrt(u^2 - 4)) / 2 at u = v - 2, with v an Interval."""
    u = to_bounds(v) - 2
    s = sqrt_enclosure_ref(u**2 - 4, bits)
    return from_bounds((u + s) / 2)


def alpha_from_box_ref(box, ints, width):
    """The Fraction loop, and the number of passes it took."""
    delta = width / 8
    bits = max(32, (width.denominator // max(width.numerator, 1)).bit_length() + 16)
    passes = 0
    while True:
        box = refine_root(box, ints, delta)
        passes += 1
        alpha = alpha_step_ref(box, bits)
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
    return tuple(coeffs)


def monic_even_form_ref(k, ell):
    coeffs = [F(0)] * (2 * k + 3)
    coeffs[0] = F(sigma_of(k, ell))
    coeffs[2 * k + 2] = F(1)
    scale = F(2) ** ell
    for j in range(1, k + 1):
        s = -1 if ((ell + 1) * (k + j)) % 2 else 1
        coeffs[2 * j] = -scale * s * q(k, j) ** ell
    return tuple(coeffs)


@settings(max_examples=300)
@given(data=st.data(), bits=st.integers(0, 40),
       ints=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=9))
def test_dyadic_signs_match_sign_at(data, bits, ints):
    nums = data.draw(st.lists(st.integers(-8 << bits, 8 << bits), max_size=12))
    if data.draw(st.booleans()):
        # a factor 2^bits x - r puts an exact zero on the grid, at r
        r = data.draw(st.integers(-8 << bits, 8 << bits))
        product = to_sympy(ints) * to_sympy([-r, 1 << bits])
        ints = [int(c) for c in from_sympy(product)]
        nums.append(r)
        if ints:
            assert _dyadic_signs(ints, [r], bits) == [0]
    if ints:
        assert _dyadic_signs(ints, nums, bits) == [
            _sign_at(ints, F(n, 1 << bits)) for n in nums]
        # integer points (denominator 1) against the exact value
        for m in data.draw(st.lists(st.integers(-8, 8), max_size=6)):
            value = sum(c * m**i for i, c in enumerate(ints))
            assert _sign_at(ints, m) == _sign_at(ints, F(m)) == (
                (value > 0) - (value < 0))
            assert _dyadic_signs(ints, [m << bits], bits) == [_sign_at(ints, m)]


@settings(max_examples=200)
@given(coeffs=st.lists(st.fractions(-10**9, 10**9, max_denominator=10**12),
                       min_size=1, max_size=12))
def test_cauchy_bound_is_the_rational_bound(coeffs):
    # the bound is the same on the integer form and the rational one
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if len(coeffs) >= 2:
        assert cauchy_bound(int_coeffs_ref(coeffs)) == cauchy_bound_ref(coeffs)


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
    ints = int_coeffs_ref([-(4 + eps), 1])
    box = Interval(4, cauchy_bound(ints))
    assert box.hi == 5 + eps
    want, _ = alpha_from_box_ref(box, ints, width)
    assert _alpha_from_box(box, ints, width) == want


def test_alpha_loop_second_pass_matches_interval_chain():
    width = F(1, 10**20)
    ints, box = (-4000001, 1000000), Interval(4, 5)
    want, passes = alpha_from_box_ref(box, ints, width)
    assert passes >= 2
    assert _alpha_from_box(box, ints, width) == want


@settings(max_examples=150)
@given(k=st.integers(1, 60), ell=st.integers(1, 8))
@example(k=1, ell=1)
@example(k=60, ell=8)
def test_member_construction_matches_fraction_formulas(k, ell):
    ints, scale = reciprocal_poly(k, ell)
    ref = reciprocal_poly_ref(k, ell)
    assert tuple(scale * c for c in ints) == ref
    assert ints == int_coeffs_ref(ref)
    assert gcd(*ints) == 1 and scale > 0
    assert monic_even_form(k, ell) == monic_even_form_ref(k, ell)


def test_companion_values_at_one_match_the_zeta_formula():
    # m(z) = R(z^2) / lc(R), so m(1) = R(1) / lc and m'(1) = 2 R'(1) / lc
    for k in range(1, 21):
        for ell in range(1, 7):
            m = to_sympy(monic_even_form_ref(k, ell))
            want = (m.eval(1), m.diff().eval(1))
            r = reciprocal_poly(k, ell)
            at_one, _, slope = r.unit_values()
            lc = r.ints[-1]
            assert (F(at_one, lc), F(2 * slope, lc)) == tuple(
                map(to_fraction, want)), (k, ell)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 30), ell=st.integers(1, 6))
@example(k=2, ell=2)
@example(k=2, ell=1)
def test_member_unit_values_are_r_and_its_slope_at_the_unit_points(k, ell):
    r = reciprocal_poly(k, ell)
    poly = to_sympy(reciprocal_poly_ref(k, ell))
    want = (poly.eval(1), poly.eval(-1), poly.diff().eval(1))
    assert tuple(r.scale * v for v in r.unit_values()) == tuple(
        map(to_fraction, want))


@settings(max_examples=200)
@given(half=st.lists(st.integers(-50, 50), min_size=1,
                     max_size=7).filter(lambda cs: cs[0] != 0),
       mid=st.integers(-50, 50), odd_degree=st.booleans(),
       sigma=st.sampled_from((1, -1)))
def test_transform_resubstitutes_to_the_input(half, mid, odd_degree, sigma):
    # R of degree N with x^N R(1/x) = sigma R(x) and R(0) = half[0] != 0;
    # for even N the middle coefficient is its own mirror, so 0 when
    # sigma = -1.  The divided factors take all four shapes: none, x + 1
    # (odd N, sigma = 1), x - 1 (odd N, sigma = -1) and both.
    middle = [] if odd_degree else [mid if sigma == 1 else 0]
    ints = int_coeffs_ref(half + middle + [sigma * c for c in reversed(half)])
    w, parity = reciprocal_transform(ints, sigma)
    assert parity == ("odd" if odd_degree == (sigma == 1) else "even")
    roots = ([1] if sigma == -1 else []) + ([-1] if parity == "odd" else [])
    assert len(w) - 1 == (len(ints) - 1 - len(roots)) // 2
    assert w[-1] > 0
    got = int_coeffs_ref(resubstitute(w, roots))
    assert got in (ints, tuple(-c for c in ints))
