import cmath
import json
import tracemalloc
from fractions import Fraction as F
from functools import lru_cache

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from reczeros import certify, serialize
from reczeros.certify import (
    _cyclotomic_ints,
    _phi,
    _unity_orders,
    alpha_enclosure,
    alternation_box,
    certify_zeros,
    cosine_grid,
    roots_of_unity_zeros,
    zero_certificate,
)
from reczeros.cli import main
from reczeros.family import boundary_profile, reciprocal_poly, sigma_of
from reczeros.polycore import _divmod_monic

from numeric_oracle import root_classes
from sympy_oracle import (
    encloses,
    from_bounds,
    from_roots,
    from_sympy,
    int_coeffs_ref,
    to_bounds,
    to_fraction,
    to_rational,
    to_sympy,
    z,
)
from test_enclosure_reference import reciprocal_poly_ref


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
    assert to_sympy(reciprocal_poly(2, 1).ints).eval(-1) == 0
    assert cert.v_box.lo < F(13, 2) < cert.v_box.hi


def test_certificate_k2_ell2_picks_up_plus_one():
    cert = certify_zeros(2, 2)
    assert cert.conforms
    assert cert.sigma == -1
    assert cert.unimodular_count == 1
    assert cert.root_at_one and not cert.root_at_minus_one
    assert to_sympy(reciprocal_poly(2, 2).ints).eval(1) == 0


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
            got = root_classes(reciprocal_poly(k, ell).ints)
            assert got["on"] == cert.unimodular_count, (k, ell)
            assert got["pos_out"] == 2 * cert.positive_pair_count
            assert got["neg_out"] == 2 * cert.negative_pair_count
            assert got["complex_off"] == cert.complex_offcircle_count


# -- the two certificate routes -----------------------------------------

def _fields(cert):
    box = cert.v_box
    return ({name: getattr(cert, name) for name in cert._fields
             if name not in ("v_box", "route")},
            None if box is None else
            (box.ints, box.lo, box.hi, box.sign_lo, box.sign_hi))


def test_alternation_and_sturm_certificates_agree(monkeypatch):
    fast = {(k, ell): certify_zeros(k, ell)
            for k in range(1, 29) for ell in range(1, 7)}
    monkeypatch.setattr(certify, "alternation_box", lambda w, n: None)
    for (k, ell), cert in fast.items():
        slow = certify_zeros(k, ell)
        assert cert.route == "alternation" and slow.route == "sturm"
        assert _fields(cert) == _fields(slow), (k, ell)


def _agrees_with_sympy_root_isolation(k, ell):
    """sympy's continued-fraction isolation of W, which shares no code with
    polycore, gives the certificate's counts, and v_box holds its root
    beyond 4 by exact comparison."""
    w = boundary_profile(k, ell).w_square
    poly = sympy.Poly(w[::-1], z, domain="ZZ")
    roots = poly.intervals()
    assert [m for _, m in roots] == [1] * (len(w) - 1)  # real and simple
    inside = [iv for iv, _ in roots if 0 <= iv[0] and iv[1] <= 4]
    beyond = [iv for iv, _ in roots if iv[0] >= 4]
    assert (len(inside), len(beyond)) == (len(w) - 2, 1), (k, ell)
    cert = zero_certificate(k, ell)
    assert cert.conforms and cert.positive_pair_count == 1
    assert cert.unimodular_count == (2 * len(inside) + cert.root_at_one
                                     + cert.root_at_minus_one)
    # v_box holds sympy's root: narrow its interval until it fits
    (a, b), = beyond
    while not (cert.v_box.lo <= to_fraction(a)
               and to_fraction(b) <= cert.v_box.hi):
        a, b = poly.refine_root(a, b, eps=(b - a) / 4)


@pytest.mark.parametrize("k", [44, 64, 100])
def test_sympy_root_isolation_agrees_past_the_sturm_range(k):
    """A second exact route at the pinned k beyond the Sturm cross-check."""
    for ell in range(1, 7):
        _agrees_with_sympy_root_isolation(k, ell)


@settings(max_examples=5, deadline=None)
@given(k=st.integers(29, 150), ell=st.integers(1, 6))
def test_sympy_root_isolation_agrees_on_drawn_members(k, ell):
    """The same second route on members drawn past the Sturm range."""
    _agrees_with_sympy_root_isolation(k, ell)


# -- the printed alpha, confirmed on R itself ----------------------------

@lru_cache(maxsize=None)
def _roots_above_one(k, ell):
    """R from the test-side Fraction construction, as a sympy.Poly over
    ZZ, and sympy's isolating intervals of its real roots above 1; an
    interval around 1 is refined until it falls on one side."""
    poly = sympy.Poly(int_coeffs_ref(reciprocal_poly_ref(k, ell))[::-1], z,
                      domain="ZZ")
    above = []
    for (a, b), _ in poly.intervals():
        if (a, b) == (1, 1):  # sympy isolates a rational root exactly
            continue
        while a < 1 < b:
            a, b = poly.refine_root(a, b, eps=(b - a) / 4)
        if a >= 1:
            above.append((a, b))
    return poly, above


def _confirm_printed_alpha(inst):
    """The printed alpha digits of one certify instance bracket R's one real
    root above 1, with none of the certify chain: the signs of R at the
    printed ends and the root isolation are sympy's."""
    k, ell = int(inst["k"]), int(inst["ell"])
    lo, hi = F(inst["alpha"]["lo"]), F(inst["alpha"]["hi"])
    assert 1 < lo < hi, (k, ell)
    poly, above = _roots_above_one(k, ell)

    def sign(x):
        value = to_fraction(poly.eval(to_rational(x)))
        return (value > 0) - (value < 0)

    assert sign(lo) * sign(hi) == -1, (k, ell)
    assert len(above) == 1, (k, ell, above)
    (a, b), = above
    a, b = to_fraction(a), to_fraction(b)
    # refine sympy's interval by cutting it at the printed ends: its one
    # root lies in the piece whose end signs differ, which must be nested
    # in the printed interval
    assert sign(a) * sign(b) == -1, (k, ell)
    a, b = max(a, lo), min(b, hi)
    assert a < b and sign(a) * sign(b) == -1, (k, ell)


def _certify_document(argv, capsys):
    assert main(["certify", *argv.split(), "--format", "json"]) == 0
    instances = json.loads(capsys.readouterr().out)["instances"]
    assert all(inst["conforms"] for inst in instances)
    return instances


@pytest.mark.parametrize("argv", [
    "--k 1..40 --ell 1..6",
    "--k 44,64,100 --ell 1..6",
    "--k 1..14 --ell 1..6 --width 1e-6",
    "--k 1..14 --ell 1..6 --width 1e-60",
])
def test_printed_alpha_brackets_the_root_of_r(argv, capsys):
    for inst in _certify_document(argv, capsys):
        _confirm_printed_alpha(inst)


@settings(max_examples=3, deadline=None)
@given(k=st.integers(1, 150), ell=st.integers(1, 6))
def test_printed_alpha_brackets_the_root_of_r_on_drawn_members(k, ell):
    _confirm_printed_alpha(serialize.certificate_instance(k, ell))


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
    w = int_coeffs_ref(from_roots(*roots, lc=scale))
    box = alternation_box(w, n)
    if box is None:
        return
    h = len(w) - 1
    *counts, sturm_box = certify._sturm_counts(w)
    assert counts == [h - 1, 1, 0, 0]
    assert (box.lo, box.hi) == (F(4), certify.cauchy_bound(w))
    assert ((sturm_box.lo, sturm_box.hi, sturm_box.sign_lo, sturm_box.sign_hi)
            == (box.lo, box.hi, box.sign_lo, box.sign_hi))
    assert box.lo < max(roots) < box.hi


@pytest.mark.parametrize("w, control", [
    # a complex pair: two sign changes short on [0, 4]
    (from_sympy((z - sympy.Rational(3, 2)) * (z - 5) * (z**2 + 1)),
     from_roots("1/2", "3/2", "5/2", 5)),
    # a double root: W touches zero without changing sign
    (from_roots("3/2", "3/2", 5), from_roots("3/2", "5/2", 5)),
    # a root exactly on the grid point 4 cos^2(pi/3) = 1
    (from_roots(1, "3/2", 5), from_roots("1/2", "3/2", 5)),
    # the sign change on [0, 4] is there, but the other root is at -1
    (from_roots("3/2", -1), from_roots("3/2", 5)),
])
def test_alternation_declines_what_it_cannot_prove(w, control):
    assert 1 << certify.GRID_BITS in cosine_grid(6)  # the grid point 1
    assert alternation_box(int_coeffs_ref(w), 6) is None
    # the same shape without the defect closes
    assert alternation_box(int_coeffs_ref(control), 6) is not None


def test_alpha_enclosure_quartic_base():
    a = alpha_enclosure(1, 1, F(1, 10**30))
    assert a.width() <= F(1, 10**30)
    # the exact value is (5 + sqrt 21)/2: check by squaring, no floats
    lo, hi = 2 * a.lo - 5, 2 * a.hi - 5
    assert lo > 0
    assert lo * lo < 21 < hi * hi


def test_alpha_enclosure_k2_sum_is_nine_halves():
    a = alpha_enclosure(2, 1, F(1, 10**25))
    b = to_bounds(a)
    assert encloses(from_bounds(b + 1 / b), F(9, 2))
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


def test_validation():
    zero_certificate(2, 1)  # a cached int key must not admit a float one
    for bad in ((0, 1), (1, 0), (2.0, 1), (2, 1.0), (True, 1)):
        for entry in (certify_zeros, zero_certificate, alpha_enclosure):
            with pytest.raises(ValueError):
                entry(*bad)


def test_alpha_against_float_oracle():
    from numeric_oracle import largest_real_root

    for k in range(1, 7):
        for ell in (1, 2, 3):
            a = alpha_enclosure(k, ell, F(1, 10**12))
            ref = largest_real_root(reciprocal_poly(k, ell).ints)
            assert ref is not None
            assert abs(F(ref) - (a.lo + a.hi) / 2) < F(1, 10**6)


def test_cyclotomic_golden():
    assert _cyclotomic_ints(1) == (-1, 1)
    assert _cyclotomic_ints(2) == (1, 1)
    assert _cyclotomic_ints(3) == (1, 1, 1)
    assert _cyclotomic_ints(4) == (1, 0, 1)
    assert _cyclotomic_ints(6) == (1, -1, 1)
    assert _cyclotomic_ints(8) == (1, 0, 0, 0, 1)
    assert _cyclotomic_ints(12) == (1, 0, -1, 0, 1)
    assert _cyclotomic_ints(7) == (1,) * 7


def _sympy_cyclotomic(n: int) -> tuple[F, ...]:
    return from_sympy(sympy.cyclotomic_poly(n, z))


def test_cyclotomic_product_recovers_power():
    for n in range(1, 61):
        assert _cyclotomic_ints(n) == _sympy_cyclotomic(n), n
        factors = [to_sympy(_cyclotomic_ints(d))
                   for d in range(1, n + 1) if n % d == 0]
        assert sympy.prod(factors) == to_sympy([-1] + [0] * (n - 1) + [1]), n


def _totient(n: int) -> int:
    return int(sympy.totient(n))


def test_euler_phi():
    assert [_phi(n) for n in range(1, 13)] == [
        1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert _phi(97) == 96
    assert _phi(360) == 96
    assert [_phi(n) for n in range(1, 3001)] == [
        _totient(n) for n in range(1, 3001)]


def test_cyclotomic_ints_match_sympy_for_the_k40_scan():
    deg = 41  # every order with phi(n) <= deg of the (40, ell) members
    orders = [n for n in range(1, 2 * deg * deg + 1) if _totient(n) <= deg]
    assert len(orders) == 81
    for n in orders:
        assert _cyclotomic_ints(n) == _sympy_cyclotomic(n), n


def _times(f, g):
    return [int(c) for c in from_sympy(to_sympy(f) * to_sympy(g))]


#: (n, phi(n)) for every n with phi(n) <= 48, the most any polynomial the
#: oracle below is given can reach.
_ORDERS_UP_TO_48 = [(n, phi) for n, phi in
                    ((n, _totient(n)) for n in range(1, 2 * 48 * 48 + 1))
                    if phi <= 48]


def _unity_orders_ref(f):
    """The n with Phi_n | f, from sympy's exact remainder on each order with
    phi(n) <= deg f whose e^(2 pi i / n) is a float zero of f.

    The float screen only drops orders: |f(e^(2 pi i / n))| is computed
    with an error below (deg + 2) 2^-52 sum |c_i|, far under its margin.
    """
    deg = len(f) - 1
    assert deg <= 48
    margin = 1e-6 * sum(map(abs, f))
    orders = []
    for n, phi in _ORDERS_UP_TO_48:
        if phi > deg:
            continue
        root = cmath.exp(2j * cmath.pi / n)
        if (abs(sum(c * root**i for i, c in enumerate(f))) <= margin
                and to_sympy(f).rem(to_sympy(_sympy_cyclotomic(n))).is_zero):
            orders.append(n)
    return orders


_ORDERS_UP_TO_6 = [n for n, phi in _ORDERS_UP_TO_48 if phi <= 6]
_ORDERS_UP_TO_12 = [n for n, phi in _ORDERS_UP_TO_48 if phi <= 12]
#: Coefficients of either size, so that max|c_i| / |c_n| passes 2^24 and
#: the evaluation point 2^b passes the scan's 24-bit floor.
_int_polys = st.lists(st.one_of(st.integers(-50, 50),
                                st.integers(-2**40, 2**40)),
                      min_size=1, max_size=6).filter(lambda f: f[-1] != 0)


@given(f=_int_polys, n=st.sampled_from(_ORDERS_UP_TO_12))
@example(f=[2**40, 1], n=13)
def test_degree_bound_keeps_every_cyclotomic_divisor(f, n):
    assert n in _unity_orders(_times(f, _cyclotomic_ints(n)))


@given(f=_int_polys,
       factors=st.lists(st.sampled_from(_ORDERS_UP_TO_6), max_size=3),
       shift=st.booleans(), even=st.booleans())
@example(f=[2**40, -3], factors=[3, 4], shift=False, even=False)
@example(f=[1], factors=[1, 2, 6], shift=True, even=True)
@example(f=[-7, 2**33, 5], factors=[5, 5, 9], shift=True, even=False)
def test_unity_orders_match_exact_division(f, factors, shift, even):
    for n in factors:
        f = _times(f, _cyclotomic_ints(n))
    if shift:  # a zero constant term
        f = [0] + f
    if even:  # f(x^2)
        f, odd = [0] * (2 * len(f) - 1), f
        f[::2] = odd
    assert _unity_orders(f) == _unity_orders_ref(f)


def test_a_root_of_unity_has_a_conjugate_among_minus_it_and_its_square():
    """Beukers & Smyth's Lemma 1, which bounds the orders _unity_orders
    tries: Phi_n divides Phi_n(-x), Phi_n(x^2) or Phi_n(-x^2).  Phi_n is
    sympy's; the exact division is the integer one the scan decides by."""
    for n in range(1, 301):
        phi_n = [int(c) for c in reversed(
            sympy.cyclotomic_poly(n, z, polys=True).all_coeffs())]
        minus = [(-1) ** i * c for i, c in enumerate(phi_n)]
        square = [0] * (2 * len(phi_n) - 1)
        minus_square = square[:]
        square[::2], minus_square[::2] = phi_n, minus
        assert any(not _divmod_monic(g, phi_n)[1]
                   for g in (minus, square, minus_square)), n


def test_unity_scan_memory_at_k600():
    ints = reciprocal_poly(600, 1).ints
    tracemalloc.start()
    try:
        orders = _unity_orders(ints)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert orders == [2, 3]
    assert peak < 4 << 20


def test_unity_scan_stops_once_the_cyclotomic_part_is_divided_out(
        monkeypatch):
    # D = 360 for x^360 - 1, so the scan may try every n <= 2 * 360^2;
    # all 24 divisors are divided out by n = 360, and the scan stops there
    calls = []
    real_phi = certify._phi
    monkeypatch.setattr(certify, "_phi",
                        lambda n: calls.append(n) or real_phi(n))
    orders = _unity_orders([-1] + [0] * 359 + [1])
    assert orders == [n for n in range(1, 361) if 360 % n == 0]
    assert len(orders) == 24
    assert len(calls) <= 360
    # a factor x + 3 is left over: past n = 2 no order divides it
    calls.clear()
    assert _unity_orders(_times([-1] + [0] * 199 + [1], [3, 1])) == [
        n for n in range(1, 201) if 200 % n == 0]
    assert len(calls) <= 200


def test_unity_orders_golden():
    assert roots_of_unity_zeros(1, 1) == []
    assert roots_of_unity_zeros(2, 1) == [2]
    assert roots_of_unity_zeros(2, 2) == [1]
    assert roots_of_unity_zeros(3, 1) == [3]


def test_unity_orders_match_fraction_division_oracle():
    for k in range(1, 21):
        deg = k + 1
        cyclotomic = {n: sympy.cyclotomic_poly(n, z, polys=True)
                      for n, phi in _ORDERS_UP_TO_48 if phi <= deg}
        for ell in range(1, 7):
            r = to_sympy(reciprocal_poly(k, ell).ints)
            want = [n for n, phi_n in cyclotomic.items()
                    if sympy.rem(r, phi_n).is_zero]
            assert roots_of_unity_zeros(k, ell) == want, (k, ell)


def test_unity_orders_stay_trivial_for_higher_ell():
    for k in range(3, 9):
        for ell in (2, 3):
            orders = roots_of_unity_zeros(k, ell)
            assert set(orders) <= {1, 2}, (k, ell, orders)


def test_unity_order_three_splits_off_exactly():
    r = to_sympy(reciprocal_poly(3, 1).ints)
    quotient, remainder = sympy.div(r, to_sympy(_cyclotomic_ints(3)))
    assert remainder.is_zero
    assert quotient.degree() == 2
    assert not sympy.rem(r, to_sympy(_cyclotomic_ints(4))).is_zero
