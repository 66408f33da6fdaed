import inspect
import random
import sys
from fractions import Fraction as F
from math import isqrt
from unittest.mock import patch

import pytest
import sympy
from hypothesis import assume, given, strategies as st

from reczeros import polycore
from reczeros.certify import _sturm_counts, certify_zeros
from reczeros.polycore import (
    _sign_at,
    _verify_resubstitution,
    RootBox,
    SturmChain,
    _prem,
    cauchy_bound,
    reciprocal_transform,
    refine_root,
)

from sympy_oracle import (
    from_roots,
    from_sympy,
    int_coeffs_ref,
    resubstitute,
    to_rational,
    to_sympy,
    z,
)


def test_poly_is_deleted():
    """Every kernel takes integer coefficient tuples and a member is its
    primitive integers, so there is no polynomial class to export."""
    import reczeros

    assert not hasattr(polycore, "Poly")
    assert "Poly" not in reczeros.__all__
    with pytest.raises(AttributeError):
        reczeros.Poly


def test_sturm_counts_golden():
    p = (1, -5, 1)  # roots (5 +- sqrt(21))/2, approx 0.2087 and 4.7913
    n_in, n_out, n_neg, n_cx, box = _sturm_counts(p)
    assert (n_in, n_out, n_neg, n_cx) == (1, 1, 0, 0)
    assert (box.lo, box.hi, box.sign_lo, box.sign_hi) == (4, 6, -1, 1)
    # v^2 + 1 times v - 5: one root beyond 4 and two non-real ones
    assert _sturm_counts((-5, 1, -5, 1))[:4] == (0, 1, 0, 2)


def test_sturm_open_interval_endpoint_roots():
    """A root at 0 or 4, an end of the fallback's open intervals, is a
    repeated zero of the member: the fallback refuses it."""
    for roots in ((0, 1, -1), (4, 1, -1), (0, 4)):
        assert _sturm_counts(int_coeffs_ref(from_roots(*roots))) is None


def test_sturm_rejects_repeated_roots():
    with pytest.raises(ValueError):
        SturmChain(int_coeffs_ref(from_roots(1, 1)))
    assert _sturm_counts(int_coeffs_ref(from_roots(5, 5, 1))) is None


def test_sturm_count_random_products_of_linears():
    rng = random.Random(6021023)
    pool = [r for r in range(-12, 13) if r not in (0, 4)]
    for _ in range(40):
        roots = rng.sample(pool, rng.randrange(1, 5))
        pairs = rng.randrange(0, 3)  # factors v^2 + m, no real root
        w = from_sympy(sympy.prod([z - r for r in roots]
                                  + [z**2 + m for m in range(1, pairs + 1)]))
        counts = _sturm_counts(int_coeffs_ref(w))[:4]
        assert counts == (sum(1 for r in roots if 0 < r < 4),
                          sum(1 for r in roots if r > 4),
                          sum(1 for r in roots if r < 0), 2 * pairs), roots


@given(st.lists(st.integers(-60, 60), min_size=2, max_size=12)
       .filter(lambda cs: cs[0] != 0 and cs[-1] != 0))
def test_sturm_positive_count_obeys_descartes(coeffs):
    """Roots on (0, inf) number at most the coefficient sign variations,
    and the difference is even."""
    counts = _sturm_counts(coeffs)
    assume(counts is not None)  # squarefree, and no root at 4
    signs = [c > 0 for c in coeffs if c]
    variations = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    positive = counts[0] + counts[1]
    assert positive <= variations
    assert (variations - positive) % 2 == 0


_prem_coeffs = st.one_of(st.integers(-3, 3), st.integers(-10**30, 10**30))


@st.composite
def _prem_pairs(draw):
    g = draw(st.lists(_prem_coeffs, min_size=1, max_size=7)
             .filter(lambda c: c[-1] != 0))
    f = draw(st.lists(_prem_coeffs, min_size=len(g), max_size=len(g) + 6)
             .filter(lambda c: c[-1] != 0))
    return f, g


@given(_prem_pairs())
def test_prem_is_the_scaled_remainder(pair):
    """_prem(f, g) = lc(g)^(deg f - deg g + 1) * (f mod g), with the
    remainder of sympy as the reference."""
    f, g = pair
    scale = g[-1] ** (len(f) - len(g) + 1)
    assert to_sympy(_prem(f, g)) == to_sympy(f).rem(to_sympy(g)) * scale


def test_cauchy_bound():
    p = (1, -5, 1)
    b = cauchy_bound(p)
    assert b == 6
    assert to_sympy(p).count_roots(-to_rational(b), to_rational(b)) == 2


@given(st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=12)
       .filter(lambda cs: cs[-1] != 0))
def test_cauchy_bound_has_the_leading_sign(coeffs):
    assert _sign_at(coeffs, cauchy_bound(coeffs)) == (1 if coeffs[-1] > 0 else -1)


def test_rootbox_validation():
    p = (-2, 0, 1)
    with pytest.raises(ValueError):
        RootBox(p, 1, 2, 1, 1)
    with pytest.raises(ValueError):
        RootBox(p, 2, 1, -1, 1)


def test_refine_closes_on_exact_rational_root():
    p = int_coeffs_ref(from_roots(F(1, 2), 3))
    box = RootBox(p, F(1, 4), F(3, 4), 1, -1)
    tight = refine_root(box, F(1, 128))
    assert tight.hi - tight.lo <= F(1, 128)
    assert tight.lo < F(1, 2) < tight.hi


def test_refine_random_linear_roots():
    rng = random.Random(777002)
    for _ in range(25):
        r = F(rng.randrange(-50, 50), rng.randrange(1, 20))
        ints = int_coeffs_ref(from_roots(r, r + 7))
        lo, hi = r - F(1, 3), r + F(1, 3)
        box = RootBox(ints, lo, hi, _sign_at(ints, lo), _sign_at(ints, hi))
        tight = refine_root(box, F(1, 10**9))
        assert tight.lo < r < tight.hi
        assert tight.hi - tight.lo <= F(1, 10**9)


def _fraction_refine(box, width):
    """Reference: the same bisection, on Fraction endpoints."""
    ints = box.ints
    lo, hi = box.lo, box.hi
    slo, shi = box.sign_lo, box.sign_hi
    while hi - lo > width:
        m = (lo + hi) / 2
        sm = _sign_at(ints, m)
        if sm == 0:
            delta = min(width, hi - lo) / 4
            while _sign_at(ints, m - delta) != slo or _sign_at(ints, m + delta) != shi:
                delta /= 2
            return m - delta, m + delta
        if sm == slo:
            lo = m
        else:
            hi = m
    return lo, hi


def test_refine_matches_fraction_bisection_on_certify_grid():
    for k in range(1, 15):
        for ell in range(1, 7):
            box = certify_zeros(k, ell).v_box
            if box is None:
                continue
            for width in (F(1, 8 * 10**20), F(1, 128 * 10**20), F(1, 3)):
                got = refine_root(box, width)
                assert (got.lo, got.hi) == _fraction_refine(box, width), (k, ell)
                assert (got.sign_lo, got.sign_hi) == (box.sign_lo, box.sign_hi)


@pytest.mark.parametrize("p, lo, hi, sign_lo, root", [
    ((-5, 1), 4, 6, -1, 5),                            # the first midpoint
    ((-5, 1), 4, 8, -1, 5),                            # the second
    ((5, -1), F(14, 3), 6, 1, 5),                      # the second, D0 = 3
    (int_coeffs_ref(from_roots(F(1, 3), -2)), 0, F(2, 3), -1, F(1, 3)),
])
def test_refine_midpoint_root_matches_fraction_bisection(p, lo, hi, sign_lo, root):
    box = RootBox(p, lo, hi, sign_lo, -sign_lo)
    for width in (F(1, 100), F(1, 10**12), F(1, 2)):
        got = refine_root(box, width)
        assert (got.lo, got.hi) == _fraction_refine(box, width)
        assert got.lo + got.hi == 2 * root
        assert got.hi - got.lo <= width


def test_refine_takes_the_lower_half_after_rejecting_the_upper_one():
    """A one-level secant candidate that is the upper half, rejected,
    leaves the lower half: the step `a, fa, fb = 2 * a, fa << n, flo`,
    which no certify box reaches."""
    ints = (3466008, -1051238, -788833, 128009, 30625, 1029)
    box = RootBox(ints, F(-53, 7), F(-13, 35), -1, 1)
    step = "a, fa, fb = 2 * a, fa << n, flo"
    source, first = inspect.getsourcelines(refine_root)
    step_line = first + next(i for i, text in enumerate(source) if step in text)
    lines = set()

    def local(frame, event, _arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    sys.settrace(lambda frame, _event, _arg:
                 local if frame.f_code is refine_root.__code__ else None)
    try:
        got = refine_root(box, F(1, 10**6))
    finally:
        sys.settrace(None)
    assert step_line in lines
    assert (got.lo, got.hi) == _fraction_refine(box, F(1, 10**6))


@st.composite
def _planted_boxes(draw):
    """A box around the one real root of an integer polynomial: a rational
    root, sqrt(a) for a non-square a, or a dyadic point of the box's
    bisection grid, times factors x^2 + m with no real root, some of them
    past float range."""
    kind = draw(st.sampled_from(("rational", "irrational", "dyadic")))
    if kind == "irrational":
        a = draw(st.integers(2, 10**12).filter(lambda a: isqrt(a) ** 2 != a))
        r = isqrt(a)
        lo = r - draw(st.fractions(0, r, max_denominator=1000))
        hi = r + 1 + draw(st.fractions(0, 100, max_denominator=1000))
        factor = z**2 - a
    else:
        lo = draw(st.fractions(-100, 100, max_denominator=1000))
        hi = lo + draw(st.fractions(F(1, 1000), 100, max_denominator=1000))
        if kind == "dyadic":
            q = draw(st.integers(1, 40))
            root = lo + (hi - lo) * F(draw(st.integers(1, 2**q - 1)), 2**q)
        else:
            root = draw(st.fractions(lo, hi, max_denominator=10**12)
                        .filter(lambda r: lo < r < hi))
        factor = root.denominator * z - root.numerator
    for m in draw(st.lists(st.integers(1, 10**6) | st.integers(2**1100, 2**3000),
                           max_size=3)):
        factor *= z**2 + m
    ints = int_coeffs_ref(
        from_sympy(draw(st.sampled_from((1, -1, 3, -10**20))) * factor))
    return RootBox(ints, lo, hi, _sign_at(ints, lo), _sign_at(ints, hi))


_widths = st.builds(lambda num, e: F(num, 2000 * 10**e),
                    st.integers(1, 1000), st.integers(0, 40))


@given(box=_planted_boxes(), width=_widths,
       estimate=st.sampled_from(("float", "none"))
       | st.tuples(st.fractions(0, 1), st.integers(-10, 60)))
def test_refine_matches_fraction_bisection(box, width, estimate):
    """Whatever the float estimate and its trusted bits say, the exact
    signs pick the cell that bisection reaches: the float estimate, none,
    or any point of the box with any number of bits."""
    if estimate == "float":
        got = refine_root(box, width)
    else:
        guess = None if estimate == "none" else (
            float(box.lo + (box.hi - box.lo) * estimate[0]), estimate[1])
        with patch.object(polycore, "_float_root", lambda ints, hi: guess):
            got = refine_root(box, width)
    assert (got.lo, got.hi) == _fraction_refine(box, width)
    assert (got.sign_lo, got.sign_hi) == (box.sign_lo, box.sign_hi)


def test_refine_rejects_a_float_estimate_off_the_root():
    """Two roots 2^-40 apart put Laguerre's float estimate outside the cell
    its trusted bits give around the larger one, so that cell's end signs
    reject it."""
    root = F(5, 3) + F(1, 2**40)
    ints = int_coeffs_ref(from_roots(F(5, 3), root, 7))
    lo = F(5, 3) + F(1, 2**41)
    box = RootBox(ints, lo, F(3), _sign_at(ints, lo), _sign_at(ints, F(3)))
    x, bits = polycore._float_root(ints, box.hi)
    assert abs(F(x) - root) > root / 2**bits
    for width in (F(1, 10**30), F(1, 2**45)):
        got = refine_root(box, width)
        assert (got.lo, got.hi) == _fraction_refine(box, width)


# -- the x + 1/x transform ----------------------------------------------

def test_transform_quartic():
    w, parity = reciprocal_transform((1, -5, 1), 1)  # x^2 - 5x + 1
    assert w == (-7, 1) and parity == "even"  # v - 7


def test_transform_sextic_odd_profile():
    # 2x^3 - 7x^2 - 7x + 2 = (x + 1)(2x^2 - 9x + 2)
    w, parity = reciprocal_transform((2, -7, -7, 2), 1)
    assert w == (-13, 2) and parity == "odd"


def test_transform_octic():
    w, parity = reciprocal_transform((3, -10, -7, -10, 3), 1)
    assert w == (19, -22, 3) and parity == "even"


def test_transform_antireciprocal():
    # 4x^3 - 49x^2 + 49x - 4 = (x - 1)(4x^2 - 45x + 4)
    w, parity = reciprocal_transform((-4, 49, -49, 4), -1)
    assert w == (-53, 4) and parity == "even"


def _value(cs, x):
    acc = F(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def test_transform_agrees_with_direct_substitution():
    rng = random.Random(90125)
    for _ in range(40):
        n = rng.randrange(1, 9)
        sigma = rng.choice((1, -1))
        half = [rng.randrange(-9, 10) for _ in range(n // 2 + 1)]
        half[0] = half[0] or 1
        cs = [0] * (n + 1)
        for i, c in enumerate(half):
            cs[i], cs[n - i] = c, sigma * c
        if n % 2 == 0 and sigma == -1:
            cs[n // 2] = 0
        ints = int_coeffs_ref(cs)
        w, parity = reciprocal_transform(ints, sigma)
        h = len(w) - 1
        # spot-check R(x) = c x^h W(x + 2 + 1/x) (x - 1)^[sigma < 0]
        # (x + 1)^[odd] at a few points, with one scale c for all of them
        scales = set()
        for x in (F(2), F(1, 2), F(-3), F(5, 7)):
            rhs = x ** h * _value(w, x + 2 + 1 / x)
            if sigma == -1:
                rhs *= x - 1
            if parity == "odd":
                rhs *= x + 1
            scales.add(_value(ints, x) / rhs)
        assert len(scales) == 1 and scales.pop() in (1, -1)
        assert parity == ("odd" if (n + (sigma == -1)) % 2 else "even")


def test_transform_rejects_bad_shapes():
    with pytest.raises(AssertionError):
        reciprocal_transform((1, 2, 3), 1)  # not self-reciprocal
    with pytest.raises(AssertionError):
        reciprocal_transform((1, 2, 3), -1)  # 1 is no zero
    with pytest.raises(AssertionError):
        reciprocal_transform((1, -5, 1), -1)  # the wrong reversal sign


_big_ints = st.integers(-(10**40), 10**40)


@given(half=st.lists(_big_ints, min_size=1, max_size=8),
       mid=_big_ints, sigma=st.sampled_from((1, -1)))
def test_transform_matches_fraction_reference(half, mid, sigma):
    assume(half[-1] != 0)
    if sigma == -1:
        mid = 0
    ints = int_coeffs_ref([sigma * c for c in reversed(half)] + [mid] + half)
    w, parity = reciprocal_transform(ints, sigma)
    # sigma = -1 divides out x - 1, and then x + 1 from the odd degree left
    assert parity == ("odd" if sigma == -1 else "even")
    got = int_coeffs_ref(resubstitute(w, (1, -1) if sigma == -1 else ()))
    assert got in (ints, tuple(-c for c in ints))
    # W is handed over as its own primitive integer form
    assert type(w) is tuple and w == int_coeffs_ref(w)
    assert w[-1] > 0


@pytest.mark.parametrize("m", [
    (2, -7, -7, 2),
    (-4, 49, -49, 4),
    (F(3, 7), F(-5, 11), F(2, 9), F(-5, 11), F(3, 7)),
])
def test_resubstitution_check_rejects_a_corrupted_transform(m):
    ints = int_coeffs_ref(m)
    sigma = 1 if ints == ints[::-1] else -1
    w, parity = reciprocal_transform(ints, sigma)
    roots = ([1] if sigma == -1 else []) + ([-1] if parity == "odd" else [])
    w = list(w)
    _verify_resubstitution(ints, w, roots)
    for i in range(len(w)):
        for step in (1, -1):
            bad = list(w)
            bad[i] += step
            with pytest.raises(AssertionError):
                _verify_resubstitution(ints, bad, roots)
