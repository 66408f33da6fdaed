from fractions import Fraction as F

import pytest

from reczeros import exactnum, family
from reczeros.bounds import q
from reczeros.family import (
    boundary_profile,
    circle_approximant,
    monic_even_form,
    reciprocal_poly,
    sigma_of,
)
from sympy_oracle import int_coeffs_ref, to_sympy


def test_sigma_table():
    assert sigma_of(1, 1) == 1
    assert sigma_of(2, 1) == 1
    assert sigma_of(1, 2) == 1
    assert sigma_of(2, 2) == -1
    assert sigma_of(4, 2) == -1
    assert sigma_of(3, 2) == 1
    assert sigma_of(2, 4) == -1


def test_validation():
    boundary_profile(2, 1)  # a cached int key must not admit a float one
    for bad in ((0, 1), (1, 0), (-2, 3), (2.0, 1), (2, 1.0), (True, 1),
                (1, True)):
        for entry in (sigma_of, reciprocal_poly, monic_even_form,
                      circle_approximant, boundary_profile):
            with pytest.raises(ValueError):
                entry(*bad)


def test_each_entry_validates_once(monkeypatch):
    calls = []
    real = family._validate
    monkeypatch.setattr(family, "_validate",
                        lambda k, ell: calls.append((k, ell)) or real(k, ell))
    # past the caches, so each entry builds what it reads
    monkeypatch.setattr(family, "reciprocal_poly", reciprocal_poly.__wrapped__)
    monkeypatch.setattr(family, "monic_even_form", monic_even_form.__wrapped__)
    for entry in (sigma_of, family.reciprocal_poly, family.monic_even_form,
                  circle_approximant, boundary_profile.__wrapped__):
        calls.clear()
        entry(5, 2)
        assert calls == [(5, 2)], entry


def test_base_poly_small_cases():
    assert reciprocal_poly(1, 1) == ((-1, 5, -1), F(1, 720))
    assert reciprocal_poly(1, 2) == ((1, -25, 1), F(1, 518400))


def test_base_poly_shape():
    for k in range(1, 9):
        for ell in range(1, 4):
            ints, scale = reciprocal_poly(k, ell)
            assert len(ints) - 1 == k + 1
            assert ints[0] != 0 and scale > 0
            # self-reciprocal up to the reversal sign, already at this scale
            sig = sigma_of(k, ell)
            assert ints[::-1] == tuple(sig * c for c in ints)


def test_companion_small_cases():
    assert monic_even_form(1, 1) == (1, 0, -5, 0, 1)
    assert monic_even_form(2, 1) == (1, 0, F(-7, 2), 0, F(-7, 2), 0, 1)
    assert monic_even_form(2, 2) == (-1, 0, F(49, 4), 0, F(-49, 4), 0, 1)
    assert monic_even_form(3, 1) == (
        1, 0, F(-10, 3), 0, F(-7, 3), 0, F(-10, 3), 0, 1
    )
    # every entry is a Fraction, as the construct documents print it
    assert all(type(c) is F for c in monic_even_form(3, 1))


def test_companion_shape_and_weights():
    for k in range(1, 9):
        for ell in range(1, 4):
            cs = monic_even_form(k, ell)
            sig = sigma_of(k, ell)
            assert len(cs) - 1 == 2 * k + 2
            assert cs[-1] == 1
            assert cs[0] == sig
            assert all(cs[i] == 0 for i in range(1, 2 * k + 2, 2))
            assert cs[::-1] == tuple(sig * c for c in cs)
            # interior coefficients carry the ell-th quotient powers
            s = -1 if ((ell + 1) * (k + 1)) % 2 else 1
            assert cs[2] == -(2**ell) * s * q(k, 1) ** ell


@pytest.mark.parametrize("k, ell", [(5, 2), (5, 3), (6, 2)])
def test_construction_check_catches_one_corrupted_coefficient(monkeypatch, k, ell):
    r = reciprocal_poly(k, ell)
    build = reciprocal_poly.__wrapped__  # past the cache
    # each input with its pair partner: B_2j with B_(2k+2-2j), r_j with
    # r_(k+1-j)
    inputs = [("bernoulli", 2 * j, 2 * k + 2 - 2 * j) for j in range(k + 2)]
    inputs += [("zeta_even_rational", m, k + 1 - m) for m in range(1, k + 2)]
    for name, index, partner in inputs:
        real = getattr(exactnum, name)
        for factor in (F(10**6 + 1, 10**6), -1):
            with monkeypatch.context() as patch:
                patch.setattr(family, name, lambda m: (
                    real(m) * factor if m == index else real(m)))
                if factor == -1 and partner == index:
                    # the middle of the pairs enters squared: nothing changes
                    assert build(k, ell) == r
                    continue
                with pytest.raises(AssertionError,
                                   match="companion coefficient identity"):
                    build(k, ell)
    # a negated base polynomial has the same monic companion
    want = monic_even_form(k, ell)
    negated = family.Member(tuple(-c for c in r.ints), r.scale)
    monkeypatch.setattr(family, "reciprocal_poly", lambda *_: negated)
    assert monic_even_form.__wrapped__(k, ell) == want


def test_approximant_difference_golden():
    pair = circle_approximant(3, 1)
    assert pair.delta == (0, 0, 0, 0, F(-1, 3))
    assert all(type(c) is F for c in pair.approx + pair.delta)
    assert pair.weight == F(1, 3)
    total = to_sympy(pair.approx) + to_sympy(pair.delta)
    assert total == to_sympy(monic_even_form(3, 1))

    pair = circle_approximant(3, 2)
    assert pair.delta == (0, 0, 0, 0, F(13, 9))
    assert pair.weight == F(13, 9)


def test_approximant_trivial_below_k3():
    for k, ell in ((1, 1), (2, 3), (1, 4), (2, 1)):
        pair = circle_approximant(k, ell)
        assert pair.delta == ()
        assert pair.weight == 0 and type(pair.weight) is F
        assert pair.approx == monic_even_form(k, ell)


def test_approximant_difference_ends_at_its_last_interior_weight():
    """The difference is trimmed of its zero top coefficients: it stops at
    the weight of z^(2k-2), as the construct documents print it."""
    for k in range(3, 12):
        for ell in range(1, 5):
            delta = circle_approximant(k, ell).delta
            assert len(delta) == 2 * k - 1 and delta[-1] != 0, (k, ell)


def test_approximant_snaps_interior_weights():
    for k in (4, 6, 9):
        for ell in (1, 2, 3):
            pair = circle_approximant(k, ell)
            assert pair.weight == (2**ell) * sum(
                q(k, j) ** ell - 1 for j in range(2, k)
            )
            assert pair.weight > 0
            got, want = pair.approx, monic_even_form(k, ell)
            for j in range(2, k):
                assert abs(got[2 * j]) == 2**ell
            # endpoint weights are kept exact
            assert got[2] == want[2]
            assert got[2 * k] == want[2 * k]
            total = to_sympy(pair.approx) + to_sympy(pair.delta)
            assert total == to_sympy(want)


def test_boundary_profile_golden():
    # W is primitive with a positive leading coefficient: the monic
    # v - 13/2 of the z + 1/z route is 2v - 13 here
    p = boundary_profile(1, 1)
    assert p.sigma == 1
    assert p.w_parity == "even" and p.w_square == (-7, 1)

    p = boundary_profile(2, 1)
    assert p.w_parity == "odd" and p.w_square == (-13, 2)

    p = boundary_profile(2, 2)
    assert p.sigma == -1
    assert p.w_parity == "even" and p.w_square == (-53, 4)

    p = boundary_profile(3, 1)
    assert p.w_square == (19, -22, 3)


def test_boundary_profile_shapes():
    for k in range(1, 9):
        for ell in range(1, 4):
            p = boundary_profile(k, ell)
            assert p.sigma == sigma_of(k, ell)
            assert len(p.w_square) - 1 == (k + 1) // 2
            if p.sigma == 1:
                assert p.w_parity == ("even" if k % 2 else "odd")
            else:
                assert p.w_parity == "even"
            # W is handed over as its own primitive integer form
            w = p.w_square
            assert type(w) is tuple and w[-1] > 0 and int_coeffs_ref(w) == w
