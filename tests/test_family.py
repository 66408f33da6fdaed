from fractions import Fraction as F

import pytest

from reczeros import family
from reczeros.exactnum import q
from reczeros.family import (
    boundary_profile,
    circle_approximant,
    monic_even_form,
    reciprocal_poly,
    sigma_of,
)
from reczeros.polycore import Poly


def test_sigma_table():
    assert sigma_of(1, 1) == 1
    assert sigma_of(2, 1) == 1
    assert sigma_of(1, 2) == 1
    assert sigma_of(2, 2) == -1
    assert sigma_of(4, 2) == -1
    assert sigma_of(3, 2) == 1
    assert sigma_of(2, 4) == -1


def test_validation():
    for bad in ((0, 1), (1, 0), (-2, 3)):
        with pytest.raises(ValueError):
            sigma_of(*bad)
        with pytest.raises(ValueError):
            reciprocal_poly(*bad)


def test_base_poly_small_cases():
    assert reciprocal_poly(1, 1) == Poly([F(-1, 720), F(1, 144), F(-1, 720)])
    assert reciprocal_poly(1, 2) == Poly([F(1, 518400), F(-1, 20736), F(1, 518400)])


def test_base_poly_shape():
    for k in range(1, 9):
        for ell in range(1, 4):
            r = reciprocal_poly(k, ell)
            assert r.degree() == k + 1
            assert r[0] != 0
            # self-reciprocal up to the reversal sign, already at this scale
            assert r.reverse() == sigma_of(k, ell) * r


def test_companion_small_cases():
    assert monic_even_form(1, 1) == Poly([1, 0, -5, 0, 1])
    assert monic_even_form(2, 1) == Poly([1, 0, F(-7, 2), 0, F(-7, 2), 0, 1])
    assert monic_even_form(2, 2) == Poly([-1, 0, F(49, 4), 0, F(-49, 4), 0, 1])
    assert monic_even_form(3, 1) == Poly(
        [1, 0, F(-10, 3), 0, F(-7, 3), 0, F(-10, 3), 0, 1]
    )


def test_companion_shape_and_weights():
    for k in range(1, 9):
        for ell in range(1, 4):
            m = monic_even_form(k, ell)
            sig = sigma_of(k, ell)
            assert m.degree() == 2 * k + 2
            assert m.lc() == 1
            assert m[0] == sig
            assert all(m[i] == 0 for i in range(1, 2 * k + 2, 2))
            assert m.reverse() == sig * m
            # interior coefficients carry the ell-th quotient powers
            s = -1 if ((ell + 1) * (k + 1)) % 2 else 1
            assert m[2] == -(2**ell) * s * q(k, 1) ** ell


@pytest.mark.parametrize("k, ell", [(5, 2), (5, 3), (6, 2)])
def test_construction_check_catches_one_corrupted_coefficient(monkeypatch, k, ell):
    r = reciprocal_poly(k, ell)
    build = monic_even_form.__wrapped__  # past the cache
    for j in range(k + 2):
        for bad in (r[j] * F(10**6 + 1, 10**6), -r[j]):
            cs = list(r.coeffs)
            cs[j] = bad
            monkeypatch.setattr(family, "reciprocal_poly", lambda *_: Poly(cs))
            with pytest.raises(AssertionError):
                build(k, ell)
    # a negated base polynomial has the same monic companion
    monkeypatch.setattr(family, "reciprocal_poly", lambda *_: -r)
    assert build(k, ell) == monic_even_form(k, ell)


def test_approximant_difference_golden():
    pair = circle_approximant(3, 1)
    assert pair.delta == Poly([0, 0, 0, 0, F(-1, 3)])
    assert pair.weight == F(1, 3)
    assert pair.approx + pair.delta == monic_even_form(3, 1)

    pair = circle_approximant(3, 2)
    assert pair.delta == Poly([0, 0, 0, 0, F(13, 9)])
    assert pair.weight == F(13, 9)


def test_approximant_trivial_below_k3():
    for k, ell in ((1, 1), (2, 3), (1, 4), (2, 1)):
        pair = circle_approximant(k, ell)
        assert pair.delta.is_zero()
        assert pair.weight == 0
        assert pair.approx == monic_even_form(k, ell)


def test_approximant_snaps_interior_weights():
    for k in (4, 6, 9):
        for ell in (1, 2, 3):
            pair = circle_approximant(k, ell)
            assert pair.weight == (2**ell) * sum(
                q(k, j) ** ell - 1 for j in range(2, k)
            )
            assert pair.weight > 0
            for j in range(2, k):
                assert abs(pair.approx[2 * j]) == 2**ell
            # endpoint weights are kept exact
            assert pair.approx[2] == monic_even_form(k, ell)[2]
            assert pair.approx[2 * k] == monic_even_form(k, ell)[2 * k]


def test_boundary_profile_golden():
    p = boundary_profile(1, 1)
    assert p.sigma == 1
    assert p.transform == Poly([-7, 0, 1])
    assert p.w_parity == "even" and p.w_square == Poly([-7, 1])

    p = boundary_profile(2, 1)
    assert p.transform == Poly([0, F(-13, 2), 0, 1])
    assert p.w_parity == "odd" and p.w_square == Poly([F(-13, 2), 1])

    p = boundary_profile(2, 2)
    assert p.sigma == -1
    assert p.transform == Poly([F(-53, 4), 0, 1])
    assert p.w_square == Poly([F(-53, 4), 1])

    p = boundary_profile(3, 1)
    assert p.transform == Poly([F(19, 3), 0, F(-22, 3), 0, 1])
    assert p.w_square == Poly([F(19, 3), F(-22, 3), 1])


def test_boundary_profile_shapes():
    for k in range(1, 9):
        for ell in range(1, 4):
            p = boundary_profile(k, ell)
            if p.sigma == 1:
                assert p.transform.degree() == k + 1
                assert p.w_parity == ("even" if k % 2 else "odd")
                assert p.w_square.degree() == (k + 1) // 2
            else:
                assert p.transform.degree() == k
                assert p.w_parity == "even"
                assert p.w_square.degree() == k // 2
            assert p.w_square.lc() == 1
