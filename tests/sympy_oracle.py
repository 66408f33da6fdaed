"""Exact polynomial and interval arithmetic for the tests, from sympy.

The library has no polynomial type and `Interval` only exact products,
so the tests' exact references (products, remainders, cyclotomic
polynomials, resubstitution, and interval sums, differences, quotients
and powers) are sympy's, written independently of the integer kernels
they check.  Polynomials cross over as `sympy.Poly` in `z` over QQ, and
come back as tuples of `Fraction`, low degree first, which
`int_coeffs_ref` clears to primitive integers; intervals cross over as
`sympy.AccumBounds`, numbers as `sympy.Rational`.
"""

from fractions import Fraction
from math import gcd, lcm

import sympy
from sympy import AccumBounds

from reczeros.interval import Interval

z = sympy.Symbol("z")


def to_rational(c) -> sympy.Rational:
    c = Fraction(c)
    return sympy.Rational(c.numerator, c.denominator)


def to_fraction(c: sympy.Rational) -> Fraction:
    return Fraction(int(c.p), int(c.q))


def to_sympy(cs) -> sympy.Poly:
    """A low-to-high coefficient sequence as a sympy.Poly."""
    return sympy.Poly([to_rational(c) for c in reversed(cs)] or [0], z,
                      domain=sympy.QQ)


def from_sympy(p) -> tuple[Fraction, ...]:
    """A sympy.Poly, or an expression in z, as its Fraction coefficients,
    low to high; the zero polynomial is ()."""
    p = sympy.Poly(p, z, domain=sympy.QQ)
    if p.is_zero:
        return ()
    return tuple(to_fraction(c) for c in reversed(p.all_coeffs()))


def int_coeffs_ref(coeffs) -> tuple[int, ...]:
    """The primitive integer coefficients with the same signs of a nonzero
    rational coefficient sequence whose top entry is nonzero."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    g = 0
    for c in ints:
        g = gcd(g, c)
    return tuple(c // g for c in ints)


def from_roots(*roots, lc=1) -> tuple[Fraction, ...]:
    """lc * prod (z - r), each root anything Fraction() takes."""
    return from_sympy(to_rational(lc) * sympy.prod(
        [z - to_rational(r) for r in roots]))


def resubstitute(w, roots=()) -> tuple[Fraction, ...]:
    """z^h W(z + 2 + 1/z) prod (z - root), expanded, for h = deg W and W a
    coefficient sequence: R itself, up to a rational scale, when W is R's
    transform and `roots` the zeros at +-1 it divided out."""
    w = to_sympy(w)
    expr = z**w.degree() * w.as_expr().subs(z, z + 2 + 1 / z)
    for root in roots:
        expr *= z - root
    return from_sympy(expr)


def to_bounds(iv: Interval):
    """An Interval as an AccumBounds; a point interval becomes its Rational,
    as sympy collapses it."""
    return AccumBounds(to_rational(iv.lo), to_rational(iv.hi))


def from_bounds(b) -> Interval:
    """An AccumBounds, or the number sympy collapsed a point interval to,
    as an Interval."""
    if isinstance(b, AccumBounds):
        return Interval(to_fraction(b.min), to_fraction(b.max))
    return Interval(to_fraction(b))


def encloses(outer: Interval, x) -> bool:
    """Whether `outer` holds x, an Interval or anything Fraction() takes:
    whether sympy finds x's endpoints in it, which by convexity is the
    same."""
    b = to_bounds(outer)
    ends = (x.lo, x.hi) if isinstance(x, Interval) else (x,)
    if not isinstance(b, AccumBounds):  # a point interval
        return all(to_rational(e) == b for e in ends)
    return all(bool(to_rational(e) in b) for e in ends)
