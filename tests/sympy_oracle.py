"""Exact polynomial and interval arithmetic for the tests, from sympy.

`Poly` has no ring algebra and `Interval` only negation, sums and
products, so the tests' exact references (products, remainders,
cyclotomic polynomials, resubstitution, and interval differences,
quotients and powers) are sympy's, written independently of the integer
kernels they check.  Polynomials cross over as `sympy.Poly` in `z` over
QQ, intervals as `sympy.AccumBounds`, numbers as `sympy.Rational`.
"""

from fractions import Fraction

import sympy
from sympy import AccumBounds

from reczeros.interval import Interval
from reczeros.polycore import Poly

z = sympy.Symbol("z")


def to_rational(c) -> sympy.Rational:
    c = Fraction(c)
    return sympy.Rational(c.numerator, c.denominator)


def to_fraction(c: sympy.Rational) -> Fraction:
    return Fraction(int(c.p), int(c.q))


def to_sympy(p) -> sympy.Poly:
    """A Poly, or a low-to-high coefficient list, as a sympy.Poly."""
    cs = p.coeffs if isinstance(p, Poly) else p
    return sympy.Poly([to_rational(c) for c in reversed(cs)] or [0], z,
                      domain=sympy.QQ)


def from_sympy(p) -> Poly:
    """A sympy.Poly, or an expression in z, as a Poly."""
    p = sympy.Poly(p, z, domain=sympy.QQ)
    return Poly(to_fraction(c) for c in reversed(p.all_coeffs()))


def from_roots(*roots, lc=1) -> Poly:
    """lc * prod (z - r), each root anything Fraction() takes."""
    return from_sympy(to_rational(lc) * sympy.prod(
        [z - to_rational(r) for r in roots]))


def resubstitute(w, roots=()) -> Poly:
    """z^h W(z + 2 + 1/z) prod (z - root), expanded, for h = deg W and W a
    Poly or a coefficient list: R itself, up to a rational scale, when W
    is R's transform and `roots` the zeros at +-1 it divided out."""
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
