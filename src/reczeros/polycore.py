"""Dense univariate polynomials over exact rationals.

The real-root machinery works over integers for speed: a polynomial is
cleared to a primitive integer coefficient list, a positive multiple with
the same signs, and `_sign_at` takes its exact sign at a rational point by
integer Horner; `_dyadic_signs` takes the signs at many points num / 2^bits
with one set of shifted coefficients.  Those sign kernels are all the
primary certificate route (sign alternation on a grid, in `certify`)
needs.  The signed remainder (Sturm) chain is the fallback that decides
every case: it uses content-stripped pseudo-remainders whose scalings are
always positive, so sign variation counts are preserved exactly.  Root
counts are over open intervals; callers detect endpoint roots by exact
evaluation.  Root isolation returns boxes with nonzero opposite endpoint
signs; refinement is sign bisection on integer numerators over a common
denominator that doubles with each halving, with signs taken by
homogeneous integer Horner.

Also here: the z + 1/z transform for self-reciprocal polynomials of even
degree.  For m with z^(2d) m(1/z) = sigma * m(z):

    sigma = +1:  m(z) = z^d * T(z + 1/z),          deg T = d
    sigma = -1:  m(z) = z^(d-1) (z^2 - 1) T(z + 1/z),  deg T = d - 1

computed by the two Chebyshev-style recurrences for z^n + z^-n and
(z^n - z^-n)/(z - 1/z) on the integer-cleared coefficients of m, verified
by exact resubstitution on integers (a binomial expansion compared
coefficient by coefficient), and scaled back to m's own coefficients once.
The reversal sign and the parity split are decided on integers too.

A `Fraction` handed to Poly, RootBox or Interval is kept as it is, and
`int_coeffs` clears denominators on numerators, so building and clearing
a polynomial does no Rational-ABC coercion.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, inf
from typing import Iterable, Sequence

from .interval import Interval


class Poly:
    """Immutable dense polynomial with Fraction coefficients, low to high.

    The library needs only part of the ring algebra.  All of it (+ - * **
    divmod // %), with `x`, `monomial` and `reverse`, is kept as the
    independent exact reference the tests check the integer kernels
    against: the Fraction transform oracle and the cyclotomic-division
    oracle.
    """

    __slots__ = ("_coeffs", "_ints")

    def __init__(self, coeffs: Iterable = ()):
        # a Fraction is kept as it is: Fraction(c) would re-check it
        # against the numbers.Rational ABC
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self._coeffs = tuple(cs)
        self._ints = None

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, n: int, c=1) -> "Poly":
        return cls((0,) * n + (c,))

    # -- queries ----------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def degree(self) -> int:
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def lc(self) -> Fraction:
        if not self._coeffs:
            return Fraction(0)
        return self._coeffs[-1]

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self) -> str:
        if not self._coeffs:
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self._coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("%s*x" % c)
            else:
                parts.append("%s*x^%d" % (c, i))
        return "Poly(" + " + ".join(parts) + ")"

    # -- ring operations --------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self._coeffs))

    def __sub__(self, other) -> "Poly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly(tuple(c * other for c in self._coeffs))
        other = _as_poly(other)
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return Poly.zero()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        other = _as_poly(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self._coeffs)
        dq = len(rem) - len(other._coeffs)
        if dq < 0:
            return Poly.zero(), self
        quo = [Fraction(0)] * (dq + 1)
        dlc = other.lc()
        db = other.degree()
        for i in range(dq, -1, -1):
            if len(rem) - 1 != db + i or not rem:
                continue
            c = rem[-1] / dlc
            quo[i] = c
            for j, cb in enumerate(other._coeffs):
                rem[i + j] -= c * cb
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(quo), Poly(rem)

    def __floordiv__(self, other) -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Poly":
        return divmod(self, other)[1]

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self._coeffs) if i > 0))

    def reverse(self) -> "Poly":
        """x^deg * p(1/x): the coefficient list reversed."""
        return Poly(tuple(reversed(self._coeffs)))

    # -- evaluation -------------------------------------------------------

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def eval_interval(self, x: Interval) -> Interval:
        """Inclusion-correct interval Horner evaluation."""
        acc = Interval(0)
        for c in reversed(self._coeffs):
            acc = acc * x + Interval(c)
        return acc

    # -- integer clearing -------------------------------------------------

    def int_coeffs(self) -> tuple[int, ...]:
        """Primitive integer coefficient list with the same signs and roots."""
        if self._ints is None:
            if not self._coeffs:
                self._ints = ()
            else:
                den = lcm(*(c.denominator for c in self._coeffs))
                ints = [c.numerator * (den // c.denominator)
                        for c in self._coeffs]
                g = gcd(*ints)
                self._ints = tuple(c // g for c in ints)
        return self._ints


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly((x,))
    raise TypeError("cannot coerce %r to Poly" % (x,))


# -- integer-level helpers ----------------------------------------------

def _trim(c: list[int]) -> None:
    while c and c[-1] == 0:
        c.pop()


def _prim(c: Sequence[int]) -> list[int]:
    """Divide by the (positive) content; preserves all signs."""
    g = 0
    for x in c:
        g = gcd(g, x)
    if g in (0, 1):
        return list(c)
    return [x // g for x in c]


def _prem_signed(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """Positive-scalar multiple of the remainder of f by g (deg f >= deg g).

    Classic pseudo-remainder elimination; each step scales by lc(g), so the
    net scalar is lc(g)^steps.  A final negation when that scalar would be
    negative makes the result a *positive* multiple of rem(f, g), which is
    what sign-variation arguments need.
    """
    dg = len(g) - 1
    lg = g[-1]
    r = list(f)
    steps = 0
    while len(r) - 1 >= dg and r:
        lead = r[-1]
        shift = len(r) - 1 - dg
        r = [lg * c for c in r]
        for i, cg in enumerate(g):
            r[shift + i] -= lead * cg
        r.pop()  # exact cancellation of the leading term
        _trim(r)
        steps += 1
    if lg < 0 and steps % 2 == 1:
        r = [-c for c in r]
    return r


def _sign_at(ints: Sequence[int], x) -> int:
    """Sign of the integer-coefficient polynomial at x (Fraction or +-inf)."""
    if not ints:
        return 0
    if x == inf or x == -inf:
        s = 1 if ints[-1] > 0 else -1
        if x == -inf and (len(ints) - 1) % 2 == 1:
            s = -s
        return s
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    if den == 1:
        acc = 0
        for c in reversed(ints):
            acc = acc * num + c
    else:
        acc = ints[-1]
        dp = 1
        for c in reversed(ints[:-1]):
            dp *= den
            acc = acc * num + c * dp
    return (acc > 0) - (acc < 0)


def _dyadic_signs(ints: Sequence[int], nums: Iterable[int],
                  bits: int) -> list[int]:
    """Signs of the integer-coefficient polynomial at each num / 2^bits.

    Homogeneous Horner: sum c_i num^i 2^(bits (n - i)) is 2^(bits n) times
    the value, so it has the same sign; the coefficients are shifted once
    and shared by every point.
    """
    n = len(ints) - 1
    scaled = [c << (bits * (n - i)) for i, c in enumerate(ints)]
    lead = scaled.pop()
    scaled.reverse()
    signs = []
    for x in nums:
        acc = lead
        for c in scaled:
            acc = acc * x + c
        signs.append((acc > 0) - (acc < 0))
    return signs


def _variations(signs: Iterable[int]) -> int:
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev != 0 and s != prev:
            count += 1
        prev = s
    return count


class SturmChain:
    """Signed remainder chain of a squarefree polynomial, over integers.

    Raises ValueError on non-squarefree input: the chain then degenerates
    (its last nonzero member, a positive multiple of gcd(p, p'), has
    positive degree), and variation counts would be meaningless for
    root counting.
    """

    __slots__ = ("chain", "_vcache")

    def __init__(self, p: Poly):
        f = list(p.int_coeffs())
        if len(f) <= 1:
            self.chain = [f] if f else []
            self._vcache = {}
            return
        fp = _prim([i * c for i, c in enumerate(f) if i > 0])
        chain = [f, fp]
        while len(chain[-1]) > 1:
            r = _prem_signed(chain[-2], chain[-1])
            if not r:
                break
            chain.append([-c for c in _prim(r)])
        if len(chain[-1]) > 1:
            raise ValueError(
                "polynomial is not squarefree (chain degenerates with "
                "gcd degree %d)" % (len(chain[-1]) - 1)
            )
        self.chain = chain
        self._vcache = {}

    def variations(self, x) -> int:
        v = self._vcache.get(x)
        if v is None:
            v = _variations(_sign_at(m, x) for m in self.chain)
            self._vcache[x] = v
        return v

    def sign_at(self, x) -> int:
        return _sign_at(self.chain[0], x)

    def count_open(self, a, b) -> int:
        """Number of real roots in the open interval (a, b).

        a and b may be Fractions or +-math.inf, with a < b.
        """
        if not self.chain:
            return 0
        if not _lt(a, b):
            raise ValueError("count_open needs a < b")
        n = self.variations(a) - self.variations(b)
        if b != inf and self.sign_at(b) == 0:
            n -= 1
        return n


def _lt(a, b) -> bool:
    av = -inf if a == -inf else (inf if a == inf else Fraction(a))
    bv = -inf if b == -inf else (inf if b == inf else Fraction(b))
    return av < bv


def cauchy_bound(p: Poly) -> Fraction:
    """B with every real root of p strictly inside (-B, B)."""
    if p.degree() < 1:
        return Fraction(1)
    # 1 + max |c_i| / |c_n| is the same on any positive multiple of p
    ints = p.int_coeffs()
    l = abs(ints[-1])
    return Fraction(l + max(abs(c) for c in ints[:-1]), l)


class RootBox:
    """An open interval (lo, hi) certified to contain exactly one simple
    real root of `poly`, with recorded (nonzero, opposite) endpoint signs."""

    __slots__ = ("poly", "lo", "hi", "sign_lo", "sign_hi")

    def __init__(self, poly: Poly, lo: Fraction, hi: Fraction, sign_lo: int, sign_hi: int):
        if not lo < hi:
            raise ValueError("root box endpoints out of order")
        if sign_lo == 0 or sign_hi == 0 or sign_lo == sign_hi:
            raise ValueError("root box endpoint signs must be nonzero and opposite")
        self.poly = poly
        self.lo = lo if type(lo) is Fraction else Fraction(lo)
        self.hi = hi if type(hi) is Fraction else Fraction(hi)
        self.sign_lo = sign_lo
        self.sign_hi = sign_hi

    def width(self) -> Fraction:
        return self.hi - self.lo

    def as_interval(self) -> Interval:
        return Interval(self.lo, self.hi)

    def __repr__(self) -> str:
        return "RootBox(%s, %s)" % (self.lo, self.hi)


def _make_box(p: Poly, ints, lo, hi) -> RootBox:
    return RootBox(p, lo, hi, _sign_at(ints, lo), _sign_at(ints, hi))


def isolate_real_roots(p: Poly, a=-inf, b=inf, chain: SturmChain | None = None) -> list[RootBox]:
    """Isolating boxes for all real roots of squarefree p in open (a, b).

    Boxes are returned in increasing order; as open intervals they are
    pairwise disjoint and each contains exactly one root.  Rational roots
    hit exactly by a bisection point get a small symmetric box carved out
    around them.
    """
    if p.degree() < 1:
        return []
    if chain is None:
        chain = SturmChain(p)
    ints = p.int_coeffs()
    bound = cauchy_bound(p)
    lo = -bound if a == -inf else Fraction(a)
    hi = bound if b == inf else Fraction(b)
    if not lo < hi:
        return []

    def count(x, y):
        return chain.count_open(x, y)

    def nudge_off_root(x, other):
        # move x inward (towards `other`) until it is not a root and no
        # root sits strictly between the original x and its replacement
        step = (other - x) / 4
        while True:
            cand = x + step
            if _sign_at(ints, cand) != 0 and count(min(x, cand), max(x, cand)) == 0:
                return cand
            step /= 2

    out: list[RootBox] = []
    if _sign_at(ints, lo) == 0:
        lo = nudge_off_root(lo, hi)
    if _sign_at(ints, hi) == 0:
        hi = nudge_off_root(hi, lo)
    stack = [(lo, hi, count(lo, hi))]
    while stack:
        x, y, n = stack.pop()
        if n == 0:
            continue
        sx, sy = _sign_at(ints, x), _sign_at(ints, y)
        if n == 1 and sx * sy < 0:
            out.append(RootBox(p, x, y, sx, sy))
            continue
        m = (x + y) / 2
        sm = _sign_at(ints, m)
        if sm == 0:
            # exact rational root at the midpoint: carve out its own box
            delta = (y - x) / 8
            while (
                _sign_at(ints, m - delta) == 0
                or _sign_at(ints, m + delta) == 0
                or count(m - delta, m + delta) != 1
            ):
                delta /= 2
            out.append(_make_box(p, ints, m - delta, m + delta))
            stack.append((x, m - delta, count(x, m - delta)))
            stack.append((m + delta, y, count(m + delta, y)))
        else:
            stack.append((x, m, count(x, m)))
            stack.append((m, y, count(m, y)))
    out.sort(key=lambda box: box.lo)
    return out


def refine_root(box: RootBox, width: Fraction) -> RootBox:
    """Shrink a root box below the requested width by sign bisection.

    The endpoints are integer numerators a < b over a common denominator
    D0 * 2^s that doubles with each halving, so a midpoint is (a + b) over
    the next denominator, and its sign is the sign `_dyadic_signs` gives at
    (a + b) / 2^s for the coefficients c_i D0^(n-i).
    """
    width = Fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    ints = box.poly.int_coeffs()
    slo, shi = box.sign_lo, box.sign_hi
    den0 = lcm(box.lo.denominator, box.hi.denominator)
    a = box.lo.numerator * (den0 // box.lo.denominator)
    b = box.hi.numerator * (den0 // box.hi.denominator)
    n = len(ints) - 1
    scaled = [c * den0 ** (n - i) for i, c in enumerate(ints)]
    wnum, wden = width.numerator, width.denominator
    s = 0
    while (b - a) * wden > wnum * (den0 << s):
        s += 1
        x = a + b
        sign = _dyadic_signs(scaled, (x,), s)[0]
        if sign == 0:
            # the root is exactly the midpoint; close symmetrically around it
            m = Fraction(x, den0 << s)
            delta = min(width, Fraction(b - a, den0 << (s - 1))) / 4
            while _sign_at(ints, m - delta) != slo or _sign_at(ints, m + delta) != shi:
                delta /= 2
            return RootBox(box.poly, m - delta, m + delta, slo, shi)
        if sign == slo:
            a, b = x, 2 * b
        else:
            a, b = 2 * a, x
    return RootBox(box.poly, Fraction(a, den0 << s), Fraction(b, den0 << s), slo, shi)


# -- the z + 1/z transform ----------------------------------------------

class TransformResult:
    """Output of reciprocal_transform: T, the reversal sign, and the
    even/odd split of T.  The cofactor of T is z^2 - 1 when sigma = -1.

    w_parity is "even" (T(w) = W(w^2)), "odd" (T(w) = w W(w^2)) or "mixed",
    in which case w_square is None.  Transforms of polynomials that are even
    in z always have pure parity.
    """

    __slots__ = ("transform", "sigma", "w_parity", "w_square")

    def __init__(self, transform: Poly, sigma: int, w_parity: str,
                 w_square: Poly | None):
        self.transform = transform
        self.sigma = sigma
        self.w_parity = w_parity
        self.w_square = w_square


def detect_reversal_sign(m: Poly) -> int:
    """sigma with z^deg * m(1/z) = sigma * m(z); raises if m is neither.

    Decided on m.int_coeffs(), a positive multiple of m.
    """
    cs = m.int_coeffs()
    rev = cs[::-1]
    if cs == rev:
        return 1
    if all(a == -b for a, b in zip(cs, rev)):
        return -1
    raise ValueError("polynomial is not self-reciprocal up to sign")


def reciprocal_transform(m: Poly) -> TransformResult:
    """Express a self-reciprocal even-degree m in the variable w = z + 1/z.

    The recurrences run on m.int_coeffs(), a positive integer multiple of
    m; the integer transform is verified by exact resubstitution and then
    scaled back once, so T is exactly the transform of m itself.
    """
    if m.degree() < 2 or m.degree() % 2 != 0:
        raise ValueError("transform needs even degree >= 2")
    cs = m.int_coeffs()
    if cs[0] == 0:
        raise ValueError("transform needs m(0) != 0")
    sigma = detect_reversal_sign(m)
    d = m.degree() // 2
    acc = [0] * (d + 1)
    if sigma == 1:
        # m/z^d = c_d + sum_{i>=1} c_{d+i} (z^i + z^-i); z^i + z^-i = V_i(w)
        acc[0] = cs[d]
        prev, cur = [2], [0, 1]
        shift = d
    else:
        # m/z^d = sum_{i>=1} c_{d+i} (z^i - z^-i)
        #       = (z - 1/z) * sum c_{d+i} S_{i-1}(w)
        prev, cur = [], [1]
        shift = d - 1
    for i in range(1, d + 1):
        c = cs[d + i]
        if c:
            acc[:len(cur)] = [a + c * v for a, v in zip(acc, cur)]
        # next = w * cur - prev; prev is one shorter than cur
        prev, cur = cur, [a - b for a, b in zip([0] + cur, prev + [0, 0])]
    _trim(acc)
    _verify_resubstitution(cs, acc, shift, sigma)
    # m = (lc / cs[-1]) * cs, so T's coefficients are acc * lc / cs[-1];
    # half of them are 0 when T has one parity
    lc = m.lc()
    num, den = lc.numerator, lc.denominator * cs[-1]
    zero = Fraction(0)
    t = Poly([Fraction(c * num, den) if c else zero for c in acc])
    try:
        parity, w_sq = split_even_odd(t)
    except ValueError:
        parity, w_sq = "mixed", None
    return TransformResult(t, sigma, parity, w_sq)


def _verify_resubstitution(m: Sequence[int], t: Sequence[int], shift: int,
                           sigma: int) -> None:
    """Raise unless m(z) = z^shift (z^2 - 1)^[sigma = -1] t(z + 1/z).

    With n = deg t, z^shift t(z + 1/z) = z^(shift - n) h_0 for
    h_i = sum_{l >= i} t_l (z^2 + 1)^(l - i) z^(n - l), which Horner's rule
    builds as h_i = (z^2 + 1) h_(i+1) + t_i z^(n - i), each step a shifted
    add; the result is compared coefficient by coefficient.
    """
    n = len(t) - 1
    if n > shift:
        raise AssertionError("transform resubstitution mismatch")
    h = []
    for i in range(n, -1, -1):
        h = [a + b for a, b in zip(h + [0, 0], [0, 0] + h)]
        h[n - i] += t[i]
    acc = [0] * (shift - n) + h
    if sigma == -1:
        acc = [a - b for a, b in zip([0, 0] + acc, acc + [0, 0])]
    _trim(acc)
    if acc != list(m):
        raise AssertionError("transform resubstitution mismatch")


def split_even_odd(t: Poly) -> tuple[str, Poly]:
    """Write t(w) = W(w^2) ('even') or w * W(w^2) ('odd').

    Raises if t has mixed parity, which cannot happen for transforms of
    even self-reciprocal polynomials.
    """
    evens = t.coeffs[0::2]
    odds = t.coeffs[1::2]
    if not any(odds):
        return "even", Poly(evens)
    if not any(evens):
        return "odd", Poly(odds)
    raise ValueError("polynomial has mixed parity")
