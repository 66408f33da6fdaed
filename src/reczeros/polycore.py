"""Integer polynomial kernels: signs, root counts, root refinement and
the x + 1/x transform.

Every kernel takes an integer polynomial: a sequence of ints, low degree
first, with a nonzero top coefficient, such as a member's primitive
integer coefficients `family.reciprocal_poly(k, ell).ints`.  `_sign_at`
takes its exact sign at a rational point by integer Horner;
`_dyadic_values` takes the values (times a power of two) at many points
num / 2^bits with one set of shifted coefficients, and `_dyadic_signs`
their signs.
With `bounds.horner_sign` they take every sign the library decides,
and they are all the primary certificate route (sign alternation on a
grid, in `certify`) needs.  The signed remainder (Sturm) chain is the
fallback that decides every case: it strips the content of each exact
pseudo-remainder (`_prem`, the kernel `analysis.resultant` runs on too)
and fixes its sign from the known sign of the lc power, so sign
variation counts (`_variations`) are preserved exactly.  `certify`
reads them at 0 and 4 by `_sign_at`, and at -inf and +inf off each
member's leading sign and degree, where W is nonzero, so no count needs
an endpoint correction.  A root box is an `Interval` on which the
polynomial rises through its one simple root, negative at the lower end
and positive at the upper; `certify` boxes W's one zero beyond 4 as
(4, B).  Its refinement returns the dyadic cell that sign bisection
reaches, but jumps there: a float estimate or a secant only chooses a
candidate cell, and the candidate is accepted when the exact signs at
its two ends, by homogeneous integer Horner, are negative and positive.
Such a cell holds the box's one simple root, so it is the cell
bisection reaches at that level.

Also here: the x + 1/x transform, which writes a self-reciprocal integer
polynomial R, after dividing out its zeros at x = 1 and x = -1 that the
reversal sign and the degree force, as x^h W(x + 2 + 1/x).  It divides
them out by `_divmod_monic`, the one exact division by a monic integer
polynomial (`certify` divides by cyclotomic polynomials with it), runs
one Chebyshev-style recurrence on R's integer coefficients, returns W as
a tuple of ints, and is verified by exact resubstitution on integers (a
binomial expansion by shifted adds, compared coefficient by coefficient).
"""

from __future__ import annotations

from fractions import Fraction
from math import frexp, gcd, inf, lcm, ldexp, sqrt
from typing import Iterable, Sequence

from .interval import Interval


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


def _prem(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """The pseudo-remainder lc(g)^(deg f - deg g + 1) * (f mod g), exact.

    Needs deg f >= deg g >= 0.  One elimination step per degree from deg f
    down to deg g, each scaling by lc(g), so the scalar is the same power
    of lc(g) however far a step happens to drop the degree.
    """
    dg = len(g) - 1
    lg = g[-1]
    r = list(f)
    for top in range(len(r) - 1, dg - 1, -1):
        lead = r[top]
        r = [lg * c for c in r[:top]]  # the top term cancels exactly
        if lead:
            shift = top - dg
            for i in range(dg):
                r[shift + i] -= lead * g[i]
    _trim(r)
    return r


def _divmod_monic(f: Sequence[int], g: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer f by monic integer g, over the integers."""
    rem = list(f)
    dg = len(g) - 1
    quo = [0] * (len(rem) - dg)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + dg]
        if c:
            quo[i] = c
            for j in range(dg):
                rem[i + j] -= c * g[j]
    del rem[dg:]
    _trim(rem)
    return quo, rem


def _sign_at(ints: Sequence[int], x) -> int:
    """Sign of the integer-coefficient polynomial at a rational x (an int
    or a Fraction), by integer Horner on its numerator and denominator."""
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    acc = ints[-1]
    dp = 1
    for c in reversed(ints[:-1]):
        dp *= den
        acc = acc * num + c * dp
    return (acc > 0) - (acc < 0)


def _dyadic_values(ints: Sequence[int], nums: Iterable[int],
                   bits: int) -> list[int]:
    """2^(bits n) times the integer-coefficient polynomial at each num / 2^bits.

    Homogeneous Horner: sum c_i num^i 2^(bits (n - i)) is an integer with
    the sign of the value; the coefficients are shifted once and shared
    by every point.
    """
    n = len(ints) - 1
    scaled = [c << (bits * (n - i)) for i, c in enumerate(ints)]
    lead = scaled.pop()
    scaled.reverse()
    values = []
    for x in nums:
        acc = lead
        for c in scaled:
            acc = acc * x + c
        values.append(acc)
    return values


def _dyadic_signs(ints: Sequence[int], nums: Iterable[int],
                  bits: int) -> list[int]:
    """Signs of the integer-coefficient polynomial at each num / 2^bits."""
    return [(v > 0) - (v < 0) for v in _dyadic_values(ints, nums, bits)]


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
    """Signed remainder chain of a squarefree integer polynomial of degree
    at least 1.

    Raises ValueError on non-squarefree input: the chain then degenerates
    (its last nonzero member, a positive multiple of gcd(p, p'), has
    positive degree), and variation counts would be meaningless for
    root counting.  It stays a class, holding only `chain`, because
    perfbench/tracer.py times its `__init__` as `polycore.sturm_build`.
    """

    __slots__ = ("chain",)

    def __init__(self, ints: Sequence[int]):
        f = list(ints)
        fp = _prim([i * c for i, c in enumerate(f) if i > 0])
        chain = [f, fp]
        while len(chain[-1]) > 1:
            a, b = chain[-2], chain[-1]
            r = _prim(_prem(a, b))
            if not r:
                break
            # -rem(a, b) up to a positive scalar: lc(b)^(deg a - deg b + 1)
            # is negative only when lc(b) < 0 and deg a - deg b is even
            if b[-1] > 0 or (len(a) - len(b)) % 2:
                r = [-c for c in r]
            chain.append(r)
        if len(chain[-1]) > 1:
            raise ValueError(
                "polynomial is not squarefree (chain degenerates with "
                "gcd degree %d)" % (len(chain[-1]) - 1)
            )
        self.chain = chain


def cauchy_bound(ints: Sequence[int]) -> Fraction:
    """B = 1 + M, M = max |c_i / c_n|: every real root of the integer
    polynomial lies strictly inside (-B, B), and it has the sign of c_n
    at B.

    For x >= B, |sum_{i<n} c_i x^i| <= M |c_n| (x^n - 1) / (x - 1)
    < |c_n| x^n, since x - 1 >= M; so c_n x^n decides the sign there.

    >>> cauchy_bound((-7, 1))  # v - 7
    Fraction(8, 1)
    """
    if len(ints) < 2:
        return Fraction(1)
    l = abs(ints[-1])
    return Fraction(l + max(abs(c) for c in ints[:-1]), l)


def _float_root(ints: Sequence[int], hi: Fraction) -> tuple[float, int] | None:
    """A float estimate of a real root of the integer polynomial below hi,
    with how many of its leading bits to trust, or None.

    Laguerre's method, started at hi or at 2^e if that is smaller, which
    for a polynomial with real roots converges to the largest root below
    the start.  It runs in y = x / 2^e, with e from the coefficients' bit
    lengths so that 2^e bounds every root (Fujiwara's bound) and every
    scaled coefficient c_i 2^(e i) is at most c_n 2^(e n): the floats stay
    small whatever the size of the coefficients.  It stops when a step no
    longer shrinks, at the rounding noise of the float evaluation; the
    last step taken sizes the error, and ten bits are kept in hand.
    """
    n = len(ints) - 1
    top = ints[-1].bit_length()
    e = 1 + max([0] + [-(-(c.bit_length() - top + 1) // (n - i))
                       for i, c in enumerate(ints[:-1]) if c])
    cs = [ldexp(float(c >> (sh := max(c.bit_length() - 60, 0))),
                sh + e * (i - n) - top) for i, c in enumerate(ints)]
    num, den = hi.numerator, hi.denominator << e
    y = 1.0 if num >= den else num / den
    last = inf
    for _ in range(100):
        p = dp = dd = 0.0
        for c in reversed(cs):
            dd = dd * y + dp
            dp = dp * y + p
            p = p * y + c
        if not p:
            last = 0.0
            break
        g = dp / p
        r = sqrt(max((n - 1) * (n * (g * g - 2 * dd / p) - g * g), 0.0))
        step = n / (g + r if g >= 0 else g - r) if g or r else 0.0
        if not abs(step) < last:
            break
        y -= step
        last = abs(step)
        if last <= abs(y) * 2.0 ** -52:
            break
    x = ldexp(y, e)
    if not y or not -inf < x < inf:
        return None
    return x, frexp(y / max(last, abs(y) * 2.0 ** -52))[1] - 10


def refine_root(box: Interval, ints: Sequence[int],
                width: Fraction) -> Interval:
    """Shrink a root box below the requested width: the dyadic cell that
    sign bisection reaches, found by verified jumps.

    The integer polynomial `ints` rises through its one simple root in
    the box: it is negative at `box.lo` and positive at `box.hi`.  An
    empty box is refused.

    The endpoints are integer numerators a < a + L over D0; a cell of
    level t is [a 2^t + j L, a 2^t + (j + 1) L] over D0 2^t, and the
    result is the cell of the least level s with L / (D0 2^s) <= width.
    A candidate cell some levels deeper is accepted only when the exact
    values at its two ends (`_dyadic_values` on the coefficients
    c_i D0^(n-i)) are negative and positive: it then holds the box's
    one simple root, so it is the cell bisection reaches at that
    level.  The first candidate is the cell of a float estimate of the
    root (`_float_root`), as narrow as the estimate's trusted bits allow;
    the next ones come from a secant through the exact values at the
    current cell's ends.  The jump doubles on acceptance and halves on
    rejection, as in quadratic interval refinement (Abbott, 2006), and a
    rejected half leaves the other half.  A zero at a cell end is the
    root itself, and the box closes symmetrically around it, as
    bisection does when a midpoint is the root.

    >>> refine_root(Interval(1, 2), (-2, 0, 1), Fraction(1, 1000))
    Interval(181/128, 1449/1024)
    """
    width = Fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    if not box.lo < box.hi:
        raise ValueError("root box is empty")
    den0 = lcm(box.lo.denominator, box.hi.denominator)
    a0 = box.lo.numerator * (den0 // box.lo.denominator)
    span = box.hi.numerator * (den0 // box.hi.denominator) - a0
    # the least s with span / (den0 2^s) <= width
    s = (-(-span * width.denominator // (width.numerator * den0))
         - 1).bit_length()
    n = len(ints) - 1
    # c_i den0^(n-i), by a running power: den0 can have thousands of bits
    scaled, power = list(ints), 1
    for i in range(n - 1, -1, -1):
        power *= den0
        scaled[i] *= power
    # the first candidate: the cell of the float estimate, at the level
    # where a cell is about as wide as the estimate's error
    guess = None
    estimate = _float_root(ints, box.hi) if s else None
    if estimate is not None:
        num, den = estimate[0].as_integer_ratio()
        d = min(s, max(1, span.bit_length() - den0.bit_length()
                       - num.bit_length() + den.bit_length() + estimate[1]))
        j = ((num * den0 - a0 * den) << d) // (span * den)
        if 0 <= j < 1 << d:
            guess = d, j
    # the current cell is [a, a + span] over den0 2^t, with the values
    # fa and fb at its ends once they are known
    a, t, jump, fa, fb = a0, 0, 1, None, None
    root = None
    while t < s:
        if guess is not None:
            (d, j), guess = guess, None
        else:
            if fa is None:
                fa, fb = _dyadic_values(scaled, (a, a + span), 0)
            d = min(jump, s - t)
            j = (fa << d) // (fa - fb)
        lo = (a << d) + j * span
        flo, fhi = _dyadic_values(scaled, (lo, lo + span), t + d)
        if flo < 0 < fhi:
            # a secant step's reach doubles; the estimate's holds
            jump = d if fa is None else 2 * d
            a, fa, fb, t = lo, flo, fhi, t + d
            continue
        if not flo or not fhi:
            root = (lo + span if flo else lo), t + d
            break
        if d > 1 or fa is None:
            jump = max(1, d // 2)
            continue
        # the rejected cell is a half, so the other half holds the root
        if j:
            a, fa, fb = 2 * a, fa << n, flo
        else:
            a, fa, fb = lo + span, fhi, fb << n
        t += 1
    if root is None:
        return Interval(Fraction(a, den0 << s), Fraction(a + span, den0 << s))
    # the root is x over den0 2^t; bisection meets it on the first level
    # whose grid holds it, as the midpoint of a cell one level up
    x, t = root
    m = Fraction(x, den0 << t)
    j = (x - (a0 << t)) // span
    t -= (j & -j).bit_length() - 1
    delta = min(width, Fraction(span, den0 << (t - 1))) / 4
    while _sign_at(ints, m - delta) != -1 or _sign_at(ints, m + delta) != 1:
        delta /= 2
    return Interval(m - delta, m + delta)


# -- the x + 1/x transform ----------------------------------------------

def reciprocal_transform(ints: Sequence[int],
                         sigma: int) -> tuple[tuple[int, ...], str]:
    """W and its parity for a self-reciprocal integer polynomial R.

    ints is R's primitive integer coefficient list and sigma its reversal
    sign, x^N R(1/x) = sigma R(x).  Dividing out x - 1 (sigma = -1), then
    x + 1 if the degree left is odd (parity "odd"), leaves Q of degree 2h
    with Q = x^h P(x + 1/x), and W(v) = P(v - 2): with v = x + 2 + 1/x,
    Q / x^h = q_h + sum_i q_(h+i) V_i(v) for V_i = x^i + x^-i, which
    satisfy V_0 = 2, V_1 = v - 2 and V_(i+1) = (v - 2) V_i - V_(i-1).
    W's integer coefficients are primitive with a positive leading one,
    and are verified by exact resubstitution.

    >>> reciprocal_transform((1, -5, 1), 1)  # x^2 - 5x + 1 = x (v - 7)
    ((-7, 1), 'even')
    """
    roots = [1] if sigma == -1 else []
    if (len(ints) - len(roots)) % 2 == 0:
        roots.append(-1)  # the degree left is odd
    q = ints
    for root in roots:
        q, rem = _divmod_monic(q, (-root, 1))
        if rem:
            raise AssertionError("transform division leaves a remainder")
    h = len(q) // 2
    acc = [q[h]] + [0] * h
    prev, cur = [2], [-2, 1]
    for i in range(1, h + 1):
        c = q[h + i]
        if c:
            acc[:i + 1] = [a + c * v for a, v in zip(acc, cur)]
        # V_(i+1) = (v - 2) V_i - V_(i-1); prev is one shorter than cur
        prev, cur = cur, [a - 2 * b - p for a, b, p
                          in zip([0] + cur, cur + [0], prev + [0, 0])]
    w = _prim(acc)
    if w[-1] < 0:
        w = [-c for c in w]
    _verify_resubstitution(ints, w, roots)
    return tuple(w), "odd" if -1 in roots else "even"


def _verify_resubstitution(r: Sequence[int], w: Sequence[int],
                           roots: Sequence[int]) -> None:
    """Raise unless r = +-x^h w(x + 2 + 1/x) prod (x - root), h = deg w.

    x^h w(x + 2 + 1/x) = sum_i w_i (x + 1)^(2i) x^(h - i) is g_0 for
    g_i = (x + 1)^2 g_(i+1) + w_i x^(h - i), which Horner's rule builds by
    shifted adds, as it does each linear factor; the product is compared
    coefficient by coefficient.  It is primitive when w is, so it matches
    a primitive r up to sign.
    """
    h = len(w) - 1
    g = [w[h]]
    for i in range(h - 1, -1, -1):
        g = [a + 2 * b + c for a, b, c
             in zip(g + [0, 0], [0] + g + [0], [0, 0] + g)]
        g[h - i] += w[i]
    for root in roots:
        g = [a - root * b for a, b in zip([0] + g, g + [0])]
    if g != list(r) and g != [-c for c in r]:
        raise AssertionError("transform resubstitution mismatch")
