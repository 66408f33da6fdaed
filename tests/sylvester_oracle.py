"""The resultant as the determinant of the Sylvester matrix, reduced by
fraction-free (Bareiss) elimination.

A route independent of the subresultant PRS in `reczeros.analysis`: it
shares no elimination step with it and no code beyond integer clearing,
so the tests use it as the reference for `resultant` and `discriminant`.
"""

from fractions import Fraction

from reczeros.polycore import Poly


def bareiss_det(rows: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for r in range(i + 1, n):
                if m[r][i] != 0:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        piv = m[i][i]
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * piv - m[r][i] * m[i][c]) // prev
            m[r][i] = 0
        prev = piv
    return sign * m[n - 1][n - 1]


def sylvester_resultant(p: Poly, q: Poly) -> Fraction:
    """Res(p, q): the Sylvester determinant of the primitive integer forms,
    scaled back by Res(c p, e q) = c^deg(q) e^deg(p) Res(p, q)."""
    if p.is_zero() or q.is_zero():
        return Fraction(0)
    dp, dq = p.degree(), q.degree()
    pi, qi = p.int_coeffs(), q.int_coeffs()
    pd, qd = list(reversed(pi)), list(reversed(qi))
    n = dp + dq
    rows = ([[0] * i + pd + [0] * (n - i - len(pd)) for i in range(dq)]
            + [[0] * i + qd + [0] * (n - i - len(qd)) for i in range(dp)])
    return ((p.lc() / pi[-1]) ** dq * (q.lc() / qi[-1]) ** dp
            * bareiss_det(rows))


def sylvester_discriminant(p: Poly) -> Fraction:
    """Disc(p) = (-1)^(d(d-1)/2) Res(p, p') / lc(p) on the Sylvester route."""
    d = p.degree()
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * sylvester_resultant(p, p.derivative()) / p.lc()
