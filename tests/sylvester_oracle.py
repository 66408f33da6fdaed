"""The resultant as the determinant of the Sylvester matrix, reduced by
fraction-free (Bareiss) elimination.

A route independent of the subresultant PRS in `reczeros.analysis`: it
shares no elimination step with it and no code beyond integer clearing,
so the tests use it as the reference for `resultant` and `discriminant`.
"""


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


def sylvester_resultant(a, b) -> int:
    """Res(a, b) of two integer coefficient lists, low degree first and not
    both constants: the determinant of their Sylvester matrix."""
    da, db = len(a) - 1, len(b) - 1
    ad, bd = list(reversed(a)), list(reversed(b))
    n = da + db
    rows = ([[0] * i + ad + [0] * (n - i - len(ad)) for i in range(db)]
            + [[0] * i + bd + [0] * (n - i - len(bd)) for i in range(da)])
    return bareiss_det(rows)


def sylvester_discriminant(a) -> int:
    """Disc(a) = (-1)^(d(d-1)/2) Res(a, a') / lc(a) of an integer
    coefficient list of degree d >= 1, on the Sylvester route."""
    d = len(a) - 1
    res = sylvester_resultant(a, [i * c for i, c in enumerate(a) if i])
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * res // a[-1]
