"""Floating-point root oracle shared by the test modules.

Classifies the complex roots of a polynomial with numpy's companion-matrix
solver.  Entirely independent of the exact machinery under test: it never
imports the Sturm or transform code paths.
"""

import numpy as np


def complex_roots(coeffs):
    """The roots of a low-to-high coefficient sequence."""
    cs = [float(c) for c in coeffs]
    return np.roots(list(reversed(cs)))


def root_classes(coeffs, tol=1e-8):
    """Counts of roots on the unit circle, real beyond +-1, and the rest."""
    roots = complex_roots(coeffs)
    on = pos_out = neg_out = complex_off = 0
    for r in roots:
        if abs(abs(r) - 1) <= tol:
            on += 1
        elif abs(r.imag) <= tol and r.real > 1:
            pos_out += 1
        elif abs(r.imag) <= tol and r.real < -1:
            neg_out += 1
        elif abs(r.imag) <= tol:
            # real but inside the unit interval
            if r.real > 0:
                pos_out += 1
            else:
                neg_out += 1
        else:
            complex_off += 1
    return {
        "on": on,
        "pos_out": pos_out,
        "neg_out": neg_out,
        "complex_off": complex_off,
    }


def largest_real_root(coeffs):
    roots = complex_roots(coeffs)
    best = None
    for r in roots:
        if abs(r.imag) <= 1e-9:
            if best is None or r.real > best:
                best = r.real
    return best
