"""Exact arithmetic for a two-parameter family of self-reciprocal
polynomials with zeta-ratio coefficients: construction, zero-location
certificates, claim verification, and discriminant analysis.

The composition-friendly entry points are re-exported here; the
submodules keep the full kit (interval arithmetic, the integer
polynomial kernels with the certificate's Sturm fallback, serialization,
and the ``reczeros`` command-line front end).
"""

from importlib import import_module

__version__ = "0.1.0"

#: Re-exported name -> the submodule that defines it.  Submodules load on
#: first access (PEP 562), so importing one submodule, as the command line
#: does, does not pull in the others.
_EXPORTS = {
    "AnalysisRecord": "analysis",
    "analyze": "analysis",
    "discriminant": "analysis",
    "ZeroCertificate": "certify",
    "alpha_enclosure": "certify",
    "certify_zeros": "certify",
    "roots_of_unity_zeros": "certify",
    "zero_certificate": "certify",
    "ClaimResult": "claims",
    "VerificationReport": "claims",
    "run_all": "claims",
    "bernoulli": "exactnum",
    "q": "exactnum",
    "zeta_even_rational": "exactnum",
    "circle_approximant": "family",
    "monic_even_form": "family",
    "reciprocal_poly": "family",
    "sigma_of": "family",
    "Interval": "interval",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(import_module("." + module, __name__), name)
