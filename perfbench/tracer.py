"""Span tracer for one reczeros CLI invocation, installed from outside the package.

Run as a script, it wraps the public entry points of every reczeros layer,
runs the CLI inside a root span and writes a JSON summary of the spans:

    python3 perfbench/tracer.py SUMMARY.json certify --k 1..4 --ell 1..3 ...

Nothing under src/ is changed.  Each wrapped name is rebound in every
reczeros module that imported it (``boundary_profile`` lives in family,
certify and claims), so a call is timed once by one wrapper.  Spans are
kept in memory and summarised when the run ends.  A span's self time is
its duration minus the durations of its child spans; the summary asserts
that the self times of all spans add up to the root span.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from functools import update_wrapper

ROOT_SPAN = "cli.main"

#: span name -> (module, attribute path) of the entry point it times.
ENTRY_POINTS = {
    "cli.main": ("cli", "main"),
    "serialize.render": ("serialize", "render"),
    "serialize.certificate_instance": ("serialize", "certificate_instance"),
    "claims.run_all": ("claims", "run_all"),
    "certify.certify_zeros": ("certify", "certify_zeros"),
    "certify.alpha_enclosure": ("certify", "alpha_enclosure"),
    "certify.unity_scan": ("certify", "roots_of_unity_zeros"),
    "family.reciprocal_poly": ("family", "reciprocal_poly"),
    "family.monic_even_form": ("family", "monic_even_form"),
    "family.boundary_profile": ("family", "boundary_profile"),
    "polycore.sturm_build": ("polycore", "SturmChain.__init__"),
    "polycore.count_open": ("polycore", "SturmChain.count_open"),
    "polycore.isolate": ("polycore", "isolate_real_roots"),
    "polycore.refine": ("polycore", "refine_root"),
    "polycore.transform": ("polycore", "reciprocal_transform"),
    "polycore.eval_interval": ("polycore", "Poly.eval_interval"),
    "interval.pi_enclosure": ("interval", "pi_enclosure"),
    "interval.pow_rounded": ("interval", "pow_rounded"),
    "interval.cos_enclosure": ("interval", "cos_enclosure"),
    "interval.sqrt_enclosure": ("interval", "sqrt_enclosure"),
    "exactnum.zeta_even_enclosure": ("exactnum", "zeta_even_enclosure"),
    "exactnum.zeta_series_enclosure": ("exactnum", "zeta_series_enclosure"),
}

CLAIM_CHECKS = (
    "check_zeta_bounds", "check_quotient_bound", "check_ratio_max",
    "check_zeta_sum_identity", "check_qj_monotone", "check_delta_bound",
    "check_sign_pattern", "check_pm1_zero", "check_GH_signs",
    "check_alpha_interval", "check_alpha_k2_report",
    "check_zero_location_grid",
)
for _check in CLAIM_CHECKS:
    ENTRY_POINTS["claims." + _check] = ("claims", _check)

#: Bookkeeping done after a span closes runs in a span of its own, so the
#: caller's self time stays free of it.
HOOK_SPAN = "perfbench.hooks"


class Tracer:
    """In-memory span recorder with counters kept at the same boundaries."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self._stack = []
        self.sturm_max_bits = 0
        self.refine_halvings = 0.0
        self.certify_args = set()
        self.missing = []
        self._profile = None  # the lru_cache behind boundary_profile

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, name, fn, hook=None):
        """fn timed as span `name`; hook(result, *args, **kwargs) runs afterwards."""
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if hook is not None:
                self._open(HOOK_SPAN)
                try:
                    hook(result, *args, **kwargs)
                finally:
                    self._close()
            return result
        return update_wrapper(traced, fn)

    # -- counters -------------------------------------------------------

    def _sturm_hook(self, _result, chain, *_rest, **_extra):
        bits = max((abs(c).bit_length() for poly in getattr(chain, "chain", ())
                    for c in poly), default=0)
        self.sturm_max_bits = max(self.sturm_max_bits, bits)

    def _refine_hook(self, result, box, *_rest, **_extra):
        before, after = box.hi - box.lo, result.hi - result.lo
        self.refine_halvings += (_log2(before) - _log2(after))

    def _certify_hook(self, _result, k, ell, *_rest, **_extra):
        self.certify_args.add((k, ell))

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every entry point and rebind it wherever reczeros bound it.

        An entry point the program no longer has is skipped and listed in
        ``self.missing``; its layer then reads 0.
        """
        importlib.import_module("reczeros.cli")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "reczeros" or n.startswith("reczeros.")]
        hooks = {"polycore.sturm_build": self._sturm_hook,
                 "polycore.refine": self._refine_hook,
                 "certify.certify_zeros": self._certify_hook}
        originals = {}
        for name, (module, path) in ENTRY_POINTS.items():
            owner = sys.modules["reczeros." + module]
            cls_name, _, attr = path.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            if name == "family.boundary_profile":
                self._profile = original
            wrapped = self.wrap(name, original, hooks.get(name))
            setattr(owner, attr, wrapped)
            originals[id(original)] = wrapped
        for mod in modules:
            for key, value in list(vars(mod).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None and wrapped.__wrapped__ is value:
                    setattr(mod, key, wrapped)

    # -- summary --------------------------------------------------------

    def summary(self) -> dict:
        """Self and inclusive time per span name, checked against the root."""
        spans = self.spans
        roots = [i for i, s in enumerate(spans) if s[3] == -1]
        if len(roots) != 1 or spans[roots[0]][0] != ROOT_SPAN:
            raise AssertionError("expected one root span %r, got %r"
                                 % (ROOT_SPAN, [spans[i][0] for i in roots]))
        root = spans[roots[0]]
        covered = [0.0] * len(spans)
        last_end = {}
        for i, (name, start, end, parent) in enumerate(spans):
            if end is None or end < start:
                raise AssertionError("span %s never closed" % name)
            if parent >= 0:
                p = spans[parent]
                if start < p[1] or end > p[2]:
                    raise AssertionError("span %s leaks out of %s" % (name, p[0]))
                if start < last_end.get(parent, p[1]):
                    raise AssertionError("sibling spans overlap under %s" % p[0])
                last_end[parent] = end
                covered[parent] += end - start
        layers = {}
        for i, (name, start, end, parent) in enumerate(spans):
            row = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - covered[i]
            outer = parent
            while outer >= 0 and spans[outer][0] != name:
                outer = spans[outer][3]
            if outer < 0:
                row["total_s"] += end - start
        root_s = root[2] - root[1]
        self_sum = math.fsum(r["self_s"] for r in layers.values())
        if abs(self_sum - root_s) > 1e-6 * max(1.0, root_s):
            raise AssertionError("self times sum to %.9f s, root span is %.9f s"
                                 % (self_sum, root_s))
        instance = sorted(end - start for name, start, end, _ in spans
                          if name == "serialize.certificate_instance")
        calls = layers.get("certify.certify_zeros", {"calls": 0})["calls"]
        info = getattr(self._profile, "cache_info", None)
        hits, misses = (info().hits, info().misses) if info else (0, 0)
        return {
            "missing_entry_points": self.missing,
            "root_s": root_s,
            "self_sum_s": self_sum,
            "layers": layers,
            "counters": {
                "sturm_max_bits": self.sturm_max_bits,
                "refine_halvings": self.refine_halvings,
                "certify_zeros_calls": calls,
                "certify_zeros_distinct": len(self.certify_args),
                "boundary_profile_hits": hits,
                "boundary_profile_misses": misses,
            },
            "instance_s": instance,
        }


def _log2(x) -> float:
    """log2 of a positive Fraction of any size."""
    return math.log2(x.numerator) - math.log2(x.denominator)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SUMMARY.json CLI-ARGS...", file=sys.stderr)
        return 2
    summary_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    code = sys.modules["reczeros.cli"].main(cli_argv)
    summary = tracer.summary()
    summary["exit_code"] = code
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
