"""The benchmark's workloads: CLI arguments made from a seed, and the
verdicts those arguments must produce, derived from the arguments alone.

Every workload is one closed-loop client issuing one CLI command at a
time.  Seed 0 is the canonical input of each workload.  Other seeds draw
a numeric setting that the program computes with (or, on verify-lemmas,
records) while the grid stays fixed, so that the spread over seeds
measures the program rather than the draw: every grid change tried moved
the cost by more than the benchmark's own noise.

Scales: "bench" is what BENCHMARK.json times, "paper" is the source paper's
grid (minutes per command), "smoke" keeps every k <= 4 and runs in seconds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("certify-grid", "certify-large-k", "verify-grid", "verify-lemmas")
#: The workloads BENCHMARK.json times.  certify-large-k and verify-lemmas
#: are run by name or with --workload all for changes aimed at their
#: layers; NOTES.md says why they are not timed on every change.
TIMED = ("certify-grid", "verify-grid")
SCALES = ("bench", "paper", "smoke")

#: certify-grid: k = 1..N with ell = 1..6 on every seed.
GRID = {"smoke": 4, "bench": 14, "paper": 40}
#: certify-large-k: one large k with ell = 1..3.  Certify time grows like
#: k^4, so k is fixed on every seed.
LARGE_K = {"smoke": 4, "bench": 44, "paper": 64}
#: Both certify workloads: other seeds draw the alpha width m * 10^-21.
#: The range brackets the CLI default 10^-20 within a factor of 3.3, so
#: alpha refinement (about a tenth of a certify run) changes by at most
#: two halvings of about 66.
WIDTH_MANTISSAS = range(3, 31)
#: verify-grid: (k_max, ell_max).
VERIFY_GRID = {"smoke": (4, 2), "bench": (14, 2), "paper": (40, 6)}
#: verify-lemmas: k_max with ell_max = 6.
LEMMAS = {"smoke": 4, "bench": 56, "paper": 200}
#: Both verify workloads: other seeds draw the starting precision --prec
#: within two bits of the CLI default 128.  The sign-pattern checks of
#: verify-grid start their precision ladder there, and their cost grows
#: with it (about 10% from 114 to 143 bits, measured), so the range is
#: narrow.  The lemma suite records --prec in the report but sizes its own
#: precision, so verify-lemmas does the same work on every seed.
PRECISIONS = range(126, 131)


@dataclass(frozen=True)
class Inputs:
    """One workload instance: the CLI arguments and what they ask for."""

    workload: str
    argv: tuple
    kind: str                     # "certify" or "verify"
    ks: tuple = ()
    ells: tuple = ()
    k_max: int = 0
    ell_max: int = 0
    suite: str = "all"
    width: Fraction = Fraction(1, 10**20)  # certify: requested alpha width
    precision: int = 128                   # verify: requested --prec

    def describe(self) -> str:
        return " ".join(self.argv)


def make_inputs(workload: str, scale: str, seed: int) -> Inputs:
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    if scale not in SCALES:
        raise ValueError("unknown scale %r" % scale)
    rng = random.Random("%s:%d" % (workload, seed))
    if workload in ("certify-grid", "certify-large-k"):
        width = Fraction(1, 10**20)
        extra = ()
        if seed != 0:
            mantissa = rng.choice(WIDTH_MANTISSAS)
            width = Fraction(mantissa, 10**21)
            extra = ("--width", "%de-21" % mantissa)
        if workload == "certify-grid":
            ks, ells = tuple(range(1, GRID[scale] + 1)), tuple(range(1, 7))
        else:
            ks, ells = (LARGE_K[scale],), (1, 2, 3)
        return Inputs(workload, ("certify", "--k", _values(ks), "--ell",
                                 _values(ells)) + extra,
                      "certify", ks=ks, ells=ells, width=width)
    precision = 128 if seed == 0 else rng.choice(PRECISIONS)
    extra = () if seed == 0 else ("--prec", str(precision))
    if workload == "verify-grid":
        k_max, ell_max = VERIFY_GRID[scale]
        suite = "all"
    else:
        k_max, ell_max, suite = LEMMAS[scale], 6, "lemmas"
    argv = ("verify",) + (("--suite", suite) if suite != "all" else ()) + (
        "--k-max", str(k_max), "--ell-max", str(ell_max)) + extra
    return Inputs(workload, argv, "verify", k_max=k_max, ell_max=ell_max,
                  suite=suite, precision=precision)


def _values(ks) -> str:
    """A --k argument: comma list of values and inclusive a..b runs."""
    runs, start = [], ks[0]
    for prev, cur in zip(ks, ks[1:] + (None,)):
        if cur != prev + 1:
            runs.append(str(start) if start == prev else "%d..%d" % (start, prev))
            start = cur
    return ",".join(runs)


# ---------------------------------------------------------------------------
# the correctness gate
# ---------------------------------------------------------------------------

class Gate:
    """Checks one output document against its schema and the expected verdicts."""

    def __init__(self, schema_dir: Path):
        import jsonschema

        self._validators = {}
        for kind in ("certify", "verify"):
            with open(schema_dir / (kind + ".json"), encoding="utf-8") as fh:
                schema = json.load(fh)
            self._validators[kind] = jsonschema.Draft202012Validator(schema)

    def problems(self, inputs: Inputs, text: bytes) -> list[str]:
        """Every way the document misses the expectation; empty when correct."""
        try:
            doc = json.loads(text)
        except ValueError as exc:
            return ["document is not JSON: %s" % exc]
        errors = [e.message for e in self._validators[inputs.kind].iter_errors(doc)]
        if errors:
            return ["schema: " + e for e in errors[:5]]
        if inputs.kind == "certify":
            return _certify_problems(inputs, doc)
        return _verify_problems(inputs, doc)


def expected_certificate(k: int, ell: int) -> dict:
    """The zero layout the paper proves for the (k, ell) member.

    Roots of unity: -1 or +1 for even k (by the parity of ell), and the
    primitive cube roots for ell = 1 and k divisible by 3, as for the
    classical Ramanujan polynomials.
    """
    at_one = k % 2 == 0 and ell % 2 == 0
    at_minus_one = k % 2 == 0 and ell % 2 == 1
    return {
        "k": str(k), "ell": str(ell), "degree": str(k + 1),
        "sigma": "-1" if at_one else "1",
        "simple": True, "conforms": True,
        "unimodular_count": str(k - 1),
        "positive_pair_count": "1",
        "negative_pair_count": "0",
        "complex_offcircle_count": "0",
        "root_at_one": at_one,
        "root_at_minus_one": at_minus_one,
        "unity_roots": [n for n, zero in (("1", at_one), ("2", at_minus_one),
                                          ("3", ell == 1 and k % 3 == 0)) if zero],
    }


def _certify_problems(inputs: Inputs, doc: dict) -> list[str]:
    grid = [(k, ell) for k in inputs.ks for ell in inputs.ells]
    instances = doc["instances"]
    if len(instances) != len(grid):
        return ["%d instances, expected %d" % (len(instances), len(grid))]
    out = []
    unimodular = 0
    for (k, ell), inst in zip(grid, instances):
        want = expected_certificate(k, ell)
        wrong = sorted(key for key, value in want.items() if inst.get(key) != value)
        if wrong:
            out.append("(%d, %d): unexpected %s" % (k, ell, ", ".join(wrong)))
            continue
        unimodular += int(inst["unimodular_count"])
        alpha = inst.get("alpha")
        if alpha is None or not 1 < Decimal(alpha["lo"]) <= Decimal(alpha["hi"]):
            out.append("(%d, %d): missing or empty alpha enclosure" % (k, ell))
        elif Fraction(alpha["hi"]) - Fraction(alpha["lo"]) > inputs.width:
            out.append("(%d, %d): alpha enclosure wider than %s"
                       % (k, ell, inputs.width))
    want_total = sum(k - 1 for k, _ in grid)
    if not out and unimodular != want_total:
        out.append("%d unimodular zeros, expected %d" % (unimodular, want_total))
    return out


def expected_statuses(inputs: Inputs) -> dict:
    """Claim id -> status for a verify run, from the paper's findings."""
    k_max, ell_max = inputs.k_max, inputs.ell_max
    want = {
        "zeta-bounds": "pass",
        "zeta-quotient-bound": "pass",
        "index-ratio-bound": "finding",
        "zeta-sum-half": "pass",
        "q-monotone": "pass",
        "delta-majorant": "pass",
    }
    if inputs.suite == "lemmas":
        return want
    want["derivative-sign-sums"] = "pass"
    want["unit-values"] = "pass"
    for k in range(3, min(k_max, 12) + 1):
        for ell in range(1, ell_max + 1):
            want["sign-pattern-k%d-l%d" % (k, ell)] = "pass"
    want["alpha-interval"] = "finding" if k_max >= 7 else "pass"
    want["alpha-interval-k2"] = "finding"
    want["zero-location-grid"] = "pass"
    return want


def _verify_problems(inputs: Inputs, doc: dict) -> list[str]:
    grid = doc["grid"]
    if (grid["k_max"], grid["ell_max"], grid["suite"], grid["precision"]) != (
            str(inputs.k_max), str(inputs.ell_max), inputs.suite,
            str(inputs.precision)):
        return ["document grid %r does not match the request" % (grid,)]
    want = expected_statuses(inputs)
    got = {r["claim"]: r["status"] for r in doc["results"]}
    out = ["%s: %s, expected %s" % (c, got.get(c), s)
           for c, s in want.items() if got.get(c) != s]
    out += ["unexpected claim %s" % c for c in got if c not in want]
    counts = {s: str(list(want.values()).count(s))
              for s in ("pass", "fail", "inconclusive", "finding")}
    if doc["counts"] != counts:
        out.append("counts %r, expected %r" % (doc["counts"], counts))
    if doc["ok"] is not True:
        out.append("report is not ok")
    data = {r["claim"]: r["data"] for r in doc["results"]}
    if data.get("index-ratio-bound", {}).get("equalities") != [{"k": "3", "j": "2"}]:
        out.append("index-ratio equality is not exactly at (3, 2)")
    if inputs.suite == "all":
        violations = [(int(v["k"]), int(v["ell"]))
                      for v in data.get("alpha-interval", {}).get("violations", [])]
        if violations != [(k, 1) for k in range(7, inputs.k_max + 1)]:
            out.append("alpha-interval violations %r, expected (k, 1) for "
                       "7 <= k <= %d" % (violations, inputs.k_max))
        cells = inputs.k_max * inputs.ell_max
        zeros = sum(k - 1 for k in range(1, inputs.k_max + 1)) * inputs.ell_max
        grid_data = data.get("zero-location-grid", {})
        if (grid_data.get("instances"), grid_data.get("unimodular_zeros")) != (
                str(cells), str(zeros)):
            out.append("zero-location-grid counts %r, expected %d instances "
                       "and %d unimodular zeros" % (grid_data, cells, zeros))
    return out
