"""Wire formats: JSON documents, CSV rows, and aligned text tables.

Exactness survives serialization by construction.  Integers travel as
decimal strings, rationals as reduced "num/den" strings (the slash always
present), and enclosure endpoints as decimal strings rounded *outward* to
40 significant digits, so a parsed document never claims more than the
computation proved.  Floats never appear.

Every JSON document carries format "reczeros.<kind>" and version "1" and
validates against the matching schema shipped under schemas/.  Documents
are built deterministically: instances are emitted in the exact grid
order handed in, and dicts are created in a fixed key order, so repeated
runs (with any worker count) are byte-identical.
"""

from __future__ import annotations

import io
import json
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction

from .certify import (ALPHA_WIDTH, alpha_enclosure, roots_of_unity_zeros,
                      zero_certificate)
from .family import circle_approximant, monic_even_form, reciprocal_poly, sigma_of
from .interval import Interval

VERSION = "1"

DIGITS = 40


def decimal_str(x, rounding) -> str:
    """x as a decimal string with DIGITS significant digits, directed."""
    x = Fraction(x)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        ctx.rounding = rounding
        value = Decimal(x.numerator) / Decimal(x.denominator)
    return str(value)


def enclosure_dict(iv: Interval) -> dict:
    """Outward-rounded endpoints: lo toward -oo, hi toward +oo."""
    return {
        "lo": decimal_str(iv.lo, ROUND_FLOOR),
        "hi": decimal_str(iv.hi, ROUND_CEILING),
    }


def int_str(n: int) -> str:
    """Decimal digits of n at any size.

    str(int) refuses more than sys.get_int_max_str_digits() digits (4300 by
    default); the decimal module converts exactly and has no such limit.
    """
    return str(Decimal(n))


def rational_str(x: Fraction) -> str:
    x = Fraction(x)
    return "%s/%s" % (int_str(x.numerator), int_str(x.denominator))


def wire(value):
    """Recursive conversion to the wire vocabulary; floats are refused."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return int_str(value)
    if isinstance(value, Fraction):
        return rational_str(value)
    if isinstance(value, Interval):
        return enclosure_dict(value)
    if isinstance(value, dict):
        return {str(k): wire(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [wire(v) for v in value]
    raise TypeError("no wire form for %r" % type(value).__name__)


def envelope(kind: str, instances: list) -> dict:
    return {"format": "reczeros." + kind, "version": VERSION,
            "instances": instances}


# ---------------------------------------------------------------------------
# per-instance builders (module level so worker pools can import them)
# ---------------------------------------------------------------------------

def construct_instance(k: int, ell: int) -> dict:
    """Exact coefficients, constant term first; the snapped approximant
    and its difference appear once there are interior weights (k >= 3)."""
    doc = {
        "k": str(k),
        "ell": str(ell),
        "sigma": str(sigma_of(k, ell)),
        "recip": [rational_str(c) for c in reciprocal_poly(k, ell).coeffs],
        "monic_even": [rational_str(c)
                       for c in monic_even_form(k, ell).coeffs],
    }
    if k >= 3:
        pair = circle_approximant(k, ell)
        doc["approx"] = [rational_str(c) for c in pair.approx.coeffs]
        doc["delta"] = [rational_str(c) for c in pair.delta.coeffs]
        doc["delta_weight"] = rational_str(pair.weight)
    return doc


def certificate_instance(k: int, ell: int,
                         width: Fraction = ALPHA_WIDTH) -> dict:
    cert = zero_certificate(k, ell)
    doc = wire(cert.as_dict())
    doc["unity_roots"] = [str(n) for n in roots_of_unity_zeros(k, ell)]
    if cert.conforms:
        doc["alpha"] = enclosure_dict(alpha_enclosure(k, ell, width=width))
    return doc


def analysis_instance(k: int, ell: int, precision: int = 128) -> dict:
    from .analysis import analyze  # only `analyze` needs the resultant layer

    rec = analyze(k, ell, precision=precision)
    return {
        "k": str(rec.k),
        "ell": str(rec.ell),
        "discriminant": rational_str(rec.discriminant),
        "mahler": enclosure_dict(rec.mahler),
        "mahler_inequality_ok": rec.mahler_inequality_ok,
        "disc_lower": enclosure_dict(rec.disc_lower),
        "stated_upper": enclosure_dict(rec.stated_upper),
        "alpha_in_interval": rec.alpha_in_interval,
    }


def scan_instance(k: int, ell: int) -> dict:
    return {
        "k": str(k),
        "ell": str(ell),
        "unity_root_orders": [str(n) for n in roots_of_unity_zeros(k, ell)],
    }


def verify_document(report, suite: str = "all") -> dict:
    """Whole-report document; results keep their raw exactness via wire()."""
    results = []
    for r in report.results:
        results.append({
            "claim": r.claim_id,
            "status": r.status,
            "params": wire(r.params),
            "witness": wire(r.witness),
            "detail": r.detail,
            "data": wire(r.data),
        })
    return {
        "format": "reczeros.verify",
        "version": VERSION,
        "grid": {
            "k_max": str(report.k_max),
            "ell_max": str(report.ell_max),
            "precision": str(report.precision),
            "suite": suite,
        },
        "ok": report.ok,
        "counts": wire(report.counts()),
        "results": results,
    }


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------

def to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def rows_for(doc: dict) -> tuple[list[str], list[list[str]]]:
    """Header and rows for the CSV/table renderings of a JSON document."""
    kind = doc["format"].split(".", 1)[1]
    if kind == "construct":
        header = ["k", "ell", "power", "recip", "monic_even", "approx",
                  "delta"]
        rows = []
        for inst in doc["instances"]:
            names = ["recip", "monic_even", "approx", "delta"]
            lists = [inst.get(name, []) for name in names]
            for power in range(max(len(v) for v in lists)):
                row = [inst["k"], inst["ell"], str(power)]
                for v in lists:
                    row.append(v[power] if power < len(v) else "")
                rows.append(row)
        return header, rows
    if kind == "certify":
        header = ["k", "ell", "sigma", "degree", "simple",
                  "unimodular_count", "positive_pair_count",
                  "negative_pair_count", "complex_offcircle_count",
                  "root_at_one", "root_at_minus_one", "conforms",
                  "unity_roots", "alpha_lo", "alpha_hi"]
        rows = []
        for inst in doc["instances"]:
            alpha = inst.get("alpha", {})
            rows.append([_cell(inst[n]) for n in header[:12]]
                        + [";".join(inst["unity_roots"]),
                           alpha.get("lo", ""), alpha.get("hi", "")])
        return header, rows
    if kind == "analyze":
        header = ["k", "ell", "discriminant", "mahler_lo", "mahler_hi",
                  "mahler_inequality_ok", "disc_lower_lo", "disc_lower_hi",
                  "stated_upper_lo", "stated_upper_hi", "alpha_in_interval"]
        rows = []
        for inst in doc["instances"]:
            rows.append([
                inst["k"], inst["ell"], inst["discriminant"],
                inst["mahler"]["lo"], inst["mahler"]["hi"],
                _cell(inst["mahler_inequality_ok"]),
                inst["disc_lower"]["lo"], inst["disc_lower"]["hi"],
                inst["stated_upper"]["lo"], inst["stated_upper"]["hi"],
                _cell(inst["alpha_in_interval"]),
            ])
        return header, rows
    if kind == "scan":
        header = ["k", "ell", "unity_root_orders"]
        rows = [[inst["k"], inst["ell"],
                 ";".join(inst["unity_root_orders"])]
                for inst in doc["instances"]]
        return header, rows
    if kind == "verify":
        header = ["claim", "status", "detail"]
        rows = [[r["claim"], r["status"], r["detail"]]
                for r in doc["results"]]
        return header, rows
    raise ValueError("unknown document kind %r" % kind)


def to_csv(doc: dict) -> str:
    import csv  # only the csv format needs it

    header, rows = rows_for(doc)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def to_table(doc: dict) -> str:
    header, rows = rows_for(doc)
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    for row in [header] + rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


def render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return to_json(doc)
    if fmt == "csv":
        return to_csv(doc)
    if fmt == "table":
        return to_table(doc)
    raise ValueError("unknown format %r" % fmt)


# ---------------------------------------------------------------------------
# schemas
# ---------------------------------------------------------------------------

def load_schema(kind: str) -> dict:
    """The shipped JSON schema for one document kind."""
    from importlib import resources  # only the schema checks need it

    path = resources.files("reczeros").joinpath("schemas").joinpath(
        kind + ".json")
    with path.open(encoding="utf-8") as fh:
        return json.load(fh)
