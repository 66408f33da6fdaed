"""Wire formats: JSON documents, CSV rows, and aligned text tables.

Exactness survives serialization by construction.  `wire` is the one
place a value becomes wire text: integers travel as decimal strings,
rationals as reduced "num/den" strings (the slash always present), and
enclosures as {"lo", "hi"} with decimal strings rounded *outward* to 40
significant digits, so a parsed document never claims more than the
computation proved.  Floats never appear.  Each builder collects library
values in document order and hands them to `wire` once.

Every JSON document carries format "reczeros.<kind>" and version "1" and
validates against the matching schema shipped under schemas/.  Documents
are built deterministically: instances are emitted in the exact grid
order handed in, and dicts are created in a fixed key order, so repeated
runs (with any worker count) are byte-identical.

The CSV and table columns are the document's own fields.  A construct
document gives one row per power and a verify document one row per claim;
any other instance gives one row of its fields in document order, a list
joined with ";" and an enclosure split into <name>_lo and <name>_hi.  The
header is the ordered union of the instances' columns.
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
    """Recursive conversion to the wire vocabulary; floats are refused.

    >>> third = Fraction(1, 3)
    >>> doc = {"k": 3, "q": Fraction(6, -4), "alpha": Interval(third, third),
    ...        "orders": [1, 2], "detail": None}
    >>> wire(doc)  # doctest: +NORMALIZE_WHITESPACE
    {'k': '3', 'q': '-3/2',
     'alpha': {'lo': '0.3333333333333333333333333333333333333333',
               'hi': '0.3333333333333333333333333333333333333334'},
     'orders': ['1', '2'], 'detail': None}
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return int_str(value)
    if isinstance(value, Fraction):
        return rational_str(value)
    if isinstance(value, Interval):  # outward: lo down, hi up
        return {"lo": decimal_str(value.lo, ROUND_FLOOR),
                "hi": decimal_str(value.hi, ROUND_CEILING)}
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
    r = reciprocal_poly(k, ell)
    doc = {
        "k": k,
        "ell": ell,
        "sigma": sigma_of(k, ell),
        "recip": [r.scale * c for c in r.ints],
        "monic_even": monic_even_form(k, ell),
    }
    if k >= 3:
        doc["approx"], doc["delta"], doc["delta_weight"] = (
            circle_approximant(k, ell))
    return wire(doc)


def certificate_instance(k: int, ell: int,
                         width: Fraction = ALPHA_WIDTH) -> dict:
    cert = zero_certificate(k, ell)
    doc = cert.as_dict()
    doc["unity_roots"] = roots_of_unity_zeros(k, ell)
    if cert.conforms:
        doc["alpha"] = alpha_enclosure(k, ell, width=width)
    return wire(doc)


def analysis_instance(k: int, ell: int) -> dict:
    from .analysis import analyze  # only `analyze` needs the resultant layer

    return wire(analyze(k, ell)._asdict())


def scan_instance(k: int, ell: int) -> dict:
    return wire({"k": k, "ell": ell,
                 "unity_root_orders": roots_of_unity_zeros(k, ell)})


def verify_document(report, suite: str | None = None) -> dict:
    """Whole-report document, converted by one wire() call; its grid,
    precision and suite are the report's own.  A `suite` passed in (the
    benchmark harness's tests pass one) must be the report's."""
    if suite not in (None, report.suite):
        raise ValueError("the report ran suite %r, not %r"
                         % (report.suite, suite))
    return wire({
        "format": "reczeros.verify",
        "version": VERSION,
        "grid": {
            "k_max": report.k_max,
            "ell_max": report.ell_max,
            "precision": report.precision,
            "suite": report.suite,
        },
        "ok": report.ok,
        "counts": report.counts(),
        "results": [{"claim": r.claim_id, "status": r.status,
                     "params": r.params, "witness": r.witness,
                     "detail": r.detail, "data": r.data}
                    for r in report.results],
    })


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


def _columns(inst: dict) -> dict:
    """One instance's cells keyed by column name, in document order."""
    cells = {}
    for name, value in inst.items():
        if isinstance(value, list):
            cells[name] = ";".join(value)
        elif isinstance(value, dict):
            cells[name + "_lo"] = value["lo"]
            cells[name + "_hi"] = value["hi"]
        else:
            cells[name] = _cell(value)
    return cells


def rows_for(doc: dict) -> tuple[list[str], list[list[str]]]:
    """Header and rows for the CSV/table renderings of a JSON document.

    >>> doc = envelope("scan", [
    ...     {"k": "3", "ell": "1", "unity_root_orders": ["3"]},
    ...     {"k": "4", "ell": "2", "unity_root_orders": ["1", "2"]}])
    >>> header, rows = rows_for(doc)
    >>> header
    ['k', 'ell', 'unity_root_orders']
    >>> rows
    [['3', '1', '3'], ['4', '2', '1;2']]
    """
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
    if kind == "verify":
        header = ["claim", "status", "detail"]
        rows = [[r["claim"], r["status"], r["detail"]]
                for r in doc["results"]]
        return header, rows
    cells = [_columns(inst) for inst in doc["instances"]]
    header = list(dict.fromkeys(name for row in cells for name in row))
    return header, [[row.get(name, "") for name in header] for row in cells]


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

