"""Command-line front end: construct | certify | verify | analyze | scan.

Every command renders one deterministic document (JSON, CSV, or aligned
table) to stdout or --out; wall-clock timing and advisory notes go to
stderr so output files stay byte-identical across runs and worker
counts.  Exit codes: 0 success (possibly with notes), 1 a certified
mathematical failure or non-conformance, 2 usage, 3 internal accounting
failure.  Each subcommand registers only the flags its cmd_* function
reads, so any other flag is a usage error rather than silently ignored.
"""

from __future__ import annotations

import argparse
import importlib.util
import re
import sys
import time
from fractions import Fraction
from math import ceil, log10

from . import serialize
from .certify import (ALPHA_WIDTH, DEFAULT_PRECISION, MAX_RANGE_VALUES,
                      SUITES, map_calls)


#: The claim suite, bound by LazyLoader: its body runs on the first
#: attribute access, which only verify makes.  An entry already in
#: sys.modules is kept, as pickle sends workers that module's functions.
claims = sys.modules.get(__package__ + ".claims")
if claims is None:
    _spec = importlib.util.find_spec(__package__ + ".claims")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    claims = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(claims)
    sys.modules[__package__].claims = claims


def parse_values(text: str) -> list[int]:
    """Inclusive `a..b` spans and comma lists, normalized sorted unique.

    Refusals raise argparse.ArgumentTypeError, whose message argparse
    prints; it drops the message of the ValueError a non-integer raises.
    """
    values: set[int] = set()
    total = 0
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise argparse.ArgumentTypeError("empty range token")
        if ".." in token:
            a, b = token.split("..", 1)
            lo, hi = int(a), int(b)
            if hi < lo:
                raise argparse.ArgumentTypeError("descending span %s" % token)
        else:
            lo = hi = int(token)
        total += hi - lo + 1
        if total > MAX_RANGE_VALUES:
            raise argparse.ArgumentTypeError("more than %d values in %r"
                                             % (MAX_RANGE_VALUES, text))
        values.update(range(lo, hi + 1))
    return sorted(values)


#: Largest verify --prec accepted, in bits, and the exponent of MIN_WIDTH.
MAX_PRECISION = 65536
#: Finest --width accepted: 2^-MAX_PRECISION.
MIN_WIDTH = Fraction(1, 1 << MAX_PRECISION)
#: Largest decimal exponent magnitude in a --width text (19729): 10 to its
#: negative is already below MIN_WIDTH, and checking the exponent first
#: keeps Fraction from building a power of ten with that many digits.
MAX_WIDTH_EXPONENT = ceil(MAX_PRECISION * log10(2))

_EXPONENT = re.compile(r"e\s*([-+]?[\d_]+)\s*\Z", re.IGNORECASE)


def parse_width(text: str) -> Fraction:
    """A positive rational or decimal width no finer than MIN_WIDTH.

    Refusals raise argparse.ArgumentTypeError, as parse_values does.
    """
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent.group(1))) > MAX_WIDTH_EXPONENT:
        raise argparse.ArgumentTypeError(
            "width exponent beyond +-%d" % MAX_WIDTH_EXPONENT)
    try:
        width = Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(
            "zero denominator in %r" % text) from None
    if width <= 0:
        raise argparse.ArgumentTypeError("width must be positive")
    if width < MIN_WIDTH:
        raise argparse.ArgumentTypeError("width finer than 2^-%d"
                                         % MAX_PRECISION)
    return width


def _emit(args: argparse.Namespace, doc: dict) -> None:
    text = serialize.render(doc, args.fmt)
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # a usage error, not a mathematical failure
        raise ValueError("cannot write --out %s: %s"
                         % (args.out, exc.strerror)) from None


def _note(message: str) -> None:
    print("note: " + message, file=sys.stderr)


def _grid_map(args: argparse.Namespace, build, *extra) -> list:
    """build(k, ell, *extra) over the --k x --ell grid, in grid order."""
    if not args.k or not args.ell:
        raise ValueError("empty parameter grid")
    if args.k[0] < 1 or args.ell[0] < 1:
        raise ValueError("k and ell must be at least 1")
    if len(args.k) * len(args.ell) > MAX_RANGE_VALUES:
        raise ValueError("more than %d (k, ell) instances" % MAX_RANGE_VALUES)
    return map_calls([(build, (k, ell) + extra)
                      for k in args.k for ell in args.ell], args.jobs)


def cmd_construct(args: argparse.Namespace) -> int:
    instances = _grid_map(args, serialize.construct_instance)
    _emit(args, serialize.envelope("construct", instances))
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    start = time.monotonic()
    instances = _grid_map(args, serialize.certificate_instance, args.width)
    elapsed = time.monotonic() - start
    _emit(args, serialize.envelope("certify", instances))
    print("certified %d instance(s) in %.2fs" % (len(instances), elapsed),
          file=sys.stderr)
    bad = [i for i in instances if not i["conforms"]]
    if bad:
        _note("%d instance(s) do not conform to the expected zero layout"
              % len(bad))
        return 1
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if not 64 <= args.prec <= MAX_PRECISION:
        raise ValueError("precision must be between 64 and %d bits"
                         % MAX_PRECISION)
    report = claims.run_all(args.k_max, args.ell_max, precision=args.prec,
                            jobs=args.jobs, suite=args.suite)
    _emit(args, serialize.verify_document(report))
    counts = report.counts()
    empty = claims.EMPTY_RANGE
    vacuous = [r.claim_id for r in report.results if r.detail == empty]
    if vacuous:
        _note("%s; vacuous: %s" % (empty, ", ".join(vacuous)))
    if counts["finding"]:
        _note("%d finding(s); see the report detail lines"
              % counts["finding"])
    undecided = ["%s (%s)" % (r.claim_id, r.detail) for r in report.results
                 if r.status == claims.INCONCLUSIVE]
    if undecided:
        _note("%d inconclusive claim(s): %s"
              % (len(undecided), "; ".join(undecided)))
    return 1 if counts["fail"] else 0


def cmd_analyze(args: argparse.Namespace) -> int:
    instances = _grid_map(args, serialize.analysis_instance)
    _emit(args, serialize.envelope("analyze", instances))
    failed = [i for i in instances if not i["mahler_inequality_ok"]]
    outside = [i for i in instances if not i["alpha_in_interval"]]
    if outside:
        _note("%d instance(s) fall outside the stated window (the l = 1 "
              "endpoint defect); see the verify suite for the certified "
              "finding" % len(outside))
    return 1 if failed else 0


def cmd_scan(args: argparse.Namespace) -> int:
    instances = _grid_map(args, serialize.scan_instance)
    _emit(args, serialize.envelope("scan", instances))
    return 0


#: Every flag a command may read: option string -> add_argument keywords.
FLAGS = {
    "--k": dict(type=parse_values, required=True, metavar="RANGE",
                help="k values: N, a..b (inclusive), or comma list"),
    "--ell": dict(type=parse_values, required=True, metavar="RANGE",
                  help="ell values, same syntax as --k"),
    "--k-max": dict(type=int, default=8, help="claim grid k = 1..K_MAX"),
    "--ell-max": dict(type=int, default=3,
                      help="claim grid ell = 1..ELL_MAX"),
    "--suite": dict(default="all", choices=SUITES),
    "--width": dict(type=parse_width, default=ALPHA_WIDTH, metavar="Q",
                    help="alpha enclosure width, rational or decimal"),
    "--prec": dict(type=int, default=DEFAULT_PRECISION,
                   help="working precision in bits (64..%d)" % MAX_PRECISION),
    "--jobs": dict(type=int, default=1, help="worker processes (>= 1)"),
    "--out": dict(default=None, metavar="PATH",
                  help="write the document here instead of stdout"),
    "--format": dict(dest="fmt", default="table",
                     choices=("json", "csv", "table")),
}

#: command -> (its function, help line, the flags it reads besides
#: --jobs --out --format, which every command reads)
COMMANDS = {
    "construct": (cmd_construct, "exact coefficients of the family members",
                  ("--k", "--ell")),
    "certify": (cmd_certify, "zero-location certificates over a grid",
                ("--k", "--ell", "--width")),
    "verify": (cmd_verify, "run the arithmetic claim suite",
               ("--k-max", "--ell-max", "--suite", "--prec")),
    "analyze": (cmd_analyze, "discriminant, measure, and window records",
                ("--k", "--ell")),
    "scan": (cmd_scan, "roots-of-unity orders dividing each member",
             ("--k", "--ell")),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """One subparser per command with exactly the flags it reads; prefix
    matching is off, so `verify --k 5` is refused, not read as --k-max.
    Only the command argv names first is added (the metavar keeps every
    name in the usage line); without one, all of them are."""
    parser = argparse.ArgumentParser(
        prog="reczeros",
        description="Exact construction, certification, and verification "
                    "for the family of self-reciprocal polynomials with "
                    "zeta-ratio coefficients.")
    names = [argv[0]] if argv and argv[0] in COMMANDS else list(COMMANDS)
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{%s}" % ",".join(COMMANDS) if len(names) == 1 else None)
    for name in names:
        _, text, flags = COMMANDS[name]
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        for flag in flags + ("--jobs", "--out", "--format"):
            p.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    try:
        if args.jobs < 1:
            raise ValueError("jobs must be at least 1")
        return COMMANDS[args.command][0](args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (AssertionError, ArithmeticError) as exc:
        print("internal accounting failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
