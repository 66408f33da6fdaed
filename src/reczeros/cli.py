"""Command-line front end: construct | certify | verify | analyze | scan.

Every command renders one deterministic document (JSON, CSV, or aligned
table) to stdout or --out; wall-clock timing and advisory notes go to
stderr so output files stay byte-identical across runs and worker
counts.  Exit codes: 0 success (possibly with notes), 1 a certified
mathematical failure or non-conformance, 2 usage, 3 internal accounting
failure.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, log10

from . import serialize
from .claims import PREC_CAP_MAX, SUITES, map_calls, run_all
from .family import RESULTANT_K_CAP

DEFAULT_WIDTH = Fraction(1, 10**20)


#: Most values one --k or --ell flag may name, counted before deduplication,
#: and most (k, ell) instances one grid may hold.
MAX_RANGE_VALUES = 10_000


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


#: Finest --width accepted: no enclosure is refined beyond the precision cap.
MIN_WIDTH = Fraction(1, 1 << PREC_CAP_MAX)
#: Largest decimal exponent magnitude in a --width text (19729): 10 to its
#: negative is already below MIN_WIDTH, and checking the exponent first
#: keeps Fraction from building a power of ten with that many digits.
MAX_WIDTH_EXPONENT = ceil(PREC_CAP_MAX * log10(2))

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
                                         % PREC_CAP_MAX)
    return width


@dataclass
class RunConfig:
    command: str
    ks: list[int] = field(default_factory=list)
    ells: list[int] = field(default_factory=list)
    k_max: int = 8
    ell_max: int = 3
    precision: int = 128
    width: Fraction = DEFAULT_WIDTH
    jobs: int = 1
    out: str | None = None
    fmt: str = "table"
    force: bool = False
    suite: str = "all"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reczeros",
        description="Exact construction, certification, and verification "
                    "for the family of self-reciprocal polynomials with "
                    "zeta-ratio coefficients.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, grid=True):
        if grid:
            p.add_argument("--k", type=parse_values, required=True,
                           metavar="RANGE",
                           help="k values: N, a..b (inclusive), or comma list")
            p.add_argument("--ell", type=parse_values, required=True,
                           metavar="RANGE",
                           help="ell values, same syntax as --k")
        p.add_argument("--prec", type=int, default=128,
                       help="working precision in bits (64..%d)"
                            % PREC_CAP_MAX)
        p.add_argument("--width", type=parse_width, default=DEFAULT_WIDTH,
                       metavar="Q",
                       help="enclosure refinement width, rational or decimal")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes (>= 1)")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write the document here instead of stdout")
        p.add_argument("--format", dest="fmt", default="table",
                       choices=("json", "csv", "table"))

    p = sub.add_parser("construct",
                       help="exact coefficients of the family members")
    add_common(p)

    p = sub.add_parser("certify",
                       help="zero-location certificates over a grid")
    add_common(p)

    p = sub.add_parser("verify",
                       help="run the arithmetic claim suite")
    add_common(p, grid=False)
    p.add_argument("--k", type=parse_values, default=None, metavar="RANGE",
                   help="grid upper bound taken as max of these values")
    p.add_argument("--ell", type=parse_values, default=None, metavar="RANGE",
                   help="grid upper bound taken as max of these values")
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--ell-max", type=int, default=None)
    p.add_argument("--suite", default="all", choices=SUITES)

    p = sub.add_parser("analyze",
                       help="discriminant, measure, and window records")
    add_common(p)
    p.add_argument("--force", action="store_true",
                   help="allow k beyond the exact-resultant cap %d"
                        % RESULTANT_K_CAP)

    p = sub.add_parser("scan",
                       help="roots-of-unity orders dividing each member")
    add_common(p)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in ("precision", "width", "jobs", "out", "fmt", "force",
                 "suite"):
        src = {"precision": "prec"}.get(name, name)
        if hasattr(args, src):
            setattr(cfg, name, getattr(args, src))
    if getattr(args, "k", None) is not None:
        cfg.ks = args.k
        cfg.k_max = max(args.k)
    if getattr(args, "ell", None) is not None:
        cfg.ells = args.ell
        cfg.ell_max = max(args.ell)
    if getattr(args, "k_max", None) is not None:
        cfg.k_max = args.k_max
    if getattr(args, "ell_max", None) is not None:
        cfg.ell_max = args.ell_max
    if not 64 <= cfg.precision <= PREC_CAP_MAX:
        raise ValueError("precision must be between 64 and %d bits"
                         % PREC_CAP_MAX)
    if cfg.jobs < 1:
        raise ValueError("jobs must be at least 1")
    return cfg


def _emit(cfg: RunConfig, doc: dict) -> None:
    text = serialize.render(doc, cfg.fmt)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _note(message: str) -> None:
    print("note: " + message, file=sys.stderr)


def _grid(cfg: RunConfig) -> list[tuple[int, int]]:
    if not cfg.ks or not cfg.ells:
        raise ValueError("empty parameter grid")
    if cfg.ks[0] < 1 or cfg.ells[0] < 1:
        raise ValueError("k and ell must be at least 1")
    if len(cfg.ks) * len(cfg.ells) > MAX_RANGE_VALUES:
        raise ValueError("more than %d (k, ell) instances" % MAX_RANGE_VALUES)
    return [(k, ell) for k in cfg.ks for ell in cfg.ells]


def cmd_construct(cfg: RunConfig) -> int:
    grid = _grid(cfg)
    instances = map_calls([(serialize.construct_instance, args)
                           for args in grid], cfg.jobs)
    _emit(cfg, serialize.envelope("construct", instances))
    return 0


def cmd_certify(cfg: RunConfig) -> int:
    grid = _grid(cfg)
    start = time.monotonic()
    instances = map_calls(
        [(serialize.certificate_instance, (k, ell, cfg.width))
         for k, ell in grid], cfg.jobs)
    elapsed = time.monotonic() - start
    _emit(cfg, serialize.envelope("certify", instances))
    print("certified %d instance(s) in %.2fs" % (len(instances), elapsed),
          file=sys.stderr)
    bad = [i for i in instances if not i["conforms"]]
    if bad:
        _note("%d instance(s) do not conform to the expected zero layout"
              % len(bad))
        return 1
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    report = run_all(cfg.k_max, cfg.ell_max, precision=cfg.precision,
                     jobs=cfg.jobs, suite=cfg.suite)
    _emit(cfg, serialize.verify_document(report, cfg.suite))
    counts = report.counts()
    if cfg.k_max < 1 or cfg.ell_max < 1:
        _note("empty parameter range; all claims vacuous")
    if counts["finding"]:
        _note("%d finding(s); see the report detail lines"
              % counts["finding"])
    if counts["inconclusive"]:
        _note("%d inconclusive claim(s); raise REC_ZEROS_PREC_CAP to retry"
              % counts["inconclusive"])
    return 1 if counts["fail"] else 0


def cmd_analyze(cfg: RunConfig) -> int:
    grid = _grid(cfg)
    over = [k for k, _ in grid if k > RESULTANT_K_CAP]
    if over and not cfg.force:
        print("refusing k > %d without --force (exact resultants get "
              "expensive); offending k: %s"
              % (RESULTANT_K_CAP, sorted(set(over))), file=sys.stderr)
        return 2
    instances = map_calls(
        [(serialize.analysis_instance, (k, ell, cfg.force, cfg.precision))
         for k, ell in grid], cfg.jobs)
    _emit(cfg, serialize.envelope("analyze", instances))
    failed = [i for i in instances
              if not i["mahler_inequality_ok"] or i["discriminant"] == "0/1"]
    outside = [i for i in instances if not i["alpha_in_interval"]]
    if outside:
        _note("%d instance(s) fall outside the stated window (the l = 1 "
              "endpoint defect); see the verify suite for the certified "
              "finding" % len(outside))
    return 1 if failed else 0


def cmd_scan(cfg: RunConfig) -> int:
    grid = _grid(cfg)
    instances = map_calls([(serialize.scan_instance, args) for args in grid],
                          cfg.jobs)
    _emit(cfg, serialize.envelope("scan", instances))
    return 0


COMMANDS = {
    "construct": cmd_construct,
    "certify": cmd_certify,
    "verify": cmd_verify,
    "analyze": cmd_analyze,
    "scan": cmd_scan,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        return COMMANDS[cfg.command](cfg)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (AssertionError, ArithmeticError) as exc:
        print("internal accounting failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
