"""Benchmark of the reczeros command line, one workload and seed per run.

    python3 perfbench/run.py --workload certify-grid --seed 0 --seconds 60 --trace 0

`--workload all` runs the four workloads in turn at the same seed, and
its JSON line keys each metric as `<workload>.<metric>`.

Each timed command is a fresh `python -m reczeros.cli ... --jobs 1
--format json --out FILE` process, exactly as a user runs it, so every
cache starts cold.  Commands run one at a time until --seconds is used up.
Every output document passes the correctness gate in workloads.py and must
be byte-identical to the first one of the run.

--trace 0 reports the end-to-end metrics: median wall time, CPU time and
peak RSS of a command (each read for that child alone through os.wait4)
and the median fresh-interpreter `import reczeros.cli` time.  --trace 1
alternates plain commands with commands run under tracer.py and reports
the per-layer metrics of the traced ones.  The last line of stdout is one
JSON object; the lines before it are a readable report.  The exit code is
1 when any command fails the gate, 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

sys.path.insert(0, str(HERE))
from tracer import CLAIM_CHECKS  # noqa: E402
from workloads import SCALES, WORKLOADS, Gate, make_inputs  # noqa: E402

#: Import probes made before the first command; one more follows every
#: command, so the set-up samples spread over the whole run.
SETUP_FIRST = 3
#: Every child is killed at this many seconds after the run started, so a
#: run ends in time even when the program hangs.
RUN_DEADLINE_S = 170.0

IMPORT_PROBE = ("import time; t = time.perf_counter(); import reczeros.cli; "
                "print(repr(time.perf_counter() - t))")

#: per-layer share metrics: name -> (span names, "self" or "total" time),
#: reported as a percentage of the root span.  A share, unlike a time, may
#: be exactly 0 on every run of a workload that never enters the layer.
SHARES = {
    "polycore.sturm_build_pct": (("polycore.sturm_build",), "self"),
    "polycore.transform_pct": (("polycore.transform",), "self"),
    "polycore.refine_pct": (("polycore.refine",), "self"),
    "polycore.isolate_pct": (("polycore.isolate",), "self"),
    "polycore.count_open_pct": (("polycore.count_open",), "self"),
    "polycore.eval_interval_pct": (("polycore.eval_interval",), "self"),
    "certify.unity_scan_pct": (("certify.unity_scan",), "self"),
    "certify.certify_zeros_incl_pct": (("certify.certify_zeros",), "total"),
    "certify.alpha_enclosure_incl_pct": (("certify.alpha_enclosure",), "total"),
    "family.construct_pct": (("family.reciprocal_poly", "family.monic_even_form"),
                             "self"),
    "interval.pi_enclosure_pct": (("interval.pi_enclosure",), "self"),
    "interval.pow_rounded_pct": (("interval.pow_rounded",), "self"),
    "interval.cos_enclosure_pct": (("interval.cos_enclosure",), "self"),
    "exactnum.zeta_even_enclosure_pct": (("exactnum.zeta_even_enclosure",), "self"),
    "serialize.render_pct": (("serialize.render",), "self"),
}
for _check in CLAIM_CHECKS:
    SHARES["claims.%s_pct" % _check] = (("claims." + _check,), "self")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = dict.fromkeys(SHARES, "%")
LAYER_UNITS.update({
    "cli.main_s": "s",
    "trace.overhead_s": "s",
    "polycore.sturm_builds": "count",
    "polycore.sturm_max_bits": "bits",
    "polycore.refine_halvings": "count",
    "certify.certify_zeros_calls": "count",
    "certify.recompute_ratio": "ratio",
    "family.boundary_profile.hit_ratio": "ratio",
    "interval.pi_enclosure_calls": "count",
    "interval.pow_rounded_calls": "count",
    "claims.max_precision_bits": "bits",
    "serialize.doc_bytes": "B",
})


class Failure(Exception):
    """A command that did not produce the expected document."""


class Sample(NamedTuple):
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    summary: dict | None  # the tracer's summary of a traced command


class Runner:
    """Runs the commands of one benchmark run and gates their output."""

    def __init__(self, inputs, work: Path, deadline: float):
        self.inputs = inputs
        self.work = work
        self.deadline = deadline
        self.gate = Gate(SRC / "reczeros" / "schemas")
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("REC_ZEROS_PREC_CAP", None)
        self.document = None
        self.count = 0

    def _spawn(self, argv, stdout):
        """Run one child to completion; returns (wall seconds, rusage)."""
        err_path = self.work / "stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=stdout, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
            raise Failure("exit code %d: %s" % (proc.returncode, " | ".join(tail)))
        return wall, usage

    def setup_time(self) -> float:
        """Seconds a fresh interpreter takes to import reczeros.cli."""
        out = self.work / "import.txt"
        with open(out, "wb") as fh:
            self._spawn([sys.executable, "-c", IMPORT_PROBE], fh)
        return float(out.read_text())

    def command(self, traced: bool) -> Sample:
        self.count += 1
        doc_path = self.work / ("doc-%d.json" % self.count)
        summary_path = self.work / ("trace-%d.json" % self.count)
        cli = list(self.inputs.argv) + ["--jobs", "1", "--format", "json",
                                        "--out", str(doc_path)]
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(summary_path)] + cli
        else:
            argv = [sys.executable, "-m", "reczeros.cli"] + cli
        wall, usage = self._spawn(argv, subprocess.DEVNULL)
        text = doc_path.read_bytes()
        doc_path.unlink()
        if self.document is None:
            problems = self.gate.problems(self.inputs, text)
            if problems:
                raise Failure("; ".join(problems[:5]))
            self.document = text
        elif text != self.document:
            raise Failure("document differs from the first one of this seed")
        summary = None
        if traced:
            summary = json.loads(summary_path.read_text())
            summary_path.unlink()
        return Sample(wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, summary)


def layer_metrics(summary: dict, document: bytes) -> dict:
    """The per-layer metrics of one traced command."""
    layers, counters = summary["layers"], summary["counters"]
    root = summary["root_s"]

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    out = {}
    for metric, (names, kind) in SHARES.items():
        seconds = sum(layers.get(n, {}).get(kind + "_s", 0.0) for n in names)
        out[metric] = 100.0 * seconds / root
    distinct = counters["certify_zeros_distinct"]
    lookups = counters["boundary_profile_hits"] + counters["boundary_profile_misses"]
    precisions = [int(r["data"]["max_precision"])
                  for r in json.loads(document).get("results", [])
                  if "max_precision" in r["data"]]
    out.update({
        "cli.main_s": root,
        "polycore.sturm_builds": calls("polycore.sturm_build"),
        "polycore.sturm_max_bits": counters["sturm_max_bits"],
        "polycore.refine_halvings": counters["refine_halvings"],
        "certify.certify_zeros_calls": counters["certify_zeros_calls"],
        "certify.recompute_ratio": (counters["certify_zeros_calls"] / distinct
                                    if distinct else 0.0),
        "family.boundary_profile.hit_ratio": (
            counters["boundary_profile_hits"] / lookups if lookups else 0.0),
        "interval.pi_enclosure_calls": calls("interval.pi_enclosure"),
        "interval.pow_rounded_calls": calls("interval.pow_rounded"),
        "claims.max_precision_bits": max(precisions, default=0),
        "serialize.doc_bytes": len(document),
    })
    return out


def print_layer_report(summary: dict) -> None:
    """Every span by self time, in seconds and as a share of the root span."""
    root = summary["root_s"]
    print("layer spans of one traced command (root %.4f s):" % root)
    if summary["missing_entry_points"]:
        print("  entry points not found, so not traced: "
              + ", ".join(summary["missing_entry_points"]))
    print("  %-34s %8s %10s %10s %7s" % ("span", "calls", "self_s", "total_s", "self%"))
    rows = sorted(summary["layers"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        print("  %-34s %8d %10.4f %10.4f %6.1f%%" % (
            name, row["calls"], row["self_s"], row["total_s"],
            100.0 * row["self_s"] / root))
    modules = {}
    for name, row in summary["layers"].items():
        module = name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + row["self_s"]
    print("  self time by module: " + ", ".join(
        "%s %.4f s" % kv for kv in sorted(modules.items(), key=lambda kv: -kv[1])))
    instance = summary["instance_s"]
    if instance:
        q = statistics.quantiles(instance, n=10) if len(instance) > 1 else instance * 9
        print("  certify.instance_s: p50 %.4f s, p90 %.4f s over %d instances"
              % (statistics.median(instance), q[8], len(instance)))


def measure(inputs, seconds: float, trace: bool, work: Path) -> dict:
    start = time.monotonic()
    runner = Runner(inputs, work, start + RUN_DEADLINE_S)
    setup, plain, traced, failures = [], [], [], []
    try:
        for _ in range(SETUP_FIRST):
            setup.append(runner.setup_time())
    except Failure as exc:
        failures.append("import: %s" % exc)
    while not failures:
        want_traced = trace and len(traced) < len(plain)
        try:
            sample = runner.command(want_traced)
            setup.append(runner.setup_time())
        except Failure as exc:
            failures.append(str(exc))
            break
        (traced if want_traced else plain).append(sample)
        elapsed = time.monotonic() - start
        durations = [s.wall_s for s in plain + traced]
        enough = plain and (traced or not trace)
        if enough and elapsed + statistics.median(durations) > seconds:
            break
    for failure in failures:
        print("FAILED: %s" % failure, file=sys.stderr)
    return {"setup": setup, "plain": plain, "traced": traced,
            "failures": failures, "document": runner.document}


def report(inputs, trace, outcome) -> tuple[dict, int, int]:
    plain, traced = outcome["plain"], outcome["traced"]
    attempted = len(plain) + len(traced) + len(outcome["failures"])
    failed = len(outcome["failures"])
    print("workload %s: reczeros %s" % (inputs.workload, inputs.describe()))
    print("commands: %d attempted, %d failed, failed_share %.4f"
          % (attempted, failed, failed / attempted))
    if failed:
        return {}, attempted, failed
    series = {
        "wall_s": [s.wall_s for s in plain],
        "cpu_s": [s.cpu_s for s in plain],
        "peak_rss_mb": [s.peak_rss_mb for s in plain],
        "setup_s": outcome["setup"],
    }
    for name, values in series.items():
        print("%-12s median %.4f %s  (n=%d, min %.4f, max %.4f)" % (
            name, statistics.median(values), END_TO_END_UNITS[name],
            len(values), min(values), max(values)))
    if not trace:
        return ({name: {"value": statistics.median(v), "unit": END_TO_END_UNITS[name]}
                 for name, v in series.items()}, attempted, failed)
    per_command = [layer_metrics(s.summary, outcome["document"]) for s in traced]
    overhead = (statistics.median(s.wall_s for s in traced)
                - statistics.median(series["wall_s"]))
    middle = sorted(traced, key=lambda s: s.summary["root_s"])[(len(traced) - 1) // 2]
    print_layer_report(middle.summary)
    print("tracing overhead: %.4f s per command (traced wall median minus plain"
          " wall median, n=%d traced)" % (overhead, len(traced)))
    metrics = {}
    root = statistics.median(m["cli.main_s"] for m in per_command)
    for name, unit in LAYER_UNITS.items():
        value = (overhead if name == "trace.overhead_s"
                 else statistics.median(m[name] for m in per_command))
        metrics[name] = {"value": value, "unit": unit}
        if unit == "%":
            print("  %-36s %12.4f %%  = %s %.4f s" % (
                name, value, name[:-len("_pct")] + "_s", value / 100.0 * root))
        else:
            print("  %-36s %12.4f %s" % (name, value, unit))
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", default="bench", choices=SCALES,
                        help="input size; BENCHMARK.json runs bench")
    args = parser.parse_args(argv)
    if not (SRC / "reczeros" / "cli.py").is_file():
        print("error: no reczeros sources under %s" % SRC, file=sys.stderr)
        return 2
    try:
        import jsonschema  # noqa: F401
    except ImportError:
        print("error: the correctness gate needs jsonschema", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        inputs = make_inputs(name, args.scale, args.seed)
        work = WORK / ("run-%d" % os.getpid())
        work.mkdir(parents=True)
        try:
            outcome = measure(inputs, args.seconds, bool(args.trace), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                WORK.rmdir()
            except OSError:
                pass
        row, row_attempted, row_failed = report(inputs, args.trace, outcome)
        prefix = name + "." if len(names) > 1 else ""
        metrics.update((prefix + key, value) for key, value in row.items())
        attempted += row_attempted
        failed += row_failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
