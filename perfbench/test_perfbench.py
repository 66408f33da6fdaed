"""The benchmark's own tests: smoke runs of every workload, the gate and the tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SCALES, TIMED, WORKLOADS, Gate, make_inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    return out["metrics"]


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(TIMED)
    assert set(TIMED) <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    metrics = result(bench(workload, 3, 0))
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in metrics.values())


def test_one_command_runs_every_workload():
    metrics = result(bench("all", 1, 0))
    assert set(metrics) == {"%s.%s" % (w, m) for w in WORKLOADS
                            for m in run.END_TO_END_UNITS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(workload):
    metrics = result(bench(workload, 0, 1))
    assert set(metrics) == set(run.LAYER_UNITS)
    value = {name: m["value"] for name, m in metrics.items()}
    if workload == "verify-lemmas":
        assert value["certify.unity_scan_pct"] == 0
        assert value["polycore.sturm_build_pct"] == 0
    if workload == "verify-grid":
        assert value["certify.recompute_ratio"] > 1
    else:
        assert value["certify.recompute_ratio"] in (0, 1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_follow_the_seed(workload):
    for scale in SCALES:
        assert make_inputs(workload, scale, 7) == make_inputs(workload, scale, 7)
    for seed in range(20):
        inputs = make_inputs(workload, "smoke", seed)
        assert max(inputs.ks + (inputs.k_max,)) <= 4


def _document(inputs):
    from reczeros import serialize
    from reczeros.claims import run_all

    if inputs.kind == "certify":
        doc = serialize.envelope("certify", [
            serialize.certificate_instance(k, ell, Fraction(1, 10**20))
            for k in inputs.ks for ell in inputs.ells])
    else:
        report = run_all(inputs.k_max, inputs.ell_max, suite=inputs.suite)
        doc = serialize.verify_document(report, inputs.suite)
    return doc


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gate_rejects_wrong_verdicts(workload):
    gate = Gate(ROOT / "src" / "reczeros" / "schemas")
    inputs = make_inputs(workload, "smoke", 0)
    doc = _document(inputs)
    assert gate.problems(inputs, json.dumps(doc).encode()) == []
    if inputs.kind == "certify":
        doc["instances"][-1]["unimodular_count"] = "0"
    else:
        doc["results"][0]["status"] = "inconclusive"
    assert gate.problems(inputs, json.dumps(doc).encode())
    doc["version"] = "2"
    assert gate.problems(inputs, json.dumps(doc).encode())[0].startswith("schema")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seeds_keep_the_grid(workload):
    canonical = make_inputs(workload, "bench", 0)
    for seed in range(1, 20):
        inputs = make_inputs(workload, "bench", seed)
        assert (inputs.ks, inputs.ells, inputs.k_max, inputs.ell_max) == (
            canonical.ks, canonical.ells, canonical.k_max, canonical.ell_max)


def test_self_times_sum_to_the_root():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: sum(range(1000)))
    mid = tracer.wrap("mid", lambda: [leaf() for _ in range(3)])
    root = tracer.wrap("cli.main", lambda: (mid(), leaf()))
    root()
    summary = tracer.summary()
    assert summary["layers"]["leaf"]["calls"] == 4
    assert summary["layers"]["mid"]["total_s"] <= summary["root_s"]
    assert abs(summary["self_sum_s"] - summary["root_s"]) < 1e-9
    tracer.spans[-1][1] -= 1.0  # a child that starts before its parent
    with pytest.raises(AssertionError):
        tracer.summary()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("certify-grid", 0, 0, cwd=tmp_path,
                 script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
