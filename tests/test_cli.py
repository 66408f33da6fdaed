import argparse
import hashlib
import importlib.util
import json
import os
import re
import shlex
import tracemalloc
from concurrent.futures import Future
from fractions import Fraction as F

import jsonschema
import pytest

from fresh_process import fresh_python
from reczeros import claims, serialize
from reczeros.cli import (
    MAX_RANGE_VALUES,
    MIN_WIDTH,
    build_parser,
    main,
    parse_values,
    parse_width,
)


# ---------------------------------------------------------------------------
# flag parsing
# ---------------------------------------------------------------------------

def test_parse_values_forms():
    assert parse_values("5") == [5]
    assert parse_values("2..5") == [2, 3, 4, 5]
    assert parse_values("1,3,9") == [1, 3, 9]
    assert parse_values("4..6,2,5") == [2, 4, 5, 6]  # sorted, deduplicated
    assert parse_values("7..7") == [7]


def test_parse_values_rejects_garbage():
    for bad in ("", "3..1", "1,,2"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_values(bad)
    for bad in ("a..b", "2.5"):
        with pytest.raises(ValueError):
            parse_values(bad)


def test_parse_values_bounds_the_value_count_before_building():
    tracemalloc.start()
    try:
        with pytest.raises(argparse.ArgumentTypeError):
            parse_values("1..100000000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    # the bound is on the running total over all tokens
    with pytest.raises(argparse.ArgumentTypeError):
        parse_values("1..%d,%d" % (MAX_RANGE_VALUES, MAX_RANGE_VALUES + 5))
    assert len(parse_values("1..%d" % MAX_RANGE_VALUES)) == MAX_RANGE_VALUES


def test_huge_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--k", "1..100000000000", "--ell", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_parse_width_accepts_rational_and_decimal():
    assert parse_width("1/100") == F(1, 100)
    assert parse_width("1e-20") == F(1, 10**20)
    assert parse_width("0.5") == F(1, 2)
    with pytest.raises(argparse.ArgumentTypeError):
        parse_width("0")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_width("-1/3")


def test_parse_width_bounds_the_exponent_before_building():
    tracemalloc.start()
    try:
        for text in ("1e-999999999", "1e-3000000", "1E+999999999"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_width(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    # 2^-65536 lies between 10^-19729 and 10^-19728
    assert parse_width("1e-19728") >= MIN_WIDTH
    with pytest.raises(argparse.ArgumentTypeError):
        parse_width("1e-19729")
    with pytest.raises(ValueError):  # Fraction's own digit limit
        parse_width("0.%s1" % ("0" * 19730))


def test_width_and_precision_beyond_the_cap_are_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--k", "2", "--ell", "1", "--width", "1e-3000000"])
    assert exc.value.code == 2
    assert main(["analyze", "--k", "2", "--ell", "1", "--prec", "65537"]) == 2
    assert main(["verify", "--k-max", "3", "--prec", "100000"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flags, reason", [
    (["--width", "1e-3000000"], "width exponent beyond +-19729"),
    (["--width", "1e-19729"], "width finer than 2^-65536"),
    (["--width", "0"], "width must be positive"),
    (["--width", "1/0"], "zero denominator in '1/0'"),
    (["--k", "5..2"], "descending span 5..2"),
    (["--k", "1..20000"], "more than 10000 values"),
])
def test_refused_flag_values_say_why(flags, reason, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--k", "2", "--ell", "1"] + flags)
    assert exc.value.code == 2
    assert reason in capsys.readouterr().err


#: The flags each command reads, and no others.
COMMAND_FLAGS = {
    "construct": {"--k", "--ell", "--jobs", "--out", "--format"},
    "scan": {"--k", "--ell", "--jobs", "--out", "--format"},
    "certify": {"--k", "--ell", "--width", "--jobs", "--out", "--format"},
    "analyze": {"--k", "--ell", "--prec", "--force", "--jobs", "--out",
                "--format"},
    "verify": {"--k-max", "--ell-max", "--suite", "--prec", "--jobs",
               "--out", "--format"},
}


def test_each_command_registers_only_the_flags_it_reads():
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    flags = {name: {opt for action in p._actions
                    for opt in action.option_strings
                    if opt not in ("-h", "--help")}
             for name, p in subparsers.choices.items()}
    assert flags == COMMAND_FLAGS
    assert sum(map(len, flags.values())) == 30


@pytest.mark.parametrize("argv", [
    ["certify", "--k", "2", "--ell", "1", "--prec", "256"],
    ["construct", "--k", "2", "--ell", "1", "--width", "1/10"],
    ["scan", "--k", "2", "--ell", "1", "--prec", "256"],
    ["verify", "--width", "1/10"],
    ["verify", "--k", "5"],
    ["verify", "--ell", "2"],
    ["verify", "--k", "1..5"],
])
def test_a_flag_the_command_does_not_read_is_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _readme_invocations() -> list[str]:
    """Every `reczeros ...` command line in README.md: code-block lines and
    inline code spans, with shell comments dropped."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    found = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S):
        found += [line for line in block.splitlines()
                  if line.startswith("reczeros ")]
    prose = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    found += re.findall(r"`(reczeros [^`]+)`", prose)
    return found


def test_readme_invocations_parse():
    invocations = _readme_invocations()
    assert len(invocations) >= 8
    for line in invocations:
        argv = shlex.split(line, comments=True)[1:]
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail("README invocation does not parse: %s" % line)


@pytest.mark.parametrize("k_max, ell_max", [
    ("12", "1000000000"),
    ("0", "1000000000"),
    ("1000000000", "0"),
    ("10001", "1"),
])
def test_verify_grid_beyond_the_bound_is_refused_before_planning(
        k_max, ell_max, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(claims, "map_calls", lambda *a, **kw: ran.append(a))
    assert main(["verify", "--k-max", k_max, "--ell-max", ell_max]) == 2
    assert ("error: more than %d (k, ell) instances in the verify grid"
            % MAX_RANGE_VALUES) in capsys.readouterr().err
    assert ran == []


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_bad_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--k", "3..1", "--ell", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["construct", "--k", "0", "--ell", "1"],
    ["analyze", "--k", "2", "--ell", "1", "--prec", "32"],
    ["certify", "--k", "2", "--ell", "1", "--jobs", "0"],
    ["construct", "--k", "1..10000", "--ell", "1..10000"],
])
def test_invalid_config_exits_2(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# documents against their shipped schemas
# ---------------------------------------------------------------------------

def run_json(argv, capsys):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def validate(kind, doc):
    jsonschema.validate(instance=doc, schema=serialize.load_schema(kind))


def test_construct_document_schema(capsys):
    code, doc = run_json(["construct", "--k", "1..4", "--ell", "1..2"],
                         capsys)
    assert code == 0
    validate("construct", doc)
    assert doc["format"] == "reczeros.construct"
    first = doc["instances"][0]
    assert first["recip"] == ["-1/720", "1/144", "-1/720"]
    # interior-weight fields only show up from k = 3 on
    assert "approx" not in first
    assert "approx" in doc["instances"][4]


def test_certify_document_schema(capsys):
    code, doc = run_json(["certify", "--k", "2..5", "--ell", "1..3"],
                         capsys)
    assert code == 0
    validate("certify", doc)
    for inst in doc["instances"]:
        assert inst["conforms"] is True
        assert F(inst["alpha"]["lo"]) < F(inst["alpha"]["hi"])


def test_verify_document_schema(capsys):
    code, doc = run_json(["verify", "--k-max", "5", "--ell-max", "2"],
                         capsys)
    assert code == 0
    validate("verify", doc)
    assert doc["grid"] == {"k_max": "5", "ell_max": "2",
                           "precision": "128", "suite": "all"}
    assert doc["ok"] is True
    assert doc["counts"]["fail"] == "0"


def test_analyze_document_schema(capsys):
    code, doc = run_json(["analyze", "--k", "1..4", "--ell", "1..2"],
                         capsys)
    assert code == 0
    validate("analyze", doc)
    assert all(i["mahler_inequality_ok"] for i in doc["instances"])
    assert all(i["alpha_in_interval"] for i in doc["instances"])


def test_scan_document_schema(capsys):
    code, doc = run_json(["scan", "--k", "1..6", "--ell", "1..2"], capsys)
    assert code == 0
    validate("scan", doc)
    by_key = {(i["k"], i["ell"]): i["unity_root_orders"]
              for i in doc["instances"]}
    assert by_key[("3", "1")] == ["3"]   # a genuine cube-root-of-unity zero
    assert by_key[("2", "2")] == ["1"]
    assert by_key[("1", "1")] == []


def _digest(instances) -> str:
    text = json.dumps(instances, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_certify_and_scan_instances_are_pinned():
    # digests of the documents before the certify core moved to integers
    certs = [serialize.certificate_instance(k, ell, F(1, 10**20))
             for k in range(1, 15) for ell in range(1, 7)]
    assert _digest(certs) == (
        "80bf6f3dd5de79f82f244740f9e34285bf36d2e40470b7f4ece894de7db5ba24")
    scans = [serialize.scan_instance(k, ell)
             for k in range(1, 21) for ell in range(1, 7)]
    assert _digest(scans) == (
        "cd7e1ea930197ac6797e33d0a4d2dbc18ca3a003ca72528130a2c06338ddbf15")


def test_paper_grid_certificates_are_pinned():
    # digest of certify --k 1..40 --ell 1..6 before sign alternation
    # replaced the Sturm chain as the primary route
    certs = [serialize.certificate_instance(k, ell, F(1, 10**20))
             for k in range(1, 41) for ell in range(1, 7)]
    assert _digest(certs) == (
        "0daaca4ff5323f1537dc771c4cc12bc341a113286834deb6d50ab1b3516d10da")


#: sha256 of the JSON documents, each produced by the CLI in a fresh
#: process.  The lemmas and analyze digests date from before the enclosure
#: kernels moved to integers; the k_max 14 ones from when pi_enclosure(p)
#: became the cell of the 2^-(p + 8) grid that holds pi.
PINNED_DOCUMENTS = {
    "verify --k-max 14 --ell-max 2 --prec 128":
        "f822036fc96ca3fc4713c19dba4ff94bc006f04bcc1be5b7a8e71b52b01c0b66",
    "verify --k-max 14 --ell-max 2 --prec 126":
        "cbfb49957d99cd015032d11c682aec51c9aea9e94725c59387ecd805ae6b158d",
    "verify --k-max 14 --ell-max 2 --prec 130":
        "74fd2a5e8cf6108066505dbec4b2882841fed4164a015de77e846b6cad727137",
    "verify --suite lemmas --k-max 56 --ell-max 6":
        "169a944219cc0dabae2d5ea6058d7570ee6292d688c06b7c420d6ab4da6c29c0",
    "analyze --k 1..12 --ell 1..4":
        "949e4f3a22a752ec2135b36d20739623d2eb31cfc86e1743fb1fee4c07fcecd4",
}


@pytest.mark.parametrize("command", sorted(PINNED_DOCUMENTS))
def test_verify_and_analyze_documents_are_pinned(command):
    out = fresh_python("-m", "reczeros.cli", *command.split(),
                       "--format", "json")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DOCUMENTS[command]


def test_cli_import_leaves_analysis_and_the_pool_unloaded():
    """The eight layer modules load (the benchmark tracer looks each one up
    in sys.modules), and dataclasses with its inspect import does not."""
    out = fresh_python("-c", (
        "import sys, json, reczeros.cli, reczeros\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('reczeros.'))\n"
        "pool = 'concurrent.futures.process' in sys.modules\n"
        "heavy = sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules)\n"
        "missing = [n for n in reczeros.__all__ if getattr(reczeros, n, None) is None]\n"
        "print(json.dumps([loaded, pool, heavy, missing]))"))
    loaded, pool_loaded, heavy, unresolved = json.loads(out)
    assert loaded == ["reczeros." + m for m in (
        "certify", "claims", "cli", "exactnum", "family", "interval",
        "polycore", "serialize")]
    assert not pool_loaded
    assert heavy == []
    assert unresolved == []


def test_tracer_entry_points_resolve():
    """Every name the benchmark tracer wraps still exists, so a deletion
    cannot silently zero a per-layer figure."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.ENTRY_POINTS
    missing = []
    for name, (module, attr_path) in sorted(tracer.ENTRY_POINTS.items()):
        owner = importlib.import_module("reczeros." + module)
        for attr in attr_path.split("."):
            owner = getattr(owner, attr, None)
        if owner is None:
            missing.append(name)
    assert missing == []


# ---------------------------------------------------------------------------
# behavior and exit codes
# ---------------------------------------------------------------------------

def test_verify_suite_filters_claims(capsys):
    _, doc = run_json(["verify", "--k-max", "6", "--ell-max", "2",
                       "--suite", "lemmas"], capsys)
    ids = {r["claim"] for r in doc["results"]}
    assert ids == {"zeta-bounds", "zeta-quotient-bound", "index-ratio-bound",
                   "zeta-sum-half", "q-monotone", "delta-majorant"}
    _, doc = run_json(["verify", "--k-max", "6", "--ell-max", "2",
                       "--suite", "intervals"], capsys)
    assert {r["claim"] for r in doc["results"]} == {"alpha-interval",
                                                    "alpha-interval-k2"}


def test_verify_finding_is_exit_zero_with_note(capsys):
    # k_max = 8 reaches the first stated-endpoint violations at k = 7
    code = main(["verify", "--k-max", "8", "--ell-max", "1",
                 "--suite", "intervals", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert "finding" in captured.err
    statuses = {r["claim"]: r["status"]
                for r in json.loads(captured.out)["results"]}
    assert statuses["alpha-interval"] == "finding"


def test_vacuous_note_names_only_the_vacuous_claims(capsys):
    # zeta-bounds, zeta-sum-half and the k-only lemmas still check something
    assert main(["verify", "--k-max", "5", "--ell-max", "0"]) == 0
    notes = [line for line in capsys.readouterr().err.splitlines()
             if "vacuous" in line]
    assert notes == ["note: empty parameter range; vacuous: delta-majorant, "
                     "derivative-sign-sums, alpha-interval, alpha-interval-k2"]


def test_analyze_cap_refusal_and_force(capsys):
    assert main(["analyze", "--k", "16", "--ell", "1"]) == 2
    assert "--force" in capsys.readouterr().err
    code, doc = run_json(["analyze", "--k", "16", "--ell", "1", "--force"],
                         capsys)
    assert code == 0
    validate("analyze", doc)
    assert doc["instances"][0]["alpha_in_interval"] is False


def test_analyze_notes_window_defect(capsys):
    code = main(["analyze", "--k", "7", "--ell", "1", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert "stated window" in captured.err


def test_out_writes_file_and_stdout_stays_clean(tmp_path, capsys):
    target = tmp_path / "doc.json"
    code = main(["construct", "--k", "2", "--ell", "2",
                 "--format", "json", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    validate("construct", doc)


def test_jobs_do_not_change_bytes(tmp_path):
    paths = []
    for jobs in ("1", "3"):
        p = tmp_path / ("certify_%s.json" % jobs)
        assert main(["certify", "--k", "2..5", "--ell", "1..2",
                     "--jobs", jobs, "--format", "json",
                     "--out", str(p)]) == 0
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


def test_csv_and_table_render(capsys):
    assert main(["scan", "--k", "2..3", "--ell", "1", "--format",
                 "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,ell,unity_root_orders"
    assert lines[1] == "2,1,2"

    assert main(["certify", "--k", "2", "--ell", "1"]) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[0].startswith("k  ell  sigma")
    assert table[1].split()[:3] == ["2", "1", "1"]


def test_certify_width_controls_alpha_enclosure(capsys):
    code, doc = run_json(["certify", "--k", "2", "--ell", "1",
                          "--width", "1/10"], capsys)
    assert code == 0
    alpha = doc["instances"][0]["alpha"]
    gap = F(alpha["hi"]) - F(alpha["lo"])
    assert F(1, 10**6) < gap <= F(1, 10)


def test_jobs_are_clamped_to_tasks_and_cpus(monkeypatch, tmp_path):
    """--jobs 10000 asks the pool for no more workers than tasks or CPUs."""
    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    out = str(tmp_path / "construct.json")
    assert main(["construct", "--k", "1..3", "--ell", "1", "--jobs", "10000",
                 "--format", "json", "--out", out]) == 0
    assert asked == [3]
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    claims.run_all(3, 1, jobs=10000)
    assert asked == [3, 2]
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert main(["construct", "--k", "1..3", "--ell", "1", "--jobs", "10000",
                 "--format", "json", "--out", out]) == 0
    assert asked == [3, 2]


def test_rational_str_beyond_the_int_str_digit_limit():
    big = 10**5000 + 7
    assert serialize.rational_str(F(big, 3)) == "1" + "0" * 4999 + "7/3"
    assert serialize.wire(big) == "1" + "0" * 4999 + "7"
