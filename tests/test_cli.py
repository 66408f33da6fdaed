import argparse
import hashlib
import importlib.util
import json
import os
import re
import shlex
import tracemalloc
import types
from concurrent.futures import Future
from fractions import Fraction as F
from importlib import resources

import jsonschema
import pytest

from fresh_process import fresh_python
from reczeros import certify, claims, serialize
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
    "analyze": {"--k", "--ell", "--jobs", "--out", "--format"},
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
    assert sum(map(len, flags.values())) == 28


@pytest.mark.parametrize("argv", [
    ["certify", "--k", "2", "--ell", "1", "--prec", "256"],
    ["construct", "--k", "2", "--ell", "1", "--width", "1/10"],
    ["scan", "--k", "2", "--ell", "1", "--prec", "256"],
    ["verify", "--width", "1/10"],
    ["verify", "--k", "5"],
    ["verify", "--ell", "2"],
    ["verify", "--k", "1..5"],
    ["analyze", "--k", "2", "--ell", "1", "--force"],
    ["analyze", "--k", "2", "--ell", "1", "--prec", "32"],
    ["analyze", "--k", "2", "--ell", "1", "--prec", "65537"],
])
def test_a_flag_the_command_does_not_read_is_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_a_named_command_builds_only_its_own_subparser():
    def commands(argv):
        (subparsers,) = [a for a in build_parser(argv)._actions
                         if isinstance(a, argparse._SubParsersAction)]
        return list(subparsers.choices)

    assert commands(["verify", "--k-max", "3"]) == ["verify"]
    every = ["construct", "certify", "verify", "analyze", "scan"]
    assert commands(None) == commands(["--help"]) == commands(["bogus"]) == every


@pytest.mark.parametrize("argv", [
    ["certify", "--k", "2", "--ell", "1", "--prec", "256"],
    ["bogus"],
    ["--help"],
    [],
])
def test_usage_text_is_the_full_parsers(argv, capsys):
    # main builds one subparser when argv names a command; what it prints
    # must stay what the parser with every command prints
    with pytest.raises(SystemExit) as got:
        main(argv)
    printed = capsys.readouterr()
    with pytest.raises(SystemExit) as want:
        build_parser().parse_args(argv)
    assert (got.value.code, printed) == (want.value.code, capsys.readouterr())
    assert "{construct,certify,verify,analyze,scan}" in printed.out + printed.err


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


def load_schema(kind):
    """The JSON schema shipped in the package for one document kind."""
    path = resources.files("reczeros").joinpath("schemas").joinpath(
        kind + ".json")
    return json.loads(path.read_text(encoding="utf-8"))


def validate(kind, doc):
    jsonschema.validate(instance=doc, schema=load_schema(kind))


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
    # digests of the documents before the certify core moved to integers;
    # the scan one, widened from k 1..20 to 1..60, while the unity scan
    # still tried every order with phi(n) <= deg R, off a totient sieve
    certs = [serialize.certificate_instance(k, ell, F(1, 10**20))
             for k in range(1, 15) for ell in range(1, 7)]
    assert _digest(certs) == (
        "80bf6f3dd5de79f82f244740f9e34285bf36d2e40470b7f4ece894de7db5ba24")
    scans = [serialize.scan_instance(k, ell)
             for k in range(1, 61) for ell in range(1, 7)]
    assert _digest(scans) == (
        "956a2b80b2e4093abf179d32ede25de343e6f97e03af8d717db170ba06b9405e")


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
#: became the cell of the 2^-(p + 8) grid that holds pi.  The k 16..20
#: analyze digest was taken when Disc(R) was still the determinant of R's
#: own Sylvester matrix, before the half-degree identity replaced it and
#: lifted the k <= 15 cap; the k 31..32 one when Disc(W) was still the
#: determinant of W's Sylvester matrix, before the subresultant PRS.  The
#: --prec 64 one, every sign-pattern claim at the lowest precision the CLI
#: takes, was taken while the signs were read off T, before W came
#: straight from R.  The construct one, which reaches ell >= 4 and every
#: interior weight of the approximant, was taken while the companion was
#: still built a second time from the zeta rationals.
PINNED_DOCUMENTS = {
    "construct --k 1..20 --ell 1..6":
        "3234de09730e7c6cd3909ef76562c4068bea88e7bd609c965f9d87d96bfba1f1",
    "verify --k-max 14 --ell-max 2 --prec 128":
        "f822036fc96ca3fc4713c19dba4ff94bc006f04bcc1be5b7a8e71b52b01c0b66",
    "verify --k-max 14 --ell-max 2 --prec 126":
        "cbfb49957d99cd015032d11c682aec51c9aea9e94725c59387ecd805ae6b158d",
    "verify --k-max 14 --ell-max 2 --prec 130":
        "74fd2a5e8cf6108066505dbec4b2882841fed4164a015de77e846b6cad727137",
    "verify --suite props --k-max 12 --ell-max 6 --prec 64":
        "6d0cba40716211f08f9b41684ccea4919903ac63366ab7e5895e996963d2cfc9",
    "verify --suite lemmas --k-max 56 --ell-max 6":
        "169a944219cc0dabae2d5ea6058d7570ee6292d688c06b7c420d6ab4da6c29c0",
    "analyze --k 1..12 --ell 1..4":
        "949e4f3a22a752ec2135b36d20739623d2eb31cfc86e1743fb1fee4c07fcecd4",
    "analyze --k 16..20 --ell 1..6":
        "60943fa0a20790bdec3de69cdb0b7c55dc48a2ba1786f1f539975636a6f49749",
    "analyze --k 31..32 --ell 1..6":
        "859833077302bc645b0cb4c24d09e713c021e0e868110abc6114a2c00ad5a5c1",
}


@pytest.mark.parametrize("command", sorted(PINNED_DOCUMENTS))
def test_verify_and_analyze_documents_are_pinned(command):
    out = fresh_python("-m", "reczeros.cli", *command.split(),
                       "--format", "json")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DOCUMENTS[command]


#: sha256 of large-k certify documents, in JSON from the CLI in a fresh
#: process; taken while alpha refinement was plain sign bisection.  Their
#: boxes are where a float estimate of the root is hardest to use.
PINNED_LARGE_K_DOCUMENTS = {
    "certify --k 44 --ell 1..3":
        "9b0d60548bfc7a975bcca6e6668fe20202e87ec776d75974a8736c90711e0b61",
    "certify --k 64 --ell 1..6":
        "01cb5f0b99f86afdef19f698c0de0efe08d6d81d0a6dcadd7205fa24073d380a",
    "certify --k 100 --ell 1":
        "2959f5f4515ade9adc4c293d30beef296f9b49868f61d1372a5c2ee97c6d40d3",
}


@pytest.mark.parametrize("command", sorted(PINNED_LARGE_K_DOCUMENTS))
def test_large_k_certify_documents_are_pinned(command):
    out = fresh_python("-m", "reczeros.cli", *command.split(),
                       "--format", "json")
    assert (hashlib.sha256(out.encode()).hexdigest()
            == PINNED_LARGE_K_DOCUMENTS[command])


#: sha256 of each command's JSON, CSV and table renderings, produced by
#: the CLI in a fresh process; taken when every builder still converted
#: its fields by hand and rows_for spelled out each header.
RENDERED_DOCUMENTS = {
    ("construct --k 1..6 --ell 1..3", "json"):
        "f27b9c462f56384de05f6927d6f71e42bb4416ef4d067cf041db40017ff9083f",
    ("construct --k 1..6 --ell 1..3", "csv"):
        "3740d28b9fef976b626af54ad0a376129716163ca5e976d9ffa6b4c5e3a29a5a",
    ("construct --k 1..6 --ell 1..3", "table"):
        "2c72e0b1de208b4eb5fd0b5ef8cdc2a63340b04e752b1bb4236995f6a96fa229",
    ("certify --k 1..14 --ell 1..6", "json"):
        "8fb7cdd1612c4b0d9b07b05fd992ac5c94e4ae8d136c81f5ad58c6e30047565d",
    ("certify --k 1..14 --ell 1..6", "csv"):
        "f054401c4141120ae4f8bb2111b13939b24e94391d8e268bd1cfa3d42cb18e1a",
    ("certify --k 1..14 --ell 1..6", "table"):
        "6b7e22fb8847710b8442fa139ddce73560ee1e872099f8927d7ffa7b59dfacb8",
    ("scan --k 1..12 --ell 1..6", "json"):
        "df0afa6bbde36e9c97bef36f91135a2b195a05ea9a686afc416fc50c5926690d",
    ("scan --k 1..12 --ell 1..6", "csv"):
        "2f837d4b938f51aa97531b4ba20f3930f227144efc7e252e1b0b6bceceb36bf1",
    ("scan --k 1..12 --ell 1..6", "table"):
        "c3714bff923c4c6e3635d617c9501a59004ef5e431d5cf9a2214da33bf41a635",
    ("analyze --k 1..8 --ell 1..3", "json"):
        "92cc1bca469eacdaff32623a78bde06287b81d3a99f351f03908b120d137949f",
    ("analyze --k 1..8 --ell 1..3", "csv"):
        "b9ddeecc2b72a11c69461e36c9fcfd11a40de5fe3a94a05955e080e84ee28b70",
    ("analyze --k 1..8 --ell 1..3", "table"):
        "8091cd3fb8d12d401e56ce0423984e88fe2ac6cad041087507bd8610c1637d06",
    ("verify --k-max 8 --ell-max 3", "json"):
        "f5ed700bc2082f8a7fb3d4e6dff65367e653add0b4916459b46003860f297f36",
    ("verify --k-max 8 --ell-max 3", "csv"):
        "8ac68bb316d62ea3728173add06e0af408af65cef52c7f7718be42434cc30f6d",
    ("verify --k-max 8 --ell-max 3", "table"):
        "f89f9123d1ff475eacbe3ea7256fdb29954b22b032c8c76c68ac4e4c5c04c778",
}


@pytest.mark.parametrize("command, fmt", sorted(RENDERED_DOCUMENTS))
def test_rendered_documents_are_pinned(command, fmt):
    out = fresh_python("-m", "reczeros.cli", *command.split(),
                       "--format", fmt)
    assert (hashlib.sha256(out.encode()).hexdigest()
            == RENDERED_DOCUMENTS[command, fmt])


def test_forced_sturm_fallback_gives_the_same_certify_document(
        monkeypatch, capsys):
    # the fallback boxes the root beyond 4 as (4, B) with the same endpoint
    # signs, and the route is not a document field
    monkeypatch.setattr(certify, "alternation_box", lambda w, n: None)
    certify.zero_certificate.cache_clear()
    try:
        main(["certify", "--k", "1..14", "--ell", "1..6", "--format", "json"])
        assert certify.zero_certificate(14, 6).route == "sturm"
    finally:
        certify.zero_certificate.cache_clear()
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest()
            == RENDERED_DOCUMENTS["certify --k 1..14 --ell 1..6", "json"])


def test_cli_import_leaves_analysis_and_the_pool_unloaded():
    """The eight layer modules are in sys.modules (the benchmark tracer
    looks each one up there; claims is bound there unexecuted), and
    dataclasses with its inspect import does not load."""
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


def test_only_verify_executes_claims():
    """An audit hook sees each module body run, from cached bytecode or
    not: construct, certify, scan and analyze run no code of claims.py,
    verify does, and reczeros.claims is in sys.modules from the start and
    an attribute of the package.  The lazy module object is not inspected
    before verify, as that would run it."""
    out = fresh_python("-c", (
        "import json, os, sys\n"
        "ran = []\n"
        "sys.addaudithook(lambda event, args: event == 'exec' and "
        "ran.append(getattr(args[0], 'co_filename', None)))\n"
        "import reczeros.cli\n"
        "bound = 'reczeros.claims' in sys.modules\n"
        "claims_py = os.path.join(os.path.dirname(reczeros.cli.__file__), "
        "'claims.py')\n"
        "seen = {}\n"
        "for argv in (['construct', '--k', '1..3', '--ell', '1..2'],\n"
        "             ['certify', '--k', '1..4', '--ell', '1..2'],\n"
        "             ['scan', '--k', '1..4', '--ell', '1..2'],\n"
        "             ['analyze', '--k', '1..3', '--ell', '1..2'],\n"
        "             ['verify', '--k-max', '3', '--ell-max', '1']):\n"
        "    code = reczeros.cli.main(argv + ['--out', os.devnull])\n"
        "    seen[argv[0]] = [code, claims_py in ran]\n"
        "import reczeros.claims\n"
        "bound = bound and reczeros.claims is sys.modules['reczeros.claims']\n"
        "print(json.dumps([bound, seen]))"))
    bound, seen = json.loads(out)
    assert bound
    assert seen == {"construct": [0, False], "certify": [0, False],
                    "scan": [0, False], "analyze": [0, False],
                    "verify": [0, True]}


def test_only_verify_and_analyze_execute_bounds():
    """The inequality stack in bounds.py runs only for the two commands
    that read it: construct, certify and scan execute no code of it, and
    verify and analyze, each run last in its own process, do."""
    script = (
        "import json, os, sys\n"
        "ran = []\n"
        "sys.addaudithook(lambda event, args: event == 'exec' and "
        "ran.append(getattr(args[0], 'co_filename', None)))\n"
        "import reczeros.cli\n"
        "bounds_py = os.path.join(os.path.dirname(reczeros.cli.__file__), "
        "'bounds.py')\n"
        "seen = {}\n"
        "for argv in (['construct', '--k', '1..3', '--ell', '1..2'],\n"
        "             ['certify', '--k', '1..4', '--ell', '1..2'],\n"
        "             ['scan', '--k', '1..4', '--ell', '1..2'],\n"
        "             sys.argv[1:]):\n"
        "    code = reczeros.cli.main(argv + ['--out', os.devnull])\n"
        "    seen[argv[0]] = [code, bounds_py in ran]\n"
        "print(json.dumps(seen))")
    for last in (["analyze", "--k", "1..3", "--ell", "1..2"],
                 ["verify", "--k-max", "3", "--ell-max", "1"]):
        seen = json.loads(fresh_python("-c", script, *last))
        assert seen == {"construct": [0, False], "certify": [0, False],
                        "scan": [0, False], last[0]: [0, True]}


def test_cli_reuses_a_claims_module_already_loaded():
    """Importing claims before the command line keeps the one module
    object, so its functions still pickle to worker processes."""
    out = fresh_python("-c", (
        "import json, sys\n"
        "import reczeros.claims\n"
        "first = sys.modules['reczeros.claims']\n"
        "import reczeros.cli\n"
        "from reczeros import serialize\n"
        "kept = sys.modules['reczeros.claims'] is first\n"
        "kept = kept and reczeros.cli.claims is first\n"
        "docs = [serialize.render(serialize.verify_document(\n"
        "    first.run_all(4, 2, jobs=jobs)), 'json')\n"
        "    for jobs in (1, 2)]\n"
        "print(json.dumps([kept, docs[0] == docs[1]]))"))
    assert json.loads(out) == [True, True]


def test_library_imports_load_no_test_extra():
    """sympy and the other test extras stay out of the library: importing
    the command line and then the analysis layer loads none of them."""
    out = fresh_python("-c", (
        "import sys, json, reczeros.cli, reczeros.analysis\n"
        "extras = ('sympy', 'numpy', 'mpmath', 'hypothesis', 'jsonschema')\n"
        "print(json.dumps([m for m in extras if m in sys.modules]))"))
    assert json.loads(out) == []


def test_only_construct_builds_the_companion():
    """certify, verify and scan check the companion identity inside
    reciprocal_poly and never build the companion itself."""
    out = fresh_python("-c", (
        "import contextlib, io\n"
        "from reczeros import family\n"
        "from reczeros.cli import main\n"
        "for argv in (['certify', '--k', '1..6', '--ell', '1..4'],\n"
        "             ['verify', '--k-max', '6', '--ell-max', '4'],\n"
        "             ['scan', '--k', '1..6', '--ell', '1..4']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        main(argv)\n"
        "print(family.reciprocal_poly.cache_info().currsize,\n"
        "      family.monic_even_form.cache_info().currsize)"))
    built, companions = map(int, out.split())
    assert built >= 24
    assert companions == 0


def test_tracer_entry_points_resolve():
    """Every name the benchmark tracer wraps still exists, except the ones
    deleted from the library on purpose and named here, so a deletion
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
    # no command ran the polycore and sqrt ones; the enclosures moved to
    # bounds, which no entry point names yet; the tracer skips them all and
    # lists them as missing
    assert missing == ["exactnum.zeta_even_enclosure",
                       "exactnum.zeta_series_enclosure",
                       "interval.cos_enclosure", "interval.pi_enclosure",
                       "interval.pow_rounded", "interval.sqrt_enclosure",
                       "polycore.count_open", "polycore.eval_interval",
                       "polycore.isolate"]


#: The library functions no command enters, each with why it stays.
NEVER_ENTERED = {
    "certify._sturm_counts": "the fallback; alternation closes every member",
    "polycore._variations": "the fallback's variation count",
    "polycore.SturmChain.__init__": "the fallback's chain",
    "interval.Interval.__eq__": "value equality, which the tests compare by",
    "interval.Interval.__hash__": "kept consistent with __eq__",
    "interval.Interval.__repr__": "the bounds.pi_enclosure docstring example",
    "polycore.RootBox.__repr__": "the refine_root docstring example",
}

#: Small runs of every command, in every format, at --jobs 1.
SURFACE_COMMANDS = [
    "construct --k 1..3 --ell 1..2",
    "certify --k 1..6 --ell 1..3",
    "certify --k 3,14 --ell 1,6 --width 100",
    "verify --k-max 8 --ell-max 3",
    "verify --suite lemmas --k-max 4 --ell-max 2",
    "verify --suite props --k-max 4 --ell-max 2",
    "verify --suite intervals --k-max 4 --ell-max 2",
    "verify --k-max 3 --ell-max 1",
    "analyze --k 1..4 --ell 1..2",
    "scan --k 1..6 --ell 1..2",
]

#: Runs the commands given as arguments under sys.setprofile and prints
#: [file name, code name, first line] of every reczeros function entered.
_SURFACE_SCRIPT = """
import contextlib, io, json, os, sys
entered = set()
def profile(frame, event, _arg):
    if event == "call":
        code = frame.f_code
        entered.add((code.co_filename, code.co_name, code.co_firstlineno))
sys.setprofile(profile)
import reczeros
from reczeros.cli import main
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        if main(argv.split()) != 0:
            raise SystemExit("failed: " + argv)
sys.setprofile(None)
package = os.path.dirname(reczeros.__file__)
print(json.dumps(sorted([os.path.basename(path), name, line]
                        for path, name, line in entered
                        if os.path.dirname(path) == package)))
"""


def _library_functions():
    """(file name, code name, first line) -> qualified name of every
    function under src/reczeros, read off the compiled source.  Without
    co_qualname (3.11+) the first line tells same-named functions apart;
    for a decorated function it is the decorator's line, in the compiled
    source as in the running code.  Comprehensions and generator
    expressions are left out: they run on branches of the function that
    holds them."""
    package = os.path.dirname(certify.__file__)
    found = {}

    def walk(code, prefix):
        for const in code.co_consts:
            if (isinstance(const, types.CodeType)
                    and not const.co_name.startswith("<")):
                found[fname, const.co_name, const.co_firstlineno] = (
                    prefix + const.co_name)
                walk(const, prefix + const.co_name + ".")

    for fname in sorted(os.listdir(package)):
        if fname.endswith(".py"):
            path = os.path.join(package, fname)
            with open(path, encoding="utf-8") as fh:
                walk(compile(fh.read(), path, "exec"), fname[:-3] + ".")
    return found


def test_every_library_function_is_entered_by_a_command():
    """Library surface that only the tests call is gone: a profile of small
    runs of every command, in every format, enters every function under
    src/reczeros but the ones NEVER_ENTERED names."""
    argv = [command + " --jobs 1 --format " + fmt
            for command in SURFACE_COMMANDS
            for fmt in ("json", "csv", "table")]
    entered = {tuple(key) for key in
               json.loads(fresh_python("-c", _SURFACE_SCRIPT, *argv))}
    functions = _library_functions()
    assert entered & functions.keys()
    never = {name for key, name in functions.items() if key not in entered}
    assert never <= NEVER_ENTERED.keys(), sorted(never - NEVER_ENTERED.keys())


# ---------------------------------------------------------------------------
# behavior and exit codes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("width", ["100", "1000000"])
def test_coarse_width_encloses_alpha_outside_the_unit_disc(width, capsys):
    """A width wider than the whole (4, B) box still refines the box off
    its end at 4, where alpha's enclosure would reach down to 1."""
    code, doc = run_json(["certify", "--k", "3,14", "--ell", "1,6",
                          "--width", width], capsys)
    assert code == 0
    assert len(doc["instances"]) == 4
    for inst in doc["instances"]:
        lo, hi = F(inst["alpha"]["lo"]), F(inst["alpha"]["hi"])
        assert 1 < lo < hi and hi - lo <= F(width)


def test_coarse_width_skips_the_passes_that_leave_the_box_at_four(
        monkeypatch, capsys):
    """A pass whose target is at least the (4, B) box's width leaves the
    box as it is, so it is skipped, not run: each alpha takes a handful
    of passes, where running them one by one took about 830 per member
    here and minutes at --width 1e19729."""
    calls = []
    refine = certify.refine_root
    monkeypatch.setattr(certify, "refine_root",
                        lambda box, width: calls.append(width)
                        or refine(box, width))
    code = main(["certify", "--k", "3,14", "--ell", "1,6", "--width", "1e1000",
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert len(calls) <= 12
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6340090bcf6ecb25414a2daf508fc27c08dccc541c49a42ff1e284218693eeaa")


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
                     "derivative-sign-sums, unit-values, alpha-interval, "
                     "alpha-interval-k2, zero-location-grid"]



def test_inconclusive_note_names_each_claim_and_its_detail(monkeypatch,
                                                           capsys):
    # the l = 1 window walk runs out of widths, not of precision
    detail = "window membership undecided at the width floor"
    monkeypatch.setattr(claims, "check_alpha_interval",
                        lambda k_range, ell_range: claims.ClaimResult(
                            "alpha-interval", {}, claims.INCONCLUSIVE,
                            {}, {}, detail))
    assert main(["verify", "--suite", "intervals", "--k-max", "4",
                 "--ell-max", "1"]) == 0
    notes = [line for line in capsys.readouterr().err.splitlines()
             if "inconclusive" in line]
    assert notes == ["note: 1 inconclusive claim(s): alpha-interval (%s)"
                     % detail]

def test_analyze_runs_past_the_old_resultant_cap(capsys):
    code, doc = run_json(["analyze", "--k", "16", "--ell", "1"], capsys)
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


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_out_is_a_usage_error(where, tmp_path, capsys):
    target = tmp_path if where == "directory" else tmp_path / "no" / "x.json"
    code = main(["scan", "--k", "1..3", "--ell", "1", "--out", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot write --out %s: " % target)
    assert "Traceback" not in err


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


def test_rows_keep_the_alpha_columns_when_the_first_member_does_not_conform():
    good = serialize.certificate_instance(2, 1)
    bad = dict(good, k="9", conforms=False)
    del bad["alpha"]
    header, rows = serialize.rows_for(serialize.envelope("certify",
                                                         [bad, good]))
    assert header == ["k", "ell", "sigma", "degree", "simple",
                      "unimodular_count", "positive_pair_count",
                      "negative_pair_count", "complex_offcircle_count",
                      "root_at_one", "root_at_minus_one", "conforms",
                      "unity_roots", "alpha_lo", "alpha_hi"]
    assert rows[0][0] == "9" and rows[0][11] == "false"
    assert rows[0][-2:] == ["", ""]
    assert rows[1][-2:] == [good["alpha"]["lo"], good["alpha"]["hi"]]
    assert rows[1][11:13] == ["true", ";".join(good["unity_roots"])]


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
