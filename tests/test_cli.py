import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cyclopack import linalg
from cyclopack.checker import CHECK_NAMES, MAX_G, certificate_from_json_dict
from cyclopack.cli import COMMANDS, main, parse_args
from cyclopack.cyclotomic import CyclotomicContext
from cyclopack.search import SearchConfig
from cyclopack.tables import bound_table, primorial_row
from cyclopack.verify import SuiteResult
from oracles import argparse_parser


ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_python(*argv):
    """Run a fresh interpreter with these arguments, importing cyclopack
    from src; a run past the timeout fails the test instead of hanging it."""
    return subprocess.run([sys.executable, *argv],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)


def timed_main(*argv):
    """(exit code, seconds inside cli.main, stderr) of one command in a fresh
    interpreter, so a hang fails on the timeout instead of stalling the suite."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, time\nfrom cyclopack.cli import main\n"
                               "start = time.perf_counter()\ncode = main(sys.argv[1:])\n"
                               "print(code, time.perf_counter() - start)", *argv],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=20)
    code, seconds = proc.stdout.split()
    return int(code), float(seconds), proc.stderr


def test_construct_ok(tmp_path, capsys):
    out = tmp_path / "lat.json"
    code, _, _ = run(capsys, "construct", "--m", "4", "--r2", "2", "--x", "0",
                     "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    det = linalg.determinant([[e for e in row] for row in doc["symplectic"]])
    assert det == 1
    assert doc["checks"] == {"integrality": True, "unimodular": True,
                             "g_stable": True, "real_mult": True}


def test_construct_invalid_inputs(capsys):
    assert run(capsys, "construct", "--m", "2", "--r2", "1")[0] == 2
    assert run(capsys, "construct", "--m", "3", "--r2", "-1")[0] == 2
    assert run(capsys, "construct", "--m", "3", "--r2", "1", "--x", "1/2")[0] == 2


def test_out_into_missing_directory_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "--m", "4", "--r2", "2",
                       "--out", str(tmp_path / "missing" / "x.json"))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("target", ["missing/x.json", "a_directory"])
def test_unwritable_out_names_the_given_path(tmp_path, capsys, target):
    # the error names the path asked for, not the temporary file written
    # first, whether creating that file or renaming it fails
    (tmp_path / "a_directory").mkdir()
    out = str(tmp_path / target)
    code, stdout, err = run(capsys, "search", "--m", "4", "--out", out)
    assert code == 2 and stdout == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert repr(out) in err and ".tmp-" not in err
    assert os.listdir(tmp_path) == ["a_directory"] and not os.listdir(tmp_path / "a_directory")


@pytest.mark.parametrize("argv, name", [
    (["--m", "5", "--r2", "7/2", "--x", "1/3,-2/7,0,5/11"], "construct_m5.json"),
    (["--m", "12", "--r2", "3", "--x", "0"], "construct_m12.json"),
    (["--m", "22", "--r2", "21/2", "--x", "1/3,-2/7,0,5/11,1/2,-3/4,2/9,0,7/13,-1/5"],
     "construct_m22.json")])
def test_construct_output_is_pinned_byte_for_byte(capsys, argv, name):
    # tests/data holds these commands' stdout: m = 5 and 12 as the Fraction
    # Gram view wrote it, m = 22 (g = 10) as the integer forms wrote it before
    # they skipped the zero blocks
    code, out, _ = run(capsys, "construct", *argv)
    assert code == 0
    assert out == (ROOT / "tests" / "data" / name).read_text()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_out_file_mode_follows_the_umask(tmp_path, capsys, umask, mode):
    # --out writes through a temporary file and a rename; the file ends with
    # the mode open(path, "w") gives, 0o666 less the umask, not mkstemp's 0600
    old = os.umask(umask)
    try:
        assert run(capsys, "search", "--m", "3", "--out", str(tmp_path / "c.json"))[0] == 0
        assert run(capsys, "table", "--g", "2", "--out", str(tmp_path / "t.csv"))[0] == 0
    finally:
        os.umask(old)
    for name in ("c.json", "t.csv"):
        assert (tmp_path / name).stat().st_mode & 0o777 == mode, name


def test_search_and_certify_roundtrip(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, "search", "--m", "4", "--epsilon", "1/2",
                     "--seed", "0", "--out", str(cert))
    assert code == 0
    doc = json.loads(cert.read_text())
    a, b = map(int, doc["bound_lo"].split("/"))
    assert a / b > 3.5
    assert run(capsys, "certify", str(cert))[0] == 0

    # byte-identical rerun
    cert2 = tmp_path / "cert2.json"
    assert run(capsys, "search", "--m", "4", "--epsilon", "1/2", "--seed", "0",
               "--out", str(cert2))[0] == 0
    assert cert.read_bytes() == cert2.read_bytes()


def test_search_invalid_epsilon(capsys):
    assert run(capsys, "search", "--m", "5", "--epsilon", "6")[0] == 2


def test_search_refuses_a_negative_seed(capsys):
    # random.Random(-1) draws the twists of seed 1, and the certificate
    # would record -1
    code, out, err = run(capsys, "search", "--m", "8", "--seed", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "seed" in err


def test_search_budget_exhaustion(capsys):
    code, _, err = run(capsys, "search", "--m", "6", "--budget", "1")
    assert code == 3
    assert "best count seen: 6" in err
    assert "twists by N/m: 1: 1" in err


def test_search_rejects_the_removed_workers_flag():
    proc = run_python("-m", "cyclopack", "search", "--m", "4", "--workers", "2")
    assert proc.returncode == 2
    assert "error: unrecognized arguments: --workers 2" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_readme_search_bullet_names_exactly_the_parser_flags():
    flags = {f"--{flag}" for flag in COMMANDS["search"][3]}
    readme = (ROOT / "README.md").read_text()
    bullet = re.search(r"^\* `search`.*?(?=^\* |^$)", readme, re.M | re.S).group()
    assert set(re.findall(r"--[a-z][a-z0-9-]*", bullet)) == flags


def _sample(action) -> str:
    """A value argparse accepts for action."""
    if not action.option_strings:
        return "cert.json"
    return action.choices[-1] if action.choices else "7" if action.type is int else "1/3"


def test_parser_matches_argparse(capsys):
    oracle = argparse_parser()
    subs = next(a for a in oracle._actions if isinstance(a, argparse._SubParsersAction)).choices
    readme = (ROOT / "README.md").read_text()
    valid = [line.split()[1:] for line in readme.splitlines() if line.startswith("cyclopack ")]
    assert len(valid) == 6
    for name, sub in subs.items():
        actions = [a for a in sub._actions if a.dest != "help"]
        base = [name] + [tok for a in actions if a.required
                         for tok in (*a.option_strings[:1], _sample(a))]
        for a in actions:
            if a.option_strings:
                flag, value = a.option_strings[0], _sample(a)
                valid += [base + [flag, value], base + [f"{flag}={value}"]]
        assert main([name, "-h"]) == 0
        out = capsys.readouterr().out
        assert all(a.option_strings[0] in out for a in actions if a.option_strings)
    valid += [["search", "--m", "4", "--seed", "-1"],
              ["search", "--seed", "1", "--m", "4", "--seed=2"],
              ["search", "--prec", "256", "--m", "4"],
              ["certify", "--", "--cert.json"]]
    for argv in valid:
        expected = vars(oracle.parse_args(argv))
        fn, args = parse_args(argv)
        assert fn is expected.pop("fn") and expected.pop("command") == argv[0], argv
        assert vars(args) == expected, argv

    invalid = [[], ["bogus"], ["search"], ["search", "--m"], ["search", "--m", "x"],
               ["table", "--g", "2", "--format", "xml"], ["certify", "a.json", "b.json"],
               ["search", "--m", "4", "--workers", "2"]]
    for argv in invalid:
        with pytest.raises(ValueError):
            parse_args(argv)
        code, out, err = run(capsys, *argv)
        assert (code, out, err.count("\n")) == (2, "", 1) and err.startswith("error:"), argv
        with pytest.raises(SystemExit):
            oracle.parse_args(argv)
        capsys.readouterr()


def test_certify_detects_tampering(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(capsys, "search", "--m", "4", "--out", str(cert))
    doc = json.loads(cert.read_text())
    doc["lambda1_sq"] = "2/1"
    cert.write_text(json.dumps(doc))
    code, _, err = run(capsys, "certify", str(cert))
    assert code == 1
    assert "lambda1_sq" in err


def test_certify_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"m": 4, "g": 2')  # truncated
    assert run(capsys, "certify", str(bad))[0] == 2
    missing = tmp_path / "missing.json"
    missing.write_text('{"m": 4}')
    assert run(capsys, "certify", str(missing))[0] == 2
    assert run(capsys, "certify", str(tmp_path / "nope.json"))[0] == 2
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)  # nested past the JSON parser's recursion limit
    assert run(capsys, "certify", str(deep))[0] == 2


@pytest.mark.parametrize("field, value", [
    ("m", 2), ("epsilon", "5/1"), ("r_sq", "-1/1"), ("precision_bits", 4),
    ("precision_bits", 1000000), ("m", 4.9), ("precision_bits", 128.7),
    ("n_value", False), ("checks", dict.fromkeys(CHECK_NAMES, "false")), ("x", "00"),
    ("m", 10**12), ("m", 10**7), ("r_sq", "100/1"), ("r_sq", "1/1"), ("r_sq", "1/1000000"),
])
def test_certify_rejects_out_of_domain_fields(tmp_path, capsys, field, value):
    cert = tmp_path / "cert.json"
    assert run(capsys, "search", "--m", "4", "--out", str(cert))[0] == 0
    doc = json.loads(cert.read_text())
    doc[field] = value
    cert.write_text(json.dumps(doc))
    proc = run_python("-c", "from cyclopack.cli import entry; entry()", "certify", str(cert))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")


def test_certify_rejects_g_above_cap_at_once(tmp_path, capsys):
    # phi(1009) = 1008, so the coordinate count alone is consistent with m;
    # the cap on g rejects the file before a context build that grows as g^3
    doc = json.loads((ROOT / "perfbench" / "reference" / "m12.json").read_text())
    doc.update(m=1009, g=1008, x=["0/1"] * 1008)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, _, err = run(capsys, "certify", str(cert))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert f"g <= {MAX_G}" in err


@pytest.mark.parametrize("argv", [
    ["construct", "--m", "4", "--r2", "1e999999999"],
    ["search", "--m", "4", "--epsilon", "1e-999999999"],
    ["construct", "--m", "4", "--r2", "2", "--x", "1E999999999,0"],
])
def test_rational_with_an_exponent_exits_2_at_once(argv):
    # Fraction would build 10^999999999 digit by digit
    code, seconds, err = timed_main(*argv)
    assert code == 2 and seconds < 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "exponent" in err


def test_rational_with_a_zero_denominator_is_named(capsys):
    code, out, err = run(capsys, "construct", "--m", "4", "--r2", "1/0")
    assert (code, out) == (2, "")
    assert err == "error: a rational needs a nonzero denominator, got '1/0'\n"


def test_command_line_rationals_read_integers_fractions_and_decimals(capsys):
    for r2, x in (("2", "0"), ("4/2", "0/1,0"), ("2.0", "0.0, 0")):
        code, out, _ = run(capsys, "construct", "--m", "4", "--r2", r2, "--x", x)
        assert code == 0 and json.loads(out)["checks"]["unimodular"]
    assert run(capsys, "search", "--m", "4", "--epsilon", "0.5", "--seed", "0")[0] == 0


def test_cli_import_does_not_load_mpmath():
    # nor multiprocessing: every command, search included, runs in one process;
    # nor argparse, gettext or locale, whose import is most of a cold parse;
    # nor dataclasses and the inspect it pulls in: the records are namedtuples
    heavy = ("mpmath", "multiprocessing", "argparse", "gettext", "locale",
             "dataclasses", "inspect")
    proc = run_python("-c", f"import sys, cyclopack.cli as cli\nheavy = {heavy!r}\n"
                            "print([m for m in heavy if m in sys.modules])\n"
                            "code = cli.main(['certify', sys.argv[1]])\n"
                            "print([m for m in heavy if m in sys.modules], code)",
                      str(ROOT / "perfbench" / "reference" / "m12.json"))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[] 0")


def test_cold_cli_import_loads_no_heavy_module():
    # the modules the import adds, not all of sys.modules: a site hook may
    # load tempfile before any user code runs
    proc = run_python("-c", "import json, sys\nbefore = set(sys.modules)\n"
                            "import cyclopack.cli\n"
                            "print(json.dumps(sorted(set(sys.modules) - before)))")
    assert proc.returncode == 0, proc.stderr
    added = set(json.loads(proc.stdout))
    assert "cyclopack.cli" in added
    heavy = {"argparse", "dataclasses", "inspect", "tempfile", "numpy", "mpmath"}
    assert not added & heavy, added & heavy


def test_cli_loads_tempfile_only_to_write_a_file(tmp_path):
    # -S: no site, whose .pth files may import tempfile themselves
    proc = run_python("-S", "-c", "import sys, cyclopack.cli as cli\n"
                                  "code = cli.main(['certify', sys.argv[1]])\n"
                                  "print('tempfile' in sys.modules, code)\n"
                                  "code = cli.main(['construct', '--m', '4', '--r2', '2',\n"
                                  "                 '--x', '0', '--out', sys.argv[2]])\n"
                                  "print('tempfile' in sys.modules, code)",
                      str(ROOT / "perfbench" / "reference" / "m12.json"), str(tmp_path / "lat.json"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["False 0", "True 0"]


def test_python_m_cyclopack_runs_cli():
    proc = run_python("-m", "cyclopack", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "certify" in proc.stdout


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", "--m", "4", "--trials", "10")
    assert code == 0
    assert out.count("PASS") == 6


def test_verify_m12(capsys):
    code, out, _ = run(capsys, "verify", "--m", "12", "--trials", "25")
    assert code == 0
    assert "FAIL" not in out


def test_verify_m30_as_benchmarked(capsys):
    # perfbench/run.py's second verify operation; its output_ok needs one
    # PASS word per suite and no FAIL
    code, out, _ = run(capsys, "verify", "--m", "30", "--trials", "4", "--seed", "0")
    assert code == 0
    words = out.split()
    assert words.count("PASS") == 6 and "FAIL" not in words


def test_verify_rejects_nonpositive_trials(capsys):
    for trials in ("0", "-3"):
        code, out, err = run(capsys, "verify", "--m", "4", "--trials", trials)
        assert code == 2
        assert "PASS" not in out
        assert err.startswith("error:")


def test_verify_detects_injected_fault(capsys, monkeypatch):
    # simulate a broken conjugation: build_lattice twists by conj(b), so the
    # lattice loses its principal polarization and its unit action, while
    # norm invariance holds (the trace form and the zeta^-k of the unit
    # action need no conj); the CLI must dump the first failing instance
    monkeypatch.setattr(CyclotomicContext, "conj", lambda self, a: a)
    code, out, err = run(capsys, "verify", "--m", "4", "--trials", "10")
    assert code == 1
    lines = out.splitlines()
    assert "FAIL principality" in lines and "FAIL stability" in lines
    assert "PASS norm_invariance" in lines
    assert json.loads(err)["suite"] == "principality"
    assert "failing_instance" in json.loads(err)


def test_verify_point_suites_detect_a_broken_unit_action(capsys, monkeypatch):
    # zeta^k a replaced by a + a for k not 0 mod m: the norm of every nonzero
    # point is multiplied by 4 and the orbit collapses to two points
    act = CyclotomicContext.mul_zeta
    monkeypatch.setattr(CyclotomicContext, "mul_zeta",
                        lambda self, k, a: act(self, k, a) if k % self.m == 0 else a + a)
    code, out, err = run(capsys, "verify", "--m", "4")
    assert code == 1
    lines = out.splitlines()
    assert "FAIL norm_invariance" in lines and "FAIL free_orbit" in lines
    dump = json.loads(err)
    assert dump["suite"] == "norm_invariance"
    assert sorted(dump["failing_instance"]) == ["k", "trial", "x", "y"]
    assert dump["failing_instance"]["k"] == "1"


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--g", "2,4,8")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("g,m_best")
    assert lines[1:] == ["2,6,6,2,true,true", "4,12,12,2,true,true",
                         "8,30,30,2,true,true"]


def test_table_no_witness_row(capsys):
    code, out, _ = run(capsys, "table", "--g", "3")
    assert code == 0
    assert out.strip().split("\n")[1].startswith("3,0,0,2,")


def test_table_bad_flag(capsys):
    assert run(capsys, "table", "--g", "2,x")[0] == 2


@pytest.mark.parametrize("entry", ["abc", "", "2.5"])
def test_table_names_the_flag_of_a_dimension_that_is_not_an_int(capsys, entry):
    assert run(capsys, "table", "--g", f"4,{entry}") == (
        2, "", f"error: argument --g: {entry!r} is not an int\n")


def test_primorial(capsys):
    code, out, _ = run(capsys, "primorial", "--x", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 30 and doc["g"] == 8
    assert run(capsys, "primorial", "--x", "5", "--format", "json") == (0, out, "")


def test_primorial_csv(capsys):
    code, out, _ = run(capsys, "primorial", "--x", "5", "--format", "csv")
    assert code == 0
    header, row = out.splitlines()
    assert header == "m,g,bound,asymptotic_diag"
    assert row.split(",") == ["30", "8", "4^g*V_g >= 30", str(primorial_row(5).asymptotic_diag)]


def test_primorial_past_the_float_range(capsys):
    # x = 742 is the last x whose g = phi(m) lies below 2^1024; from x = 743
    # on the float asymptotic_diag overflows, which is a usage error
    code, out, err = run(capsys, "primorial", "--x", "742")
    doc = json.loads(out)
    assert (code, err) == (0, "") and doc["g"].bit_length() == 1015
    assert doc["asymptotic_diag"] == 3.856730470207922e+306
    for x in ("743", "1000"):
        for fmt in ("json", "csv"):
            code, out, err = run(capsys, "primorial", "--x", x, "--format", fmt)
            assert (code, out) == (2, "")
            assert err.startswith(f"error: x = {x}: g = phi(m) has ") and err.count("\n") == 1


@pytest.mark.parametrize("x", ["10000000", "1000000000"])
def test_primorial_far_past_the_float_range_exits_2_at_once(x):
    # m and g grow one prime at a time and stop at p = 743: no scan up to x
    code, seconds, err = timed_main("primorial", "--x", x)
    assert code == 2 and seconds < 1
    assert err.startswith(f"error: x = {x}: g = phi(m) has more than 1024 bits")
    assert err.count("\n") == 1


def test_table_for_a_large_g_exits_0_at_once(tmp_path):
    # inverse_phi_max searches the primes p with (p - 1) | g, not every m <= 2g^2 + 1
    out = tmp_path / "table.csv"
    code, seconds, err = timed_main("table", "--g", "3000", "--out", str(out))
    assert code == 0 and seconds < 2, err
    assert out.read_text().splitlines()[1].startswith("3000,11250,")


def test_table_for_a_g_with_hundreds_of_candidate_primes_exits_0(tmp_path):
    # 506 primes p have (p - 1) | g: one pass over them, no recursion per prime
    out = tmp_path / "table.csv"
    code, seconds, err = timed_main("table", "--g", "3491888400", "--out", str(out))
    assert code == 0 and seconds < 2, err
    assert out.read_text().splitlines()[1].startswith("3491888400,13443805914,")


@pytest.mark.parametrize("g", ["4294967297", "963761198400", "10" * 30])
def test_table_past_the_g_cap_exits_2_at_once(g):
    # g > 2^32 is refused before its divisors are searched
    code, seconds, err = timed_main("table", "--g", f"2,{g}")
    assert code == 2 and seconds < 1
    assert err == f"error: g must lie in [1, 2^32], got {g}\n"


@pytest.mark.parametrize("argv", [
    ["construct", "--r2", "2"], ["search"], ["verify"]])
@pytest.mark.parametrize("m", ["100000000000000000000", "503", "67"])
def test_a_field_past_the_g_cap_exits_2_at_once(argv, m):
    # phi(67) = 66 > MAX_G; the context of m = 503 alone would take minutes,
    # and phi of a huge m is never computed
    code, seconds, err = timed_main(*argv, "--m", m)
    assert code == 2 and seconds < 1
    assert err == f"error: m = {m} has phi(m) above the cap g <= {MAX_G}\n"


TABLE_JSON = """\
[
  {
    "bound_num": 6,
    "buser_sarnak": 2,
    "cor12_alpha_ok": true,
    "cor12_beta_ok": true,
    "g": 2,
    "m_best": 6
  },
  {
    "bound_num": 0,
    "buser_sarnak": 2,
    "cor12_alpha_ok": true,
    "cor12_beta_ok": true,
    "g": 3,
    "m_best": 0
  },
  {
    "bound_num": 12,
    "buser_sarnak": 2,
    "cor12_alpha_ok": true,
    "cor12_beta_ok": true,
    "g": 4,
    "m_best": 12
  },
  {
    "bound_num": 30,
    "buser_sarnak": 2,
    "cor12_alpha_ok": true,
    "cor12_beta_ok": true,
    "g": 8,
    "m_best": 30
  }
]
"""

PRIMORIAL_JSON = """\
{
  "asymptotic_diag": 115.71825249723287,
  "bound": "4^g*V_g >= 210",
  "g": 48,
  "m": 210
}
"""


def test_records_are_frozen_values_with_unchanged_output(capsys):
    doc = json.loads((ROOT / "perfbench" / "reference" / "m12.json").read_text())
    records = {  # a builder of each record, and one of its fields
        "SearchConfig": (lambda: SearchConfig(m=4, seed=3), "seed"),
        "Certificate": (lambda: certificate_from_json_dict(doc), "lambda1_sq"),
        "BoundRow": (lambda: bound_table([4])[0], "m_best"),
        "PrimorialRow": (lambda: primorial_row(5), "bound"),
        "SuiteResult": (lambda: SuiteResult("stability", True), "passed"),
    }
    for name, (build, field) in records.items():
        a, b = build(), build()
        assert type(a).__name__ == name and a == b and a is not b, name
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        assert a == b, name
    with pytest.raises(TypeError):
        SearchConfig(m=4, r_grid=())
    assert run(capsys, "table", "--g", "2,3,4,8", "--format", "json") == (0, TABLE_JSON, "")
    assert run(capsys, "primorial", "--x", "7") == (0, PRIMORIAL_JSON, "")


def test_precision_flag(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert run(capsys, "search", "--m", "4", "--precision", "64", "--out", str(cert))[0] == 0
    assert json.loads(cert.read_text())["precision_bits"] == 64
    assert run(capsys, "search", "--m", "4", "--precision", "8")[0] == 2


def test_verify_rejects_bad_m(capsys):
    assert run(capsys, "verify", "--m", "1")[0] == 2
