"""Cold-process benchmark of cyclopack's search, certify and verify commands.

    python3 perfbench/run.py --workload search --seed 0 --seconds 30 --trace 0

Run from the repository root. Every operation is one fresh child process
(perfbench/child.py) that imports cyclopack from ./src and calls
cyclopack.cli.main, as a user running the CLI would: no cache survives from
one operation to the next. One child runs at a time.

A pass is the workload's list of operations. With --trace 0 the benchmark
repeats passes until the next one would end after --seconds and prints the
end-to-end metrics. With --trace 1 it runs one traced pass and prints its
per-layer metrics. Either way the last line of standard output is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

An operation fails if its child raises, times out or exits with another
code than expected, or if its output is wrong: a search certificate whose
bytes differ from perfbench/reference/m<m>.json, a certify run that does not
report the certificate verified, or a verify run with a failing suite.
README.md beside this file explains the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
sys.path.insert(0, str(BENCH))
from tracer import LAYERS  # noqa: E402

# the acceptance fields plus the g = 10 fields; at search seed 0, x = 0 wins
# on m = 3, 4 and 5, m = 8 needs three random twists and the others one
FIELDS = (3, 4, 5, 6, 8, 10, 12, 18, 30, 11, 22)
# g = 12 fields for which select_r raises NoQualifyingRadius at the seed
NO_RADIUS_FIELDS = (13, 26, 28, 36)
VERIFY_RUNS = ((12, 25), (30, 4))  # (m, trials)
SETUP_SAMPLES = 10  # extra cold starts per run, so setup_s is a steady median
CHILD_TIMEOUT_S = 150
RUN_LIMIT_S = 170  # a run ends by then even if operations hang
# The host this benchmark was built on ran the same code up to 1.5 times
# faster or slower from one minute to the next, as other tenants came and
# went. So the benchmark times a fixed exact-arithmetic kernel between
# operations and scales each measured time by KERNEL_REF_S over the kernel's
# time around it: times are reported at the host speed at which the kernel
# takes KERNEL_REF_S (about its median on that host, a 2-vCPU Xeon at
# 2.1 GHz with Python 3.11).
KERNEL_REF_S = 0.010
KERNEL_MATRIX = [[Fraction((i * 7 + j * 13) % 17 - 8 + (i * j + 3) ** 5, 1 + (i + 2 * j) % 5)
                  + (5 if i == j else 0) for j in range(16)] for i in range(16)]
SUITES = [n for n in LAYERS if n.startswith("verify.")]
TIMED_LAYERS = [n for n in LAYERS if not n.startswith("verify.")]

# layers each workload must reach; a wrapper with zero spans on its workload
# means the trace no longer sees that layer
_COMMON = {"cyclotomic.context", "cyclotomic.mul", "cyclotomic.coords_in_codiff",
           "linalg.determinant", "linalg.solve", "lattice.build_lattice",
           "lattice.checks", "svp.ball_volume", "svp.lll_reduce", "svp.enumerate",
           "svp.shortest_norm_sq", "search.count_N"}
EXPECTED = {
    # certify counts only winning twists, whose balls hold no candidate for chi
    "search": _COMMON | {"search.chi", "search.select_r", "search.j_value",
                         "search.certified_lower_bound"},
    "certify": _COMMON | {"search.certified_lower_bound"},
    "verify": _COMMON | {"search.chi", "search.select_r", "search.j_value"} | set(SUITES),
}


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


@dataclass
class Op:
    kind: str               # the cyclopack command
    label: str
    argv: list[str]
    expect_code: int = 0
    out: Path | None = None          # file the command writes
    reference: bytes | None = None   # bytes it must write


@dataclass
class Result:
    ok: bool
    op_s: float = 0.0
    setup_s: float = 0.0
    rss_kb: int = 0
    report: dict | None = None
    why: str = ""
    scale: float = 1.0  # host speed factor, see KERNEL_REF_S


def certificate_path(m: int) -> Path:
    return REFERENCE / f"m{m}.json"


def tamper(text: str) -> str:
    """Alter one digit of a certificate: the last digit of the numerator of
    bound_lo, the certified bound itself."""
    lo = json.loads(text)["bound_lo"]
    num, _, den = lo.partition("/")
    altered = num[:-1] + str((int(num[-1]) + 1) % 10) + "/" + den
    return text.replace(f'"{lo}"', f'"{altered}"', 1)


def output_ok(op: Op, code: int, stdout: str) -> str:
    """Empty string if the operation's output is right, else the reason."""
    if code != op.expect_code:
        return f"exit code {code}, expected {op.expect_code}"
    if op.reference is not None:
        try:
            got = op.out.read_bytes()
        except OSError as exc:
            return f"no output file: {exc}"
        if got != op.reference:
            return "certificate bytes differ from the reference"
    if op.kind == "certify" and op.expect_code == 0 and "certificate verified" not in stdout:
        return "certify did not report the certificate verified"
    if op.kind == "verify":
        lines = stdout.split()
        if lines.count("PASS") != len(SUITES) or "FAIL" in lines:
            return "verify did not pass every suite"
    return ""


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("CYCLOPACK_PRECISION", None)  # the certificates assume the default
    return env


def run_child(mode: str, argv: list[str], work: Path,
              limit: float) -> tuple[subprocess.CompletedProcess | None, dict | None, float]:
    """Run one child to its end, or kill it at CHILD_TIMEOUT_S or at the
    monotonic time limit; (None, None, spawn) if it was killed."""
    report_path = work / "report.json"
    report_path.unlink(missing_ok=True)
    spawn = time.monotonic()
    timeout = min(CHILD_TIMEOUT_S, limit - spawn)
    if timeout <= 0:
        return None, None, spawn
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(report_path), mode,
                               *argv], cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, None, spawn
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError):
        return proc, None, spawn
    if not Path(report["module"]).resolve().is_relative_to(SRC):
        raise SetupError(f"cyclopack was imported from {report['module']}, not from {SRC}")
    return proc, report, spawn


def run_op(op: Op, work: Path, limit: float, traced: bool = False) -> Result:
    if op.out is not None:
        op.out.unlink(missing_ok=True)
    proc, report, spawn = run_child("1" if traced else "0", op.argv, work, limit)
    if proc is None:
        return Result(False, why="timed out")
    if report is None or "op_s" not in report:
        return Result(False, why=f"child crashed: {proc.stderr.strip()[-400:]}")
    why = output_ok(op, proc.returncode, proc.stdout)
    return Result(not why, report["op_s"], report["imported"] - spawn, report["rss_kb"],
                  report, why)


def workload_ops(workload: str, seed: int, work: Path) -> tuple[list[Op], list[Op]]:
    """(ops of one pass, untimed checks made once per run).

    search always runs with --seed 0. The number of twists a search tries
    depends on its seed: over seeds 1..15, m = 30, 11 and 22 each took 2 to
    5, and the searches of all fields took 5.9 s to 9.8 s in one process.
    That luck would swamp the differences the benchmark exists to show, and
    seed 0 has a stored reference for every certificate byte. The workload
    seed orders the fields and seeds verify's random instances.
    """
    rng = random.Random(seed)
    fields = rng.sample(FIELDS, len(FIELDS))
    if workload == "search":
        return [Op("search", f"search m={m}",
                   ["search", "--m", str(m), "--seed", "0", "--out", str(work / f"m{m}.json")],
                   out=work / f"m{m}.json", reference=certificate_path(m).read_bytes())
                for m in fields], []
    if workload == "certify":
        ops = []
        for m in fields:
            path = work / f"m{m}.json"
            shutil.copyfile(certificate_path(m), path)
            ops.append(Op("certify", f"certify m={m}", ["certify", str(path)]))
        bad = work / "tampered.json"
        bad.write_text(tamper(certificate_path(12).read_text()))
        return ops, [Op("certify", "certify tampered m=12", ["certify", str(bad)],
                        expect_code=1)]
    if workload == "verify":
        return [Op("verify", f"verify m={m}",
                   ["verify", "--m", str(m), "--trials", str(trials), "--seed", str(seed)])
                for m, trials in VERIFY_RUNS], []
    raise ValueError(workload)


def _determinant(a: list[list[Fraction]]) -> Fraction:
    m = [row[:] for row in a]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= f * m[col][c]
    return det


def kernel_s() -> float:
    """Median time of five runs of the calibration kernel, now."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        _determinant(KERNEL_MATRIX)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(ops: list[Op], work: Path, limit: float, traced: bool = False) -> list[Result]:
    results = []
    before = kernel_s()
    for op in ops:
        r = run_op(op, work, limit, traced)
        after = kernel_s()
        r.scale = KERNEL_REF_S / ((before + after) / 2)
        before = after
        if not r.ok:
            print(f"FAILED {op.label}: {r.why}", file=sys.stderr)
        results.append(r)
    return results


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(ops: list[Op], work: Path, seconds: float,
               limit: float) -> tuple[list[Result], dict]:
    """Import-only set-up samples, then passes until the next one would end
    after `seconds`; every operation's results and the end-to-end metrics."""
    raw_setup = []
    before = kernel_s()
    for _ in range(SETUP_SAMPLES):
        _, report, spawn = run_child("setup", [], work, limit)
        if report is not None:
            raw_setup.append(report["imported"] - spawn)
    scale = KERNEL_REF_S / ((before + kernel_s()) / 2)
    setup_s = [t * scale for t in raw_setup]
    deadline = time.monotonic() + seconds
    passes: list[list[Result]] = []
    while True:
        start = time.monotonic()
        passes.append(run_pass(ops, work, limit))
        if time.monotonic() + (time.monotonic() - start) > deadline:
            break
    every = [r for p in passes for r in p]
    done = [r for r in every if r.ok]
    whole = [p for p in passes if all(r.ok for r in p)]
    setup_s += [r.setup_s * r.scale for r in done]
    raw_setup += [r.setup_s for r in done]
    for name, vals in (("raw pass sum", [sum(r.op_s for r in p) for p in whole]),
                       ("scaled pass sum", [sum(r.op_s * r.scale for r in p) for p in whole]),
                       ("raw setup", raw_setup), ("scaled setup", setup_s),
                       ("host speed", [r.scale for r in every])):
        if vals:
            q1, q2, q3 = quartiles(vals)
            print(f"{name}: median {q2:.4f}, quartiles {q1:.4f} .. {q3:.4f}, n={len(vals)}")
    metrics = {}
    if whole:
        # each operation's median over passes, summed over the pass: one slow
        # operation in one pass moves it less than the median of pass sums
        pass_s = sum(statistics.median(p[i].op_s * p[i].scale for p in whole)
                     for i in range(len(ops)))
        metrics = {
            "pass_s": {"value": pass_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": max(r.rss_kb for r in done) / 1024, "unit": "MB"},
        }
    return every, metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ops: list[Op], traced: list[Result], expected: set[str],
                  no_radius: int) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced pass, and the problems that make the
    trace unusable."""
    problems = []
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    own: dict[str, float] = {}
    counters: dict[str, float] = {}
    distinct = tried = zeros = 0
    tracing_s = traced_s = 0.0
    for op, r in zip(ops, traced):
        if r.report is None or "trace" not in r.report:
            continue
        tr = r.report["trace"]
        if abs(sum(s[2] for s in tr["stats"].values()) - r.report["span_s"]) > 1e-6:
            problems.append(f"{op.label}: self times do not add up to the operation")
        spans = sum(s[0] for name, s in tr["stats"].items() if name != "cli")
        tracing_s += spans * r.report["span_cost_s"]
        traced_s += r.report["span_s"]
        for name, (n, s, self_s) in tr["stats"].items():
            calls[name] = calls.get(name, 0) + n
            incl[name] = incl.get(name, 0.0) + s
            own[name] = own.get(name, 0.0) + self_s
        for key, v in tr["counters"].items():
            counters[key] = counters.get(key, 0) + v
        # one process per operation, so the distinct Grams of each add up
        distinct += tr["distinct_lll_grams"]
        if op.kind == "search":
            tried += tr["stats"].get("search.count_N", [0])[0]
            zeros += tr["counters"].get("search.count_N.zero", 0)
    problems += [f"wrapper {name} recorded no span"
                 for name in sorted(expected) if not calls.get(name)]

    metrics = {
        "cli.s": (incl.get("cli", 0.0), "s"),
        "cli.self_s": (own.get("cli", 0.0), "s"),
        # share of the traced time that the wrappers themselves add
        "trace.overhead_ratio": (_ratio(tracing_s, traced_s), "ratio"),
    }
    for name in TIMED_LAYERS:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (own.get(name, 0.0), "s")
    metrics.update({
        "svp.lll_reduce.distinct_ratio": (_ratio(distinct, calls.get("svp.lll_reduce", 0)),
                                          "ratio"),
        "svp.enumerate.points": (counters.get("svp.enumerate.points", 0), "count"),
        "search.count_N.points": (counters.get("search.count_N.points", 0), "count"),
        "search.chi.inside_ratio": (_ratio(counters.get("search.chi.inside", 0),
                                           calls.get("search.chi", 0)), "ratio"),
        "search.samples.tried": (tried, "count"),
        "search.samples.zero_ratio": (_ratio(zeros, tried), "ratio"),
        "search.select_r.no_radius": (no_radius, "count"),
    })
    for name in SUITES:
        metrics[f"{name}.s"] = (incl.get(name, 0.0), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, problems


def per_layer(workload: str, ops: list[Op], work: Path,
              limit: float) -> tuple[list[Result], dict, list[str]]:
    """One traced pass, and the select_r probe of the fields that have no
    radius; the probe is timed nowhere, so a fix that makes those fields
    reachable does not read as a slowdown."""
    traced = run_pass(ops, work, limit, traced=True)
    problems = []
    no_radius = 0
    for m in NO_RADIUS_FIELDS:
        _, report, _ = run_child("select_r", [str(m)], work, limit)
        if report is None:
            problems.append(f"select_r probe failed for m={m}")
        else:
            no_radius += report["no_radius"]
    metrics, found = layer_metrics(ops, traced, EXPECTED[workload], no_radius)
    return traced, metrics, problems + found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("search", "certify", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cyclopack" / "cli.py").is_file():
        print(f"error: no cyclopack sources under {SRC}", file=sys.stderr)
        return 2
    limit = time.monotonic() + RUN_LIMIT_S
    work = Path(tempfile.mkdtemp(prefix="work-", dir=BENCH))
    try:
        ops, checks = workload_ops(args.workload, args.seed, work)
        results = run_pass(checks, work, limit)
        problems = []
        if args.trace:
            done, metrics, problems = per_layer(args.workload, ops, work, limit)
        else:
            done, metrics = end_to_end(ops, work, args.seconds, limit)
        for p in problems:
            print(f"PROBLEM {p}", file=sys.stderr)
        results += done
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(not r.ok for r in results)
    print(json.dumps({"correct": failed == 0 and not problems and bool(metrics),
                      "attempted": len(results), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
