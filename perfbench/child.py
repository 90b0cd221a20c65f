"""One cold cyclopack operation, timed from inside its own process.

    python3 perfbench/child.py REPORT TRACE [cli arguments...]
    python3 perfbench/child.py REPORT select_r M
    python3 perfbench/child.py REPORT setup

Run from the repository root with PYTHONPATH=src. The first form calls
cyclopack.cli.main with the given arguments, traced when TRACE is 1. The
second asks whether select_r finds a radius for field M, outside any timing.
The third only imports cyclopack.cli. Each writes a JSON report to REPORT:

    imported  CLOCK_MONOTONIC time at which cyclopack.cli finished importing
    op_s      wall time from entering cli.main to its return
    code      cli.main's return value (also the exit code of this process)
    rss_kb    ru_maxrss of this process
    module    the file cyclopack was imported from
    span_s    traced runs only: duration of the root span around cli.main
    trace     traced runs only: per-layer totals and counters
    span_cost_s  traced runs only: time one span adds to a call
"""
import importlib
import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    report_path, mode, rest = argv[0], argv[1], argv[2:]
    cli = importlib.import_module("cyclopack.cli")
    report = {"imported": time.monotonic(),
              "module": importlib.import_module("cyclopack").__file__}
    if mode == "setup":
        report["code"] = 0
    elif mode == "select_r":
        report.update(code=0, no_radius=_no_radius(int(rest[0])))
    else:
        tracer = None
        if mode == "1":
            import tracer as tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
            tracer.enter("cli")
        t0 = time.perf_counter()
        code = cli.main(rest)
        report["op_s"] = time.perf_counter() - t0
        report["code"] = code
        if tracer is not None:
            report["span_s"] = tracer.exit()
            report["trace"] = tracer.report()
            report["span_cost_s"] = tracing.span_cost()
    report["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(report_path, "w") as f:
        json.dump(report, f)
    return report["code"]


def _no_radius(m: int) -> bool:
    search = importlib.import_module("cyclopack.search")
    config = search.SearchConfig(m=m)
    ctx = search.CyclotomicContext(m)
    try:
        search.select_r(ctx, config.epsilon, config.r_grid, config.precision)
    except search.NoQualifyingRadius:
        return True
    return False


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
