"""Tests of the benchmark's own code.

    python3 -m pytest perfbench

Run from the repository root. The operations they start are cold child
processes of the smallest fields, a few seconds in all.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import tracer as tracing  # noqa: E402

LIMIT = float("inf")  # no run time limit for these operations


class FakeClock:
    def __init__(self, *times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4], which holds b [2, 3], then c [5, 9]
    t = tracing.Tracer(clock=FakeClock(0, 1, 2, 3, 4, 5, 9, 10))
    t.enter("root")
    t.enter("a")
    t.enter("b")
    t.exit()
    t.exit()
    t.enter("c")
    t.exit()
    t.exit()
    # [calls, inclusive, self]
    assert t.stats == {"root": [1, 10, 3], "a": [1, 3, 2], "b": [1, 1, 1], "c": [1, 4, 4]}
    assert sum(s[2] for s in t.stats.values()) == 10


def test_repeated_spans_add_up():
    t = tracing.Tracer(clock=FakeClock(0, 1, 2, 4, 7, 8))
    t.enter("root")
    for _ in range(2):
        t.enter("leaf")
        t.exit()
    t.exit()
    assert t.stats == {"root": [1, 8, 4], "leaf": [2, 4, 4]}


def _traced_lll(*grams):
    t = tracing.Tracer()
    lll = tracing.wrap(t, "svp.lll_reduce", lambda gram: gram)
    t.enter("cli")
    for g in grams:
        lll(g)
    span = t.exit()
    report = {"trace": t.report(), "span_s": span, "span_cost_s": 1e-6}
    op = run.Op("certify", "synthetic", [])
    metrics, problems = run.layer_metrics([op], [run.Result(True, report=report)],
                                          {"svp.lll_reduce"}, 0)
    return metrics, problems


def test_distinct_ratio_on_repeated_grams():
    g = [[2, 1], [1, 2]]
    metrics, problems = _traced_lll(g, [row[:] for row in g], g, g)
    assert problems == []
    assert metrics["svp.lll_reduce.calls"]["value"] == 4
    assert metrics["svp.lll_reduce.distinct_ratio"]["value"] == 0.25


def test_distinct_ratio_on_distinct_grams():
    metrics, _ = _traced_lll([[2, 1], [1, 2]], [[3, 1], [1, 2]], [[2, 0], [0, 2]])
    assert metrics["svp.lll_reduce.distinct_ratio"]["value"] == 1.0


def test_missing_wrapper_is_a_problem():
    _, problems = run.layer_metrics([], [], {"svp.lll_reduce"}, 0)
    assert problems == ["wrapper svp.lll_reduce recorded no span"]


def test_tamper_alters_exactly_one_digit():
    text = run.certificate_path(12).read_text()
    bad = run.tamper(text)
    assert len(bad) == len(text)
    assert sum(a != b for a, b in zip(text, bad)) == 1


def test_search_writing_an_altered_certificate_fails(tmp_path):
    out = tmp_path / "m4.json"
    ref = run.certificate_path(4).read_text()
    op = run.Op("search", "search m=4",
                ["search", "--m", "4", "--seed", "0", "--out", str(out)],
                out=out, reference=run.tamper(ref).encode())
    r = run.run_op(op, tmp_path, LIMIT)
    assert not r.ok
    assert r.why == "certificate bytes differ from the reference"
    assert out.read_text() == ref  # the program itself wrote the reference bytes


def test_certify_of_an_altered_certificate_fails(tmp_path):
    path = tmp_path / "m4.json"
    path.write_text(run.tamper(run.certificate_path(4).read_text()))
    r = run.run_op(run.Op("certify", "certify m=4", ["certify", str(path)]), tmp_path, LIMIT)
    assert not r.ok
    assert r.why == "exit code 1, expected 0"


def test_pass_scales_each_operation_by_host_speed(tmp_path):
    ops = [run.Op("verify", "verify m=3", ["verify", "--m", "3", "--trials", "1"])] * 2
    results = run.run_pass(ops, tmp_path, LIMIT)
    assert all(r.ok and 0.1 < r.scale < 10 for r in results)
    assert results[0].scale != results[1].scale


def test_traced_verify_reaches_every_suite(tmp_path):
    ops = [run.Op("verify", "verify m=12", ["verify", "--m", "12", "--trials", "25"])]
    r = run.run_op(ops[0], tmp_path, LIMIT, traced=True)
    assert r.ok, r.why
    metrics, problems = run.layer_metrics(ops, [r], run.EXPECTED["verify"], 0)
    assert problems == []
    assert metrics["search.count_N.calls"]["value"] > 0
    assert 0 < metrics["trace.overhead_ratio"]["value"] < 1
    own = sum(metrics[f"{n}.self_s"]["value"] for n in run.TIMED_LAYERS)
    suites = [metrics[f"{n}.s"]["value"] for n in run.SUITES]
    assert all(s > 0 for s in suites)
    assert own + metrics["cli.self_s"]["value"] <= metrics["cli.s"]["value"] + 1e-6
