"""The benchmark's layer pins.

perfbench/tracer.py wraps cyclopack functions by name, and perfbench/run.py
rejects a traced pass in which a layer of its workload's EXPECTED set records
no span. One small traced operation per workload must reach every one of
those layers, so a rename or a bypass shows here, not only in the benchmark.
These tests read perfbench/ and change nothing there.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
_spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
run = sys.modules["perfbench_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


@pytest.mark.parametrize("workload, argv", [
    ("search", ["search", "--m", "6", "--seed", "0"]),
    ("certify", ["certify", str(run.REFERENCE / "m3.json")]),
    # m = 6, not 3: J(r) at m = 3, 4 and 5 is an empty sum, which reads no
    # ball volume
    ("verify", ["verify", "--m", "6", "--trials", "1"]),
])
def test_traced_operation_reaches_every_expected_layer(workload, argv, tmp_path):
    proc, report, _ = run.run_child("1", argv, tmp_path, float("inf"))
    assert proc is not None and proc.returncode == 0, proc and proc.stderr
    stats = report["trace"]["stats"]
    missing = sorted(name for name in run.EXPECTED[workload] if not stats.get(name, [0])[0])
    assert not missing, f"{workload}: no span for {missing}"


def test_select_r_probe_finds_a_radius(tmp_path):
    # perfbench's probe calls select_r with SearchConfig's r_grid and catches
    # NoQualifyingRadius; on the unbounded default grid m = 13 finds a radius
    proc, report, _ = run.run_child("select_r", ["13"], tmp_path, float("inf"))
    assert proc is not None and proc.returncode == 0, proc and proc.stderr
    assert report["no_radius"] is False
