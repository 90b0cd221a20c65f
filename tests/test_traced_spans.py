"""What the benchmark's tracer sees of a search.

perfbench/tracer.py wraps the module function svp.shortest_norm_sq, so each
lambda_1 a search takes must go through that function to show in the
svp.shortest_norm_sq layer. These tests read perfbench/ and change nothing
there.
"""
from test_layer_pins import run


def test_winner_lambda1_is_a_shortest_norm_sq_span(tmp_path):
    # at m = 6, seed 0, x = 0 loses and the first draw wins: select_r takes
    # the codifferent's lambda_1, and the winner's lambda_1 is a second span
    proc, report, _ = run.run_child("1", ["search", "--m", "6", "--seed", "0"],
                                    tmp_path, float("inf"))
    assert proc is not None and proc.returncode == 0, proc and proc.stderr
    assert report["trace"]["stats"]["svp.shortest_norm_sq"][0] >= 2
