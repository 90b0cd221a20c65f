"""Property test of certify on mutated stored certificates: whatever a file
holds, `cyclopack certify` returns an exit code (0 verified, 1 mismatch or
invalid, 2 malformed) and never raises, and every file it accepts states the
true minimum of its lattice, a zero count and a bound above m - epsilon.

Only the g = 2 files are mutated, and a digit mutation keeps the number of
digits, so x keeps small denominators: r^2 is capped from both ends before
counting, but a large denominator of x still raises the cap on r^2."""
import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import event, given, settings

from cyclopack.cli import main
from cyclopack.cyclotomic import CyclotomicContext
from cyclopack.lattice import build_lattice
from oracles import box_shortest_norm_sq
from test_certificate_parser import DOCS, mutated

G2_DOCS = [d for d in DOCS if d["g"] == 2]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(mutated(G2_DOCS) | mutated(G2_DOCS, kinds=("digit",), rationals=("epsilon", "r_sq")))
def test_certify_exits_cleanly_and_accepts_only_true_certificates(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cert.json"
        path.write_text(json.dumps(doc))
        code = main(["certify", str(path)])
    event(f"exit {code}")
    assert code in (0, 1, 2)
    if code == 0:
        ctx = CyclotomicContext(doc["m"])
        lat = build_lattice(ctx, Fraction(doc["r_sq"]), ctx.element(map(Fraction, doc["x"])))
        assert Fraction(doc["lambda1_sq"]) == box_shortest_norm_sq(lat.real_gram)
        assert doc["n_value"] == 0
        assert Fraction(doc["bound_lo"]) > doc["m"] - Fraction(doc["epsilon"])
