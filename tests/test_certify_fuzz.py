"""Property test of certify on mutated stored certificates: whatever a file
holds, `cyclopack certify` returns an exit code (0 verified, 1 mismatch or
invalid, 2 malformed) and never raises, and every file it accepts states the
true minimum of its lattice, a zero count and a bound above m - epsilon.

Only the g = 2 files are mutated, and a digit mutation keeps the number of
digits, so x keeps small denominators: r^2 is capped from both ends before
counting, but a large denominator of x still raises the cap on r^2."""
import json
import re
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from cyclopack.checker import parse_fmt_rat
from cyclopack.cli import main
from cyclopack.cyclotomic import CyclotomicContext
from cyclopack.lattice import build_lattice
from oracles import box_shortest_norm_sq
from test_certificate_parser import DOCS, mutated

G2_DOCS = [d for d in DOCS if d["g"] == 2]
REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


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


@pytest.mark.parametrize("key, value", [
    ("x", "1e-5000000"), ("epsilon", "1e-5000000"), ("r_sq", "1e5000000"),
    ("epsilon", "0.5"), ("lambda1_sq", "1"), ("bound_lo", " 1/2"), ("r_sq", "3_0/2"),
])
def test_certify_rejects_rationals_not_in_p_q_form(key, value, tmp_path, capsys):
    # Fraction reads decimals and exponents, and "1e-5000000" stands for a
    # number of millions of digits; only fmt_rat's "p/q" form is accepted,
    # so each file is rejected as malformed before any arithmetic
    doc = json.loads((REFERENCE / "m3.json").read_text())
    if key == "x":
        doc["x"][0] = value
    else:
        doc[key] = value
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    assert main(["certify", str(path)]) == 2
    assert time.perf_counter() - t0 < 1
    assert "malformed certificate" in capsys.readouterr().err


P_Q = re.compile(r"-?[0-9]+/[0-9]+")  # the form fmt_rat writes


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.from_regex(P_Q, fullmatch=True) | st.text("0123456789-+/ ._e\n\u00b2\u0661", max_size=8))
def test_parse_fmt_rat_reads_exactly_the_p_q_form(s):
    if not P_Q.fullmatch(s):
        with pytest.raises(ValueError, match='r must be a "p/q" rational'):
            parse_fmt_rat(s, "r")
    elif int(s.partition("/")[2]) == 0:
        with pytest.raises(ZeroDivisionError):
            parse_fmt_rat(s, "r")
    else:
        got = parse_fmt_rat(s, "r")
        assert type(got) is Fraction and got == Fraction(s)


@pytest.mark.parametrize("s", ["\u00b2/3", "\u0661/2", "+1/2", "1/-2", "1/2/3", "/2", "1/",
                               "-/2", "--1/2", "1/2\n", "1 /2", ""])
def test_parse_fmt_rat_rejects(s):
    # "\u00b2" (superscript two) and "\u0661" (Arabic-Indic one) are digits
    # to str.isdigit, not to [0-9]
    with pytest.raises(ValueError):
        parse_fmt_rat(s, "r")
