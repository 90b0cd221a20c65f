"""Every stored certificate re-certifies, and a fresh seed-0 search writes
it again byte for byte: the 13 files in certs/ and the 11 benchmark
references in perfbench/reference/, the 24 fields with phi(m) <= 12."""
import json
import re
from fractions import Fraction
from math import floor, gcd
from pathlib import Path

import pytest

from cyclopack import checker, linalg
from cyclopack.checker import (certificate_from_json_dict, certificate_to_json_dict,
                               certified_lower_bound, known_vector_in_ball, recompute_certificate)
from cyclopack.cli import dump_json
from cyclopack.cyclotomic import CyclotomicContext, phi
from cyclopack.lattice import build_lattice
from cyclopack.search import SearchConfig, search
from cyclopack.tables import bound_table
from oracles import fraction_lower_bound, rational_enumerate, rational_lll_reduce, real_gram

ROOT = Path(__file__).resolve().parent.parent
STORED = sorted([*ROOT.glob("certs/m*.json"), *ROOT.glob("perfbench/reference/m*.json")],
                key=lambda p: int(p.stem[1:]))


def test_stored_certificates_cover_every_field_up_to_g12():
    ms = [int(p.stem[1:]) for p in STORED]
    assert len(ms) == len(set(ms)) == 24
    assert sorted(ms) == [m for m in range(3, 43) if phi(m) <= 12]


@pytest.mark.parametrize("path", STORED, ids=lambda p: p.stem)
def test_stored_certificate_recertifies(path):
    cert = certificate_from_json_dict(json.loads(path.read_text()))
    fresh, mismatches = recompute_certificate(cert)
    assert mismatches == []
    assert fresh.is_valid()
    assert cert.bound_lo > cert.m - cert.epsilon


@pytest.mark.parametrize("path", STORED, ids=lambda p: p.stem)
def test_stored_certificate_researches(path):
    cert = search(SearchConfig(m=int(path.stem[1:])))
    assert dump_json(certificate_to_json_dict(cert)) == path.read_text()


@pytest.mark.parametrize("path", STORED, ids=lambda p: p.stem)
def test_stored_lambda1_sq_by_the_rational_pipeline(path):
    # lambda_1^2 of the stored lattice again, sharing no code with svp: the
    # Fraction LLL of its Gram matrix, then the Fraction walk to the least
    # diagonal entry of the reduced form, a squared norm of a lattice vector
    doc = json.loads(path.read_text())
    ctx = CyclotomicContext(doc["m"])
    lat = build_lattice(ctx, Fraction(doc["r_sq"]), ctx.element(map(Fraction, doc["x"])))
    _, reduced, d, nu = rational_lll_reduce(real_gram(lat))
    radius = min(reduced[i][i] for i in range(len(reduced)))
    norms = [q for s, q in rational_enumerate(d, nu, radius) if any(s)]
    assert min(norms) == Fraction(doc["lambda1_sq"])


@pytest.mark.parametrize("path", STORED, ids=lambda p: p.stem)
def test_known_vector_denominator_on_the_stored_twists(path, monkeypatch):
    # known_vector_in_ball's vector (0, d) has d the denominator of
    # Phi_m'(zeta) x in lowest terms: the gcd reduction of x's codifferent
    # numerators over x's denominator, as the integer matrix of Phi_m'(zeta)
    # gives them
    doc = json.loads(path.read_text())
    ctx = CyclotomicContext(doc["m"])
    r_sq, x = Fraction(doc["r_sq"]), ctx.element(map(Fraction, doc["x"]))
    num = linalg.mat_vec(ctx.mul_matrix(ctx.different), x.num)
    d = x.den // gcd(x.den, *num)
    assert ctx.coords_in_codiff(x).den == d
    asked = []
    monkeypatch.setattr(checker, "chi_norm_sq", lambda two_g, nsq, bound, bits: asked.append(nsq))
    assert known_vector_in_ball(ctx, r_sq, x, ctx.m - Fraction(doc["epsilon"]),
                                doc["precision_bits"]) is None
    assert asked[0] == Fraction(d * d * ctx.g) / r_sq


def test_readme_table_matches_stored_certificates():
    # README's "Certified values" rows: g, table's m_best, m, bound_lo rounded down
    rows = re.findall(r"^\| (\d+) \| (\d+) \| (\d+) \| (\d+\.\d\d) \|$",
                      (ROOT / "README.md").read_text(), re.MULTILINE)
    docs = [json.loads(p.read_text()) for p in STORED]
    m_best = {row.g: row.m_best for row in bound_table(sorted({d["g"] for d in docs}))}
    expect = sorted((d["g"], m_best[d["g"]], d["m"],
                     floor(Fraction(d["bound_lo"]) * 100)) for d in docs)
    assert [(int(g), int(b), int(m), int(v.replace(".", ""))) for g, b, m, v in rows] == expect


@pytest.mark.parametrize("path", STORED, ids=lambda p: p.stem)
def test_stored_bound_lo_matches_the_fraction_reference(path):
    # certified_lower_bound multiplies the lower end of v_2g by lambda1^2g;
    # the reference refines the Fraction interval product
    cert = certificate_from_json_dict(json.loads(path.read_text()))
    args = (2 * cert.g, cert.lambda1_sq, cert.m - cert.epsilon, cert.precision_bits)
    assert certified_lower_bound(*args) == fraction_lower_bound(*args) == cert.bound_lo
