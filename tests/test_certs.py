"""Every stored certificate re-certifies, and a fresh seed-0 search writes
it again byte for byte: the 13 files in certs/ and the 11 benchmark
references in perfbench/reference/, the 24 fields with phi(m) <= 12."""
import json
import re
from fractions import Fraction
from math import floor
from pathlib import Path

import pytest

from cyclopack.checker import (certificate_from_json_dict, certificate_to_json_dict,
                               recompute_certificate)
from cyclopack.cli import dump_json
from cyclopack.cyclotomic import phi
from cyclopack.search import SearchConfig, search
from cyclopack.tables import bound_table

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


def test_readme_table_matches_stored_certificates():
    # README's "Certified values" rows: g, table's m_best, m, bound_lo rounded down
    rows = re.findall(r"^\| (\d+) \| (\d+) \| (\d+) \| (\d+\.\d\d) \|$",
                      (ROOT / "README.md").read_text(), re.MULTILINE)
    docs = [json.loads(p.read_text()) for p in STORED]
    m_best = {row.g: row.m_best for row in bound_table(sorted({d["g"] for d in docs}))}
    expect = sorted((d["g"], m_best[d["g"]], d["m"],
                     floor(Fraction(d["bound_lo"]) * 100)) for d in docs)
    assert [(int(g), int(b), int(m), int(v.replace(".", ""))) for g, b, m, v in rows] == expect
