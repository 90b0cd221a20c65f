"""Property test of the certificate parser on mutated stored certificates:
whatever a file holds, certificate_from_json_dict returns a Certificate or
raises CertificateFormatError, never any other exception."""
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclopack.checker import Certificate, CertificateFormatError, certificate_from_json_dict
from cyclopack.cli import main
from test_certs import STORED
from test_search import REFERENCE

DOCS = [json.loads(p.read_text()) for p in STORED]
RATIONALS = ("epsilon", "r_sq", "lambda1_sq", "bound_lo")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)

SWAPS = (json.dumps, lambda v: [v], lambda v: {"value": v}, lambda v: None,
         lambda v: int(v) if isinstance(v, (bool, int)) else len(str(v)),
         lambda v: float(v) if isinstance(v, (bool, int)) else True)


def paths(doc):
    """(container, key) for every value of doc: top-level keys, the entries
    of checks and the coordinates of x, where those are still containers."""
    out = [(doc, k) for k in sorted(doc)]
    if isinstance(doc.get("checks"), dict):
        out += [(doc["checks"], k) for k in sorted(doc["checks"])]
    if isinstance(doc.get("x"), list):
        out += [(doc["x"], i) for i in range(len(doc["x"]))]
    return out


def rational_paths(doc, rationals=RATIONALS):
    out = [(doc, k) for k in rationals if isinstance(doc.get(k), str)]
    if isinstance(doc.get("x"), list):
        out += [(doc["x"], i) for i, v in enumerate(doc["x"]) if isinstance(v, str)]
    return out


@st.composite
def mutated(draw, docs=DOCS, kinds=("drop", "replace", "swap", "digit"),
            rationals=RATIONALS):
    """One of docs with 1 to 3 mutations of the given kinds; a digit
    mutation changes one digit of x or of one of the named rationals."""
    doc = json.loads(json.dumps(draw(st.sampled_from(docs))))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(kinds))
        if kind == "digit":
            places = [(c, k, i) for c, k in rational_paths(doc, rationals)
                      for i, ch in enumerate(c[k]) if ch.isdigit()]
            if not places:
                continue
            c, k, i = draw(st.sampled_from(places))
            digit = draw(st.sampled_from([d for d in "0123456789" if d != c[k][i]]))
            c[k] = c[k][:i] + digit + c[k][i + 1:]
            continue
        c, k = draw(st.sampled_from(paths(doc)))
        if kind == "drop":
            del c[k]
        elif kind == "replace":
            c[k] = draw(json_values)
        else:
            c[k] = draw(st.sampled_from(SWAPS))(c[k])
    return doc


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(mutated())
def test_parser_returns_certificate_or_format_error(doc):
    try:
        cert = certificate_from_json_dict(doc)
    except CertificateFormatError:
        return
    assert isinstance(cert, Certificate)


def test_zero_denominator_names_the_field():
    doc = dict(DOCS[0], r_sq="1/0")
    with pytest.raises(CertificateFormatError,
                       match="^malformed certificate: r_sq has a zero denominator, got '1/0'$"):
        certificate_from_json_dict(doc)


@pytest.mark.parametrize("field, value", [("seed", -5), ("sample_index", -1)])
def test_negative_seed_or_sample_index_names_the_field(field, value, tmp_path, capsys):
    # a search refuses seed < 0 and numbers its candidates from 0, so such a
    # file is malformed, not a certificate that verifies
    doc = dict(json.loads((REFERENCE / "m3.json").read_text()), **{field: value})
    with pytest.raises(CertificateFormatError,
                       match=f"^malformed certificate: {field} must be >= 0, got {value}$"):
        certificate_from_json_dict(doc)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    assert main(["certify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and f"{field} must be >= 0" in err
