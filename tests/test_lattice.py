import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from cyclopack import linalg
from cyclopack.checker import run_checks
from cyclopack.cli import lattice_json_dict
from cyclopack.cyclotomic import CyclotomicContext
from cyclopack.lattice import PolarizedLattice, build_lattice
from conftest import get_ctx
from oracles import block_contains, contains, elimination_spans, identity, symplectic
from test_cyclotomic import random_element

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


def gram_oracle(ctx, r_sq, x, pairs):
    """Independent recomputation of both forms straight from the hermitian
    product expansion: for gamma = r*u + (i/r)*v,
    Re<g, g'> = r^2 Tr(u conj(u')) + (1/r^2) Tr(v conj(v')) and
    Im<g, g'> = Tr(v conj(u')) - Tr(u conj(v'))."""
    re, im = [], []
    for u, v in pairs:
        re.append([r_sq * (u * uu.conj()).trace() + (v * vv.conj()).trace() / r_sq
                   for uu, vv in pairs])
        im.append([(v * uu.conj()).trace() - (u * vv.conj()).trace()
                   for uu, vv in pairs])
    return re, im


def test_m4_unit_gram(ctx4):
    lat = build_lattice(ctx4, 2, ctx4.zero())
    assert lat.real_gram == identity(4)
    assert lat.det_real_gram() == 1
    assert lat.is_riemann_integral() and lat.is_unimodular()


def _perturbed_pairs(ctx):
    """The generators of build_lattice(ctx, 1, 0) with the first u part moved
    by half a codifferent basis vector: no longer a lattice of this family."""
    pairs = list(build_lattice(ctx, 1, ctx.zero()).generators)
    u0, v0 = pairs[0]
    pairs[0] = (u0 + Fraction(1, 2) * ctx.codiff_basis[0], v0)
    return pairs


def test_gram_formulas_match_oracle():
    rng = random.Random(51)
    for m in (3, 5, 8, 12, 30):
        ctx = get_ctx(m)
        for _ in range(5):
            r_sq = Fraction(rng.randint(4, 32), 8)
            x = random_element(ctx, rng)
            lat = build_lattice(ctx, r_sq, x)
            re, im = gram_oracle(ctx, r_sq, x, lat.generators)
            assert lat.real_gram == re
            assert symplectic(lat) == im
    # non-integral r^2 = p/q with a 53-bit twist, where the common
    # denominator p q D^2 of the integer assembly is largest
    for m in (5, 12, 30):
        ctx = get_ctx(m)
        x = sum((Fraction(rng.getrandbits(53), 1 << 53) * a for a in ctx.codiff_basis),
                ctx.zero())
        for r_sq in (Fraction(21, 2), Fraction(7, 3)):
            lat = build_lattice(ctx, r_sq, x)
            re, im = gram_oracle(ctx, r_sq, x, lat.generators)
            assert lat.real_gram == re
            assert symplectic(lat) == im
    # the forms are bilinear in arbitrary generators, not only in this family
    for m in (3, 12):
        ctx = get_ctx(m)
        pairs = _perturbed_pairs(ctx)
        lat = PolarizedLattice(ctx, Fraction(3, 2), ctx.zero(), pairs)
        re, im = gram_oracle(ctx, Fraction(3, 2), ctx.zero(), pairs)
        assert lat.real_gram == re
        assert symplectic(lat) == im


def test_symplectic_block_structure_at_zero_twist():
    for m in (3, 4, 5, 12):
        ctx = get_ctx(m)
        g = ctx.g
        lat = build_lattice(ctx, 1, ctx.zero())
        s = lat.symplectic_int()
        p = [[-(a * b.conj()).trace() for b in ctx.ok_basis] for a in ctx.codiff_basis]
        for j in range(g):
            for k in range(g):
                assert s[j][k] == 0 and s[g + j][g + k] == 0
                assert s[j][g + k] == p[j][k]
                assert s[g + j][k] == -p[k][j]
        assert abs(linalg.determinant([[Fraction(e) for e in row] for row in p])) == 1


def test_rejects_nonpositive_r_sq(ctx4):
    with pytest.raises(ValueError):
        build_lattice(ctx4, 0, ctx4.zero())
    with pytest.raises(ValueError):
        build_lattice(ctx4, Fraction(-1), ctx4.zero())


def test_riemann_integrality_random():
    rng = random.Random(53)
    for _ in range(30):
        m = rng.choice((3, 4, 5, 7, 8, 9, 10, 12))
        ctx = get_ctx(m)
        r_sq = Fraction(rng.randint(4, 32), 8)
        x = random_element(ctx, rng)
        lat = build_lattice(ctx, r_sq, x)
        assert lat.is_riemann_integral()
        assert lat.is_unimodular()
        assert lat.det_real_gram() == 1


def test_integrality_breaks_under_half_codifferent_perturbation(ctx3):
    assert build_lattice(ctx3, 1, ctx3.zero()).is_riemann_integral()
    # u0 moves by an element of (1/2)I that is not in I
    broken = PolarizedLattice(ctx3, 1, ctx3.zero(), _perturbed_pairs(ctx3))
    assert not broken.is_riemann_integral()


def test_unimodularity_agrees_with_the_fraction_determinant(ctx4, ctx3):
    # is_unimodular compares |det(C - C^T)| with D^(4g) on integers, with no
    # integrality check first; the determinant of the Fraction form agrees
    # on the index-2 sublattice, on non-integral forms of determinant 1 and
    # not 1, and on the perturbed generators of another family
    lat = build_lattice(ctx4, 2, ctx4.zero())
    (u0, v0), (u1, v1), *rest = lat.generators
    cases = [[(2 * u0, 2 * v0), (u1, v1), *rest],
             [(2 * u0, 2 * v0), (u1 / 2, v1 / 2), *rest],
             [(u0 / 3, v0 / 3), (u1, v1), *rest],
             [(3 * u0, 3 * v0), (u1 / 2, v1 / 2), *rest]]
    lattices = [PolarizedLattice(ctx4, 2, ctx4.zero(), pairs) for pairs in cases]
    lattices.append(PolarizedLattice(ctx3, 1, ctx3.zero(), _perturbed_pairs(ctx3)))
    assert [sub.is_unimodular() for sub in lattices] == [False, True, False, False, False]
    assert not lattices[1].is_riemann_integral()
    for sub in lattices:
        assert sub.is_unimodular() == (abs(linalg.determinant(symplectic(sub))) == 1)


def test_certificate_lattice_builds_few_fractions(monkeypatch):
    # every form of the lattice is integer rows over one denominator:
    # building the stored m = 22 certificate's lattice, preparing its form
    # and running its checks makes fewer Fractions than one generator row has
    # coordinates (2g)
    cert = json.loads((REFERENCE / "m22.json").read_text())
    ctx = get_ctx(22)
    r_sq, x = Fraction(cert["r_sq"]), ctx.element(map(Fraction, cert["x"]))
    new, made = Fraction.__new__, []

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    try:
        lat = build_lattice(ctx, r_sq, x)
        form = lat.form
        checks = run_checks(lat)
    finally:
        monkeypatch.undo()
    assert Fraction.__new__ is new
    assert all(checks.values()) and form.min_diagonal > 0
    assert len(made) < 2 * ctx.g, made


def test_unimodularity_breaks_on_index_two_sublattice(ctx4):
    lat = build_lattice(ctx4, 2, ctx4.zero())
    pairs = list(lat.generators)
    u0, v0 = pairs[0]
    pairs[0] = (2 * u0, 2 * v0)
    sub = PolarizedLattice(ctx4, 2, ctx4.zero(), pairs)
    assert sub.is_riemann_integral()
    assert not sub.is_unimodular()
    assert abs(linalg.determinant(symplectic(sub))) == 4
    # membership and the unit action are decided in the sublattice's own
    # generators: (u0, v0) is not in it, and neither is zeta (a1, 0) = (-a0, 0)
    assert contains(sub, 2 * u0, 2 * v0) and not contains(sub, u0, v0)
    assert not sub.is_g_stable()


def test_twist_translation_invariance():
    # shifting x by a codifferent element leaves the lattice unchanged
    rng = random.Random(55)
    for m in (4, 5, 12):
        ctx = get_ctx(m)
        x = random_element(ctx, rng)
        delta = sum((rng.randint(-2, 2) * a for a in ctx.codiff_basis), ctx.zero())
        lat1 = build_lattice(ctx, Fraction(3, 2), x)
        lat2 = build_lattice(ctx, Fraction(3, 2), x + delta)
        for u, v in lat1.generators:
            assert contains(lat2, u, v)
        for u, v in lat2.generators:
            assert contains(lat1, u, v)


def test_contains_matches_block_formula():
    # integer combinations of the generators of build_lattice, with and
    # without a half-step along one generator, against the block formula
    rng = random.Random(65)
    for m in (3, 4, 5, 8, 12):
        ctx = get_ctx(m)
        for _ in range(4):
            x = random_element(ctx, rng)
            lat = build_lattice(ctx, Fraction(rng.randint(4, 32), 8), x)
            gens = lat.generators
            for _ in range(5):
                coeffs = [Fraction(rng.randint(-3, 3)) for _ in gens]
                if rng.random() < 0.5:
                    coeffs[rng.randrange(len(gens))] += Fraction(1, 2)
                u = sum((c * a for c, (a, _) in zip(coeffs, gens)), ctx.zero())
                v = sum((c * b for c, (_, b) in zip(coeffs, gens)), ctx.zero())
                expected = all(c.denominator == 1 for c in coeffs)
                assert block_contains(ctx, x, u, v) == expected
                assert contains(lat, u, v) == expected


def test_g_stability():
    rng = random.Random(57)
    for m in (3, 4, 5, 8, 12):
        ctx = get_ctx(m)
        assert build_lattice(ctx, Fraction(7, 4), ctx.zero()).is_g_stable()
        for _ in range(10):
            x = random_element(ctx, rng)
            assert build_lattice(ctx, Fraction(rng.randint(4, 32), 8), x).is_g_stable()


def test_g_stability_requires_conjugated_twist(ctx4):
    # negative control: the twist map y -> x*y in place of y -> x*conj(y),
    # which is not unit-stable
    x = Fraction(1, 3) * ctx4.zeta(1)
    good = build_lattice(ctx4, 1, x)
    gens = ([(a, ctx4.zero()) for a in ctx4.codiff_basis]
            + [(x * b, b) for b in ctx4.ok_basis])
    bad = PolarizedLattice(ctx4, 1, x, gens)
    assert good.is_g_stable()
    assert not bad.is_g_stable()


def test_real_multiplication():
    rng = random.Random(59)
    ctx4 = get_ctx(4)
    assert build_lattice(ctx4, 2, ctx4.zero()).has_real_multiplication()  # b = 0 here
    ctx5 = get_ctx(5)
    for _ in range(10):
        x = random_element(ctx5, rng)
        assert build_lattice(ctx5, 1, x).has_real_multiplication()
    ctx12 = get_ctx(12)
    assert build_lattice(ctx12, Fraction(5, 2), ctx12.zero()).has_real_multiplication()


def _mixed(pairs, rng):
    """Other generators of the same lattice: shuffled, then mixed by
    elementary integer row operations p_i += k p_j."""
    pairs = list(pairs)
    rng.shuffle(pairs)
    for _ in range(3 * len(pairs)):
        i, j = rng.sample(range(len(pairs)), 2)
        k = rng.choice((-2, -1, 1, 2))
        pairs[i] = (pairs[i][0] + k * pairs[j][0], pairs[i][1] + k * pairs[j][1])
    return pairs


def test_membership_matches_elimination():
    # contains and both checks against the [N^T | W^T] elimination, on
    # build_lattice's triangular generators, the same lattice from mixed
    # generators (Euclid does real work), an index-2 sublattice of it, and
    # dependent generators, where every answer is False; the points are
    # integer combinations of build_lattice's generators, about half of them
    # with a half-step along one
    rng = random.Random(67)
    answers = []
    for m in (3, 4, 5, 8, 12, 30):
        ctx = get_ctx(m)
        x = random_element(ctx, rng)
        gens = build_lattice(ctx, 1, x).generators
        mixed = _mixed(gens, rng)
        sub = [(2 * mixed[0][0], 2 * mixed[0][1])] + mixed[1:]
        repeated = mixed[:-1] + [mixed[0]]
        z, zi = ctx.zeta(1), ctx.zeta(-1)
        t = z + zi
        for pairs in (gens, mixed, sub, repeated):
            lat = PolarizedLattice(ctx, 1, x, pairs)
            got = [lat.is_g_stable(), lat.has_real_multiplication()]
            want = [elimination_spans(ctx, pairs, [(z * u, zi * v) for u, v in pairs]),
                    elimination_spans(ctx, pairs, [(t * u, t * v) for u, v in pairs])]
            for _ in range(6):
                coeffs = [Fraction(rng.randint(-2, 2)) for _ in gens]
                if rng.random() < 0.5:
                    coeffs[rng.randrange(len(gens))] += Fraction(1, 2)
                u = sum((c * a for c, (a, _) in zip(coeffs, gens)), ctx.zero())
                v = sum((c * b for c, (_, b) in zip(coeffs, gens)), ctx.zero())
                got.append(contains(lat, u, v))
                want.append(elimination_spans(ctx, pairs, [(u, v)]))
            assert got == want, (m, pairs is sub)
            if pairs is repeated:
                assert not any(got)
            answers += got
    assert answers.count(True) > 50 and answers.count(False) > 50


def test_checks_need_no_field_multiplication(monkeypatch):
    # the unit action and real multiplication act on the integer generator
    # rows through multiplication matrices, never through field products, and
    # membership reduces against a triangular basis built once per lattice,
    # never through an elimination
    ctx = get_ctx(12)
    lat = build_lattice(ctx, Fraction(5, 2), Fraction(1, 8) * ctx.codiff_basis[1])

    def no_field_arithmetic(*args):
        raise AssertionError("field multiplication in a structural check")
    monkeypatch.setattr(CyclotomicContext, "mul", no_field_arithmetic)
    monkeypatch.setattr(CyclotomicContext, "conj", no_field_arithmetic)

    def no_elimination(*args):
        raise AssertionError("elimination in a structural check")
    monkeypatch.setattr(linalg, "gauss_jordan", no_elimination)
    built = []
    triangular_basis = linalg.triangular_basis

    def counted(rows):
        built.append(rows)
        return triangular_basis(rows)
    monkeypatch.setattr(linalg, "triangular_basis", counted)
    assert lat.is_g_stable() and lat.has_real_multiplication()
    assert contains(lat, *lat.generators[3])
    assert not contains(lat, Fraction(1, 2) * lat.generators[3][0], lat.generators[3][1])
    assert len(built) == 1


def test_serialization_schema(ctx4):
    lat = build_lattice(ctx4, 2, ctx4.zero())
    doc = lattice_json_dict(lat)
    assert set(doc) == {"m", "r_sq", "x", "real_gram", "symplectic"}
    assert doc["m"] == 4
    assert doc["r_sq"] == "2/1"
    assert doc["x"] == ["0/1", "0/1"]
    assert doc["real_gram"][0][0] == "1/1"
    assert all(isinstance(e, int) for row in doc["symplectic"] for e in row)
    json.dumps(doc)  # must be JSON-serializable as is
