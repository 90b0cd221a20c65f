import random
from fractions import Fraction

import mpmath
import pytest

from cyclopack import cyclotomic, linalg
from conftest import get_ctx
from oracles import (codiff_gram, embed, fraction_determinant, point_norm_sq, poly_mul_mod,
                     unit_act)
from test_cyclotomic import in_lowest_terms, random_element


def random_point(ctx, rng):
    return random_element(ctx, rng), random_element(ctx, rng)


def pairing(a, b):
    return a.ctx.pairing(a, b)


def gram(basis):
    # Gram matrix of the pairing on a family
    return [[pairing(a, b) for b in basis] for a in basis]


def test_pairing_values(ctx4, ctx3):
    one4, z4 = ctx4.one(), ctx4.zeta(1)
    assert pairing(one4, one4) == 2
    assert pairing(one4, z4) == 0
    assert pairing(ctx3.one(), ctx3.zeta(1)) == -1


def test_pairing_symmetric_positive():
    rng = random.Random(2)
    for m in (3, 4, 5, 12):
        ctx = get_ctx(m)
        for _ in range(20):
            a, b = random_element(ctx, rng), random_element(ctx, rng)
            assert pairing(a, b) == pairing(b, a)
            if a:
                assert pairing(a, a) > 0


def test_pairing_unit_invariance():
    rng = random.Random(9)
    for m in (4, 5, 12):
        ctx = get_ctx(m)
        for _ in range(20):
            a, b = random_element(ctx, rng), random_element(ctx, rng)
            k = rng.randrange(m)
            u = ctx.zeta(k)
            assert pairing(u * a, u * b) == pairing(a, b)


def test_gram_matrices(ctx3, ctx4, ctx12):
    g3 = gram(ctx3.ok_basis)
    assert g3 == [[2, -1], [-1, 2]]
    assert fraction_determinant(g3) == 3
    assert gram(ctx4.ok_basis) == [[2, 0], [0, 2]]
    assert gram(ctx4.codiff_basis) == [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]
    g12 = gram(ctx12.ok_basis)
    assert g12 == [[4, 0, 2, 0], [0, 4, 0, 2], [2, 0, 4, 0], [0, 2, 0, 4]]
    assert fraction_determinant(g12) == 144


def trace_form(basis):
    # Tr(a conj(b)) by field multiplication: the reference for the pairing
    return [[(a * b.conj()).trace() for b in basis] for a in basis]


def test_gram_matches_precomputed():
    for m in (3, 4, 5, 8, 12, 18):
        ctx = get_ctx(m)
        ok, cd = trace_form(ctx.ok_basis), trace_form(ctx.codiff_basis)
        assert gram(ctx.ok_basis) == ok
        assert [list(r) for r in ctx.ok_gram] == ok
        assert gram(ctx.codiff_basis) == cd
        assert [list(r) for r in codiff_gram(ctx)] == cd


def test_pairing_matches_trace_of_product():
    rng = random.Random(31)
    for m in (3, 4, 5, 7, 12, 15, 30):
        ctx = get_ctx(m)
        pairs = [(ctx.zero(), ctx.zero()), (ctx.zero(), random_element(ctx, rng))]
        pairs += [(random_element(ctx, rng), random_element(ctx, rng)) for _ in range(10)]
        for a, b in pairs:
            p = pairing(a, b)
            assert type(p) is Fraction
            assert p == (a * b.conj()).trace()


def test_norm_sq_values(ctx4, ctx3):
    assert point_norm_sq(ctx4.one(), ctx4.zero()) == 2
    assert point_norm_sq(ctx3.zeta(1), ctx3.zero()) == 2
    rng = random.Random(4)
    for _ in range(10):
        b = random_element(ctx4, rng)
        assert point_norm_sq(ctx4.zero(), b) == pairing(b, b)


def test_g_act_identity_and_composition(ctx12):
    rng = random.Random(6)
    p = random_point(ctx12, rng)
    assert unit_act(0, *p) == p
    for _ in range(10):
        k1, k2 = rng.randrange(12), rng.randrange(12)
        assert unit_act(k2, *unit_act(k1, *p)) == unit_act(k1 + k2, *p)


@pytest.mark.parametrize("m", range(3, 31))
def test_g_act_matches_polynomial_oracle(m):
    # x + iy -> zeta^k x + i zeta^-k y, the powers of zeta as coefficient
    # lists reduced by the oracle; a unit keeps each denominator
    ctx = get_ctx(m)
    rng = random.Random(m)
    xs, ys = ([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(ctx.g)]
              for _ in range(2))
    x, y = ctx.element(xs), ctx.element(ys)
    for k in range(-m, m + 1):
        qx, qy = unit_act(k, x, y)
        assert list(qx.coords) == poly_mul_mod([0] * (k % m) + [1], xs, m), k
        assert list(qy.coords) == poly_mul_mod([0] * (-k % m) + [1], ys, m), k
        assert in_lowest_terms(qx) and in_lowest_terms(qy)
        assert (qx.den, qy.den) == (x.den, y.den)


def test_ring_operations_build_no_fraction(ctx12, monkeypatch):
    # products, unit multiples, conjugates and powers of zeta work on the
    # numerators: no Fraction and no elimination; a trace and a pairing build
    # one Fraction each, for their result
    rng = random.Random(12)
    a, b = random_element(ctx12, rng), random_element(ctx12, rng)
    made = []

    class Counted(Fraction):
        def __new__(cls, *args):
            made.append(args)
            return Fraction(*args)

    def no_elimination(rows, n):
        raise AssertionError("elimination on element operands")

    monkeypatch.setattr(cyclotomic, "Fraction", Counted)
    monkeypatch.setattr(linalg, "eliminate", no_elimination)
    for k in range(-12, 13):
        ctx12.mul(a, b), ctx12.mul(ctx12.zeta(k), b), ctx12.conj(a)
        ctx12.mul_zeta(k, a), unit_act(k, a, b)
    assert made == []
    ctx12.trace(a), ctx12.pairing(a, b)
    assert len(made) == 2


def test_g_act_preserves_norm_exactly():
    rng = random.Random(8)
    for m in (3, 4, 5, 8, 12):
        ctx = get_ctx(m)
        for _ in range(100):
            p = random_point(ctx, rng)
            k = rng.randrange(m)
            assert point_norm_sq(*unit_act(k, *p)) == point_norm_sq(*p)


def test_g_act_free_orbits():
    rng = random.Random(10)
    for m in (4, 5, 12):
        ctx = get_ctx(m)
        for _ in range(10):
            p = random_point(ctx, rng)
            if not any(p):
                continue
            orbit = {unit_act(k, *p) for k in range(m)}
            assert len(orbit) == m


def test_embed_basics(ctx4):
    ones = embed(ctx4.one(), 64)
    assert all(abs(v - 1) < mpmath.mpf(2) ** -50 for v in ones)
    i_vals = embed(ctx4.zeta(1), 64)
    # embeddings ordered by exponent: k=1 then k=3
    assert abs(i_vals[0] - mpmath.mpc(0, 1)) < mpmath.mpf(2) ** -50
    assert abs(i_vals[1] - mpmath.mpc(0, -1)) < mpmath.mpf(2) ** -50


def test_embed_unit_circle(ctx12):
    for j in range(12):
        for v in embed(ctx12.zeta(j), 80):
            assert abs(abs(v) - 1) < mpmath.mpf(2) ** -60


@pytest.mark.parametrize("precision", [64, 128, 256])
def test_embed_norm_identity(precision):
    rng = random.Random(12)
    for m in (5, 12):
        ctx = get_ctx(m)
        for _ in range(5):
            a = random_element(ctx, rng)
            vals = embed(a, precision)
            with mpmath.workprec(precision + 32):
                total = sum((abs(v) ** 2 for v in vals), mpmath.mpf(0))
                exact = pairing(a, a)
                err = abs(total - mpmath.mpf(exact.numerator) / exact.denominator)
                assert err < mpmath.mpf(2) ** (-precision // 2)


def test_embed_rejects_low_precision(ctx4):
    with pytest.raises(ValueError):
        embed(ctx4.one(), 32)
