import operator
import random
from fractions import Fraction
from math import gcd

import pytest

from cyclopack import cyclotomic, linalg
from cyclopack.cyclotomic import CyclotomicContext, cyclotomic_polynomial, phi, prime_factors
from cyclopack.svp import shortest_norm_sq
from conftest import get_ctx
from oracles import (codiff_coords, codiff_gram, fraction_determinant, identity, poly_conj,
                     mat_mul, poly_mul, poly_mul_mod, poly_trace, power_traces, prepared_form,
                     trace_by_embeddings)


def random_element(ctx, rng):
    return ctx.element([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                        for _ in range(ctx.g)])


def test_polynomials():
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_product_identity():
    # prod_{d | m} Phi_d = x^m - 1 and deg Phi_m = #{k <= m : gcd(k, m) = 1}
    # determine every Phi_m by induction on m; the product also shows that
    # Phi_m divides x^m - 1
    assert cyclotomic_polynomial(1) == (-1, 1)
    for m in range(1, 301):
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                prod = poly_mul(prod, cyclotomic_polynomial(d))
        assert prod == [-1] + [0] * (m - 1) + [1], m
        assert len(cyclotomic_polynomial(m)) - 1 == sum(gcd(k, m) == 1 for k in range(1, m + 1))


def test_trace_vec_matches_multiplication_matrix_oracle():
    for m in range(3, 61):
        assert get_ctx(m).trace_vec == power_traces(m), m


def test_disc_abs_is_the_trace_form_determinant():
    # 210, 330 and 420 have three odd primes and g >= 48
    for m in [*range(3, 101), 210, 330, 420]:
        ctx = CyclotomicContext(m)
        assert ctx.disc_abs == abs(linalg.determinant(ctx.ok_gram)), m


def test_context_rejects_small_m():
    with pytest.raises(ValueError):
        CyclotomicContext(2)
    with pytest.raises(ValueError):
        CyclotomicContext(1)


def test_trace_vec_against_embedding_oracle():
    # frozen oracle values (embedding sums at 60 digits, rounded to rationals)
    assert get_ctx(3).trace_vec == (2, -1, -1)
    assert get_ctx(4).trace_vec == (2, 0, -2)
    assert get_ctx(12).trace_vec == (4, 0, 2, 0, -2, 0, -4)
    for m in (3, 4, 5, 7, 12, 15, 16):
        ctx = get_ctx(m)
        for j in range(2 * ctx.g - 1):
            assert trace_by_embeddings(ctx.zeta(j)) == ctx.trace_vec[j], (m, j)


@pytest.mark.parametrize("m,g,disc", [(3, 2, 3), (4, 2, 4), (12, 4, 144)])
def test_small_context_facts(m, g, disc):
    ctx = get_ctx(m)
    assert ctx.g == g
    assert ctx.disc_abs == disc
    assert ctx.trace_vec[0] == g


def test_mul_basic(ctx4, ctx3):
    z4 = ctx4.zeta(1)
    assert (z4 * z4).coords == (Fraction(-1), Fraction(0))
    z3 = ctx3.zeta(1)
    assert (z3 * z3).coords == (Fraction(-1), Fraction(-1))


@pytest.mark.parametrize("m", [*range(3, 31), 60])
def test_field_operations_match_polynomial_oracle(m):
    ctx = get_ctx(m)
    g = ctx.g
    rng = random.Random(m)
    big = 2 ** 64
    elements = [ctx.zero(), ctx.zeta(1), ctx.zeta(-1), ctx.zeta(rng.randrange(m)),
                ctx.element([rng.randint(-9, 9) for _ in range(g)]),
                *(ctx.element([Fraction(rng.randint(-big, big), rng.randint(1, big))
                               for _ in range(g)]) for _ in range(2))]
    for a in elements:
        assert list(a.conj().coords) == poly_conj(a.coords, m)
        assert a.trace() == poly_trace(a.coords, m)
        # the codifferent basis is codiff_gen * zeta^j
        assert poly_mul_mod(codiff_coords(ctx, a), ctx.codiff_gen.coords, m) == list(a.coords)
        for b in elements:
            assert list((a * b).coords) == poly_mul_mod(a.coords, b.coords, m)
            assert ctx.pairing(a, b) == poly_trace(poly_mul_mod(a.coords, poly_conj(b.coords, m), m), m)


@pytest.mark.parametrize("m", [3, 4, 5, 7, 9, 12, 15, 16, 20, 30, 11, 22])
def test_unit_action_matches_products_for_every_power(m):
    # mul_zeta reads slices of the zeta-power table; zeta^e * a is checked
    # against the product with zeta(e) and against the schoolbook product by
    # x^(e mod m) reduced by Phi_m, which reads no table
    ctx = get_ctx(m)
    rng = random.Random(m + 7)
    for a in (random_element(ctx, rng) for _ in range(3)):
        for e in range(-2 * m, 2 * m + 1):
            act = ctx.mul_zeta(e, a)
            assert act == a * ctx.zeta(e)
            assert list(act.coords) == poly_mul_mod([0] * (e % m) + [1], a.coords, m)


def test_kept_multiplication_rows_give_the_products_of_a_fresh_element():
    # an element keeps its multiplication rows after its first product as a
    # left operand; every later product, its square included, equals the
    # product of a fresh element with the same coordinates
    rng = random.Random(33)
    for m in (3, 5, 12, 11, 22):
        ctx = get_ctx(m)
        a = random_element(ctx, rng)
        for _ in range(6):
            b = random_element(ctx, rng)
            assert a * b == ctx.element(a.coords) * b
            assert list((a * b).coords) == poly_mul_mod(a.coords, b.coords, m)
        assert a * a == ctx.element(a.coords) * ctx.element(a.coords)
        assert a * a.inverse() == ctx.one() and a / a == ctx.one()
        n = ctx.element([rng.randint(-5, 5) for _ in range(ctx.g)])
        assert n * a == ctx.element(n.coords) * a
        assert ctx.mul_matrix(n) == ctx.mul_matrix(ctx.element(n.coords))


def test_operations_reject_other_fields(ctx3, ctx4):
    # phi(3) = phi(4) = 2, phi(5) = 4
    for other in (ctx4.zeta(1), get_ctx(5).one()):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(ValueError):
                op(ctx3.one(), other)


def in_lowest_terms(a) -> bool:
    """a holds g ints over one positive int denominator sharing no factor
    with them, and no Fraction."""
    return (type(a.num) is tuple and len(a.num) == a.ctx.g
            and all(type(c) is int for c in (*a.num, a.den))
            and a.den > 0 and gcd(a.den, *a.num) == 1)


@pytest.mark.parametrize("m", [3, 4, 5, 7, 8, 12, 15, 30])
def test_elements_are_numerators_over_one_denominator(m):
    # each result of the element operations is in lowest terms, and its
    # coordinates are those of the same operation on the Fraction lists the
    # elements were built from (the polynomial oracle for the products)
    ctx = get_ctx(m)
    rng = random.Random(100 + m)
    zero, one = Fraction(0), Fraction(1)
    lists = [[zero] * ctx.g, [one] + [zero] * (ctx.g - 1),
             *([Fraction(rng.randint(-9, 9), rng.choice((1, 2, 6, 12, 35))) for _ in range(ctx.g)]
               for _ in range(4))]
    scalars = [1, -1, 3, -6, Fraction(-2, 3), Fraction(35, 4)]
    for xs in lists:
        a = ctx.element(xs)
        assert in_lowest_terms(a) and list(a.coords) == xs
        assert a / 1 == a and hash(a / 1) == hash(a)
        with pytest.raises(ZeroDivisionError):
            a / 0
        with pytest.raises(ZeroDivisionError):
            a / Fraction(0)
        results = [(-a, [-x for x in xs]), (a * 0, [zero] * ctx.g), (a.conj(), poly_conj(xs, m))]
        results += [(op(a, s), [op(x, s) for x in xs])
                    for s in scalars for op in (operator.mul, operator.truediv)]
        results += [(s * a, poly_mul_mod([s], xs, m)) for s in scalars]
        for ys in lists:
            b = ctx.element(ys)
            results += [(a + b, [x + y for x, y in zip(xs, ys)]),
                        (a - b, [x - y for x, y in zip(xs, ys)]),
                        (a * b, poly_mul_mod(xs, ys, m))]
        for c, want in results:
            assert in_lowest_terms(c) and list(c.coords) == want, (xs, c)


def test_equal_values_compare_and_hash_equal(ctx4, ctx12):
    # the same element reached by different paths has the same (num, den)
    half = Fraction(1, 2)
    for ctx in (ctx4, ctx12):
        zeros = [0] * (ctx.g - 1)
        z = ctx.zeta(1)
        same = [ctx.element([half, *zeros]), ctx.element([Fraction(3, 6), *zeros]),
                ctx.element(["1/2", *zeros]), ctx.element([0.5, *zeros]),
                ctx.one() / 2, ctx.one() * half, half * ctx.one(), (ctx.one() + ctx.one()) / 4,
                z * z.conj() / 2, ctx.one() - ctx.element([half, *zeros]),
                -(ctx.element([Fraction(-3, 4), *zeros]) * Fraction(2, 3)),
                ctx.mul_zeta(-1, z) / Fraction(2)]
        assert all(e.num == (1, *zeros) and e.den == 2 for e in same)
        assert len(set(same)) == 1 and len({hash(e) for e in same}) == 1
        assert ctx.one() / 2 != ctx.one() / 3
    assert ctx4.one() / 2 != get_ctx(3).one() / 2  # same numerators, another field
    zero = ctx4.zero()
    assert zero == ctx4.element([Fraction(0, 5), 0]) == ctx4.one() * 0 == ctx4.zeta(1) - ctx4.zeta(1)
    assert zero.den == 1 and not zero


def test_mul_inverse_roundtrip():
    rng = random.Random(7)
    for m in (3, 4, 5, 8, 12):
        ctx = get_ctx(m)
        for _ in range(20):
            a = random_element(ctx, rng)
            if not a:
                continue
            inv = ctx.inverse(a)
            assert in_lowest_terms(inv) and a * inv == ctx.one()


def test_context_and_inverse_build_no_fraction(monkeypatch):
    # inverse reduces solve's integer numerators over their denominator, so
    # neither it nor a context build (codiff_gen is one inverse) makes a
    # Fraction
    made = []

    class Counted(Fraction):
        def __new__(cls, *args):
            made.append(args)
            return Fraction(*args)

    monkeypatch.setattr(cyclotomic, "Fraction", Counted)
    for m in (5, 12, 30):
        ctx = CyclotomicContext(m)
        ctx.inverse(ctx.different_generator() + ctx.one())
    assert made == []


def test_ring_axioms_random():
    rng = random.Random(11)
    ctx = get_ctx(12)
    for _ in range(25):
        a, b, c = (random_element(ctx, rng) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_conj(ctx4, ctx3):
    assert ctx4.conj(ctx4.zeta(1)).coords == (Fraction(0), Fraction(-1))
    assert ctx3.conj(ctx3.zeta(1)).coords == (Fraction(-1), Fraction(-1))
    rng = random.Random(3)
    for m in (5, 8, 12):
        ctx = get_ctx(m)
        for _ in range(20):
            a, b = random_element(ctx, rng), random_element(ctx, rng)
            assert (a * b).conj() == a.conj() * b.conj()
            assert a.conj().conj() == a


def test_conjugation_matrix_is_involution():
    for m in (3, 4, 5, 8, 12, 15):
        ctx = get_ctx(m)
        p = ctx.conj_matrix
        assert mat_mul([list(r) for r in p], [list(r) for r in p]) == identity(ctx.g)


def test_trace(ctx3):
    for m in (3, 4, 5, 12):
        ctx = get_ctx(m)
        assert ctx.trace(ctx.one()) == ctx.g
    assert ctx3.trace(ctx3.zeta(1)) == -1
    rng = random.Random(5)
    ctx = get_ctx(8)
    for _ in range(20):
        a, b = random_element(ctx, rng), random_element(ctx, rng)
        assert (a + b).trace() == a.trace() + b.trace()


def test_trace_matches_embedding_sum_on_random_elements():
    rng = random.Random(17)
    for m in (5, 8, 12):
        ctx = get_ctx(m)
        for _ in range(5):
            a = random_element(ctx, rng)
            assert trace_by_embeddings(a) == ctx.trace(a)


def test_inverse(ctx4, ctx3):
    assert ctx4.inverse(ctx4.one()) == ctx4.one()
    assert ctx4.inverse(ctx4.zeta(1)) == -ctx4.zeta(1)
    a = ctx3.element([1, 2])  # 2 zeta + 1
    assert ctx3.inverse(a) * a == ctx3.one()
    with pytest.raises(ZeroDivisionError):
        ctx4.inverse(ctx4.zero())


def test_different_generator(ctx4, ctx3):
    assert ctx4.different_generator().coords == (Fraction(0), Fraction(2))
    assert ctx3.different_generator().coords == (Fraction(1), Fraction(2))
    for m in (3, 4, 5, 8, 12):
        ctx = get_ctx(m)
        assert ctx.codiff_gen * ctx.different_generator() == ctx.one()


@pytest.mark.parametrize("m", [3, 4, 5, 7, 8, 9, 12, 15, 16, 18, 20])
def test_codifferent_duality(m):
    # the pairing matrix Tr(codiff_gen * zeta^j * zeta^k) must be integral and
    # unimodular: that is exactly the statement that (Phi'(zeta))^-1 Z[zeta]
    # is the trace-dual of Z[zeta]
    ctx = get_ctx(m)
    g = ctx.g
    mat = [[ctx.trace(ctx.codiff_gen * ctx.zeta(j) * ctx.zeta(k)) for k in range(g)]
           for j in range(g)]
    assert all(e.denominator == 1 for row in mat for e in row)
    assert abs(fraction_determinant(mat)) == 1
    # both flavors of the pairing against the ring of integers are integral,
    # and codiff_pairing holds the conjugated one as ints
    for a, row in zip(ctx.codiff_basis, ctx.codiff_pairing):
        assert list(row) == [(b * a.conj()).trace() for b in ctx.ok_basis]
        assert all(type(e) is int for e in row)
        for b in ctx.ok_basis:
            assert (a * b).trace().denominator == 1
            assert (a * b.conj()).trace().denominator == 1


@pytest.mark.parametrize("m", [3, 4, 5, 7, 8, 9, 12, 15, 16, 18, 20, 30])
def test_codifferent_coordinates_roundtrip(m):
    ctx = get_ctx(m)
    g = ctx.g
    for j, b in enumerate(ctx.codiff_basis):
        assert b == ctx.codiff_gen * ctx.zeta(j)
        assert codiff_coords(ctx, b) == [int(i == j) for i in range(g)]
    rng = random.Random(m)
    for _ in range(10):
        a = random_element(ctx, rng)
        c = codiff_coords(ctx, a)
        assert sum((cj * b for cj, b in zip(c, ctx.codiff_basis)), ctx.zero()) == a


@pytest.mark.parametrize("m", range(3, 31))
def test_covolume_product_is_one(m):
    ctx = get_ctx(m)
    d_ok = linalg.determinant(ctx.ok_gram)
    d_cd = fraction_determinant(codiff_gram(ctx))
    assert d_ok == ctx.disc_abs
    assert d_ok * d_cd == 1
    # the discriminant as det Tr(zeta^(i+j)), the trace form without conjugation
    g = ctx.g
    tgram = [[ctx.trace_vec[i + j] for j in range(g)] for i in range(g)]
    assert abs(linalg.determinant(tgram)) == ctx.disc_abs


def test_trace_form_positive_definite():
    rng = random.Random(23)
    for m in (3, 4, 5, 8, 12, 15):
        ctx = get_ctx(m)
        for _ in range(20):
            a = random_element(ctx, rng)
            if a:
                assert (a * a.conj()).trace() > 0


# the 24 values of m >= 3 with phi(m) <= 12
FIELDS_G_LE_12 = [m for m in range(3, 43) if phi(m) <= 12]


@pytest.mark.parametrize("m", FIELDS_G_LE_12)
def test_field_minima(m):
    # observed values, kept as expectations only: the codifferent's minimum is
    # 2^omega(f) / f with f the conductor, and the ring's is g, since AM-GM
    # gives Tr(x conj(x)) >= g |N(x)|^(2/g) >= g and the units attain it
    ctx = get_ctx(m)
    f = m // 2 if m % 4 == 2 else m
    codiff = prepared_form(codiff_gram(ctx))
    assert shortest_norm_sq(codiff) == Fraction(2 ** len(prime_factors(f)), f)
    assert shortest_norm_sq(prepared_form(ctx.ok_gram)) == ctx.g
