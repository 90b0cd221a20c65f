import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from cyclopack import linalg, svp
from cyclopack.lattice import build_lattice
from cyclopack.checker import certificate_from_json_dict, chi_radius_sq
from cyclopack.svp import (ball_volume, enumerate_in_ball_with_norms, lll_reduce,
                           norm_counts, shortest_norm_sq)
from conftest import get_ctx
from oracles import (box_points_in_ball, box_shortest_norm_sq, contains_interval,
                     enumerate_in_ball, identity, midpoint, packing_density,
                     rational_enumerate_in_ball, rational_lll_reduce, width)

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


def frac_mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def random_pd_gram(n, rng):
    # A^T A + I for a random integer matrix A is positive definite
    a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    g = [[Fraction(sum(a[k][i] * a[k][j] for k in range(n)) + (i == j))
          for j in range(n)] for i in range(n)]
    return g


def random_unimodular(n, rng):
    u = identity(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        for c in range(n):
            u[i][c] += q * u[j][c]
    return u


# -- ball volumes ---------------------------------------------------------------

def test_ball_volume_values():
    with mpmath.workprec(400):
        pi = +mpmath.pi
        targets = {2: pi, 4: pi ** 2 / 2, 8: pi ** 4 / 24}
        for n, t in targets.items():
            iv = ball_volume(n, 128)
            lo = mpmath.mpf(iv.lo.numerator) / iv.lo.denominator
            hi = mpmath.mpf(iv.hi.numerator) / iv.hi.denominator
            assert lo < t < hi
            assert width(iv) < Fraction(1, 2 ** 120)


def test_ball_volume_refinement_nests():
    for n in (2, 4, 12):
        coarse = ball_volume(n, 64)
        fine = ball_volume(n, 256)
        assert contains_interval(coarse, fine)
        assert midpoint(fine) in coarse


def test_ball_volume_rejects_odd_or_tiny():
    with pytest.raises(ValueError):
        ball_volume(3)
    with pytest.raises(ValueError):
        ball_volume(0)


# -- LLL -------------------------------------------------------------------------

def test_lll_identity_fixed():
    g = identity(4)
    u, r, _, _ = lll_reduce(g)
    assert u == [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert r == g


def test_lll_preserves_determinant_and_matches_transform():
    rng = random.Random(31)
    for n in (2, 3, 4, 6):
        for _ in range(10):
            g = random_pd_gram(n, rng)
            u, r, d, nu = lll_reduce(g)
            uf = frac_mat(u)
            assert linalg.determinant(uf) in (1, -1)
            assert linalg.mat_mul(linalg.mat_mul(uf, g), linalg.transpose(uf)) == r
            assert linalg.determinant(r) == linalg.determinant(g)
            # (d, nu) are the LDL factors of r: r = N^T diag(d) N, N unit upper
            unit = [[Fraction(1) if i == j else nu[i][j] if j > i else Fraction(0)
                     for j in range(n)] for i in range(n)]
            dn = [[d[i] * x for x in row] for i, row in enumerate(unit)]
            assert linalg.mat_mul(linalg.transpose(unit), dn) == r


def test_lll_lovasz_condition_holds():
    rng = random.Random(33)
    delta = Fraction(99, 100)
    for _ in range(10):
        g = random_pd_gram(5, rng)
        _, r, _, _ = lll_reduce(g)
        # recompute GSO from scratch and check both LLL conditions
        n = len(r)
        mu = [[Fraction(0)] * n for _ in range(n)]
        bb = [Fraction(0)] * n
        for k in range(n):
            for j in range(k):
                mu[k][j] = (r[k][j] - sum(mu[j][i] * mu[k][i] * bb[i] for i in range(j))) / bb[j]
            bb[k] = r[k][k] - sum(mu[k][j] ** 2 * bb[j] for j in range(k))
            assert bb[k] > 0
        for k in range(1, n):
            assert abs(mu[k][k - 1]) <= Fraction(1, 2)
            assert bb[k] >= (delta - mu[k][k - 1] ** 2) * bb[k - 1]


def test_lll_example_gram(ctx12):
    _, r, _, _ = lll_reduce([list(row) for row in ctx12.ok_gram])
    assert r[0][0] <= 4


def test_lll_rejects_non_pd():
    with pytest.raises(ValueError):
        lll_reduce(frac_mat([[1, 0], [0, -1]]))
    with pytest.raises(ValueError):
        lll_reduce(frac_mat([[0, 0], [0, 1]]))


# -- enumeration -------------------------------------------------------------------

def test_enumerate_trivial_cases():
    gid = identity(2)
    assert enumerate_in_ball(gid, None, 0) == [(0, 0)]
    assert len(enumerate_in_ball(gid, None, 1)) == 5
    assert enumerate_in_ball(gid, None, Fraction(-1)) == []


def test_enumerate_matches_box_scan_random():
    rng = random.Random(37)
    for trial in range(50):
        n = rng.randint(1, 4)
        g = random_pd_gram(n, rng)
        # the first ball on the bare Gram, the second and third on one
        # prepared form
        form = svp.PreparedForm(g)
        for quad in (g, form, form):
            center = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
            radius = Fraction(rng.randint(1, 40), rng.randint(1, 4))
            got = enumerate_in_ball(quad, center, radius)
            expect = box_points_in_ball(g, center, radius)
            assert got == expect, (trial, g, center, radius)


def test_enumerate_norms_are_exact():
    rng = random.Random(39)
    g = random_pd_gram(3, rng)
    center = [Fraction(1, 3), Fraction(-1, 2), Fraction(0)]
    for v, q in enumerate_in_ball_with_norms(g, center, 9):
        d = [Fraction(t) - c for t, c in zip(v, center)]
        direct = sum(g[i][j] * d[i] * d[j] for i in range(3) for j in range(3))
        assert direct == q


def test_norm_counts_tally_the_enumerated_norms():
    rng = random.Random(49)
    for trial in range(40):
        n = rng.randint(1, 5)
        g = random_rational_pd_gram(n, rng)
        radius = Fraction(rng.randint(0, 60), rng.randint(1, 7))
        tally = Counter(q for v, q in enumerate_in_ball_with_norms(g, None, radius) if any(v))
        assert norm_counts(g, radius) == sorted(tally.items()), (trial, g, radius)
    assert norm_counts(identity(2), -1) == []


def test_half_walk_emits_one_of_each_opposite_pair():
    # the half walk's points and their negatives partition the full walk's
    # points, with the origin emitted once
    rng = random.Random(53)
    grams = [[[Fraction(3)]]] + [random_rational_pd_gram(rng.randint(1, 6), rng)
                                 for _ in range(60)]
    for trial, g in enumerate(grams):
        form = svp.PreparedForm(g)
        n = len(g)
        radius = Fraction(rng.randint(0, 60), rng.randint(1, 7)) if trial % 10 else Fraction(0)
        full, half = [], []
        form._walk([0] * n, radius, lambda s, k: full.append((tuple(s), k)))
        form._walk([0] * n, radius, lambda s, k: half.append((tuple(s), k)), True)
        negated = [(tuple(-x for x in s), k) for s, k in half if any(s)]
        assert half.count(((0,) * n, 0)) == 1, (trial, g, radius)
        assert Counter(half + negated) == Counter(full), (trial, g, radius)
    with pytest.raises(ValueError):
        svp.PreparedForm(grams[0])._walk([Fraction(1, 2)], Fraction(1), print, True)


def test_norm_counts_tally_the_reference_lattices():
    # the twisted Gram at its least reduced diagonal entry (the lambda_1 walk)
    # and the ring at r^2 R^2 (the walk behind J(r)), for every
    # reference certificate
    for path in sorted(REFERENCE.glob("m*.json")):
        cert = certificate_from_json_dict(json.loads(path.read_text()))
        ctx = get_ctx(cert.m)
        gram = build_lattice(ctx, cert.r_sq, ctx.element(cert.x_coords)).real_gram
        balls = [(gram, svp.PreparedForm(gram).min_diagonal),
                 (ctx.ok_gram, cert.r_sq * chi_radius_sq(ctx, cert.epsilon, 160).hi)]
        for g, radius in balls:
            tally = Counter(q for v, q in enumerate_in_ball_with_norms(g, None, radius)
                            if any(v))
            assert norm_counts(g, radius) == sorted(tally.items()), (path.name, radius)


# -- the integer core against the rational reference ----------------------------

def random_rational_pd_gram(n, rng):
    # M M^T + I/3 for a random rational matrix M is positive definite
    a = [[Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(n)]
         for _ in range(n)]
    return [[sum(x * y for x, y in zip(a[i], a[j])) + Fraction(i == j, 3)
             for j in range(n)] for i in range(n)]


def twisted_grams():
    """real_gram of the twisted lattices at m = 11, 22, 30 at each field's
    reference r^2, for x = 0, a 3-bit and a 53-bit twist."""
    rng = random.Random(47)
    for m, r_sq in ((11, Fraction(21, 2)), (22, Fraction(11)), (30, Fraction(7))):
        ctx = get_ctx(m)
        for bits in (0, 3, 53):
            x = sum((Fraction(rng.getrandbits(bits), 1 << bits) * a
                     for a in ctx.codiff_basis), ctx.zero())
            yield ctx, build_lattice(ctx, r_sq, x).real_gram


def test_lll_matches_rational_reference():
    rng = random.Random(45)
    grams = [random_rational_pd_gram(rng.randint(1, 6), rng) for _ in range(40)]
    grams += [gram for _, gram in twisted_grams()]
    for gram in grams:
        assert lll_reduce(gram) == rational_lll_reduce(gram)


def test_enumeration_order_matches_rational_reference():
    rng = random.Random(46)
    for trial in range(40):
        n = rng.randint(1, 5)
        g = random_rational_pd_gram(n, rng)
        for _ in range(2):
            center = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)]
            radius = Fraction(rng.randint(1, 60), rng.randint(1, 7))
            assert (enumerate_in_ball_with_norms(g, center, radius)
                    == rational_enumerate_in_ball(g, center, radius)), (trial, g)


def test_twisted_lattice_enumeration_matches_rational_reference():
    # the ball count_N enumerates, and the one of the shortest-vector search
    for ctx, gram in twisted_grams():
        radius = chi_radius_sq(ctx, Fraction(1, 2), 160).hi
        expect = rational_enumerate_in_ball(gram, None, radius)
        assert enumerate_in_ball_with_norms(gram, None, radius) == expect
        _, r, _, _ = rational_lll_reduce(gram)
        least = min(r[i][i] for i in range(len(r)))
        svp = [q for v, q in rational_enumerate_in_ball(gram, None, least) if any(v)]
        assert shortest_norm_sq(gram) == min(svp)


# -- shortest vectors ---------------------------------------------------------------

def test_shortest_norm_known_values(ctx3, ctx4):
    assert shortest_norm_sq(identity(4)) == 1
    assert shortest_norm_sq([list(r) for r in ctx3.ok_gram]) == 2
    assert shortest_norm_sq([list(r) for r in ctx4.codiff_gram]) == Fraction(1, 2)
    assert shortest_norm_sq([list(r) for r in ctx3.codiff_gram]) == Fraction(2, 3)


def test_shortest_norm_matches_box_scan():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(1, 4)
        g = random_pd_gram(n, rng)
        assert shortest_norm_sq(g) == box_shortest_norm_sq(g)


def test_ball_at_lambda1_matches_box_scan_before_and_after_svp():
    # a ball about the origin strictly below a known lambda_1 is answered
    # without a walk; at and above lambda_1, and about any nonzero center,
    # the walk runs, so all must agree with the box scan either way
    rng = random.Random(53)
    for trial in range(30):
        n = rng.randint(1, 4)
        g = random_rational_pd_gram(n, rng)
        lam = box_shortest_norm_sq(g)
        deltas = (lam / rng.randint(2, 9), lam / 10 ** 9)
        radii = [lam, *(lam - d for d in deltas), *(lam + d for d in deltas)]

        def check(quad, center):
            c = center or [0] * n
            for radius in radii:
                got = sorted(enumerate_in_ball_with_norms(quad, center, radius))
                expect = box_points_in_ball(g, center, radius)
                assert [v for v, _ in got] == expect, (trial, g, center, radius)
                assert all(q == sum(g[i][j] * (v[i] - c[i]) * (v[j] - c[j])
                                    for i in range(n) for j in range(n)) for v, q in got)

        # a point of the lattice moved off by less than half its minimum:
        # the ball about it below lambda_1 holds that point, not the origin
        v = [rng.randint(-2, 2) for _ in range(n)]
        v[rng.randrange(n)] = rng.choice((-1, 1))
        near = [a + Fraction(rng.randint(-1, 1), 1000) for a in v]
        form = svp.PreparedForm(g)
        check(g, None)
        check(form, None)
        assert form.lambda1_sq is None
        assert shortest_norm_sq(form) == lam == form.lambda1_sq
        check(form, None)
        check(form, [Fraction(0)] * (n - 1) + [Fraction(1, 1000)])
        check(form, near)


def test_shortest_norm_homogeneous_and_unimodular_invariant():
    rng = random.Random(43)
    for _ in range(10):
        g = random_pd_gram(3, rng)
        lam = shortest_norm_sq(g)
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert shortest_norm_sq([[c * x for x in row] for row in g]) == c * lam
        u = random_unimodular(3, rng)
        gu = linalg.mat_mul(linalg.mat_mul(u, g), linalg.transpose(u))
        assert shortest_norm_sq(gu) == lam


# -- packing density ----------------------------------------------------------------

def test_packing_density_values():
    with mpmath.workprec(300):
        pi = +mpmath.pi
        iv = packing_density(identity(2), 2)
        assert mpmath.mpf(iv.lo.numerator) / iv.lo.denominator < pi / 4
        assert mpmath.mpf(iv.hi.numerator) / iv.hi.denominator > pi / 4
        iv4 = packing_density(identity(4), 4)  # the m=4 witness lattice
        t = pi ** 2 / 32
        assert mpmath.mpf(iv4.lo.numerator) / iv4.lo.denominator < t
        assert mpmath.mpf(iv4.hi.numerator) / iv4.hi.denominator > t


def test_packing_density_monotone_in_lambda():
    small = packing_density(frac_mat([[Fraction(1, 2), 0], [0, 2]]), 2)
    large = packing_density(identity(2), 2)
    assert small.hi < large.lo


def test_packing_density_rejects_bad_input():
    with pytest.raises(ValueError):
        packing_density(frac_mat([[2, 0], [0, 2]]), 2)  # covolume != 1
    with pytest.raises(ValueError):
        packing_density(identity(3), 2)
