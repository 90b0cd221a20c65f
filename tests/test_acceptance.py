"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""
import json
import math
import random
import time
from fractions import Fraction

import pytest

from cyclopack import linalg
from cyclopack.cli import dump_json, main as cli_main
from cyclopack.lattice import build_lattice
from cyclopack.checker import certificate_to_json_dict, count_N
from cyclopack.search import SearchConfig, default_r_grid, j_value, sample_x, search, select_r
from cyclopack.svp import shortest_norm_sq
from cyclopack.tables import bound_table
from conftest import get_ctx
from oracles import (box_points_in_ball, box_shortest_norm_sq, codiff_gram, enumerate_in_ball,
                     fraction_determinant, midpoint, point_norm_sq, prepared_form, symplectic,
                     unit_act, width)
from test_cyclotomic import random_element
from mc import chi_radius_sq_float, mc_ball_slice, mc_fold_lhs

EPS = Fraction(1, 2)
SMALL_M = (3, 4, 5, 6, 8, 10, 12)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def small_certs():
    certs = {}
    for m in SMALL_M:
        t0 = time.monotonic()
        certs[m] = (search(SearchConfig(m=m)), time.monotonic() - t0)
    return certs


@pytest.fixture(scope="module")
def large_certs():
    certs = {}
    for m in (18, 30):
        t0 = time.monotonic()
        certs[m] = (search(SearchConfig(m=m)), time.monotonic() - t0)
    return certs


def test_criterion_1_small_g_witnesses(small_certs):
    for m, (cert, elapsed) in small_certs.items():
        assert cert.is_valid(), f"m={m} certificate invalid"
        assert cert.bound_lo > m - EPS, f"m={m} bound too small"
        assert elapsed < 60, f"m={m} took {elapsed:.1f}s"
    c4 = small_certs[4][0]
    assert c4.r_sq == 2
    assert c4.x_coords == (Fraction(0), Fraction(0))
    assert c4.lambda1_sq == 1
    assert Fraction(493, 100) < c4.bound_lo < Fraction(494, 100)
    worst = max(t for _, t in small_certs.values())
    report(1, True, f"valid certificates for m in {SMALL_M}, "
                    f"m=4 bound {float(c4.bound_lo):.6f} in (4.93, 4.94), "
                    f"slowest search {worst:.2f}s < 60s")


def test_criterion_2_larger_g_witness(large_certs):
    ok_any = False
    details = []
    for m, (cert, elapsed) in large_certs.items():
        good = cert.is_valid() and cert.bound_lo > m - EPS and elapsed < 1800
        ok_any = ok_any or good
        details.append(f"m={m}: bound {float(cert.bound_lo):.3f} > {m - EPS} "
                       f"in {elapsed:.2f}s")
    report(2, ok_any, "; ".join(details))


def test_criterion_3_principality_100_random():
    rng = random.Random("acceptance-3")
    failures = 0
    for _ in range(100):
        m = rng.randint(3, 12)
        ctx = get_ctx(m)
        r_sq = Fraction(rng.randint(4, 32), 8)
        x = random_element(ctx, rng)
        lat = build_lattice(ctx, r_sq, x)
        if not (lat.is_riemann_integral()
                and fraction_determinant(symplectic(lat)) == 1
                and lat.det_real_gram() == 1):
            failures += 1
    report(3, failures == 0,
           f"100 random (m, r^2, x): integral symplectic with det exactly 1 "
           f"and unit covolume, {failures} failures")


def test_criterion_4_symmetry_suites():
    rng = random.Random("acceptance-4")
    norm_failures = 0
    for m in range(3, 13):
        ctx = get_ctx(m)
        for _ in range(100):
            p = random_element(ctx, rng), random_element(ctx, rng)
            base = point_norm_sq(*p)
            if any(point_norm_sq(*unit_act(k, *p)) != base for k in range(m)):
                norm_failures += 1
    stab_failures = 0
    for _ in range(100):
        m = rng.randint(3, 12)
        ctx = get_ctx(m)
        lat = build_lattice(ctx, Fraction(rng.randint(4, 32), 8),
                            random_element(ctx, rng))
        if not (lat.is_g_stable() and lat.has_real_multiplication()):
            stab_failures += 1
    report(4, norm_failures == 0 and stab_failures == 0,
           f"exact unit-action norm equality (1000 points, all group elements) "
           f"and lattice stability (100 random x): "
           f"{norm_failures + stab_failures} failures")


def test_criterion_5_divisibility_law():
    rng = random.Random("acceptance-5")
    checked = 0
    for m in (3, 4, 5, 8, 12):
        ctx = get_ctx(m)
        r_sq = select_r(ctx, EPS, default_r_grid())
        for _ in range(100):
            x = sample_x(ctx, 8, rng)
            n = count_N(build_lattice(ctx, r_sq, x), EPS)
            assert n % m == 0, (m, r_sq, x.coords, n)
            checked += 1
    report(5, True, f"N(x) = 0 mod m for {checked} random twists "
                    f"across m in (3, 4, 5, 8, 12)")


def test_criterion_6a_folding_identity_monte_carlo():
    ctx = get_ctx(4)
    b = ctx.one() + ctx.zeta(1)
    z_x = Fraction(1, 3) * ctx.zeta(1)
    z_y = Fraction(1, 2) * ctx.one()
    s = chi_radius_sq_float(ctx, EPS) - float((z_y * z_y.conj()).trace())
    lhs, se_l = mc_fold_lhs(ctx, b, z_x, z_y, EPS, 1_000_000, seed=1001)
    rhs, se_r = mc_ball_slice(2, s, 1_000_000, seed=2002)
    sigma = math.hypot(se_l, se_r)
    dev = abs(lhs - rhs)
    report(6, dev <= 3 * sigma,
           f"(a) folding identity at m=4, r=1, 10^6 samples: "
           f"|{lhs:.5f} - {rhs:.5f}| = {dev:.5f} <= 3 sigma = {3 * sigma:.5f}")


def test_criterion_6b_mean_count_matches_j():
    details = []
    ok = True
    for m, r_sq in ((3, Fraction(3)), (4, Fraction(3)), (5, Fraction(5))):
        ctx = get_ctx(m)
        j = j_value(ctx, r_sq, EPS)
        rng = random.Random(f"acc6b|{m}")
        vals = []
        for _ in range(1000):
            x = sum((Fraction(rng.random()) * a for a in ctx.codiff_basis),
                    ctx.zero())
            vals.append(count_N(build_lattice(ctx, r_sq, x), EPS))
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
        se = math.sqrt(float(var) / len(vals))
        dev = abs(float(mean) - float(midpoint(j)))
        ok = ok and dev <= 3 * se + float(width(j))
        details.append(f"m={m}: mean N {float(mean):.3f} vs J {float(midpoint(j)):.3f} "
                       f"({dev / se if se else 0:.1f} sigma)")
    report(6, ok, "(b) mean of N over 10^3 twists matches j_value: " + "; ".join(details))


def test_criterion_6c_j_converges_to_limit():
    ctx = get_ctx(4)
    target = 3.5
    j100 = j_value(ctx, 100, EPS)
    rel = abs(float(midpoint(j100)) - target) / target
    j25 = j_value(ctx, 25, EPS)
    monotone_toward = abs(float(midpoint(j25)) - target) > rel * target
    report(6, rel < 0.05 and monotone_toward,
           f"(c) J(r) at m=4: relative gap to m - eps is {rel:.4f} < 0.05 "
           f"at r^2 = 100 (and shrinking from r^2 = 25)")


def test_criterion_7_enumeration_oracle():
    rng = random.Random("acceptance-7")
    mismatches = 0
    for _ in range(50):
        n = rng.randint(1, 4)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        g = [[Fraction(sum(a[k][i] * a[k][j] for k in range(n)) + (i == j))
              for j in range(n)] for i in range(n)]
        radius = Fraction(rng.randint(1, 40), rng.randint(1, 4))
        if enumerate_in_ball(g, radius) != box_points_in_ball(g, None, radius):
            mismatches += 1
        if shortest_norm_sq(prepared_form(g)) != box_shortest_norm_sq(g):
            mismatches += 1
    report(7, mismatches == 0,
           f"50 random instances (dim <= 4, radius^2 <= 40): enumeration and "
           f"shortest vectors match brute-force box scans, {mismatches} mismatches")


def test_criterion_8_covolume_normalization():
    bad = []
    for m in range(3, 31):
        ctx = get_ctx(m)
        prod = linalg.determinant(ctx.ok_gram) * fraction_determinant(codiff_gram(ctx))
        if prod != 1:
            bad.append(m)
    report(8, not bad, f"det Gram(O_K) * det Gram(codifferent) = 1 exactly "
                       f"for every m in [3, 30]")


def test_criterion_9_bound_table():
    rows = bound_table([2, 4, 8, 16])
    expect = {2: 6, 4: 12, 8: 30, 16: 60}
    ok = True
    for r in rows:
        ok = ok and r.m_best == expect[r.g]
        ok = ok and r.m_best >= 3 * r.g           # power-of-two threshold
        ok = ok and r.m_best >= 2 * r.g + 2       # general threshold
        ok = ok and r.m_best > r.buser_sarnak == 2
    report(9, ok, f"table g=2,4,8,16 gives m_best {[r.m_best for r in rows]}, "
                  f"all >= 3g and >= 2g+2, all beating the classical value 2")


def test_criterion_10_certificate_roundtrip(small_certs, large_certs, tmp_path):
    all_certs = {**{m: c for m, (c, _) in small_certs.items()},
                 **{m: c for m, (c, _) in large_certs.items()}}
    rational_fields = ("epsilon", "r_sq", "x", "lambda1_sq", "bound_lo")
    for m, cert in all_certs.items():
        doc = certificate_to_json_dict(cert)
        path = tmp_path / f"cert-{m}.json"
        path.write_text(dump_json(doc))
        code = cli_main(["certify", str(path)])
        assert code == 0, f"certify exit {code} for m={m}"
        # byte-for-byte identity of the rational fields after recomputation
        from cyclopack.checker import recompute_certificate
        fresh, mismatches = recompute_certificate(cert)
        assert mismatches == []
        fresh_doc = certificate_to_json_dict(fresh)
        for key in rational_fields:
            assert json.dumps(fresh_doc[key]) == json.dumps(doc[key]), (m, key)
    report(10, True, f"certify reproduced and validated all {len(all_certs)} "
                     f"certificates, rational fields byte-identical")
