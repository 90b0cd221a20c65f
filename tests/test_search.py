import json
import random
from fractions import Fraction
from math import factorial
from pathlib import Path

import mpmath
import pytest

from cyclopack import checker, search as search_module, svp
from cyclopack.checker import (CertificateFormatError, certificate_from_json_dict,
                               certificate_to_json_dict, chi_norm_sq, chi_radius_sq, count_N,
                               recompute_certificate)
from cyclopack.cli import dump_json
from cyclopack.cyclotomic import phi
from cyclopack.lattice import build_lattice
from cyclopack.search import (NoQualifyingRadius, SearchBudgetExceeded, SearchConfig,
                              default_r_grid, j_value, _randbelow, ring_norms, sample_x,
                              search, select_r)
from cyclopack.svp import shortest_norm_sq
from conftest import get_ctx
from mc import mc_j_value
from oracles import (ball_with_norms, box_points_in_ball, chi, codiff_coords, codiff_gram,
                     contains_interval, fractions, midpoint, prepared_form, vector_j_value,
                     real_gram, volume_chi_norm_sq, width)

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
EPS = Fraction(1, 2)
# the 18 fields with phi(m) <= 10
SMALL_FIELDS = [m for m in range(3, 31) if phi(m) <= 10]


# -- chi -------------------------------------------------------------------------

def test_chi_examples(ctx4):
    assert chi(ctx4.zero(), ctx4.zero(), EPS)
    # norm_sq = 2: v4 * 4 > 3.5, outside
    assert not chi(ctx4.one(), ctx4.zero(), EPS)
    # norm_sq = 1/2: v4 * 1/4 <= 3.5, inside
    half = Fraction(1, 2) * ctx4.one()
    assert chi(half, ctx4.zero(), EPS)
    assert chi_norm_sq(4, Fraction(1, 2), Fraction(7, 2))
    assert not chi_norm_sq(4, Fraction(2), Fraction(7, 2))


def test_chi_decides_near_threshold(ctx4):
    # the switch point is at nsq = R^2 = 0.8421687986955847796..., irrational,
    # so every rational input decides at some finite precision; hug it closely
    below = Fraction(8421687986955847796, 10 ** 19)
    above = Fraction(8421687986955847797, 10 ** 19)
    assert chi_norm_sq(4, below, Fraction(7, 2))
    assert not chi_norm_sq(4, above, Fraction(7, 2))


def _radius_sq_near(g: int, bound: Fraction) -> Fraction:
    """A rational within 2^-1000 of R^2 = (bound g!)^(1/g) / pi, from mpmath."""
    with mpmath.workprec(1100):
        r2 = mpmath.root(mpmath.mpf(bound.numerator) / bound.denominator * factorial(g), g)
        man, exp = (r2 / mpmath.pi).man_exp
    return Fraction(man) * Fraction(2) ** exp


@pytest.mark.parametrize("two_g", range(2, 26, 2))
def test_chi_norm_sq_matches_volume_form(two_g):
    # q = R^2 +- 2^-k decides only once the enclosure is finer than 2^-k, so
    # k = 140, 200 and 300 refine past the default 128 bits on both sides
    for bound in (Fraction(1, 3), Fraction(7, 2), Fraction(59, 2), Fraction(1000003, 7)):
        r2 = _radius_sq_near(two_g // 2, bound)
        for k in (8, 100, 140, 200, 300):
            for q, inside in ((r2 - Fraction(1, 2 ** k), True), (r2 + Fraction(1, 2 ** k), False)):
                assert chi_norm_sq(two_g, q, bound) is inside
                assert volume_chi_norm_sq(two_g, q, bound) is inside


@pytest.mark.parametrize("m, precision", [(17, 16), (35, 16), (35, 32), (51, 16), (51, 32),
                                          (51, 64)])
def test_radius_sq_at_low_precision(m, precision):
    # g = 16, 24, 32: the enclosure of v_2g at these precisions reaches 0, so
    # R^2 is enclosed without dividing by it, and the enclosure holds the
    # 128-bit one
    g, bound = phi(m), m - EPS
    assert svp.ball_volume(2 * g, precision).lo == 0
    coarse = checker._radius_sq(g, bound, precision)
    assert contains_interval(coarse, checker._radius_sq(g, bound, 128))
    r2 = _radius_sq_near(g, bound)
    for k in (8, 100, 140):
        for q, inside in ((r2 - Fraction(1, 2 ** k), True), (r2 + Fraction(1, 2 ** k), False)):
            assert chi_norm_sq(2 * g, q, bound, precision) is inside


# -- J(r) ------------------------------------------------------------------------

def test_j_value_empty_sum_is_exact_zero(ctx4, ctx3):
    j = j_value(ctx4, 2, EPS)
    assert j.lo == 0 and j.hi == 0
    j3 = j_value(ctx3, Fraction(3, 2), EPS)
    assert j3.lo == 0 and j3.hi == 0


def test_j_value_against_monte_carlo():
    cases = [(3, Fraction(3)), (4, Fraction(3)), (5, Fraction(5))]
    for m, r_sq in cases:
        ctx = get_ctx(m)
        j = j_value(ctx, r_sq, EPS)
        assert j.lo > 0
        est, se = mc_j_value(ctx, r_sq, EPS, 200_000, seed=m)
        mid = float(midpoint(j))
        assert abs(est - mid) <= 3 * se + float(width(j)), (m, est, se, mid)


def test_j_value_matches_vector_sum():
    # one term per distinct norm, times its multiplicity, gives the same
    # endpoints as one term per vector
    for m in SMALL_FIELDS:
        ctx = get_ctx(m)
        r0 = select_r(ctx, EPS, default_r_grid())
        for r_sq in (r0, r0 + Fraction(1, 2), r0 + 2):
            for precision in (128, 256):
                got = j_value(ctx, r_sq, EPS, precision)
                expect = vector_j_value(ctx, r_sq, EPS, precision)
                assert (got.lo, got.hi) == (expect.lo, expect.hi), (m, r_sq, precision)


def test_ring_norms_count_the_nonzero_ring_vectors():
    for m in SMALL_FIELDS:
        ctx = get_ctx(m)
        radius = select_r(ctx, EPS, default_r_grid()) * chi_radius_sq(ctx, EPS, 160).hi
        norms = ring_norms(ctx, radius)
        vecs = [t for v, t in ball_with_norms(prepared_form(ctx.ok_gram), radius) if any(v)]
        assert all(k % m == 0 for _, k in norms), m
        assert sum(k for _, k in norms) == len(vecs)
        assert [t for t, _ in norms] == sorted(set(vecs))


def test_ring_norms_enumerate_again_only_past_the_cached_radius(monkeypatch):
    ctx = get_ctx(5)
    radii = []
    norm_counts = search_module.norm_counts

    def recording(gram, radius_sq):
        radii.append(radius_sq)
        return norm_counts(gram, radius_sq)

    monkeypatch.setattr(search_module, "_RING_NORMS", {})
    monkeypatch.setattr(search_module, "norm_counts", recording)
    full = ring_norms(ctx, 30)
    inner = ring_norms(ctx, Fraction(25, 2))
    assert inner == [(t, k) for t, k in full if t <= Fraction(25, 2)]
    assert radii == [30]
    # past the cached radius the walk goes to max(request, 11/10 * cached)
    ring = prepared_form(ctx.ok_gram)
    assert ring_norms(ctx, 31) == norm_counts(ring, 31)
    assert radii == [30, 33]
    assert ring_norms(ctx, 30) == full and radii == [30, 33]
    assert ring_norms(ctx, 33) == norm_counts(ring, 33) and radii == [30, 33]
    assert ring_norms(ctx, 40) == norm_counts(ring, 40)
    assert radii == [30, 33, 40]


def test_select_r_walks_the_ring_a_few_times(monkeypatch):
    # the scan at m = 36 asks for 12 growing radii; the headroom rule walks
    # the ring at most 4 times for them, all on one prepared form, so the
    # ring is LLL-reduced once
    walks, reduced = [], []
    norm_counts, lll_reduce = search_module.norm_counts, svp.lll_reduce

    def recording(gram, radius_sq):
        walks.append(radius_sq)
        return norm_counts(gram, radius_sq)

    def reducing(rows, den):
        reduced.append(fractions(rows, den))
        return lll_reduce(rows, den)

    monkeypatch.setattr(search_module, "_RING_NORMS", {})
    monkeypatch.setattr(search_module, "norm_counts", recording)
    monkeypatch.setattr(svp, "lll_reduce", reducing)
    ctx = get_ctx(36)
    assert select_r(ctx, EPS, default_r_grid()) > 0
    assert 1 <= len(walks) <= 4, walks
    assert reduced.count(tuple(map(tuple, ctx.ok_gram))) == 1


def test_j_value_grows_toward_limit(ctx4):
    # J(r) approaches m - eps from the mean-value identity; by r^2 = 100 it
    # is within a few percent for m = 4
    j_small = j_value(ctx4, 4, EPS)
    j_large = j_value(ctx4, 100, EPS)
    assert j_small.hi < j_large.lo
    assert abs(float(midpoint(j_large)) - 3.5) < 0.2


# -- select_r ----------------------------------------------------------------------

def test_select_r_known_values(ctx3, ctx4):
    assert shortest_norm_sq(prepared_form(codiff_gram(ctx4))) == Fraction(1, 2)
    assert select_r(ctx4, EPS, default_r_grid()) == 2
    assert select_r(ctx3, EPS, default_r_grid()) == Fraction(3, 2)


def test_select_r_scans_past_the_old_grid():
    # 41/2 > 16: the scan has no fixed upper end
    assert select_r(get_ctx(28), EPS, default_r_grid()) == Fraction(41, 2)


def test_select_r_reports_failure(ctx4):
    with pytest.raises(NoQualifyingRadius) as exc:
        select_r(ctx4, EPS, (Fraction(1, 100),))
    assert str(exc.value).endswith("r^2 = 1/100: codifferent inside the chi ball")
    # at m = 21, r^2 = 23/2 is admissible but J(r) = 22.15 > 21
    with pytest.raises(NoQualifyingRadius) as exc:
        select_r(get_ctx(21), EPS, (Fraction(1, 2), Fraction(23, 2)))
    assert str(exc.value).split("; ")[1:] == [
        "r^2 = 1/2: codifferent inside the chi ball",
        "r^2 = 23/2: J(r) in [22.1479, 22.1479] is not below m = 21"]


# -- count_N ---------------------------------------------------------------------

def test_count_zero_at_origin_for_m4(ctx4):
    assert count_N(build_lattice(ctx4, 2, ctx4.zero()), EPS) == 0


def test_zero_twist_decided_by_the_ring_minimum():
    # x = 0 splits as r D^-1 + (1/r) Z[zeta_m] and |b|^2 >= g for every
    # nonzero ring integer b, with b = 1 attaining it, so N(0) = 0 exactly
    # when g / r^2 lies outside the chi ball. Checked at select_r's scale,
    # at a larger scale where N(0) > 0 for m = 3, 4 and 5, and on the four
    # r^2 = k/2 nearest the flip g / R^2, two on each side of it
    larger = {3: Fraction(3), 4: Fraction(5, 2), 5: Fraction(4)}
    for m in SMALL_FIELDS:
        ctx = get_ctx(m)
        g, bound = ctx.g, m - EPS
        k = int(2 * g / midpoint(chi_radius_sq(ctx, EPS, 64)))
        scales = [select_r(ctx, EPS, default_r_grid()),
                  *[Fraction(j, 2) for j in range(k - 1, k + 3)]]
        if m in larger:
            scales.append(larger[m])
        outside = {}
        for r_sq in scales:
            n0 = count_N(build_lattice(ctx, r_sq, ctx.zero()), EPS)
            outside[r_sq] = not chi_norm_sq(2 * g, g / r_sq, bound)
            assert (n0 == 0) == outside[r_sq], (m, r_sq, n0)
        assert set(outside.values()) == {True, False}, m
        assert m not in larger or not outside[larger[m]], m


def test_search_counts_only_sampled_twists(monkeypatch):
    # x = 0 loses at m = 6, 8 and 30 on g / r^2 alone: once select_r
    # returns, the first event is a draw, and no lattice is built at x = 0.
    # The winners sit at sample_index 3, 1 and 4 for m = 8, seeds 0, 1, 2,
    # and at 1 for m = 6 and 30, seed 0. Each sampled twist is drawn once, built once and LLL-reduced once; a
    # loser's least reduced basis vector lies in the chi ball, so it is
    # neither counted nor walked, and the winner walks once, for lambda1,
    # before its count
    events, drawn, reduced, walked = [], [], [], []
    lll_reduce, walk = svp.lll_reduce, svp.PreparedForm._walk

    def selecting(*args):
        r_sq = select_r(*args)
        events.append("select_r")
        return r_sq

    def drawing(ctx, denom, rng):
        drawn.append(sample_x(ctx, denom, rng))
        events.append("draw")
        return drawn[-1]

    def building(ctx, r_sq, x):
        events.append("build" if x else "build x = 0")
        return build_lattice(ctx, r_sq, x)

    def reducing(rows, den):
        reduced.append(fractions(rows, den))
        events.append("lll")
        return lll_reduce(rows, den)

    def walking(form, *args):
        walked.append(form)
        events.append("walk")
        return walk(form, *args)

    def recording(lattice, epsilon, precision=128):
        events.append("count")
        return count_N(lattice, epsilon, precision)

    monkeypatch.setattr(search_module, "select_r", selecting)
    monkeypatch.setattr(search_module, "sample_x", drawing)
    monkeypatch.setattr(search_module, "build_lattice", building)
    monkeypatch.setattr(svp, "lll_reduce", reducing)
    monkeypatch.setattr(svp.PreparedForm, "_walk", walking)
    monkeypatch.setattr(checker, "count_N", recording)
    for m, seed, index in ((8, 0, 3), (8, 1, 1), (8, 2, 4), (6, 0, 1), (30, 0, 1)):
        for log in (events, drawn, reduced, walked):
            log.clear()
        cert = search(SearchConfig(m=m, seed=seed))
        assert cert.sample_index == index == len(drawn) and all(drawn)
        after = events[events.index("select_r") + 1:]
        assert after == ["draw", "build", "lll"] * index + ["walk", "count"], (m, seed)
        grams = [tuple(map(tuple, real_gram(build_lattice(get_ctx(m), cert.r_sq, x))))
                 for x in drawn]
        assert reduced[-index:] == grams
        assert walked[-1].lambda1_sq == cert.lambda1_sq


def test_count_divisible_by_m():
    rng = random.Random(61)
    for m in (3, 4, 5, 8, 12):
        ctx = get_ctx(m)
        r_sq = select_r(ctx, EPS, default_r_grid())
        for _ in range(10):
            x = sample_x(ctx, 8, rng)
            assert count_N(build_lattice(ctx, r_sq, x), EPS) % m == 0


def test_count_invariant_under_codifferent_shift():
    rng = random.Random(63)
    for m in (4, 6):
        ctx = get_ctx(m)
        r_sq = Fraction(3)
        for _ in range(5):
            x = sample_x(ctx, 8, rng)
            delta = sum((rng.randint(-2, 2) * a for a in ctx.codiff_basis), ctx.zero())
            assert (count_N(build_lattice(ctx, r_sq, x), EPS)
                    == count_N(build_lattice(ctx, r_sq, x + delta), EPS))


def test_count_positive_when_twist_vanishes():
    ctx = get_ctx(6)
    r_sq = select_r(ctx, EPS, default_r_grid())
    n0 = count_N(build_lattice(ctx, r_sq, ctx.zero()), EPS)
    assert n0 > 0 and n0 % 6 == 0


def _quad(gram, v):
    return sum(gram[i][j] * v[i] * v[j] for i in range(len(v)) for j in range(len(v)))


def brute_count_N(ctx, r_sq, x, epsilon=EPS, precision=128):
    """count_N by box scans: every nonzero ring vector b, its center
    -coords_in_codiff(x conj(b)) computed in the field, every codifferent
    vector a near it, and chi on |r a + r x conj(b) + (i/r) b|^2."""
    r_sq = Fraction(r_sq)
    r2_hi = chi_radius_sq(ctx, epsilon, precision + 32).hi
    total, gram_cd = 0, codiff_gram(ctx)
    for bvec in box_points_in_ball(ctx.ok_gram, None, r_sq * r2_hi):
        if not any(bvec):
            continue
        t = _quad(ctx.ok_gram, bvec)
        rem_hi = (r2_hi - t / r_sq) / r_sq
        center = [-c for c in codiff_coords(ctx, x * ctx.element(bvec).conj())]
        for avec in box_points_in_ball(gram_cd, center, rem_hi):
            qa = _quad(gram_cd, [a - c for a, c in zip(avec, center)])
            if chi_norm_sq(2 * ctx.g, r_sq * qa + t / r_sq, ctx.m - epsilon, precision):
                total += 1
    return total


def test_count_walks_half_the_ball(monkeypatch):
    # the count's ball is about the origin: the walk emits the origin and one
    # of each pair +-v, and count_N reads exactly those points; v and -v share
    # their norm and whether their ring part is zero, so chi is decided at
    # most once per pair and never on the origin.
    # The twist is the third draw of verify's stream at m = 12, with N = 12.
    ctx = get_ctx(12)
    r_sq = select_r(ctx, EPS, default_r_grid(), 128)
    rng = random.Random("0|suite_count_divisibility")
    x = [sample_x(ctx, SearchConfig._field_defaults["denom"], rng) for _ in range(3)][-1]
    emitted, listed, decided = [], [], []
    walk, enumerate_ = svp.PreparedForm._walk, checker.enumerate_in_ball_with_norms
    chi_norm_sq_ = checker.chi_norm_sq

    def walking(form, radius_sq, emit):
        def recording(s, k):
            emitted.append(tuple(s))
            emit(s, k)
        return walk(form, radius_sq, recording)

    def listing(*args):
        listed.append(enumerate_(*args))
        return listed[-1]

    def deciding(*args):
        decided.append(args)
        return chi_norm_sq_(*args)

    monkeypatch.setattr(svp.PreparedForm, "_walk", walking)
    monkeypatch.setattr(checker, "enumerate_in_ball_with_norms", listing)
    monkeypatch.setattr(checker, "chi_norm_sq", deciding)
    n = count_N(build_lattice(ctx, r_sq, x), EPS)
    monkeypatch.undo()
    assert n == brute_count_N(ctx, r_sq, x) == 12
    assert len(listed) == 1 and len(emitted) == len(listed[0]) > 1
    assert 0 < len(decided) <= len(emitted) - 1


def test_count_matches_box_scan_on_twists():
    rng = random.Random(67)
    for m in (4, 5, 6):
        ctx = get_ctx(m)
        xs = [ctx.zero()] + [sample_x(ctx, 8, rng) for _ in range(3)]
        # the selected scale, and a larger one at which most counts are nonzero
        for r_sq in (select_r(ctx, EPS, default_r_grid()), Fraction(5)):
            for x in xs:
                assert (count_N(build_lattice(ctx, r_sq, x), EPS)
                        == brute_count_N(ctx, r_sq, x)), (m, r_sq, x)


def test_search_budget_counts_losers_exactly(monkeypatch):
    # at m = 8, seed 0, x = 0 and twists 1 and 2 all have N = 8; x = 0 loses
    # on g / r^2 and the two sampled twists on their reduced basis, none of
    # them counted. Once the budget of 3 runs out the same candidates, x = 0
    # first, are drawn again from the seed and each is counted on its own
    # lattice
    drawn, counted = [], []

    def drawing(ctx, denom, rng):
        drawn.append(sample_x(ctx, denom, rng))
        return drawn[-1]

    def recording(lattice, *args):
        counted.append((lattice.x, lattice.r_sq))
        return count_N(lattice, *args)

    monkeypatch.setattr(search_module, "sample_x", drawing)
    monkeypatch.setattr(search_module, "count_N", recording)
    with pytest.raises(SearchBudgetExceeded) as exc:
        search(SearchConfig(m=8, budget=3))
    assert exc.value.histogram == {1: 3}
    assert exc.value.best_n == 8 and exc.value.tried == 3
    ctx, r_sq = get_ctx(8), reference_certificate(8).r_sq
    candidates = [ctx.zero(), *drawn[:2]]
    assert len(drawn) == 4 and drawn[:2] == drawn[2:]
    assert counted == [(x, r_sq) for x in candidates]
    counts = [count_N(build_lattice(ctx, r_sq, x), EPS) for x in candidates]
    assert exc.value.histogram == {Fraction(n, 8): counts.count(n) for n in counts}


def test_twist_decided_by_reduced_basis_and_lambda1():
    # 175 twists of seven fields with g <= 6: the loser rule (the least
    # diagonal entry of the reduced form inside the ball) fires only where
    # N(x) > 0, and N(x) = 0 exactly when lambda1^2 lies outside the ball
    fired = winners = 0
    for m in (5, 7, 8, 9, 12, 14, 18):
        ctx = get_ctx(m)
        g, bound = ctx.g, m - EPS
        r_sq = select_r(ctx, EPS, default_r_grid())
        rng = random.Random(1)
        for _ in range(25):
            lat = build_lattice(ctx, r_sq, sample_x(ctx, 8, rng))
            rule = chi_norm_sq(2 * g, lat.form.min_diagonal, bound)
            lam = shortest_norm_sq(lat.form)
            n = count_N(lat, EPS)
            assert not rule or n > 0, (m, lat.x)
            assert (n == 0) == (not chi_norm_sq(2 * g, lam, bound)), (m, lat.x)
            fired += rule
            winners += n == 0
    assert fired and winners


def reference_certificate(m):
    return certificate_from_json_dict(json.loads((REFERENCE / f"m{m}.json").read_text()))


def test_certify_prepares_the_twisted_lattice_once(monkeypatch):
    # count_N and the SVP enumerate the lattice's own form: one lattice, one
    # LLL and one walk per certificate, since lambda1 is taken first and a
    # valid file's count ball lies below it
    seen, built, walked = [], [], []
    lll_reduce, build, walk = svp.lll_reduce, build_lattice, svp.PreparedForm._walk

    def counting(rows, den):
        seen.append(fractions(rows, den))
        return lll_reduce(rows, den)

    def building(*args):
        built.append(build(*args))
        return built[-1]

    def walking(form, *args):
        walked.append(form)
        return walk(form, *args)

    monkeypatch.setattr(svp, "lll_reduce", counting)
    monkeypatch.setattr(checker, "build_lattice", building)
    monkeypatch.setattr(svp.PreparedForm, "_walk", walking)
    for m in (8, 22):
        cert = reference_certificate(m)
        seen.clear()
        built.clear()
        walked.clear()
        _, mismatches = recompute_certificate(cert)
        assert mismatches == []
        assert len(built) == 1
        assert seen == [tuple(map(tuple, real_gram(built[0])))]
        assert walked == [built[0].form]

    # counting one lattice twice prepares it once; the form lives on the
    # lattice, and svp caches no form of its own that would keep it resident
    cert = reference_certificate(8)
    ctx = get_ctx(8)
    lat = build_lattice(ctx, cert.r_sq, sample_x(ctx, 8, random.Random(71)))
    seen.clear()
    assert count_N(lat, EPS) == count_N(lat, EPS)
    assert seen == [tuple(map(tuple, real_gram(lat)))]
    assert not [k for k, v in vars(svp).items()
                if hasattr(v, "cache_info") and v.__module__ == svp.__name__]


def test_certify_counts_a_losing_twist_exactly():
    # seed 0's twist 1 at m = 8 has N > 0 (the winner is twist 3), so some
    # nonzero vector lies in the chi ball and the count must walk it
    stored = reference_certificate(8)
    ctx = get_ctx(8)
    x = sample_x(ctx, 8, random.Random(0))
    fresh, mismatches = recompute_certificate(stored._replace(x_coords=x.coords))
    assert "n_value" in mismatches
    assert fresh.n_value == brute_count_N(ctx, stored.r_sq, x) > 0



def test_certify_refuses_a_known_vector_in_the_chi_ball():
    # known_vector_in_ball names (0, d), d the denominator of x in the
    # codifferent (1 at m = 3, where x = 0, and 8 at m = 8), and the
    # shortest codifferent generator, before any lattice is built
    refusals = [
        (3, 1000, "r^2 = 1000 puts the lattice vector (0, 1) inside the chi ball, so N(x) >= 1"),
        (8, 1000, "r^2 = 1000 puts the lattice vector (0, 8) inside the chi ball, so N(x) >= 1"),
        (8, Fraction(1, 10 ** 6), "r^2 = 1/1000000 puts a codifferent generator inside the "
                                   "chi ball, so lambda1 < R"),
    ]
    for m, r_sq, message in refusals:
        with pytest.raises(CertificateFormatError) as exc:
            recompute_certificate(reference_certificate(m)._replace(r_sq=Fraction(r_sq)))
        assert str(exc.value) == message

# -- sampling ----------------------------------------------------------------------

def test_sample_x_denom_one_is_zero(ctx4):
    rng = random.Random(0)
    for _ in range(5):
        assert not sample_x(ctx4, 1, rng)


def test_sample_x_reproducible(ctx12):
    a = [sample_x(ctx12, 8, random.Random(99)) for _ in range(10)]
    b = [sample_x(ctx12, 8, random.Random(99)) for _ in range(10)]
    assert [x.coords for x in a] == [x.coords for x in b]


def test_sample_x_translation_inequivalent(ctx4):
    rng = random.Random(101)
    seen = {}
    for _ in range(20):
        x = sample_x(ctx4, 8, rng)
        key = tuple(codiff_coords(ctx4, x))
        for other_key, other in seen.items():
            if other_key != key:
                assert not all(c.denominator == 1 for c in codiff_coords(ctx4, x - other))
        seen[key] = x


def test_sample_x_codifferent_coordinates_are_the_draws():
    # u_0, ..., u_(g-1) are drawn in order, and x = sum_j (u_j / denom) c_j
    for m in (3, 5, 12, 30):
        ctx = get_ctx(m)
        for denom in (1, 2, 8, 2 ** 20):
            for seed in range(5):
                x = sample_x(ctx, denom, random.Random(seed))
                rng = random.Random(seed)
                assert codiff_coords(ctx, x) == [Fraction(_randbelow(rng, denom), denom)
                                                   for _ in range(ctx.g)]


def test_sample_x_rejects_bad_denom(ctx4):
    with pytest.raises(ValueError):
        sample_x(ctx4, 0, random.Random(0))


# -- search and certificates --------------------------------------------------------

def test_search_m4_certificate():
    cert = search(SearchConfig(m=4, budget=1))
    assert cert.r_sq == 2
    assert cert.x_coords == (Fraction(0), Fraction(0))
    assert cert.lambda1_sq == 1
    assert cert.n_value == 0 and cert.sample_index == 0
    assert cert.is_valid()
    assert Fraction(493, 100) < cert.bound_lo < Fraction(494, 100)


def test_search_budget_exhaustion_reports_best():
    # x = 0 fails for m = 6 and is counted on its own lattice once the budget
    # runs out; denom = 1 draws only x = 0 again, so every sampled twist is
    # x = 0 too
    for denom, budget in ((8, 1), (1, 10)):
        with pytest.raises(SearchBudgetExceeded) as exc:
            search(SearchConfig(m=6, denom=denom, budget=budget))
        assert exc.value.best_n == 6
        assert exc.value.tried == budget
        # every counted twist is x = 0, with N = 6 = 1 * m
        assert exc.value.histogram == {1: budget}
        assert str(exc.value).endswith("twists by N/m: 1: %d)" % budget)
    # three twists with counts 8, 8 and 16 at m = 8
    with pytest.raises(SearchBudgetExceeded) as exc:
        search(SearchConfig(m=8, denom=2, budget=3, seed=4))
    assert exc.value.histogram == {1: 2, 2: 1}
    assert exc.value.best_n == 8
    assert str(exc.value).endswith("twists by N/m: 1: 2, 2: 1)")



def test_zero_twists_build_no_losing_lattice(monkeypatch):
    # denom = 1 draws only x = 0, which loses at m = 6 on the lattice vector
    # (0, 1) alone: no candidate builds a lattice, and each of the five is
    # built once when the budget runs out, to be counted for exit 3
    events = []

    def building(ctx, r_sq, x):
        events.append("build")
        return build_lattice(ctx, r_sq, x)

    def recording(lattice, *args):
        events.append("count")
        return count_N(lattice, *args)

    monkeypatch.setattr(search_module, "build_lattice", building)
    monkeypatch.setattr(search_module, "count_N", recording)
    with pytest.raises(SearchBudgetExceeded) as exc:
        search(SearchConfig(m=6, denom=1, budget=5))
    assert exc.value.histogram == {1: 5}
    assert events == ["build", "count"] * 5

def test_search_deterministic_bytes():
    a = dump_json(certificate_to_json_dict(search(SearchConfig(m=6, seed=5))))
    b = dump_json(certificate_to_json_dict(search(SearchConfig(m=6, seed=5))))
    assert a == b


def test_search_config_reuse_gives_identical_bytes():
    # each search scans a fresh default_r_grid(), so a second search on the
    # same config scans from r^2 = 1/2 again
    config = SearchConfig(m=6, seed=5)
    first = dump_json(certificate_to_json_dict(search(config)))
    assert dump_json(certificate_to_json_dict(search(config))) == first


def test_search_validates_config():
    with pytest.raises(ValueError):
        search(SearchConfig(m=5, epsilon=Fraction(6)))
    with pytest.raises(ValueError):
        search(SearchConfig(m=2))
    with pytest.raises(ValueError):
        search(SearchConfig(m=4, budget=0))
    with pytest.raises(ValueError, match="seed must be >= 0"):
        search(SearchConfig(m=4, seed=-1))
    with pytest.raises(TypeError):  # the r^2 scan is not configurable
        SearchConfig(m=4, r_grid=())


def test_certificate_roundtrip_and_recompute():
    cert = search(SearchConfig(m=5))
    doc = certificate_to_json_dict(cert)
    back = certificate_from_json_dict(json.loads(json.dumps(doc)))
    assert back == cert
    fresh, mismatches = recompute_certificate(back)
    assert mismatches == []
    assert fresh.is_valid()


def test_recompute_detects_tampering():
    cert = search(SearchConfig(m=4))
    doc = certificate_to_json_dict(cert)
    doc["lambda1_sq"] = "2/1"
    tampered = certificate_from_json_dict(doc)
    _, mismatches = recompute_certificate(tampered)
    assert "lambda1_sq" in mismatches
