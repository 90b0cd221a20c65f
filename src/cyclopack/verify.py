"""Randomized exact property suites behind the verify command.

Each suite quantifies an identity that holds exactly over the rationals
(norm invariance under the unit action, a free orbit of the unit action,
integrality and unimodularity of the symplectic form, stability of the
lattice, the covolume product, divisibility of the obstruction count) over
seeded random instances, and reports the first failing instance verbatim so
a defect is reproducible.
"""
from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction

from . import linalg
from .checker import count_N
from .cyclotomic import CyclotomicContext
from .geometry import ComplexPoint, g_act, gram, norm_sq
from .lattice import build_lattice
from .search import SearchConfig, default_r_grid, sample_x, select_r


SuiteResult = namedtuple("SuiteResult", "name passed detail", defaults=(None,))


def _random_element(ctx: CyclotomicContext, rng: random.Random):
    coords = [Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(ctx.g)]
    return ctx.element(coords)


def _random_r_sq(rng: random.Random) -> Fraction:
    # rational r^2 in [1/2, 4]
    return Fraction(rng.randint(4, 32), 8)


def _fail(name: str, **detail) -> SuiteResult:
    return SuiteResult(name, False, {k: str(v) for k, v in detail.items()})


def suite_norm_invariance(ctx, trials: int, rng) -> SuiteResult:
    name = "norm_invariance"
    for t in range(trials):
        p = ComplexPoint(_random_element(ctx, rng), _random_element(ctx, rng))
        base = norm_sq(p)
        for k in range(ctx.m):
            if norm_sq(g_act(k, p)) != base:
                return _fail(name, trial=t, k=k, x=p.x.coords, y=p.y.coords)
    return SuiteResult(name, True)


def suite_free_orbit(ctx, trials: int, rng) -> SuiteResult:
    name = "free_orbit"
    for t in range(trials):
        p = ComplexPoint(_random_element(ctx, rng), _random_element(ctx, rng))
        if not p.x and not p.y:
            continue
        orbit = {g_act(k, p) for k in range(ctx.m)}
        if len(orbit) != ctx.m:
            return _fail(name, trial=t, orbit_size=len(orbit))
    return SuiteResult(name, True)


def suite_principality(ctx, trials: int, rng) -> SuiteResult:
    name = "principality"
    for t in range(trials):
        r_sq = _random_r_sq(rng)
        x = _random_element(ctx, rng)
        lat = build_lattice(ctx, r_sq, x)
        if not lat.is_riemann_integral():
            return _fail(name, trial=t, r_sq=r_sq, x=x.coords, check="integrality")
        if not lat.is_unimodular():
            return _fail(name, trial=t, r_sq=r_sq, x=x.coords, check="unimodular")
        if lat.det_real_gram() != 1:
            return _fail(name, trial=t, r_sq=r_sq, x=x.coords, check="covolume")
    return SuiteResult(name, True)


def suite_stability(ctx, trials: int, rng) -> SuiteResult:
    name = "stability"
    for t in range(trials):
        r_sq = _random_r_sq(rng)
        x = _random_element(ctx, rng)
        lat = build_lattice(ctx, r_sq, x)
        if not lat.is_g_stable():
            return _fail(name, trial=t, r_sq=r_sq, x=x.coords, check="g_stable")
        if not lat.has_real_multiplication():
            return _fail(name, trial=t, r_sq=r_sq, x=x.coords, check="real_mult")
    return SuiteResult(name, True)


def suite_covolume_product(ctx, trials: int, rng) -> SuiteResult:
    name = "covolume_product"
    prod = linalg.determinant(gram(ctx.ok_basis)) * linalg.determinant(gram(ctx.codiff_basis))
    if prod != 1:
        return _fail(name, product=prod)
    return SuiteResult(name, True)


def suite_count_divisibility(ctx, trials: int, rng) -> SuiteResult:
    name = "count_divisibility"
    defaults = SearchConfig._field_defaults  # those of search and certify
    epsilon, denom, precision = defaults["epsilon"], defaults["denom"], defaults["precision"]
    r_sq = select_r(ctx, epsilon, default_r_grid(), precision)
    for t in range(trials):
        x = sample_x(ctx, denom, rng)
        n = count_N(build_lattice(ctx, r_sq, x), epsilon, precision)
        if n % ctx.m != 0:
            return _fail(name, trial=t, r_sq=r_sq, x=x.coords, count=n)
    return SuiteResult(name, True)


ALL_SUITES = (
    suite_norm_invariance,
    suite_free_orbit,
    suite_principality,
    suite_stability,
    suite_covolume_product,
    suite_count_divisibility,
)


def run_suites(m: int, trials: int, seed: int = 0) -> list[SuiteResult]:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    ctx = CyclotomicContext(m)
    results = []
    for fn in ALL_SUITES:
        # string seeding is stable across runs (unlike hash-based tuple seeding)
        rng = random.Random(f"{seed}|{fn.__name__}")
        try:
            results.append(fn(ctx, trials, rng))
        except Exception as exc:  # a crash inside a suite is a detected defect
            results.append(_fail(fn.__name__.removeprefix("suite_"), error=repr(exc)))
    return results
