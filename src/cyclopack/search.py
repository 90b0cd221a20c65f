"""The averaging search: pick a scale certified by the mean-value bound,
then decide twist points one at a time until the obstruction count
vanishes. The chi ball, N(x) and the certificate are the checker's
(cyclopack.checker); this module only finds the (r^2, x) to hand it.

Pipeline for a given m and rational epsilon in (0, m):

  1. select_r scans r^2 = 1/2, 1, 3/2, ... for the first value where the
     pure codifferent vectors lie outside the chi ball while the mean
     obstruction count J(r) stays below m (certified interval upper bound).
     Like chi and N(x), it asks |z|^2 <= R^2 of one memoized R^2 enclosure.
     The scan has no upper end; it stops because J(r) tends to m - epsilon < m.
     J(r) depends on the ring only through the norms |b|^2 of its nonzero
     integers, so one streamed enumeration of the ring per field serves it
     (ring_norms).
  2. Twist points x are sampled from the fundamental parallelepiped of the
     codifferent; x = 0 is always tried first. The first x with N(x) = 0
     wins; since the count is divisible by m and has mean J(r0) < m, such x
     exist in abundance. The lattice at x = 0 splits, and its shortest
     vectors with nonzero ring part, (0, 1) among them, have squared norm
     g/r^2: x = 0 is decided by chi at that one norm, with no lattice built
     unless it wins. Each sampled twist's lattice is built and LLL-reduced
     once. select_r puts every nonzero vector with b = 0 outside the chi
     ball, so any nonzero lattice vector inside it is a point N(x) counts: if
     the least reduced basis vector lies inside, the twist loses without a
     walk.
  3. Otherwise lambda1 is taken, and a twist whose shortest vector lies
     inside the ball loses too. So N(x) = 0 exactly when lambda1^2 lies
     outside it. A winner, x = 0 included, gets its certificate from
     checker._certificate_at, the step certify re-runs. Losers are counted
     exactly only if the budget runs out, by drawing the seed's twists
     again.

The twists are drawn from random.Random(seed) by rejection sampling on its
bit stream, so a search reproduces bit-for-bit from its configuration.
"""
from __future__ import annotations

import random
from collections import Counter, namedtuple
from collections.abc import Iterator
from fractions import Fraction
from itertools import count

# certified_lower_bound is not called here: perfbench/tracer.py wraps it under
# this module's name until the benchmark reads counters (ROADMAP item 4)
from .checker import (Certificate, _certificate_at, certified_lower_bound, chi_norm_sq,
                      chi_radius_sq, count_N, refine, validate_domain)
from .cyclotomic import CycloElement, CyclotomicContext
from .intervals import IntervalValue
from .lattice import build_lattice
from .svp import PreparedForm, ball_volume, norm_counts, shortest_norm_sq


class SearchError(Exception):
    pass


class NoQualifyingRadius(SearchError):
    """No value of a finite r^2 sequence passed both certified conditions.
    The default scan is unbounded and always finds one."""


class SearchBudgetExceeded(SearchError):
    """No twist of the sample budget has count zero. histogram maps each
    value of N(x)/m seen to the number of counted twists with that value;
    every counted twist, x = 0 included, is in it, so tried is its total."""

    def __init__(self, m: int, histogram: dict[Fraction, int]) -> None:
        self.m = m
        self.tried = sum(histogram.values())
        self.histogram = dict(sorted(histogram.items()))
        self.best_n = int(min(self.histogram) * m)
        shown = ", ".join(f"{k}: {v}" for k, v in self.histogram.items())
        super().__init__(f"m={m}: no zero-count twist found in {self.tried} samples "
                         f"(best count seen: {self.best_n}; twists by N/m: {shown})")


def default_r_grid() -> Iterator[Fraction]:
    """The unbounded stream r^2 = k/2, k = 1, 2, 3, ..., in increasing order."""
    return count(Fraction(1, 2), Fraction(1, 2))


class SearchConfig(namedtuple("SearchConfig", "m epsilon denom budget seed precision",
                              defaults=(Fraction(1, 2), 8, 1000, 0, 128))):
    __slots__ = ()

    @property
    def r_grid(self) -> Iterator[Fraction]:
        """A fresh default_r_grid(), the r^2 values search scans. search
        calls default_r_grid() itself; perfbench/child.py reads this."""
        return default_r_grid()

    def validate(self) -> None:
        validate_domain(self.m, self.epsilon, self.precision)
        if self.denom < 1 or self.budget < 1:
            raise ValueError("denom and budget must be >= 1")


# -- J(r) ----------------------------------------------------------------------

# m -> (ring's prepared form, radius, norms up to it); norms depend on neither r nor epsilon
_RING_NORMS: dict[int, tuple[PreparedForm, Fraction, list[tuple[Fraction, int]]]] = {}
# a walk to radius_sq costs about radius_sq^(g/2), so a walk past the cached
# radius goes at least this factor beyond it: the last walk costs at most
# 1.1^(g/2) times one at the request. select_r walks once on every field
# with g <= 10, and five times at m = 13 and 26
RING_HEADROOM = Fraction(11, 10)


def ring_norms(ctx: CyclotomicContext, radius_sq) -> list[tuple[Fraction, int]]:
    """Sorted pairs (t, k): the k nonzero ring integers b with |b|^2 = t, for
    every t <= radius_sq; the start of the theta series of Z[zeta_m] under
    the trace form. Each k is a multiple of m (the units zeta^j act freely).

    One enumeration per field serves every request inside its radius. The
    first walks to exactly the request; a larger request walks again, to
    max(request, RING_HEADROOM * cached radius), on the same prepared form,
    so the ring is LLL-reduced once per field. The walk only tallies norms,
    so memory is set by the distinct norms, not the vectors.
    """
    radius_sq = Fraction(radius_sq)
    cached = _RING_NORMS.get(ctx.m)
    if cached is None or cached[1] < radius_sq:
        form, walk_sq = ((PreparedForm(ctx.ok_gram, 1), radius_sq) if cached is None
                         else (cached[0], max(radius_sq, RING_HEADROOM * cached[1])))
        cached = _RING_NORMS[ctx.m] = (form, walk_sq, norm_counts(form, walk_sq))
    return [(t, k) for t, k in cached[2] if t <= radius_sq]


def j_value(ctx: CyclotomicContext, r_sq, epsilon, precision: int = 128) -> IntervalValue:
    """Enclosure of the mean obstruction count at scale r.

    Closed form: since |x + i b / r|^2 = |x|^2 + |b|^2 / r^2, every term of
    the defining sum is the volume of a g-ball slice, so

        J(r) = nu(F') * r^-g * v_g * sum_b (R^2 - |b|^2 / r^2)^(g/2)

    over nonzero ring integers b with |b|^2 < r^2 R^2, with nu(F') the
    covolume sqrt(|disc|) of the ring of integers. The sum runs over the
    distinct norms t = |b|^2, each term times its multiplicity; interval sums
    and integer multiples are exact, so the endpoints are those of the sum
    taken vector by vector. Validated against a Monte-Carlo estimate of the
    defining integral in the test suite.
    """
    r_sq = Fraction(r_sq)
    g = ctx.g
    guard = precision + 32
    r2 = chi_radius_sq(ctx, epsilon, guard)
    total = IntervalValue.point(0)
    nonempty = False
    for t, k in ring_norms(ctx, r_sq * r2.hi):
        s = t / r_sq
        if r2.hi <= s:
            continue
        nonempty = True
        total = total + IntervalValue(max(r2.lo - s, 0), r2.hi - s) ** (g // 2) * k
    if not nonempty:
        return IntervalValue.point(0)
    nu_f_prime = IntervalValue.point(ctx.disc_abs).sqrt(guard)
    vg = ball_volume(g, guard)
    return (nu_f_prime * vg * total / (r_sq ** (g // 2))).outward(precision)


def select_r(ctx: CyclotomicContext, epsilon, r_grid, precision: int = 128) -> Fraction:
    """First value r^2 of r_grid such that, with certainty from interval
    bounds, the pure codifferent vectors lie outside the chi ball
    (r^2 lambda1^2(I) > R^2, asked as not chi_norm_sq) and J(r) < m.

    On an unbounded increasing sequence such as default_r_grid() the scan
    terminates: the first condition holds for every large r^2, and J(r)
    tends to m - epsilon < m, so its certified upper bound eventually drops
    below m. A finite sequence with no such value raises NoQualifyingRadius,
    which names the condition each r^2 failed.
    """
    epsilon = Fraction(epsilon)
    m, g = ctx.m, ctx.g
    bound = m - epsilon
    lam_codiff = shortest_norm_sq(PreparedForm(ctx.codiff_gram_num, ctx.codiff_gram_den))
    failed = []
    for r_sq in r_grid:
        r_sq = Fraction(r_sq)
        if r_sq <= 0:
            continue
        if chi_norm_sq(2 * g, r_sq * lam_codiff, bound, precision):
            failed.append(f"r^2 = {r_sq}: codifferent inside the chi ball")
            continue
        j = refine(lambda p: j_value(ctx, r_sq, epsilon, p),
                   lambda j: j.hi < m or j.lo >= m, precision)
        if j.hi < m:
            return r_sq
        failed.append(f"r^2 = {r_sq}: J(r) in [{float(j.lo):.6g}, {float(j.hi):.6g}] "
                      f"is not below m = {m}")
    raise NoQualifyingRadius(
        f"m={m}: no r^2 in the given sequence passes both certified conditions"
        + "".join(f"; {why}" for why in failed))


# -- twist sampling -----------------------------------------------------------

def _randbelow(rng: random.Random, n: int) -> int:
    # rejection sampling on getrandbits: exactly uniform and portable, since
    # the MT19937 bit stream is fixed by the algorithm; n = 1 draws
    # getrandbits(0), which is 0 and consumes no bits
    k = (n - 1).bit_length()
    while True:
        r = rng.getrandbits(k)
        if r < n:
            return r


def sample_x(ctx: CyclotomicContext, denom: int, rng: random.Random) -> CycloElement:
    """Random point of the fundamental parallelepiped of the codifferent with
    coordinates u_j / denom, u_j uniform in [0, denom)."""
    if denom < 1:
        raise ValueError("denom must be >= 1")
    return ctx.codiff_gen * ctx.element([Fraction(_randbelow(rng, denom), denom)
                                         for _ in range(ctx.g)])


# -- the full search ----------------------------------------------------------

def _twists(config: SearchConfig, ctx: CyclotomicContext) -> Iterator[CycloElement]:
    """The candidates at sample_index 0, 1, ..., budget - 1: x = 0, then
    budget - 1 twists drawn from the seed. Each call draws them afresh, so
    the budget's count sees the twists the search saw without keeping them."""
    rng = random.Random(config.seed)
    yield ctx.zero()
    for _ in range(1, config.budget):
        yield sample_x(ctx, config.denom, rng)


def search(config: SearchConfig) -> Certificate:
    """Run the full pipeline; raises NoQualifyingRadius or
    SearchBudgetExceeded when the certified witness cannot be produced
    within the configured resources.

    The candidates of _twists are decided one at a time; the first with
    count zero wins, so no twist past it is drawn. x = 0 is decided by a
    closed form and builds no lattice unless it wins. A sampled twist loses
    uncounted when its least reduced basis vector, or else its shortest
    vector, lies in the chi ball. A winner's certificate is built by
    _certificate_at. When the budget runs out, the candidates are drawn
    again and each is counted exactly."""
    config.validate()
    ctx = CyclotomicContext(config.m)
    r_sq = select_r(ctx, config.epsilon, default_r_grid(), config.precision)
    g, bound, precision = ctx.g, ctx.m - config.epsilon, config.precision

    def inside(nsq: Fraction) -> bool:
        return chi_norm_sq(2 * g, nsq, bound, precision)

    for i, x in enumerate(_twists(config, ctx)):
        # x = 0 splits as r D^-1 + (1/r) Z[zeta_m], and |b|^2 >= g for every
        # nonzero ring integer b (AM-GM on Tr(b conj(b))), attained at b = 1:
        # N(0) = 0 exactly when (0, 1), of squared norm g / r^2, lies outside
        if i == 0 and inside(g / r_sq):
            continue
        lat = build_lattice(ctx, r_sq, x)
        # select_r put every nonzero vector with b = 0 outside the ball, so a
        # nonzero vector inside it is counted by N(x); lambda1^2 <= min_diagonal
        if i > 0 and (inside(lat.form.min_diagonal) or inside(shortest_norm_sq(lat.form))):
            continue
        return _certificate_at(lat, config.epsilon, precision, config.seed, i)
    raise SearchBudgetExceeded(config.m, Counter(
        Fraction(count_N(build_lattice(ctx, r_sq, x), config.epsilon, precision), ctx.m)
        for x in _twists(config, ctx)))
