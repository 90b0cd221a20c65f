"""The averaging search: pick a scale certified by the mean-value bound,
sample twist points until the obstruction count vanishes, and emit an exact
certificate of the resulting packing bound.

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
     outside it. A winner, x = 0 included, and a re-check (certify) build
     their certificate in one step, _certificate_at, which fixes the order
     lambda1 first, then the exact count_N. The certificate's bound is NOT
     inferred from the counting argument: the shortest vector is enumerated
     exactly and v_2g * lambda1^2g is bounded below by interval arithmetic.
     Losers are counted exactly only if the budget runs out, by drawing the
     seed's twists again.

All certified quantities are exact rationals; interval refinement is
deterministic, so a certificate reproduces bit-for-bit from (m, epsilon,
r^2, x, precision).
"""
from __future__ import annotations

import random
from collections import Counter, namedtuple
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import factorial, lcm

from .cyclotomic import CycloElement, CyclotomicContext
from .geometry import ComplexPoint, norm_sq
from .intervals import IntervalValue, pi_interval
from .ioutil import fmt_rat, parse_fmt_rat
from .lattice import PolarizedLattice, build_lattice
from .svp import (PreparedForm, ball_volume, enumerate_in_ball_with_norms, norm_counts,
                  shortest_norm_sq)
from .tables import phi

MAX_PRECISION = 4096
# the largest g = phi(m) a stored certificate may have: twice g = 16, where
# one certify already takes minutes; a larger file is rejected before phi
# or a context is computed
MAX_G = 32

CHECK_NAMES = ("integrality", "unimodular", "g_stable", "real_mult")


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


class CertificateFormatError(ValueError):
    pass


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
        if self.m < 3:
            raise ValueError(f"m must be >= 3, got {self.m}")
        if not (0 < self.epsilon < self.m):
            raise ValueError(f"epsilon must satisfy 0 < epsilon < m, got {self.epsilon}")
        if self.denom < 1 or self.budget < 1:
            raise ValueError("denom and budget must be >= 1")
        if not (16 <= self.precision <= MAX_PRECISION):
            raise ValueError(f"precision must lie in [16, {MAX_PRECISION}], "
                             f"got {self.precision}")


class Certificate(namedtuple("Certificate", "m g epsilon r_sq x_coords lambda1_sq n_value "
                             "bound_lo checks precision_bits seed sample_index")):
    """Exact witness of v_2g * lambda1(Gamma)^2g > m - epsilon together with
    the structural checks of the underlying polarized lattice: x_coords is a
    tuple and checks a dict of CHECK_NAMES to bool; epsilon, r_sq, lambda1_sq
    and bound_lo are Fractions."""

    __slots__ = ()

    def is_valid(self) -> bool:
        return (self.n_value == 0
                and all(self.checks.get(k, False) for k in CHECK_NAMES)
                and self.bound_lo > self.m - self.epsilon)


# -- precision refinement ----------------------------------------------------

def refine(enclose, decided, precision: int):
    """enclose(p) at p = precision, 2p, ... up to MAX_PRECISION: the first
    enclosure that decided accepts, or the one at the cap. Deterministic, so
    every certified quantity reproduces from its starting precision."""
    p = precision
    while True:
        out = enclose(p)
        if decided(out) or p >= MAX_PRECISION:
            return out
        p = min(2 * p, MAX_PRECISION)


# -- the chi ball ---------------------------------------------------------------

@lru_cache(maxsize=None)
def _radius_sq(g: int, bound: Fraction, precision: int) -> IntervalValue:
    """Enclosure of R^2 = (bound / v_2g)^(1/g) = (bound g!)^(1/g) / pi, since
    v_2g = pi^g / g!; every chi-ball question reads it. Nothing small is
    divided by, so every precision encloses it, even where the enclosure of
    v_2g reaches 0."""
    root = IntervalValue.point(bound * factorial(g)).nth_root(g, precision)
    return (root / pi_interval(precision)).outward(precision)


def chi_norm_sq(two_g: int, nsq: Fraction, bound: Fraction, precision: int = 128) -> bool:
    """chi on a point of known squared norm: true iff nsq <= R^2, i.e.
    v_2g * nsq^g <= bound. The R^2 enclosure is refined until nsq leaves it;
    a tie at the precision cap counts as inside, which can only inflate the
    obstruction count, never weaken a certificate."""
    r = refine(lambda p: _radius_sq(two_g // 2, bound, p),
               lambda r: nsq not in r, precision)
    return nsq <= r.hi


def chi(p: ComplexPoint, epsilon, precision: int = 128) -> bool:
    """Indicator of the ball v_2g |z|^2g <= m - epsilon at a rational point."""
    ctx = p.ctx
    return chi_norm_sq(2 * ctx.g, norm_sq(p), ctx.m - Fraction(epsilon), precision)


def chi_radius_sq(ctx: CyclotomicContext, epsilon, precision: int) -> IntervalValue:
    """Enclosure of R^2 = ((m - epsilon) / v_2g)^(1/g), the squared norm at
    which chi switches off."""
    return _radius_sq(ctx.g, ctx.m - Fraction(epsilon), precision)


# -- J(r) ----------------------------------------------------------------------

# m -> (ring's prepared form, radius, norms up to it); norms depend on neither r nor epsilon
_RING_NORMS: dict[int, tuple[PreparedForm, Fraction, list[tuple[Fraction, int]]]] = {}
# a walk to radius_sq costs about radius_sq^(g/2), so a walk past the cached
# radius goes at least this factor beyond it: the last walk costs at most
# 1.1^(g/2) times one at the request, and about three walks cover any scan
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
        form, walk_sq = ((PreparedForm(ctx.ok_gram), radius_sq) if cached is None
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
    lam_codiff = shortest_norm_sq(ctx.codiff_gram)
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


# -- N(x): the exact obstruction count ----------------------------------------

def count_N(lattice: PolarizedLattice, epsilon, precision: int = 128) -> int:
    """Exact number of vectors of a twisted lattice, as built by
    build_lattice(ctx, r_sq, x), whose ring part b (the last g coefficients)
    is nonzero and that lie inside the chi ball.

    Candidates are enumerated in the lattice's own Gram matrix against the
    outer bound R^2.hi of chi_radius_sq at this precision, the enclosure chi
    refines from, and each one is confirmed by the certified chi itself, so
    the count is exact despite the irrational threshold. It enumerates
    lattice.form; a certificate takes lambda_1 on that form first (see
    _certificate_at), and a ball below lambda_1 is answered without a walk.
    """
    ctx = lattice.ctx
    g = ctx.g
    bound = ctx.m - Fraction(epsilon)
    r2 = chi_radius_sq(ctx, epsilon, precision)
    return sum(1 for v, nsq in enumerate_in_ball_with_norms(lattice.form, None, r2.hi)
               if any(v[g:]) and chi_norm_sq(2 * g, nsq, bound, precision))


# -- twist sampling -----------------------------------------------------------

def _randbelow(rng: random.Random, n: int) -> int:
    # rejection sampling on getrandbits: exactly uniform and portable, since
    # the MT19937 bit stream is fixed by the algorithm
    if n == 1:
        return 0
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

def certified_lower_bound(two_g: int, lambda1_sq: Fraction, target: Fraction,
                          precision: int) -> Fraction:
    """Rational lower bound of v_2g * lambda1^2g, refined until it exceeds
    target or the precision cap is reached."""
    q_pow = Fraction(lambda1_sq) ** (two_g // 2)
    return refine(lambda p: ball_volume(two_g, p) * q_pow,
                  lambda v: v.lo > target, precision).lo


def run_checks(lat) -> dict[str, bool]:
    integral = lat.is_riemann_integral()
    return {
        "integrality": integral,
        "unimodular": integral and lat.is_unimodular(),
        "g_stable": lat.is_g_stable(),
        "real_mult": lat.has_real_multiplication(),
    }


def _certificate_at(config: SearchConfig, lat: PolarizedLattice,
                    sample_index: int) -> Certificate:
    """The certificate of a built lattice: the one step of search's winner
    and of recompute_certificate. lambda1 comes first, then count_N on the
    same form, whose ball for a winner lies below lambda1, holds only the
    origin and is answered without a walk: a certificate costs one walk."""
    ctx = lat.ctx
    lam = shortest_norm_sq(lat.form)
    n_value = count_N(lat, config.epsilon, config.precision)
    checks = run_checks(lat)
    bound_lo = certified_lower_bound(2 * ctx.g, lam, ctx.m - config.epsilon,
                                     config.precision)
    return Certificate(
        m=ctx.m, g=ctx.g, epsilon=config.epsilon, r_sq=lat.r_sq,
        x_coords=lat.x.coords, lambda1_sq=lam, n_value=n_value, bound_lo=bound_lo,
        checks=checks, precision_bits=config.precision, seed=config.seed,
        sample_index=sample_index,
    )


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
        return _certificate_at(config, lat, i)
    raise SearchBudgetExceeded(config.m, Counter(
        Fraction(count_N(build_lattice(ctx, r_sq, x), config.epsilon, precision), ctx.m)
        for x in _twists(config, ctx)))


# -- certificate (de)serialization and re-verification -------------------------

# the certificate fields stored as JSON integers and as "p/q" strings; x is
# a list of the latter and checks a dict of CHECK_NAMES to booleans
INT_FIELDS = ("m", "g", "n_value", "precision_bits", "seed", "sample_index")
RAT_FIELDS = ("epsilon", "r_sq", "lambda1_sq", "bound_lo")


def certificate_to_json_dict(cert: Certificate) -> dict:
    return {
        **{k: getattr(cert, k) for k in INT_FIELDS},
        **{k: fmt_rat(getattr(cert, k)) for k in RAT_FIELDS},
        "x": [fmt_rat(c) for c in cert.x_coords],
        "checks": {k: bool(cert.checks[k]) for k in CHECK_NAMES},
    }


def _typed(value, kind: type, name: str):
    """value itself if its type is exactly kind (so a JSON true is no integer)."""
    if type(value) is not kind:
        raise TypeError(f"{name} must be a JSON {kind.__name__}, got {value!r}")
    return value


def certificate_from_json_dict(d: dict) -> Certificate:
    """Parse a stored certificate and check that its inputs lie in the domain
    a search accepts, before any recomputation starts. Integers must be JSON
    integers, rationals "p/q" strings as fmt_rat writes them (no decimal or
    exponent) and checks JSON booleans: nothing is coerced, so a file
    verifies only as written."""
    try:
        ints = {k: _typed(d[k], int, k) for k in INT_FIELDS}
        rats = {k: parse_fmt_rat(_typed(d[k], str, k), k) for k in RAT_FIELDS}
        cert = Certificate(
            **ints, **rats,
            x_coords=tuple(parse_fmt_rat(_typed(v, str, "x"), "x")
                           for v in _typed(d["x"], list, "x")),
            checks={k: _typed(d["checks"][k], bool, k) for k in CHECK_NAMES},
        )
        SearchConfig(m=cert.m, epsilon=cert.epsilon,
                     precision=cert.precision_bits).validate()
        # phi(m) >= sqrt(m/2) rejects a huge m before phi or a context is computed
        k = len(cert.x_coords)
        if k > MAX_G:
            raise ValueError(f"x has {k} coordinates, above the cap g <= {MAX_G}")
        if cert.m > 2 * k * k + 1 or phi(cert.m) != k:
            raise ValueError(f"x has {k} coordinates, expected phi(m) for m={cert.m}")
        if cert.r_sq <= 0:
            raise ValueError(f"r^2 must be positive, got {cert.r_sq}")
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CertificateFormatError(f"malformed certificate: {exc}") from exc
    return cert


def recompute_certificate(cert: Certificate) -> tuple[Certificate, list[str]]:
    """Recompute every derived field from (m, epsilon, r^2, x) at the stored
    precision and list all fields that disagree with the stored values.
    Raises CertificateFormatError before counting, which caps r^2 both ways,
    if the chi ball holds the lattice vector (0, d), d x in the codifferent,
    of squared norm d^2 g / r^2 (so N(x) >= 1), or a codifferent generator
    (c_j, 0), of squared norm r^2 codiff_gram[j][j] (so lambda1 < R). The
    certificate is rebuilt by _certificate_at, the step of search's winner."""
    ctx = CyclotomicContext(cert.m)
    x = ctx.element(cert.x_coords)
    g, bound, precision = ctx.g, cert.m - cert.epsilon, cert.precision_bits
    d = lcm(*(c.denominator for c in ctx.coords_in_codiff(x)))
    if chi_norm_sq(2 * g, d * d * g / cert.r_sq, bound, precision):
        raise CertificateFormatError(f"r^2 = {cert.r_sq} puts the lattice vector (0, {d}) "
                                     "inside the chi ball, so N(x) >= 1")
    if chi_norm_sq(2 * g, cert.r_sq * min(ctx.codiff_gram[j][j] for j in range(g)),
                   bound, precision):
        raise CertificateFormatError(f"r^2 = {cert.r_sq} puts a codifferent generator "
                                     "inside the chi ball, so lambda1 < R")
    config = SearchConfig(m=cert.m, epsilon=cert.epsilon, seed=cert.seed,
                          precision=precision)
    fresh = _certificate_at(config, build_lattice(ctx, cert.r_sq, x), cert.sample_index)
    return fresh, [k for k in ("g", "lambda1_sq", "n_value", "bound_lo", "checks")
                   if getattr(fresh, k) != getattr(cert, k)]
