"""The checker: everything certify runs to re-check a stored certificate,
and nothing else.

A certificate (m, epsilon, r^2, x, precision) claims two facts about the
twisted lattice build_lattice(ctx, r^2, x): no vector with nonzero ring part
lies in the chi ball v_2g |z|^2g <= m - epsilon (N(x) = 0), and
v_2g * lambda1^2g > m - epsilon. certify parses the file and checks its
domain and caps (certificate_from_json_dict), rejects an r^2 that puts a
known lattice vector in the ball before any count, and rebuilds every
derived field in one step, _certificate_at, which search's winner takes
too: lambda1 first, then the exact count_N on the same form, the lattice
checks and the certified lower bound.

The bound is not inferred from the counting argument: lambda1 is
enumerated exactly and v_2g * lambda1^2g is bounded below by interval
arithmetic. Every comparison is exact: chi refines an interval enclosure of
the ball's squared radius R^2 until the rational in question leaves it
(refine). Refinement is deterministic, so a certificate reproduces
bit-for-bit from (m, epsilon, r^2, x, precision). The module imports no
part of the search and no random numbers; its import closure is the field,
lattice, interval, enumeration and linear-algebra modules, and it owns the
certificate's "p/q" format (fmt_rat, parse_fmt_rat).
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd

from .cyclotomic import CyclotomicContext, phi
from .intervals import IntervalValue, pi_interval
from .lattice import PolarizedLattice, build_lattice
from .svp import ball_volume, enumerate_in_ball_with_norms, shortest_norm_sq

MAX_PRECISION = 4096
# the largest g = phi(m) a stored certificate may have: twice g = 16, where
# one certify already takes minutes; a larger file is rejected before phi
# or a context is computed
MAX_G = 32

CHECK_NAMES = ("integrality", "unimodular", "g_stable", "real_mult")


class CertificateFormatError(ValueError):
    pass


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


def validate_domain(m: int, epsilon, precision: int) -> None:
    """The inputs a search accepts and a stored certificate may have: m >= 3,
    0 < epsilon < m and a precision in [16, MAX_PRECISION]."""
    if m < 3:
        raise ValueError(f"m must be >= 3, got {m}")
    if not (0 < epsilon < m):
        raise ValueError(f"epsilon must satisfy 0 < epsilon < m, got {epsilon}")
    if not (16 <= precision <= MAX_PRECISION):
        raise ValueError(f"precision must lie in [16, {MAX_PRECISION}], got {precision}")


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


def chi_radius_sq(ctx: CyclotomicContext, epsilon, precision: int) -> IntervalValue:
    """Enclosure of R^2 = ((m - epsilon) / v_2g)^(1/g), the squared norm at
    which chi switches off."""
    return _radius_sq(ctx.g, ctx.m - Fraction(epsilon), precision)


# -- the certificate's quantities ------------------------------------------------

def count_N(lattice: PolarizedLattice, epsilon, precision: int = 128) -> int:
    """Exact number of vectors of a twisted lattice, as built by
    build_lattice(ctx, r_sq, x), whose ring part b (the last g coefficients)
    is nonzero and that lie inside the chi ball.

    Candidates are enumerated in the lattice's own Gram matrix against the
    outer bound R^2.hi of chi_radius_sq at this precision, the enclosure chi
    refines from, and each one is confirmed by the certified chi itself, so
    the count is exact despite the irrational threshold. v and -v share their
    norm and whether their ring part is zero, so the count reads one of each
    pair from the half walk of lattice.form and doubles. A certificate takes
    lambda_1 on that form first (see _certificate_at), and a ball below
    lambda_1 is answered without a walk.
    """
    ctx = lattice.ctx
    g = ctx.g
    bound = ctx.m - Fraction(epsilon)
    r2 = chi_radius_sq(ctx, epsilon, precision)
    return 2 * sum(1 for v, nsq in enumerate_in_ball_with_norms(lattice.form, r2.hi)
                   if any(v[g:]) and chi_norm_sq(2 * g, nsq, bound, precision))


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


def known_vector_in_ball(ctx: CyclotomicContext, r_sq: Fraction, x, bound: Fraction,
                         precision: int) -> str | None:
    """Why the lattice build_lattice(ctx, r_sq, x) has a vector in the chi
    ball that is known without a walk, or None. The vectors are (0, d), d
    the denominator of x in the codifferent: d (x, 1) minus the codifferent
    vector (d x, 0), of squared norm d^2 g / r^2, so N(x) >= 1; and the
    shortest codifferent generator (c_j, 0), of squared norm
    r^2 Tr(c_j conj(c_j)), so lambda1 < R. At x = 0, d = 1."""
    g = ctx.g
    num, den = ctx.coords_in_codiff(x)
    d = den // gcd(den, *num)
    if chi_norm_sq(2 * g, d * d * g / r_sq, bound, precision):
        return (f"r^2 = {r_sq} puts the lattice vector (0, {d}) inside the chi ball, "
                "so N(x) >= 1")
    least = min(ctx.codiff_gram_num[j][j] for j in range(g))
    if chi_norm_sq(2 * g, r_sq * least / ctx.codiff_gram_den, bound, precision):
        return f"r^2 = {r_sq} puts a codifferent generator inside the chi ball, so lambda1 < R"
    return None


def _certificate_at(lat: PolarizedLattice, epsilon: Fraction, precision: int, seed: int,
                    sample_index: int) -> Certificate:
    """The certificate of a built lattice: the one step of search's winner
    and of recompute_certificate. lambda1 comes first, then count_N on the
    same form, whose ball for a winner lies below lambda1, holds only the
    origin and is answered without a walk: a certificate costs one walk."""
    ctx = lat.ctx
    lam = shortest_norm_sq(lat.form)
    n_value = count_N(lat, epsilon, precision)
    checks = run_checks(lat)
    bound_lo = certified_lower_bound(2 * ctx.g, lam, ctx.m - epsilon, precision)
    return Certificate(
        m=ctx.m, g=ctx.g, epsilon=epsilon, r_sq=lat.r_sq,
        x_coords=lat.x.coords, lambda1_sq=lam, n_value=n_value, bound_lo=bound_lo,
        checks=checks, precision_bits=precision, seed=seed,
        sample_index=sample_index,
    )


# -- certificate (de)serialization and re-verification -------------------------

def fmt_rat(x) -> str:
    """Lowest-terms "p/q" with q > 0; Fraction normalizes both on input."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_fmt_rat(s: str, name: str) -> Fraction:
    """The rational of a "p/q" string as fmt_rat writes it: ASCII decimal
    digits, one "/" and ASCII decimal digits, with an optional leading "-".
    Anything else raises ValueError, a zero q included: Fraction would also
    read decimals and exponents, and a short "1e-5000000" stands for a number
    of millions of digits."""
    p, slash, q = s.partition("/")
    if not (slash and s.isascii() and p.removeprefix("-").isdigit() and q.isdigit()):
        raise ValueError(f'{name} must be a "p/q" rational, got {s[:40]!r}')
    if not int(q):
        raise ValueError(f"{name} has a zero denominator, got {s[:40]!r}")
    return Fraction(int(p), int(q))


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
        validate_domain(cert.m, cert.epsilon, cert.precision_bits)
        # a search never writes them negative: it refuses seed < 0
        for k in ("seed", "sample_index"):
            if getattr(cert, k) < 0:
                raise ValueError(f"{k} must be >= 0, got {getattr(cert, k)}")
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
    if known_vector_in_ball names a lattice vector in the chi ball. The
    certificate is rebuilt by _certificate_at, the step of search's winner."""
    ctx = CyclotomicContext(cert.m)
    x = ctx.element(cert.x_coords)
    known = known_vector_in_ball(ctx, cert.r_sq, x, cert.m - cert.epsilon, cert.precision_bits)
    if known:
        raise CertificateFormatError(known)
    fresh = _certificate_at(build_lattice(ctx, cert.r_sq, x), cert.epsilon, cert.precision_bits,
                            cert.seed, cert.sample_index)
    return fresh, [k for k in ("g", "lambda1_sq", "n_value", "bound_lo", "checks")
                   if getattr(fresh, k) != getattr(cert, k)]
