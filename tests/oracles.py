"""Independent oracles the tests check the package against.

These deliberately avoid the library's own algorithms: traces come from
floating embedding sums, point counts from naive coefficient-box scans,
integrals from Monte-Carlo estimates, J(r) from one term per ring vector,
and field products from polynomial long division by Phi_m (itself pinned by
the product identity prod_{d | m} Phi_d = x^m - 1). Expected values in the
test files were produced by these oracles. The last section holds what
only the tests ask of the library: thin wrappers over the library code they
call, so the tests that use them still exercise it, and a prime sieve.
"""
from __future__ import annotations

import argparse
import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

import mpmath

from cyclopack import cli, linalg
from cyclopack.checker import chi_norm_sq, chi_radius_sq, refine
from cyclopack.cyclotomic import cyclotomic_polynomial
from cyclopack.intervals import IntervalValue
from cyclopack.search import SearchConfig
from cyclopack.svp import (PreparedForm, ball_volume, enumerate_in_ball_with_norms, lll_reduce,
                          shortest_norm_sq)


def embed(a, precision: int = 53):
    """The g complex embeddings zeta -> e^(2 pi i k / m), gcd(k, m) = 1, of
    the field element a, ordered by increasing k; mpmath values at the
    requested bit precision."""
    if precision < 53:
        raise ValueError("precision must be at least 53 bits")
    m = a.ctx.m
    with mpmath.workprec(precision + 16):
        out = []
        for k in range(1, m):
            if gcd(k, m) != 1:
                continue
            root = mpmath.expjpi(mpmath.mpf(2 * k) / m)
            acc = mpmath.mpc(0)
            for c in reversed(a.coords):
                acc = acc * root + mpmath.mpf(c.numerator) / c.denominator
            out.append(+acc)
    return out


def trace_by_embeddings(a) -> Fraction:
    """Sum of the embeddings of a at 60-digit precision, rounded to the
    nearest small rational."""
    with mpmath.workdps(60):
        total = mpmath.fsum(embed(a, mpmath.mp.prec))
        assert abs(total.imag) < mpmath.mpf(10) ** -40
        return Fraction(str(total.real)).limit_denominator(10 ** 12)


def _sqrt_range(center: Fraction, bound: Fraction):
    """Integers t with (t - center)^2 <= bound (inclusive endpoints)."""
    if bound < 0:
        return range(0)
    p, q = center.numerator, center.denominator
    mm = bound.numerator * q * q // bound.denominator
    r = isqrt(mm)
    return range(-((r - p) // q), (p + r) // q + 1)


def _inverse(mat):
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [row[n:] for row in a]


def box_points_in_ball(gram, center, radius_sq):
    """All integer vectors with Q(v - center) <= radius_sq by scanning the
    coordinate box |v_i - c_i|^2 <= radius_sq * (G^-1)_ii (Cauchy-Schwarz in
    the G inner product), checking the exact form on every point."""
    n = len(gram)
    radius_sq = Fraction(radius_sq)
    if radius_sq < 0:
        return []
    center = [Fraction(c) for c in (center if center is not None else [0] * n)]
    inv = _inverse(gram)
    axes = [_sqrt_range(center[i], radius_sq * inv[i][i]) for i in range(n)]
    out = []
    for v in itertools.product(*axes):
        d = [Fraction(t) - c for t, c in zip(v, center)]
        q = sum(gram[i][j] * d[i] * d[j] for i in range(n) for j in range(n))
        if q <= radius_sq:
            out.append(tuple(v))
    return sorted(out)


def box_shortest_norm_sq(gram) -> Fraction:
    """Brute-force lambda_1^2: scan the box for the ball of squared radius
    min(diagonal), which some standard basis vector attains."""
    n = len(gram)
    bound = min(Fraction(gram[i][i]) for i in range(n))
    best = bound
    for v in box_points_in_ball(gram, None, bound):
        if not any(v):
            continue
        q = sum(gram[i][j] * v[i] * v[j] for i in range(n) for j in range(n))
        if q < best:
            best = q
    return best


# -- rational reference implementations ----------------------------------------
#
# The LLL reduction and Fincke-Pohst walk as they ran on Fractions before the
# library moved them onto integers over a common denominator. The integer
# versions must reproduce these results and orders exactly.

def _round_half_up(x: Fraction) -> int:
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


def rational_lll_reduce(gram, delta=Fraction(99, 100)):
    """LLL on Fractions: (transform, reduced, d, nu) with (d, nu) the final
    Gram-Schmidt data, i.e. the LDL factors of reduced."""
    n = len(gram)
    G = [[Fraction(x) for x in row] for row in gram]
    for i in range(n):
        for j in range(i):
            if G[i][j] != G[j][i]:
                raise ValueError("gram matrix is not symmetric")
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    mu = [[Fraction(0)] * n for _ in range(n)]
    B = [Fraction(0)] * n

    def gso_row(k: int) -> None:
        for j in range(k):
            v = G[k][j]
            for i in range(j):
                v -= mu[j][i] * mu[k][i] * B[i]
            mu[k][j] = v / B[j]
        v = G[k][k]
        for j in range(k):
            v -= mu[k][j] * mu[k][j] * B[j]
        if v <= 0:
            raise ValueError("gram matrix is not positive definite")
        B[k] = v

    def reduce_row(k: int, l: int) -> None:
        q = _round_half_up(mu[k][l])
        if q == 0:
            return
        for c in range(n):
            U[k][c] -= q * U[l][c]
        for c in range(n):
            G[k][c] -= q * G[l][c]
        for r in range(n):
            G[r][k] -= q * G[r][l]
        mu[k][l] -= q
        for i in range(l):
            mu[k][i] -= q * mu[l][i]

    gso_row(0)
    kmax = 0
    k = 1
    while k < n:
        if k > kmax:
            kmax = k
            gso_row(k)
        reduce_row(k, k - 1)
        if B[k] < (delta - mu[k][k - 1] ** 2) * B[k - 1]:
            U[k - 1], U[k] = U[k], U[k - 1]
            G[k - 1], G[k] = G[k], G[k - 1]
            for r in range(n):
                G[r][k - 1], G[r][k] = G[r][k], G[r][k - 1]
            m_ = mu[k][k - 1]
            Bn = B[k] + m_ * m_ * B[k - 1]
            mu[k][k - 1] = m_ * B[k - 1] / Bn
            B[k] = B[k - 1] * B[k] / Bn
            B[k - 1] = Bn
            for j in range(k - 1):
                mu[k - 1][j], mu[k][j] = mu[k][j], mu[k - 1][j]
            for i in range(k + 1, kmax + 1):
                t = mu[i][k]
                mu[i][k] = mu[i][k - 1] - m_ * t
                mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce_row(k, l)
            k += 1
    nu = [[mu[j][i] if j > i else Fraction(0) for j in range(n)] for i in range(n)]
    return U, G, B, nu


def rational_enumerate(d, nu, radius_sq):
    """Fincke-Pohst on Fractions: the integer s with
    sum_i d_i (s_i + sum_{j>i} nu_ij s_j)^2 <= radius_sq, as ordered
    (s, value) pairs, the top level outermost, each level ascending."""
    n = len(d)
    s = [0] * n
    out = []

    def descend(i: int, rem: Fraction) -> None:
        if i < 0:
            out.append((tuple(s), radius_sq - rem))
            return
        c = Fraction(0)
        row = nu[i]
        for j in range(i + 1, n):
            if row[j]:
                c -= row[j] * s[j]
        for si in _sqrt_range(c, rem / d[i]):
            y = si - c
            contrib = d[i] * y * y
            if contrib <= rem:
                s[i] = si
                descend(i - 1, rem - contrib)
        s[i] = 0

    descend(n - 1, Fraction(radius_sq))
    return out


def rational_enumerate_in_ball(gram, radius_sq):
    """The ordered (v, Q(v)) pairs of the rational pipeline about the origin:
    LLL, the full walk, and back by the transform."""
    U, _, d, nu = rational_lll_reduce(gram)
    n = len(U)
    return [(tuple(sum(U[i][j] * s[i] for i in range(n)) for j in range(n)), q)
            for s, q in rational_enumerate(d, nu, Fraction(radius_sq))]


# -- Fraction views of the integer forms ----------------------------------------
#
# The library keeps every form on the lattice path as integer rows over one
# denominator and builds no Fraction there; these are the Fraction matrices
# and coordinates the tests compare with.

def fractions(rows, den) -> tuple[tuple[Fraction, ...], ...]:
    """The matrix rows / den, entry by entry."""
    return tuple(tuple(Fraction(a, den) for a in row) for row in rows)


def integer_matrix(a) -> tuple[list[list[int]], int]:
    """(rows, den): den the least common denominator of the int or Fraction
    entries of a, and rows the integer matrix den * a."""
    den = lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in a], den


def real_gram(lat) -> list[list[Fraction]]:
    """The Gram matrix of a lattice: its gram rows over their denominator."""
    return [list(row) for row in fractions(*lat.gram)]


def symplectic(lat) -> list[list[Fraction]]:
    """The symplectic form of a lattice: its skew rows over their denominator."""
    rows, den = lat.skew
    return [[Fraction(a, den) for a in row] for row in rows]


def codiff_coords(ctx, a) -> list[Fraction]:
    """Coordinates of the field element a in the codifferent basis."""
    num, den = ctx.coords_in_codiff(a)
    return [Fraction(c, den) for c in num]


def codiff_gram(ctx) -> tuple[tuple[Fraction, ...], ...]:
    """Gram matrix Tr(c_j conj(c_k)) of the codifferent basis."""
    return fractions(ctx.codiff_gram_num, ctx.codiff_gram_den)


def prepared_form(gram) -> PreparedForm:
    """The PreparedForm of an int or Fraction Gram matrix."""
    return PreparedForm(*integer_matrix(gram))


def fraction_lll_reduce(gram):
    """lll_reduce on an int or Fraction Gram matrix, in the shape of
    rational_lll_reduce: (transform, reduced, d, nu) as Fractions, with nu
    a full matrix that is zero on and below the diagonal."""
    rows, den = integer_matrix(gram)
    U, reduced, (d, d_den), (nu, nu_den) = lll_reduce(rows, den)
    n = len(U)
    return (U, [list(row) for row in fractions(reduced, den)],
            [Fraction(a, d_den) for a in d],
            [[Fraction(nu[i][j - i - 1], nu_den) if j > i else Fraction(0) for j in range(n)]
             for i in range(n)])


# -- Fraction elimination and the block membership formula ----------------------
#
# The determinant and solve as the library computed them before it moved to
# one fraction-free elimination on integer rows, and lattice membership as it
# computed it before it moved to a triangular basis.

def fraction_determinant(a) -> Fraction:
    """Determinant by Gaussian elimination on Fractions."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            f = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= f * m[col][c]
    return det


def fraction_solve(a, b):
    """Solution of a square system by Gauss-Jordan on Fractions; None if
    the matrix is singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col] * inv
                for c in range(col, n + 1):
                    m[r][c] -= f * m[col][c]
    return [m[i][n] / m[i][i] for i in range(n)]


def elimination_spans(ctx, generators, points) -> bool:
    """True iff every (u, v) of points is an integer combination of the
    (u, v) generators, by one fraction-free elimination of [N^T | W^T]: with
    N and W the generator and point rows over one common denominator,
    W = C N for an integer C iff the right block ends as d C^T, d = +-det N.
    False also when the generators are dependent."""
    rows, _ = integer_matrix(
        [codiff_coords(ctx, u) + list(v.coords) for u, v in (*generators, *points)])
    n = len(generators)
    mat = [[*a, *w] for a, w in zip(zip(*rows[:n]), zip(*rows[n:]))]
    d = linalg.gauss_jordan(mat, n)
    return d != 0 and all(c % d == 0 for r in mat for c in r[n:])


def block_contains(ctx, x, u, v) -> bool:
    """Membership of (u, v) in build_lattice(ctx, r_sq, x), for any r_sq, by
    the block shape of its generators: the coordinates on the ring part are
    those of v in the power basis, and on the codifferent part those of
    u - x conj(v) in the codifferent basis; both must be integers."""
    coords = list(v.coords) + codiff_coords(ctx, u - x * v.conj())
    return all(Fraction(c).denominator == 1 for c in coords)


# -- interval measures ----------------------------------------------------------

def width(iv: IntervalValue) -> Fraction:
    return iv.hi - iv.lo


def midpoint(iv: IntervalValue) -> Fraction:
    return (iv.lo + iv.hi) / 2


def contains_interval(outer: IntervalValue, inner: IntervalValue) -> bool:
    return outer.lo <= inner.lo and inner.hi <= outer.hi


# -- the volume form of chi -----------------------------------------------------
#
# chi as the library decided it before every chi-ball question became a
# comparison of a squared norm with an enclosure of R^2: raise the squared
# norm to the g-th power and refine the ball volume until v_2g * nsq^g is
# decided against the bound.

def volume_chi_norm_sq(two_g: int, nsq, bound, precision: int = 128) -> bool:
    """True iff v_2g * nsq^g <= bound; undecided at the precision cap counts
    as inside."""
    if nsq == 0:
        return True
    q_pow = Fraction(nsq) ** (two_g // 2)
    v = refine(lambda p: ball_volume(two_g, p) * q_pow,
               lambda v: v.hi <= bound or v.lo > bound, precision)
    return not v.lo > bound


# -- J(r) vector by vector ----------------------------------------------------------
#
# The mean obstruction count as the library summed it before it read J(r) off
# the distinct ring norms: enumerate every ring vector in the ball and add one
# interval power per nonzero vector.

def vector_j_value(ctx, r_sq, epsilon, precision: int = 128) -> IntervalValue:
    """Enclosure of J(r) = nu(F') r^-g v_g sum_b (R^2 - |b|^2 / r^2)^(g/2),
    one term per nonzero ring vector b."""
    r_sq = Fraction(r_sq)
    g = ctx.g
    guard = precision + 32
    r2 = chi_radius_sq(ctx, epsilon, guard)
    vecs = ball_with_norms(PreparedForm(ctx.ok_gram, 1), r_sq * r2.hi)
    total = IntervalValue.point(0)
    nonempty = False
    for v, t in vecs:
        if not any(v):
            continue
        s = t / r_sq
        if r2.hi <= s:
            continue
        nonempty = True
        total = total + IntervalValue(max(r2.lo - s, 0), r2.hi - s) ** (g // 2)
    if not nonempty:
        return IntervalValue.point(0)
    nu_f_prime = IntervalValue.point(ctx.disc_abs).sqrt(guard)
    vg = ball_volume(g, guard)
    return (nu_f_prime * vg * total / (r_sq ** (g // 2))).outward(precision)


# -- field arithmetic as polynomials modulo Phi_m --------------------------------
#
# Products, conjugates and traces in Q(zeta_m) computed on coefficient lists,
# by schoolbook multiplication and long division by Phi_m on Fractions: no
# zeta-shift, multiplication matrix or conjugation matrix of the library.

def poly_mul_mod(a, b, m: int) -> list[Fraction]:
    """Power-basis coordinates of a(zeta) * b(zeta) in Q(zeta_m), for
    coefficient lists a and b of any length: the schoolbook product,
    reduced by exact division by Phi_m."""
    phi = cyclotomic_polynomial(m)
    g = len(phi) - 1
    rem = [Fraction(0)] * (len(a) + len(b) + g)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            rem[i + j] += Fraction(x) * y
    for i in range(len(rem) - 1, g - 1, -1):
        c = rem[i] / phi[g]
        if c:
            for j, y in enumerate(phi):
                rem[i - g + j] -= c * y
    return rem[:g]


def poly_conj(a, m: int) -> list[Fraction]:
    """sum_j a_j zeta^(-j), each zeta^(-j) written as zeta^((-j) mod m)."""
    p = [Fraction(0)] * m
    for j, c in enumerate(a):
        p[-j % m] += c
    return poly_mul_mod(p, [1], m)


@lru_cache(maxsize=None)
def power_traces(m: int) -> tuple[Fraction, ...]:
    """Tr(zeta^j) for 0 <= j <= 2g - 2, each the trace of the matrix of
    x -> zeta^j x on the power basis, whose column i is the schoolbook product
    zeta^j zeta^i = zeta^((i + j) mod m) reduced by Phi_m."""
    g = len(cyclotomic_polynomial(m)) - 1
    powers = [poly_mul_mod([0] * k + [1], [1], m) for k in range(m)]
    return tuple(sum(powers[(i + j) % m][i] for i in range(g)) for j in range(2 * g - 1))


def poly_trace(a, m: int) -> Fraction:
    """Tr(a) = sum_j a_j Tr(zeta^j), by linearity."""
    return sum((c * t for c, t in zip(a, power_traces(m))), Fraction(0))


def mat_mul(a, b) -> list[list]:
    """The matrix product a b, row by row."""
    bt = linalg.transpose(b)
    return [linalg.mat_vec(bt, row) for row in a]


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def poly_mul(a, b) -> list[int]:
    """Schoolbook product of two integer coefficient lists, low degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


# -- the command line as argparse parsed it ------------------------------------
#
# The parser tree cli.COMMANDS replaced, flag for flag; each subparser sets
# fn to the command's handler.

def argparse_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclopack",
        description="Certified packing bounds for principally polarized abelian "
                    "varieties built from cyclotomic ideal lattices.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a lattice and run its checks")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r2", required=True, help="rational r^2 > 0, e.g. 2 or 7/2")
    p.add_argument("--x", default="0", help="0 or g comma-separated rationals "
                                            "(power-basis coordinates)")
    p.add_argument("--out")
    p.set_defaults(fn=cli.cmd_construct)

    p = sub.add_parser("search", help="search for a certified witness")
    defaults = SearchConfig._field_defaults
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--epsilon", default=str(defaults["epsilon"]))
    p.add_argument("--budget", type=int, default=defaults["budget"])
    p.add_argument("--seed", type=int, default=defaults["seed"])
    p.add_argument("--denom", type=int, default=defaults["denom"])
    p.add_argument("--precision", type=int, default=defaults["precision"],
                   help="interval precision in bits")
    p.add_argument("--out")
    p.set_defaults(fn=cli.cmd_search)

    p = sub.add_parser("certify", help="recompute and verify a stored certificate")
    p.add_argument("cert_path")
    p.set_defaults(fn=cli.cmd_certify)

    p = sub.add_parser("verify", help="run the exact property suites")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cli.cmd_verify)

    p = sub.add_parser("table", help="bound table by dimension")
    p.add_argument("--g", required=True, help="comma-separated dimensions")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(fn=cli.cmd_table)

    p = sub.add_parser("primorial", help="primorial witness row")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out")
    p.set_defaults(fn=cli.cmd_primorial)

    return parser


# -- arctan(1/q) term by term ---------------------------------------------------

def fraction_arctan_inv_brackets(q: int, tail_bits: int) -> tuple[Fraction, Fraction]:
    """The partial sums of arctan(1/q) that enclose it, as reduced Fractions
    added one term at a time, stopping after the first term below
    2^-tail_bits: the loop intervals._arctan_inv_brackets replaced."""
    term = Fraction(1, q)
    total = term
    j = 1
    q2 = q * q
    limit = Fraction(1, 1 << tail_bits)
    while True:
        term = Fraction(term.numerator, term.denominator * q2)
        t = term / (2 * j + 1)
        prev = total
        total = total - t if j % 2 else total + t
        j += 1
        if t < limit:
            return (min(prev, total), max(prev, total))


# -- library questions only the tests ask -------------------------------------------
#
# No command asks these. Each but the sieve wraps the library function that
# answers it.

def point_norm_sq(x, y) -> Fraction:
    """|x + iy|^2 = Tr(x conj(x)) + Tr(y conj(y)) for rational points x, y of E."""
    return x.ctx.pairing(x, x) + y.ctx.pairing(y, y)


def unit_act(k: int, x, y):
    """The unit zeta^k on the point x + iy: the pair (zeta^k x, zeta^-k y)."""
    return x.ctx.mul_zeta(k, x), y.ctx.mul_zeta(-k, y)


def chi(x, y, epsilon, precision: int = 128) -> bool:
    """Indicator of the ball v_2g |z|^2g <= m - epsilon at the rational
    point z = x + iy."""
    ctx = x.ctx
    return chi_norm_sq(2 * ctx.g, point_norm_sq(x, y), ctx.m - Fraction(epsilon), precision)


def ball_with_norms(form, radius_sq):
    """The (v, Q(v)) pairs over the whole ball Q(v) <= radius_sq of a
    PreparedForm: the half walk of enumerate_in_ball_with_norms and the
    negatives of its nonzero points."""
    half = enumerate_in_ball_with_norms(form, radius_sq)
    return half + [(tuple(-a for a in v), q) for v, q in half[1:]]


def enumerate_in_ball(gram, radius_sq):
    """Exactly the integer vectors v with Q(v) <= radius_sq for the quadratic
    form Q given by gram; sorted, no duplicates."""
    return sorted(v for v, _ in ball_with_norms(prepared_form(gram), radius_sq))


def packing_density(gram, n: int, precision: int = 128) -> IntervalValue:
    """Enclosure of (v_n / 2^n) * lambda_1^n for a covolume-1 Gram matrix."""
    if len(gram) != n:
        raise ValueError("gram size does not match n")
    if fraction_determinant(gram) != 1:
        raise ValueError("packing density is normalized to covolume-1 lattices")
    lam = shortest_norm_sq(prepared_form(gram))
    vn = ball_volume(n, precision + 8)
    return (vn * Fraction(lam ** (n // 2), 1 << n)).outward(precision)


def contains(lat, u, v) -> bool:
    """True iff r*u + (i/r)*v is a point of the PolarizedLattice lat."""
    w = [c * lat._den for c in codiff_coords(lat.ctx, u) + list(v.coords)]
    return all(c.denominator == 1 for c in w) and lat._spans([[int(c) for c in w]])


def scanned_inverse_phi_max(g_max: int) -> dict[int, int]:
    """g -> the largest m >= 3 with phi(m) = g, for the g <= g_max that have
    one, by scanning a totient sieve over m <= 2 g_max^2 + 1: phi(m) >=
    sqrt(m/2), so no larger m has phi(m) <= g_max."""
    n = 2 * g_max * g_max + 1
    phis = list(range(n + 1))
    for p in range(2, n + 1):
        if phis[p] == p:  # untouched, so p is prime
            for k in range(p, n + 1, p):
                phis[k] -= phis[k] // p
    return {phis[m]: m for m in range(3, n + 1) if phis[m] <= g_max}


def primes_up_to(x: int) -> list[int]:
    """The primes <= x, by the sieve of Eratosthenes."""
    if x < 2:
        return []
    sieve = bytearray([1]) * (x + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(x) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return [i for i, v in enumerate(sieve) if v]
