"""Independent oracles the tests check the package against.

These deliberately avoid the library's own algorithms: traces come from
floating embedding sums, point counts from naive coefficient-box scans, and
integrals from Monte-Carlo estimates. Expected values in the test files were
produced by these oracles.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, isqrt

import mpmath


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
