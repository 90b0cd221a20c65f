"""Exact shortest-vector and point-in-ball enumeration on rational Gram
matrices, plus certified packing-density evaluation.

Enumeration is Fincke-Pohst after an exact-rational LLL: the integer range at
each level is computed from an integer square root, never from floating
bounds, so the point lists are complete by construction and the returned
minima are exact. The LLL reduction and the LDL factors of the reduced form
depend only on the Gram matrix, so each Gram is prepared once (PreparedForm)
and kept in a small cache keyed by its entries; the obstruction count of a
twist and the shortest vector of its lattice enumerate the same Gram.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt

from . import linalg
from .intervals import IntervalValue, pi_interval

LLL_DELTA = Fraction(99, 100)
# distinct Gram matrices kept prepared; every reuse is back to back (J(r) on
# the ring form, a twist's count then its SVP), so one form is enough
PREPARED_CACHE_SIZE = 1


def ball_volume(n: int, precision: int = 128) -> IntervalValue:
    """Enclosure of the volume pi^(n/2) / (n/2)! of the unit n-ball.

    Only even n occurs in this pipeline (phi(m) is even for m >= 3), so the
    half-integer factorial is never needed.
    """
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    k = n // 2
    pi = pi_interval(precision + 16 + 4 * k)
    return (pi ** k / factorial(k)).outward(precision)


def _round_half_up(x: Fraction) -> int:
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


def lll_reduce(gram):
    """LLL-reduce a symmetric positive definite rational Gram matrix.

    Returns (transform, reduced, d, nu) with transform an integer matrix of
    determinant +-1 and reduced = transform * gram * transform^T satisfying
    the Lovasz condition for LLL_DELTA. The final Gram-Schmidt data are
    the LDL factors of reduced: Q(y) = sum_i d_i (y_i + sum_{j>i} nu_ij y_j)^2,
    exactly. Non-PD input raises ValueError.
    """
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
        if B[k] < (LLL_DELTA - mu[k][k - 1] ** 2) * B[k - 1]:
            U[k - 1], U[k] = U[k], U[k - 1]
            G[k - 1], G[k] = G[k], G[k - 1]
            for r in range(n):
                G[r][k - 1], G[r][k] = G[r][k], G[r][k - 1]
            # incremental GSO update for the swap (Cohen, Algorithm 2.6.3)
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
    # row j of G is b_j = b*_j + sum_{i<j} mu_ji b*_i, so nu is mu transposed
    nu = [[mu[j][i] if j > i else Fraction(0) for j in range(n)] for i in range(n)]
    return U, G, B, nu


def _coeff_range(center: Fraction, bound: Fraction):
    """All integers t with (t - center)^2 <= bound, as an inclusive range."""
    if bound < 0:
        return 1, 0
    p, q = center.numerator, center.denominator
    m = bound.numerator * q * q // bound.denominator
    r = isqrt(m)
    return -((r - p) // q), (p + r) // q


def _enumerate(d, nu, center, radius_sq):
    """Integer vectors s with Q(s - center) <= radius_sq, with exact Q values."""
    n = len(d)
    s = [0] * n
    out = []

    def descend(i: int, rem: Fraction) -> None:
        if i < 0:
            out.append((tuple(s), radius_sq - rem))
            return
        c = center[i]
        row = nu[i]
        for j in range(i + 1, n):
            if row[j]:
                c -= row[j] * (s[j] - center[j])
        lo, hi = _coeff_range(c, rem / d[i])
        for si in range(lo, hi + 1):
            y = si - c
            contrib = d[i] * y * y
            if contrib <= rem:
                s[i] = si
                descend(i - 1, rem - contrib)
        s[i] = 0

    descend(n - 1, Fraction(radius_sq))
    return out


def _frozen(rows):
    return tuple(map(tuple, rows))


class PreparedForm:
    """A quadratic form made ready for repeated enumeration: the LLL
    transform U and the LDL factors (d, nu) and least diagonal entry of the
    reduced form R = U G U^T. Fields are immutable: the cache shares them."""

    __slots__ = ("transform", "min_diagonal", "d", "nu")

    def __init__(self, gram) -> None:
        U, R, d, nu = lll_reduce(gram)
        self.transform, self.nu, self.d = _frozen(U), _frozen(nu), tuple(d)
        self.min_diagonal = min(R[i][i] for i in range(len(R)))

    def enumerate(self, center, radius_sq: Fraction):
        """Pairs (v, Q(v - center)) for the integer v with Q(v - center) <= radius_sq."""
        U = self.transform
        n = len(U)
        # in reduced coordinates the center is the solution of U^T c' = center
        cprime = (linalg.solve([[U[i][j] for i in range(n)] for j in range(n)], center)
                  if any(center) else center)
        return [(tuple(sum(U[i][j] * s[i] for i in range(n)) for j in range(n)), q)
                for s, q in _enumerate(self.d, self.nu, cprime, radius_sq)]

    def shortest_norm_sq(self) -> Fraction:
        """Exact lambda_1^2 by exhaustive enumeration below the smallest
        diagonal entry of R, which some basis vector attains."""
        n = len(self.d)
        best = self.min_diagonal
        for s, q in _enumerate(self.d, self.nu, [Fraction(0)] * n, best):
            if q < best and any(s):
                best = q
        return best


@lru_cache(maxsize=PREPARED_CACHE_SIZE)
def _prepared(key) -> PreparedForm:
    return PreparedForm(key)


def prepare(gram) -> PreparedForm:
    """The prepared form of gram, built once and then looked up by entries."""
    return _prepared(_frozen(gram))


def enumerate_in_ball_with_norms(gram, center=None, radius_sq=0):
    """As enumerate_in_ball, but paired with the exact value of the form."""
    radius_sq = Fraction(radius_sq)
    if radius_sq < 0:
        return []
    if center is None:
        center = [Fraction(0)] * len(gram)
    return prepare(gram).enumerate([Fraction(c) for c in center], radius_sq)


def enumerate_in_ball(gram, center=None, radius_sq=0):
    """Exactly the integer vectors v with Q(v - center) <= radius_sq for the
    quadratic form Q given by gram; sorted, no duplicates."""
    return sorted(v for v, _ in enumerate_in_ball_with_norms(gram, center, radius_sq))


def shortest_norm_sq(gram) -> Fraction:
    """Exact lambda_1^2: the minimal nonzero value of the form over Z^n."""
    return prepare(gram).shortest_norm_sq()


def packing_density(gram, n: int, precision: int = 128) -> IntervalValue:
    """Enclosure of (v_n / 2^n) * lambda_1^n for a covolume-1 Gram matrix."""
    if len(gram) != n:
        raise ValueError("gram size does not match n")
    if linalg.determinant([list(map(Fraction, row)) for row in gram]) != 1:
        raise ValueError("packing density is normalized to covolume-1 lattices")
    lam = shortest_norm_sq(gram)
    vn = ball_volume(n, precision + 8)
    return (vn * Fraction(lam ** (n // 2), 1 << n)).outward(precision)
