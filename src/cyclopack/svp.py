"""Exact shortest-vector and point-in-ball enumeration on integer Gram
matrices over one denominator, and the certified volume of the unit ball.

Enumeration is Fincke-Pohst after an integral LLL, both on Python ints. A form
comes in as integer rows over one positive denominator (a lattice's gram, the
ring's ok_gram over 1, the codifferent's Gram over its e); the LLL runs
fraction-free on the rows and returns integers, its LDL factors as numerators
over their least common denominators, and the walk keeps every partial sum of
the form as an integer over one common denominator, so the range at each level
comes from an integer square root, never from floating bounds. A Fraction is
built only for a value handed out: a form's least reduced diagonal entry,
lambda_1^2 and the walked norms. Every ball is centred at the origin, so it is
symmetric under v -> -v, and the walk takes one vector of each pair +-v. It
hands each point to a visitor instead of building a list:
enumerate_in_ball_with_norms collects the origin and the walked half, mapped
back to the input basis, and norm_counts only tallies the integer values of
the form and doubles every multiplicity, which is all that a theta-series
question (the ring norms behind J(r)) or the shortest vector needs. The
enumerations are complete by construction and the returned minima are exact.

Each question of a form has one function: enumerate_in_ball_with_norms,
norm_counts and shortest_norm_sq. Each takes a PreparedForm owned by a caller
that may ask several questions of one form: a lattice owns its form
(PolarizedLattice.form) and ring_norms keeps the ring's. A PreparedForm holds
data and the walk, nothing else: the LLL transform, the least diagonal entry
of the reduced form (the squared norm of a lattice vector, known with no
walk), the LDL factors and, once walked, lambda_1^2. The module keeps no
state. shortest_norm_sq is the only writer of a form's lambda1_sq and
enumerate_in_ball_with_norms its only reader: a ball below a known minimum
holds the origin alone and is answered without a walk. A certificate asks
lambda_1 before the count; that order is stated once, in
checker._certificate_at.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial, isqrt, lcm
from operator import mul

from . import linalg
from .intervals import IntervalValue, pi_interval

LLL_DELTA = Fraction(99, 100)


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


def lll_reduce(rows, den: int):
    """LLL-reduce the symmetric positive definite form G = rows / den, for
    integer rows and den > 0. Returns integers, (U, reduced, (d, d_den),
    (nu, nu_den)): U of determinant +-1, reduced = U rows U^T satisfying the
    Lovasz condition for LLL_DELTA, and the LDL factors of reduced / den,
    Q(y) = sum_i d_i (y_i + sum_{j>i} nu_ij y_j)^2 exactly, as numerators over
    their least common denominators (row i of nu holds the entries right of
    the diagonal). Non-PD input raises ValueError.

    The reduction is the integral LLL (Cohen, Algorithm 2.6.7): it keeps the
    leading minors D_k of the rows and lambda_kj = D_j mu_kj, all integers,
    and so never reduces a fraction. Its size reductions (mu rounded half
    up) and swaps are those of the rational algorithm, whose decisions are
    invariant under scaling the form.
    """
    n = len(rows)
    b = [list(row) for row in rows]
    for i in range(n):
        for j in range(i):
            if b[i][j] != b[j][i]:
                raise ValueError("gram matrix is not symmetric")
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    lam = [[0] * n for _ in range(n)]
    # D[k] is the k-th leading minor of the current b; mu_kj = lam[k][j] / D[j+1]
    # and the squared Gram-Schmidt length of row k is D[k+1] / D[k]
    D = [1] + [0] * n
    alpha, beta = LLL_DELTA.numerator, LLL_DELTA.denominator

    def gso_row(k: int) -> None:
        for j in range(k + 1):
            u = b[k][j]
            for i in range(j):
                u = (D[i + 1] * u - lam[k][i] * lam[j][i]) // D[i]
            if j < k:
                lam[k][j] = u
            elif u <= 0:
                raise ValueError("gram matrix is not positive definite")
            else:
                D[k + 1] = u

    def reduce_row(k: int, l: int) -> None:
        dl = D[l + 1]
        q = (2 * lam[k][l] + dl) // (2 * dl)  # mu_kl rounded half up
        if q == 0:
            return
        Uk, Ul, bk, bl = U[k], U[l], b[k], b[l]
        for i in range(n):
            Uk[i] -= q * Ul[i]
            bk[i] -= q * bl[i]
        for row in b:
            row[k] -= q * row[l]
        lam[k][l] -= q * dl
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    gso_row(0)
    kmax = 0
    k = 1
    while k < n:
        if k > kmax:
            kmax = k
            gso_row(k)
        reduce_row(k, k - 1)
        lk = lam[k][k - 1]
        # B_k < (delta - mu_k,k-1^2) B_k-1 times beta D[k] D[k-1], with
        # B_k = D[k+1] / D[k] and mu_k,k-1 = lk / D[k]
        if beta * D[k + 1] * D[k - 1] < alpha * D[k] * D[k] - beta * lk * lk:
            U[k - 1], U[k] = U[k], U[k - 1]
            b[k - 1], b[k] = b[k], b[k - 1]
            for row in b:
                row[k - 1], row[k] = row[k], row[k - 1]
            lam[k - 1][:k - 1], lam[k][:k - 1] = lam[k][:k - 1], lam[k - 1][:k - 1]
            # swap update of the minors and multipliers (Cohen, Algorithm 2.6.7)
            dk = (D[k - 1] * D[k + 1] + lk * lk) // D[k]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (D[k + 1] * lam[i][k - 1] - lk * t) // D[k]
                lam[i][k - 1] = (dk * t + lk * lam[i][k]) // D[k + 1]
            D[k] = dk
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce_row(k, l)
            k += 1
    # d_i = B_i / den = D[i+1] / (D[i] den) and, as row j of b is
    # b_j = b*_j + sum_{i<j} mu_ji b*_i, nu_ij = mu_ji = lam[j][i] / D[i+1]
    dl, nl = den * lcm(*D[:n]), lcm(*D[1:])
    (d,), d_den = linalg.lowest_terms([[D[i + 1] * (dl // (D[i] * den)) for i in range(n)]], dl)
    return U, b, (d, d_den), linalg.lowest_terms(
        [[lam[j][i] * (nl // D[i + 1]) for j in range(i + 1, n)] for i in range(n)], nl)


class PreparedForm:
    """A quadratic form made ready for repeated enumeration: the LLL
    transform U of the form G = rows / den, the least diagonal entry of the
    reduced form R = U G U^T (the squared norm of a lattice vector, known with
    no walk) and the LDL factors (d, nu) of R,
    Q(y) = sum_i d_i (y_i + sum_{j>i} nu_ij y_j)^2, stored as integer
    numerators over the common denominators d_den and nu_den (row i of nu
    holds the entries right of the diagonal). lambda1_sq is None until
    shortest_norm_sq has walked once, then the exact minimum, which depends on
    the Gram matrix alone."""

    __slots__ = ("transform", "min_diagonal", "d", "d_den", "nu", "nu_den", "lambda1_sq")

    def __init__(self, rows, den: int) -> None:
        self.transform, R, (self.d, self.d_den), (self.nu, self.nu_den) = lll_reduce(rows, den)
        self.min_diagonal = Fraction(min(R[i][i] for i in range(len(R))), den)
        self.lambda1_sq: Fraction | None = None

    def _walk(self, radius_sq: Fraction, emit) -> int:
        """Fincke-Pohst on integers about the origin: emit(s, k) for each
        integer s with Q(s) = k / scale <= radius_sq, the top level outermost
        and each level in ascending order; returns scale. s is the walk's own
        list, so an emitter that keeps it copies it.

        The ball is symmetric under s -> -s, and the walk takes half of it:
        the origin first and, of each pair +-s, only the s whose first nonzero
        coordinate from the top is positive (while every higher coordinate is
        zero, a level's range starts at 0).

        With B = nu_den, t = B s_i + sum_{j>i} nu_ij s_j is an integer and
        every partial sum of Q is an integer over scale = d_den * B^2, so each
        level range is an isqrt of an integer quotient and the walk builds no
        Fraction.
        """
        d, nu, B, n = self.d, self.nu, self.nu_den, len(self.d)
        scale = self.d_den * B * B
        budget = radius_sq.numerator * scale // radius_sq.denominator
        s = [0] * n

        def descend(i: int, rem: int, top: bool) -> None:
            # d_i (s_i + sum_{j>i} nu_ij s_j)^2 = a t^2 / scale with t = B s_i + c;
            # top: every s_j with j > i is zero
            c = sum(map(mul, nu[i], s[i + 1:]))
            a = d[i]
            r = isqrt(rem // a)
            for si in range(0 if top else -((r + c) // B), (r - c) // B + 1):
                t = B * si + c
                s[i] = si
                if i:
                    descend(i - 1, rem - a * t * t, top and not si)
                else:
                    emit(s, budget - rem + a * t * t)
            s[i] = 0

        if budget >= 0:
            descend(n - 1, budget, True)
        return scale


def enumerate_in_ball_with_norms(form: PreparedForm, radius_sq):
    """The pairs (v, Q(v)) of the origin and of one vector v of each pair +-v
    with Q(v) <= radius_sq, mapped back to the input basis, in walk order:
    ascending in the reduced coordinates (s_n-1, ..., s_0) from the origin
    on. A ball strictly inside a known lambda_1 holds the origin alone, so it
    is answered without a walk."""
    radius_sq = Fraction(radius_sq)
    if radius_sq < 0:
        return []
    if form.lambda1_sq is not None and radius_sq < form.lambda1_sq:
        return [((0,) * len(form.d), Fraction(0))]
    cols = linalg.transpose(form.transform)
    pairs = []
    scale = form._walk(radius_sq, lambda s, k: pairs.append((tuple(s), k)))
    return [(tuple(sum(map(mul, col, s)) for col in cols), Fraction(k, scale))
            for s, k in pairs]


def norm_counts(form: PreparedForm, radius_sq) -> list[tuple[Fraction, int]]:
    """Sorted (value, multiplicity) pairs of the form over the nonzero integer
    vectors v with Q(v) <= radius_sq: the start of the lattice's theta series.
    The half walk visits one of each pair +-v, so every multiplicity is
    doubled. The walk feeds a counter of integer numerators, so no point is
    kept, mapped back through U or turned into a Fraction; the zero vector is
    the only point of value 0."""
    counts = Counter()

    def tally(s, k: int) -> None:
        counts[k] += 1

    scale = form._walk(Fraction(radius_sq), tally)
    counts.pop(0, None)
    return [(Fraction(k, scale), 2 * c) for k, c in sorted(counts.items())]


def shortest_norm_sq(form: PreparedForm) -> Fraction:
    """Exact lambda_1^2: the minimal nonzero value of the form over Z^n, by
    exhaustive enumeration below the least diagonal entry of the reduced
    form, which some basis vector attains (so the ball holds a nonzero
    point). The form walks once and keeps the result in lambda1_sq."""
    if form.lambda1_sq is None:
        form.lambda1_sq = norm_counts(form, form.min_diagonal)[0][0]
    return form.lambda1_sq
