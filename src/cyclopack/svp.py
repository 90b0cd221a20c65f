"""Exact shortest-vector and point-in-ball enumeration on rational Gram
matrices, and the certified volume of the unit ball.

Enumeration is Fincke-Pohst after an integral LLL, both on Python ints: the
LLL runs fraction-free on the Gram matrix times its common denominator, and
the walk keeps every partial sum of the form as an integer over one common
denominator, so the range at each level comes from an integer square root,
never from floating bounds. The walk hands each point to a visitor instead
of building a list: enumerate_in_ball_with_norms collects the points,
mapped back to the input basis, and norm_counts only tallies the integer
values of the form, which is all that a theta-series question (the ring
norms behind J(r)) or the shortest vector needs. Its ball is centred at the
origin and so symmetric under v -> -v: norm_counts walks half of it, one
vector of each pair +-v, and doubles every multiplicity. The enumerations
are complete by construction and the returned minima are exact.

Each question of a form has one function: enumerate_in_ball_with_norms,
norm_counts and shortest_norm_sq. Each takes a Gram matrix, prepared afresh
for that call, or a PreparedForm owned by a caller that asks several
questions of one form: a lattice owns its form (PolarizedLattice.form) and
ring_norms keeps the ring's. A PreparedForm holds data and the walk,
nothing else: the LLL transform, the least diagonal entry of the reduced
form (the squared norm of a lattice vector, known with no walk), the LDL
factors and, once walked, lambda_1^2. The module keeps no state.
shortest_norm_sq is the only writer of a form's lambda1_sq and
enumerate_in_ball_with_norms its only reader: a ball about the origin below
a known minimum holds the origin alone and is answered without a walk. A
certificate asks lambda_1 before the count; that order is stated once, in
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


def lll_reduce(gram):
    """LLL-reduce a symmetric positive definite rational Gram matrix.

    Returns (transform, reduced, d, nu) with transform an integer matrix of
    determinant +-1 and reduced = transform * gram * transform^T satisfying
    the Lovasz condition for LLL_DELTA. The final Gram-Schmidt data are
    the LDL factors of reduced: Q(y) = sum_i d_i (y_i + sum_{j>i} nu_ij y_j)^2,
    exactly. Non-PD input raises ValueError.

    The reduction is the integral LLL (Cohen, Algorithm 2.6.7) on c * gram,
    c the least common denominator of the entries: it keeps the leading
    minors D_k of the Gram matrix and lambda_kj = D_j mu_kj, all integers,
    and so never reduces a fraction. Its size reductions (mu rounded half
    up) and swaps are those of the rational algorithm, whose decisions are
    invariant under scaling the form.
    """
    n = len(gram)
    b, c = linalg.integer_matrix(gram)
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
    reduced = [[Fraction(x, c) for x in row] for row in b]
    d = [Fraction(D[i + 1], D[i] * c) for i in range(n)]
    # row j of b is b_j = b*_j + sum_{i<j} mu_ji b*_i, so nu is mu transposed
    nu = [[Fraction(lam[j][i], D[i + 1]) if j > i else Fraction(0) for j in range(n)]
          for i in range(n)]
    return U, reduced, d, nu


class PreparedForm:
    """A quadratic form made ready for repeated enumeration: the LLL
    transform U, the least diagonal entry of the reduced form R = U G U^T (the
    squared norm of a lattice vector, known with no walk) and the LDL factors
    (d, nu) of R, Q(y) = sum_i d_i (y_i + sum_{j>i} nu_ij y_j)^2,
    stored as integer numerators over the common denominators d_den and
    nu_den (row i of nu holds the entries right of the diagonal). lambda1_sq
    is None until shortest_norm_sq has walked once, then the exact minimum,
    which depends on the Gram matrix alone."""

    __slots__ = ("transform", "min_diagonal", "d", "d_den", "nu", "nu_den", "lambda1_sq")

    def __init__(self, gram) -> None:
        self.transform, R, d, nu = lll_reduce(gram)
        self.min_diagonal = min(R[i][i] for i in range(len(R)))
        (self.d,), self.d_den = linalg.integer_matrix([d])
        self.nu, self.nu_den = linalg.integer_matrix([row[i + 1:] for i, row in enumerate(nu)])
        self.lambda1_sq: Fraction | None = None

    def _walk(self, center, radius_sq: Fraction, emit, half: bool = False) -> int:
        """Fincke-Pohst on integers: emit(s, k) for each integer s with
        Q(s - center) = k / scale <= radius_sq, the top level outermost and
        each level in ascending order; returns scale. s is the walk's own
        list, so an emitter that keeps it copies it.

        With half (legal only for a zero center, where the ball is symmetric
        under s -> -s) the walk emits the origin once and, of each pair +-s,
        only the s whose first nonzero coordinate from the top is positive:
        while every higher coordinate is zero, a level's range starts at 0.

        With B = lcm(nu_den, denominators of the center), every partial sum
        of Q is an integer over scale = d_den * B^4, so each level range is
        an isqrt of an integer quotient and the walk builds no Fraction.
        """
        if half and any(center):
            raise ValueError("a half walk needs a zero center")
        d, n = self.d, len(self.d)
        B = lcm(self.nu_den, *(c.denominator for c in center))
        e = [c.numerator * (B // c.denominator) for c in center]
        f = B // self.nu_den
        rows = [[x * f for x in row] for row in self.nu]
        B2 = B * B
        scale = self.d_den * B2 * B2
        budget = radius_sq.numerator * scale // radius_sq.denominator
        s = [0] * n
        w = [-x for x in e]  # w_j = B (s_j - c_j)

        def descend(i: int, rem: int, top: bool) -> None:
            # B^2 (s_i - c_i + sum_{j>i} nu_ij (s_j - c_j)) = B^2 s_i - num,
            # and d_i times its square is a t^2 / scale with t = B^2 s_i - num;
            # top: every s_j with j > i is zero (only ever with a half walk)
            num = B * e[i] - sum(map(mul, rows[i], w[i + 1:]))
            a = d[i]
            r = isqrt(rem // a)
            for si in range(0 if top else -((r - num) // B2), (num + r) // B2 + 1):
                t = B2 * si - num
                s[i] = si
                w[i] = B * si - e[i]
                if i:
                    descend(i - 1, rem - a * t * t, top and not si)
                else:
                    emit(s, budget - rem + a * t * t)
            s[i] = 0
            w[i] = -e[i]

        if budget >= 0:
            descend(n - 1, budget, half)
        return scale


def _prepared(gram) -> PreparedForm:
    return gram if isinstance(gram, PreparedForm) else PreparedForm(gram)


def enumerate_in_ball_with_norms(gram, center=None, radius_sq=0):
    """The pairs (v, Q(v - center)) over exactly the integer vectors v with
    Q(v - center) <= radius_sq, for the quadratic form Q given by gram, in
    walk order. A ball about the origin strictly inside a known lambda_1
    holds the origin alone, so it is answered without a walk."""
    radius_sq = Fraction(radius_sq)
    if radius_sq < 0:
        return []
    form = _prepared(gram)
    U = form.transform
    n = len(U)
    center = [Fraction(0)] * n if center is None else [Fraction(c) for c in center]
    if form.lambda1_sq is not None and radius_sq < form.lambda1_sq and not any(center):
        return [((0,) * n, Fraction(0))]
    # in reduced coordinates the center is the solution of U^T c' = center
    cprime = (linalg.solve([[U[i][j] for i in range(n)] for j in range(n)], center)
              if any(center) else center)
    cols = tuple(zip(*U))
    pairs = []
    scale = form._walk(cprime, radius_sq, lambda s, k: pairs.append((tuple(s), k)))
    return [(tuple(sum(map(mul, col, s)) for col in cols), Fraction(k, scale))
            for s, k in pairs]


def norm_counts(gram, radius_sq) -> list[tuple[Fraction, int]]:
    """Sorted (value, multiplicity) pairs of the form over the nonzero integer
    vectors v with Q(v) <= radius_sq: the start of the lattice's theta series.
    The ball is symmetric under v -> -v, so a half walk visits one of each
    pair and every multiplicity is doubled. The walk feeds a counter of
    integer numerators, so no point is kept, mapped back through U or turned
    into a Fraction; the zero vector is the only point of value 0."""
    form = _prepared(gram)
    counts = Counter()

    def tally(s, k: int) -> None:
        counts[k] += 1

    scale = form._walk([0] * len(form.d), Fraction(radius_sq), tally, True)
    counts.pop(0, None)
    return [(Fraction(k, scale), 2 * c) for k, c in sorted(counts.items())]


def shortest_norm_sq(gram) -> Fraction:
    """Exact lambda_1^2: the minimal nonzero value of the form over Z^n, by
    exhaustive enumeration below the least diagonal entry of the reduced
    form, which some basis vector attains (so the ball holds a nonzero
    point). A PreparedForm walks once and keeps the result in lambda1_sq."""
    form = _prepared(gram)
    if form.lambda1_sq is None:
        form.lambda1_sq = norm_counts(form, form.min_diagonal)[0][0]
    return form.lambda1_sq

