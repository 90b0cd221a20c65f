"""Small dense exact linear algebra on integer and Fraction matrices.

A rational matrix on the lattice path is kept as integer rows over one
positive denominator in lowest common terms: integer_matrix clears a Fraction
matrix's denominators into that form and lowest_terms brings integer rows over
any common denominator to it, so no Fraction is built on the way. gauss_jordan
is a fraction-free (Bareiss) elimination below each pivot on integer rows, in
which every division is exact (Bareiss, Math. Comp. 22, 1968), and an exact
back-substitution; a determinant needs the elimination alone. determinant and
solve wrap it and build a Fraction only for their result. triangular_basis
reduces integer rows by Euclid to a lower-triangular basis of the lattice they
span, against which lattice membership is a back-substitution (Cohen, A
Course in Computational Algebraic Number Theory, 2.4). The matrices are at
most 2g x 2g with g = phi(m), and none is ever inverted.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

Vector = list[Fraction]
Matrix = list[list[Fraction]]


def transpose(a: Matrix) -> Matrix:
    return [list(row) for row in zip(*a)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return [mat_vec(bt, row) for row in a]


def mat_vec(a, v):
    return [sum(map(mul, row, v)) for row in a]


def integer_matrix(a) -> tuple[list[list[int]], int]:
    """(rows, den): den the least common denominator of the int or Fraction
    entries of a, and rows the integer matrix den * a."""
    den = lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in a], den


def lowest_terms(rows: list[list[int]], den: int) -> tuple[list[list[int]], int]:
    """The integer rows over den > 0 divided by the gcd of den and every
    entry: the same matrix over its least common denominator."""
    c = gcd(den, *(x for row in rows for x in row))
    return ([[x // c for x in row] for row in rows], den // c) if c > 1 else (rows, den)


def gauss_jordan(rows: list[list[int]], n: int) -> int:
    """det(A) for the integer rows [A | B], A square of size n = len(rows), in
    place: fraction-free elimination below each pivot leaves row k with
    (k+1)-minors of [A | B] up to sign, so dividing by the last pivot d is
    exact, and d = +-det(A). If det(A) != 0, back-substitution from the last
    row, X_i = (d b_i - sum_{j>i} a_ij X_j) / a_ii, exact as X = d A^-1 B is
    integral, ends the rows as [d I | d A^-1 B]."""
    det, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if rows[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            det = -det
        p, pk = rows[k][k], rows[k][k + 1:]
        # column k below the pivot is left as it is: it is cleared at the end
        for ri in rows[k + 1:]:
            f = ri[k]
            ri[k + 1:] = [(p * a - f * b) // prev for a, b in zip(ri[k + 1:], pk)]
        prev = p
    for i in reversed(range(n)):
        ri, below = rows[i], rows[i + 1:]
        ri[n:] = [(prev * b - sum(r[c] * a for r, a in zip(below, ri[i + 1:n]))) // ri[i]
                  for c, b in enumerate(ri[n:], n)]
        ri[:n] = [0] * i + [prev] + [0] * (n - i - 1)
    return det * prev


def triangular_basis(rows: list[list[int]]) -> list[list[int]] | None:
    """A lower-triangular basis of the lattice spanned by n integer rows of
    length n, as rows h[c] of length c + 1 with h[c][c] != 0; None if the
    rows are dependent. Column by column from the last, Euclid on the rows
    still free leaves one with a nonzero entry there, and every other one
    ends with a zero there and is cut to the columns before it. Rows that
    are already lower triangular take no arithmetic."""
    free, basis = [list(r) for r in rows], []
    for c in reversed(range(len(free))):
        live = [r for r in free if r[c]]
        if not live:
            return None
        while len(live) > 1:
            p = min(live, key=lambda r: abs(r[c]))
            for r in live:
                if r is not p:
                    q = r[c] // p[c]
                    r[:] = [a - q * b for a, b in zip(r, p)]
            live = [r for r in live if r[c]]
        basis.append(live[0])
        free = [r[:c] for r in free if r is not live[0]]
    return basis[::-1]


def determinant(a: Matrix) -> Fraction:
    """Exact determinant of a square int or Fraction matrix."""
    rows, den = integer_matrix(a)
    return Fraction(gauss_jordan(rows, len(rows)), den ** len(rows))


def solve(a: Matrix, b: Vector) -> Vector | None:
    """Solve a square system exactly; None if the matrix is singular."""
    rows, _ = integer_matrix([[*row, c] for row, c in zip(a, b)])
    if not gauss_jordan(rows, len(rows)):
        return None
    return [Fraction(r[-1], r[i]) for i, r in enumerate(rows)]
