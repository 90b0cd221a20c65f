"""Small dense exact linear algebra on integer and Fraction matrices.

The one elimination is gauss_jordan, a fraction-free (Bareiss) Gauss-Jordan
on integer rows in which every division is exact (Bareiss, Math. Comp. 22,
1968); integer_matrix clears a rational matrix's common denominator once.
determinant, solve and lattice membership wrap the two. The matrices are at
most 2g x 2g with g = phi(m), and none is ever inverted.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

Vector = list[Fraction]
Matrix = list[list[Fraction]]


def identity(n: int) -> Matrix:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


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


def gauss_jordan(rows: list[list[int]], n: int) -> int:
    """det(A) for the integer rows [A | B], A square of size n = len(rows),
    by fraction-free Gauss-Jordan in place: after step k each entry is a
    (k+1)-minor of [A | B] up to sign, so dividing by the last pivot is exact.
    If det(A) != 0 the rows end as [d I | d A^-1 B], d = +-det(A)."""
    det, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if rows[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            det = -det
        pk = rows[k][k:]
        p = pk[0]
        # left of column k only the diagonal is nonzero: it is filled at the end
        for i, ri in enumerate(rows):
            if i != k:
                f = ri[k]
                ri[k:] = [(p * a - f * b) // prev for a, b in zip(ri[k:], pk)]
        prev = p
    for i in range(n):
        rows[i][i] = prev
    return det * prev


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
