"""Small dense exact linear algebra over Fraction matrices (mat_mul and
mat_vec serve integer matrices as well).

Everything here is plain Gaussian elimination with exact rationals; the
matrices in this package are at most 2g x 2g with g = phi(m) at desk scale,
so no effort is spent on asymptotics. No matrix is ever inverted: the field
layer applies the integral trace form and integral multiplication matrices
built from zeta-shifts, and solves one system per field inverse.
"""
from __future__ import annotations

from fractions import Fraction
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


def determinant(a: Matrix) -> Fraction:
    """Exact determinant by fraction-preserving Gaussian elimination."""
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


def solve(a: Matrix, b: Vector) -> Vector | None:
    """Solve a square system exactly; None if the matrix is singular."""
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


def is_integral_vector(v) -> bool:
    return all(Fraction(x).denominator == 1 for x in v)
