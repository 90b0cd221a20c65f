"""Small dense exact linear algebra on integer and Fraction matrices.

gauss_jordan is a fraction-free (Bareiss) Gauss-Jordan on integer rows in
which every division is exact (Bareiss, Math. Comp. 22, 1968);
integer_matrix clears a rational matrix's common denominator once.
determinant and solve wrap the two. triangular_basis reduces integer rows
by Euclid to a lower-triangular basis of the lattice they span, against
which lattice membership is a back-substitution (Cohen, A Course in
Computational Algebraic Number Theory, 2.4). The matrices are at most
2g x 2g with g = phi(m), and none is ever inverted.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
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
