"""Small dense exact linear algebra on integer matrices.

Integer in, integer out: a rational matrix is kept as integer rows over one
positive denominator in lowest common terms (lowest_terms), so no Fraction
is built here. eliminate is a fraction-free (Bareiss) elimination below
each pivot on integer rows, in which every division is exact (Bareiss, Math.
Comp. 22, 1968), and gauss_jordan follows it with an exact
back-substitution; a determinant needs the elimination alone. determinant
and solve wrap them and refuse an entry that is not an int, on which their
floor divisions would go wrong without an error.
The matrices are at most 2g x 2g with g = phi(m), and none is ever inverted.
"""
from __future__ import annotations

from math import gcd
from operator import mul


def transpose(a) -> list[list]:
    return [list(row) for row in zip(*a)]


def mat_vec(a, v):
    return [sum(map(mul, row, v)) for row in a]


def lowest_terms(rows: list[list[int]], den: int) -> tuple[list[list[int]], int]:
    """The integer rows over den > 0 divided by the gcd of den and every
    entry: the same matrix over its least common denominator."""
    c = gcd(den, *(x for row in rows for x in row))
    return ([[x // c for x in row] for row in rows], den // c) if c > 1 else (rows, den)


def eliminate(rows: list[list[int]], n: int) -> int:
    """det(A) for the integer rows [A | B], A square of size n = len(rows), in
    place: fraction-free elimination below each pivot leaves row k with
    (k+1)-minors of [A | B] up to sign, so dividing by the last pivot d is
    exact, and d = +-det(A)."""
    det, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if rows[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            det = -det
        p, pk = rows[k][k], rows[k][k + 1:]
        # column k below the pivot is left as it is: a determinant never
        # reads it again, and gauss_jordan's back-substitution clears it
        for ri in rows[k + 1:]:
            f = ri[k]
            ri[k + 1:] = [(p * a - f * b) // prev for a, b in zip(ri[k + 1:], pk)]
        prev = p
    return det * prev


def gauss_jordan(rows: list[list[int]], n: int) -> int:
    """det(A) for the integer rows [A | B] as eliminate gives it, in place.
    If det(A) != 0, back-substitution from the last row,
    X_i = (d b_i - sum_{j>i} a_ij X_j) / a_ii with d the last pivot, exact as
    X = d A^-1 B is integral, then ends the rows as [d I | d A^-1 B]."""
    det = eliminate(rows, n)
    if not det:
        return 0
    d = rows[n - 1][n - 1]
    for i in reversed(range(n)):
        ri, below = rows[i], rows[i + 1:]
        ri[n:] = [(d * b - sum(r[c] * a for r, a in zip(below, ri[i + 1:n]))) // ri[i]
                  for c, b in enumerate(ri[n:], n)]
        ri[:n] = [0] * i + [d] + [0] * (n - i - 1)
    return det


def _int_rows(rows) -> list[list[int]]:
    """A copy of the rows to eliminate in place; TypeError
    on an entry that is not an int, a bool included."""
    out = [list(row) for row in rows]
    if any(type(x) is not int for row in out for x in row):
        raise TypeError("linalg takes int entries only")
    return out


def determinant(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix."""
    return eliminate(_int_rows(rows), len(rows))


def solve(rows: list[list[int]], b: list[int]) -> tuple[list[int], int] | None:
    """(nums, d) with nums / d the solution of the square integer system
    rows x = b, d = +-det(rows) != 0 and not necessarily in lowest terms;
    None if the matrix is singular."""
    mat = _int_rows([*row, c] for row, c in zip(rows, b))
    if not gauss_jordan(mat, len(mat)):
        return None
    return [r[-1] for r in mat], mat[0][0]
