"""Euclidean and hermitian geometry of the embedded field.

K sits inside C^g via its g complex embeddings; E is the real span of K, and
C^g = E + iE. The euclidean pairing on rational points of E is the exact trace
form <a, b> = Tr(a * conj(b)), evaluated without field multiplication as
a^T T b / (d e) on the integer numerators, a over d and b over e, of the
power-basis coordinates, with T = ctx.ok_gram the integral trace-form matrix.
Points of C^g handled here are pairs of field elements (rational points),
which keeps every norm and pairing an exact rational.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from operator import mul

from . import linalg
from .cyclotomic import CycloElement, CyclotomicContext


class ComplexPoint(namedtuple("ComplexPoint", "x y")):
    """The point x + iy of C^g with x, y rational points of E."""

    __slots__ = ()

    def __new__(cls, x: CycloElement, y: CycloElement) -> ComplexPoint:
        if x.ctx.m != y.ctx.m:
            raise ValueError("components from different cyclotomic fields")
        return super().__new__(cls, x, y)

    @property
    def ctx(self) -> CyclotomicContext:
        return self.x.ctx


def pairing(a: CycloElement, b: CycloElement) -> Fraction:
    """Euclidean pairing Tr(a * conj(b)) = a^T T b on E; symmetric, positive
    definite."""
    a._check(b)
    return Fraction(sum(map(mul, a.num, linalg.mat_vec(a.ctx.ok_gram, b.num))), a.den * b.den)


def gram(basis) -> list[list[Fraction]]:
    """Gram matrix of the pairing on a linearly independent family."""
    basis = list(basis)
    mat = [[pairing(a, b) for b in basis] for a in basis]
    if linalg.determinant(mat) == 0:
        raise ValueError("family is linearly dependent")
    return mat


def norm_sq(p: ComplexPoint) -> Fraction:
    # the cross term of |x + iy|^2 vanishes because the pairing is real on E
    return pairing(p.x, p.x) + pairing(p.y, p.y)


def g_act(k: int, p: ComplexPoint) -> ComplexPoint:
    """Action of the unit zeta^k: x + iy maps to zeta^k x + i zeta^-k y.

    k is any exponent mod m; the acting group is the full cyclic group of
    order m generated by zeta, so k need not be coprime to m.
    """
    act = p.ctx.mul_zeta
    return ComplexPoint(act(k, p.x), act(-k, p.y))

