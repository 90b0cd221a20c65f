"""The rank-2g lattice of a principally polarized abelian variety with
multiplication structure from the cyclotomic field.

For a scale r > 0 and a rational point t of E, the lattice is spanned by
r * (codifferent basis) together with the vectors r * t * conj(b) + (i/r) * b
for b running over the power basis of the ring of integers. A lattice point
r*u + (i/r)*v is stored as the pair (u, v) of field elements, which keeps
every Gram entry a rational in r^2 and 1/r^2 only; r itself never needs to
be extracted as a real number. Both forms are assembled from the trace form
Tr(a conj(b)) on power-basis coordinates, so building a lattice needs no
field multiplication beyond its generators, and the products run on
integers: the generator coordinates are cleared of their common denominator
once, and each entry becomes a single Fraction at the end.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import linalg
from .cyclotomic import CycloElement, CyclotomicContext


class PolarizedLattice:
    """Lattice with exact real Gram matrix and integer symplectic form.

    generators holds the (u, v) pairs; real_gram[j][k] is the real part of
    the hermitian product of generators j and k, symplectic[j][k] its
    imaginary part (kept as Fractions so that integrality is checkable).
    """

    def __init__(self, ctx: CyclotomicContext, r_sq, x: CycloElement,
                 generators) -> None:
        r_sq = Fraction(r_sq)
        if r_sq <= 0:
            raise ValueError(f"r^2 must be positive, got {r_sq}")
        self.ctx = ctx
        self.r_sq = r_sq
        self.x = x
        self.generators: tuple[tuple[CycloElement, CycloElement], ...] = tuple(generators)

        # with T = ok_gram (integral), Tr(a conj(b)) = a^T T b on power-basis
        # coordinates. Over the integer coordinate rows U, V of D times the u
        # and v parts, D the common denominator of all generator coordinates,
        # real_gram is (r^2 U T U^T + r^-2 V T V^T) / D^2 (formed row by row)
        # and symplectic is (V T U^T - U T V^T) / D^2 = (C - C^T) / D^2 with
        # C = V T U^T, as T is symmetric. With r^2 = p/q each entry is a
        # single Fraction (p^2 A + q^2 B) / (p q D^2) of integers A, B.
        den = lcm(*(c.denominator for pair in self.generators for e in pair
                    for c in e.coords))

        def scaled(e: CycloElement) -> list[int]:
            return [c.numerator * (den // c.denominator) for c in e.coords]

        us = [scaled(u) for u, _ in self.generators]
        vs = [scaled(v) for _, v in self.generators]
        T = ctx.ok_gram
        ut, vt = linalg.mat_mul(us, T), linalg.mat_mul(vs, T)
        p, q = r_sq.numerator, r_sq.denominator
        pp, qq, gram_den = p * p, q * q, p * q * den * den
        self.real_gram = [[Fraction(pp * a + qq * b, gram_den)
                           for a, b in zip(linalg.mat_vec(us, uj), linalg.mat_vec(vs, vj))]
                          for uj, vj in zip(ut, vt)]
        vu = [linalg.mat_vec(us, vj) for vj in vt]
        dd = den * den
        self.symplectic = [[Fraction(a - b, dd) for a, b in zip(row, col)]
                           for row, col in zip(vu, zip(*vu))]

    # -- checks ----------------------------------------------------------------

    def is_riemann_integral(self) -> bool:
        """True iff the imaginary part of the form is integer on the lattice."""
        return all(e.denominator == 1 for row in self.symplectic for e in row)

    def symplectic_int(self) -> list[list[int]]:
        if not self.is_riemann_integral():
            raise ValueError("symplectic form is not integral")
        return [[int(e) for e in row] for row in self.symplectic]

    def is_unimodular(self) -> bool:
        """True iff |det| of the integer symplectic matrix is 1, i.e. the
        polarization is principal."""
        return abs(linalg.determinant(self.symplectic)) == 1

    def det_real_gram(self) -> Fraction:
        return linalg.determinant(self.real_gram)

    def _offset(self, v: CycloElement) -> CycloElement:
        return self.x * v.conj()

    def coordinates_of(self, u: CycloElement, v: CycloElement):
        """Rational coordinates of the point r*u + (i/r)*v in the generator
        basis, or None if (u, v) is not in the rational span (never happens
        for field-element pairs)."""
        # v determines the second block of coordinates directly (power basis),
        # the first block is the codifferent coordinates of the remainder
        t_b = list(v.coords)
        w = u - self._offset(v)
        t_a = self.ctx.coords_in_codiff(w)
        return t_a + t_b

    def contains(self, u: CycloElement, v: CycloElement) -> bool:
        return linalg.is_integral_vector(self.coordinates_of(u, v))

    def is_g_stable(self) -> bool:
        """Stability under the order-m unit group: it is enough to check the
        generator zeta, whose action sends (u, v) to (zeta u, conj(zeta) v)."""
        z = self.ctx.zeta(1)
        zc = z.conj()
        return all(self.contains(z * u, zc * v) for u, v in self.generators)

    def has_real_multiplication(self) -> bool:
        """Stability under multiplication by zeta + zeta^-1, which generates
        the ring of integers of the maximal totally real subfield."""
        b = self.ctx.zeta(1) + self.ctx.zeta(self.ctx.m - 1)
        return all(self.contains(b * u, b * v) for u, v in self.generators)

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        from .ioutil import fmt_rat
        return {
            "m": self.ctx.m,
            "r_sq": fmt_rat(self.r_sq),
            "x": [fmt_rat(c) for c in self.x.coords],
            "real_gram": [[fmt_rat(e) for e in row] for row in self.real_gram],
            "symplectic": self.symplectic_int(),
        }


def build_lattice(ctx: CyclotomicContext, r_sq, x: CycloElement) -> PolarizedLattice:
    """Construct the lattice for scale r^2 > 0 and twist point x."""
    gens = [(a, ctx.zero()) for a in ctx.codiff_basis]
    gens += [(x * b.conj(), b) for b in ctx.ok_basis]
    return PolarizedLattice(ctx, r_sq, x, gens)
