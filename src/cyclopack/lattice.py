"""The rank-2g lattice of a principally polarized abelian variety with
multiplication structure from the cyclotomic field.

For a scale r > 0 and a rational point t of E, the lattice is spanned by
r * (codifferent basis) together with the vectors r * t * conj(b) + (i/r) * b
for b running over the power basis of the ring of integers. A lattice point
r*u + (i/r)*v is stored as the pair (u, v) of field elements, which keeps
every Gram entry a rational in r^2 and 1/r^2 only; r itself never needs to
be extracted as a real number.

A lattice keeps every form as integer rows over one positive denominator in
lowest common terms. The generators are rows N over D, in codifferent
coordinates for u and power-basis coordinates for v: build_lattice's rows are
then [[I, 0], [X, I]] and D is the denominator of x in the codifferent. The
Gram matrix and the symplectic form are integer products of N with the trace
pairings of these bases over multiples of D^2, so the checks, the LLL and the
LDL factors run on integers. The Fraction view real_gram (for the lattice
JSON) is built only when read. Membership, and with it the unit action and
real multiplication checks, reduces integer rows against a lower-triangular
basis of N built once per lattice (build_lattice's rows are one already),
with a ring integer acting through the same integral multiplication matrix in
both bases: no field multiplication, no elimination, and valid for any
generators.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm

from . import linalg
from .cyclotomic import CycloElement, CyclotomicContext
from .svp import PreparedForm


class PolarizedLattice:
    """Lattice with exact real Gram matrix and integer symplectic form.

    generators holds the (u, v) pairs. gram and skew are (rows, den) of the
    real and the imaginary part of the hermitian product of the generators,
    form the PreparedForm of gram, and real_gram the Fraction view of gram.
    Each is built on first read: the stability and divisibility checks and a
    search's losing twists never read skew, and the stability check reads
    none of them.
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

        # rows: codifferent coordinates a of u, power-basis coordinates b of v,
        # each over its own denominator, brought over their lcm D
        parts = [(*ctx.coords_in_codiff(u), v.num, v.den) for u, v in self.generators]
        den = lcm(*(d for _, du, _, dv in parts for d in (du, dv)))
        self._rows, self._den = linalg.lowest_terms(
            [[c * (den // du) for c in a] + [c * (den // dv) for c in b]
             for a, du, b, dv in parts], den)

    # Tr(u conj(u')) = a G a'^T with G = codiff_gram_num / e, and
    # Tr(v conj(u')) = a' P b^T with P = codiff_pairing integral. With r^2 = p/q,
    # the Gram matrix is (p^2 A + q^2 e B) / (p q e D^2) and the symplectic
    # form is (C - C^T) / D^2, entry by entry, for integer matrices A, B, C.

    @cached_property
    def gram(self) -> tuple[list[list[int]], int]:
        ctx, g = self.ctx, self.ctx.g
        us = [r[:g] for r in self._rows]
        vs = [r[g:] for r in self._rows]
        e = ctx.codiff_gram_den
        ug, vt = linalg.mat_mul(us, ctx.codiff_gram_num), linalg.mat_mul(vs, ctx.ok_gram)
        p, q = self.r_sq.numerator, self.r_sq.denominator
        pp, qq = p * p, q * q * e
        return linalg.lowest_terms(
            [[pp * a + qq * b for a, b in zip(linalg.mat_vec(us, uj), linalg.mat_vec(vs, vj))]
             for uj, vj in zip(ug, vt)], p * q * e * self._den ** 2)

    @cached_property
    def real_gram(self) -> list[list[Fraction]]:
        rows, den = self.gram
        return [[Fraction(a, den) for a in row] for row in rows]

    @cached_property
    def form(self) -> PreparedForm:
        """The Gram matrix prepared for enumeration: LLL-reduced and factored
        on first read, then shared by shortest_norm_sq and count_N, in the
        order checker._certificate_at states."""
        return PreparedForm(*self.gram)

    @cached_property
    def skew(self) -> tuple[list[list[int]], int]:
        """(rows, den) of the symplectic form: C - C^T over D^2."""
        g, pairing = self.ctx.g, self.ctx.codiff_pairing
        us = [r[:g] for r in self._rows]
        vu = [linalg.mat_vec(us, linalg.mat_vec(pairing, r[g:])) for r in self._rows]
        return linalg.lowest_terms([[a - b for a, b in zip(row, col)]
                                    for row, col in zip(vu, zip(*vu))], self._den ** 2)

    # -- checks ----------------------------------------------------------------

    def is_riemann_integral(self) -> bool:
        """True iff the imaginary part of the form is integer on the lattice,
        i.e. D^2 divides every entry of C - C^T."""
        return self.skew[1] == 1

    def symplectic_int(self) -> list[list[int]]:
        if not self.is_riemann_integral():
            raise ValueError("symplectic form is not integral")
        return [list(row) for row in self.skew[0]]

    def is_unimodular(self) -> bool:
        """True iff the symplectic form has |det| 1, i.e. the polarization is
        principal: |det(rows)| = den^(2g) for its (rows, den), which needs no
        integrality."""
        rows, den = self.skew
        return abs(linalg.determinant(rows)) == den ** len(rows)

    def det_real_gram(self) -> Fraction:
        rows, den = self.gram
        return linalg.determinant(rows) / den ** len(rows)

    @cached_property
    def triangular_basis(self) -> list[list[int]] | None:
        """Lower-triangular integer basis of the generator rows N, built on
        first use; None if the generators are dependent. build_lattice's N is
        D [[I, 0], [X, I]], already triangular, so this is a scan."""
        return linalg.triangular_basis(self._rows)

    def _spans(self, rows) -> bool:
        """True iff the integer rows W (D times point coordinates) are W = C N
        for an integer C: each row reduces to zero against the basis, from its
        last coordinate down. False also when the generators are dependent."""
        basis = self.triangular_basis
        if basis is None:
            return False
        for w in rows:
            w = list(w)
            for h in reversed(basis):
                q, rem = divmod(w.pop(), h[-1])
                if rem:
                    return False
                if q:
                    w = [a - q * b for a, b in zip(w, h)]
        return True

    def _maps_into_itself(self, mu, mv) -> bool:
        """True iff (u, v) -> (a u, b v) maps the lattice into itself, for
        the integral multiplication matrices mu of a and mv of b."""
        g = self.ctx.g
        return self._spans([linalg.mat_vec(mu, r[:g]) + linalg.mat_vec(mv, r[g:])
                            for r in self._rows])

    def is_g_stable(self) -> bool:
        """Stability under the order-m unit group: it is enough to check the
        generator zeta, whose action sends (u, v) to (zeta u, conj(zeta) v)."""
        ctx = self.ctx
        return self._maps_into_itself(ctx.mul_matrix(ctx.zeta(1)),
                                      ctx.mul_matrix(ctx.zeta(-1)))

    def has_real_multiplication(self) -> bool:
        """Stability under multiplication by zeta + zeta^-1, which generates
        the ring of integers of the maximal totally real subfield."""
        b = self.ctx.mul_matrix(self.ctx.zeta(1) + self.ctx.zeta(-1))
        return self._maps_into_itself(b, b)


def build_lattice(ctx: CyclotomicContext, r_sq, x: CycloElement) -> PolarizedLattice:
    """Construct the lattice for scale r^2 > 0 and twist point x."""
    gens = [(a, ctx.zero()) for a in ctx.codiff_basis]
    gens += [(x * b.conj(), b) for b in ctx.ok_basis]
    return PolarizedLattice(ctx, r_sq, x, gens)
