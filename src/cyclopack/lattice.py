"""The rank-2g lattice of a principally polarized abelian variety with
multiplication structure from the cyclotomic field.

For a scale r > 0 and a rational point t of E, the lattice is spanned by
r * (codifferent basis) together with the vectors r * t * conj(b) + (i/r) * b
for b running over the power basis of the ring of integers. A lattice point
r*u + (i/r)*v is stored as the pair (u, v) of field elements, which keeps
every Gram entry a rational in r^2 and 1/r^2 only; r itself never needs to
be extracted as a real number.

A lattice keeps its generators as integer rows N over one common
denominator D, in codifferent coordinates for u and power-basis coordinates
for v: build_lattice's rows are then [[I, 0], [X, I]] and D is the
denominator of x in the codifferent. Both forms are integer products with the
trace pairings of these bases, one Fraction per entry at the end. Membership,
and with it the unit action and real multiplication checks, reduces integer
rows against a lower-triangular basis of N built once per lattice
(build_lattice's rows are one already), with a ring integer acting through
the same integral multiplication matrix in both bases: no field
multiplication, no elimination, and valid for any generators.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from . import linalg
from .cyclotomic import CycloElement, CyclotomicContext
from .svp import PreparedForm


class PolarizedLattice:
    """Lattice with exact real Gram matrix and integer symplectic form.

    generators holds the (u, v) pairs; real_gram[j][k] is the real part of
    the hermitian product of generators j and k, symplectic[j][k] its
    imaginary part (kept as Fractions so that integrality is checkable), and
    form the PreparedForm of real_gram. Each is built on first read: the
    stability and divisibility checks and a search's losing twists never
    read symplectic, and the stability check reads none of them.
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

        # rows: codifferent coordinates a of u, power-basis coordinates b of v
        self._rows, self._den = linalg.integer_matrix(
            [ctx.coords_in_codiff(u) + list(v.coords) for u, v in self.generators])

    # Tr(u conj(u')) = a G a'^T with G = codiff_gram = Gi / e, and
    # Tr(v conj(u')) = a' P b^T with P = codiff_pairing integral. With r^2 = p/q,
    # real_gram is (p^2 A + q^2 e B) / (p q e D^2) and symplectic is
    # (C - C^T) / D^2, entry by entry, for integer matrices A, B and C.

    @cached_property
    def real_gram(self) -> list[list[Fraction]]:
        ctx, g = self.ctx, self.ctx.g
        us = [r[:g] for r in self._rows]
        vs = [r[g:] for r in self._rows]
        gi, e = linalg.integer_matrix(ctx.codiff_gram)
        ug, vt = linalg.mat_mul(us, gi), linalg.mat_mul(vs, ctx.ok_gram)
        p, q = self.r_sq.numerator, self.r_sq.denominator
        pp, qq, gram_den = p * p, q * q * e, p * q * e * self._den ** 2
        return [[Fraction(pp * a + qq * b, gram_den)
                 for a, b in zip(linalg.mat_vec(us, uj), linalg.mat_vec(vs, vj))]
                for uj, vj in zip(ug, vt)]

    @cached_property
    def form(self) -> PreparedForm:
        """real_gram prepared for enumeration: LLL-reduced and factored on
        first read, then shared by shortest_norm_sq and count_N, in the
        order checker._certificate_at states."""
        return PreparedForm(self.real_gram)

    @cached_property
    def symplectic(self) -> list[list[Fraction]]:
        g, pairing, dd = self.ctx.g, self.ctx.codiff_pairing, self._den ** 2
        us = [r[:g] for r in self._rows]
        vu = [linalg.mat_vec(us, linalg.mat_vec(pairing, r[g:])) for r in self._rows]
        return [[Fraction(a - b, dd) for a, b in zip(row, col)]
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
