"""The rank-2g lattice of a principally polarized abelian variety with
multiplication structure from the cyclotomic field.

For a scale r > 0 and a rational point x of E, the lattice is spanned by
r * (codifferent basis) together with the vectors r * x * conj(b) + (i/r) * b
for b running over the power basis of the ring of integers. A lattice point
r*u + (i/r)*v is the pair (u, v) of field elements, which keeps every Gram
entry a rational in r^2 and 1/r^2 only; r itself never needs to be
extracted as a real number.

A lattice keeps its generators as integer rows N over one positive
denominator D in lowest common terms, in codifferent coordinates for u and
power-basis coordinates for v. build_lattice writes them in closed form from
the unit action: the codifferent coordinates of x are the power-basis
coordinates of y = Phi_m'(zeta) x (one field product), and conj(zeta^j) =
zeta^-j, so those of x conj(zeta^j) are the numerators of zeta^-j y. With D
the denominator of y, the rows are [[D I, 0], [Y, D I]] over D, row j of Y
those numerators. The Gram matrix and the symplectic form are integer
products of N with the trace pairings of these bases over multiples of D^2,
so the checks, the LLL and the LDL factors run on integers, and no form is
ever held as a Fraction matrix: det_real_gram builds one Fraction, for its
result. N is lower triangular with a nonzero diagonal, as build_lattice's
rows are by construction, and the constructor refuses rows that are not.
So the v part of the first g rows is zero: the forms multiply only the
blocks that rows with a nonzero v part reach, and the unit action leaves
that part of those rows at zero. Membership, and with it the unit action and
real multiplication checks, is then a back-substitution of integer rows
against N itself, with a ring integer acting through the same integral
multiplication matrix in both bases: no field multiplication and no
elimination.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from . import linalg
from .cyclotomic import CycloElement, CyclotomicContext
from .svp import PreparedForm


class PolarizedLattice:
    """Lattice with exact real Gram matrix and integer symplectic form.

    The generators are the integer rows over den (codifferent coordinates of
    u, then power-basis coordinates of v), kept in lowest terms as _rows over
    _den. gram and skew are (rows, den) of the real and the imaginary part of
    the hermitian product of the generators, and form is the PreparedForm of
    gram. Each is built on first read: the stability and divisibility checks
    and a search's losing twists never read skew, and the stability check
    reads none of them.
    """

    def __init__(self, ctx: CyclotomicContext, r_sq, x: CycloElement, rows, den: int) -> None:
        r_sq = Fraction(r_sq)
        if r_sq <= 0:
            raise ValueError(f"r^2 must be positive, got {r_sq}")
        self.ctx = ctx
        self.r_sq = r_sq
        self.x = x
        self._rows, self._den = linalg.lowest_terms(rows, den)
        if len(self._rows) != 2 * ctx.g or not all(
                row[i] and not any(row[i + 1:]) for i, row in enumerate(self._rows)):
            raise ValueError("generator rows must be lower triangular with a nonzero diagonal")

    # Tr(u conj(u')) = a G a'^T with G = codiff_gram_num / e, and
    # Tr(v conj(u')) = a' P b^T with P = codiff_pairing integral. With r^2 = p/q,
    # the Gram matrix is (p^2 A + q^2 e B) / (p q e D^2) and the symplectic
    # form is (C - C^T) / D^2, entry by entry, for the integer matrices
    # A = U G U^T, B = V T V^T and C = V P U^T of the u parts U and v parts V
    # of the rows. N is lower triangular, so the first g rows of V are zero:
    # B is zero outside its bottom-right g x g block and C outside its bottom
    # g rows, and neither is multiplied there. G and T are symmetric, so a
    # row of U G is G applied to a row of U, and A and B are filled on and
    # below the diagonal and mirrored.

    @cached_property
    def gram(self) -> tuple[list[list[int]], int]:
        ctx, g = self.ctx, self.ctx.g
        us = [r[:g] for r in self._rows]
        vs = [r[g:] for r in self._rows[g:]]
        e = ctx.codiff_gram_den
        p, q = self.r_sq.numerator, self.r_sq.denominator
        pp, qq = p * p, q * q * e
        low = [[pp * a for a in linalg.mat_vec(us[:i + 1], linalg.mat_vec(ctx.codiff_gram_num, u))]
               for i, u in enumerate(us)]
        for k, v in enumerate(vs):
            row = low[g + k]
            row[g:] = [a + qq * b for a, b in
                       zip(row[g:], linalg.mat_vec(vs[:k + 1], linalg.mat_vec(ctx.ok_gram, v)))]
        return linalg.lowest_terms(
            [row + [low[j][i] for j in range(i + 1, 2 * g)] for i, row in enumerate(low)],
            p * q * e * self._den ** 2)

    @cached_property
    def form(self) -> PreparedForm:
        """The Gram matrix prepared for enumeration: LLL-reduced and factored
        on first read, then shared by shortest_norm_sq and count_N, in the
        order checker._certificate_at states."""
        return PreparedForm(*self.gram)

    @cached_property
    def skew(self) -> tuple[list[list[int]], int]:
        """(rows, den) of the symplectic form: C - C^T over D^2, with C the
        bottom g rows c of V P U^T, as the rows above them are zero."""
        g, pairing = self.ctx.g, self.ctx.codiff_pairing
        us = [r[:g] for r in self._rows]
        c = [linalg.mat_vec(us, linalg.mat_vec(pairing, r[g:])) for r in self._rows[g:]]
        ct = list(zip(*c))
        return linalg.lowest_terms(
            [[0] * g + [-a for a in col] for col in ct[:g]]
            + [row[:g] + [a - b for a, b in zip(row[g:], col)] for row, col in zip(c, ct[g:])],
            self._den ** 2)

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
        principal, which needs no integrality. Its top-left g x g block is
        zero, so for its (rows, den) the determinant is det(B)^2 with B the
        top-right block, and |det| = 1 iff |det B| = den^g."""
        rows, den = self.skew
        g = self.ctx.g
        return abs(linalg.determinant([r[g:] for r in rows[:g]])) == den ** g

    def det_real_gram(self) -> Fraction:
        rows, den = self.gram
        return Fraction(linalg.determinant(rows), den ** len(rows))

    def _spans(self, rows) -> bool:
        """True iff the integer rows W (D times point coordinates) are W = C N
        for an integer C: each row reduces to zero against the lower-triangular
        N by back-substitution, from its last coordinate down."""
        for w in rows:
            w = list(w)
            for h in reversed(self._rows):
                q, rem = divmod(w.pop(), h[len(w)])
                if rem:
                    return False
                if q:
                    w = [a - q * b for a, b in zip(w, h)]
        return True

    def _maps_into_itself(self, mu, mv) -> bool:
        """True iff (u, v) -> (a u, b v) maps the lattice into itself, for
        the integral multiplication matrices mu of a and mv of b; the first g
        rows have v = 0, which mv maps to 0."""
        g, rows = self.ctx.g, self._rows
        return self._spans([linalg.mat_vec(mu, r[:g]) + [0] * g for r in rows[:g]]
                           + [linalg.mat_vec(mu, r[:g]) + linalg.mat_vec(mv, r[g:])
                              for r in rows[g:]])

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
    """Construct the lattice for scale r^2 > 0 and twist point x: rows
    [d e_j, 0] and [zeta^-j y, d e_j] over d, for y = Phi_m'(zeta) x over
    its denominator d."""
    y = ctx.coords_in_codiff(x)
    g, d = ctx.g, y.den
    diag = [[d if i == j else 0 for i in range(g)] for j in range(g)]
    rows = [e + [0] * g for e in diag] + [[*ctx.mul_zeta(-j, y).num, *e]
                                          for j, e in enumerate(diag)]
    return PolarizedLattice(ctx, r_sq, x, rows, d)
