"""The rank-2g lattice of a principally polarized abelian variety with
multiplication structure from the cyclotomic field.

For a scale r > 0 and a rational point x of E, the lattice is spanned by
r * (codifferent basis) together with the vectors r * x * conj(b) + (i/r) * b
for b running over the power basis of the ring of integers. A lattice point
r*u + (i/r)*v is the pair (u, v) of field elements, which keeps every Gram
entry a rational in r^2 and 1/r^2 only; r itself never needs to be
extracted as a real number.

A lattice keeps its twist block Y, g x g integers over one positive
denominator D in lowest common terms, and its generator rows are
[[D I, 0], [Y, D I]] over D by definition, in codifferent coordinates for u
and power-basis coordinates for v. build_lattice writes Y in closed form
from the unit action: the codifferent coordinates of x are the power-basis
coordinates of y = Phi_m'(zeta) x (one field product), and conj(zeta^j) =
zeta^-j, so those of x conj(zeta^j) are the numerators of zeta^-j y, row j
of Y, over D the denominator of y. The Gram matrix and the symplectic form
are then products of g x g blocks, Y with the trace pairings of these bases,
over multiples of D^2, so the checks, the LLL and the LDL factors run on
integers, and no form is ever held as a Fraction matrix: det_real_gram
builds one Fraction, for its result. The unit action and real
multiplication checks read Y alone, with a ring integer acting through the
same integral multiplication matrix in both bases: no field multiplication
and no elimination.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import mul

from . import linalg
from .cyclotomic import CycloElement, CyclotomicContext
from .svp import PreparedForm


class PolarizedLattice:
    """Lattice with exact real Gram matrix and integer symplectic form.

    The generators are the rows [[den I, 0], [twist, den I]] over den, for
    the g x g integer twist block over den > 0, kept in lowest terms. gram
    and skew are (rows, den) of the real and the imaginary part of the
    hermitian product of the generators, and form is the PreparedForm of
    gram. Each is built on first read: the stability and divisibility checks
    and a search's losing twists never read skew, and the stability check
    reads none of them.
    """

    def __init__(self, ctx: CyclotomicContext, r_sq, x: CycloElement, twist, den: int) -> None:
        r_sq = Fraction(r_sq)
        if r_sq <= 0:
            raise ValueError(f"r^2 must be positive, got {r_sq}")
        try:
            twist = [list(row) for row in twist]
        except TypeError:
            twist = []
        if (type(den) is not int or den <= 0 or len(twist) != ctx.g
                or any(len(row) != ctx.g or any(type(a) is not int for a in row)
                       for row in twist)):
            raise ValueError("the twist block must be g x g ints over a positive int denominator")
        self.ctx = ctx
        self.r_sq = r_sq
        self.x = x
        self.twist, self.den = linalg.lowest_terms(twist, den)

    # Tr(u conj(u')) = a G a'^T with G = codiff_gram_num / e, Tr(v conj(v')) =
    # b T b'^T, and Tr(v conj(u')) = a' P b^T with P = codiff_pairing
    # integral. With r^2 = p/q, the Gram matrix is (p^2 A + q^2 e B) / (p q e
    # D^2) and the symplectic form is (C - C^T) / D^2, entry by entry, for
    # A = U G U^T, B = V T V^T and C = V P U^T of the u parts U = [D I; Y]
    # and v parts V = [0; D I] of the rows. So A = [[D^2 G, D (Y G)^T],
    # [D Y G, Y G Y^T]], B = D^2 T in its bottom-right block, and C is
    # [D^2 P^T, D (Y P)^T] in its bottom g rows, zero above. G and T are
    # symmetric, so a row of Y G is G applied to a row of Y, and Y G Y^T is
    # filled on and below the diagonal and mirrored.

    @cached_property
    def gram(self) -> tuple[list[list[int]], int]:
        """(rows, den) of the real part: [[p^2 D^2 G, p^2 D (Y G)^T],
        [p^2 D Y G, p^2 Y G Y^T + q^2 e D^2 T]] over p q e D^2."""
        ctx, g, d, ys = self.ctx, self.ctx.g, self.den, self.twist
        p, q, e = self.r_sq.numerator, self.r_sq.denominator, ctx.codiff_gram_den
        pp, pd, pdd, qq = p * p, p * p * d, p * p * d * d, q * q * e * d * d
        yg = [linalg.mat_vec(ctx.codiff_gram_num, y) for y in ys]
        low = [[pp * sum(map(mul, a, y)) + qq * t for y, t in zip(ys[:j + 1], row)]
               for j, (a, row) in enumerate(zip(yg, ctx.ok_gram))]
        return linalg.lowest_terms(
            [[pdd * a for a in row] + [pd * a for a in col]
             for row, col in zip(ctx.codiff_gram_num, zip(*yg))]
            + [[pd * a for a in row] + lo + [low[k][j] for k in range(j + 1, g)]
               for j, (row, lo) in enumerate(zip(yg, low))],
            p * q * e * d * d)

    @cached_property
    def form(self) -> PreparedForm:
        """The Gram matrix prepared for enumeration: LLL-reduced and factored
        on first read, then shared by shortest_norm_sq and count_N, in the
        order checker._certificate_at states."""
        return PreparedForm(*self.gram)

    @cached_property
    def skew(self) -> tuple[list[list[int]], int]:
        """(rows, den) of the symplectic form C - C^T: [[0, -D^2 P],
        [D^2 P^T, D (W^T - W)]] over D^2, for W = Y P."""
        g, d, pairing = self.ctx.g, self.den, self.ctx.codiff_pairing
        dd = d * d
        pt = list(zip(*pairing))
        w = [linalg.mat_vec(pt, y) for y in self.twist]
        return linalg.lowest_terms(
            [[0] * g + [-dd * a for a in row] for row in pairing]
            + [[dd * a for a in row] + [d * (b - a) for a, b in zip(wj, col)]
               for row, wj, col in zip(pt, w, zip(*w))],
            dd)

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

    def _maps_into_itself(self, mu, mv) -> bool:
        """True iff (u, v) -> (a u, b v) maps the lattice into itself, for
        the integral multiplication matrices mu of a and mv of b. The first g
        rows map into D Z^g x 0, which the lattice holds. Row g + j maps to
        (mu Y_j, D nu_j) for nu_j = column j of mv; less sum_k nu_kj times
        row g + k, that is (mu Y_j - sum_k nu_kj Y_k, 0), inside iff D
        divides every entry."""
        d, ys = self.den, self.twist
        yt = list(zip(*ys))
        return not any((a - b) % d for y, col in zip(ys, zip(*mv))
                       for a, b in zip(linalg.mat_vec(mu, y), linalg.mat_vec(yt, col)))

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
    """Construct the lattice for scale r^2 > 0 and twist point x: twist
    block rows zeta^-j y over d, for y = Phi_m'(zeta) x over its
    denominator d."""
    y = ctx.coords_in_codiff(x)
    return PolarizedLattice(ctx, r_sq, x, [ctx.mul_zeta(-j, y).num for j in range(ctx.g)], y.den)
