"""Exact arithmetic in K = Q(zeta_m) with the power basis of Z[zeta_m].

An element is g integer numerators over one positive denominator, in lowest
terms, in the power basis {1, zeta, ..., zeta^(g-1)}, g = phi(m). The
arithmetic of m lives here too: prime_factors and mobius_pairs factor m, and
the totient, Phi_m as a Mobius product, the traces Tr(zeta^j) as Ramanujan
sums and |disc| = m^g / prod_p p^(g/(p-1)) are sums and products over its
primes. Every product, unit action, trace and codifferent coordinate is an
integer matrix applied to the numerators, over the product of the
denominators: element arithmetic builds no Fraction. The trace-dual of the ring of integers (the codifferent)
is the fractional ideal generated by 1/Phi_m'(zeta); since Z[zeta_m] is the
full ring of integers, this is exact, not an approximation. No floating
point is used anywhere in this module.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod

from . import linalg
from .svp import PreparedForm


def prime_factors(m: int) -> list[int]:
    """The distinct primes dividing m, ascending, by trial division."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    primes = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        primes.append(m)
    return primes


def mobius_pairs(m: int) -> list[tuple[int, int]]:
    """The pairs (d, mu(m/d)) over the divisors d of m with m/d squarefree,
    the only divisors on which mu(m/d) is nonzero: one pair per set of primes
    dividing m/d, so each prime doubles the list."""
    pairs = [(m, 1)]
    for p in prime_factors(m):
        pairs += [(d // p, -mu) for d, mu in pairs]
    return pairs


def phi(m: int) -> int:
    """Euler totient, sum of mu(m/d) d over the divisors d of m."""
    return sum(mu * d for d, mu in mobius_pairs(m))


def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, low degree first. For m >= 2, Phi_m is
    the product of (1 - x^d)^mu(m/d) over the divisors d of m (Mobius
    inversion of x^m - 1 = prod_{d|m} Phi_d; the signs cancel because the
    mu(m/d) sum to 0). The identity holds in Z[[x]], so the series is
    truncated at degree phi(m): multiplying by 1 - x^d subtracts the
    coefficients d places lower, dividing by it adds them."""
    if m == 1:
        return (-1, 1)
    g = phi(m)
    c = [1] + [0] * g
    for d, mu in mobius_pairs(m):
        # downwards, c[i - d] is still the old coefficient (multiply);
        # upwards, it is already the new one (divide)
        for i in range(g, d - 1, -1) if mu > 0 else range(d, g + 1):
            c[i] -= mu * c[i - d]
    return tuple(c)


def _element(ctx: "CyclotomicContext", num: tuple[int, ...], den: int) -> "CycloElement":
    """The element num / den, for numerators and a denominator den > 0 that
    are already in lowest terms."""
    a = object.__new__(CycloElement)
    a.ctx, a.num, a.den, a._coords, a._rows = ctx, num, den, None, None
    return a


def _reduced(ctx: "CyclotomicContext", num, den: int) -> "CycloElement":
    """The element num / den in lowest terms, for any den != 0."""
    d = gcd(den, *num)
    if den < 0:
        d = -d
    return _element(ctx, tuple(c // d for c in num) if d != 1 else tuple(num), den // d)


class CycloElement:
    """An element of K: the integer numerators num of its power-basis
    coordinates over one denominator den > 0 with gcd(den, *num) = 1, so equal
    elements have equal (num, den). Two views are built on first use and
    kept, which is safe because an element never changes: coords, the
    coordinates as Fractions, on first read; and _rows, the rows of the
    integer matrix of multiplication by num, the first time the element is
    the left operand of a product (or is inverted, or gives its mul_matrix)."""

    __slots__ = ("ctx", "num", "den", "_coords", "_rows")

    def __init__(self, ctx: "CyclotomicContext", coords) -> None:
        coords = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coords]
        if len(coords) != ctx.g:
            raise ValueError(f"expected {ctx.g} coordinates, got {len(coords)}")
        # each coordinate is in lowest terms, so over the least common
        # denominator the numerators share no factor with it
        den = lcm(*(c.denominator for c in coords))
        self.ctx = ctx
        self.num = tuple(c.numerator * (den // c.denominator) for c in coords)
        self.den = den
        self._coords = self._rows = None

    @property
    def coords(self) -> tuple[Fraction, ...]:
        if self._coords is None:
            self._coords = tuple(Fraction(c, self.den) for c in self.num)
        return self._coords

    def __repr__(self) -> str:
        return f"CycloElement(m={self.ctx.m}, {list(map(str, self.coords))})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycloElement):
            return NotImplemented
        return (self.ctx.m == other.ctx.m and self.den == other.den
                and self.num == other.num)

    def __hash__(self) -> int:
        return hash((self.ctx.m, self.num, self.den))

    def __bool__(self) -> bool:
        return any(self.num)

    def _check(self, other: "CycloElement") -> None:
        if self.ctx.m != other.ctx.m:
            raise ValueError("elements from different cyclotomic fields")

    def __add__(self, other):
        if isinstance(other, CycloElement):
            self._check(other)
            da, db = self.den, other.den
            return _reduced(self.ctx, [a * db + b * da for a, b in zip(self.num, other.num)],
                            da * db)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, CycloElement):
            return self + -other
        return NotImplemented

    def __neg__(self):
        return _element(self.ctx, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        if isinstance(other, CycloElement):
            self._check(other)
            return self.ctx.mul(self, other)
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return _reduced(self.ctx, [a * p for a in self.num], self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, CycloElement):
            self._check(other)
            return self * self.ctx.inverse(other)
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division of a field element by zero")
            q = other.denominator
            return _reduced(self.ctx, [a * q for a in self.num], self.den * other.numerator)
        return NotImplemented

    def trace(self) -> Fraction:
        return self.ctx.trace(self)

    def inverse(self) -> "CycloElement":
        return self.ctx.inverse(self)


class CyclotomicContext:
    """All precomputed data of Q(zeta_m): traces of powers, the powers of
    zeta, and the Gram matrices and pairing of the ring of integers and of
    its trace-dual (codifferent) lattice, whose basis is codiff_gen * zeta^j.

    The data rest on two primitives: the integral trace form ok_gram = T,
    Toeplitz in the Ramanujan sums Tr(zeta^j), which gives every pairing
    Tr(a conj(b)) = a^T T b, Gram matrix and trace (its determinant, the
    discriminant, is taken from the closed form), and the zeta-shift (multiply
    by zeta), which gives the matrix of every multiplication: products, the
    codifferent basis, coordinates in it (one product by the stored
    different, Phi_m'(zeta)), and the system that inverse() solves. The
    powers of zeta are one table of zeta-shifts of 1, which zeta and the unit
    action mul_zeta read; on the power basis, complex conjugation is the unit
    action conj(zeta^j) = zeta^-j.

    The field's data never change and every operation is pure. The two forms
    the search enumerates, ring_form (ok_gram over 1) and codiff_form (the
    codifferent Gram), are LLL-reduced on first read and each keeps its
    deepest walk (svp.norm_counts).
    """

    def __init__(self, m: int) -> None:
        if m < 3:
            raise ValueError(f"m must be >= 3, got {m}")
        self.m = m
        self.phi_coeffs: tuple[int, ...] = cyclotomic_polynomial(m)
        self.g = len(self.phi_coeffs) - 1
        g = self.g

        # the zeta-power table: row i holds coordinate i of zeta^e for
        # 0 <= e <= m + g - 2, so the matrix of zeta^e, whose columns are
        # zeta^(e+j) for j < g, has the rows row[e % m : e % m + g]
        cols = [[1] + [0] * (g - 1)]
        for _ in range(1, m):
            cols.append(self._shift(cols[-1]))
        self._zeta_table: tuple[tuple[int, ...], ...] = tuple(zip(*cols, *cols[:g - 1]))

        # Tr(zeta^j) for 0 <= j <= 2g-2 is the Ramanujan sum c_m(j): the sum
        # of mu(m/d) d over the divisors d of gcd(j, m)
        pairs = mobius_pairs(m)
        self.trace_vec: tuple[int, ...] = tuple(
            sum(mu * d for d, mu in pairs if j % d == 0) for j in range(2 * g - 1))

        # the euclidean pairing Tr(a conj(b)) is a^T T b on coordinates, with
        # T integral and Toeplitz: Tr(zeta^j conj(zeta^k)) = Tr(zeta^|j-k|)
        self.ok_gram: tuple[tuple[int, ...], ...] = tuple(
            tuple(self.trace_vec[abs(j - k)] for k in range(g)) for j in range(g)
        )
        # |disc| = |det T| = m^g / prod_{p | m} p^(g/(p-1))
        self.disc_abs: int = m ** g // prod(p ** (g // (p - 1)) for p in prime_factors(m))

        # the different Phi_m'(zeta); its inverse codiff_gen generates the
        # codifferent over Z[zeta], and multiplication by it maps the
        # codifferent basis codiff_gen * zeta^j to zeta^j, so it gives
        # coordinates in the codifferent; its multiplication rows are built
        # here, once
        self.different: CycloElement = _element(
            self, tuple(i * c for i, c in enumerate(self.phi_coeffs))[1:], 1)
        self.codiff_gen: CycloElement = self.inverse(self.different)
        # unit multiples of codiff_gen: its numerators' shifts over its denominator e
        e = self.codiff_gen.den
        cd = self._shifts(self.codiff_gen.num)
        # codiff_pairing[j][k] = Tr(zeta^k conj(c_j)), integral on the codifferent
        self.codiff_pairing: tuple[tuple[int, ...], ...] = tuple(
            tuple(v // e for v in linalg.mat_vec(self.ok_gram, c)) for c in cd)
        # the codifferent Gram, Tr(c_j conj(c_k)), as integer rows over one
        # denominator in lowest common terms
        self.codiff_gram_num, self.codiff_gram_den = linalg.lowest_terms(
            [linalg.mat_vec(cd, p) for p in self.codiff_pairing], e)

    @cached_property
    def ring_form(self) -> PreparedForm:
        return PreparedForm(self.ok_gram, 1)

    @cached_property
    def codiff_form(self) -> PreparedForm:
        return PreparedForm(self.codiff_gram_num, self.codiff_gram_den)

    # -- construction helpers -------------------------------------------------

    def _shift(self, coords) -> list:
        # multiply by zeta: shift up, fold the overflow back with Phi_m
        g = self.g
        top = coords[g - 1]
        out = [0, *coords[: g - 1]]
        if top:
            for i in range(g):
                out[i] -= top * self.phi_coeffs[i]
        return out

    def _shifts(self, coords) -> list[list]:
        """Coordinates of a * zeta^j for 0 <= j < g, given those of a: the
        columns of the matrix of multiplication by a."""
        cols = [list(coords)]
        for _ in range(self.g - 1):
            cols.append(self._shift(cols[-1]))
        return cols

    # -- element factories ----------------------------------------------------

    def element(self, coords) -> CycloElement:
        return CycloElement(self, coords)

    def zero(self) -> CycloElement:
        return _element(self, (0,) * self.g, 1)

    def one(self) -> CycloElement:
        return _element(self, (1,) + (0,) * (self.g - 1), 1)

    def zeta(self, e: int = 1) -> CycloElement:
        e %= self.m
        return _element(self, tuple(row[e] for row in self._zeta_table), 1)

    # -- field operations -----------------------------------------------------

    def _mul_rows(self, a: CycloElement) -> tuple[tuple[int, ...], ...]:
        """The rows of the integer matrix of multiplication by a's numerators
        (column j: their zeta-shift by j), built once and kept on a."""
        if a._rows is None:
            a._rows = tuple(zip(*self._shifts(a.num)))
        return a._rows

    def mul(self, a: CycloElement, b: CycloElement) -> CycloElement:
        """a * b: the multiplication rows of a's numerators applied to b's,
        over the product of the denominators."""
        return _reduced(self, linalg.mat_vec(self._mul_rows(a), b.num), a.den * b.den)

    def mul_zeta(self, e: int, a: CycloElement) -> CycloElement:
        """zeta^e * a, the action of the unit zeta^e: g dot products of a's
        numerators with slices of the zeta-power table. The matrix maps Z^g
        onto itself, so a's denominator stays and the numerators need no
        reduction."""
        e %= self.m
        end, num = e + self.g, a.num
        return _element(self, tuple(sum(map(operator.mul, row[e:end], num))
                                    for row in self._zeta_table), a.den)

    def trace(self, a: CycloElement) -> Fraction:
        # row 0 of ok_gram holds Tr(zeta^k)
        return Fraction(sum(map(operator.mul, self.ok_gram[0], a.num)), a.den)

    def pairing(self, a: CycloElement, b: CycloElement) -> Fraction:
        """The euclidean pairing Tr(a conj(b)) = a^T T b on E, symmetric and
        positive definite; |x + iy|^2 = pairing(x, x) + pairing(y, y)."""
        a._check(b)
        return Fraction(sum(map(operator.mul, a.num, linalg.mat_vec(self.ok_gram, b.num))),
                        a.den * b.den)

    def inverse(self, a: CycloElement) -> CycloElement:
        if not a:
            raise ZeroDivisionError("zero has no inverse in K")
        # a = A / d for the shift matrix A of a's numerators: solve A x = d * 1
        sol = linalg.solve(self._mul_rows(a), [a.den] + [0] * (self.g - 1))
        assert sol is not None  # multiplication by a nonzero field element is invertible
        return _reduced(self, *sol)

    def mul_matrix(self, a: CycloElement) -> tuple[tuple[int, ...], ...]:
        """Integer matrix of multiplication by the ring integer a on
        power-basis coordinates: column j holds a * zeta^j, so it maps integer
        coordinate rows to integer rows."""
        if a.den != 1:
            raise ValueError("mul_matrix takes a ring integer")
        return self._mul_rows(a)

    # -- lattice coordinates --------------------------------------------------

    def coords_in_codiff(self, a: CycloElement) -> CycloElement:
        """Phi_m'(zeta) * a, in lowest terms like every element: its
        power-basis coordinates are a's coordinates in the codifferent basis
        codiff_gen * zeta^j. One field product."""
        return self.mul(self.different, a)
