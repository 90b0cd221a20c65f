"""Certified enclosures of nonnegative real constants with exact rational
endpoints.

Every real the pipeline encloses is nonnegative: pi, the ball volumes, the
chi radius R^2, the mean count J(r) and the bound v_2g lambda1^2g. An
IntervalValue is a pair of Fractions 0 <= lo <= hi known to contain such a
real. Sums, products, quotients and powers are monotone on [0, inf), so each
is one formula on the endpoints and containment-preserving (outward): a
strict comparison of an endpoint against a rational is a proof. Pi is
enclosed by bracketing partial sums of the Machin arctangent series; the
brackets tighten monotonically as the precision parameter grows, and outward
dyadic rounding pads each endpoint by one ulp (lo no lower than 0) so
enclosures at higher precision are nested inside coarser ones.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm


def int_nth_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for integers n >= 0, k >= 1."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    if k == 1 or n < 2:
        return n
    if k == 2:
        return isqrt(n)
    x = 1 << -(-n.bit_length() // k)  # upper seed, then Newton downwards
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


class IntervalValue:
    """Enclosure [lo, hi] of a nonnegative real. A rational operand is taken
    as its point enclosure; a quotient's divisor must have lo > 0."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi) -> None:
        lo, hi = Fraction(lo), Fraction(hi)
        if not 0 <= lo <= hi:
            raise ValueError(f"not an enclosure of a nonnegative real: [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @classmethod
    def point(cls, x) -> "IntervalValue":
        x = Fraction(x)
        return cls(x, x)

    def __repr__(self) -> str:
        return f"IntervalValue({float(self.lo)!r}, {float(self.hi)!r})"

    def __contains__(self, x) -> bool:
        return self.lo <= Fraction(x) <= self.hi

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        o = _enclosure(other)
        return IntervalValue(self.lo + o.lo, self.hi + o.hi)

    def __mul__(self, other):
        o = _enclosure(other)
        return IntervalValue(self.lo * o.lo, self.hi * o.hi)

    def __truediv__(self, other):
        o = _enclosure(other)
        if o.lo == 0:
            raise ZeroDivisionError("interval divisor contains zero")
        return IntervalValue(self.lo / o.hi, self.hi / o.lo)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        return IntervalValue(self.lo ** k, self.hi ** k)

    def nth_root(self, n: int, precision: int) -> "IntervalValue":
        """Enclosure of the n-th root at precision bits."""
        scale = 1 << (n * precision)
        lo_int = int_nth_root(int(self.lo * scale), n)
        hi_scaled = self.hi * scale
        hi_ceil = -int(-hi_scaled.numerator // hi_scaled.denominator)
        hi_int = int_nth_root(hi_ceil, n) + 1
        unit = Fraction(1, 1 << precision)
        return IntervalValue(lo_int * unit, hi_int * unit)

    def sqrt(self, precision: int) -> "IntervalValue":
        return self.nth_root(2, precision)

    def outward(self, precision: int) -> "IntervalValue":
        """Round endpoints outward to the dyadic grid 2^-precision and pad by
        one ulp, lo no lower than 0; the pad nests refined enclosures inside
        coarser ones."""
        scale = 1 << precision
        lo = max(self.lo.numerator * scale // self.lo.denominator - 1, 0)
        hi = -(-self.hi.numerator * scale // self.hi.denominator) + 1
        return IntervalValue(Fraction(lo, scale), Fraction(hi, scale))


def _enclosure(x) -> IntervalValue:
    """x if it is an enclosure, else the point enclosure of the rational x."""
    return x if isinstance(x, IntervalValue) else IntervalValue.point(x)


def _arctan_inv_brackets(q: int, tail_bits: int) -> tuple[Fraction, Fraction]:
    """Bracketing partial sums of arctan(1/q) for integer q >= 2.

    The series sum_j (-1)^j / ((2j+1) q^(2j+1)) is alternating with strictly
    decreasing terms, so consecutive partial sums enclose the limit. The sums
    up to the first term n >= 1 below 2^-tail_bits, and the one before, are
    integers over lcm(1, 3, ..., 2n+1) q^(2n+1), reduced once each.
    """
    n, qn, q2 = 1, q ** 3, q * q  # qn = q^(2n+1)
    while (2 * n + 1) * qn <= 1 << tail_bits:
        n, qn = n + 1, qn * q2
    odd_lcm = lcm(*range(1, 2 * n + 2, 2))
    num = 0
    for j in range(n + 1):
        num = num * q2 + (-1) ** j * (odd_lcm // (2 * j + 1))
    den, term = odd_lcm * qn, (-1) ** n * (odd_lcm // (2 * n + 1))
    return tuple(sorted((Fraction(num, den), Fraction(num - term, den))))


@lru_cache(maxsize=None)
def pi_interval(precision: int = 128) -> IntervalValue:
    """Enclosure of pi via Machin's formula 16 arctan(1/5) - 4 arctan(1/239)."""
    if precision < 8:
        raise ValueError("precision must be at least 8 bits")
    tail = precision + 16
    a5 = _arctan_inv_brackets(5, tail)
    a239 = _arctan_inv_brackets(239, tail)
    raw = IntervalValue(16 * a5[0] - 4 * a239[1], 16 * a5[1] - 4 * a239[0])
    return raw.outward(precision)
