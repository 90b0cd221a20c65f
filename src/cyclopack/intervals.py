"""Certified enclosures of nonnegative real constants, computed on integers.

Every real the pipeline encloses is nonnegative: pi, the ball volumes, the
chi radius R^2, the mean count J(r) and the bound v_2g lambda1^2g. An
IntervalValue is a pair of Fractions 0 <= lo <= hi known to contain such a
real, so a strict comparison of an endpoint against a rational is a proof.

An enclosure at precision p is built on integers: each endpoint is one exact
rational, written as an integer over an integer, and outward floors lo and
ceils hi once onto the grid 2^-p and pads each by one grid step (lo no lower
than 0), so an enclosure at a higher precision nests inside a coarser one.
Sums, products, quotients and powers are monotone on [0, inf), so the lower
end of a formula in enclosures is the formula in their lower ends (upper
ends in a divisor), and that rational is exact; the only other rounding is
the integer floor of a root (int_nth_root) of a scaled radicand. Pi is
enclosed by bracketing partial sums of the Machin arctangent series, which
tighten monotonically as the precision grows. The Fraction interval
arithmetic these endpoints fold together, one rounded operation at a time,
is kept in tests/oracles.py as the reference they are tested against bit for
bit.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm


def int_nth_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for integers n >= 0, k >= 1.

    Newton's step from any x >= floor(n^(1/k)) stays at or above it and
    falls while x is above, so the first step that does not fall stops at
    the floor. The seed is one more than the root of n's top bits, shifted
    back: if (r + 1)^k > n >> ks, then ((r + 1) 2^s)^k > n. It is right to
    about half the root's bits, so two or three steps finish."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    if k == 1 or n < 2:
        return n
    if k == 2:
        return isqrt(n)
    s = n.bit_length() // k // 2
    x = (int_nth_root(n >> k * s, k) + 1) << s if s else 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


class IntervalValue:
    """Enclosure [lo, hi] of a nonnegative real, a rational taken as its
    point enclosure."""

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


def outward(lo_num: int, lo_den: int, hi_num: int, hi_den: int, precision: int) -> IntervalValue:
    """The enclosure of [lo_num / lo_den, hi_num / hi_den], 0 <= lo <= hi
    with positive denominators, on the grid 2^-precision: lo floored and hi
    ceiled once, then padded by one step, lo no lower than 0."""
    scale = 1 << precision
    iv = object.__new__(IntervalValue)
    iv.lo = Fraction(max((lo_num << precision) // lo_den - 1, 0), scale)
    iv.hi = Fraction(-(-(hi_num << precision) // hi_den) + 1, scale)
    return iv


def _arctan_inv_sums(q: int, tail_bits: int) -> tuple[int, int, int]:
    """(lo, hi, den): the consecutive partial sums lo / den < hi / den of
    arctan(1/q), for integer q >= 2, that enclose it.

    The series sum_j (-1)^j / ((2j+1) q^(2j+1)) is alternating with strictly
    decreasing terms, so consecutive partial sums enclose the limit. The sums
    up to the first term n >= 1 below 2^-tail_bits, and the one before, are
    integers over den = lcm(1, 3, ..., 2n+1) q^(2n+1). Horner's rule in -q^2
    gives (-1)^n times the first; the other differs by the last term.
    """
    n, qn, q2 = 1, q ** 3, q * q  # qn = q^(2n+1)
    while (2 * n + 1) * qn <= 1 << tail_bits:
        n, qn = n + 1, qn * q2
    odd_lcm = lcm(*range(1, 2 * n + 2, 2))
    num = 0
    for k in range(1, 2 * n + 2, 2):
        num = num * -q2 + odd_lcm // k
    term = odd_lcm // (2 * n + 1)
    lo, hi = (-num, term - num) if n % 2 else (num - term, num)
    return lo, hi, odd_lcm * qn


@lru_cache(maxsize=None)
def pi_interval(precision: int = 128) -> IntervalValue:
    """Enclosure of pi via Machin's formula 16 arctan(1/5) - 4 arctan(1/239):
    16 times the lower bracket of arctan(1/5) less 4 times the upper one of
    arctan(1/239) over the product of their denominators, and the other way
    round."""
    if precision < 8:
        raise ValueError("precision must be at least 8 bits")
    tail = precision + 16
    lo5, hi5, d5 = _arctan_inv_sums(5, tail)
    lo239, hi239, d239 = _arctan_inv_sums(239, tail)
    den = d5 * d239
    return outward(16 * lo5 * d239 - 4 * hi239 * d5, den,
                   16 * hi5 * d239 - 4 * lo239 * d5, den, precision)
