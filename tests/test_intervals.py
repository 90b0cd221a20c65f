from fractions import Fraction

import mpmath
import pytest

from cyclopack.intervals import IntervalValue, _arctan_inv_brackets, int_nth_root, pi_interval
from oracles import contains_interval, fraction_arctan_inv_brackets, midpoint, width


def as_mpf(x: Fraction, prec=400):
    with mpmath.workprec(prec):
        return mpmath.mpf(x.numerator) / x.denominator


def test_int_nth_root():
    assert int_nth_root(0, 3) == 0
    assert int_nth_root(26, 3) == 2
    assert int_nth_root(27, 3) == 3
    assert int_nth_root(2 ** 90 - 1, 5) == 2 ** 18 - 1
    for n in (2, 3, 7):
        for v in (1, 5, 10 ** 12, 10 ** 12 + 7):
            r = int_nth_root(v, n)
            assert r ** n <= v < (r + 1) ** n


def test_pi_enclosure_and_nesting():
    with mpmath.workprec(600):
        pi = +mpmath.pi
        prev = None
        for bits in (32, 64, 128, 256, 512):
            iv = pi_interval(bits)
            assert as_mpf(iv.lo, 600) < pi < as_mpf(iv.hi, 600)
            assert width(iv) < Fraction(1, 2 ** (bits - 3))
            if prev is not None:
                assert contains_interval(prev, iv)
                assert width(iv) < width(prev)
            prev = iv


def test_arctan_brackets_match_the_term_by_term_sums():
    # every tail up to 600 bits (pi_interval asks for precision + 16), then a
    # spread up to 4400; the sums, not just the enclosure, must be the same
    for q in (5, 239):
        for tail in (*range(24, 600), *range(600, 4401, 149)):
            assert _arctan_inv_brackets(q, tail) == fraction_arctan_inv_brackets(q, tail)


def test_midpoints_refine_within_coarser_enclosures():
    coarse = pi_interval(64)
    fine = pi_interval(256)
    assert midpoint(fine) in coarse


def test_interval_arithmetic_contains():
    a = IntervalValue(Fraction(1, 3), Fraction(1, 2))
    b = IntervalValue(Fraction(0), Fraction(3))
    c = IntervalValue(Fraction(1, 4), Fraction(1, 2))
    for x in (Fraction(1, 3), Fraction(2, 5), Fraction(1, 2)):
        for y in (Fraction(0), Fraction(1, 7), Fraction(2), Fraction(3)):
            assert x + y in a + b
            assert x * y in a * b
            assert x + y in a + y and x * y in a * y
        for z in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)):
            assert x / z in a / c
            assert x / z in a / z
        for k in (0, 1, 3):
            assert x ** k in a ** k
    assert (b ** 2).lo == 0 and (b ** 2).hi == 9
    with pytest.raises(ZeroDivisionError):
        a / b
    with pytest.raises(ZeroDivisionError):
        a / 0


def test_negative_lo_rejected():
    for lo, hi in ((-1, 2), (Fraction(-1, 2 ** 64), 0), (-3, -2)):
        with pytest.raises(ValueError):
            IntervalValue(lo, hi)
    with pytest.raises(ValueError):
        IntervalValue.point(Fraction(-1, 3))
    # rounding outward keeps the enclosure of a nonnegative real nonnegative
    out = IntervalValue(Fraction(1, 2 ** 20), Fraction(1, 3)).outward(16)
    assert out.lo == 0 and out.hi > Fraction(1, 3)


def test_nth_root_enclosure():
    with mpmath.workprec(400):
        for val, n in ((Fraction(2), 2), (Fraction(10), 3), (Fraction(7, 5), 4)):
            iv = IntervalValue.point(val).nth_root(n, 128)
            true = mpmath.root(as_mpf(val), n)
            assert as_mpf(iv.lo) <= true <= as_mpf(iv.hi)
            assert width(iv) <= Fraction(3, 2 ** 128)
    # roots of interval endpoints stay ordered
    iv = IntervalValue(Fraction(4), Fraction(9)).sqrt(64)
    assert iv.lo <= 2 and 3 <= iv.hi


def test_outward_pads_and_preserves():
    x = IntervalValue(Fraction(1, 3), Fraction(2, 3))
    out = x.outward(32)
    assert out.lo < Fraction(1, 3) and out.hi > Fraction(2, 3)
    assert width(out) - width(x) <= Fraction(4, 2 ** 32)


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        IntervalValue(Fraction(1), Fraction(0))
