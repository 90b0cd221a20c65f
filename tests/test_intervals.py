"""Enclosures on integers against the Fraction interval reference.

pi_interval, checker._radius_sq and svp.ball_volume compute each endpoint as
one integer floor or ceiling; tests/oracles.py keeps the Fraction interval
arithmetic they replaced (oracles.Interval), and the two must agree bit for
bit.
"""
import json
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from cyclopack import checker, svp
from cyclopack.intervals import IntervalValue, int_nth_root, pi_interval
from oracles import (Interval, arctan_inv_brackets, contains_interval,
                     fraction_arctan_inv_brackets, fraction_ball_volume, fraction_pi_interval,
                     fraction_radius_sq, midpoint, width)

ROOT = Path(__file__).resolve().parent.parent
STORED = sorted([*ROOT.glob("certs/m*.json"), *ROOT.glob("perfbench/reference/m*.json")])
# precisions an enclosure is asked for: the 16-bit floor of the domain, the
# default, J's guard on it, a doubling and the cap
PRECISIONS = (16, 128, 160, 256, 4096)


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


def _is_floor_root(n: int, k: int) -> bool:
    r = int_nth_root(n, k)
    return r ** k <= n < (r + 1) ** k


def test_int_nth_root_seeded_from_top_bits():
    # exact powers and their neighbours, where a seed below the root or a
    # Newton step that stops early would show
    rng = random.Random(35)
    xs = [2, 3, 5, 7, 255, 256, 257, 2 ** 64 - 1, 2 ** 64, 2 ** 2000 - 1, 2 ** 2000]
    xs += [rng.getrandbits(b) | 1 << (b - 1) for b in (9, 33, 100, 333, 1000, 1999, 2000)]
    for k in range(2, 34):
        for x in xs:
            p = x ** k
            for n in (p - 1, p, p + 1):
                assert _is_floor_root(n, k), (x, k, n)
    # every small n, where the seed falls back to a power of two
    for k in range(2, 34):
        for n in range(1 << min(k, 14)):
            assert _is_floor_root(n, k), (n, k)
        for n in range(max((1 << k) - 64, 0), (1 << k) + 64):
            assert _is_floor_root(n, k), (n, k)


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
            assert arctan_inv_brackets(q, tail) == fraction_arctan_inv_brackets(q, tail)


def test_midpoints_refine_within_coarser_enclosures():
    coarse = pi_interval(64)
    fine = pi_interval(256)
    assert midpoint(fine) in coarse


def test_interval_arithmetic_contains():
    a = Interval(Fraction(1, 3), Fraction(1, 2))
    b = Interval(Fraction(0), Fraction(3))
    c = Interval(Fraction(1, 4), Fraction(1, 2))
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
    out = Interval(Fraction(1, 2 ** 20), Fraction(1, 3)).outward(16)
    assert out.lo == 0 and out.hi > Fraction(1, 3)


def test_nth_root_enclosure():
    with mpmath.workprec(400):
        for val, n in ((Fraction(2), 2), (Fraction(10), 3), (Fraction(7, 5), 4)):
            iv = Interval.point(val).nth_root(n, 128)
            true = mpmath.root(as_mpf(val), n)
            assert as_mpf(iv.lo) <= true <= as_mpf(iv.hi)
            assert width(iv) <= Fraction(3, 2 ** 128)
    # roots of interval endpoints stay ordered
    iv = Interval(Fraction(4), Fraction(9)).sqrt(64)
    assert iv.lo <= 2 and 3 <= iv.hi


def test_outward_pads_and_preserves():
    x = Interval(Fraction(1, 3), Fraction(2, 3))
    out = x.outward(32)
    assert out.lo < Fraction(1, 3) and out.hi > Fraction(2, 3)
    assert width(out) - width(x) <= Fraction(4, 2 ** 32)


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        IntervalValue(Fraction(1), Fraction(0))


# -- integer endpoints against the Fraction reference --------------------------------

def _ends(iv):
    return iv.lo, iv.hi


def test_pi_matches_the_fraction_reference():
    # every precision up to 600, then the doublings to the cap and 4240 =
    # 4096 + 16 + 4 * 32, the largest pi that ball_volume asks for
    for p in (*range(8, 601), 1024, 2048, 4096, 4240):
        assert _ends(pi_interval(p)) == _ends(fraction_pi_interval(p)), p


def _bounds() -> list[Fraction]:
    """m - epsilon of every stored certificate, and random rationals."""
    stored = set()
    for path in STORED:
        d = json.loads(path.read_text())
        stored.add(d["m"] - Fraction(d["epsilon"]))
    rng = random.Random(4096)
    extra = {Fraction(rng.randrange(1, 10 ** 6), rng.randrange(1, 10 ** 4)) for _ in range(6)}
    return sorted(stored) + sorted(extra | {Fraction(1, 3), Fraction(10 ** 9 + 7, 3)})


@pytest.mark.parametrize("precision", PRECISIONS)
def test_radius_sq_matches_the_fraction_reference(precision):
    # at the cap, where one root of a 131,072-bit radicand takes about 10 ms
    # on each side, every fourth bound
    bounds = _bounds()
    for g in range(1, 33):
        for bound in bounds if precision < 4096 else bounds[::4]:
            got = checker._radius_sq(g, bound, precision)
            assert _ends(got) == _ends(fraction_radius_sq(g, bound, precision)), (g, bound)


@pytest.mark.parametrize("precision", PRECISIONS)
def test_ball_volume_matches_the_fraction_reference(precision):
    for n in range(2, 65, 2):
        got = svp.ball_volume(n, precision)
        assert _ends(got) == _ends(fraction_ball_volume(n, precision)), n
