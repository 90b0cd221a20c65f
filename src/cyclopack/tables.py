"""The bound tables: for each dimension g the best witness is the largest m
with phi(m) = g, giving the packing bound 4^g V_g >= m; the tables compare it
against the classical baseline 2 (the buser_sarnak column) and record whether
the thresholds 3g (g a power of two) and 2g + 2 are met. The arithmetic of m
(prime_factors) comes from the field module; certify reads nothing here.
"""
from __future__ import annotations

import math
from collections import namedtuple

from .cyclotomic import prime_factors

EULER_GAMMA = 0.5772156649015329  # diagnostic use only


def inverse_phi_max(g: int) -> int:
    """Largest m >= 3 with phi(m) = g, or 0 if none exists.

    phi(p^k) = p^(k-1) (p - 1) divides g for each prime power p^k of such an
    m, so its primes are among the primes d + 1 over the divisors d of g.
    One pass over them keeps, for each phi reached so far (a divisor of g),
    the largest product with that phi; each prime extends every entry of the
    pass before it by each power whose phi keeps the product's phi a divisor.
    """
    # the divisors of g are found by trial division up to sqrt(g), 65,536
    # steps at the cap
    if not 1 <= g <= 2 ** 32:
        raise ValueError(f"g must lie in [1, 2^32], got {g}")
    small = [d for d in range(1, math.isqrt(g) + 1) if g % d == 0]
    primes = {q + 1 for d in small for q in (d, g // d) if prime_factors(q + 1) == [q + 1]}
    largest = {1: 1}
    for p in primes:
        for f, m in list(largest.items()):
            pk, fk = p, p - 1
            while g % (f * fk) == 0:
                largest[f * fk] = max(largest.get(f * fk, 0), m * pk)
                pk, fk = pk * p, fk * p
    m = largest.get(g, 0)
    return m if m >= 3 else 0


def _is_power_of_two(g: int) -> bool:
    return g >= 1 and g & (g - 1) == 0


# One table row: the certified bound 4^g V_g >= m_best (m_best = 0 means no
# witness exists for this g). The threshold flags are vacuously true where
# the corresponding statement does not apply.
BoundRow = namedtuple("BoundRow", "g m_best bound_num buser_sarnak cor12_alpha_ok cor12_beta_ok")


def bound_table(g_list) -> list[BoundRow]:
    rows = []
    for g in g_list:
        m_best = inverse_phi_max(g)
        alpha_ok = m_best >= 3 * g if _is_power_of_two(g) and g >= 2 else True
        beta_ok = m_best >= 2 * g + 2 if m_best > 0 else True
        rows.append(BoundRow(g=g, m_best=m_best, bound_num=m_best,
                             buser_sarnak=2, cor12_alpha_ok=alpha_ok,
                             cor12_beta_ok=beta_ok))
    return rows


TABLE_CSV_HEADER = "g,m_best,bound_4gVg,buser_sarnak,cor12_alpha,cor12_beta"


def bound_table_csv(rows) -> str:
    lines = [TABLE_CSV_HEADER]
    for r in rows:
        lines.append(f"{r.g},{r.m_best},{r.bound_num},{r.buser_sarnak},"
                     f"{str(r.cor12_alpha_ok).lower()},{str(r.cor12_beta_ok).lower()}")
    return "\n".join(lines) + "\n"


# asymptotic_diag is e^gamma * g * ln ln g, never certified
PrimorialRow = namedtuple("PrimorialRow", "m g bound asymptotic_diag")


def primorial_row(x: int) -> PrimorialRow:
    """Witness row for m = product of primes <= x, the construction behind
    the infinitely-many-g refinement. m and g grow one prime at a time, so
    an x whose g = phi(m) passes the float range of asymptotic_diag (every
    x >= 743) is refused at that prime, without a scan up to x."""
    if x < 3:
        raise ValueError(f"x must be >= 3, got {x}")
    m = g = 1
    for p in range(2, x + 1):
        if prime_factors(p) != [p]:
            continue
        m, g = m * p, g * (p - 1)
        # at p = 739 g has 1015 bits, so every g let through fits the float
        if g.bit_length() > 1024:
            raise ValueError(f"x = {x}: g = phi(m) has more than 1024 bits, too large for "
                             "the float asymptotic_diag")
    diag = math.exp(EULER_GAMMA) * g * math.log(math.log(g))
    return PrimorialRow(m=m, g=g, bound=f"4^g*V_g >= {m}", asymptotic_diag=diag)
