"""Arithmetic of m from its prime factors, and the derived bound tables.

prime_factors and mobius_pairs factor m; the totient here, and the
cyclotomic polynomial, the traces of powers of zeta (Ramanujan sums) and the
discriminant in the cyclotomic module, are sums and products over them. This
module imports nothing from the package.

For each dimension g the best witness is the largest m with phi(m) = g, giving
the packing bound 4^g V_g >= m; the tables compare it against the classical
baseline 2 (the buser_sarnak column) and record whether the thresholds 3g
(g a power of two) and 2g + 2 are met.
"""
from __future__ import annotations

import math
from collections import namedtuple

EULER_GAMMA = 0.5772156649015329  # diagnostic use only


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


def inverse_phi_max(g: int) -> int:
    """Largest m >= 3 with phi(m) = g, or 0 if none exists.

    The scan bound 2g^2 + 1 is safe because phi(m) >= sqrt(m/2) for all m.
    """
    if g < 1:
        raise ValueError(f"g must be >= 1, got {g}")
    best = 0
    for m in range(3, 2 * g * g + 2):
        if phi(m) == g:
            best = m
    return best


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
