import math

import pytest

from cyclopack.cyclotomic import mobius_pairs, phi, prime_factors
from cyclopack.tables import bound_table, bound_table_csv, inverse_phi_max, primorial_row
from oracles import primes_up_to, scanned_inverse_phi_max


def test_phi_values():
    assert phi(12) == 4
    assert phi(1) == 1
    assert phi(30) == 8
    assert phi(2 ** 10) == 2 ** 9
    for m in range(1, 501):
        assert phi(m) == sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


def test_factorization_against_brute_force():
    for m in range(1, 501):
        divisors = [d for d in range(1, m + 1) if m % d == 0]
        primes = [p for p in divisors if p > 1 and all(p % k for k in range(2, p))]
        assert prime_factors(m) == primes, m

        def mu(q):
            ps = [p for p in primes if q % p == 0]
            return (-1) ** len(ps) if q == math.prod(ps) else 0

        expected = sorted((d, mu(m // d)) for d in divisors if mu(m // d))
        assert sorted(mobius_pairs(m)) == expected, m


def test_phi_rejects_nonpositive():
    with pytest.raises(ValueError):
        phi(0)


def test_inverse_phi_max():
    assert inverse_phi_max(2) == 6
    assert inverse_phi_max(4) == 12
    assert inverse_phi_max(8) == 30
    assert inverse_phi_max(16) == 60
    assert inverse_phi_max(3) == 0  # odd values > 1 are never totients
    for g in (1, 2, 4, 6, 8, 10, 12, 16):
        m = inverse_phi_max(g)
        if m:
            assert phi(m) == g
            # maximality within the proven scan bound
            assert all(phi(k) != g for k in range(m + 1, 2 * g * g + 2))


def test_inverse_phi_max_matches_the_scan():
    scanned = scanned_inverse_phi_max(100)
    assert [inverse_phi_max(g) for g in range(1, 101)] == [scanned.get(g, 0)
                                                           for g in range(1, 101)]


def test_bound_table_rows():
    rows = bound_table([2, 4, 8])
    assert [r.m_best for r in rows] == [6, 12, 30]
    for r in rows:
        assert r.cor12_alpha_ok and r.cor12_beta_ok
        assert r.m_best >= 3 * r.g  # power-of-two cases
        assert r.m_best >= 2 * r.g + 2
        assert r.buser_sarnak == 2
        assert r.m_best > 2  # strictly beats the classical baseline


def test_bound_table_without_witness():
    (row,) = bound_table([3])
    assert row.m_best == 0 and row.bound_num == 0
    assert row.cor12_beta_ok  # vacuous: nothing to certify


def test_bound_table_csv_shape():
    text = bound_table_csv(bound_table([2, 4]))
    lines = text.strip().split("\n")
    assert lines[0] == "g,m_best,bound_4gVg,buser_sarnak,cor12_alpha,cor12_beta"
    assert lines[1] == "2,6,6,2,true,true"
    assert lines[2] == "4,12,12,2,true,true"


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(7) == [2, 3, 5, 7]
    assert primes_up_to(30)[-1] == 29


def test_primorial_rows():
    assert (primorial_row(3).m, primorial_row(3).g) == (6, 2)
    assert (primorial_row(5).m, primorial_row(5).g) == (30, 8)
    r7 = primorial_row(7)
    assert (r7.m, r7.g) == (210, 48)
    assert phi(r7.m) == r7.g
    assert r7.bound == "4^g*V_g >= 210"
    assert r7.asymptotic_diag == pytest.approx(
        math.exp(0.5772156649015329) * 48 * math.log(math.log(48)))
    with pytest.raises(ValueError):
        primorial_row(2)
