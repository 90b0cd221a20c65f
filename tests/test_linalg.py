import random
from fractions import Fraction

import pytest

from cyclopack import linalg
from oracles import fraction_determinant, fraction_solve, fractions, integer_matrix, mat_mul
from test_svp import twisted_lattices


def random_system(rng, n=None):
    """A random rational n x n system, n <= 9 unless given, with many zero
    entries (so that pivots need row swaps), and about one in four
    singular."""
    n = n or rng.randint(1, 9)

    def entry():
        return Fraction(0) if rng.random() < 0.35 else Fraction(rng.randint(-9, 9),
                                                               rng.randint(1, 6))
    a = [[entry() for _ in range(n)] for _ in range(n)]
    if n > 1 and rng.random() < 0.25:
        i, j = rng.sample(range(n), 2)
        a[i] = [rng.randint(-2, 2) * x for x in a[j]]
    return a, [entry() for _ in range(n)]


def determinant(a) -> Fraction:
    """linalg.determinant of a Fraction matrix, through its integer rows
    over one denominator."""
    rows, den = integer_matrix(a)
    return Fraction(linalg.determinant(rows), den ** len(rows))


def solve(a, b):
    """linalg.solve of a Fraction system, through the integer rows of
    [A | b] over one denominator; its denominator is +-det."""
    rows, _ = integer_matrix([[*row, c] for row, c in zip(a, b)])
    a_int = [r[:-1] for r in rows]
    sol = linalg.solve(a_int, [r[-1] for r in rows])
    if sol is None:
        return None
    nums, d = sol
    assert abs(d) == abs(linalg.determinant(a_int)) and all(type(x) is int for x in nums)
    return [Fraction(x, d) for x in nums]


def test_elimination_matches_fraction_reference():
    rng = random.Random(61)
    singular = swapped = 0
    for _ in range(1000):
        a, b = random_system(rng)
        det = fraction_determinant(a)
        assert determinant(a) == det
        assert solve(a, b) == fraction_solve(a, b)
        singular += det == 0
        swapped += a[0][0] == 0 and det != 0
    assert singular > 100 and swapped > 100


def lattice_systems(rng):
    """Systems at lattice size: random ones with n = 10..20, each also made
    singular by setting its last row to the sum of the first two, and the
    skew and gram rows of the twisted lattices at m = 11, 22 (2g = 20) and 30,
    each with a random right-hand side."""
    for n in range(10, 21):
        a, b = random_system(rng, n)
        yield a, b
        yield a[:-1] + [[x + y for x, y in zip(a[0], a[1])]], b
    for _, lat in twisted_lattices():
        for rows, den in (lat.skew, lat.gram):
            yield fractions(rows, den), [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                         for _ in rows]


def test_elimination_at_lattice_size():
    rng = random.Random(67)
    singular = 0
    for a, b in lattice_systems(rng):
        det = fraction_determinant(a)
        assert determinant(a) == det
        assert solve(a, b) == fraction_solve(a, b)
        check_end_state(integer_matrix(a)[0], [[rng.randint(-5, 5) for _ in range(3)]
                                                      for _ in a])
        singular += det == 0
    assert singular >= 11


def check_end_state(ai, b):
    # [A | B] ends as [d I | d A^-1 B] with d = +-det A
    n = len(ai)
    rows = [ra + rb for ra, rb in zip(ai, b)]
    det = linalg.gauss_jordan(rows, n)
    assert det == fraction_determinant(ai)
    if det == 0:
        return
    d = rows[0][0]
    assert d in (det, -det)
    assert [r[:n] for r in rows] == [[d * (i == j) for j in range(n)] for i in range(n)]
    x = [[Fraction(c, d) for c in r[n:]] for r in rows]
    assert mat_mul(ai, x) == b


def test_gauss_jordan_end_state():
    rng = random.Random(63)
    for _ in range(200):
        a, _ = random_system(rng)
        b = [[rng.randint(-5, 5) for _ in range(3)] for _ in a]
        check_end_state(integer_matrix(a)[0], b)


def test_determinant_runs_the_elimination_alone(monkeypatch):
    # only solve back-substitutes; a determinant stops after the elimination
    def no_back_substitution(rows, n):
        raise AssertionError("back-substitution in a determinant")
    monkeypatch.setattr(linalg, "gauss_jordan", no_back_substitution)
    rng = random.Random(64)
    for _ in range(50):
        a, _ = random_system(rng)
        ai = integer_matrix(a)[0]
        assert linalg.determinant(ai) == fraction_determinant(ai)


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(3), True])
def test_determinant_and_solve_take_only_ints(bad):
    # the elimination floor-divides, which on a Fraction entry would give a
    # wrong result without an error; a bool is refused with it
    with pytest.raises(TypeError):
        linalg.determinant([[2, 1], [1, bad]])
    with pytest.raises(TypeError):
        linalg.solve([[2, 1], [1, bad]], [1, 0])
    with pytest.raises(TypeError):
        linalg.solve([[2, 1], [1, 3]], [1, bad])


def test_integer_matrix():
    rows, den = integer_matrix([[Fraction(1, 2), 3], [Fraction(-5, 6), 0]])
    assert den == 6
    assert rows == [[3, 18], [-5, 0]]
    assert integer_matrix([[1, 2]]) == ([[1, 2]], 1)
