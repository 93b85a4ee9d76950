import random
from fractions import Fraction

import pytest

from qsteiner.gfspaces import field, rref
from qsteiner.linalg import ExactMatrix, mat_mul, rank_exact, rank_mod_p, transpose
from qsteiner.steiner import ParamSet, enumerate_steiner, incidence_matrix

LARGE_PRIMES = (1000003, 1000033, 1000037)


def _random_matrix(rng, rows, cols, fractions=False):
    if fractions:
        data = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(cols)]
            for _ in range(rows)
        ]
    else:
        data = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    return ExactMatrix(data)


def test_mat_mul_identity():
    rng = random.Random(0)
    m = _random_matrix(rng, 4, 4, fractions=True)
    assert mat_mul(ExactMatrix.identity(4), m) == m
    assert mat_mul(m, ExactMatrix.identity(4)) == m


def test_mat_mul_one_by_one():
    a = ExactMatrix([[Fraction(2, 3)]])
    b = ExactMatrix([[Fraction(3, 2)]])
    assert mat_mul(a, b) == ExactMatrix([[1]])


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_mul(ExactMatrix.zeros(2, 3), ExactMatrix.zeros(2, 3))


def test_spread_gram_matrix_structure():
    params = ParamSet(t=1, k=2, n=4, q=2)
    u = incidence_matrix(enumerate_steiner(params))
    assert (u.rows, u.cols) == (35, 56)
    gram = mat_mul(u, transpose(u))
    assert {gram.data[i][i] for i in range(35)} == {8}
    off = {gram.data[i][j] for i in range(35) for j in range(35) if i != j}
    assert off == {0, 2}


def test_rank_trivial():
    assert rank_exact(ExactMatrix.zeros(4, 7)) == 0
    assert rank_exact(ExactMatrix.identity(9)) == 9
    assert rank_exact(ExactMatrix([[Fraction(1, 3), Fraction(2, 3)]])) == 1


def test_rank_of_spread_incidence_matrix():
    params = ParamSet(t=1, k=2, n=4, q=2)
    u = incidence_matrix(enumerate_steiner(params))
    assert rank_exact(u) == 21  # = [4 2]_2 - [4 1]_2 + 1
    assert rank_mod_p(u, 1000003) == 21


def test_rank_mod_p_trivial_cases():
    assert rank_mod_p(ExactMatrix.identity(5), 7) == 5
    assert rank_mod_p(ExactMatrix([[2, 4], [1, 2]]), 5) == 1  # proportional rows
    with pytest.raises(ValueError):
        rank_mod_p(ExactMatrix([[Fraction(1, 5)]]), 5)


def test_rank_chain_and_modular_consistency():
    rng = random.Random(7)
    for trial in range(25):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = _random_matrix(rng, rows, cols, fractions=trial % 2 == 0)
        r = rank_exact(m)
        assert r == rank_exact(transpose(m))
        assert r == rank_exact(mat_mul(m, transpose(m)))
        mod_ranks = [rank_mod_p(m, p) for p in LARGE_PRIMES]
        assert all(mr <= r for mr in mod_ranks)
        assert r in mod_ranks


def test_rank_mod_p_small_primes_and_bad_moduli():
    rng = random.Random(11)
    for trial in range(40):
        m = _random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        r = rank_exact(m)
        for p in (2, 3, 5, 7):
            reduced = [[x % p for x in row] for row in m.data]
            mr = rank_mod_p(m, p)
            assert mr == len(rref(reduced, field(p))[0])
            assert mr <= r
    for p in (4, 6, 9):
        with pytest.raises(ValueError):
            rank_mod_p(ExactMatrix.identity(3), p)


def test_rank_with_engineered_low_rank():
    # rank-2 by construction: rows are combinations of two generators
    rng = random.Random(3)
    g1 = [rng.randint(-4, 4) for _ in range(6)]
    g2 = [rng.randint(-4, 4) for _ in range(6)]
    rows = [
        [a * x + b * y for x, y in zip(g1, g2)]
        for a, b in [(1, 0), (0, 1), (2, 3), (-1, 5), (4, -2)]
    ]
    assert rank_exact(ExactMatrix(rows)) == 2


def test_shifted_and_trace():
    m = ExactMatrix([[2, 1], [1, 2]])
    s = m.shifted(2)
    assert s == ExactMatrix([[0, 1], [1, 0]])
    assert m.trace() == 4
    with pytest.raises(ValueError):
        ExactMatrix.zeros(2, 3).trace()
