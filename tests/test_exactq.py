from fractions import Fraction
from math import prod

import pytest

from qsteiner.exactq import (
    choose2,
    gauss_binom,
    gauss_binom_guard,
    is_prime_power,
    prime_power_parts,
    q_int,
    q_pochhammer,
    q_pow,
    q_valuation,
)


def test_gauss_binom_counts_subspaces_of_f2_4():
    # independent oracle: brute-force count of 2-dim row spans of F_2^4
    vectors = [tuple((v >> i) & 1 for i in range(4)) for v in range(1, 16)]
    spans = set()
    for a in vectors:
        for b in vectors:
            if a == b:
                continue
            c = tuple(x ^ y for x, y in zip(a, b))
            spans.add(frozenset({a, b, c}))
    assert gauss_binom(4, 2, 2) == len(spans) == 35


def test_gauss_binom_boundary_indices():
    assert gauss_binom(7, 0, 3) == 1
    assert gauss_binom(7, -1, 3) == 0
    assert gauss_binom(3, 5, 2) == 0


def test_gauss_binom_negative_upper_index():
    assert gauss_binom(-1, 1, 2) == Fraction(-1, 2)
    # [-1 a] = (-1)^a q^(-C(a+1,2))
    for q in (2, 3, 5):
        for a in range(6):
            assert gauss_binom(-1, a, q) == (-1) ** a * q_pow(-choose2(a + 1), q)


def test_pascal_recurrence():
    for q in (2, 3, 4, 5):
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert gauss_binom(n, k, q) == gauss_binom(
                    n - 1, k - 1, q
                ) + q**k * gauss_binom(n - 1, k, q)


def test_symmetry():
    for q in (2, 3, 4, 5):
        for n in range(13):
            for k in range(n + 1):
                assert gauss_binom(n, k, q) == gauss_binom(n, n - k, q)


def test_binom_integral_for_nonnegative_upper():
    for q in (2, 3, 9):
        for n in range(11):
            for k in range(n + 2):
                assert gauss_binom(n, k, q).denominator == 1


def test_upper_negation_image_for_negative_n():
    for q in (2, 3):
        for n in range(-6, 0):
            for k in range(6):
                expected = (
                    (-1) ** k
                    * q_pow(k * n - choose2(k), q)
                    * gauss_binom(k - n - 1, k, q)
                )
                assert gauss_binom(n, k, q) == expected


def test_q_int_values():
    assert q_int(0, 2) == 0
    assert q_int(4, 2) == 15  # 1 + 2 + 4 + 8
    assert q_int(-2, 2) == Fraction(-3, 4)


def test_q_pochhammer_values():
    assert q_pochhammer(5, 0, 2) == 1
    assert q_pochhammer(1, 2, 2) == 3  # (1-2)(1-4)
    for n in range(1, 5):
        assert q_pochhammer(0, n, 7) == 0
    with pytest.raises(ValueError):
        q_pochhammer(1, -1, 2)


def test_q_pochhammer_is_the_product_of_its_factors_on_a_grid():
    for q in (2, 3, 4, 9):
        for a in range(-6, 7):
            for n in range(7):
                want = prod((1 - q_pow(a + i, q) for i in range(n)), start=Fraction(1))
                got = q_pochhammer(a, n, q)
                assert type(got) is Fraction and got == want, (a, n, q)


def test_binom_as_pochhammer_quotient():
    for q in (2, 3, 5):
        for n in range(9):
            for k in range(n + 1):
                quot = q_pochhammer(1, n, q) / (
                    q_pochhammer(1, k, q) * q_pochhammer(1, n - k, q)
                )
                assert gauss_binom(n, k, q) == quot


def test_q_valuation():
    with pytest.raises(ValueError):
        q_valuation(0, 5)  # no float infinity: zero has no valuation
    assert q_valuation(12, 2) == 2  # 1100 in base 2
    assert q_valuation(35, 2) == 0  # 35 = [4 2]_2, constant term 1
    assert q_valuation(-8, 2) == 3
    with pytest.raises(ValueError):
        q_valuation(3, 1)


def test_binomials_have_zero_valuation():
    for q in (2, 3, 4, 5):
        for n in range(11):
            for k in range(n + 1):
                assert q_valuation(int(gauss_binom(n, k, q)), q) == 0


def test_prime_power_recognition():
    assert is_prime_power(2) and is_prime_power(9) and is_prime_power(1024)
    assert not is_prime_power(1) and not is_prime_power(6) and not is_prime_power(0)
    assert prime_power_parts(8) == (2, 3)
    assert prime_power_parts(9) == (3, 2)
    assert prime_power_parts(11) == (11, 1)
    with pytest.raises(ValueError):
        prime_power_parts(12)


def test_prime_power_guard_refuses_before_trial_division():
    # 4294967291 is the largest prime below 2^32, the guard
    assert prime_power_parts(4294967291) == (4294967291, 1)
    assert prime_power_parts(2**31) == (2, 31)
    for q in (2**32, 2**61 - 1, 10**18 + 3):
        with pytest.raises(ValueError, match=f"^{q} exceeds the prime-power guard 2\\^32$"):
            prime_power_parts(q)
        assert not is_prime_power(q)


def test_choose2_is_polynomial_extension():
    for m in range(-6, 7):
        assert choose2(m) == m * (m - 1) // 2
    assert choose2(4) == 6 and choose2(-2) == 3


def test_gauss_binom_guard_agrees_with_the_exact_value():
    for q in (2, 3, 4, 9, 2**19):
        for n in range(30):
            for k in range(n + 1):
                size = gauss_binom(n, k, q)
                for limit in (200, 2000):
                    ok, text = gauss_binom_guard(n, k, q, limit)
                    assert ok == (size <= limit), (n, k, q, limit)
                    if text != f"= {size}":
                        # the lower bound the guard printed instead of the value
                        assert text == f">= {q}^{k * (n - k)}"
                        assert 2**64 < q ** (k * (n - k)) <= size
