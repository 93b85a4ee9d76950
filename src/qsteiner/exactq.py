"""Exact q-analog arithmetic over the rationals.

Every scalar result is a ``fractions.Fraction``; no floating point anywhere.
Gaussian binomials are total over all integer indices via the k-fold product
formula, so negative upper indices (which appear in upper-negation
manipulations) evaluate to exact rationals instead of raising.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

# Returned by q_valuation(0, q); compares correctly against any integer.
INFINITE = math.inf


def choose2(m: int) -> int:
    """m*(m-1)//2 for any integer m (the polynomial extension of C(m,2))."""
    return m * (m - 1) // 2


def q_pow(e: int, q: int) -> Fraction:
    """q**e as an exact rational; e may be negative."""
    if e >= 0:
        return Fraction(q**e)
    return Fraction(1, q ** (-e))


def is_prime_power(q: int) -> bool:
    """Trial-factorization prime-power test (meant for q < 2**20)."""
    if q < 2:
        return False
    m = q
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            return m == 1
        p += 1
    return True  # m itself is prime


def prime_power_parts(q: int) -> tuple[int, int]:
    """Return (p, e) with q == p**e, p prime; raises if q is not a prime power."""
    if q >= 2:
        m = q
        p = 2
        while p * p <= m:
            if m % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                if m == 1:
                    return p, e
                break
            p += 1
        else:
            return q, 1
    raise ValueError(f"{q} is not a prime power")


@cache
def gauss_binom(n: int, k: int, q: int) -> Fraction:
    """Gaussian binomial [n k]_q, total for all integer n and k.

    Equals prod_{i<k} (q^(n-i)-1)/(q^(k-i)-1) for k >= 1, 1 for k == 0 and
    0 for k < 0.  Integral whenever n >= 0; rational-valued for n < 0.
    """
    if k < 0:
        return Fraction(0)
    if k == 0:
        return Fraction(1)
    if n >= 0:
        if n < k:
            return Fraction(0)
        num = 1
        den = 1
        for i in range(k):
            num *= q ** (n - i) - 1
            den *= q ** (k - i) - 1
        return Fraction(num, den)
    val = Fraction(1)
    for i in range(k):
        val *= (q_pow(n - i, q) - 1) / (q ** (k - i) - 1)
    return val


def q_int(n: int, q: int) -> Fraction:
    """q-analog integer [n]_q = (q^n - 1)/(q - 1), rational for n < 0."""
    return (q_pow(n, q) - 1) / (q - 1)


def q_pochhammer(a: int, n: int, q: int) -> Fraction:
    """(q^a; q)_n = prod_{i<n} (1 - q^(a+i)); empty product is 1."""
    if n < 0:
        raise ValueError("q-Pochhammer length must be nonnegative")
    val = Fraction(1)
    for i in range(n):
        val *= 1 - q_pow(a + i, q)
    return val


def q_valuation(m: int, q: int) -> int | float:
    """Index of the lowest nonzero digit of |m| in base q; INFINITE for m == 0.

    Equivalently the largest j with q^j dividing m.
    """
    if q < 2:
        raise ValueError("base must be at least 2")
    if m == 0:
        return INFINITE
    m = abs(m)
    v = 0
    while m % q == 0:
        m //= q
        v += 1
    return v
