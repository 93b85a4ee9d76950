"""Exact q-analog arithmetic over the rationals.

Every scalar result is a ``fractions.Fraction``; no floating point anywhere.
Gaussian binomials are total over all integer indices via the k-fold product
formula, so negative upper indices (which appear in upper-negation
manipulations) evaluate to exact rationals instead of raising.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache


def choose2(m: int) -> int:
    """m*(m-1)//2 for any integer m (the polynomial extension of C(m,2))."""
    return m * (m - 1) // 2


def q_pow(e: int, q: int) -> Fraction:
    """q**e as an exact rational; e may be negative."""
    if e >= 0:
        return Fraction(q**e)
    return Fraction(1, q ** (-e))


def is_prime_power(q: int) -> bool:
    """Whether ``prime_power_parts`` accepts q (False for q >= 2^32)."""
    try:
        prime_power_parts(q)
    except ValueError:
        return False
    return True


def prime_power_parts(q: int) -> tuple[int, int]:
    """Return (p, e) with q == p**e, p prime; raises if q is not a prime
    power, and refuses q >= 2^32, whose trial division could take 2^16+ steps."""
    if q >= 1 << 32:
        raise ValueError(f"{q} exceeds the prime-power guard 2^32")
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


def gauss_binom_guard(n: int, k: int, q: int, limit: int) -> tuple[bool, str]:
    """Whether [n k]_q <= limit, for 0 <= k <= n and limit < 2^64, and the
    value as message text: ``"= value"``, or ``">= q^e"`` when it is huge.

    [n k]_q >= q^(k(n-k)), so once that bound passes 2^64 the answer is no
    and the k-fold product is never built.
    """
    e = k * (n - k)
    if e * (q.bit_length() - 1) > 64:
        return False, f">= {q}^{e}"
    size = gauss_binom(n, k, q)
    return size <= limit, f"= {size}"


def q_int(n: int, q: int) -> Fraction:
    """q-analog integer [n]_q = (q^n - 1)/(q - 1), rational for n < 0."""
    return (q_pow(n, q) - 1) / (q - 1)


def q_pochhammer(a: int, n: int, q: int) -> Fraction:
    """(q^a; q)_n = prod_{i<n} (1 - q^(a+i)); empty product is 1."""
    if n < 0:
        raise ValueError("q-Pochhammer length must be nonnegative")
    num = den = 1
    for e in range(a, a + n):
        if e >= 0:
            num *= 1 - q**e
        else:  # 1 - q^e = (q^-e - 1) / q^-e
            num *= q**-e - 1
            den *= q**-e
    return Fraction(num, den)


def q_valuation(m: int, q: int) -> int:
    """Index of the lowest nonzero digit of |m| in base q.

    Equivalently the largest j with q^j dividing m.  Zero has no such j and
    raises ValueError.
    """
    if q < 2:
        raise ValueError("base must be at least 2")
    if m == 0:
        raise ValueError("0 has no q-adic valuation")
    m = abs(m)
    v = 0
    while m % q == 0:
        m //= q
        v += 1
    return v
