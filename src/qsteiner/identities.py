"""Exact both-sides evaluation of the q-series identities behind the spectrum.

Each ``check_*`` function evaluates the two sides of one identity
separately, sharing no intermediate values between sides, and returns an
IdentityReport carrying both exact rationals.  A report is never "close":
``equal`` is exact Fraction equality, and a side that is not an int or a
Fraction (a float, a bool) raises TypeError.

The sums are accumulated in integers, from per-q tables (``_tables``) that
hold each Gaussian binomial as its (numerator, denominator) pair of ints,
the swapped pair for a binomial in a denominator, and each power of q as a
pair, all read from ``gauss_binom`` on first use.  A term is multiplied out
of these pairs in place, unreduced, and added to its side's running pair:
numerators add when the denominators agree and cross-multiply otherwise.
So each side is normalised by one gcd, when its single Fraction is built at
the end.  One kernel, ``_alternating_sum``, carries all six alternating
s-sums of the spectrum families: both sides of the shifted transform and of
its diagonal, and the inner sums of the double and triple sums.  Its terms
hold [b s]^2 q^(s(s-2b-1)); a left side's [m+s s]^2 is that term at
b = -m-1, since upper negation gives [m+s s]^2 = q^(s(s+2m+1)) [-m-1 s]^2.
``tests/oracles.py`` keeps every summed family in its literal
term-by-term form, and a test checks each sweep case of those against it.

Parameter tuples that violate an identity's validity range (a vanishing
denominator binomial, a non-terminating series) raise PreconditionError;
the grid sweep records those as skips, not failures.
"""

from __future__ import annotations

import marshal
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable

from .exactq import (
    choose2,
    gauss_binom,
    q_pochhammer,
    q_pow,
)


class PreconditionError(ValueError):
    """A parameter tuple outside an identity's validity range."""


class NonTerminatingSeries(PreconditionError):
    pass


class VanishingDenominator(PreconditionError):
    pass


def _require_exact(**values) -> None:
    """Raise TypeError unless every value is exactly an int or a Fraction.

    float, bool (an int subclass) and every other type are refused, so no
    inexact value reaches an identity or a comparison.
    """
    for name, v in values.items():
        if type(v) not in (int, Fraction):
            raise TypeError(f"{name} must be an int or a Fraction, got {type(v).__name__}")


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of one identity as exact rationals; an int side is stored
    as the equal Fraction, and any other type raises TypeError."""

    identity_name: str
    parameters: dict[str, int | str]
    lhs: Fraction
    rhs: Fraction

    def __post_init__(self) -> None:
        if type(self.lhs) is Fraction is type(self.rhs):
            return
        _require_exact(lhs=self.lhs, rhs=self.rhs)
        for side in ("lhs", "rhs"):
            if type(getattr(self, side)) is int:
                object.__setattr__(self, side, Fraction(getattr(self, side)))

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class SkipRecord:
    identity_name: str
    parameters: dict[str, int | str]
    reason: str


class _Table(dict):
    """A dict that fills a missing key from ``make(key)`` on first use."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


@lru_cache(maxsize=1)  # the sweep takes one q at a time; older tables only hold memory
def _tables(q: int) -> tuple[_Table, _Table, _Table]:
    """The integer pairs that every sum is built from, for one q.

    ``binom[n, k]`` is [n k]_q as its (numerator, denominator) pair and
    ``inv[n, k]`` the swapped pair, for a binomial in a denominator: it
    raises VanishingDenominator when [n k]_q = 0.  ``power[e]`` is q^e as a
    pair, for any integer e.
    """
    def binom(nk):
        v = gauss_binom(*nk, q)
        return v.numerator, v.denominator

    def inverse(nk):
        num, den = binoms[nk]
        if not num:
            raise VanishingDenominator(f"[{nk[0]} {nk[1]}]_{q} = 0 in a denominator")
        return den, num

    binoms = _Table(binom)
    return binoms, _Table(inverse), _Table(lambda e: (q**e, 1) if e >= 0 else (1, q**-e))


# ---------------------------------------------------------------------------
# terminating 3phi2 series and its transformation
# ---------------------------------------------------------------------------

def eval_3phi2(upper: tuple[int, int, int], lower: tuple[int, int], q: int) -> Fraction:
    """Terminating basic hypergeometric series 3phi2 at the argument q.

    Parameters are exponents: ``upper=(a1,a2,a3)`` stands for the numerator
    parameters q^a1, q^a2, q^a3 and ``lower`` for the two denominator
    parameters.  At least one upper exponent must be <= 0 so the series
    terminates; a lower parameter whose Pochhammer vanishes inside the
    truncation range is rejected.
    """
    nonpos = [-e for e in upper if e <= 0]
    if not nonpos:
        raise NonTerminatingSeries(f"no nonpositive upper exponent in {upper}")
    m = min(nonpos)
    for e in lower:
        if e <= 0 and -e < m:
            raise VanishingDenominator(
                f"lower parameter q^{e} vanishes before term {m}"
            )
    # term ell+1 is term ell times q prod_upper (1 - q^(e+ell)) over
    # prod_lower (1 - q^(e+ell)) and (1 - q^(ell+1)), with 1 - a/b = (b-a)/b
    power = _tables(q)[2]
    num = den = total = total_den = 1
    for ell in range(m):
        num *= q
        for e in upper:
            a, b = power[e + ell]
            num, den = num * (b - a), den * b
        for e in (*lower, 1):
            a, b = power[e + ell]
            num, den = num * b, den * (b - a)
        total, total_den = ((total + num, den) if den == total_den
                            else (total * den + num * total_den, total_den * den))
    return Fraction(total, total_den)


def check_3phi2_transformation(n: int, a: int, b: int, c: int, d: int,
                               q: int) -> IdentityReport:
    """Three-term transformation of a 3phi2 terminating in q^-n with z = q."""
    if n < 0:
        raise PreconditionError("truncation order must be nonnegative")
    params = {"n": n, "a": a, "b": b, "c": c, "d": d, "q": q}
    lhs = eval_3phi2((-n, a, b), (c, d), q)
    den = q_pochhammer(d, n, q)
    if den == 0:
        raise VanishingDenominator(f"(q^{d};q)_{n} = 0 in the prefactor")
    prefactor = q_pochhammer(c + d - a - b, n, q) / den * q_pow(n * (a + b - c), q)
    rhs = prefactor * eval_3phi2((-n, c - a, c - b), (c, c + d - a - b), q)
    return IdentityReport("transformation_3phi2", params, lhs, rhs)


# ---------------------------------------------------------------------------
# Pochhammer / Gaussian binomial conversion suite
# ---------------------------------------------------------------------------

def check_pochhammer_suite(n: int, k: int, q: int) -> list[IdentityReport]:
    """The binomial/Pochhammer conversion identities at one (n, k).

    Emits one report per identity whose stated validity covers (n, k);
    requires n, k >= 0, with the 0 <= k <= n cases adding the two identities
    that need it.  Upper negation for negative n has its own entry in the
    sweep since it is the only member that is total in n.
    """
    if n < 0 or k < 0:
        raise PreconditionError("suite needs n, k >= 0")
    params = {"n": n, "k": k, "q": q}
    reports = []
    if k <= n:
        reports.append(
            IdentityReport(
                "binom_from_pochhammer",
                params,
                gauss_binom(n, k, q),
                q_pochhammer(1, n, q)
                / (q_pochhammer(1, k, q) * q_pochhammer(1, n - k, q)),
            )
        )
    reports.append(
        IdentityReport(
            "binom_shifted_pochhammer",
            params,
            gauss_binom(n + k, n, q),
            q_pochhammer(k + 1, n, q) / q_pochhammer(1, n, q),
        )
    )
    reports.append(
        IdentityReport(
            "binom_inverse_base_pochhammer",
            params,
            gauss_binom(n, k, q),
            q_pochhammer(-n, k, q)
            / q_pochhammer(1, k, q)
            * (-1) ** k
            * q_pow(k * n - choose2(k), q),
        )
    )
    if k <= n:
        den = q_pochhammer(-n, k, q)
        if den == 0:
            raise VanishingDenominator(f"(q^-{n};q)_{k} = 0")
        reports.append(
            IdentityReport(
                "pochhammer_difference",
                params,
                q_pochhammer(1, n - k, q),
                q_pochhammer(1, n, q) / den * (-1) ** k * q_pow(choose2(k) - n * k, q),
            )
        )
    reports.append(
        IdentityReport(
            "pochhammer_concatenation",
            params,
            q_pochhammer(1, n + k, q),
            q_pochhammer(1, n, q) * q_pochhammer(n + 1, k, q),
        )
    )
    reports.append(check_upper_negation(n, k, q))
    return reports


def check_upper_negation(n: int, k: int, q: int) -> IdentityReport:
    """Upper negation on its own; valid for every integer n and k >= 0."""
    if k < 0:
        raise PreconditionError("k must be nonnegative")
    lhs = gauss_binom(n, k, q)
    rhs = (-1) ** k * q_pow(k * n - choose2(k), q) * gauss_binom(k - n - 1, k, q)
    return IdentityReport("upper_negation", {"n": n, "k": k, "q": q}, lhs, rhs)


def check_q_binomial_theorem(n: int, x: Fraction, y: Fraction,
                             q: int) -> IdentityReport:
    """sum_k [n k] q^C(k,2) x^k y^(n-k) against prod_i (x q^i + y)."""
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    _require_exact(x=x, y=y)
    x = Fraction(x)
    y = Fraction(y)
    lhs = sum(gauss_binom(n, k, q) * q_pow(choose2(k), q) * x**k * y ** (n - k)
              for k in range(n + 1))
    rhs = Fraction(1)
    for i in range(n):
        rhs *= x * q**i + y
    params = {
        "n": n,
        "x": f"{x.numerator}/{x.denominator}",
        "y": f"{y.numerator}/{y.denominator}",
        "q": q,
    }
    return IdentityReport("q_binomial_theorem", params, lhs, rhs)


# ---------------------------------------------------------------------------
# binomial-product expansions
# ---------------------------------------------------------------------------

def check_product_expansion(x: int, y: int, h: int, p: int,
                            q: int) -> list[IdentityReport]:
    """[x h][y-x p-h] as two alternating sums over [v h][y-v p-v][x v].

    The two displayed forms differ only in how the q-exponent is written;
    both are checked against the same product.
    """
    if not 0 <= h <= p:
        raise PreconditionError("need 0 <= h <= p")
    params = {"x": x, "y": y, "h": h, "p": p, "q": q}
    lhs = gauss_binom(x, h, q) * gauss_binom(y - x, p - h, q)
    binom, _, power = _tables(q)
    reports = []
    for name, e0, e1 in (("descending", -(p - h) * (x - h), 0),
                         ("ascending", 0, y - x - p + h + 1)):
        # term v has q-exponent e0 + C(v-h) + (v-h) e1
        num, den = 0, 1
        for v in range(h, p + 1):
            (a, b), (c, d), (e, f) = binom[v, h], binom[y - v, p - v], binom[x, v]
            qn, qd = power[e0 + choose2(v - h) + (v - h) * e1]
            a, b = (-1) ** (v - h) * a * c * e * qn, b * d * f * qd
            num, den = (num + a, den) if b == den else (num * b + a * den, den * b)
        reports.append(IdentityReport(f"product_expansion_{name}", params, lhs,
                                      Fraction(num, den)))
    return reports


def check_alternating_column_sum(x: int, a: int, q: int) -> IdentityReport:
    """sum_v (-1)^v [x v] q^C(v,2) for v <= a against q^(xa) [a-x a]."""
    if a < 0:
        raise PreconditionError("a must be nonnegative")
    lhs = sum((-1) ** v * q_pow(choose2(v), q) * gauss_binom(x, v, q) for v in range(a + 1))
    rhs = q_pow(x * a, q) * gauss_binom(a - x, a, q)
    return IdentityReport("alternating_column_sum", {"x": x, "a": a, "q": q}, lhs, rhs)


# ---------------------------------------------------------------------------
# the sum transformations feeding the Gram spectrum derivation
# ---------------------------------------------------------------------------

def _alternating_sum(q: int, a: int, u: int, b: int, c: int) -> tuple[int, int]:
    """The module's one s-sum, as its unreduced (numerator, denominator):
    sum_{s=0..u} (-1)^s [a u-s][b s]^2 / [c+s s] q^(C(u-s) + s(s-2b-1))."""
    binom, inv, power = _tables(q)
    num, den = 0, 1
    for s in range(u + 1):
        (e, f), (g, h), (x, y) = binom[a, u - s], binom[b, s], inv[c + s, s]
        qn, qd = power[choose2(u - s) + s * (s - 2 * b - 1)]
        e, f = (-1) ** s * e * g * g * x * qn, f * h * h * y * qd
        num, den = (num + e, den) if f == den else (num * f + e * den, den * f)
    return num, den


def check_shifted_sum_transform(n: int, r: int, k: int, u: int, i: int,
                                q: int) -> IdentityReport:
    """Equality of two alternating single sums with shifted top arguments."""
    if r > n + 1:
        raise PreconditionError("need r <= n + 1")
    if u < 0:
        raise PreconditionError("u must be nonnegative")
    params = {"n": n, "r": r, "k": k, "u": u, "i": i, "q": q}
    lhs = Fraction(*_alternating_sum(q, n - r + 1, u, i - k - 1, r - i))
    a, b = _alternating_sum(q, n - 2 * k + i, u, k - r, r - i)
    c, d = _tables(q)[2][u * (2 * k - i - r + 1)]
    return IdentityReport("shifted_sum_transform", params, lhs, Fraction(a * c, b * d))


def check_shifted_sum_transform_diagonal(n: int, r: int, k: int, i: int,
                                         q: int) -> IdentityReport:
    """The diagonal (u = i) variant with the denominators rewritten."""
    if r > n + 1:
        raise PreconditionError("need r <= n + 1")
    if i < 0:
        raise PreconditionError("i must be nonnegative")
    params = {"n": n, "r": r, "k": k, "i": i, "q": q}
    binom, _, power = _tables(q)
    # the left side first, so that its vanishing denominator is the one named
    (a, b), (c, d) = _alternating_sum(q, r, i, i - k - 1, n - r - i + 1), binom[n - r + 1, i]
    lhs = Fraction(a * c, b * d)
    (a, b), (c, d) = _alternating_sum(q, r, i, k - r, n - 2 * k), binom[n - 2 * k + i, i]
    e, f = power[i * (2 * k - r - i + 1)]
    return IdentityReport("shifted_sum_transform_diagonal", params, lhs,
                          Fraction(a * c * e, b * d * f))


def check_double_sum_reduction(n: int, r: int, k: int, t: int,
                               q: int) -> IdentityReport:
    """Collapse of the double alternating sum to [r t][n-r+1 t]/[k t]."""
    if t < 0:
        raise PreconditionError("t must be nonnegative")
    if r > n + 1:
        raise PreconditionError("need r <= n + 1")
    params = {"n": n, "r": r, "k": k, "t": t, "q": q}
    binom, inv, power = _tables(q)
    num, den = 0, 1
    for i in range(t + 1):
        (a, b), (c, d), (e, f) = binom[n - 2 * k + i, i], binom[k - i, t - i], inv[k, i]
        g, h = _alternating_sum(q, r, i, k - r, n - 2 * k)
        qn, qd = power[i * (2 * k - t - r + 1) - choose2(i)]
        a, b = a * c * e * g * qn, b * d * f * h * qd
        num, den = (num + a, den) if b == den else (num * b + a * den, den * b)
    (a, b), (c, d), (e, f) = binom[r, t], binom[n - r + 1, t], inv[k, t]
    return IdentityReport("double_sum_reduction", params, Fraction(num, den),
                          Fraction(a * c * e, b * d * f))


def _triple_sum(n: int, k: int, r: int, t: int, q: int, e0: int,
                with_ratio: bool) -> Fraction:
    """The triple alternating sum over i, j, s, each term times q^e0;
    with_ratio adds the [n-i-j t-i-j]/[k-i-j t-i-j] factor.  The s-sum is
    the same for every j."""
    binom, inv, power = _tables(q)
    num, den = 0, 1
    for i in range(t + 1):
        (a, b), (c, d) = binom[n - 2 * k + i, i], inv[k, i]
        e, f = _alternating_sum(q, r, i, k - r, n - 2 * k)
        ni, di = (-1) ** i * a * c * e, b * d * f
        ei = e0 - (k - i) ** 2 + choose2(r - i) + k * (k - r) - choose2(i)
        for j in range(t - i + 1):
            (a, b), (qn, qd) = binom[k - i, j], power[ei + choose2(j)]
            g, h = (-1) ** j * ni * a * qn, di * b * qd
            if with_ratio:
                (a, b), (c, d) = binom[n - i - j, t - i - j], inv[k - i - j, t - i - j]
                g, h = g * a * c, h * b * d
            num, den = (num + g, den) if h == den else (num * h + g * den, den * h)
    return Fraction(num, den)


def check_triple_sum_closed_form(n: int, k: int, r: int, t: int,
                                 q: int) -> IdentityReport:
    """Triple alternating sum against its closed form in [r-1 t][n-r t]/[k t]."""
    if t < 0:
        raise PreconditionError("t must be nonnegative")
    if r > n + 1:
        raise PreconditionError("need r <= n + 1")
    params = {"n": n, "k": k, "r": r, "t": t, "q": q}
    lhs = _triple_sum(n, k, r, t, q, 0, with_ratio=True)
    binom, inv, power = _tables(q)
    (a, b), (c, d), (e, f) = binom[r - 1, t], binom[n - r, t], inv[k, t]
    qn, qd = power[choose2(r) - k * r + choose2(t + 1)]
    rhs = Fraction((-1) ** t * a * c * e * qn, b * d * f * qd)
    return IdentityReport("triple_sum_closed_form", params, lhs, rhs)


def check_triple_sum_weighted_form(n: int, k: int, r: int, t: int,
                                   q: int) -> IdentityReport:
    """Weighted single sum with coefficients c_m against the bare triple sum:
    the terms (-1)^m c_m [r-1 m][n-r m]/[k m], with c_t = q^C(t+1,2) and
    c_m = q^(C(m+1,2)+n-m) [k-n]/[k-m] for m < t."""
    if t < 0:
        raise PreconditionError("t must be nonnegative")
    if r > n + 1:
        raise PreconditionError("need r <= n + 1")
    params = {"n": n, "k": k, "r": r, "t": t, "q": q}
    binom, inv, power = _tables(q)
    num, den = 0, 1
    for m in range(t + 1):
        if m == t:
            g, h, qn, qd = 1, 1, *power[choose2(t + 1)]
        elif k == m:
            raise VanishingDenominator(f"[{k - m}]_{q} = 0 in c_{m}")
        else:  # [j]_q = [j 1]_q
            (a, b), (c, d) = binom[k - n, 1], inv[k - m, 1]
            g, h, qn, qd = a * c, b * d, *power[choose2(m + 1) + n - m]
        (a, b), (c, d), (e, f) = binom[r - 1, m], binom[n - r, m], inv[k, m]
        a, b = (-1) ** m * g * a * c * e * qn, h * b * d * f * qd
        num, den = (num + a, den) if b == den else (num * b + a * den, den * b)
    lhs = Fraction(num, den)
    # the outer q^(kr - C(r,2)) is folded into every term's exponent
    rhs = _triple_sum(n, k, r, t, q, k * r - choose2(r), with_ratio=False)
    return IdentityReport("triple_sum_weighted_form", params, lhs, rhs)


def kernel_sum(n: int, k: int, t: int, r: int, q: int) -> Fraction:
    """The alternating sum whose vanishing kills the small Gram eigenvalues."""
    binom, _, power = _tables(q)
    num, den = 0, 1
    for i in range(t):
        (a, b), (c, d) = binom[k - i - 1, r - i - 1], binom[n - r, i]
        qn, qd = power[choose2(i)]
        a, b = (-1) ** i * a * c * qn, b * d * qd
        num, den = (num + a, den) if b == den else (num * b + a * den, den * b)
    return Fraction(num, den)


def check_eigenvalue_kernel_sum(n: int, k: int, t: int, r: int,
                                q: int) -> IdentityReport:
    """kernel_sum against (-1)^(r-1) q^(kr-k-C(r,2)) [n-k-1 r-1].

    Equality is expected exactly for 1 <= r <= t; the report carries both
    values outside that window too, where they genuinely differ.
    """
    if r < 1:
        raise PreconditionError("r must be at least 1")
    params = {"n": n, "k": k, "t": t, "r": r, "q": q}
    lhs = kernel_sum(n, k, t, r, q)
    rhs = (
        (-1) ** (r - 1)
        * q_pow(k * r - k - choose2(r), q)
        * gauss_binom(n - k - 1, r - 1, q)
    )
    return IdentityReport("eigenvalue_kernel_sum", params, lhs, rhs)


# ---------------------------------------------------------------------------
# grid sweep
# ---------------------------------------------------------------------------

DEFAULT_SWEEP_QS = (2, 3, 4, 5, 7, 8, 9)

_THEOREM_XY = (
    (Fraction(1), Fraction(1)),
    (Fraction(2), Fraction(1)),
    (Fraction(1), Fraction(3)),
    (Fraction(-1), Fraction(1)),
    (Fraction(1, 2), Fraction(3)),
)


@dataclass
class SweepSummary:
    checked: int = 0
    failed: int = 0
    skipped: int = 0
    failures: list[IdentityReport] = field(default_factory=list)
    skip_counts: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _sweep_cases(qs: Iterable[int], max_n: int):
    """(skip name, check function, keyword arguments) for every grid point,
    in sweep order.

    The check functions are read from the module globals as the cases are
    generated, so a check rebound before the sweep (a profiler, a test
    double) runs in the caller and every worker; what it records in a
    worker stays there.
    """
    small = min(4, max_n)
    for q in qs:
        for n in range(max_n + 1):
            for k in range(n + 1):
                yield ("pochhammer_suite", check_pochhammer_suite,
                       {"n": n, "k": k, "q": q})
        for n in range(-4, 0):
            for k in range(5):
                yield "upper_negation", check_upper_negation, {"n": n, "k": k, "q": q}
        for n in range(max_n + 1):
            for x, y in _THEOREM_XY:
                yield ("q_binomial_theorem", check_q_binomial_theorem,
                       {"n": n, "x": x, "y": y, "q": q})
        for n in range(small + 1):
            for a in range(1, 5):
                for b in range(1, 5):
                    for c in range(1, 5):
                        for d in range(1, 5):
                            yield ("transformation_3phi2", check_3phi2_transformation,
                                   {"n": n, "a": a, "b": b, "c": c, "d": d, "q": q})
        for x in range(-2, max_n + 1):
            for y in range(-2, max_n + 1):
                for p in range(4):
                    for h in range(p + 1):
                        yield ("product_expansion", check_product_expansion,
                               {"x": x, "y": y, "h": h, "p": p, "q": q})
        for x in range(-3, max_n + 1):
            for a in range(5):
                yield ("alternating_column_sum", check_alternating_column_sum,
                       {"x": x, "a": a, "q": q})
        for n in range(max_n + 1):
            for k in range(n + 1):
                for r in range(n + 2):
                    for u in range(5):
                        for i in range(5):
                            yield ("shifted_sum_transform", check_shifted_sum_transform,
                                   {"n": n, "r": r, "k": k, "u": u, "i": i, "q": q})
                    for i in range(5):
                        yield ("shifted_sum_transform_diagonal",
                               check_shifted_sum_transform_diagonal,
                               {"n": n, "r": r, "k": k, "i": i, "q": q})
                    for t in range(5):
                        yield ("double_sum_reduction", check_double_sum_reduction,
                               {"n": n, "r": r, "k": k, "t": t, "q": q})
                        yield ("triple_sum_closed_form", check_triple_sum_closed_form,
                               {"n": n, "k": k, "r": r, "t": t, "q": q})
                        yield ("triple_sum_weighted_form",
                               check_triple_sum_weighted_form,
                               {"n": n, "k": k, "r": r, "t": t, "q": q})
        for n in range(max_n + 1):
            for k in range(1, n // 2 + 1):
                for t in range(1, k):
                    for r in range(1, t + 1):
                        yield ("eigenvalue_kernel_sum", check_eigenvalue_kernel_sum,
                               {"n": n, "k": k, "t": t, "r": r, "q": q})


def run_identity_sweep(
    qs: Iterable[int] = DEFAULT_SWEEP_QS,
    max_n: int = 10,
    on_report: Callable[[IdentityReport], None] | None = None,
    on_skip: Callable[[SkipRecord], None] | None = None,
) -> SweepSummary:
    """Evaluate every identity over the verification grid.

    All emitted reports are expected equal; the kernel-sum identity is only
    swept over its validity window 1 <= r <= t.  Precondition violations are
    recorded as skips, with the case's keyword arguments as parameters.
    Deterministic iteration order throughout.  max_n = 0 requests an empty
    sweep.

    Case i runs in share i mod W, W the CPUs of the affinity mask: the
    caller runs share 0 and forks a worker per other share, then merges the
    records in sweep order and makes every callback, so all results are
    those of the inline loop run when W = 1 or fork is missing.  A worker's
    exception is re-raised, a dead worker raises RuntimeError, and no
    worker outlives the call.
    """
    summary = SweepSummary()
    if max_n < 1:
        return summary
    width = _usable_cpus()
    # raw fork, pipes and marshal: a multiprocessing pool, or just importing
    # pickle, adds more to the caller's peak memory than the sweep itself
    workers = []  # (pid, reader) of shares 1 .. width - 1
    try:
        for share in range(1, width):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _worker(qs, max_n, width, share, on_report is not None, w,
                        [r] + [reader.fileno() for _, reader in workers])
            os.close(w)
            workers.append((pid, open(r, "rb")))
        for index, (name, check, kwargs) in enumerate(_sweep_cases(qs, max_n)):
            share = index % width
            reason, checked, reports = (_receive(share, *workers[share - 1]) if share
                                        else _evaluate(check, kwargs, True))
            if reason is not None:
                summary.skipped += 1
                summary.skip_counts[name] = summary.skip_counts.get(name, 0) + 1
                if on_skip is not None:
                    on_skip(SkipRecord(name, kwargs, reason))
                continue
            summary.checked += checked
            for rep in reports:
                if not rep.equal:
                    summary.failed += 1
                    summary.failures.append(rep)
                if on_report is not None:
                    on_report(rep)
    except BaseException:
        from signal import SIGKILL
        for pid, _ in workers:
            os.kill(pid, SIGKILL)
        raise
    finally:
        for pid, reader in workers:
            reader.close()
            os.waitpid(pid, 0)
    return summary


def _usable_cpus() -> int:
    """The CPUs of the affinity mask; 1 where the platform cannot fork."""
    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    return len(os.sched_getaffinity(0)) if can_fork else 1


def _evaluate(check, kwargs, keep_all: bool):
    """(skip reason or None, reports checked, every report or the failed)."""
    try:
        result = check(**kwargs)
    except PreconditionError as exc:
        return str(exc), 0, []
    reports = result if isinstance(result, list) else [result]
    return None, len(reports), [r for r in reports if keep_all or not r.equal]


def _worker(qs, max_n: int, width: int, share: int, keep_all: bool, w: int,
            read_ends: list[int]) -> None:
    """Write each record of the share to fd w, marshalled behind its length,
    reports as (name, parameters, lhs, rhs) in integer ratios and an
    exception pickled; leave by os._exit, flushing no inherited buffer.

    The pipes' read ends are closed first, so that a write fails, and the
    worker leaves, once the caller has gone."""
    try:
        for fd in read_ends:
            os.close(fd)
        with open(w, "wb") as out:
            for index, (_, check, kwargs) in enumerate(_sweep_cases(qs, max_n)):
                if index % width == share:
                    try:
                        reason, checked, kept = _evaluate(check, kwargs, keep_all)
                        data = marshal.dumps((reason, checked, [
                            (r.identity_name, r.parameters, r.lhs.as_integer_ratio(),
                             r.rhs.as_integer_ratio()) for r in kept]))
                    except Exception as exc:
                        import pickle
                        data = marshal.dumps(pickle.dumps(exc))
                    out.write(len(data).to_bytes(8, "little") + data)
    finally:
        os._exit(0)


def _receive(share: int, pid: int, reader):
    """A worker's next record, its reports rebuilt or its exception raised."""
    size = int.from_bytes(reader.read(8), "little")
    data = reader.read(size)
    if not size or len(data) < size:
        raise RuntimeError(f"identity sweep worker {share} (pid {pid}) died")
    record = marshal.loads(data)
    if type(record) is bytes:
        import pickle
        raise pickle.loads(record)
    reason, checked, rows = record
    return reason, checked, [IdentityReport(name, params, Fraction(*lhs), Fraction(*rhs))
                             for name, params, lhs, rhs in rows]
