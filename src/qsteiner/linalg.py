"""Dense exact linear algebra over the rationals.

Entries are ints or Fractions (mixing is fine; any other type raises
TypeError).  Rank is computed by
fraction-free Bareiss elimination after clearing denominators row by row,
with the pivot chosen as the nonzero entry of smallest bit length in the
remaining submatrix (ties broken by lowest row, then lowest column).  This
keeps intermediate entries equal to minors of the scaled matrix and makes
the computation deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import lcm
from operator import mul
from typing import Sequence

from .gfspaces import field, rows_rank

Scalar = int | Fraction
_EXACT_TYPES = {int, Fraction}


class ExactMatrix:
    """Immutable-by-convention dense matrix of exact scalars.

    Every entry must be an int or a Fraction; anything else (float, bool,
    numpy scalars) raises TypeError, so no inexact value enters a check.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[Scalar]], cols: int | None = None):
        self.data = [list(row) for row in data]
        for row in self.data:
            bad = set(map(type, row)) - _EXACT_TYPES
            if bad:
                names = ", ".join(sorted(t.__name__ for t in bad))
                raise TypeError(f"entries must be int or Fraction, got {names}")
        self.rows = len(self.data)
        if self.rows:
            self.cols = len(self.data[0])
            if any(len(row) != self.cols for row in self.data):
                raise ValueError("ragged rows")
            if cols is not None and cols != self.cols:
                raise ValueError("cols mismatch")
        else:
            self.cols = 0 if cols is None else cols

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(
                self.data[i][j] == other.data[i][j]
                for i in range(self.rows)
                for j in range(self.cols)
            )
        )

    def shifted(self, c: Scalar) -> "ExactMatrix":
        """self - c*I (square matrices only)."""
        if self.rows != self.cols:
            raise ValueError("shifted() needs a square matrix")
        out = [list(row) for row in self.data]
        for i in range(self.rows):
            out[i][i] = out[i][i] - c
        return ExactMatrix(out, cols=self.cols)

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("trace needs a square matrix")
        return sum(self.data[i][i] for i in range(self.rows))


def mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    bt = [[b.data[i][j] for i in range(b.rows)] for j in range(b.cols)]
    out = []
    for ra in a.data:
        # multiply only where ra is nonzero: compress picks those entries of cb
        nonzero = [x for x in ra if x]
        out.append([sum(map(mul, nonzero, compress(cb, ra))) for cb in bt])
    return ExactMatrix(out, cols=b.cols)


def _integer_rows(m: ExactMatrix) -> list[list[int]]:
    """Scale each row by the lcm of its denominators (rank-preserving)."""
    out = []
    for row in m.data:
        mult = 1
        for x in row:
            if isinstance(x, Fraction) and x.denominator != 1:
                mult = lcm(mult, x.denominator)
        if mult == 1:
            out.append([int(x) for x in row])
        else:
            out.append([int(x * mult) for x in row])
    return out


def rank_exact(m: ExactMatrix) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination."""
    a = _integer_rows(m)
    nr = len(a)
    nc = m.cols
    steps = min(nr, nc)
    prev = 1
    r = 0
    while r < steps:
        # smallest-bit-length nonzero pivot; ties by (row, col)
        best_key: tuple[int, int, int] | None = None
        for i in range(r, nr):
            row = a[i]
            for j in range(r, nc):
                v = row[j]
                if v:
                    bl = v.bit_length() if v > 0 else (-v).bit_length()
                    if best_key is None or (bl, i, j) < best_key:
                        best_key = (bl, i, j)
            if best_key is not None and best_key[0] == 1:
                break
        if best_key is None:
            break
        _, pi, pj = best_key
        if pi != r:
            a[r], a[pi] = a[pi], a[r]
        if pj != r:
            for row in a[r:]:
                row[r], row[pj] = row[pj], row[r]
        piv = a[r][r]
        arow = a[r]
        for i in range(r + 1, nr):
            ai = a[i]
            f = ai[r]
            if f:
                for j in range(r + 1, nc):
                    ai[j] = (ai[j] * piv - f * arow[j]) // prev
                ai[r] = 0
            elif prev != 1 or piv != 1:
                for j in range(r + 1, nc):
                    ai[j] = (ai[j] * piv) // prev
        prev = piv
        r += 1
    return r


def rank_mod_p(m: ExactMatrix, p: int) -> int:
    """Rank of m reduced mod the prime p; lower bound on rank_exact(m).

    The reduced rows go to the F_p kernel of ``rows_rank``.  A modulus that
    is not prime raises ValueError; primality is tested by trial division,
    so keep p below about 2**40.
    """
    fld = field(p)
    if fld.e != 1:
        raise ValueError(f"{p} is not a prime")
    rows = []
    for row in m.data:
        rr = []
        for x in row:
            if isinstance(x, Fraction):
                if x.denominator % p == 0:
                    raise ValueError(f"denominator divisible by {p}")
                rr.append(x.numerator * pow(x.denominator, -1, p) % p)
            else:
                rr.append(x % p)
        rows.append(rr)
    return rows_rank(rows, fld)
