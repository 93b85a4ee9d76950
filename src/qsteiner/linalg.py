"""Dense exact linear algebra over the rationals.

Entries are ints or Fractions (mixing is fine; any other type raises
TypeError).  The product ``mat_mul`` clears denominators and packs each row
of the right factor into one integer of fixed-width slots (Kronecker
substitution), so each output row is one big-integer sum whose slots are
read back exactly; its docstring proves that no slot carries.  Rank is
computed by fraction-free Bareiss elimination after clearing denominators
row by row, with the pivot chosen as the nonzero entry of smallest bit
length in the remaining submatrix (ties broken by lowest row, then lowest
column).  This keeps intermediate entries equal to minors of the scaled
matrix and makes the computation deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress
from math import lcm
from operator import attrgetter, mul
from typing import Sequence

from .gfspaces import field, rows_rank

Scalar = int | Fraction
_EXACT_TYPES = {int, Fraction}
_denominator = attrgetter("denominator")


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
        return (self.rows, self.cols) == (other.rows, other.cols) and self.data == other.data

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
    """Exact product a·b by Kronecker substitution: each row of the product
    is one integer sum, read back slot by slot.

    Row i of a is scaled by the lcm d_i of its denominators and all of b by
    one lcm d_B, giving integer matrices a' and b' with a·b = c' / (d_i·d_B)
    row by row.  Every |c'_ij| = |sum_k a'_ik b'_kj| is at most
    ``bound = a.cols · max|a'| · max|b'|``.  Slots are w bytes wide with
    2^(8w) > 2·bound; row k of b' is packed as P_k = sum_j b'_kj·2^(8wj).
    By linearity ``bias + sum_k a'_ik·P_k = sum_j (c'_ij + bound)·2^(8wj)``
    with ``bias = sum_j bound·2^(8wj)``, and each coefficient c'_ij + bound
    lies in [0, 2·bound], inside [0, 2^(8w)): the sum's base-2^(8w) digits are
    exactly these coefficients, with no carry between slots, so slot j of its
    bytes minus bound is c'_ij.  Integer inputs give integer entries.
    """
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    dens = [lcm(*map(_denominator, row)) for row in a.data]
    a_int = list(map(_times, a.data, dens))
    d_b = lcm(*(lcm(*map(_denominator, row)) for row in b.data))
    b_int = [_times(row, d_b) for row in b.data]
    max_b = max(map(abs, chain.from_iterable(b_int)), default=0)
    bound = a.cols * max(map(abs, chain.from_iterable(a_int)), default=0) * max_b
    if not bound:
        return ExactMatrix([[0] * b.cols for _ in range(a.rows)], cols=b.cols)
    w = ((2 * bound).bit_length() + 7) // 8
    ones = int.from_bytes(b"\1".ljust(w, b"\0") * b.cols, "little")  # sum_j 2^(8wj)
    # b'_kj + max|b'| lies in [0, 2·bound]: offset, the rows pack byte by byte
    packed = [
        int.from_bytes(b"".join([(x + max_b).to_bytes(w, "little") for x in row]),
                       "little") - max_b * ones
        for row in b_int
    ]
    bias = bound * ones
    out = []
    for row, d in zip(a_int, dens):
        total = sum(map(mul, compress(row, row), compress(packed, row)), bias)
        buf = total.to_bytes(w * b.cols, "little")
        c = [int.from_bytes(buf[j:j + w], "little") - bound for j in range(0, len(buf), w)]
        d *= d_b
        out.append(c if d == 1 else [Fraction(x, d) for x in c])
    return ExactMatrix(out, cols=b.cols)


def _times(row: list[Scalar], d: int) -> list[int]:
    """row times d as ints (d clears every denominator); an int row with
    d == 1 is returned as it is."""
    if d == 1 and Fraction not in map(type, row):
        return row
    return [x.numerator * (d // x.denominator) for x in row]


def _integer_rows(m: ExactMatrix) -> list[list[int]]:
    """Scale each row by the lcm of its denominators (rank-preserving)."""
    return [list(_times(row, lcm(*map(_denominator, row)))) for row in m.data]


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
    is not prime raises ValueError, and so does p >= 2**32: primality is
    tested by trial division, which ``prime_power_parts`` caps there.
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
