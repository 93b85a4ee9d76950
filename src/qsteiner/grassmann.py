"""The Grassmann association scheme: adjacency matrices and exact spectrum.

Eigenvalues come in two independently coded forms, a generalized Eberlein
polynomial and an explicit double-index sum; the suite requires them to
agree.  Spectrum verification never computes an eigenvector: for each
relation the shifted matrix A_i - v*I must lose exactly the predicted
multiplicity of rank, with exactly-equal eigenvalues grouped first.  Those
ranks are proven by the annihilating polynomial of the candidate values,
with Bareiss elimination as the fallback (``rank_checks``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property
from math import prod
from operator import mul

from .exactq import choose2, gauss_binom, gauss_binom_guard, prime_power_parts, q_pow
from .gfspaces import Subspace, _inner_indices, grassmannian
from .linalg import ExactMatrix, mat_mul, rank_exact

# the largest [n k]_q a scheme or a design search takes; both build [n k] x [n k] matrices
_DENSE_GUARD = 2000


def eberlein_eigenvalue(n: int, k: int, q: int, i: int, x: int) -> Fraction:
    """Generalized Eberlein polynomial E_i(n, k; q; x)."""
    if not 0 <= i <= k:
        raise ValueError(f"relation index {i} outside 0..{k}")
    total = Fraction(0)
    for j in range(i + 1):
        total += (
            (-1) ** j
            * gauss_binom(x, j, q)
            * gauss_binom(k - x, i - j, q)
            * gauss_binom(n - k - x, i - j, q)
            * q_pow(choose2(j) + (i - j) * (i - j + x), q)
        )
    return total


def eisfeld_eigenvalue(n: int, k: int, q: int, i: int, r: int) -> Fraction:
    """Eigenvalue of A_i on the r-th eigenspace, as the explicit j-sum."""
    if not 0 <= i <= k:
        raise ValueError(f"relation index {i} outside 0..{k}")
    if not 0 <= r <= min(k, n - k):
        raise ValueError(f"eigenspace index {r} outside 0..min(k, n-k)")
    total = Fraction(0)
    for j in range(max(0, r - i), min(r, k - i) + 1):
        total += (
            (-1) ** (r - j)
            * gauss_binom(r, j, q)
            * gauss_binom(n - k + j - r, n - k - i, q)
            * gauss_binom(k - j, i, q)
            * q_pow(i * (i + j - r) + choose2(r - j), q)
        )
    return total


def eigenspace_multiplicity(n: int, r: int, q: int) -> int:
    """[n r] - [n r-1], the dimension of the r-th eigenspace."""
    val = gauss_binom(n, r, q) - gauss_binom(n, r - 1, q)
    if val.denominator != 1:
        raise ValueError(f"eigenspace multiplicity {val} is not an integer")
    return int(val)


class SchemeInstance:
    """One Grassmannian with its relation-by-intersection-dimension matrices."""

    def __init__(self, n: int, k: int, q: int):
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        prime_power_parts(q)  # before gauss_binom, which divides by zero at q = 1
        ok, size = gauss_binom_guard(n, k, q, _DENSE_GUARD)
        if not ok:
            raise ValueError(
                f"[{n} {k}]_{q} {size} exceeds the dense-matrix guard {_DENSE_GUARD}"
            )
        self.n = n
        self.k = k
        self.q = q
        self.subspaces: tuple[Subspace, ...] = grassmannian(n, k, q)
        self.size = len(self.subspaces)

    @cached_property
    def relation(self) -> list[list[int]]:
        """relation[x][y] = k - dim(X ^ Y) for the canonical enumeration.

        X ^ Y of dimension i has (q^i - 1)/(q - 1) points, so the dimension
        is read off the shared points of X and Y, each subspace's points
        held as a bit mask over the canonical points of F_q^n.
        """
        n, k, q = self.n, self.k, self.q
        if k == 0:  # the zero subspace alone, which has no points
            return [[0]]
        masks = [sum(1 << p for p in points) for points in _inner_indices(n, k, 1, q)]
        relation_of = {(q**i - 1) // (q - 1): k - i for i in range(k + 1)}
        return [[relation_of[(mx & my).bit_count()] for my in masks] for mx in masks]

    def adjacency_matrix(self, i: int) -> ExactMatrix:
        if not 0 <= i <= self.k:
            raise ValueError(f"relation index {i} outside 0..{self.k}")
        return ExactMatrix([[1 if r == i else 0 for r in row] for row in self.relation])

    @property
    def r_max(self) -> int:
        return min(self.k, self.n - self.k)


@dataclass
class RankCheck:
    value: Fraction
    grouped_multiplicity: int
    expected_rank: int
    rank: int

    @property
    def ok(self) -> bool:
        return self.rank == self.expected_rank

    def to_dict(self) -> dict:
        return {**asdict(self), "value": str(self.value), "ok": self.ok}


@dataclass
class RelationSpectrum:
    i: int
    eigenvalues: list[tuple[int, Fraction, int]]  # (r, value, multiplicity)
    rank_checks: list[RankCheck]
    trace_zero: bool | None  # None for i == 0 where the trace is the size
    eberlein_agrees: bool

    @property
    def ok(self) -> bool:
        return (
            all(c.ok for c in self.rank_checks)
            and (self.trace_zero is None or self.trace_zero)
            and self.eberlein_agrees
        )

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "eigenvalues": [
                {"r": r, "value": str(v), "multiplicity": m}
                for r, v, m in self.eigenvalues
            ],
            "rank_checks": [c.to_dict() for c in self.rank_checks],
            "ok": self.ok,
        }


@dataclass
class SpectrumReport:
    n: int
    k: int
    q: int
    size: int
    multiplicities: list[int]
    multiplicity_sum_ok: bool
    relations: list[RelationSpectrum] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.multiplicity_sum_ok and all(rel.ok for rel in self.relations)

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "relations": [rel.to_dict() for rel in self.relations],
            "ok": self.ok,
        }


def rank_checks(matrix: ExactMatrix,
                values: list[tuple[int, Fraction, int]]) -> list[RankCheck]:
    """One rank of matrix - v*I per distinct exact eigenvalue v.

    The (r, value, multiplicity) triples are grouped by value in order of
    first appearance; each group predicts rank = size - summed multiplicity.
    The ranks are size minus the multiplicities that
    ``_annihilator_multiplicities`` proves; when that proof fails, each
    shifted matrix is ranked by Bareiss elimination instead.  A single value
    goes straight to Bareiss: its annihilator takes no product and proves
    only M - vI = 0, which the first pivot scan of M - vI decides at the
    same cost, and any other outcome needs the elimination anyway.
    """
    groups: dict[Fraction, int] = {}
    for _, v, m in values:
        groups[v] = groups.get(v, 0) + m
    size = matrix.rows
    mults = None
    if len(groups) > 1:
        mults = _annihilator_multiplicities(matrix, list(groups))
    if mults is None:
        ranks = [rank_exact(matrix.shifted(v)) for v in groups]
    else:
        ranks = [size - m for m in mults]
    return [
        RankCheck(v, grouped, size - grouped, rank)
        for (v, grouped), rank in zip(groups.items(), ranks)
    ]


def _annihilator_multiplicities(matrix: ExactMatrix,
                                values: list[Fraction]) -> list[int] | None:
    """The multiplicity of each distinct value as an eigenvalue of matrix,
    proven without elimination; None when the proof does not go through.

    The matrix must be integral and symmetric, hence diagonalizable, and the
    values integral.  With Q_j = (M - v_0 I)...(M - v_(j-1) I), Q_s(M) = 0
    puts the spectrum inside the values.  The multiplicities m_i then solve
    trace Q_j(M) = sum_i m_i Q_j(v_i) for j < s: the Vandermonde system of
    the power traces written in Newton's basis, which is triangular because
    Q_j(v_i) = 0 for i < j.  Each must come out a non-negative integer.
    """
    data = matrix.data
    size = matrix.rows
    if (
        not values
        or matrix.cols != size
        or any(v.denominator != 1 for v in values)
        or any(set(map(type, row)) - {int} for row in data)
        or any(data[x][y] != data[y][x] for x in range(size) for y in range(x))
    ):
        return None
    points = [int(v) for v in values]
    traces = [size]
    q_j = matrix.shifted(points[0])
    for v in points[1:]:
        traces.append(q_j.trace())
        q_j = mat_mul(matrix.shifted(v), q_j)
    if any(any(row) for row in q_j.data):
        return None
    mults = [0] * len(points)
    for j in reversed(range(len(points))):
        newton = [prod(x - v for v in points[:j]) for x in points]
        rest = traces[j] - sum(map(mul, mults[j + 1:], newton[j + 1:]))
        m, remainder = divmod(rest, newton[j])
        if remainder or m < 0:
            return None
        mults[j] = m
    return mults


def verify_spectrum(scheme: SchemeInstance) -> SpectrumReport:
    """Exact spectrum check of every relation matrix of the scheme.

    For each i and each distinct eigenvalue v, rank(A_i - v*I) must equal
    the matrix size minus the summed multiplicities of the eigenspaces whose
    eigenvalue is exactly v.  Also checks that the two eigenvalue formulas
    agree, that multiplicities sum to the Grassmannian size, and that the
    nontrivial relations are traceless.
    """
    n, k, q = scheme.n, scheme.k, scheme.q
    size = scheme.size
    r_max = scheme.r_max
    mults = [eigenspace_multiplicity(n, r, q) for r in range(r_max + 1)]
    report = SpectrumReport(
        n=n,
        k=k,
        q=q,
        size=size,
        multiplicities=mults,
        multiplicity_sum_ok=sum(mults) == size,
    )
    for i in range(k + 1):
        values = []
        agrees = True
        for r in range(r_max + 1):
            v = eisfeld_eigenvalue(n, k, q, i, r)
            if v != eberlein_eigenvalue(n, k, q, i, r):
                agrees = False
            values.append((r, v, mults[r]))
        a_i = scheme.adjacency_matrix(i)
        trace_zero = None
        if i >= 1:
            trace_zero = sum(m * v for _, v, m in values) == 0 and a_i.trace() == 0
        report.relations.append(
            RelationSpectrum(
                i=i,
                eigenvalues=values,
                rank_checks=rank_checks(a_i, values),
                trace_zero=trace_zero,
                eberlein_agrees=agrees,
            )
        )
    return report
