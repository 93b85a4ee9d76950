"""The Grassmann association scheme: adjacency matrices and exact spectrum.

Eigenvalues come in two independently coded forms, a generalized Eberlein
polynomial and an explicit double-index sum; the suite requires them to
agree.  Spectrum verification never computes an eigenvector: for each
relation the shifted matrix A_i - v*I must lose exactly the predicted
multiplicity of rank, with exactly-equal eigenvalues grouped first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .exactq import choose2, gauss_binom, q_pow
from .gfspaces import Subspace, enumerate_subspaces, field as gf_field, intersection_dim
from .linalg import ExactMatrix, rank_exact

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
        size = gauss_binom(n, k, q)
        if size > _DENSE_GUARD:
            raise ValueError(
                f"[{n} {k}]_{q} = {size} exceeds the dense-matrix guard {_DENSE_GUARD}"
            )
        self.n = n
        self.k = k
        self.q = q
        self.field = gf_field(q)
        self.subspaces: list[Subspace] = enumerate_subspaces(n, k, q)
        self.size = len(self.subspaces)
        self._adjacency: dict[int, ExactMatrix] = {}

    @cached_property
    def _relation(self) -> list[list[int]]:
        """relation[x][y] = k - dim(X ^ Y) for the canonical enumeration."""
        subs = self.subspaces
        size = self.size
        rel = [[0] * size for _ in range(size)]
        for x in range(size):
            for y in range(x + 1, size):
                r = self.k - intersection_dim(subs[x], subs[y])
                rel[x][y] = r
                rel[y][x] = r
        return rel

    def adjacency_matrix(self, i: int) -> ExactMatrix:
        if not 0 <= i <= self.k:
            raise ValueError(f"relation index {i} outside 0..{self.k}")
        if i not in self._adjacency:
            rel = self._relation
            self._adjacency[i] = ExactMatrix(
                [[1 if rel[x][y] == i else 0 for y in range(self.size)]
                 for x in range(self.size)]
            )
        return self._adjacency[i]

    def relation_index(self, x: int, y: int) -> int:
        """i such that the x-th and y-th subspaces meet in dimension k - i."""
        return self._relation[x][y]

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
        return {
            "value": str(self.value),
            "grouped_multiplicity": self.grouped_multiplicity,
            "expected_rank": self.expected_rank,
            "rank": self.rank,
            "ok": self.ok,
        }


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
            "i": self.i,
            "eigenvalues": [
                {"r": r, "value": str(v), "multiplicity": m}
                for r, v, m in self.eigenvalues
            ],
            "rank_checks": [c.to_dict() for c in self.rank_checks],
            "trace_zero": self.trace_zero,
            "eberlein_agrees": self.eberlein_agrees,
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
            "n": self.n,
            "k": self.k,
            "q": self.q,
            "size": self.size,
            "multiplicities": self.multiplicities,
            "multiplicity_sum_ok": self.multiplicity_sum_ok,
            "relations": [rel.to_dict() for rel in self.relations],
            "ok": self.ok,
        }


def rank_checks(matrix: ExactMatrix,
                values: list[tuple[int, Fraction, int]]) -> list[RankCheck]:
    """One rank test of matrix - v*I per distinct exact eigenvalue v.

    The (r, value, multiplicity) triples are grouped by value in order of
    first appearance; each group predicts rank = size - summed multiplicity.
    """
    groups: dict[Fraction, int] = {}
    for _, v, m in values:
        groups[v] = groups.get(v, 0) + m
    size = matrix.rows
    return [
        RankCheck(v, grouped, size - grouped, rank_exact(matrix.shifted(v)))
        for v, grouped in groups.items()
    ]


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
