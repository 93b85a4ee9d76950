"""The Grassmann association scheme: adjacency matrices and exact spectrum.

Eigenvalues come in two independently coded forms, a generalized Eberlein
polynomial and an explicit double-index sum; the suite requires them to
agree.  Spectrum verification never computes an eigenvector: for each
relation the shifted matrix A_i - v*I must lose exactly the predicted
multiplicity of rank, with exactly-equal eigenvalues grouped first.  Those
ranks are proven by the annihilating polynomial of the candidate values,
with Bareiss elimination as the fallback: on dense matrices
(``rank_checks``), or for an element sum_i x_i A_i of the scheme's
Bose-Mesner algebra on its (k+1)-vector x, with the counted and checked
intersection numbers as structure constants (``element_rank_checks``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
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

    @cached_property
    def intersection_numbers(self) -> list[list[list[int]]] | None:
        """p[h][i][j] = |R_i(x) ^ R_j(y)| for every pair (x, y) in relation h,
        so that A_i A_j = sum_h p[h][i][j] A_h; None when the relations do
        not form a symmetric association scheme.

        Each p[h] is counted on one pair (B0, Y_h), all zero for an empty
        relation h.  Then, with one bit mask R_i(x) per point and relation,
        every row must have B0's valencies, summing to [n k], with
        R_0(x) = {x}; every pair x < y must have a symmetric relation h and
        |R_i(x) ^ R_j(y)| = p[h][i][j] for 1 <= i, j < k; and each p[h] must
        be symmetric in i, j, which carries the pairs x < y over to y > x.
        The other entries follow: i or j = 0 from R_0(x) = {x}, i or j = k
        from the row sums (R_0(y), ..., R_k(y) partition the points, so
        sum_j |R_i(x) ^ R_j(y)| = v_i), and the pairs x = y from the
        valencies.
        """
        rel, k = self.relation, self.k
        if [list(col) for col in zip(*rel)] != rel:
            return None
        tables = [bytes(49 if v == i else 48 for v in range(256)) for i in range(k + 1)]
        masks = [[int(word.translate(t), 2) for t in tables]
                 for word in (bytes(reversed(row)) for row in rel)]
        valencies = [m.bit_count() for m in masks[0]]
        if sum(valencies) != len(rel) or any(
                row[0] != 1 << x or [m.bit_count() for m in row] != valencies
                for x, row in enumerate(masks)):
            return None
        first = {h: rel[0].index(h) for h in set(rel[0])}
        p = [[[(mi & mj).bit_count() for mj in masks[first[h]]] for mi in masks[0]]
             if h in first else [[0] * (k + 1) for _ in range(k + 1)]
             for h in range(k + 1)]
        if any([list(col) for col in zip(*p_h)] != p_h for p_h in p):
            return None
        columns = list(zip(*masks))
        for i, j in product(range(1, k), repeat=2):
            expected = [p_h[i][j] for p_h in p]
            for x, row in enumerate(masks):
                r_i = row[i]
                if ([(r_i & m).bit_count() for m in columns[j][x + 1:]]
                        != list(map(expected.__getitem__, rel[x][x + 1:]))):
                    return None
        return p

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


def _value_groups(values: list[tuple[int, Fraction, int]]) -> dict[Fraction, int]:
    """The (r, value, multiplicity) triples' multiplicities summed per exact
    value, in order of first appearance."""
    groups: dict[Fraction, int] = {}
    for _, v, m in values:
        groups[v] = groups.get(v, 0) + m
    return groups


def _rank_checks(groups: dict[Fraction, int], size: int, ranks: list[int]) -> list[RankCheck]:
    return [
        RankCheck(v, grouped, size - grouped, rank)
        for (v, grouped), rank in zip(groups.items(), ranks)
    ]


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
    groups = _value_groups(values)
    size = matrix.rows
    mults = None
    if len(groups) > 1:
        mults = _annihilator_multiplicities(matrix, list(groups))
    if mults is None:
        ranks = [rank_exact(matrix.shifted(v)) for v in groups]
    else:
        ranks = [size - m for m in mults]
    return _rank_checks(groups, size, ranks)


def element_rank_checks(scheme: SchemeInstance, element: list[int],
                        values: list[tuple[int, Fraction, int]]
                        ) -> tuple[list[RankCheck], ExactMatrix | None]:
    """``rank_checks`` of X = sum_i element[i] A_i, proven in the scheme's
    Bose-Mesner algebra (``_algebra_multiplicities``), and None.  When that
    proof fails, X is expanded into a dense matrix, which comes back second,
    and each shifted copy is ranked by Bareiss elimination, so a failing
    report still shows the true ranks.
    """
    groups = _value_groups(values)
    size = scheme.size
    mults = _algebra_multiplicities(scheme, element, list(groups))
    if mults is not None:
        return _rank_checks(groups, size, [size - m for m in mults]), None
    matrix = ExactMatrix([[element[i] for i in row] for row in scheme.relation])
    return _rank_checks(groups, size, [rank_exact(matrix.shifted(v)) for v in groups]), matrix


def _annihilator_multiplicities(matrix: ExactMatrix,
                                values: list[Fraction]) -> list[int] | None:
    """The multiplicity of each distinct value as an eigenvalue of matrix,
    proven without elimination; None when the proof does not go through.

    The matrix must be integral and symmetric, hence diagonalizable, and the
    values integral.  With Q_j = (M - v_0 I)...(M - v_(j-1) I), Q_s(M) = 0
    puts the spectrum inside the values, and the traces of Q_0..Q_(s-1) give
    the multiplicities (``_newton_multiplicities``).
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
    return _newton_multiplicities(points, traces)


def _algebra_multiplicities(scheme: SchemeInstance, element: list[int],
                            values: list[Fraction]) -> list[int] | None:
    """``_annihilator_multiplicities`` of X = sum_i element[i] A_i, run on
    its (k+1)-vector of coordinates; None when the proof does not go
    through or the relations do not form a scheme.

    X is symmetric, as every A_i is.  With p = ``intersection_numbers``, the
    product of a and b is sum_h (sum_ij a_i b_j p[h][i][j]) e_h; the shift
    by v changes coordinate 0 (A_0 = I); trace X = x_0 [n k]; and X = 0
    when x_h = 0 on every relation h with nonzero valency.
    """
    p = scheme.intersection_numbers
    if (
        p is None
        or not values
        or len(element) != scheme.k + 1
        or any(type(c) is not int for c in element)
        or any(v.denominator != 1 for v in values)
    ):
        return None
    points = [int(v) for v in values]
    traces = [scheme.size]
    q_j = [element[0] - points[0], *element[1:]]
    for v in points[1:]:
        traces.append(q_j[0] * scheme.size)
        a = [element[0] - v, *element[1:]]
        q_j = [sum(a_i * sum(map(mul, row, q_j)) for a_i, row in zip(a, p_h)) for p_h in p]
    if any(x_h and p[0][h][h] for h, x_h in enumerate(q_j)):
        return None
    return _newton_multiplicities(points, traces)


def _newton_multiplicities(points: list[int], traces: list[int]) -> list[int] | None:
    """The m_i with trace Q_j = sum_i m_i Q_j(v_i) for j < s, where traces[j]
    is trace Q_j of a diagonalizable M whose spectrum lies among the s
    distinct points v_i; None unless each is a non-negative integer.

    This is the Vandermonde system of the power traces written in Newton's
    basis, triangular because Q_j(v_i) = 0 for i < j.
    """
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
