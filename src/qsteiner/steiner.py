"""q-Steiner systems: verification, exact-cover enumeration, Gram coefficients,
closed-form spectrum and the dimension certificate.

A design with parameters t-(n, k, 1)_q is an exact cover of the t-subspaces
by the t-subspace sets of its blocks, so enumeration and sampling both run
on one backtracking exact-cover core; enumeration explores everything
deterministically while sampling restarts randomized descents off a seeded
generator.  Everything downstream (incidence matrix, Gram decomposition,
rank bounds) is exact rational arithmetic.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Sequence

from .exactq import choose2, gauss_binom, is_prime_power, q_int, q_pow
from .gfspaces import (
    Subspace,
    enumerate_subspaces,
    field as gf_field,
    gf_matmul,
    intersection_dim,
    iter_subspaces,
    rref,
    subspace_from_rows,
)
from .grassmann import RankCheck, SchemeInstance, eigenspace_multiplicity, rank_checks
from .linalg import ExactMatrix, rank_exact

_UNIVERSE_GUARD = 200
_BLOCK_GUARD = 2000


@dataclass(frozen=True)
class ParamSet:
    """The quadruple (t, k, n, q) of a candidate q-Steiner system."""

    t: int
    k: int
    n: int
    q: int

    def __post_init__(self):
        if not 1 <= self.t < self.k <= self.n:
            raise ValueError(f"need 1 <= t < k <= n, got {self}")
        if not is_prime_power(self.q):
            raise ValueError(f"q = {self.q} is not a prime power")

    @property
    def lambdas(self) -> tuple[Fraction, ...]:
        """(lambda_0, ..., lambda_t) for lambda = 1."""
        return tuple(lambda_i(self, i, 1) for i in range(self.t + 1))

    @property
    def admissible(self) -> bool:
        """All divisibility conditions [k-i t-i] | [n-i t-i] hold."""
        return all(v.denominator == 1 for v in self.lambdas)

    @property
    def block_count(self) -> int:
        """[n t]_q / [k t]_q, the block count of any design (admissible only)."""
        v = lambda_i(self, 0, 1)
        if v.denominator != 1:
            raise ValueError(f"{self} is inadmissible; block count undefined")
        return int(v)

    @property
    def field(self):
        return gf_field(self.q)


def lambda_i(params: ParamSet, i: int, lam: int = 1) -> Fraction:
    """Derived index-i parameter lam * [n-i t-i] / [k-i t-i]."""
    if not 0 <= i <= params.t:
        raise ValueError(f"need 0 <= i <= t, got i={i}")
    return (
        lam
        * gauss_binom(params.n - i, params.t - i, params.q)
        / gauss_binom(params.k - i, params.t - i, params.q)
    )


# ---------------------------------------------------------------------------
# canonical enumerations shared by everything downstream
# ---------------------------------------------------------------------------

@cache
def _abstract_subspaces(n: int, k: int, q: int) -> tuple[Subspace, ...]:
    return tuple(enumerate_subspaces(n, k, q))


def _inner_subspaces(block: Subspace, i: int, fld):
    """(basis, pivots) in RREF of every i-subspace of the block, in the
    canonical order of the i-subspaces of F_q^k mapped through its basis."""
    for w in _abstract_subspaces(block.dim, i, fld.q):
        yield rref(gf_matmul(w.basis, block.basis, fld), fld)


class _DesignContext:
    """Canonical k- and t-subspace enumerations plus per-block cover sets."""

    def __init__(self, params: ParamSet):
        t, k, n, q = params.t, params.k, params.n, params.q
        self.params = params
        self.field = gf_field(q)
        self.t_subspaces = list(_abstract_subspaces(n, t, q))
        self.k_subspaces = list(_abstract_subspaces(n, k, q))
        self.t_index = {s.basis: i for i, s in enumerate(self.t_subspaces)}
        self.k_index = {s.basis: i for i, s in enumerate(self.k_subspaces)}
        self.cover = [
            frozenset(self.t_index[basis]
                      for basis, _ in _inner_subspaces(block, t, self.field))
            for block in self.k_subspaces
        ]


@cache
def design_context(params: ParamSet) -> _DesignContext:
    size_t = gauss_binom(params.n, params.t, params.q)
    size_k = gauss_binom(params.n, params.k, params.q)
    if size_t > _UNIVERSE_GUARD or size_k > _BLOCK_GUARD:
        raise ValueError(
            f"enumeration guard exceeded: [n t] = {size_t} (<= {_UNIVERSE_GUARD}), "
            f"[n k] = {size_k} (<= {_BLOCK_GUARD})"
        )
    return _DesignContext(params)


@dataclass(frozen=True)
class Design:
    """A set of k-subspace indices forming (or claiming to form) a design."""

    params: ParamSet
    blocks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(sorted(self.blocks)))
        if len(set(self.blocks)) != len(self.blocks):
            raise ValueError("duplicate block index")

    def block_subspaces(self) -> list[Subspace]:
        ctx = design_context(self.params)
        return [ctx.k_subspaces[i] for i in self.blocks]


# ---------------------------------------------------------------------------
# design verification
# ---------------------------------------------------------------------------

@dataclass
class VerificationResult:
    ok: bool
    witness: Subspace | None = None
    coverage: int | None = None
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


def verify_design(blocks: Sequence[Subspace], params: ParamSet,
                  lam: int = 1) -> VerificationResult:
    """Check that every t-subspace lies in exactly lam of the given blocks.

    Works directly on the block subspaces (no global enumeration), so large
    ambient spaces are fine as long as the block list itself is walkable.
    On failure the witness t-subspace and its actual coverage come back.
    Malformed blocks (wrong ambient, wrong dimension, duplicates) raise.
    """
    t, k, n, q = params.t, params.k, params.n, params.q
    seen = set()
    for b in blocks:
        if b.ambient != n or b.q != q:
            raise ValueError(f"block ambient/order mismatch: {b.ambient}, q={b.q}")
        if b.dim != k:
            raise ValueError(f"block of dimension {b.dim}, expected {k}")
        if b.basis in seen:
            raise ValueError("duplicate block")
        seen.add(b.basis)
    fld = gf_field(q)
    coverage: dict[tuple, int] = {}
    for b in blocks:
        for basis, _ in _inner_subspaces(b, t, fld):
            coverage[basis] = coverage.get(basis, 0) + 1
    total_t = gauss_binom(n, t, q)
    over = [basis for basis, c in coverage.items() if c != lam]
    if not over and Fraction(len(coverage)) == total_t:
        return VerificationResult(True)
    # deterministic witness: first t-subspace in canonical order that misses lam
    for s in iter_subspaces(n, t, q):
        c = coverage.get(s.basis, 0)
        if c != lam:
            return VerificationResult(
                False, witness=s, coverage=c,
                message=f"t-subspace covered {c} times, expected {lam}",
            )
    return VerificationResult(True)


def verify_design_ids(design: Design) -> VerificationResult:
    """Cover-set verification for an in-memory Design (same contract)."""
    ctx = design_context(design.params)
    counts = [0] * len(ctx.t_subspaces)
    for kid in design.blocks:
        for tid in ctx.cover[kid]:
            counts[tid] += 1
    for tid, c in enumerate(counts):
        if c != 1:
            return VerificationResult(
                False, witness=ctx.t_subspaces[tid], coverage=c,
                message=f"t-subspace covered {c} times, expected 1",
            )
    return VerificationResult(True)


# ---------------------------------------------------------------------------
# exact cover search (enumeration and seeded sampling)
# ---------------------------------------------------------------------------

class _ExactCover:
    """Backtracking exact cover with most-constrained-column selection.

    col_live counts active candidate rows per column, updated symmetrically
    on cover/uncover, which keeps the search state cheap to maintain and
    fully reversible via the trail returned by _cover.
    """

    def __init__(self, n_cols: int, rows: list[frozenset[int]]):
        self.rows = rows
        self.col_rows: list[list[int]] = [[] for _ in range(n_cols)]
        for rid, s in enumerate(rows):
            for c in s:
                self.col_rows[c].append(rid)
        self.row_active = [True] * len(rows)
        self.col_covered = [False] * n_cols
        self.col_live = [len(r) for r in self.col_rows]
        self.uncovered = n_cols

    def _deactivate(self, rid: int) -> None:
        self.row_active[rid] = False
        for c in self.rows[rid]:
            self.col_live[c] -= 1

    def _activate(self, rid: int) -> None:
        self.row_active[rid] = True
        for c in self.rows[rid]:
            self.col_live[c] += 1

    def _cover(self, rid: int) -> list[int]:
        killed = []
        for c in self.rows[rid]:
            self.col_covered[c] = True
            self.uncovered -= 1
        for c in self.rows[rid]:
            for r2 in self.col_rows[c]:
                if self.row_active[r2]:
                    self._deactivate(r2)
                    killed.append(r2)
        return killed

    def _uncover(self, rid: int, killed: list[int]) -> None:
        for r2 in reversed(killed):
            self._activate(r2)
        for c in self.rows[rid]:
            self.col_covered[c] = False
            self.uncovered += 1

    def _choose_column(self) -> int:
        best = -1
        best_live = None
        for c in range(len(self.col_rows)):
            if not self.col_covered[c]:
                live = self.col_live[c]
                if best_live is None or live < best_live:
                    best, best_live = c, live
                    if live == 0:
                        break
        return best

    def search(self, rng: random.Random | None = None, limit: int | None = None,
               node_budget: int | None = None) -> list[tuple[int, ...]]:
        solutions: list[tuple[int, ...]] = []
        chosen: list[int] = []
        nodes = 0

        def dfs() -> bool:
            nonlocal nodes
            if self.uncovered == 0:
                solutions.append(tuple(sorted(chosen)))
                return limit is not None and len(solutions) >= limit
            col = self._choose_column()
            if self.col_live[col] == 0:
                return False
            cands = [r for r in self.col_rows[col] if self.row_active[r]]
            if rng is not None:
                rng.shuffle(cands)
            for rid in cands:
                nodes += 1
                if node_budget is not None and nodes > node_budget:
                    return True
                killed = self._cover(rid)
                chosen.append(rid)
                done = dfs()
                chosen.pop()
                self._uncover(rid, killed)
                if done:
                    return True
            return False

        dfs()
        return solutions


def enumerate_steiner(params: ParamSet) -> list[Design]:
    """Every labeled design with these parameters, exactly once.

    Output is sorted lexicographically on the sorted block-index tuples, so
    repeated runs are identical.  Inadmissible parameter sets come back
    empty without searching (no exact cover can exist).
    """
    if params.n < 2 * params.k:
        raise ValueError("nontrivial enumeration needs n >= 2k")
    ctx = design_context(params)
    if not params.admissible:
        return []
    cover = _ExactCover(len(ctx.t_subspaces), ctx.cover)
    solutions = sorted(cover.search())
    return [Design(params, s) for s in solutions]


@dataclass
class SampleResult:
    designs: list[Design]
    complete: bool
    attempts: int


def sample_steiner(params: ParamSet, seed: int, count: int,
                   attempt_budget: int | None = None) -> SampleResult:
    """Up to ``count`` distinct designs by seeded randomized descent.

    Each attempt runs the exact-cover search with randomly shuffled branch
    order and stops at its first solution; duplicates are discarded.  Fully
    deterministic given the seed, and a larger count extends a smaller one.
    The attempt budget stands in for a timeout so that runs stay
    reproducible; running out marks the result incomplete.
    """
    if params.n < 2 * params.k:
        raise ValueError("nontrivial sampling needs n >= 2k")
    ctx = design_context(params)
    rng = random.Random(seed)
    found: list[Design] = []
    seen: set[tuple[int, ...]] = set()
    if count == 0 or not params.admissible:
        return SampleResult([], params.admissible, 0)
    budget = attempt_budget if attempt_budget is not None else 200 + 50 * count
    attempts = 0
    while len(found) < count and attempts < budget:
        attempts += 1
        cover = _ExactCover(len(ctx.t_subspaces), ctx.cover)
        sols = cover.search(rng=rng, limit=1, node_budget=20000)
        if sols and sols[0] not in seen:
            seen.add(sols[0])
            found.append(Design(params, sols[0]))
    return SampleResult(found, len(found) >= count, attempts)


# ---------------------------------------------------------------------------
# incidence / inclusion matrices
# ---------------------------------------------------------------------------

def incidence_matrix(designs: Sequence[Design]) -> ExactMatrix:
    """0/1 matrix, rows = canonical Gr_{n,k}, columns = the given designs."""
    if not designs:
        raise ValueError("need at least one design to fix the parameters")
    params = designs[0].params
    if any(d.params != params for d in designs):
        raise ValueError("designs with mixed parameters")
    ctx = design_context(params)
    size = len(ctx.k_subspaces)
    cols = [set(d.blocks) for d in designs]
    return ExactMatrix(
        [[1 if r in c else 0 for c in cols] for r in range(size)],
        cols=len(designs),
    )


def inclusion_matrix(params: ParamSet) -> ExactMatrix:
    """0/1 containment matrix W: rows = t-subspaces, columns = k-subspaces."""
    ctx = design_context(params)
    n_t = len(ctx.t_subspaces)
    data = [[0] * len(ctx.k_subspaces) for _ in range(n_t)]
    for kid, tids in enumerate(ctx.cover):
        for tid in tids:
            data[tid][kid] = 1
    return ExactMatrix(data, cols=len(ctx.k_subspaces))


# ---------------------------------------------------------------------------
# Gram coefficients: closed forms and empirical counterparts
# ---------------------------------------------------------------------------

def kappa_formula(n_designs: int, params: ParamSet) -> Fraction:
    """Number of designs through one fixed block: N [n t] / ([n k][k t])."""
    t, k, n, q = params.t, params.k, params.n, params.q
    return (
        n_designs
        * gauss_binom(n, t, q)
        / (gauss_binom(n, k, q) * gauss_binom(k, t, q))
    )


def intersect_count(params: ParamSet, i: int) -> Fraction:
    """Blocks of one design meeting a fixed block exactly in a fixed i-space.

    Closed form: the alternating j-sum scaled by 1/[n-t k-t] plus the
    signed boundary binomial.  Valid for 0 <= i <= t-1.
    """
    t, k, n, q = params.t, params.k, params.n, params.q
    if not 0 <= i <= t - 1:
        raise ValueError(f"need 0 <= i <= t-1, got i={i}")
    acc = Fraction(0)
    for j in range(i, t + 1):
        acc += (
            gauss_binom(k - i, j - i, q)
            * gauss_binom(n - j, k - j, q)
            * (-1) ** (j - i)
            * q ** choose2(j - i)
        )
    acc /= gauss_binom(n - t, k - t, q)
    acc += (
        (-1) ** (t + 1 - i)
        * gauss_binom(k - i - 1, t - i, q)
        * q ** choose2(t + 1 - i)
    )
    return acc


def kappa_i_formula(n_designs: int, i: int, params: ParamSet) -> Fraction:
    """Designs through a fixed pair of blocks with intersection dimension i.

    Zero for t <= i <= k by the defining property of a Steiner system.
    """
    t, k, n, q = params.t, params.k, params.n, params.q
    if not 0 <= i <= k:
        raise ValueError(f"need 0 <= i <= k, got i={i}")
    if i >= t:
        return Fraction(0)
    denom = (
        gauss_binom(n - t, k - t, q)
        * gauss_binom(n - k, k - i, q)
        * q ** ((k - i) ** 2)
    )
    return n_designs * intersect_count(params, i) / denom


@dataclass(frozen=True)
class GramCoefficients:
    n_designs: int
    kappa: Fraction
    kappa_i: tuple[Fraction, ...]  # indexed 0..t


def gram_coefficients(n_designs: int, params: ParamSet) -> GramCoefficients:
    return GramCoefficients(
        n_designs=n_designs,
        kappa=kappa_formula(n_designs, params),
        kappa_i=tuple(
            kappa_i_formula(n_designs, i, params) for i in range(params.t + 1)
        ),
    )


def gram_matrix(params: ParamSet, designs: Sequence[Design]) -> ExactMatrix:
    """U U^T built straight from the block lists, without forming U.

    Entry (x, y) counts the designs containing both blocks x and y, so the
    diagonal holds the row sums of U.  Costs N b^2 additions for N designs
    of b blocks each.
    """
    if any(d.params != params for d in designs):
        raise ValueError("designs with mixed parameters")
    size = len(design_context(params).k_subspaces)
    data = [[0] * size for _ in range(size)]
    for d in designs:
        for x in d.blocks:
            row = data[x]
            for y in d.blocks:
                row[y] += 1
    return ExactMatrix(data, cols=size)


def gram_check(gram: ExactMatrix, coeffs: GramCoefficients,
               scheme: SchemeInstance) -> bool:
    """Entrywise test of U U^T == kappa I + sum_i kappa_i A_(k-i)."""
    if gram.rows != scheme.size:
        raise ValueError("Gram matrix rows do not match the scheme size")
    expected = ExactMatrix.identity(scheme.size).scaled(coeffs.kappa)
    for i, ki in enumerate(coeffs.kappa_i):
        if ki != 0:
            expected = expected + scheme.adjacency_matrix(scheme.k - i).scaled(ki)
    return gram == expected


def empirical_kappa(gram: ExactMatrix) -> tuple[set, bool]:
    """Diagonal of U U^T, i.e. the row sums of U; (values seen, constant?)."""
    sums = {gram.data[x][x] for x in range(gram.rows)}
    return sums, len(sums) == 1


def empirical_pair_counts(gram: ExactMatrix,
                          scheme: SchemeInstance) -> dict[int, set[int]]:
    """For every unordered block pair, the number of designs containing both
    (an off-diagonal entry of U U^T), bucketed by intersection dimension.
    Constancy per bucket is the empirical well-definedness of the pair
    coefficients."""
    if gram.rows != scheme.size:
        raise ValueError("Gram matrix rows do not match the scheme size")
    buckets: dict[int, set[int]] = {}
    for x in range(scheme.size):
        row = gram.data[x]
        for y in range(x + 1, scheme.size):
            dim = scheme.k - scheme.relation_index(x, y)
            buckets.setdefault(dim, set()).add(row[y])
    return buckets


def per_intersection_counts(design: Design, i: int) -> set[int]:
    """#{Y != X : X ^ Y = I} over all blocks X and i-subspaces I of X."""
    params = design.params
    ctx = design_context(params)
    fld = ctx.field
    blocks = [ctx.k_subspaces[b] for b in design.blocks]
    counts = set()
    for x, bx in enumerate(blocks):
        for basis, pivots in _inner_subspaces(bx, i, fld):
            ispace = Subspace(params.n, params.q, basis, pivots)
            c = 0
            for y, by in enumerate(blocks):
                if y == x:
                    continue
                if intersection_dim(bx, by) == i and by.contains(ispace):
                    c += 1
            counts.add(c)
    return counts


# ---------------------------------------------------------------------------
# closed-form spectrum of the Gram matrix
# ---------------------------------------------------------------------------

def mu_eigenvalue(params: ParamSet, r: int, kappa: Fraction) -> Fraction:
    """Eigenvalue of U U^T on the r-th eigenspace, in closed form."""
    t, k, n, q = params.t, params.k, params.n, params.q
    if not 0 <= r <= k:
        raise ValueError(f"need 0 <= r <= k, got r={r}")
    if n < 2 * k:
        raise ValueError("the closed-form spectrum needs n >= 2k")
    kappa = Fraction(kappa)
    if r == 0:
        acc = Fraction(0)
        for i in range(t):
            acc += q_pow(n - i, q) * gauss_binom(n, i, q) / gauss_binom(k - 1, i, q)
        return kappa * (1 - q_int(k - n, q) / q_int(k, q) * acc)
    acc = Fraction(0)
    for i in range(t):
        acc += (
            (-1) ** i
            * q ** choose2(i)
            * gauss_binom(k - i - 1, r - i - 1, q)
            * gauss_binom(n - r, i, q)
        )
    return kappa * (
        1
        + (-1) ** r
        * q_pow(choose2(r) - k * r + k, q)
        / gauss_binom(n - k - 1, r - 1, q)
        * acc
    )


def mu_spectrum(params: ParamSet, kappa: Fraction) -> list[tuple[int, Fraction, int]]:
    """(r, mu_r, multiplicity) for r = 0..k."""
    return [
        (r, mu_eigenvalue(params, r, kappa),
         eigenspace_multiplicity(params.n, r, params.q))
        for r in range(params.k + 1)
    ]


@dataclass
class GramSpectrumReport:
    spectrum: list[tuple[int, Fraction, int]]
    checks: list[RankCheck]
    trace_ok: bool

    @property
    def ok(self) -> bool:
        return self.trace_ok and all(c.ok for c in self.checks)


def verify_gram_spectrum(params: ParamSet, gram: ExactMatrix,
                         kappa: Fraction) -> GramSpectrumReport:
    """Rank-deficiency test of U U^T against the closed-form spectrum.

    Exactly equal eigenvalues are grouped before asserting the deficiency;
    the trace must equal [n k]_q * kappa.
    """
    spec = mu_spectrum(params, kappa)
    trace_ok = gram.trace() == sum(v * m for _, v, m in spec) == gram.rows * Fraction(kappa)
    return GramSpectrumReport(spec, rank_checks(gram, spec), trace_ok)


def dimension_formula(params: ParamSet) -> int:
    """[n k]_q - [n t]_q + 1."""
    val = (
        gauss_binom(params.n, params.k, params.q)
        - gauss_binom(params.n, params.t, params.q)
        + 1
    )
    if val.denominator != 1:
        raise ValueError(f"dimension formula gave the non-integer {val}")
    return int(val)


# ---------------------------------------------------------------------------
# rank certificate
# ---------------------------------------------------------------------------

@dataclass
class RankCertificate:
    n_designs: int
    w_rank: int
    row_diff_rank: int
    annihilation_ok: bool
    upper_bound: int
    lower_bound: int
    target: int

    @property
    def meets(self) -> bool:
        return (
            self.annihilation_ok
            and self.row_diff_rank == self.w_rank - 1
            and self.lower_bound == self.upper_bound == self.target
        )

    def to_dict(self) -> dict:
        return {
            "n_designs": self.n_designs,
            "w_rank": self.w_rank,
            "row_diff_rank": self.row_diff_rank,
            "annihilation_ok": self.annihilation_ok,
            "upper_bound": self.upper_bound,
            "lower_bound": self.lower_bound,
            "target": self.target,
            "meets": self.meets,
        }


def rank_certificate(params: ParamSet, designs: Sequence[Design]) -> RankCertificate:
    """Two-sided certificate for the span of the characteristic vectors.

    Upper bound: every row difference of the inclusion matrix W annihilates
    every characteristic vector (their W-image is the constant lambda
    vector), and those differences have rank rank(W) - 1; the remaining
    all-ones functional is not annihilated, leaving
    rank(U) <= [n k] - rank(W) + 1.  Lower bound: exact rank of the columns
    actually collected, read as rank(U U^T), which equals rank(U) over Q.
    The certificate meets when both bounds hit [n k] - [n t] + 1.

    Column d of W U is the t-subspace coverage vector of design d, so the
    annihilation test is design verification of every collected column.
    """
    size_k = int(gauss_binom(params.n, params.k, params.q))
    gram = gram_matrix(params, designs)
    w = inclusion_matrix(params)
    annihilation_ok = all(verify_design_ids(d).ok for d in designs)
    w_rank = rank_exact(w)
    diffs = ExactMatrix(
        [
            [w.data[i][j] - w.data[0][j] for j in range(w.cols)]
            for i in range(1, w.rows)
        ],
        cols=w.cols,
    )
    return RankCertificate(
        n_designs=len(designs),
        w_rank=w_rank,
        row_diff_rank=rank_exact(diffs),
        annihilation_ok=annihilation_ok,
        upper_bound=size_k - w_rank + 1,
        lower_bound=rank_exact(gram),
        target=dimension_formula(params),
    )


# ---------------------------------------------------------------------------
# design files
# ---------------------------------------------------------------------------

def design_to_dict(params: ParamSet, blocks: Sequence[Subspace]) -> dict:
    return {
        "q": params.q,
        "n": params.n,
        "k": params.k,
        "t": params.t,
        "blocks": [b.to_lists() for b in blocks],
    }


def save_design_file(path: str | Path, params: ParamSet,
                     blocks: Sequence[Subspace]) -> None:
    Path(path).write_text(
        json.dumps(design_to_dict(params, blocks), sort_keys=True, indent=1) + "\n",
        encoding="utf-8",
    )


def design_from_dict(obj: dict) -> tuple[ParamSet, list[Subspace]]:
    """Parse and canonicalize one design object; raises ValueError on any
    schema, dimension, or field-encoding problem."""
    if not isinstance(obj, dict):
        raise ValueError("design object must be a JSON object")
    missing = {"q", "n", "k", "t", "blocks"} - obj.keys()
    if missing:
        raise ValueError(f"missing keys: {sorted(missing)}")
    q, n, k, t = obj["q"], obj["n"], obj["k"], obj["t"]
    if not all(isinstance(v, int) for v in (q, n, k, t)):
        raise ValueError("q, n, k, t must be integers")
    params = ParamSet(t=t, k=k, n=n, q=q)
    if not isinstance(obj["blocks"], list):
        raise ValueError("blocks must be a list")
    blocks = []
    for idx, mat in enumerate(obj["blocks"]):
        if (
            not isinstance(mat, list)
            or len(mat) != k
            or any(not isinstance(row, list) or len(row) != n for row in mat)
        ):
            raise ValueError(f"block {idx}: expected a {k}x{n} integer matrix")
        try:
            blocks.append(subspace_from_rows(mat, n, q, expect_dim=k))
        except ValueError as exc:
            raise ValueError(f"block {idx}: {exc}") from exc
    return params, blocks


def load_design_file(path: str | Path) -> list[tuple[ParamSet, list[Subspace]]]:
    """Load one design object or an array of them from a JSON file."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"parse error: {exc}") from exc
    if isinstance(obj, list):
        return [design_from_dict(o) for o in obj]
    return [design_from_dict(obj)]
