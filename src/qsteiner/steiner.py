"""q-Steiner systems: verification, exact-cover enumeration, Gram coefficients,
closed-form spectrum and the dimension certificate.

A design with parameters t-(n, k, 1)_q is an exact cover of the t-subspaces
by the t-subspace sets of its blocks; here it is the sorted tuple of its
blocks' distinct canonical k-subspace indices.  Enumeration and sampling
both run on one backtracking exact-cover core; enumeration explores the
designs through two blocks deterministically and maps them onto the rest by
GL(n,q), while sampling restarts randomized descents off a seeded
generator.  The incidence matrix and Gram decomposition are exact rational
arithmetic; the rank bounds are ranks over F_2 and mod a large prime, each
a lower bound on the rank over Q, with Bareiss on U U^T as the fallback.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, islice
from operator import and_, lt, neg
from pathlib import Path
from typing import Iterable, Sequence

from .exactq import choose2, gauss_binom, gauss_binom_guard, prime_power_parts, q_int, q_pow
from .gfspaces import (
    Subspace,
    _canonical_keys,
    _coverage_columns,
    _f2_eliminate,
    _f2_text_blocks,
    _inner_indices,
    _rref_key,
    field,
    gf_matmul,
    grassmannian,
    rref,
    subspace_from_rows,
)
from .grassmann import (
    _DENSE_GUARD,
    RankCheck,
    SchemeInstance,
    eigenspace_multiplicity,
    element_rank_checks,
)
from .identities import kernel_sum
from .linalg import ExactMatrix, rank_exact, rank_mod_p

_UNIVERSE_GUARD = 200
# a prime below 2^31: W's rank mod p bounds its rank over Q from below
_RANK_PRIME = 2147483629
# one block's t-subspaces, [k t]_q, all get coverage keys; at 2^16 (k = 16,
# t = 1 over F_2) one block takes about 0.4 s and 50 MiB, while every design
# the tests and the benchmark verify has [k t]_q <= [6 3]_2 = 1395
_BLOCK_COVER_GUARD = 1 << 16
# Bareiss on the [n k]-square Gram matrix took 0.4 s at 130, 19 s at 357
_GRAM_RANK_GUARD = 200
# exact-cover nodes for the designs through two blocks: PG(3,2) takes 8,
# PG(3,3) 410, (1,3,6,2) 1,370 and PG(3,4) 133,598 (about 1 s); (1,2,6,2)
# and (1,2,4,5) run past it, in about 1.4 s and 5 s
_ENUMERATION_NODE_BUDGET = 500_000
# blocks that enumeration writes, designs times blocks: PG(3,3) writes 84,240
# (a 14 MB --out file), (1,3,6,2) would write 17,141,760 and PG(3,4) 86,639,616
_ENUMERATION_OUTPUT_GUARD = 1_000_000
# randomized searches memoize the branch column of nodes with fewer chosen
# rows than this; across the 3867 attempts of sampling 3000 PG(3,3) spreads
# it hits 100, 100, 97 and 82% of the nodes at depths 0-3, but 54% at 4
_BRANCH_MEMO_DEPTH = 4


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
        prime_power_parts(self.q)  # raises for q that is not a prime power, or huge

    @property
    def lambdas(self) -> tuple[Fraction, ...]:
        """(lambda_0, ..., lambda_t) for lambda = 1."""
        return tuple(lambda_i(self, i) for i in range(self.t + 1))

    @property
    def admissible(self) -> bool:
        """All divisibility conditions [k-i t-i] | [n-i t-i] hold."""
        return all(v.denominator == 1 for v in self.lambdas)


def lambda_i(params: ParamSet, i: int) -> Fraction:
    """Derived index-i parameter [n-i t-i] / [k-i t-i]."""
    if not 0 <= i <= params.t:
        raise ValueError(f"need 0 <= i <= t, got i={i}")
    return (
        gauss_binom(params.n - i, params.t - i, params.q)
        / gauss_binom(params.k - i, params.t - i, params.q)
    )


# ---------------------------------------------------------------------------
# canonical enumerations shared by everything downstream
# ---------------------------------------------------------------------------

class _DesignContext:
    """Canonical k- and t-subspace enumerations plus, for each block, the
    indices of the t-subspaces it covers and those indices packed into one
    word: slot tid, ``slot_bits`` wide, holds 1 when the block covers
    t-subspace tid (see ``verify_design_ids``)."""

    def __init__(self, params: ParamSet):
        t, k, n, q = params.t, params.k, params.n, params.q
        self.t_subspaces = grassmannian(n, t, q)
        self.k_subspaces = grassmannian(n, k, q)
        self.cover = _inner_indices(n, k, t, q)
        # no t-subspace lies in more than [n-t k-t] distinct blocks
        self.slot_bits = int(gauss_binom(n - t, k - t, q)).bit_length()
        s = self.slot_bits
        self.cover_words = [sum(1 << (s * tid) for tid in tids) for tids in self.cover]
        self.all_ones = sum(1 << (s * tid) for tid in range(len(self.t_subspaces)))


@cache
def design_context(params: ParamSet) -> _DesignContext:
    t_ok, size_t = gauss_binom_guard(params.n, params.t, params.q, _UNIVERSE_GUARD)
    k_ok, size_k = gauss_binom_guard(params.n, params.k, params.q, _DENSE_GUARD)
    if not t_ok or not k_ok:
        raise ValueError(
            f"enumeration guard exceeded: [n t] {size_t} (<= {_UNIVERSE_GUARD}), "
            f"[n k] {size_k} (<= {_DENSE_GUARD})"
        )
    return _DesignContext(params)


# ---------------------------------------------------------------------------
# design verification
# ---------------------------------------------------------------------------

@dataclass
class VerificationResult:
    ok: bool
    witness: Subspace | None = None
    coverage: int | None = None
    message: str = ""


def _first_miss(coverage, witness=lambda s: s) -> VerificationResult:
    """The witness rule of both verifiers: the first (t-subspace, coverage)
    pair, in canonical order, whose coverage is not 1.  ``witness`` turns
    that pair's first member into the witness Subspace."""
    for s, c in coverage:
        if c != 1:
            return VerificationResult(
                False, witness=witness(s), coverage=c,
                message=f"t-subspace covered {c} times, expected 1",
            )
    return VerificationResult(True)


def _leading_one(row: tuple) -> int:
    """The column of a row's leading entry if that entry is 1, else -1."""
    p = row.index(1) if 1 in row else -1
    return -1 if any(row[:p]) else p


def verify_design(blocks: Sequence[tuple], params: ParamSet) -> VerificationResult:
    """Check that every t-subspace lies in exactly one of the given blocks,
    each the canonical RREF key of a k-subspace (``Subspace.key``).

    Works on the keys alone (no global enumeration), so large ambient
    spaces are fine as long as the block list itself is walkable.  On
    failure the witness t-subspace, the one Subspace built here, and its
    coverage come back.  Raises for malformed blocks (wrong dimension,
    duplicates, a row outside F_q^n: over F_2 a packed int of more than n
    bits, otherwise not n entries in 0..q-1, and a key that is not a
    rank-k RREF, which ``_coverage_columns`` needs), for blocks of more than
    _BLOCK_COVER_GUARD t-subspaces each, decided by ``gauss_binom_guard``
    before any coverage is built, and for any q over that guard, whose
    witness walk would hold range(q) as a tuple.

    The blocks are checked as one list, by passes in C over the chained
    rows, and walked in order only to name the first bad one.  The coverage
    keys are canonical keys of t-subspaces, so at most [n t] are distinct:
    the design is exact iff no key repeats and [n t] <= the number of
    distinct keys, which ``gauss_binom_guard`` decides without building
    [n t] when it is huge.  The keys come from ``_coverage_columns`` across
    all blocks at once; their one Counter decides and serves the witness.
    """
    t, k, n, q = params.t, params.k, params.n, params.q
    if q > _BLOCK_COVER_GUARD:
        raise ValueError(f"coverage guard exceeded: q {q} (<= {_BLOCK_COVER_GUARD})")
    if set(map(len, blocks)) - {k} or len(set(blocks)) != len(blocks):
        seen: dict[tuple, int] = {}
        for idx, key in enumerate(blocks):
            if len(key) != k:
                raise ValueError(f"block of dimension {len(key)}, expected {k}")
            if (first := seen.setdefault(key, idx)) != idx:
                raise ValueError(f"block {idx} duplicates block {first}")
    flat = list(chain.from_iterable(blocks))
    entries, top = (flat, 1 << n) if q == 2 else (list(chain.from_iterable(flat)), q)
    if (q != 2 and set(map(len, flat)) - {n}
            or min(entries, default=0) < 0 or max(entries, default=0) >= top):
        raise ValueError(f"block row outside F_{q}^{n}")
    # an RREF with no zero row: the pivots (lowest set bits over F_2) rise down
    # each block, and no row is nonzero at a later row's pivot; flat[i::k] is row i
    if q == 2:
        pivots, at, bad = list(map(and_, flat, map(neg, flat))), and_, 0
    else:
        pivots, at, bad = list(map(_leading_one, flat)), tuple.__getitem__, -1
    if (bad in pivots or not all(all(map(lt, pivots[i::k], pivots[i + 1::k])) for i in range(k - 1))
            or any(any(map(at, flat[i::k], pivots[j::k])) for j in range(k) for i in range(j))):
        raise ValueError(f"block not a rank-{k} RREF")

    coverage = Counter()
    if blocks:  # with no blocks the kernel would build Gr(k, t) for nothing
        fits, size = gauss_binom_guard(k, t, q, _BLOCK_COVER_GUARD)
        if not fits:
            raise ValueError(f"coverage guard exceeded: [k t] {size} t-subspaces "
                             f"per block (<= {_BLOCK_COVER_GUARD})")
        coverage.update(chain.from_iterable(_coverage_columns(blocks, k, t, q)))
    distinct = len(coverage)
    if distinct == coverage.total() and gauss_binom_guard(n, t, q, distinct)[0]:
        return VerificationResult(True)
    return _first_miss(
        ((s, coverage.get(s[0], 0)) for s in _canonical_keys(n, t, q)),
        witness=lambda s: Subspace(n, q, s[0]),
    )


def _check_block_indices(size: int, designs: Sequence[Sequence[int]]) -> None:
    """Refuse any index outside 0..size-1 in the designs, as verify_design_ids does."""
    ids = set(chain.from_iterable(designs))
    if ids and not 0 <= min(ids) <= max(ids) < size:
        raise ValueError(f"block index outside 0..{size - 1}")


def verify_design_ids(params: ParamSet, blocks: Sequence[int]) -> VerificationResult:
    """Cover-set verification of a design given as canonical k-subspace
    indices, in any order (same contract as ``verify_design``).

    The coverage counts are summed as packed words, one per block: slot tid
    of the sum is the number of blocks covering t-subspace tid.  Distinct
    indices are distinct k-subspaces, and a t-subspace lies in at most
    [n-t k-t]_q of those; ``slot_bits`` is the bit length of [n-t k-t]_q,
    so no slot reaches 2^slot_bits, no slot carries into the next, and each
    slot of the sum is its count exactly.  The design is exact iff every
    count is 1, that is iff the sum equals ``all_ones``.  Otherwise the
    counts are read back out of the slots for the witness walk.  An index
    outside the k-subspaces, or one given twice, raises ValueError.
    """
    ctx = design_context(params)
    if blocks and not 0 <= min(blocks) <= max(blocks) < len(ctx.k_subspaces):
        raise ValueError(f"block index outside 0..{len(ctx.k_subspaces) - 1}")
    if len(set(blocks)) != len(blocks):
        raise ValueError("duplicate block index")
    total = sum(map(ctx.cover_words.__getitem__, blocks))
    if total == ctx.all_ones:
        return VerificationResult(True)
    s = ctx.slot_bits
    mask = (1 << s) - 1
    return _first_miss(
        (sub, total >> (s * tid) & mask) for tid, sub in enumerate(ctx.t_subspaces))


# ---------------------------------------------------------------------------
# exact cover search (enumeration and seeded sampling)
# ---------------------------------------------------------------------------

class _ExactCover:
    """Exact cover by depth-first search on bit masks.

    A search node is the pair (free rows, open columns), each an int: row r
    is free when it shares no column with a chosen row, and choosing it
    leaves (free & ~clash[r], open & ~row_cols[r]).  The search state is
    never mutated, so nothing is undone, and one instance serves any number
    of searches.

    The one thing an instance keeps between searches is its branch memo:
    the chosen-row tuple of a node shallower than _BRANCH_MEMO_DEPTH, mapped
    to that node's branch column.  Every search starts from the same root
    and a node's (free rows, open columns) is a function of its chosen
    rows, so the tuple fixes the column and the memo is a pure cache; a
    dead end stores its column with no free rows.  Only randomized searches
    read and fill it: restarted attempts revisit the top nodes over and
    over, while a deterministic search never visits a node twice.
    """

    def __init__(self, n_cols: int, rows: Sequence[Sequence[int]]):
        self.n_rows = len(rows)
        self.n_cols = n_cols
        self.row_cols = [sum(1 << c for c in cols) for cols in rows]
        self.col_rows = [0] * n_cols
        for r, cols in enumerate(rows):
            for c in cols:
                self.col_rows[c] |= 1 << r
        self.clash = [0] * self.n_rows
        for r, cols in enumerate(rows):
            for c in cols:
                self.clash[r] |= self.col_rows[c]
        self.branch_memo: dict[tuple[int, ...], int] = {}

    def search(self, rng: random.Random | None = None, limit: int | None = None,
               node_budget: int | None = None) -> list[tuple[int, ...]] | None:
        """Every exact cover (sorted row tuples) in search order, or the
        first ``limit`` of them; None when more than ``node_budget`` rows
        were tried first.  The branch column is the lowest-index open
        column with the fewest free rows (read from the branch memo near
        the root when ``rng`` is given), its free rows are tried in
        ascending order (shuffled by ``rng`` if given), and each tried row
        counts one node."""
        col_rows, row_cols, clash = self.col_rows, self.row_cols, self.clash
        memo = self.branch_memo
        memo_depth = 0 if rng is None else _BRANCH_MEMO_DEPTH
        solutions: list[tuple[int, ...]] = []
        nodes = 0

        def dfs(free: int, open_cols: int, chosen: tuple[int, ...]) -> bool:
            nonlocal nodes
            if not open_cols:
                solutions.append(tuple(sorted(chosen)))
                return limit is not None and len(solutions) >= limit
            if len(chosen) < memo_depth and chosen in memo:
                best_rows = col_rows[memo[chosen]] & free
            else:
                best_rows, best_count, best_low = 0, None, 0
                cols = open_cols
                while cols:
                    low = cols & -cols
                    cols ^= low
                    live = col_rows[low.bit_length() - 1] & free
                    count = live.bit_count()
                    if best_count is None or count < best_count:
                        best_rows, best_count, best_low = live, count, low
                        if count == 0:
                            break
                if len(chosen) < memo_depth:
                    memo[chosen] = best_low.bit_length() - 1
            if not best_rows:
                return False
            cands = []
            while best_rows:
                low = best_rows & -best_rows
                best_rows ^= low
                cands.append(low.bit_length() - 1)
            if rng is not None:
                rng.shuffle(cands)
            for r in cands:
                nodes += 1
                if node_budget is not None and nodes > node_budget:
                    return True
                if dfs(free & ~clash[r], open_cols & ~row_cols[r], chosen + (r,)):
                    return True
            return False

        dfs((1 << self.n_rows) - 1, (1 << self.n_cols) - 1, ())
        if node_budget is not None and nodes > node_budget:
            return None
        return solutions


def _block_maps(params: ParamSet, row_sets: Iterable[Sequence[tuple]]) -> list[list[int]]:
    """For each row set, the permutation of the canonical k-subspace indices
    by the g that sends e_i to row i of the set and the other e_i, in order,
    to the unit rows of the non-pivot columns of the set's span.

    Independent rows and those unit rows are a basis of F_q^n, so g is
    invertible; a dependent row set raises RuntimeError.  g permutes the
    t-subspaces, and a block is the span of its t-subspaces, so its image
    is the block whose t-subspace set is the image of its own.
    """
    n, q = params.n, params.q
    ctx = design_context(params)
    fld = field(q)
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    tid = {s.key: i for i, s in enumerate(ctx.t_subspaces)}
    kid = {tuple(sorted(tids)): b for b, tids in enumerate(ctx.cover)}
    maps = []
    for rows in row_sets:
        pivots = rref(rows, fld)[1]
        if len(pivots) != len(rows):
            raise RuntimeError("a block map's rows are dependent")
        g = list(rows) + [units[c] for c in range(n) if c not in pivots]
        image = [tid[subspace_from_rows(gf_matmul(s.basis, g, fld), n, q).key]
                 for s in ctx.t_subspaces]
        maps.append([kid[tuple(sorted(map(image.__getitem__, c)))] for c in ctx.cover])
    return maps


def _class_maps(params: ParamSet) -> dict[int, list[int]]:
    """For each block B_j through T0, the permutation of the canonical
    k-subspace indices by g_j (``_block_maps``), which maps e_i to row i of
    B_j's RREF basis for i < k, and so B0 onto B_j.  T0 and B0 are t- and
    k-subspace 0, as ``designs_through_two_blocks`` checks."""
    ctx = design_context(params)
    through_t0 = [b for b, tids in enumerate(ctx.cover) if 0 in tids]
    return dict(zip(through_t0, _block_maps(
        params, [ctx.k_subspaces[b].basis for b in through_t0])))


def designs_through_two_blocks(
        params: ParamSet) -> tuple[list[tuple[int, ...]], int, int, dict[int, list[int]]]:
    """The designs through B0 = span(e_0..e_(k-1)) and C0 = span(e_k..e_(2k-1)),
    in search order; C0's index; the number of classes, [n-1 k-1]_q; and for
    each block C_j through P = span(e_k) skew to B0, the permutation h_j of
    the k-subspace indices (``_block_maps``) that fixes e_0..e_(k-1) and
    maps e_(k+i) to row i of C_j's RREF basis, keyed by C_j.

    For t = 1 a design is a spread.  Every design has one block B_j through
    T0 = span(e_0), and g_j of ``_class_maps`` maps the designs through B0
    one-to-one onto those through B_j.  Every design through B0 has one
    block through P, and it is skew to B0, so it is one of the C_j; h_j
    fixes B0 and maps C0 onto C_j, so it maps the designs through {B0, C0}
    one-to-one onto those through {B0, C_j}.  Hence
    N = classes * len(maps) * N00.  The search keeps B0 and C0 and empties
    every other row through T0 or P, so row indices stay canonical.

    Inadmissible parameters give no designs, unsearched; t >= 2 and over
    _ENUMERATION_NODE_BUDGET nodes raise ValueError; RuntimeError if T0 or
    B0 is not subspace 0, or C0 does not hold P or meets B0.
    """
    t, k, n, q = params.t, params.k, params.n, params.q
    if n < 2 * k:
        raise ValueError("nontrivial enumeration needs n >= 2k")
    ctx = design_context(params)
    if t != 1:
        raise ValueError("two-level enumeration needs t = 1")
    units = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    if ctx.t_subspaces[0].basis != units[:t] or ctx.k_subspaces[0].basis != units[:k]:
        raise RuntimeError("canonical order does not start with span(e_0..e_(k-1))")
    p = ctx.t_subspaces.index(subspace_from_rows(units[k:k + 1], n, q))
    c0 = ctx.k_subspaces.index(subspace_from_rows(units[k:2 * k], n, q))
    b0 = set(ctx.cover[0])
    if p not in ctx.cover[c0] or not b0.isdisjoint(ctx.cover[c0]):
        raise RuntimeError("C0 does not hold P = span(e_k) or meets B0")
    classes = sum(1 for tids in ctx.cover if 0 in tids)
    if not params.admissible:
        return [], c0, classes, {}
    rows = [() if b not in (0, c0) and (0 in tids or p in tids) else tids
            for b, tids in enumerate(ctx.cover)]
    found = _ExactCover(len(ctx.t_subspaces), rows).search(node_budget=_ENUMERATION_NODE_BUDGET)
    if found is None:
        raise ValueError(
            f"enumeration gave up after {_ENUMERATION_NODE_BUDGET} exact-cover nodes "
            f"for the designs through two blocks; use dimension --sample instead"
        )
    skew = [c for c, tids in enumerate(ctx.cover) if p in tids and b0.isdisjoint(tids)]
    return found, c0, classes, dict(zip(skew, _block_maps(
        params, [units[:k] + ctx.k_subspaces[c].basis for c in skew])))


def enumerate_steiner(params: ParamSet) -> list[tuple[int, ...]]:
    """Every labeled design, exactly once, as the sorted list of sorted
    block-index tuples: each design through B0 and C0
    (``designs_through_two_blocks``) mapped by every h_j, then by every g_j
    of ``_class_maps``.  Inadmissible parameters give []; more than
    _ENUMERATION_OUTPUT_GUARD blocks in all raise ValueError before any
    design is mapped."""
    found, _, classes, pair_maps = designs_through_two_blocks(params)
    if not found:
        return []
    n_designs = classes * len(pair_maps) * len(found)
    if n_designs * len(found[0]) > _ENUMERATION_OUTPUT_GUARD:
        raise ValueError(
            f"enumeration output guard exceeded: {n_designs} designs of {len(found[0])} "
            f"blocks (<= {_ENUMERATION_OUTPUT_GUARD} blocks in all); use dimension instead")
    through_b0 = [tuple(map(h.__getitem__, d)) for h in pair_maps.values() for d in found]
    return sorted(tuple(sorted(map(g.__getitem__, d)))
                  for g in _class_maps(params).values() for d in through_b0)


@dataclass
class SampleResult:
    designs: list[tuple[int, ...]]
    complete: bool
    attempts: int


def sample_steiner(params: ParamSet, seed: int, count: int) -> SampleResult:
    """Up to ``count`` distinct designs by seeded randomized descent.

    Each attempt runs the exact-cover search with randomly shuffled branch
    order and stops at its first solution; duplicates are discarded.  Fully
    deterministic given the seed, and a larger count extends a smaller one.
    The attempt budget of 200 + 50 * count stands in for a timeout so that
    runs stay reproducible; running out marks the result incomplete.
    """
    return next(sample_steps(params, seed, (count,)))


def sample_steps(params: ParamSet, seed: int, counts: Iterable[int]):
    """``sample_steiner(params, seed, c)`` for each c of the non-decreasing
    counts, drawn from one seeded stream of attempts; each count is read
    only when its result is asked for, and one below the count before it
    (or below 0) raises ValueError.

    An attempt draws the same random numbers whatever the count, so the
    result for c is a prefix of the stream: the distinct designs found
    within 200 + 50 * c attempts, up to c of them.  Each step goes on from
    where the last one stopped instead of starting over.  All attempts
    share one ``_ExactCover``, and so its branch memo.
    """
    if params.n < 2 * params.k:
        raise ValueError("nontrivial sampling needs n >= 2k")
    ctx = design_context(params)
    admissible = params.admissible
    rng = random.Random(seed)
    cover = _ExactCover(len(ctx.t_subspaces), ctx.cover)
    found: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    attempts = previous = 0
    for count in counts:
        if count < previous:
            raise ValueError(f"sample count {count} is below {previous}")
        previous = count
        if count == 0 or not admissible:
            yield SampleResult([], admissible, 0)
            continue
        budget = 200 + 50 * count
        while len(found) < count and attempts < budget:
            attempts += 1
            # None (node budget spent) is a failed attempt, like no solution
            sols = cover.search(rng=rng, limit=1, node_budget=20000)
            if sols and sols[0] not in seen:
                seen.add(sols[0])
                found.append(sols[0])
        yield SampleResult(list(found), len(found) >= count, attempts)


# ---------------------------------------------------------------------------
# incidence / inclusion matrices
# ---------------------------------------------------------------------------

def incidence_matrix(params: ParamSet, designs: Sequence[Sequence[int]]) -> ExactMatrix:
    """0/1 matrix, rows = canonical Gr_{n,k}, columns = the given designs."""
    size = len(design_context(params).k_subspaces)
    _check_block_indices(size, designs)
    cols = [set(d) for d in designs]
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
    kappa: Fraction
    kappa_i: tuple[Fraction, ...]  # indexed 0..t


def gram_coefficients(n_designs: int, params: ParamSet) -> GramCoefficients:
    return GramCoefficients(
        kappa=kappa_formula(n_designs, params),
        kappa_i=tuple(
            kappa_i_formula(n_designs, i, params) for i in range(params.t + 1)
        ),
    )


def gram_matrix(params: ParamSet, designs: Sequence[Sequence[int]]) -> ExactMatrix:
    """U U^T built straight from the block lists, without forming U.

    Entry (x, y) counts the designs containing both blocks x and y, so the
    diagonal holds the row sums of U.  Costs N b^2 additions for N designs
    of b blocks each.  An index outside the k-subspaces raises.
    """
    size = len(design_context(params).k_subspaces)
    _check_block_indices(size, designs)
    data = [[0] * size for _ in range(size)]
    for d in designs:
        for x in d:
            row = data[x]
            for y in d:
                row[y] += 1
    return ExactMatrix(data, cols=size)


def empirical_pair_counts(gram: ExactMatrix,
                          scheme: SchemeInstance) -> dict[int, set[int]]:
    """Every entry of U U^T, or of its leading rows (such as row B0 alone),
    bucketed by the intersection dimension of its two blocks; the diagonal
    is bucket k.

    Entry (x, y) counts the designs containing both blocks, so constancy per
    bucket is the empirical well-definedness of kappa and the pair
    coefficients.  Raises unless there are [n k] columns and at most [n k]
    rows.
    """
    if gram.cols != scheme.size or gram.rows > scheme.size:
        raise ValueError("Gram matrix shape does not match the scheme size")
    buckets: dict[int, set[int]] = {}
    for row, relations in zip(gram.data, scheme.relation):
        for entry, i in zip(row, relations):
            buckets.setdefault(scheme.k - i, set()).add(entry)
    return buckets


def gram_check(buckets: dict[int, set[int]], coeffs: GramCoefficients,
               k: int) -> bool:
    """U U^T == kappa I + sum_i kappa_i A_(k-i), read from the buckets of
    ``empirical_pair_counts``: bucket k holds only kappa, bucket i <= t only
    kappa_i and every bucket above t only 0.  Any subset of the buckets may
    be passed; each is checked on its own."""
    for dim, entries in buckets.items():
        if dim == k:
            expected = coeffs.kappa
        elif dim < len(coeffs.kappa_i):
            expected = coeffs.kappa_i[dim]
        else:
            expected = 0
        if entries != {expected}:
            return False
    return True


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
    return kappa * (
        1
        + (-1) ** r
        * q_pow(choose2(r) - k * r + k, q)
        / gauss_binom(n - k - 1, r - 1, q)
        * kernel_sum(n, k, t, r, q)
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
    dense: ExactMatrix | None  # U U^T, built only when the algebra's proof fails

    @property
    def ok(self) -> bool:
        return self.trace_ok and all(c.ok for c in self.checks)


def verify_gram_spectrum(params: ParamSet, scheme: SchemeInstance, coefficients: list[int],
                         kappa: Fraction) -> GramSpectrumReport:
    """Rank-deficiency test of U U^T = sum_d coefficients[d] A_(k-d) against
    the closed-form spectrum, proven in the Bose-Mesner algebra of the
    scheme of the parameters' k-subspaces (``element_rank_checks``).

    Exactly equal eigenvalues are grouped before asserting the deficiency;
    the trace, coefficients[k] * [n k]_q, must equal [n k]_q * kappa.
    """
    spec = mu_spectrum(params, kappa)
    checks, dense = element_rank_checks(scheme, coefficients[::-1], spec)
    trace = coefficients[params.k] * scheme.size
    trace_ok = trace == sum(v * m for _, v, m in spec) == scheme.size * Fraction(kappa)
    return GramSpectrumReport(spec, checks, trace_ok, dense)


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

@cache
def _inclusion_ranks(params: ParamSet) -> tuple[int, int]:
    """Proven lower bounds on (rank W, rank of the row differences
    W_i - W_0) of the inclusion matrix, computed once per parameter set:
    the rank of W mod _RANK_PRIME, and one less, since the rows of W span
    at most one dimension more than their differences."""
    w_rank = rank_mod_p(inclusion_matrix(params), _RANK_PRIME)
    return w_rank, w_rank - 1


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
        return self.annihilation_ok and self.lower_bound == self.upper_bound == self.target

    def to_dict(self) -> dict:
        return {**asdict(self), "meets": self.meets}


def rank_certificate(params: ParamSet, designs: Sequence[Sequence[int]]) -> RankCertificate:
    """Two-sided certificate for the span of the characteristic vectors.

    Upper bound: W u = 1 for every verified design u, so the row
    differences W_i - W_0 annihilate U, and their rank over Q is at least
    rank(W) - 1 >= w_rank - 1, w_rank being W's rank mod _RANK_PRIME:
    rank(U) <= [n k] - w_rank + 1.  A deficient w_rank only raises this
    bound, so the certificate can fail but never pass falsely.  Lower
    bound: the exact rank over Q of the columns actually collected.  The
    certificate meets when both bounds hit [n k] - [n t] + 1.

    Column d of W U is the t-subspace coverage vector of design d, so the
    annihilation test is design verification of every collected column.

    The lower bound is read first as the rank of U over F_2, one packed word
    per design: an integer matrix's rank mod 2 is at most its rank over Q.
    When that meets a proven ceiling on rank(U) (the number of designs,
    [n k], and the upper bound once it is proven), it is the exact rank, and
    the elimination stops as soon as it does; otherwise rank(U U^T), which
    equals rank(U) over Q, is taken by Bareiss, and refused with ValueError
    when [n k] exceeds _GRAM_RANK_GUARD.
    """
    size_k = int(gauss_binom(params.n, params.k, params.q))
    annihilation_ok = all(verify_design_ids(params, d).ok for d in designs)
    w_rank, row_diff_rank = _inclusion_ranks(params)
    upper_bound = size_k - w_rank + 1
    ceiling = min(len(designs), size_k)
    if annihilation_ok:
        ceiling = min(ceiling, upper_bound)
    # the F_2 rank is at most the rank over Q, so at most the ceiling: once
    # the basis holds that many rows no word can raise it, and the words go
    # in `ceiling` at a time, after the basis so far
    words = (sum(1 << b for b in d) for d in designs)
    basis: dict[int, int] = {}
    while len(basis) < ceiling and (batch := list(islice(words, ceiling))):
        basis = _f2_eliminate(chain(basis.values(), batch))
    rank = len(basis)
    if rank != ceiling:
        if size_k > _GRAM_RANK_GUARD:
            raise ValueError(
                f"Gram rank guard exceeded: the F_2 rank {rank} of U misses its ceiling "
                f"{ceiling} and [n k] {size_k} > {_GRAM_RANK_GUARD}; sample more designs")
        rank = rank_exact(gram_matrix(params, designs))
    return RankCertificate(
        n_designs=len(designs),
        w_rank=w_rank,
        row_diff_rank=row_diff_rank,
        annihilation_ok=annihilation_ok,
        upper_bound=upper_bound,
        lower_bound=rank,
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


def design_from_dict(obj: dict) -> tuple[ParamSet, list[tuple]]:
    """Parse one design object into its parameters and the canonical RREF
    key of each block (``Subspace.key``), with no Subspace built; raises
    ValueError on any schema, dimension, or field-encoding problem."""
    if not isinstance(obj, dict):
        raise ValueError("design object must be a JSON object")
    missing = {"q", "n", "k", "t", "blocks"} - obj.keys()
    if missing:
        raise ValueError(f"missing keys: {sorted(missing)}")
    q, n, k, t = obj["q"], obj["n"], obj["k"], obj["t"]
    if any(type(v) is not int for v in (q, n, k, t)):  # rejects bool too
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
            blocks.append(_rref_key(mat, n, q, expect_dim=k))
        except ValueError as exc:
            raise ValueError(f"block {idx}: {exc}") from exc
    return params, blocks


def _only_f2(obj: dict) -> dict:
    """json's object hook in ``_read_f2_designs``: the parse stops at the
    first object with a block list whose q is not the int 2."""
    if "blocks" in obj and not (type(q := obj.get("q")) is int and q == 2):
        raise ValueError("not a design over F_2")
    return obj


def _read_f2_designs(text: str) -> list[tuple[ParamSet, list[tuple]]] | None:
    """The designs of a design file's text when every one is over F_2 and
    its block list is a plain 0/1 array, read with no nested lists built;
    None for any other text, text that is not JSON included.

    Each block list, from the ``[`` after a ``"blocks"`` key to the last
    ``]`` before the next ``"`` or ``}``, is cut out for a ``NaN``, which
    ``json.loads`` reads as the cut's (start, end).  The text is taken only
    if the cuts are the designs' ``blocks``, one each, with no other
    constant, and each matches its template (``_f2_text_blocks``).  The
    parse gives up at the first design over another field (``_only_f2``).
    """
    cuts = []
    for match in re.finditer(r'"blocks"[ \t\n\r]*:[ \t\n\r]*\[', text):
        i = match.end() - 1
        brace = text.find("}", i)
        quote = text.find('"', i, brace)
        if end := text.rfind("]", i, brace if quote < 0 else quote) + 1:
            cuts.append((i, end))
    bounds = [0, *chain.from_iterable(cuts), len(text)]
    marks, other = iter(cuts), []
    try:
        obj = json.loads("NaN".join(text[a:b] for a, b in zip(bounds[::2], bounds[1::2])),
                         parse_constant=lambda name: next(marks, None) or other.append(name),
                         object_hook=_only_f2)
    except ValueError:
        return None
    objs = obj if type(obj) is list else [obj]
    if other or not cuts or [type(o) is dict and o.get("blocks") for o in objs] != cuts:
        return None
    designs = []
    for o in objs:
        q, n, k, t = map(o.get, "qnkt")
        if (any(type(v) is not int for v in (q, n, k, t)) or q != 2 or not 1 <= t < k <= n
                or (blocks := _f2_text_blocks(text, *o["blocks"], n, k)) is None):
            return None
        designs.append((ParamSet(t=t, k=k, n=n, q=q), blocks))
    return designs


def load_design_file(path: str | Path) -> list[tuple[ParamSet, list[tuple]]]:
    """Load one design object or an array of them from a JSON file, as
    (params, block keys) pairs: each block is its canonical RREF key, the
    input ``verify_design`` takes.  A file of F_2 designs is read from its
    text (``_read_f2_designs``); any other file (another field, a block list
    in any other form, a rank-deficient block, bad parameters, an empty
    array, a byte order mark, text that is not JSON) is parsed by
    ``json.loads`` and walked block by block, which names what is wrong,
    and a design in an array by its position.
    """
    text = Path(path).read_text(encoding="utf-8")
    if (designs := _read_f2_designs(text)) is not None:
        return designs
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"parse error: {exc}") from exc
    if obj == []:
        raise ValueError("no design in file")
    if not isinstance(obj, list):
        return [design_from_dict(obj)]
    designs = []
    for idx, o in enumerate(obj):
        try:
            designs.append(design_from_dict(o))
        except ValueError as exc:
            raise ValueError(f"design {idx}: {exc}") from exc
    return designs
