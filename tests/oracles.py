"""Test oracles: plain constructions that the tests compare the library against.

Nothing in the package needs these; each is the obvious definition, kept
here so that the checks built on it stay independent of the code under test.
"""

import json
from collections import Counter
from itertools import compress
from operator import mul
from pathlib import Path

from qsteiner.gfspaces import (
    Subspace,
    _coverage_keys,
    _free_positions,
    _pivot_sets_colex,
    field,
    gf_matmul,
    grassmannian,
    intersection_dim,
    iter_subspaces,
    subspace_from_rows,
)
from qsteiner.linalg import ExactMatrix, Scalar
from qsteiner.steiner import (
    Design,
    ParamSet,
    VerificationResult,
    _first_miss,
    design_context,
    design_to_dict,
)


def identity(n: int) -> ExactMatrix:
    return ExactMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def zeros(rows: int, cols: int) -> ExactMatrix:
    return ExactMatrix([[0] * cols for _ in range(rows)], cols=cols)


def filled(rows: int, cols: int, value: Scalar) -> ExactMatrix:
    return ExactMatrix([[value] * cols for _ in range(rows)], cols=cols)


def row_sums(m: ExactMatrix) -> list[Scalar]:
    return [sum(row) for row in m.data]


def col_sums(m: ExactMatrix) -> list[Scalar]:
    return [sum(row[j] for row in m.data) for j in range(m.cols)]


def transpose(m: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(
        [[m.data[i][j] for i in range(m.rows)] for j in range(m.cols)], cols=m.rows
    )


def mat_mul_schoolbook(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """a·b entry by entry: each entry the sum of a's row times b's column,
    multiplied only where the row is nonzero."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    bt = [[b.data[i][j] for i in range(b.rows)] for j in range(b.cols)]
    out = []
    for ra in a.data:
        nonzero = [x for x in ra if x]
        out.append([sum(map(mul, nonzero, compress(cb, ra))) for cb in bt])
    return ExactMatrix(out, cols=b.cols)


def per_intersection_counts(design: Design, i: int) -> set[int]:
    """#{Y != X : X ^ Y = I} over all blocks X and i-subspaces I of X."""
    params = design.params
    ctx = design_context(params)
    blocks = [ctx.k_subspaces[b] for b in design.blocks]
    counts = set()
    for x, bx in enumerate(blocks):
        for key in _coverage_keys(bx, i):
            ispace = Subspace(params.n, params.q, key)
            c = 0
            for y, by in enumerate(blocks):
                if y == x:
                    continue
                if intersection_dim(bx, by) == i and by.contains(ispace):
                    c += 1
            counts.add(c)
    return counts


def span_coverage_keys(block: Subspace, i: int) -> list[tuple[int, ...]]:
    """The F_2 keys of the i-subspaces of one block, from a table of all 2^k
    xors of its packed rows, in the order of grassmannian(k, i, 2)."""
    span = [0]
    for word in block.key:
        span += [s ^ word for s in span]
    return [tuple(map(span.__getitem__, w.key)) for w in grassmannian(block.dim, i, 2)]


def product_coverage_keys(block: Subspace, i: int) -> list[tuple]:
    """The keys of the i-subspaces of one block, each the RREF of W·B for a
    W of iter_subspaces(k, i, q) and B the block's basis, taken over F_q."""
    n, q = block.ambient, block.q
    fld = field(q)
    return [subspace_from_rows(gf_matmul(w.basis, block.basis, fld), n, q).key
            for w in iter_subspaces(block.dim, i, q)]


def verify_design_per_block(blocks, params: ParamSet) -> VerificationResult:
    """verify_design one block at a time: an ordered walk for malformed
    blocks, a per-block key table over F_2 or W·B products over F_q, and
    the witness walk over iter_subspaces."""
    t, k, n, q = params.t, params.k, params.n, params.q
    seen: dict = {}
    coverage: Counter = Counter()
    for idx, b in enumerate(blocks):
        if b.ambient != n or b.q != q:
            raise ValueError(f"block ambient/order mismatch: {b.ambient}, q={b.q}")
        if b.dim != k:
            raise ValueError(f"block of dimension {b.dim}, expected {k}")
        if (first := seen.setdefault(b.key, idx)) != idx:
            raise ValueError(f"block {idx} duplicates block {first}")
        coverage.update(span_coverage_keys(b, t) if q == 2 else product_coverage_keys(b, t))
    return _first_miss((s, coverage[s.key]) for s in iter_subspaces(n, t, q))


def canonical_index(s: Subspace) -> int:
    """Position of s in grassmannian(s.ambient, s.dim, s.q)."""
    n, q, k = s.ambient, s.q, s.dim
    idx = 0
    for pivots in _pivot_sets_colex(n, k):
        free = _free_positions(pivots, n)
        if pivots == s.pivots:
            val = 0
            for (i, j) in free:
                val = val * q + s.basis[i][j]
            return idx + val
        idx += q ** len(free)
    raise ValueError("subspace not in canonical form")


def save_design_file(path, params: ParamSet, blocks) -> None:
    """Write one design object in the JSON form that load_design_file reads."""
    Path(path).write_text(
        json.dumps(design_to_dict(params, blocks), sort_keys=True, indent=1) + "\n",
        encoding="utf-8",
    )
