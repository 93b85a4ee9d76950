"""Test oracles: plain constructions that the tests compare the library against.

Nothing in the package needs these; each is the obvious definition, kept
here so that the checks built on it stay independent of the code under test.
"""

from qsteiner.gfspaces import Subspace, _coverage_keys, intersection_dim
from qsteiner.linalg import ExactMatrix, Scalar
from qsteiner.steiner import Design, design_context


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
