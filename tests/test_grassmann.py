import itertools
from fractions import Fraction

import pytest

from qsteiner.exactq import gauss_binom, q_pow
from qsteiner.gfspaces import intersection_dim
from qsteiner.grassmann import (
    SchemeInstance,
    _algebra_multiplicities,
    _annihilator_multiplicities,
    eberlein_eigenvalue,
    eigenspace_multiplicity,
    eisfeld_eigenvalue,
    element_rank_checks,
    rank_checks,
    verify_spectrum,
)
from qsteiner.linalg import ExactMatrix, mat_mul, rank_exact

from oracles import filled, identity, row_sums

CRITERION_2_GRID = [(4, 2, 2), (5, 2, 2), (4, 2, 3)]
# the schemes with [n k] <= 400 that the algebra is checked on, n < 2k included
SMALL_SCHEMES = [(4, 2, 2), (4, 2, 3), (4, 2, 4), (5, 2, 2), (5, 3, 2), (4, 3, 2),
                 (3, 1, 2), (4, 1, 3), (3, 1, 4)]


def _bareiss_ranks(matrix, values):
    """rank(matrix - v*I) by elimination, per distinct v in first-appearance order."""
    distinct = dict.fromkeys(v for _, v, _ in values)
    return [rank_exact(matrix.shifted(v)) for v in distinct]


def test_eberlein_examples():
    for x in range(4):
        assert eberlein_eigenvalue(8, 3, 2, 0, x) == 1
    assert eberlein_eigenvalue(4, 2, 2, 2, 1) == -4
    assert eberlein_eigenvalue(4, 2, 2, 2, 2) == 2


def test_eisfeld_examples():
    assert eisfeld_eigenvalue(4, 2, 2, 1, 0) == 18
    assert eisfeld_eigenvalue(4, 2, 2, 2, 1) == -4
    for r in range(3):
        assert eisfeld_eigenvalue(4, 2, 2, 0, r) == 1
    with pytest.raises(ValueError):
        eisfeld_eigenvalue(4, 2, 2, 3, 0)
    with pytest.raises(ValueError):
        eisfeld_eigenvalue(4, 2, 2, 1, 3)


def test_multiplicity_examples():
    assert eigenspace_multiplicity(4, 0, 2) == 1
    assert eigenspace_multiplicity(4, 1, 2) == 14
    assert eigenspace_multiplicity(4, 2, 2) == 20


def test_eigenvalue_formulas_agree_on_grid():
    for q in (2, 3, 4, 5):
        for n in range(1, 11):
            for k in range(n // 2 + 1):
                for i in range(k + 1):
                    for r in range(min(k, n - k) + 1):
                        assert eisfeld_eigenvalue(n, k, q, i, r) == eberlein_eigenvalue(
                            n, k, q, i, r
                        ), (n, k, q, i, r)


def test_valency_is_r0_eigenvalue_and_row_sum():
    scheme = SchemeInstance(4, 2, 2)
    for i in range(3):
        valency = eisfeld_eigenvalue(4, 2, 2, i, 0)
        assert valency == q_pow(i * i, 2) * gauss_binom(2, i, 2) * gauss_binom(2, i, 2)
        assert set(row_sums(scheme.adjacency_matrix(i))) == {valency}


def test_adjacency_basics():
    scheme = SchemeInstance(4, 2, 2)
    assert scheme.adjacency_matrix(0) == identity(35)
    assert set(row_sums(scheme.adjacency_matrix(1))) == {18}
    assert set(row_sums(scheme.adjacency_matrix(2))) == {16}
    # the relations partition every pair: A_0 + A_1 + A_2 = J
    total = [[sum(entries) for entries in zip(*rows)]
             for rows in zip(*(scheme.adjacency_matrix(i).data for i in range(3)))]
    assert ExactMatrix(total) == filled(35, 35, 1)
    for i in range(3):
        a = scheme.adjacency_matrix(i)
        assert all(
            a.data[x][y] == a.data[y][x] for x in range(35) for y in range(35)
        )
    with pytest.raises(ValueError):
        scheme.adjacency_matrix(3)


def test_scheme_guard():
    with pytest.raises(ValueError):
        SchemeInstance(8, 4, 2)  # [8 4]_2 = 200787 > 2000


def test_verify_spectrum_small_instance():
    report = verify_spectrum(SchemeInstance(4, 2, 2))
    assert report.ok
    assert report.multiplicities == [1, 14, 20]
    rel2 = report.relations[2]
    by_value = {c.value: c for c in rel2.rank_checks}
    assert by_value[Fraction(2)].rank == 15
    assert by_value[Fraction(2)].expected_rank == 15
    # trace identity: 1*16 + 14*(-4) + 20*2 = 0
    assert sum(m * v for _, v, m in rel2.eigenvalues) == 0
    rel0 = report.relations[0]
    assert len(rel0.rank_checks) == 1 and rel0.rank_checks[0].rank == 0


def test_association_scheme_closure_structure_constants():
    scheme = SchemeInstance(4, 2, 2)
    size = scheme.size
    for i, j in itertools.product(range(3), repeat=2):
        prod = mat_mul(scheme.adjacency_matrix(i), scheme.adjacency_matrix(j))
        per_relation: dict[int, set] = {}
        for x in range(size):
            for y in range(size):
                per_relation.setdefault(scheme.relation[x][y], set()).add(
                    prod.data[x][y]
                )
        # product is constant on every relation class: lies in the span of A_m
        assert all(len(vals) == 1 for vals in per_relation.values()), (i, j)


@pytest.mark.parametrize("nkq", SMALL_SCHEMES)
def test_intersection_numbers_multiply_the_adjacency_matrices(nkq):
    """The counted p[h][i][j] against dense products, entry for entry:
    A_i A_j = sum_h p[h][i][j] A_h."""
    scheme = SchemeInstance(*nkq)
    p = scheme.intersection_numbers
    a = [scheme.adjacency_matrix(h) for h in range(scheme.k + 1)]
    for i, j in itertools.product(range(scheme.k + 1), repeat=2):
        expected = [[sum(p[h][i][j] * a[h].data[x][y] for h in range(scheme.k + 1))
                     for y in range(scheme.size)] for x in range(scheme.size)]
        assert mat_mul(a[i], a[j]) == ExactMatrix(expected), (nkq, i, j)


@pytest.mark.parametrize("nkq", SMALL_SCHEMES)
def test_algebra_ranks_match_the_dense_spectrum(nkq):
    """Each A_i's multiplicities, proven on (k+1)-vectors, give the ranks
    that verify_spectrum decides on the dense A_i."""
    scheme = SchemeInstance(*nkq)
    for rel in verify_spectrum(scheme).relations:
        e_i = [int(h == rel.i) for h in range(scheme.k + 1)]
        distinct = list(dict.fromkeys(v for _, v, _ in rel.eigenvalues))
        assert _algebra_multiplicities(scheme, e_i, distinct) is not None, (nkq, rel.i)
        checks, _ = element_rank_checks(scheme, e_i, rel.eigenvalues)
        assert checks == rel.rank_checks, (nkq, rel.i)


def _switched(relation):
    """(a, b), (c, d) in relation 1 and (a, d), (c, b) in relation 2, both
    ways round, exchanged: the relation stays symmetric and keeps every
    valency, so only the intersection counts can catch it."""
    size = len(relation)
    a, b, c, d = next(
        (0, b, c, d)
        for b in range(size) if relation[0][b] == 1
        for c in range(1, size) if c != b and relation[c][b] == 2
        for d in range(1, size)
        if d not in (b, c) and relation[c][d] == 1 and relation[0][d] == 2
    )
    for x, y, h in ((a, b, 2), (c, d, 2), (a, d, 1), (c, b, 1)):
        relation[x][y] = relation[y][x] = h


def _one_pair(relation):
    y = relation[0].index(1)
    relation[0][y] = relation[y][0] = 2


def _one_row(relation):
    """Row 0 alone with a relation-1 and a relation-2 entry swapped: its
    valencies stay, but the relation is no longer symmetric."""
    y1, y2 = relation[0].index(1), relation[0].index(2)
    relation[0][y1], relation[0][y2] = 2, 1


@pytest.mark.parametrize("change", [_switched, _one_pair, _one_row])
def test_intersection_numbers_refuse_a_changed_relation(change):
    scheme = SchemeInstance(4, 2, 2)
    changed = [row[:] for row in scheme.relation]
    change(changed)
    assert changed != scheme.relation
    scheme.relation = changed
    assert scheme.intersection_numbers is None
    assert _algebra_multiplicities(scheme, [0, 0, 1], [v for _, v, _ in A2_SPECTRUM]) is None


def test_spectrum_report_serialization():
    report = verify_spectrum(SchemeInstance(4, 2, 2))
    d = report.to_dict()
    assert d["ok"] is True
    assert d["size"] == 35
    assert len(d["relations"]) == 3
    assert d["relations"][1]["eigenvalues"][0] == {
        "r": 0,
        "value": "18",
        "multiplicity": 1,
    }


@pytest.mark.parametrize("nkq", CRITERION_2_GRID)
def test_relation_table_reads_shared_points(nkq):
    scheme = SchemeInstance(*nkq)
    subs = scheme.subspaces
    for x in range(scheme.size):
        for y in range(scheme.size):
            assert scheme.relation[x][y] == scheme.k - intersection_dim(
                subs[x], subs[y]
            ), (nkq, x, y)


@pytest.mark.parametrize("nkq", CRITERION_2_GRID)
def test_annihilator_ranks_match_bareiss_on_every_relation(nkq):
    scheme = SchemeInstance(*nkq)
    for rel in verify_spectrum(scheme).relations:
        a_i = scheme.adjacency_matrix(rel.i)
        distinct = list(dict.fromkeys(v for _, v, _ in rel.eigenvalues))
        assert _annihilator_multiplicities(a_i, distinct) is not None, (nkq, rel.i)
        assert [c.rank for c in rel.rank_checks] == _bareiss_ranks(a_i, rel.eigenvalues)


A2_SPECTRUM = [(0, Fraction(16), 1), (1, Fraction(-4), 14), (2, Fraction(2), 20)]


@pytest.mark.parametrize(
    "values",
    [
        # a perturbed candidate: 3 is not an eigenvalue and 2 is missing
        [(0, Fraction(16), 1), (1, Fraction(-4), 14), (2, Fraction(3), 20)],
        # a candidate set that omits the true eigenvalue 2
        A2_SPECTRUM[:2],
        # a non-integral candidate
        A2_SPECTRUM + [(3, Fraction(1, 2), 0)],
    ],
)
def test_rank_checks_fall_back_to_bareiss(values):
    scheme = SchemeInstance(4, 2, 2)
    a_2 = scheme.adjacency_matrix(2)
    distinct = list(dict.fromkeys(v for _, v, _ in values))
    assert _annihilator_multiplicities(a_2, distinct) is None
    assert [c.rank for c in rank_checks(a_2, values)] == _bareiss_ranks(a_2, values)
    # the same proof in the algebra fails too, and the dense A_2 is ranked
    assert _algebra_multiplicities(scheme, [0, 0, 1], distinct) is None
    checks, dense = element_rank_checks(scheme, [0, 0, 1], values)
    assert dense == a_2
    assert [c.rank for c in checks] == _bareiss_ranks(a_2, values)


def test_rank_checks_fall_back_on_a_non_symmetric_matrix():
    # diagonalizable with eigenvalues 1 and 2, but not symmetric
    m = ExactMatrix([[1, 1], [0, 2]])
    values = [(0, Fraction(1), 1), (1, Fraction(2), 1)]
    assert _annihilator_multiplicities(m, [Fraction(1), Fraction(2)]) is None
    assert [c.rank for c in rank_checks(m, values)] == _bareiss_ranks(m, values) == [1, 1]


def test_annihilator_multiplicities_of_the_true_spectrum():
    a_2 = SchemeInstance(4, 2, 2).adjacency_matrix(2)
    assert _annihilator_multiplicities(a_2, [v for _, v, _ in A2_SPECTRUM]) == [1, 14, 20]
    # a candidate that is not an eigenvalue gets multiplicity 0 and full rank
    values = A2_SPECTRUM + [(3, Fraction(7), 0)]
    assert _annihilator_multiplicities(a_2, [v for _, v, _ in values]) == [1, 14, 20, 0]
    assert [c.rank for c in rank_checks(a_2, values)] == [34, 21, 15, 35]
    scheme = SchemeInstance(4, 2, 2)
    assert _algebra_multiplicities(scheme, [0, 0, 1], [v for _, v, _ in values]) == [1, 14, 20, 0]
    checks, dense = element_rank_checks(scheme, [0, 0, 1], values)
    assert [c.rank for c in checks] == [34, 21, 15, 35] and dense is None
    # an element of the wrong length or with a non-integer coordinate is not proven
    for element in ([0, 1], [0, 0, 1, 0], [0, 0, Fraction(1)]):
        assert _algebra_multiplicities(scheme, element, [v for _, v, _ in values]) is None


@pytest.mark.parametrize(
    "matrix, value, rank",
    [
        (SchemeInstance(4, 2, 2).adjacency_matrix(0), Fraction(1), 0),
        (SchemeInstance(4, 2, 2).adjacency_matrix(2), Fraction(2), 15),
    ],
    ids=["scalar", "not-scalar"],
)
def test_rank_checks_rank_a_single_value_by_bareiss(matrix, value, rank):
    values = [(0, value, 1), (1, value, 2)]
    [check] = rank_checks(matrix, values)
    assert check.rank == rank_exact(matrix.shifted(value)) == rank
