import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import pytest

from qsteiner import steiner
from qsteiner.exactq import gauss_binom, gauss_binom_guard
from qsteiner.gfspaces import (
    Subspace,
    _f2_eliminate,
    field,
    gf_matmul,
    grassmannian,
    iter_subspaces,
    rows_rank,
    subspace_from_rows,
)
from qsteiner.grassmann import (
    SchemeInstance,
    _algebra_multiplicities,
    _annihilator_multiplicities,
    eisfeld_eigenvalue,
    element_rank_checks,
    rank_checks,
)
from qsteiner.linalg import ExactMatrix, mat_mul, rank_exact, rank_mod_p
from qsteiner.steiner import (
    _ExactCover,
    _block_maps,
    _class_maps,
    _first_miss,
    ParamSet,
    design_context,
    design_from_dict,
    design_to_dict,
    designs_through_two_blocks,
    dimension_formula,
    empirical_pair_counts,
    enumerate_steiner,
    gram_check,
    gram_coefficients,
    gram_matrix,
    incidence_matrix,
    inclusion_matrix,
    intersect_count,
    kappa_formula,
    kappa_i_formula,
    lambda_i,
    load_design_file,
    mu_eigenvalue,
    mu_spectrum,
    rank_certificate,
    sample_steiner,
    sample_steps,
    verify_design,
    verify_design_ids,
    verify_gram_spectrum,
)

from oracles import (
    block_keys,
    bucket_coefficients,
    block_subspaces,
    col_sums,
    coverage_keys,
    designs_through_one_block,
    enumerate_plain,
    per_intersection_counts,
    row_sums,
    save_design_file,
    transpose,
    verify_design_per_block,
    zeros,
)

PG32 = ParamSet(t=1, k=2, n=4, q=2)
PG33 = ParamSet(t=1, k=2, n=4, q=3)
P1362 = ParamSet(t=1, k=3, n=6, q=2)


def _sorted_distinct_ints(designs) -> bool:
    """Every design is a tuple of ints, strictly increasing."""
    return all(type(d) is tuple and all(type(b) is int for b in d)
               and list(d) == sorted(set(d)) for d in designs)


def test_param_validation():
    with pytest.raises(ValueError):
        ParamSet(t=2, k=2, n=5, q=2)  # t < k required
    with pytest.raises(ValueError):
        ParamSet(t=1, k=2, n=4, q=6)  # not a prime power
    with pytest.raises(ValueError):
        ParamSet(t=0, k=2, n=4, q=2)


def test_admissibility_and_block_count():
    assert PG32.admissible and PG32.lambdas[0] == 5  # lambda_0 is the block count
    bad = ParamSet(t=1, k=2, n=5, q=2)
    assert not bad.admissible  # 3 does not divide 31


def test_lambda_i_examples():
    assert lambda_i(PG32, 1) == 1  # i = t
    assert lambda_i(PG32, 0) == 5
    big = ParamSet(t=2, k=3, n=13, q=2)
    assert lambda_i(big, 1) == 1365  # [12 1]/[2 1] = 4095/3
    assert big.admissible


def test_enumeration_count_and_canonical_order():
    designs = enumerate_steiner(PG32)
    assert len(designs) == 56
    assert all(len(d) == 5 for d in designs)
    assert designs == sorted(designs)
    assert len(set(designs)) == 56
    # re-running produces identical output
    assert enumerate_steiner(PG32) == designs


@pytest.mark.parametrize("params, classes, per_class, class_nodes", [
    (PG32, 7, 8, 29), (PG33, 13, 648, 3682),
], ids=["PG32", "PG33"])
def test_enumeration_through_one_block_is_the_plain_search(params, classes, per_class,
                                                           class_nodes):
    """The designs through B0, mapped by each g_j, are exactly the plain
    search's designs: N = [n-t k-t]_q * N0.  The plain search takes
    exactly [n-t k-t]_q times the one-block search's nodes."""
    ctx = design_context(params)
    designs = enumerate_steiner(params)
    assert designs == enumerate_plain(params)
    assert _sorted_distinct_ints(designs)
    assert len(designs) == classes * per_class
    assert sum(0 in d for d in designs) == per_class
    found, n_classes = designs_through_one_block(params)
    assert n_classes == classes
    assert sorted(found) == [d for d in designs if 0 in d]
    plain = _ExactCover(len(ctx.t_subspaces), ctx.cover)
    assert plain.search(node_budget=classes * class_nodes) is not None
    assert plain.search(node_budget=classes * class_nodes - 1) is None
    rows = [() if b and 0 in tids else tids for b, tids in enumerate(ctx.cover)]
    one_block = _ExactCover(len(ctx.t_subspaces), rows)
    assert len(one_block.search(node_budget=class_nodes)) == per_class
    assert one_block.search(node_budget=class_nodes - 1) is None


@pytest.mark.parametrize("params, classes, pair_classes, n00, nodes", [
    (PG32, 7, 4, 2, 8), (PG33, 13, 9, 72, 410), (P1362, 155, 64, 192, 1370),
], ids=["PG32", "PG33", "1362"])
def test_search_through_two_blocks_takes_its_pinned_nodes(params, classes, pair_classes,
                                                          n00, nodes, monkeypatch):
    """The designs through B0 and C0 all hold both, and the search finds
    them in exactly ``nodes`` nodes: a budget one smaller refuses."""
    found, c0, n_classes, maps = designs_through_two_blocks(params)
    assert (n_classes, len(maps), len(found)) == (classes, pair_classes, n00)
    assert _sorted_distinct_ints(found) and len(set(found)) == n00
    assert all(0 in d and c0 in d for d in found)
    monkeypatch.setattr(steiner, "_ENUMERATION_NODE_BUDGET", nodes)
    assert designs_through_two_blocks(params)[0] == found
    monkeypatch.setattr(steiner, "_ENUMERATION_NODE_BUDGET", nodes - 1)
    with pytest.raises(ValueError, match=f"gave up after {nodes - 1} exact-cover nodes"):
        designs_through_two_blocks(params)


@pytest.mark.parametrize("params", [PG32, PG33], ids=["PG32", "PG33"])
def test_two_levels_mapped_are_the_plain_search(params):
    """The g_j o h_l images of the designs through B0 and C0 are the plain
    search's designs, each once: N = classes * len(maps) * N00."""
    found, _, classes, maps = designs_through_two_blocks(params)
    images = [tuple(sorted(g[h[b]] for b in d))
              for g in _class_maps(params).values() for h in maps.values() for d in found]
    assert sorted(images) == enumerate_plain(params)
    assert len(set(images)) == len(images) == classes * len(maps) * len(found)


def test_two_levels_match_one_level_on_1362():
    """On (1,3,6,2) the h_j images of the 192 designs through B0 and C0 are
    the one-level search's 12,288 designs through B0, so row B0 is the same."""
    one_level, classes = designs_through_one_block(P1362)
    found, _, n_classes, maps = designs_through_two_blocks(P1362)
    assert classes == n_classes == 155
    assert len(one_level) == 12288 == len(maps) * len(found) == 64 * 192
    images = [tuple(sorted(map(h.__getitem__, d))) for h in maps.values() for d in found]
    assert sorted(images) == sorted(one_level)
    assert (Counter(h[y] for h in maps.values() for d in found for y in d)
            == Counter(chain.from_iterable(one_level)))


@pytest.mark.parametrize("params", [PG32, PG33], ids=["PG32", "PG33"])
def test_class_maps_are_the_block_maps_of_g_j(params):
    """Each g_j permutes the k-subspaces, maps B0 onto B_j, maps every block
    onto the RREF of its basis times g_j, and every block's t-subspace set
    onto that image's t-subspace set."""
    n, q = params.n, params.q
    ctx = design_context(params)
    fld = field(q)

    def image(s, g):
        return subspace_from_rows(gf_matmul(s.basis, g, fld), n, q)

    maps = _class_maps(params)
    assert sorted(maps) == [b for b, tids in enumerate(ctx.cover) if 0 in tids]
    assert len(maps) == gauss_binom(n - params.t, params.k - params.t, q)
    for j, perm in maps.items():
        assert sorted(perm) == list(range(len(ctx.k_subspaces)))
        assert perm[0] == j
        block = ctx.k_subspaces[j]
        g = [list(row) for row in block.basis] + [
            [int(c == col) for c in range(n)] for col in range(n) if col not in block.pivots]
        assert rows_rank(g, fld) == n
        for b, s in enumerate(ctx.k_subspaces):
            assert ctx.k_subspaces[perm[b]] == image(s, g)
            t_set = {ctx.t_subspaces.index(image(ctx.t_subspaces[tid], g)) for tid in ctx.cover[b]}
            assert t_set == set(ctx.cover[perm[b]])


@pytest.mark.parametrize("params", [PG32, PG33], ids=["PG32", "PG33"])
def test_pair_maps_are_the_block_maps_of_h_j(params):
    """Each h_j permutes the k-subspaces, fixes B0, maps C0 onto C_j, one of
    the blocks through P = span(e_k) skew to B0, maps every block onto the
    RREF of its basis times h_j, and every block's t-subspace set onto that
    image's t-subspace set."""
    k, n, q = params.k, params.n, params.q
    ctx = design_context(params)
    fld = field(q)
    units = [[int(i == j) for j in range(n)] for i in range(n)]

    def image(s, h):
        return subspace_from_rows(gf_matmul(s.basis, h, fld), n, q)

    _, c0, _, maps = designs_through_two_blocks(params)
    assert ctx.k_subspaces[c0] == subspace_from_rows(units[k:2 * k], n, q)
    p = ctx.t_subspaces.index(subspace_from_rows(units[k:k + 1], n, q))
    b0 = set(ctx.cover[0])
    assert sorted(maps) == [c for c, tids in enumerate(ctx.cover)
                            if p in tids and not b0 & set(tids)]
    assert len(maps) == q ** 2  # the lines through a point of PG(3,q) off a line, skew to it
    for j, perm in maps.items():
        assert sorted(perm) == list(range(len(ctx.k_subspaces)))
        assert perm[0] == 0 and perm[c0] == j
        h = units[:k] + [list(row) for row in ctx.k_subspaces[j].basis]
        assert rows_rank(h, fld) == n
        for b, s in enumerate(ctx.k_subspaces):
            assert ctx.k_subspaces[perm[b]] == image(s, h)
            t_set = {ctx.t_subspaces.index(image(ctx.t_subspaces[tid], h)) for tid in ctx.cover[b]}
            assert t_set == set(ctx.cover[perm[b]])


def test_block_maps_complete_the_rows_and_refuse_dependent_ones():
    """For n > 2k the rows of B0 and a C through P skew to B0 are completed
    by unit rows to an invertible g, whose block map fixes B0 and sends C0
    to C; dependent rows raise instead of giving a map."""
    params = ParamSet(t=1, k=2, n=5, q=2)
    ctx = design_context(params)
    units = tuple(tuple(int(i == j) for j in range(5)) for i in range(5))
    c0 = ctx.k_subspaces.index(subspace_from_rows(units[2:4], 5, 2))
    c = subspace_from_rows([(1, 0, 1, 0, 1), (0, 1, 0, 1, 1)], 5, 2)
    [perm] = _block_maps(params, [units[:2] + c.basis])
    assert sorted(perm) == list(range(len(ctx.k_subspaces)))
    assert perm[0] == 0 and ctx.k_subspaces[perm[c0]] == c
    with pytest.raises(RuntimeError, match="dependent"):
        _block_maps(params, [units[:2] + units[1:3]])


def test_enumeration_inadmissible_is_empty():
    assert enumerate_steiner(ParamSet(t=1, k=2, n=5, q=2)) == []
    found, _, classes, maps = designs_through_two_blocks(ParamSet(t=1, k=2, n=5, q=2))
    assert (found, classes, maps) == ([], 15, {})


def test_search_through_one_block_refuses_another_canonical_order(monkeypatch):
    """B0 and T0 must be k- and t-subspace 0, the unit spans; an order that
    starts elsewhere raises before any search."""
    ctx = design_context(PG32)
    shuffled = SimpleNamespace(**vars(ctx))
    shuffled.k_subspaces = ctx.k_subspaces[::-1]
    monkeypatch.setattr(steiner, "design_context", lambda params: shuffled)
    with pytest.raises(RuntimeError, match="canonical order"):
        designs_through_two_blocks(PG32)


def test_search_through_two_blocks_refuses_a_c0_off_p_or_on_b0(monkeypatch):
    """C0 = span(e_k..e_(2k-1)) must hold P = span(e_k) and miss B0 in the
    cover table the search runs on; a table that says otherwise raises
    before any search."""
    _, c0, _, _ = designs_through_two_blocks(PG32)
    ctx = design_context(PG32)
    broken = SimpleNamespace(**vars(ctx))
    broken.cover = tuple(ctx.cover[0] if b == c0 else tids for b, tids in enumerate(ctx.cover))
    monkeypatch.setattr(steiner, "design_context", lambda params: broken)
    with pytest.raises(RuntimeError, match="C0"):
        designs_through_two_blocks(PG32)


def test_two_level_search_needs_t_one(monkeypatch):
    """Every t >= 2 instance is over design_context's guards; past them the
    search, whose argument is about spreads, refuses it."""
    monkeypatch.setattr(steiner, "design_context", lambda params: None)
    with pytest.raises(ValueError, match="needs t = 1"):
        designs_through_two_blocks(ParamSet(t=2, k=3, n=6, q=2))


def test_enumeration_guard():
    with pytest.raises(ValueError):
        enumerate_steiner(ParamSet(t=1, k=3, n=5, q=2))  # n < 2k
    with pytest.raises(ValueError):
        design_context(ParamSet(t=2, k=3, n=13, q=2))  # guard exceeded


def test_every_enumerated_design_verifies():
    for d in enumerate_steiner(PG32):
        assert verify_design_ids(PG32, d).ok
        assert verify_design(block_keys(PG32, d), PG32).ok


def test_verify_design_trivial_design():
    # the full Grassmannian covers every point [n-t k-t] times
    blocks = grassmannian(4, 2, 2)
    result = verify_design([b.key for b in blocks], PG32)
    assert not result.ok
    assert result.coverage == gauss_binom(3, 1, 2)


def test_verify_design_detects_corruption():
    blocks = block_subspaces(PG32, enumerate_steiner(PG32)[0])
    # swap one block for a line meeting another block
    ctx = design_context(PG32)
    replacement = next(
        s
        for s in ctx.k_subspaces
        if s not in blocks and any(b.contains(s) is False for b in blocks)
    )
    broken = blocks[:-1] + [replacement]
    result = verify_design([b.key for b in broken], PG32)
    assert not result.ok
    assert result.witness is not None
    assert result.coverage != 1
    assert result.witness.dim == 1


def _swap_last_block(params, design):
    spare = next(i for i in range(len(design_context(params).k_subspaces)) if i not in design)
    return design[:-1] + (spare,)


def test_both_verifiers_give_the_same_verdict_and_witness():
    """verify_design_ids reads the counts out of packed slots; the inputs
    include every slot at its maximum [n-t k-t] (all 35 lines of PG(3,2)
    cover each point 7 times) and one slot at it (the 7 lines through a
    point).  The 50 random index tuples come unsorted, and give the verdict
    and witness of their sorted copies."""
    pg32 = enumerate_steiner(PG32)
    ctx = design_context(PG32)
    n_lines = len(ctx.k_subspaces)
    rng = random.Random(35)
    designs = [
        *((PG32, d) for d in pg32),
        (PG32, tuple(range(5))),
        (PG32, _swap_last_block(PG32, pg32[0])),
        (PG33, _swap_last_block(PG33, enumerate_steiner(PG33)[0])),
        (PG32, tuple(range(n_lines))),
        (PG32, tuple(kid for kid in range(n_lines) if 0 in ctx.cover[kid])),
        *((PG32, tuple(rng.sample(range(n_lines), rng.randint(1, n_lines))))
          for _ in range(50)),
    ]
    assert sum(list(d) != sorted(d) for _, d in designs[-50:]) >= 45
    failures = 0
    for params, d in designs:
        by_ids = verify_design_ids(params, d)
        by_sorted = verify_design_ids(params, tuple(sorted(d)))
        by_blocks = verify_design(block_keys(params, d), params)
        assert (by_ids.ok, by_ids.witness, by_ids.coverage, by_ids.message) == (
            by_sorted.ok, by_sorted.witness, by_sorted.coverage, by_sorted.message) == (
            by_blocks.ok, by_blocks.witness, by_blocks.coverage, by_blocks.message)
        failures += not by_ids.ok
    assert failures == 3 + 2 + 50
    for params, d in designs[-52:-50]:  # all lines, and the lines through point 0
        result = verify_design_ids(params, d)
        assert (result.witness, result.coverage) == (ctx.t_subspaces[0], 7)


def _verdict_by_containment(blocks, params):
    """verify_design's contract from Subspace.contains counts alone: the
    first t-subspace in canonical order whose coverage is not 1."""
    for s in grassmannian(params.n, params.t, params.q):
        c = sum(b.contains(s) for b in blocks)
        if c != 1:
            return False, s, c
    return True, None, None


@pytest.mark.parametrize("n, q", [(5, 2), (4, 3)])
def test_verify_design_multi_row_keys_match_containment(n, q):
    # t = 2: each coverage key holds two packed rows over F_2
    params = ParamSet(t=2, k=3, n=n, q=q)
    planes = grassmannian(n, 2, q)
    solids = grassmannian(n, 3, q)
    lam = int(gauss_binom(n - 2, 1, q))  # solids through a plane
    doubled = [b for b in solids if b.contains(planes[0])][:2]
    rng = random.Random(n * q)
    cases = [
        (solids, (False, lam)),
        (solids[:-1], None),
        (doubled, (False, 2)),
    ] + [(rng.sample(solids, rng.randint(1, len(solids))), None) for _ in range(4)]
    for blocks, expected in cases:
        result = verify_design([b.key for b in blocks], params)
        ok, witness, coverage = _verdict_by_containment(blocks, params)
        assert (result.ok, result.witness, result.coverage) == (ok, witness, coverage)
        if expected is not None:
            assert (result.ok, result.coverage) == expected
        if not ok:
            assert result.message == f"t-subspace covered {coverage} times, expected 1"
    assert verify_design([b.key for b in doubled], params).witness == planes[0]


def _witness_by_iter_subspaces(blocks, params):
    """The witness walk that builds a Subspace for every t-subspace."""
    coverage = {}
    for b in blocks:
        for key in coverage_keys(b, params.t):
            coverage[key] = coverage.get(key, 0) + 1
    return _first_miss(
        ((s, coverage.get(s.key, 0))
         for s in iter_subspaces(params.n, params.t, params.q)))


@pytest.mark.parametrize("params", [PG32, PG33, ParamSet(t=2, k=3, n=5, q=2)])
def test_key_walk_finds_the_iter_subspaces_witness(params):
    if params.t == 1:
        blocks = block_subspaces(params, sample_steiner(params, 1, 1).designs[0])
    else:
        blocks = list(grassmannian(params.n, params.k, params.q))
    universe = grassmannian(params.n, params.k, params.q)
    spare = [b for b in universe if b not in blocks]
    rng = random.Random(params.n * params.q)
    cases = [blocks, blocks[:-1], blocks[1:], blocks[:-1] + spare[:1],
             blocks[1:] + spare[-1:]]
    cases += [rng.sample(universe, rng.randint(1, len(universe))) for _ in range(6)]
    misses = 0
    for case in cases:
        result = verify_design([b.key for b in case], params)
        expected = _witness_by_iter_subspaces(case, params)
        assert (result.ok, result.witness, result.coverage, result.message) == (
            expected.ok, expected.witness, expected.coverage, expected.message)
        misses += not result.ok
    assert misses >= len(cases) - 1


def test_verify_design_rejects_malformed():
    blocks = block_keys(PG32, enumerate_steiner(PG32)[0])
    with pytest.raises(ValueError):
        verify_design(blocks + [blocks[0]], PG32)  # duplicate
    point = grassmannian(4, 1, 2)[0]
    with pytest.raises(ValueError):
        verify_design(blocks[:-1] + [point.key], PG32)  # wrong dimension
    # a negative index would alias another block and break the packed slots,
    # and so would a repeated one; neither is missed when the indices are
    # unsorted and the first and last are in range
    n_lines = len(design_context(PG32).k_subspaces)
    for ids in [(-1, 0, 1, 2, 3), (0, 1, 2, 3, n_lines),
                (0, 1, -1, 2, 3), (0, n_lines, 1, 2, 3)]:
        with pytest.raises(ValueError, match="block index outside"):
            verify_design_ids(PG32, ids)
    for ids in [(0, 0, 1, 2, 3), (3, 0, 2, 1, 0)]:
        with pytest.raises(ValueError, match="duplicate block index"):
            verify_design_ids(PG32, ids)


def test_verify_design_refuses_a_key_outside_f_q_n():
    # the 21 keys of a line spread of F_2^6 are 21 keys of 2 rows each, but
    # some packed rows reach 2^4, so they are no design of F_2^4 at all
    spread = block_keys(ParamSet(t=1, k=2, n=6, q=2),
                        sample_steiner(ParamSet(t=1, k=2, n=6, q=2), 1, 1).designs[0])
    assert len(spread) == 21 and max(max(key) for key in spread) >= 1 << 4
    with pytest.raises(ValueError, match=r"^block row outside F_2\^4$"):
        verify_design(spread, PG32)
    blocks = block_keys(PG33, enumerate_steiner(PG33)[0])
    assert verify_design(blocks, PG33).ok
    first, second = blocks[0]
    for bad in [(first + (0,), second), (first, second[:-1] + (3,))]:
        with pytest.raises(ValueError, match=r"^block row outside F_3\^4$"):
            verify_design(blocks[1:] + [bad], PG33)


def test_verify_design_refuses_a_key_not_in_rref():
    # coverage reads each key as an RREF: PG(3,3) block 1 with every entry
    # doubled, in place of block 0, covers block 1's line twice and block 0's
    # not at all, and would pass if the keys were trusted
    blocks = block_keys(PG33, enumerate_steiner(PG33)[0])
    assert blocks[1] == ((1, 0, 0, 1), (0, 1, 1, 0))
    bad3 = [((2, 0, 0, 2), (0, 2, 2, 0)),  # leading entries 2
            ((0, 1, 1, 0), (1, 0, 0, 1)),  # pivots falling
            ((1, 1, 0, 0), (0, 1, 0, 0)),  # nonzero above a pivot
            ((1, 0, 0, 0), (0, 0, 0, 0))]  # a zero row
    for bad in bad3:
        with pytest.raises(ValueError, match=r"^block not a rank-2 RREF$"):
            verify_design(blocks[1:] + [bad], PG33)
    # over F_2 a key is packed rows, bit j holding column j: 9 and 15 share
    # pivot 0, 2 comes before 1, 3 is set at 2's pivot, and 0 is a zero row
    blocks = block_keys(PG32, enumerate_steiner(PG32)[0])
    assert blocks[0] == (1, 2)
    for bad in [(9, 15), (2, 1), (3, 2), (1, 0)]:
        with pytest.raises(ValueError, match=r"^block not a rank-2 RREF$"):
            verify_design(blocks[1:] + [bad], PG32)


@pytest.mark.parametrize("build", [gram_matrix, incidence_matrix])
def test_gram_and_incidence_matrices_refuse_an_index_outside_the_lines(build):
    # -1 would index the last row of U U^T, and [n k] would be dropped from U
    n_lines = len(design_context(PG32).k_subspaces)
    for design in [(-1, 0), (0, n_lines)]:
        with pytest.raises(ValueError, match=rf"^block index outside 0\.\.{n_lines - 1}$"):
            build(PG32, [enumerate_steiner(PG32)[0], design])


def test_sampling_is_deterministic_and_valid():
    res1 = sample_steiner(PG32, seed=1, count=5)
    res2 = sample_steiner(PG32, seed=1, count=5)
    assert res1.designs == res2.designs
    assert res1.complete and len(res1.designs) == 5
    assert len(set(res1.designs)) == 5
    for d in res1.designs:
        assert verify_design_ids(PG32, d).ok


def test_sampling_prefix_property_and_empty():
    small = sample_steiner(PG33, seed=11, count=5)
    large = sample_steiner(PG33, seed=11, count=20)
    assert small.designs == large.designs[:5]
    assert large.complete and len(large.designs) == 20
    for d in large.designs:
        assert verify_design_ids(PG33, d).ok
    assert sample_steiner(PG32, seed=3, count=0).designs == []


@pytest.mark.parametrize("params, seed, expected", [
    (PG32, 1, [(30, True), (127, True), (5200, False)]),  # 100 runs out of attempts
    (PG33, 7, [(25, True), (50, True), (100, True)]),
])
def test_sample_steps_extend_one_stream(params, seed, expected):
    """Each step of one stream is what a fresh sample_steiner run with that
    count gives: the same designs, completeness and attempts."""
    counts = (25, 50, 100)
    steps = list(sample_steps(params, seed, counts))
    assert [(step.attempts, step.complete) for step in steps] == expected
    for step, count in zip(steps, counts):
        fresh = sample_steiner(params, seed, count)
        assert step.designs == fresh.designs
        assert (step.complete, step.attempts) == (fresh.complete, fresh.attempts)


def test_sample_steps_take_repeated_counts_and_refuse_decreasing_ones():
    counts = (3, 3, 5)
    for step, count in zip(sample_steps(PG33, 1, counts), counts):
        fresh = sample_steiner(PG33, 1, count)
        assert step.designs == fresh.designs
        assert (step.complete, step.attempts) == (fresh.complete, fresh.attempts)
    steps = sample_steps(PG33, 1, (5, 3))
    assert len(next(steps).designs) == 5
    with pytest.raises(ValueError, match="sample count 3 is below 5"):
        next(steps)


def test_exact_cover_search_restores_its_state():
    """sample_steiner reuses one _ExactCover for every attempt, which is
    sound only if no kind of stop leaves anything behind but the branch
    memo, a pure cache: after many randomized searches have filled the
    memo, and after a limit stop, a node-budget stop and exhaustion, the
    reused instance answers exactly as a fresh one does."""
    ctx = design_context(PG33)
    calls = [
        lambda c: c.search(rng=random.Random(1), limit=1),  # limit stop
        lambda c: c.search(rng=random.Random(1), node_budget=3),  # budget stop
        lambda c: c.search(),  # exhaustion
        lambda c: c.search(rng=random.Random(5), limit=3),
    ]
    reused = _ExactCover(len(ctx.t_subspaces), ctx.cover)
    for seed in range(100, 300):
        reused.search(rng=random.Random(seed), limit=1)
    assert len(reused.branch_memo) > 100
    got = [call(reused) for call in calls]
    assert len(got[0]) == 1 and got[1] is None and len(got[2]) == 8424
    assert got == [call(_ExactCover(len(ctx.t_subspaces), ctx.cover)) for call in calls]


def test_deterministic_search_is_pinned_and_ignores_the_branch_memo():
    """Enumeration's raw search output, in search order, as sha256 of its
    repr; a search without rng neither reads nor fills the branch memo, so
    a planted wrong root column changes nothing."""
    ctx = design_context(PG33)
    cover = _ExactCover(len(ctx.t_subspaces), ctx.cover)
    cover.branch_memo[()] = len(ctx.t_subspaces) - 1  # the scan picks column 0
    sols = cover.search()
    assert cover.branch_memo == {(): len(ctx.t_subspaces) - 1}
    assert hashlib.sha256(repr(sols).encode()).hexdigest() == (
        "9b7c6a13be6ca510992c2a5dd2e90a0f8f7456f8f17f6e9335635bca80cf8aa2")


def test_exact_cover_edge_cases():
    assert _ExactCover(0, []).search() == [()]  # nothing to cover: one empty cover
    assert _ExactCover(2, [(0,)]).search() == []  # column 1 has no rows
    two = _ExactCover(2, [(0,), (1,)])
    assert two.search(node_budget=1) is None  # each tried row is one node
    assert two.search(node_budget=2) == [(0, 1)]


# the branch memo each pinned sampling run leaves, by (q, n, seed)
_PINNED_MEMO_SIZES = {(3, 4, 1): 830, (3, 4, 7): 353, (2, 6, 1): 578}


@pytest.mark.parametrize("params, seed, count, attempts, digest", [
    (PG33, 1, 3000, 3867,
     "8e684cfb8a0a4307d4e45b7df4996c447a635555db5235f204f2baeebc5bff34"),
    (PG33, 7, 300, 307,
     "6a9ba07bc0cea3f31e4a5ebc87c9d72e196d6638113cd85e9ca455ce1fa3f2ce"),
    (ParamSet(t=1, k=2, n=6, q=2), 1, 300, 300,
     "4d53982d3d12350d008c5440afba675040f94e6d9f1382863154c2dd5929208a"),
])
def test_sampled_designs_are_pinned(params, seed, count, attempts, digest, monkeypatch):
    """The exact-cover traversal (branch column, candidate order, shuffles,
    node budget) fixes which designs a seed draws; these are the pinned
    draws, as sha256 of the repr of the list of block tuples (each sorted
    and distinct), and the pinned size of the branch memo they leave, every
    key a chosen-row tuple shorter than _BRANCH_MEMO_DEPTH."""
    made = []

    class Recorded(_ExactCover):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)
    monkeypatch.setattr(steiner, "_ExactCover", Recorded)
    res = sample_steiner(params, seed, count)
    blocks = repr(res.designs).encode()
    assert _sorted_distinct_ints(res.designs)
    assert res.complete and res.attempts == attempts
    assert hashlib.sha256(blocks).hexdigest() == digest
    [cover] = made
    assert len(cover.branch_memo) == _PINNED_MEMO_SIZES[params.q, params.n, seed]
    assert {len(key) for key in cover.branch_memo} == set(range(steiner._BRANCH_MEMO_DEPTH))


def test_incidence_matrix_shapes_and_sums():
    designs = enumerate_steiner(PG32)
    u = incidence_matrix(PG32, designs)
    assert (u.rows, u.cols) == (35, 56)
    assert set(col_sums(u)) == {5}
    assert set(row_sums(u)) == {8}
    one = incidence_matrix(PG32, designs[:1])
    assert col_sums(one) == [5]


def test_gram_matrix_matches_dense_product():
    designs = enumerate_steiner(PG32)
    u = incidence_matrix(PG32, designs)
    gram = gram_matrix(PG32, designs)
    assert gram == mat_mul(u, transpose(u))
    assert rank_exact(gram) == rank_exact(u) == 21
    few = designs[:3]
    u_few = incidence_matrix(PG32, few)
    gram_few = gram_matrix(PG32, few)
    assert gram_few == mat_mul(u_few, transpose(u_few))
    assert rank_exact(gram_few) == rank_exact(u_few) == 3
    sampled = sample_steiner(PG33, seed=5, count=200)
    assert sampled.complete
    u = incidence_matrix(PG33, sampled.designs)
    assert gram_matrix(PG33, sampled.designs) == mat_mul(u, transpose(u))


def test_gram_matrix_empty_and_mixed():
    empty = gram_matrix(PG32, [])
    assert empty == zeros(35, 35)
    assert rank_exact(empty) == 0
    # a design is its block indices alone: a PG(3,2) spread read under PG(3,3)
    # parameters is 5 of its 130 lines, which fails verification
    spread = enumerate_steiner(PG32)[0]
    assert (not verify_design_ids(PG33, spread).ok
            and rank_certificate(PG33, [spread]).annihilation_ok is False)


def test_kappa_formulas():
    assert kappa_formula(56, PG32) == 8
    assert kappa_formula(0, PG32) == 0
    assert kappa_formula(1, PG32) == Fraction(15, 105)
    assert kappa_i_formula(56, 0, PG32) == 2
    assert kappa_i_formula(56, 1, PG32) == 0  # i >= t
    assert kappa_i_formula(7, 2, PG32) == 0
    with pytest.raises(ValueError):
        kappa_i_formula(56, 3, PG32)


def test_intersect_count_values():
    assert intersect_count(PG32, 0) == 4
    assert intersect_count(ParamSet(t=1, k=2, n=6, q=2), 0) == 20
    with pytest.raises(ValueError):
        intersect_count(PG32, 1)


def test_empirical_kappa_matches_formula():
    designs = enumerate_steiner(PG32)
    gram = gram_matrix(PG32, designs)
    buckets = empirical_pair_counts(gram, SchemeInstance(4, 2, 2))
    assert buckets[2] == {kappa_formula(56, PG32)}  # the diagonal, bucket k
    assert buckets[0] == {2}  # disjoint pairs lie in exactly two spreads
    assert buckets[1] == {0}  # meeting pairs never share a spread
    assert buckets[0] == {kappa_i_formula(56, 0, PG32)}


@pytest.mark.parametrize("leading", [1, 3, 35])
def test_empirical_pair_counts_takes_leading_rows(leading):
    """Row B0 alone, or any leading rows of U U^T, give the full matrix's
    buckets on PG(3,2): every relation occurs in every row."""
    gram = gram_matrix(PG32, enumerate_steiner(PG32))
    rows = ExactMatrix(gram.data[:leading], cols=gram.cols)
    assert empirical_pair_counts(rows, SchemeInstance(4, 2, 2)) == {2: {8}, 1: {0}, 0: {2}}


@pytest.mark.parametrize("rows, cols", [(1, 34), (1, 36), (35, 34), (36, 35), (0, 0)])
def test_empirical_pair_counts_refuses_a_shape_off_the_scheme(rows, cols):
    """[n k] columns and at most [n k] rows, or ValueError."""
    with pytest.raises(ValueError, match="shape"):
        empirical_pair_counts(ExactMatrix([[0] * cols] * rows, cols=cols),
                              SchemeInstance(4, 2, 2))


def test_per_intersection_counts_match_formula():
    designs = enumerate_steiner(PG32)
    for d in designs[::8]:
        assert per_intersection_counts(PG32, d, 0) == {4}
    # pair partition: every block sees lambda_0 - 1 others
    total = sum(
        int(gauss_binom(PG32.k, i, PG32.q)) * int(intersect_count(PG32, i))
        for i in range(PG32.t)
    )
    assert total == lambda_i(PG32, 0) - 1


def test_gram_check_and_corruption():
    designs = enumerate_steiner(PG32)
    coeffs = gram_coefficients(56, PG32)
    scheme = SchemeInstance(4, 2, 2)

    def check(gram, coeffs):
        return gram_check(empirical_pair_counts(gram, scheme), coeffs, PG32.k)

    assert check(gram_matrix(PG32, designs), coeffs)
    # flip one bit of U
    bad = incidence_matrix(PG32, designs)
    bad.data[0][0] = 1 - bad.data[0][0]
    assert not check(mat_mul(bad, transpose(bad)), coeffs)
    # empty design set: 0 = 0*I + 0
    assert check(gram_matrix(PG32, []), gram_coefficients(0, PG32))


def test_mu_eigenvalues_pg32():
    kappa = kappa_formula(56, PG32)
    assert mu_eigenvalue(PG32, 0, kappa) == 40
    assert mu_eigenvalue(PG32, 1, kappa) == 0
    assert mu_eigenvalue(PG32, 2, kappa) == 12
    # consistency with the scheme eigenvalues: mu_r = kappa + kappa_0 nu_r^(2)
    for r in range(3):
        assert mu_eigenvalue(PG32, r, kappa) == kappa + Fraction(2) * eisfeld_eigenvalue(
            4, 2, 2, 2, r
        )
    with pytest.raises(ValueError):
        mu_eigenvalue(PG32, 3, kappa)


def test_mu_matches_scheme_combination_on_grid():
    for q in (2, 3):
        for n in range(4, 11):
            for k in range(2, n // 2 + 1):
                for t in range(1, k):
                    params = ParamSet(t=t, k=k, n=n, q=q)
                    coeffs = gram_coefficients(1, params)
                    for r in range(k + 1):
                        combo = coeffs.kappa + sum(
                            coeffs.kappa_i[i] * eisfeld_eigenvalue(n, k, q, k - i, r)
                            for i in range(t + 1)
                        )
                        assert mu_eigenvalue(params, r, coeffs.kappa) == combo


def test_gram_spectrum_report():
    designs = enumerate_steiner(PG32)
    gram = gram_matrix(PG32, designs)
    scheme = SchemeInstance(4, 2, 2)
    buckets = empirical_pair_counts(gram, scheme)
    report = verify_gram_spectrum(PG32, scheme, bucket_coefficients(buckets, 2),
                                  kappa_formula(56, PG32))
    assert report.ok
    assert [m for _, _, m in report.spectrum] == [1, 14, 20]
    by_value = {c.value: c for c in report.checks}
    assert by_value[Fraction(0)].rank == 21
    # trace: 35 * 8 = 280 = 1*40 + 14*0 + 20*12
    assert gram.trace() == 280


def test_dimension_formula_examples():
    assert dimension_formula(PG32) == 21
    assert dimension_formula(PG33) == 91
    big = ParamSet(t=2, k=3, n=13, q=2)
    assert dimension_formula(big) == int(
        gauss_binom(13, 3, 2) - gauss_binom(13, 2, 2) + 1
    )


def test_inclusion_matrix_properties():
    w = inclusion_matrix(PG32)
    assert (w.rows, w.cols) == (15, 35)
    assert rank_exact(w) == 15
    designs = enumerate_steiner(PG32)
    u = incidence_matrix(PG32, designs)
    wu = mat_mul(w, u)
    assert all(x == 1 for row in wu.data for x in row)


def test_rank_certificate_full_enumeration():
    designs = enumerate_steiner(PG32)
    cert = rank_certificate(PG32, designs)
    assert cert.meets
    assert cert.upper_bound == cert.lower_bound == 21
    assert cert.w_rank == 15 and cert.row_diff_rank == 14


def test_rank_certificate_with_few_designs_stays_open():
    designs = enumerate_steiner(PG32)[:3]
    cert = rank_certificate(PG32, designs)
    assert not cert.meets
    assert cert.lower_bound <= 3 < 21
    assert cert.upper_bound == 21
    assert cert.annihilation_ok


def test_rank_certificate_annihilation_matches_w_times_u():
    w = inclusion_matrix(PG32)
    designs = enumerate_steiner(PG32)[:3]
    not_a_spread = tuple(range(5))
    assert not verify_design_ids(PG32, not_a_spread).ok
    for ds, expected in ((designs, True), (designs + [not_a_spread], False)):
        wu = mat_mul(w, incidence_matrix(PG32, ds))
        assert all(x == 1 for row in wu.data for x in row) is expected
        assert rank_certificate(PG32, ds).annihilation_ok is expected


def test_rank_certificate_pg33_sampling():
    res = sample_steiner(PG33, seed=7, count=110)
    assert res.complete
    cert = rank_certificate(PG33, res.designs)
    assert cert.w_rank == 40
    assert cert.meets and cert.target == 91


def _counting_rank_exact(monkeypatch) -> list:
    """Record each matrix the certificate hands to Bareiss, once W's two
    ranks are cached."""
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return rank_exact(matrix)
    monkeypatch.setattr(steiner, "rank_exact", counted)
    return calls


@pytest.mark.parametrize("params, designs", [
    (PG32, lambda: enumerate_steiner(PG32)),
    (PG33, lambda: sample_steiner(PG33, seed=1, count=3000).designs),
], ids=["pg32-all-56", "pg33-sample-3000"])
def test_rank_certificate_f2_rank_matches_bareiss(params, designs, monkeypatch):
    """The F_2 rank of U meets the proven ceiling, so no Gram matrix is
    ranked, and the certificate is the one Bareiss on U U^T gives."""
    designs = designs()
    steiner._inclusion_ranks(params)
    calls = _counting_rank_exact(monkeypatch)
    cert = rank_certificate(params, designs)
    assert calls == []
    assert cert.meets
    assert cert.lower_bound == rank_exact(gram_matrix(params, designs))


def test_rank_certificate_falls_back_below_the_rational_rank(monkeypatch):
    """These 14 PG(3,2) spreads have rank 14 over Q but 13 over F_2, so the
    F_2 rank misses the ceiling of 14 designs and Bareiss decides."""
    spreads = enumerate_steiner(PG32)
    designs = [spreads[i] for i in (0, 2, 4, 9, 16, 21, 25, 26, 34, 36, 37, 43, 48, 55)]
    words = [sum(1 << b for b in d) for d in designs]
    assert len(_f2_eliminate(words)) == 13
    steiner._inclusion_ranks(PG32)
    calls = _counting_rank_exact(monkeypatch)
    cert = rank_certificate(PG32, designs)
    assert len(calls) == 1
    assert cert.lower_bound == rank_exact(incidence_matrix(PG32, designs)) == 14
    assert cert.annihilation_ok and not cert.meets


def test_rank_certificate_guard_refuses_the_fallback(monkeypatch):
    """Under a guard below [4 2]_2 = 35, the 14 spreads whose F_2 rank
    misses its ceiling are refused instead of ranked by Bareiss."""
    spreads = enumerate_steiner(PG32)
    designs = [spreads[i] for i in (0, 2, 4, 9, 16, 21, 25, 26, 34, 36, 37, 43, 48, 55)]
    steiner._inclusion_ranks(PG32)
    calls = _counting_rank_exact(monkeypatch)
    monkeypatch.setattr(steiner, "_GRAM_RANK_GUARD", 34)
    with pytest.raises(ValueError, match="F_2 rank 13 of U misses its ceiling 14 and "
                                         r"\[n k\] 35 > 34; sample more designs"):
        rank_certificate(PG32, designs)
    assert calls == []
    monkeypatch.setattr(steiner, "_GRAM_RANK_GUARD", 35)
    assert rank_certificate(PG32, designs).lower_bound == 14


def test_rank_certificate_stops_the_f2_rank_at_its_ceiling(monkeypatch):
    """560 designs, the 56 PG(3,2) spreads ten times over: once the F_2
    basis holds the ceiling's 21 rows no word can raise it, so the
    elimination stops early, at the full list's rank."""
    designs = enumerate_steiner(PG32) * 10
    words = [sum(1 << b for b in d) for d in designs]
    assert len(_f2_eliminate(words)) == 21
    fed = []

    def counted(rows):
        rows = list(rows)
        fed.extend(rows)
        return _f2_eliminate(rows)
    monkeypatch.setattr(steiner, "_f2_eliminate", counted)
    cert = rank_certificate(PG32, designs)
    assert cert.lower_bound == cert.upper_bound == 21 and cert.meets
    # three batches of 21 words and the basis re-fed before two of them:
    # the last eight copies of the list are never read
    assert len(fed) == 99 < 2 * 56


def _admitted_quadruples() -> list[ParamSet]:
    """Every (t, k, n, q) that ``design_context`` admits: a field that
    ``gfspaces.field`` supports, [n t] within _UNIVERSE_GUARD and [n k]
    within _DENSE_GUARD.  For 1 <= t < n, [n t]_q >= [n 1]_q >= q + 1,
    which bounds q and, at each q, n."""
    universe, dense = steiner._UNIVERSE_GUARD, steiner._DENSE_GUARD
    admitted = []
    for q in range(2, universe):
        try:
            field(q)
        except ValueError:
            continue
        n = 2
        while gauss_binom(n, 1, q) <= universe:
            admitted += [
                ParamSet(t=t, k=k, n=n, q=q)
                for t in range(1, n) for k in range(t + 1, n + 1)
                if gauss_binom_guard(n, t, q, universe)[0]
                and gauss_binom_guard(n, k, q, dense)[0]
            ]
            n += 1
    return admitted


def test_w_rank_mod_p_is_the_rational_rank_on_every_admitted_input():
    """The certificate ranks W only mod _RANK_PRIME.  On every input the
    guards admit, that rank is W's rank over Q, and it is the full row rank
    [n t] wherever n >= 2k, so no admitted input needs Bareiss on W.  (At
    the guards of 200 and 2000 there are 120 quadruples, q up to 199.)"""
    admitted = _admitted_quadruples()
    assert {PG32, PG33, ParamSet(t=1, k=2, n=4, q=5), ParamSet(t=1, k=3, n=6, q=2)} <= set(admitted)
    for params in admitted:
        w = inclusion_matrix(params)
        mod_p = rank_mod_p(w, steiner._RANK_PRIME)
        assert mod_p == rank_exact(w), params
        if params.n >= 2 * params.k:
            assert mod_p == gauss_binom(params.n, params.t, params.q), params


def test_verify_design_names_a_duplicate_block():
    blocks = block_keys(PG32, enumerate_steiner(PG32)[0])
    with pytest.raises(ValueError, match="^block 5 duplicates block 2$"):
        verify_design(blocks + [blocks[2]], PG32)


def test_full_pipeline_pg33_enumeration():
    # second fully enumerated instance: all 8424 labeled spreads of PG(3,3)
    designs = enumerate_steiner(PG33)
    n_designs = len(designs)
    assert n_designs == 8424
    gram = gram_matrix(PG33, designs)
    coeffs = gram_coefficients(n_designs, PG33)
    assert coeffs.kappa == 648 and coeffs.kappa_i[0] == 72
    scheme = SchemeInstance(4, 2, 3)
    buckets = empirical_pair_counts(gram, scheme)
    assert buckets[2] == {648}
    assert buckets[0] == {72} and buckets[1] == {0}
    assert gram_check(buckets, coeffs, PG33.k)
    report = verify_gram_spectrum(PG33, scheme, bucket_coefficients(buckets, 2), coeffs.kappa)
    assert report.ok
    assert [(str(v), m) for _, v, m in report.spectrum] == [
        ("6480", 1), ("0", 39), ("864", 90)
    ]
    assert rank_exact(gram) == 91 == dimension_formula(PG33)
    # independent check on U itself, 130 x 8424
    u = incidence_matrix(PG33, designs)
    assert rank_exact(u) == 91


@pytest.mark.parametrize("params", [PG32, PG33], ids=["PG32", "PG33"])
def test_gram_spectrum_ranks_match_bareiss(params):
    """The Gram element's multiplicities, proven in the Bose-Mesner algebra,
    against the dense annihilator and Bareiss on U U^T over all designs."""
    designs = enumerate_steiner(params)
    gram = gram_matrix(params, designs)
    spec = mu_spectrum(params, gram_coefficients(len(designs), params).kappa)
    values = list(dict.fromkeys(v for _, v, _ in spec))
    assert _annihilator_multiplicities(gram, values) is not None
    checks = rank_checks(gram, spec)
    assert [c.rank for c in checks] == [rank_exact(gram.shifted(v)) for v in values]
    scheme = SchemeInstance(params.n, params.k, params.q)
    element = bucket_coefficients(empirical_pair_counts(gram, scheme), params.k)[::-1]
    assert _algebra_multiplicities(scheme, element, values) is not None
    assert element_rank_checks(scheme, element, spec) == (checks, None)


def test_design_file_round_trip(tmp_path):
    design = enumerate_steiner(PG32)[10]
    path = tmp_path / "spread.json"
    save_design_file(path, PG32, block_subspaces(PG32, design))
    loaded = load_design_file(path)
    assert len(loaded) == 1
    params, blocks = loaded[0]
    assert params == PG32
    assert sorted(blocks) == sorted(block_keys(PG32, design))
    assert verify_design(blocks, params).ok


def test_design_file_loader_canonicalizes():
    # a non-RREF spanning set loads to the same subspace
    obj = {
        "q": 2,
        "n": 4,
        "k": 2,
        "t": 1,
        "blocks": [[[1, 1, 0, 0], [0, 1, 1, 0]]],
    }
    params, blocks = design_from_dict(obj)
    assert blocks[0] == subspace_from_rows([[1, 1, 0, 0], [0, 1, 1, 0]], 4, 2).key
    assert Subspace(4, 2, blocks[0]).basis == ((1, 0, 1, 0), (0, 1, 1, 0))


def test_design_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json", encoding="utf-8")
    with pytest.raises(ValueError, match="parse error"):
        load_design_file(bad)
    with pytest.raises(ValueError, match="missing keys"):
        design_from_dict({"q": 2, "n": 4, "k": 2, "t": 1})
    with pytest.raises(ValueError, match="block 0"):
        design_from_dict(
            {"q": 2, "n": 4, "k": 2, "t": 1, "blocks": [[[1, 0, 0, 0]]]}
        )
    with pytest.raises(ValueError, match="block 0"):
        # rank-deficient block matrix
        design_from_dict(
            {"q": 2, "n": 4, "k": 2, "t": 1,
             "blocks": [[[1, 0, 0, 0], [1, 0, 0, 0]]]}
        )
    with pytest.raises(ValueError, match="block 0"):
        # entry outside the field encoding
        design_from_dict(
            {"q": 2, "n": 4, "k": 2, "t": 1,
             "blocks": [[[2, 0, 0, 0], [0, 1, 0, 0]]]}
        )


def test_steiner_shaped_13_dim_file_checks(tmp_path):
    """(2,3,13)-shaped inputs: format round trip works, non-designs are
    rejected with a witness; a full design at this size is out of reach."""
    params = ParamSet(t=2, k=3, n=13, q=2)
    assert params.admissible
    blocks = [
        subspace_from_rows(
            [
                [1 if j == 3 * i else 0 for j in range(13)],
                [1 if j == 3 * i + 1 else 0 for j in range(13)],
                [1 if j == 3 * i + 2 else 0 for j in range(13)],
            ],
            13,
            2,
        )
        for i in range(4)
    ]
    path = tmp_path / "shape13.json"
    save_design_file(path, params, blocks)
    loaded_params, loaded_blocks = load_design_file(path)[0]
    assert loaded_params == params
    assert loaded_blocks == [b.key for b in blocks]
    result = verify_design(loaded_blocks, params)
    assert not result.ok
    assert result.witness is not None and result.witness.dim == 2
    assert result.coverage == 0
    # overcoverage is caught too: two blocks sharing a 2-subspace
    overlap = blocks[0]
    other = subspace_from_rows(
        [[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
         [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
         [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]],
        13,
        2,
    )
    result = verify_design([overlap.key, other.key], params)
    assert not result.ok


def test_mu_spectrum_multiplicities_sum():
    spec = mu_spectrum(PG32, kappa_formula(56, PG32))
    assert sum(m for _, _, m in spec) == 35


def test_design_to_dict_schema():
    design = enumerate_steiner(PG32)[0]
    obj = design_to_dict(PG32, block_subspaces(PG32, design))
    assert set(obj) == {"q", "n", "k", "t", "blocks"}
    assert json.dumps(obj)  # serializable
    assert all(len(b) == 2 and len(b[0]) == 4 for b in obj["blocks"])


def _result(verify, blocks, params):
    try:
        r = verify(blocks, params)
    except ValueError as exc:
        return str(exc)
    return r.ok, r.witness, r.coverage, r.message


def test_verify_design_matches_the_per_block_walk_on_every_f2_triple():
    # every (n, k, t) with n <= 6 over F_2: the whole-list checks and the
    # whole-list coverage give the verdict, witness, coverage and message of
    # a block-by-block walk, and the same first error on malformed lists
    rng = random.Random(15)
    spreads = {(2, 4): None, (2, 6): None, (3, 6): None}
    cases = 0
    for n in range(2, 7):
        for k in range(2, n + 1):
            blocks = list(grassmannian(n, k, 2))
            for t in range(1, k):
                params = ParamSet(t=t, k=k, n=n, q=2)
                lists = [[], blocks, blocks[-1:], rng.sample(blocks, min(9, len(blocks))),
                         blocks[:4] + blocks[:1], blocks[:3] + [grassmannian(n, k - 1, 2)[-1]]]
                if t == 1 and (k, n) in spreads:
                    sampled = sample_steiner(params, 1, 1).designs
                    assert _sorted_distinct_ints(sampled)
                    design = block_subspaces(params, sampled[0])
                    others = [b for b in blocks if b not in design]
                    lists += [design, design[:-1], design[1:] + [others[0]]]
                for block_list in lists:
                    assert (_result(verify_design, [b.key for b in block_list], params)
                            == _result(verify_design_per_block, block_list, params))
                    cases += 1
    assert cases == 35 * 6 + 3 * 3


def test_verify_design_matches_the_per_block_products_over_f3_and_f4():
    # the oracle's keys over F_q come from W·B products, not from the
    # coverage kernel: verdict, witness, coverage and message agree with it
    rng = random.Random(18)
    cases = 0
    for q in (3, 4):
        for n in range(2, 5):
            for k in range(2, n + 1):
                blocks = list(grassmannian(n, k, q))
                for t in range(1, k):
                    params = ParamSet(t=t, k=k, n=n, q=q)
                    lists = [[], blocks, blocks[-1:], rng.sample(blocks, min(9, len(blocks))),
                             blocks[:4] + blocks[:1],
                             blocks[:3] + [grassmannian(n, k - 1, q)[-1]]]
                    if (t, k, n) == (1, 2, 4):
                        design = block_subspaces(params, sample_steiner(params, 1, 1).designs[0])
                        others = [b for b in blocks if b not in design]
                        lists += [design, design[:-1], design[1:] + [others[0]]]
                    for block_list in lists:
                        assert (_result(verify_design, [b.key for b in block_list], params)
                                == _result(verify_design_per_block, block_list, params))
                        cases += 1
    assert cases == 2 * (10 * 6 + 3)


def test_design_from_dict_gives_the_same_blocks_on_both_routes(tmp_path, monkeypatch):
    # over F_2 a valid file is read from its text, with no per-block
    # _rref_key call; the json route gives equal keys
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spreadgen

    spread = spreadgen.make_spread(5, 1)
    spreadgen.write_design(tmp_path / "spread.json", spread.dim, spread.blocks)
    objs = [json.loads((tmp_path / "spread.json").read_text())]
    for params in (PG32, PG33):
        design = sample_steiner(params, 1, 1).designs[0]
        obj = design_to_dict(params, block_subspaces(params, design))
        obj["blocks"] = [mat[::-1] for mat in obj["blocks"]]  # spanning sets, not RREF
        objs.append(obj)
    paths = [tmp_path / f"design-{i}.json" for i in range(len(objs))]
    for obj, path in zip(objs, paths):
        path.write_text(json.dumps(obj), encoding="utf-8")
    calls = []
    real = steiner._rref_key
    monkeypatch.setattr(steiner, "_rref_key",
                        lambda *args, **kw: calls.append(args) or real(*args, **kw))
    text = [load_design_file(path) for path in paths]
    assert len(calls) == len(objs[2]["blocks"])  # PG(3,3) only
    monkeypatch.setattr(steiner, "_read_f2_designs", lambda text: None)
    for obj, path, [(params, blocks)] in zip(objs, paths, text):
        assert load_design_file(path) == [design_from_dict(obj)] == [(params, blocks)]
    assert len(text[0][0][1]) == 341 and verify_design(text[0][0][1], text[0][0][0]).ok
