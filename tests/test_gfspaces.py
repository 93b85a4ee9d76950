import gc
import itertools
import json
from pathlib import Path

import pytest
from oracles import (
    canonical_index,
    count_fixed_intersection_bruteforce,
    coverage_keys,
    mobius_delta_check,
    poly_add,
    poly_inv,
    poly_matmul,
    poly_mul,
    poly_neg,
    poly_row_scale,
    poly_row_sub,
    poly_tables,
    span_coverage_keys,
    spanning_count_bruteforce,
)

from qsteiner import gfspaces, steiner
from qsteiner.exactq import gauss_binom, q_int
from qsteiner.gfspaces import (
    FieldSpec,
    Subspace,
    _basis_for,
    _canonical_keys,
    _coverage_columns,
    _f2_eliminate,
    _f2_reduce_blocks,
    _free_positions,
    _inner_indices,
    _pivot_sets_colex,
    _rref_key,
    count_fixed_intersection,
    field,
    gf_matmul,
    grassmannian,
    intersection_dim,
    iter_subspaces,
    mobius_interval,
    rows_rank,
    rref,
    spanning_count_formula,
    subspace_from_rows,
)


def test_field_construction_and_axioms():
    for q in (2, 3, 4, 5, 7, 8, 9):
        fld = field(q)
        assert fld.q == q
    with pytest.raises(ValueError):
        FieldSpec(16)  # extension order without a fixed polynomial
    with pytest.raises(ValueError):
        FieldSpec(6)


def test_field_arithmetic_f4():
    fld = field(4)
    # x * (x+1) = x^2 + x = 1 with the modulus x^2 + x + 1
    assert fld.mul(2, 3) == 1
    assert fld.add(2, 3) == 1
    assert fld.inv(2) == 3


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_arithmetic_matches_the_polynomial_oracle(q):
    import random

    fld = field(q)
    pairs = list(itertools.product(range(q), repeat=2))
    assert [fld.add(a, b) for a, b in pairs] == [poly_add(a, b, q) for a, b in pairs]
    assert [fld.mul(a, b) for a, b in pairs] == [poly_mul(a, b, q) for a, b in pairs]
    assert [fld.neg(a) for a in range(q)] == [poly_neg(a, q) for a in range(q)]
    assert [fld.inv(a) for a in range(1, q)] == [poly_inv(a, q) for a in range(1, q)]
    rng = random.Random(q)
    for _ in range(200):
        n, c = rng.randint(0, 6), rng.randrange(q)
        v, b = ([rng.randrange(q) for _ in range(n)] for _ in range(2))
        assert fld.row_sub(v, c, b) == poly_row_sub(v, c, b, q)
        assert fld.row_scale(c, v) == poly_row_scale(c, v, q)
    # every shape up to 3 x 3 times 3 x 3, those with 0 rows or columns too
    for rows, inner, cols in itertools.product(range(4), repeat=3):
        for _ in range(3):
            a = [[rng.randrange(q) for _ in range(inner)] for _ in range(rows)]
            b = [[rng.randrange(q) for _ in range(cols)] for _ in range(inner)]
            assert gf_matmul(a, b, fld) == poly_matmul(a, b, q)


@pytest.mark.parametrize("q", [3, 4, 9, steiner._RANK_PRIME])
def test_inverse_of_zero_raises(q):
    with pytest.raises(ZeroDivisionError):
        field(q).inv(0)


def test_enumeration_sizes():
    for q in (2, 3, 4):
        for n in range(7):
            for k in range(n + 1):
                assert len(grassmannian(n, k, q)) == gauss_binom(n, k, q)


def test_enumeration_trivial_cases():
    assert grassmannian(4, 0, 2) == (Subspace(4, 2, ()),)
    assert len(grassmannian(4, 2, 2)) == 35
    assert len(grassmannian(4, 1, 3)) == 40


def test_enumeration_is_duplicate_free_and_indexable():
    for (n, k, q) in [(4, 2, 2), (4, 2, 3), (5, 3, 2), (3, 2, 4)]:
        subs = grassmannian(n, k, q)
        assert len({s.basis for s in subs}) == len(subs)
        for idx, s in enumerate(subs):
            assert canonical_index(s) == idx


def test_rref_idempotent_and_canonical():
    fld = field(3)
    rows = [[1, 2, 0, 1], [2, 1, 1, 0], [0, 0, 0, 0]]
    basis, pivots = rref(rows, fld)
    again, pivots2 = rref([list(r) for r in basis], fld)
    assert basis == again and pivots == pivots2
    s1 = subspace_from_rows(rows, 4, 3)
    # a different spanning set of the same space canonicalizes identically
    mixed = [
        [fld.add(a, b) for a, b in zip(basis[0], basis[1])],
        basis[1],
    ]
    s2 = subspace_from_rows(mixed, 4, 3)
    assert s1 == s2


def test_subspace_serialization_round_trip():
    for s in grassmannian(4, 2, 3)[::7]:
        mat = s.to_lists()
        assert len(mat) == 2 and all(len(row) == 4 for row in mat)
        assert all(0 <= x < 3 for row in mat for x in row)
        assert subspace_from_rows(mat, 4, 3) == s


def test_intersection_dim_basic():
    subs = grassmannian(4, 2, 2)
    for s in subs[::5]:
        assert intersection_dim(s, s) == 2
    x = subs[0]
    profile = {}
    for y in subs:
        if y != x:
            profile[intersection_dim(x, y)] = profile.get(intersection_dim(x, y), 0) + 1
    assert profile == {1: 18, 0: 16}


def test_intersection_profile_is_position_independent():
    subs = grassmannian(4, 2, 2)
    for x in subs[::6]:
        counts = {0: 0, 1: 0}
        for y in subs:
            if y != x:
                counts[intersection_dim(x, y)] += 1
        assert counts == {1: 18, 0: 16}


def test_intersection_requires_same_ambient():
    a = grassmannian(4, 2, 2)[0]
    b = grassmannian(5, 2, 2)[0]
    with pytest.raises(ValueError):
        intersection_dim(a, b)


def test_rows_rank_matches_rref():
    import random

    rng = random.Random(11)
    for q in (2, 3, 4, 5, 8, 9):
        fld = field(q)
        for _ in range(200):
            nr, nc = rng.randint(0, 5), rng.randint(1, 6)
            m = [[rng.randrange(q) for _ in range(nc)] for _ in range(nr)]
            assert rows_rank(m, fld) == len(rref(m, fld)[0])


def _span(rows, n, q):
    """Every F_q combination of rows, summed entry by entry in the
    polynomial oracle's arithmetic: no elimination, and no FieldSpec."""
    add, mul = poly_tables(q)
    out = set()
    for coeffs in itertools.product(range(q), repeat=len(rows)):
        v = [0] * n
        for c, row in zip(coeffs, rows):
            v = [add[x][mul[c][y]] for x, y in zip(v, row)]
        out.add(tuple(v))
    return out


def test_rref_and_rows_rank_match_the_span_oracle():
    import random

    rng = random.Random(7)
    for q in (2, 3, 4, 5, 7, 8, 9):
        fld = field(q)
        for _ in range(25):
            nr, nc = rng.randint(0, 4), rng.randint(1, 5)
            m = [[rng.randrange(q) if rng.random() < 0.7 else 0 for _ in range(nc)]
                 for _ in range(nr)]
            basis, pivots = rref(m, fld)
            span = _span(m, nc, q)
            assert _span(basis, nc, q) == span
            assert len(span) == q ** rows_rank(m, fld)
            assert len(basis) == len(pivots)
            assert list(pivots) == sorted(set(pivots))
            for row, piv in zip(basis, pivots):
                assert not any(row[:piv]) and row[piv] == 1
                assert [r[piv] for r in basis].count(0) == len(basis) - 1


def test_contains_matches_inner_subspaces():
    # S <= block exactly when S's key is one of the block's coverage keys
    cases = 0
    for q in (2, 3, 4):
        for block in grassmannian(4, 2, q):
            for i in range(5):
                subs = grassmannian(4, i, q)
                inside = set(coverage_keys(block, i)) if i <= block.dim else set()
                for s in subs:
                    assert block.contains(s) == (s.key in inside)
                    cases += 1
    assert cases == 35 * 67 + 130 * 212 + 357 * 529


def test_mobius_values():
    assert mobius_interval(0, 5) == 1
    assert mobius_interval(1, 3) == -1
    assert mobius_interval(3, 2) == -8
    with pytest.raises(ValueError):
        mobius_interval(-1, 2)


def test_mobius_delta_check():
    assert mobius_delta_check(Subspace(3, 2, ()))
    w2 = subspace_from_rows([[1, 0, 0], [0, 1, 0]], 3, 2)
    assert mobius_delta_check(w2)  # 1*2 - 3*1 + 1*1 = 0
    w3 = subspace_from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3, 3)
    assert mobius_delta_check(w3)
    big = subspace_from_rows([[1, 0, 0, 0, 0]], 5, 5)
    with pytest.raises(ValueError):
        mobius_delta_check(big)


def test_spanning_counts_small_cases():
    for q in (2, 3):
        assert spanning_count_formula(1, 0, q) == 0
        assert spanning_count_formula(1, 1, q) == 1
    assert spanning_count_formula(2, 2, 2) == 3
    assert spanning_count_bruteforce(2, 2, 2) == 3
    assert spanning_count_bruteforce(3, 2, 2) == 1  # all of PG(F_2^2)
    assert spanning_count_bruteforce(1, 1, 2) == 1
    with pytest.raises(ValueError):
        spanning_count_formula(0, 2, 2)
    with pytest.raises(ValueError):
        spanning_count_bruteforce(1, 17, 2)


def test_spanning_formula_matches_bruteforce_small_grid():
    for q, dmax in ((2, 4), (3, 3), (4, 2)):
        for d in range(dmax + 1):
            pts = int(q_int(d, q))
            for m in range(1, pts + 1):
                assert spanning_count_formula(m, d, q) == spanning_count_bruteforce(
                    m, d, q
                )


def test_spanning_total_matches_subset_alternation():
    # summing over m gives the alternating 2^[j] - 1 expression
    for q, d in ((2, 2), (2, 3), (3, 2)):
        total = sum(
            spanning_count_formula(m, d, q) for m in range(1, int(q_int(d, q)) + 1)
        )
        alt = sum(
            gauss_binom(d, j, q)
            * (-1) ** (d - j)
            * q ** ((d - j) * (d - j - 1) // 2)
            * (2 ** int(q_int(j, q)) - 1)
            for j in range(d + 1)
        )
        assert total == alt
    assert (
        sum(spanning_count_formula(m, 2, 2) for m in range(1, 4)) == 4
    )


def test_count_fixed_intersection_examples():
    assert count_fixed_intersection(2, 2, 2, 4, 2) == (1, 1)
    assert count_fixed_intersection(0, 2, 2, 4, 2) == (16, 16)
    assert count_fixed_intersection(1, 2, 2, 4, 2) == (6, 18)
    with pytest.raises(ValueError):
        count_fixed_intersection(3, 2, 2, 4, 2)


def test_count_fixed_intersection_against_bruteforce():
    for q in (2, 3):
        for n in range(6):
            for b, u in itertools.product(range(n + 1), repeat=2):
                for a in range(min(b, u) + 1):
                    assert count_fixed_intersection(
                        a, b, u, n, q
                    ) == count_fixed_intersection_bruteforce(a, b, u, n, q)


def test_bruteforce_profile_guard():
    with pytest.raises(ValueError):
        count_fixed_intersection_bruteforce(1, 8, 4, 8, 3)


def test_iter_matches_list():
    assert tuple(iter_subspaces(4, 2, 3)) == grassmannian(4, 2, 3)


def test_inner_subspaces_need_no_elimination():
    # W.B of two RREF matrices is already in RREF, so the key the coverage
    # kernel reads off the product must be the key of the eliminated
    # product, on every block and every sub-dimension, over every field
    cases = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        fld = field(q)
        for n in range(1, (4 if q <= 3 else 3) + 1):
            for k in range(n + 1):
                blocks = grassmannian(n, k, q)
                for i in range(k + 1):
                    columns = _coverage_columns([b.key for b in blocks], k, i, q)
                    for w, keys in zip(grassmannian(k, i, q), columns):
                        assert list(keys) == [
                            subspace_from_rows(gf_matmul(w.basis, b.basis, fld), n, q).key
                            for b in blocks]
                        cases += len(blocks)
    assert cases == 7049


def _random_spanning_set(basis, n, rng):
    """A seeded spanning set of span(basis) over F_2, built without
    elimination: an invertible mix of the rows (random row additions and
    swaps), then xors of random subsets of them and zero rows, shuffled."""
    rows = [list(r) for r in basis]
    k = len(rows)
    for _ in range(3 * k):
        i, j = rng.randrange(k), rng.randrange(k)
        if i != j:
            rows[i] = [(x + y) % 2 for x, y in zip(rows[i], rows[j])]
        rows[i], rows[j] = rows[j], rows[i]
    extra = []
    for _ in range(rng.randint(0, 3)):
        picked = [r for r in rows if rng.random() < 0.5]
        extra.append([sum(col) % 2 for col in zip(*picked)] if picked else [0] * n)
    extra += [[0] * n for _ in range(rng.randint(0, 2))]
    out = rows + extra
    rng.shuffle(out)
    return out


def test_packed_f2_rref_recovers_every_subspace():
    # the oracle is the enumeration itself: every spanning set of S must
    # reduce to S's canonical basis and pivots, and have rank dim S
    import random

    rng = random.Random(2016)
    fld = field(2)
    cases = 0
    for n in range(1, 6):
        for k in range(n + 1):
            for s in grassmannian(n, k, 2):
                for _ in range(3):
                    rows = _random_spanning_set(s.basis, n, rng)
                    assert rref(rows, fld) == (s.basis, s.pivots)
                    assert rows_rank(rows, fld) == k
                    assert subspace_from_rows(rows, n, 2) == s
                    cases += 1
    assert cases == 3 * 464


def _f2_keys(blocks) -> list[tuple[int, ...]]:
    """Each block's RREF key from its own ``_f2_eliminate`` call."""
    return [tuple([reduced[piv] for piv in sorted(reduced)])
            for reduced in map(_f2_eliminate, blocks)]


def test_whole_list_reduction_matches_per_block_elimination():
    # the k passes over all blocks give each block the key its own
    # elimination gives, and None once any block has rank below k, whichever
    # row first falls into the span of the rows before it
    import random

    rng = random.Random(28)
    cases = 0
    for k in range(1, 6):
        for n in range(k, 13):
            blocks = []
            while len(blocks) < 30:
                words = [rng.getrandbits(n) for _ in range(k)]
                if len(_f2_eliminate(words)) == k:
                    blocks.append(words)
            blocks += _f2_keys(blocks[:3])  # blocks already in RREF
            assert _f2_reduce_blocks([w for b in blocks for w in b], k) == _f2_keys(blocks)
            for j in range(k):
                bad = [list(b) for b in blocks]
                victim = bad[rng.randrange(len(bad))]
                victim[j] = 0
                for row in victim[:j]:
                    victim[j] ^= row if rng.random() < 0.5 else 0
                assert len(_f2_eliminate(victim)) < k
                assert _f2_reduce_blocks([w for b in bad for w in b], k) is None
                cases += 1
    assert cases == sum(k * (13 - k) for k in range(1, 6))


def test_text_route_makes_no_per_block_elimination(tmp_path, monkeypatch):
    # the m = 5 spread file is read from its text with no _f2_eliminate
    # call, and each key is the block's own _rref_key
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spreadgen

    spread = spreadgen.make_spread(5, 1)
    path = tmp_path / "spread.json"
    spreadgen.write_design(path, spread.dim, spread.blocks)
    text = path.read_text(encoding="utf-8")
    expected = [_rref_key(mat, 10, 2) for mat in json.loads(text)["blocks"]]
    calls = []
    for module in (gfspaces, steiner):
        monkeypatch.setattr(module, "_f2_eliminate",
                            lambda words: calls.append(words) or _f2_eliminate(words))
    [(params, keys)] = steiner._read_f2_designs(text)
    assert calls == [] and (params.n, params.k) == (10, 2)
    assert keys == expected and len(keys) == 341


def test_packed_coverage_keys_match_gf_matmul():
    # an F_2 coverage key is W.B packed row by row, bit j for column j, and
    # is the key of the subspace W.B spans
    fld = field(2)
    cases = 0
    for n in range(1, 6):
        for k in range(n + 1):
            for block in grassmannian(n, k, 2):
                for i in range(k + 1):
                    keys = list(coverage_keys(block, i))
                    subs = grassmannian(k, i, 2)
                    assert len(keys) == len(subs)
                    for key, w in zip(keys, subs):
                        product = gf_matmul(w.basis, block.basis, fld)
                        assert key == tuple(sum(bit << j for j, bit in enumerate(row))
                                            for row in product)
                        assert key == subspace_from_rows(product, n, 2).key
                        cases += 1
    assert cases == 6363


def test_canonical_keys_walk_iter_subspaces_without_subspaces():
    # the key walk yields the keys and pivots of iter_subspaces, in the
    # same order, and Subspace rebuilds each subspace from them
    cases = 0
    for q, max_n in ((2, 6), (3, 4), (4, 3), (9, 2)):
        for n in range(max_n + 1):
            for k in range(n + 1):
                subs = list(iter_subspaces(n, k, q))
                keys = list(_canonical_keys(n, k, q))
                assert keys == [(s.key, s.pivots) for s in subs]
                assert [Subspace(n, q, key) for key, _ in keys] == subs
                cases += len(subs)
    assert cases == 3290 + 249 + 54 + 15  # sums of [n k]_q over the grid
    with pytest.raises(ValueError):
        next(_canonical_keys(3, 4, 2))


def test_f2_subspaces_from_every_source_are_equal():
    # one subspace, built from spanning rows, from the enumeration and from
    # the key walk, is one key: equal, hash equal, and as a dict key
    import random

    rng = random.Random(13)
    for n in range(1, 7):
        for k in range(n + 1):
            subs = grassmannian(n, k, 2)
            walked = [Subspace(n, 2, key) for key, _ in _canonical_keys(n, k, 2)]
            assert walked == list(subs)
            for s, w in zip(subs, walked):
                for t in (w, subspace_from_rows(_random_spanning_set(s.basis, n, rng), n, 2),
                          subspace_from_rows(s.to_lists(), n, 2)):
                    assert t == s and hash(t) == hash(s) and {s: 1}[t] == 1
                    assert t.key == s.key and t.pivots == s.pivots and t.basis == s.basis


def test_f2_basis_pivots_and_contains_read_off_the_packed_rows():
    # the tuple forms come off the packed key; the oracle is the RREF
    # built entry by entry from (pivots, digits) and a span without elimination
    cases = 0
    for n in range(1, 7):
        points = grassmannian(n, 1, 2)
        for k in range(n + 1):
            expected = [(_basis_for(piv, digits, n, free), piv)
                        for piv in _pivot_sets_colex(n, k)
                        for free in [_free_positions(piv, n)]
                        for digits in itertools.product((0, 1), repeat=len(free))]
            subs = grassmannian(n, k, 2)
            assert len(subs) == len(expected)
            for s, (basis, pivots) in zip(subs, expected):
                fresh = subspace_from_rows([list(r) for r in basis], n, 2)
                for t in (s, fresh):
                    assert (t.basis, t.pivots, t.dim) == (basis, pivots, k)
                    assert t.to_lists() == [list(r) for r in basis]
                span = _span(basis, n, 2)
                assert [s.contains(p) for p in points] == [p.basis[0] in span for p in points]
                assert s.contains(s) and s.contains(grassmannian(n, 0, 2)[0])
                assert fresh.contains(s) and s.contains(fresh)
                cases += 1
    assert cases == 3290 - 1  # sums of [n k]_2 over 1 <= n <= 6


@pytest.mark.parametrize("rows, message", [
    ([[1, 0, 1]], "row length 3 != ambient 4"),
    ([[1, 0, 0, 0], [0, 1, 0]], "row length 3 != ambient 4"),
    ([[1, 0, 2, 0]], "entry outside 0..q-1"),
    ([[1, -1, 0, 0]], "entry outside 0..q-1"),
    ([[256, 0, 0, 0]], "entry outside 0..q-1"),
    ([[1, 0, 2, 1.0]], "entry outside 0..q-1"),
    ([[1, 1.0, 2, 0]], "entry 1.0 is not an integer"),
    ([[0, True, 0, 0]], "entry True is not an integer"),
    ([[1, 0, 0, 0], [1, 0, 0, 0]], "expected dimension 2, got 1"),
])
def test_subspace_from_rows_f2_messages(rows, message):
    # the first failing check, row by row and entry by entry, names the error
    with pytest.raises(ValueError) as err:
        subspace_from_rows(rows, 4, 2, expect_dim=2)
    assert str(err.value) == message


def test_one_coverage_kernel_matches_per_block_tables():
    # the whole-list kernel, its one-block case and the _inner_indices tables
    # all give the keys of a per-block table: of row xors over F_2, on every
    # n <= 6, and of the eliminated products W.B over F_3 (n <= 4) and F_4
    # (n <= 3)
    cases = 0
    for q, max_n in ((2, 6), (3, 4), (4, 3)):
        fld = field(q)
        for n in range(max_n + 1):
            for k in range(n + 1):
                blocks = grassmannian(n, k, q)
                for i in range(k + 1):
                    expected = [
                        span_coverage_keys(b, i) if q == 2 else
                        [subspace_from_rows(gf_matmul(w.basis, b.basis, fld), n, q).key
                         for w in grassmannian(k, i, q)]
                        for b in blocks]
                    columns = _coverage_columns([b.key for b in blocks], k, i, q)
                    assert [list(keys) for keys in zip(*columns)] == expected
                    assert [coverage_keys(b, i) for b in blocks] == expected
                    index = {s.key: j for j, s in enumerate(grassmannian(n, i, q))}
                    assert _inner_indices(n, k, i, q) == tuple(
                        tuple(index[key] for key in keys) for keys in expected)
                    cases += len(blocks)
    # (k + 1) [n k]_q summed over 0 <= k <= n <= max_n
    assert cases == 12864 + 722 + 128


@pytest.mark.parametrize("q", [2, 3])
def test_coverage_kernel_leaves_no_reference_cycle(q):
    # verify-design pauses the cyclic collector, so a cycle through the
    # kernel's columns would keep them, design after design, to the end
    keys = [b.key for b in grassmannian(4, 2, q)]
    list(itertools.chain.from_iterable(_coverage_columns(keys, 2, 1, q)))
    gc.collect()
    gc.disable()
    try:
        list(itertools.chain.from_iterable(_coverage_columns(keys, 2, 1, q)))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_colex_pivot_sets_are_lazy_and_iterative():
    # the same order as sorting all k-subsets by their reversed tuples, and
    # the first one comes at once when there are astronomically many
    for n in range(9):
        for k in range(n + 2):
            expected = sorted(itertools.combinations(range(n), k), key=lambda s: s[::-1])
            assert list(_pivot_sets_colex(n, k)) == expected
    walk = _pivot_sets_colex(3000, 1400)
    assert next(walk) == tuple(range(1400))
    assert next(walk) == tuple(range(1399)) + (1400,)
    first = next(_canonical_keys(64, 32, 2))
    assert first == (tuple(1 << i for i in range(32)), tuple(range(32)))
