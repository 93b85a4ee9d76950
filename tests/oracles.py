"""Test oracles: plain constructions that the tests compare the library against.

Nothing in the package needs these; each is the obvious definition, kept
here so that the checks built on it stay independent of the code under test.
"""

import json
from collections import Counter
from fractions import Fraction
from functools import cache, reduce
from itertools import chain, combinations, compress
from math import comb
from operator import mul
from pathlib import Path
from typing import Sequence

from qsteiner.exactq import choose2, gauss_binom, q_int, q_pochhammer, q_pow, q_valuation
from qsteiner.gfspaces import (
    Subspace,
    _coverage_columns,
    _free_positions,
    _pivot_sets_colex,
    field,
    gf_matmul,
    grassmannian,
    intersection_dim,
    iter_subspaces,
    mobius_interval,
    rows_rank,
    subspace_from_rows,
)
from qsteiner.grassmann import SchemeInstance
from qsteiner.identities import (
    IdentityReport,
    NonTerminatingSeries,
    PreconditionError,
    VanishingDenominator,
    kernel_sum,
)
from qsteiner.linalg import ExactMatrix, Scalar
from qsteiner.steiner import (
    ParamSet,
    VerificationResult,
    _ExactCover,
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


# const-first coefficients of the monic polynomial f with F_q = F_p[x]/(f):
# x^2 + x + 1 and x^3 + x + 1 over F_2, x^2 + 2x + 2 over F_3, and x for
# a prime field.  Stated here, not read from the package.
_FIELD_POLYNOMIALS = {4: (1, 1, 1), 8: (1, 1, 0, 1), 9: (2, 2, 1)}


def _field_polynomial(q: int) -> tuple[int, tuple[int, ...]]:
    """(p, f) for F_q: p the least divisor of q above 1."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    return p, _FIELD_POLYNOMIALS.get(q, (0, 1))


def _coefficients(a: int, p: int, e: int) -> list[int]:
    """The polynomial that the element a stands for: its e base-p digits, lowest first."""
    return [a // p ** i % p for i in range(e)]


def _element(coefficients: list[int], p: int) -> int:
    return sum(c * p ** i for i, c in enumerate(coefficients))


def poly_add(a: int, b: int, q: int) -> int:
    """a + b in F_q, coefficient by coefficient mod p."""
    p, f = _field_polynomial(q)
    e = len(f) - 1
    pairs = zip(_coefficients(a, p, e), _coefficients(b, p, e))
    return _element([(x + y) % p for x, y in pairs], p)


def poly_neg(a: int, q: int) -> int:
    """-a in F_q, coefficient by coefficient mod p."""
    p, f = _field_polynomial(q)
    return _element([-x % p for x in _coefficients(a, p, len(f) - 1)], p)


def poly_mul(a: int, b: int, q: int) -> int:
    """a * b in F_q: the schoolbook product of the two polynomials, then its
    remainder on long division by f."""
    p, f = _field_polynomial(q)
    e = len(f) - 1
    product = [0] * (2 * e - 1)
    for i, x in enumerate(_coefficients(a, p, e)):
        for j, y in enumerate(_coefficients(b, p, e)):
            product[i + j] = (product[i + j] + x * y) % p
    for d in range(2 * e - 2, e - 1, -1):
        c = product[d]
        for i, m in enumerate(f):
            product[d - e + i] = (product[d - e + i] - c * m) % p
    return _element(product[:e], p)


def poly_inv(a: int, q: int) -> int:
    """The b with a * b = 1 in F_q, found by search; 0 has none."""
    if a == 0:
        raise ZeroDivisionError("inverse of 0")
    return next(b for b in range(1, q) if poly_mul(a, b, q) == 1)


@cache
def poly_tables(q: int) -> tuple[list[list[int]], list[list[int]]]:
    """The addition and multiplication tables of F_q that the oracle gives."""
    return ([[poly_add(a, b, q) for b in range(q)] for a in range(q)],
            [[poly_mul(a, b, q) for b in range(q)] for a in range(q)])


def poly_row_sub(v: list[int], c: int, b: list[int], q: int) -> list[int]:
    """v - c*b over F_q, entry by entry."""
    return [poly_add(x, poly_neg(poly_mul(c, y, q), q), q) for x, y in zip(v, b)]


def poly_row_scale(c: int, v: list[int], q: int) -> list[int]:
    """c*v over F_q, entry by entry."""
    return [poly_mul(c, x, q) for x in v]


def poly_matmul(a, b, q: int) -> list[list[int]]:
    """a·b over F_q, each entry summed over a's row and b's column.  A b
    with no rows gives rows with no entries, as a nested list cannot say
    how many columns it has."""
    cols = list(zip(*b))
    return [[reduce(lambda s, xy: poly_add(s, poly_mul(*xy, q), q), zip(row, col), 0)
             for col in cols] for row in a]


def dense_gram(scheme: SchemeInstance, coefficients: Sequence[int]) -> ExactMatrix:
    """sum_d coefficients[d] A_(k-d), summed from the scheme's adjacency matrices."""
    total = zeros(scheme.size, scheme.size).data
    for d, c in enumerate(coefficients):
        a = scheme.adjacency_matrix(scheme.k - d).data
        total = [[t + c * e for t, e in zip(tr, ar)] for tr, ar in zip(total, a)]
    return ExactMatrix(total, cols=scheme.size)


def bucket_coefficients(buckets: dict[int, set[int]], k: int) -> list[int]:
    """c_0..c_k of U U^T = sum_d c_d A_(k-d) from the buckets of
    ``empirical_pair_counts``; raises unless each holds exactly one value."""
    return [c for d in range(k + 1) for (c,) in [buckets[d]]]


def block_subspaces(params: ParamSet, blocks: Sequence[int]) -> list[Subspace]:
    """The k-subspaces of a design given as canonical block indices."""
    k_subspaces = design_context(params).k_subspaces
    return [k_subspaces[b] for b in blocks]


def block_keys(params: ParamSet, blocks: Sequence[int]) -> list[tuple]:
    """The RREF keys of the k-subspaces of a design given as canonical block
    indices: the blocks as ``verify_design`` and the file loader take them."""
    return [s.key for s in block_subspaces(params, blocks)]


def coverage_keys(block: Subspace, i: int) -> list[tuple]:
    """The key of each i-subspace of the block, in the canonical order of
    the i-subspaces of F_q^k: the one-block case of ``_coverage_columns``."""
    return list(chain.from_iterable(_coverage_columns([block.key], block.dim, i, block.q)))


def per_intersection_counts(params: ParamSet, blocks: Sequence[int], i: int) -> set[int]:
    """#{Y != X : X ^ Y = I} over all blocks X and i-subspaces I of X."""
    blocks = block_subspaces(params, blocks)
    counts = set()
    for x, bx in enumerate(blocks):
        for key in coverage_keys(bx, i):
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


def designs_through_one_block(params: ParamSet) -> tuple[list[tuple[int, ...]], int]:
    """The designs through B0 = k-subspace 0, in search order, and the
    number of blocks through T0 = t-subspace 0: the exact-cover search over
    every cover row with each other row through T0 emptied, and no node
    budget."""
    ctx = design_context(params)
    rows = [() if b and 0 in tids else tids for b, tids in enumerate(ctx.cover)]
    return (_ExactCover(len(ctx.t_subspaces), rows).search(),
            sum(1 for tids in ctx.cover if 0 in tids))


def enumerate_plain(params: ParamSet) -> list[tuple[int, ...]]:
    """Every design's sorted block tuple, sorted: the exact-cover search
    over all cover rows, with no class argument and no node budget."""
    ctx = design_context(params)
    return sorted(_ExactCover(len(ctx.t_subspaces), ctx.cover).search())


def mobius_delta_check(w: Subspace) -> bool:
    """Verify sum over U <= W of mu(dim W - dim U) collapses to the delta.

    Concretely sum_j (#j-dim subspaces of W) * mu(d-j) must be 1 for d == 0
    and 0 otherwise.  Subspace counts come from explicit enumeration, so the
    check does not lean on any closed form.  Guarded to dim <= 4, q <= 3.
    """
    d, q = w.dim, w.q
    if d > 4 or q > 3:
        raise ValueError("mobius_delta_check guard exceeded (dim <= 4, q <= 3)")
    total = 0
    for j in range(d + 1):
        count = len(grassmannian(d, j, q))
        total += count * mobius_interval(d - j, q)
    return total == (1 if d == 0 else 0)


_ENUMERABLE_LIMIT = 1 << 16
_DIRECT_ENUM_LIMIT = 200_000


def _projective_points(d: int, q: int) -> list[tuple[int, ...]]:
    """One representative vector per 1-dim subspace of F_q^d."""
    return [s.basis[0] for s in grassmannian(d, 1, q)] if d else []


@cache
def _subspace_counts(d: int, q: int) -> tuple[int, ...]:
    """(#0-dim, ..., #d-dim) subspaces of F_q^d, counted by enumeration."""
    return tuple(len(grassmannian(d, j, q)) for j in range(d + 1))


@cache
def _spanning_count_sieve(m: int, d: int, q: int) -> int:
    """Defining sieve: subtract the spanning counts of all proper subspaces
    from the number of m-subsets of points.  Counts per dimension come from
    explicit enumeration."""
    if d == 0:
        return 0
    pts = len(_projective_points(d, q))
    total = comb(pts, m)
    counts = _subspace_counts(d, q)
    for j in range(d):
        total -= counts[j] * _spanning_count_sieve(m, j, q)
    return total


def spanning_count_bruteforce(m: int, d: int, q: int) -> int:
    """Independent oracle for spanning_count_formula.

    Enumerates m-subsets of projective points directly when that is feasible;
    otherwise falls back to the defining lattice sieve over concretely
    enumerated subspaces.  Guarded to q^d <= 2^16.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if q**d > _ENUMERABLE_LIMIT:
        raise ValueError("spanning_count_bruteforce guard exceeded (q^d <= 2^16)")
    pts = _projective_points(d, q)
    if m > len(pts):
        return 0
    if m * comb(len(pts), m) <= _DIRECT_ENUM_LIMIT:
        fld = field(q)
        count = 0
        for combo in combinations(pts, m):
            if rows_rank(combo, fld) == d:
                count += 1
        return count
    return _spanning_count_sieve(m, d, q)


_PROFILE_GUARD = 2000


@cache
def _fixed_intersection_profile(b: int, u: int, n: int, q: int) -> tuple[tuple[int, int], ...]:
    """One pass over Gr_{n,u} against B = span(e_1..e_b).

    Returns, indexed by a, the pair (#{U : U ^ B = span(e_1..e_a)},
    #{U : dim(U ^ B) = a}).  dim(U ^ B) is dim U minus the rank of the
    basis columns outside B, and U ^ B = A iff additionally A <= U.
    Refuses rather than truncates when Gr_{n,u} is too large to walk.
    """
    if gauss_binom(n, u, q) > _PROFILE_GUARD:
        raise ValueError(
            f"count_fixed_intersection_bruteforce guard exceeded: "
            f"[{n} {u}]_{q} > {_PROFILE_GUARD}"
        )
    fld = field(q)
    amax = min(b, u)
    exact = [0] * (amax + 1)
    dim_only = [0] * (amax + 1)
    for uspace in iter_subspaces(n, u, q):
        tails = [row[b:] for row in uspace.basis]
        d = uspace.dim - rows_rank(tails, fld)
        dim_only[d] += 1
        prefix = 0
        for i in range(min(d, b)):
            e_i = tuple(1 if j == i else 0 for j in range(n))
            if rows_rank(uspace.basis + (e_i,), fld) == uspace.dim:
                prefix += 1
            else:
                break
        if prefix >= d:
            exact[d] += 1
    return tuple(zip(exact, dim_only))


def count_fixed_intersection_bruteforce(
    a: int, b: int, u: int, n: int, q: int
) -> tuple[int, int]:
    """Exhaustive companion of count_fixed_intersection.

    Fixes B = span(e_1..e_b) and A = span(e_1..e_a), walks all u-dim
    subspaces and counts intersection dimensions directly.
    """
    if not (0 <= a <= min(b, u) <= max(b, u) <= n):
        raise ValueError("need 0 <= a <= min(b,u) <= max(b,u) <= n")
    return _fixed_intersection_profile(b, u, n, q)[a]


def kernel_sum_valuation(n: int, k: int, t: int, r: int, q: int) -> int:
    """q-adic valuation of the kernel sum (used for the nonvanishing window)."""
    val = kernel_sum(n, k, t, r, q)
    if val.denominator != 1:
        raise ValueError("kernel sum is not integral here")
    return q_valuation(val.numerator, q)


# ---------------------------------------------------------------------------
# the identity families, term by term
# ---------------------------------------------------------------------------
#
# Each side written literally: every term an unreduced (numerator,
# denominator) pair read off the cached ``gauss_binom`` Fractions by
# ``_term``, the pairs summed by ``_pair_sum``.  Same signatures, reports
# and skip reasons as the ``check_*`` functions of ``qsteiner.identities``.


def _term(sign: int, e: int, q: int, nums=(), dens=()) -> tuple[int, int]:
    """sign * q^e * prod(nums) / prod(dens) as an unreduced (numerator,
    denominator) pair of ints; nums and dens hold ints or Fractions, and e
    may be negative."""
    num, den = (sign * q**e, 1) if e >= 0 else (sign, q**-e)
    for x in nums:
        num *= x.numerator
        den *= x.denominator
    for x in dens:
        num *= x.denominator
        den *= x.numerator
    return num, den


def _pair_sum(terms) -> Fraction:
    """The sum of (numerator, denominator) pairs as one normalised Fraction:
    numerators add when the denominators agree, and cross-multiply otherwise."""
    num, den = 0, 1
    for a, b in terms:
        if b == den:
            num += a
        else:
            num, den = num * b + a * den, den * b
    return Fraction(num, den)


def _one_minus_q_pow(e: int, q: int) -> tuple[int, int]:
    """1 - q^e as an unreduced (numerator, denominator) pair."""
    return (1 - q**e, 1) if e >= 0 else (q**-e - 1, q**-e)


def _qbin_den(n: int, k: int, q: int) -> Fraction:
    """Gaussian binomial destined for a denominator; raises if it vanishes."""
    v = gauss_binom(n, k, q)
    if not v:
        raise VanishingDenominator(f"[{n} {k}]_{q} = 0 in a denominator")
    return v


def eval_3phi2_terms(upper: tuple[int, int, int], lower: tuple[int, int], q: int) -> Fraction:
    """Terminating 3phi2 at the argument q, parameters given as exponents."""
    nonpos = [-e for e in upper if e <= 0]
    if not nonpos:
        raise NonTerminatingSeries(f"no nonpositive upper exponent in {upper}")
    m = min(nonpos)
    for e in lower:
        if e <= 0 and -e < m:
            raise VanishingDenominator(f"lower parameter q^{e} vanishes before term {m}")
    num, den = 1, 1
    terms = [(num, den)]
    for ell in range(m):
        num *= q
        for e in upper:
            a, b = _one_minus_q_pow(e + ell, q)
            num, den = num * a, den * b
        for e in (*lower, 1):
            a, b = _one_minus_q_pow(e + ell, q)
            num, den = num * b, den * a
        terms.append((num, den))
    return _pair_sum(terms)


def transformation_3phi2_terms(n: int, a: int, b: int, c: int, d: int,
                               q: int) -> IdentityReport:
    if n < 0:
        raise PreconditionError("truncation order must be nonnegative")
    params = {"n": n, "a": a, "b": b, "c": c, "d": d, "q": q}
    lhs = eval_3phi2_terms((-n, a, b), (c, d), q)
    den = q_pochhammer(d, n, q)
    if den == 0:
        raise VanishingDenominator(f"(q^{d};q)_{n} = 0 in the prefactor")
    prefactor = q_pochhammer(c + d - a - b, n, q) / den * q_pow(n * (a + b - c), q)
    rhs = prefactor * eval_3phi2_terms((-n, c - a, c - b), (c, c + d - a - b), q)
    return IdentityReport("transformation_3phi2", params, lhs, rhs)


def q_binomial_theorem_terms(n: int, x: Fraction, y: Fraction, q: int) -> IdentityReport:
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    lhs = _pair_sum(
        _term(1, choose2(k), q, (gauss_binom(n, k, q), x**k, y ** (n - k)))
        for k in range(n + 1)
    )
    rhs = Fraction(1)
    for i in range(n):
        rhs *= x * q**i + y
    params = {"n": n, "x": f"{x.numerator}/{x.denominator}",
              "y": f"{y.numerator}/{y.denominator}", "q": q}
    return IdentityReport("q_binomial_theorem", params, lhs, rhs)


def product_expansion_terms(x: int, y: int, h: int, p: int, q: int) -> list[IdentityReport]:
    if not 0 <= h <= p:
        raise PreconditionError("need 0 <= h <= p")
    params = {"x": x, "y": y, "h": h, "p": p, "q": q}
    lhs = gauss_binom(x, h, q) * gauss_binom(y - x, p - h, q)
    rhs1 = _pair_sum(
        _term((-1) ** (v - h), -(p - h) * (x - h) + choose2(v - h), q,
              (gauss_binom(v, h, q), gauss_binom(y - v, p - v, q), gauss_binom(x, v, q)))
        for v in range(h, p + 1)
    )
    rhs2 = _pair_sum(
        _term((-1) ** (v - h), (v - h) * (y - x - p + h) + choose2(v - h + 1), q,
              (gauss_binom(v, h, q), gauss_binom(y - v, p - v, q), gauss_binom(x, v, q)))
        for v in range(h, p + 1)
    )
    return [IdentityReport("product_expansion_descending", params, lhs, rhs1),
            IdentityReport("product_expansion_ascending", params, lhs, rhs2)]


def alternating_column_sum_terms(x: int, a: int, q: int) -> IdentityReport:
    if a < 0:
        raise PreconditionError("a must be nonnegative")
    lhs = _pair_sum(_term((-1) ** v, choose2(v), q, (gauss_binom(x, v, q),))
                    for v in range(a + 1))
    rhs = q_pow(x * a, q) * gauss_binom(a - x, a, q)
    return IdentityReport("alternating_column_sum", {"x": x, "a": a, "q": q}, lhs, rhs)


def shifted_sum_transform_terms(n: int, r: int, k: int, u: int, i: int,
                                q: int) -> IdentityReport:
    if r > n + 1:
        raise PreconditionError("need r <= n + 1")
    if u < 0:
        raise PreconditionError("u must be nonnegative")
    params = {"n": n, "r": r, "k": k, "u": u, "i": i, "q": q}
    lhs = _pair_sum(
        _term((-1) ** s, choose2(u - s), q,
              (gauss_binom(n - r + 1, u - s, q), gauss_binom(k - i + s, s, q),
               gauss_binom(k - i + s, s, q)),
              (_qbin_den(r - i + s, s, q),))
        for s in range(u + 1)
    )
    rhs = _pair_sum(
        _term((-1) ** s,
              choose2(u - s) + s * (2 * r - 2 * k + s - 1) + u * (2 * k - i - r + 1), q,
              (gauss_binom(n - 2 * k + i, u - s, q), gauss_binom(k - r, s, q),
               gauss_binom(k - r, s, q)),
              (_qbin_den(r - i + s, s, q),))
        for s in range(u + 1)
    )
    return IdentityReport("shifted_sum_transform", params, lhs, rhs)


def shifted_sum_transform_diagonal_terms(n: int, r: int, k: int, i: int,
                                         q: int) -> IdentityReport:
    if r > n + 1:
        raise PreconditionError("need r <= n + 1")
    if i < 0:
        raise PreconditionError("i must be nonnegative")
    params = {"n": n, "r": r, "k": k, "i": i, "q": q}
    lhs = _pair_sum(
        _term((-1) ** s, choose2(i - s), q,
              (gauss_binom(r, i - s, q), gauss_binom(k - i + s, s, q),
               gauss_binom(k - i + s, s, q), gauss_binom(n - r + 1, i, q)),
              (_qbin_den(n - r - i + s + 1, s, q),))
        for s in range(i + 1)
    )
    rhs = _pair_sum(
        _term((-1) ** s,
              choose2(i - s) + s * (2 * r - 2 * k + s - 1) + i * (2 * k - r - i + 1), q,
              (gauss_binom(r, i - s, q), gauss_binom(k - r, s, q),
               gauss_binom(k - r, s, q), gauss_binom(n - 2 * k + i, i, q)),
              (_qbin_den(n - 2 * k + s, s, q),))
        for s in range(i + 1)
    )
    return IdentityReport("shifted_sum_transform_diagonal", params, lhs, rhs)


def double_sum_reduction_terms(n: int, r: int, k: int, t: int, q: int) -> IdentityReport:
    if t < 0:
        raise PreconditionError("t must be nonnegative")
    if r > n + 1:
        raise PreconditionError("need r <= n + 1")
    params = {"n": n, "r": r, "k": k, "t": t, "q": q}
    lhs = _pair_sum(
        _term((-1) ** s,
              i * (2 * k - t - r + 1) + choose2(s) + s * (2 * r - 2 * k + s - i), q,
              (gauss_binom(n - 2 * k + i, i, q), gauss_binom(k - i, t - i, q),
               gauss_binom(r, i - s, q), gauss_binom(k - r, s, q), gauss_binom(k - r, s, q)),
              (_qbin_den(k, i, q), _qbin_den(n - 2 * k + s, s, q)))
        for i in range(t + 1)
        for s in range(i + 1)
    )
    rhs = Fraction(*_term(1, 0, q, (gauss_binom(r, t, q), gauss_binom(n - r + 1, t, q)),
                          (_qbin_den(k, t, q),)))
    return IdentityReport("double_sum_reduction", params, lhs, rhs)


def _triple_terms(n: int, k: int, r: int, t: int, q: int, e0: int, with_ratio: bool):
    for i in range(t + 1):
        for j in range(t - i + 1):
            for s in range(i + 1):
                nums = (gauss_binom(n - 2 * k + i, i, q), gauss_binom(k - i, j, q),
                        gauss_binom(r, i - s, q), gauss_binom(k - r, s, q),
                        gauss_binom(k - r, s, q))
                dens = (_qbin_den(k, i, q), _qbin_den(n - 2 * k + s, s, q))
                if with_ratio:
                    nums += (gauss_binom(n - i - j, t - i - j, q),)
                    dens += (_qbin_den(k - i - j, t - i - j, q),)
                yield _term(
                    (-1) ** (i + j + s),
                    e0 - (k - i) ** 2 + choose2(j) + choose2(s + r - i) + (k - s - r) * (k - s),
                    q, nums, dens,
                )


def triple_sum_closed_form_terms(n: int, k: int, r: int, t: int, q: int) -> IdentityReport:
    if t < 0:
        raise PreconditionError("t must be nonnegative")
    if r > n + 1:
        raise PreconditionError("need r <= n + 1")
    params = {"n": n, "k": k, "r": r, "t": t, "q": q}
    lhs = _pair_sum(_triple_terms(n, k, r, t, q, 0, with_ratio=True))
    rhs = Fraction(*_term((-1) ** t, choose2(r) - k * r + choose2(t + 1), q,
                          (gauss_binom(r - 1, t, q), gauss_binom(n - r, t, q)),
                          (_qbin_den(k, t, q),)))
    return IdentityReport("triple_sum_closed_form", params, lhs, rhs)


def _weighted_terms(n: int, k: int, r: int, t: int, q: int):
    for a in range(t + 1):
        if a == t:
            e, nums, dens = choose2(t + 1), (), ()
        else:
            den = q_int(k - a, q)
            if den == 0:
                raise VanishingDenominator(f"[{k - a}]_{q} = 0 in c_{a}")
            e, nums, dens = choose2(a + 1) + n - a, (q_int(k - n, q),), (den,)
        yield _term((-1) ** a, e, q,
                    nums + (gauss_binom(r - 1, a, q), gauss_binom(n - r, a, q)),
                    dens + (_qbin_den(k, a, q),))


def triple_sum_weighted_form_terms(n: int, k: int, r: int, t: int, q: int) -> IdentityReport:
    if t < 0:
        raise PreconditionError("t must be nonnegative")
    if r > n + 1:
        raise PreconditionError("need r <= n + 1")
    params = {"n": n, "k": k, "r": r, "t": t, "q": q}
    lhs = _pair_sum(_weighted_terms(n, k, r, t, q))
    rhs = _pair_sum(_triple_terms(n, k, r, t, q, k * r - choose2(r), with_ratio=False))
    return IdentityReport("triple_sum_weighted_form", params, lhs, rhs)


def kernel_sum_terms(n: int, k: int, t: int, r: int, q: int) -> Fraction:
    return _pair_sum(
        _term((-1) ** i, choose2(i), q,
              (gauss_binom(k - i - 1, r - i - 1, q), gauss_binom(n - r, i, q)))
        for i in range(t)
    )


def eigenvalue_kernel_sum_terms(n: int, k: int, t: int, r: int, q: int) -> IdentityReport:
    if r < 1:
        raise PreconditionError("r must be at least 1")
    params = {"n": n, "k": k, "t": t, "r": r, "q": q}
    rhs = (-1) ** (r - 1) * q_pow(k * r - k - choose2(r), q) * gauss_binom(n - k - 1, r - 1, q)
    return IdentityReport("eigenvalue_kernel_sum", params, kernel_sum_terms(n, k, t, r, q), rhs)


# the term-by-term oracle of each check that sums terms, by the check's name
IDENTITY_ORACLES = {
    "check_3phi2_transformation": transformation_3phi2_terms,
    "check_q_binomial_theorem": q_binomial_theorem_terms,
    "check_product_expansion": product_expansion_terms,
    "check_alternating_column_sum": alternating_column_sum_terms,
    "check_shifted_sum_transform": shifted_sum_transform_terms,
    "check_shifted_sum_transform_diagonal": shifted_sum_transform_diagonal_terms,
    "check_double_sum_reduction": double_sum_reduction_terms,
    "check_triple_sum_closed_form": triple_sum_closed_form_terms,
    "check_triple_sum_weighted_form": triple_sum_weighted_form_terms,
    "check_eigenvalue_kernel_sum": eigenvalue_kernel_sum_terms,
}
