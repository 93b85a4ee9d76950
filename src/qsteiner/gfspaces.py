"""Finite-field subspace machinery.

Supports F_q for prime q plus q in {4, 8, 9} with fixed irreducible
polynomials (x^2+x+1, x^3+x+1 over F_2; x^2+2x+2 over F_3).  Field elements
are encoded as integers 0..q-1 read as base-p coefficient vectors, so any
k x n basis matrix is a plain nested list of small ints.  ``FieldSpec``
chooses a field's arithmetic once: modular for prime q, and for q = 4, 8, 9
lookups in addition, multiplication, negation and inverse tables built once
from the base-p digits.  ``gf_matmul`` sums whole rows with ``row_sub``.

Subspaces are kept in reduced row echelon form, which makes equality a tuple
comparison and gives a total canonical order on each Grassmannian: pivot
column sets in colexicographic order, then the free entries read row-major
as base-q digits.  ``grassmannian`` holds each Grassmannian in exactly that
order, and ``_canonical_keys`` walks it lazily, with no Subspace built.

Elimination has one kernel per field kind.  Over F_2 a row is packed into
an int, bit j holding column j, and ``_f2_eliminate`` runs on xor for
``rows_rank``, ``Subspace.contains``, ``intersection_dim`` and the RREF key
of a spanning set: its packed rows, which a Subspace unpacks into its tuple
basis when built.  Other fields, and ``rref`` over every field, go through
``_fq_eliminate``, on whole rows with the field's ``row_sub`` and
``row_scale``.  F_2 designs are read from the text of their block list:
``_f2_text_blocks`` compares it with a fixed-width template and packs each
row's digits with ``int``, and ``_f2_reduce_blocks`` reduces all the blocks
so read into their keys together, in k passes over the whole list, with no
Subspace built and no ``_f2_eliminate`` call per block.
``_coverage_columns`` is the one coverage kernel, for every field: it forms
the keys of the i-subspaces of every block one row of W at a time, across
all blocks.  One block's coverage keys and the ``_inner_indices`` tables
are its special cases.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from math import comb
from operator import itemgetter, xor

from .exactq import choose2, gauss_binom, prime_power_parts, q_int

# const-first coefficient tuples of the fixed irreducible polynomials
_IRREDUCIBLE = {
    4: (1, 1, 1),  # x^2 + x + 1 over F_2
    8: (1, 1, 0, 1),  # x^3 + x + 1 over F_2
    9: (2, 2, 1),  # x^2 + 2x + 2 over F_3
}


class FieldSpec:
    """Arithmetic for F_q with the fixed element encoding, chosen once.

    Prime fields bind modular arithmetic.  The supported extension fields
    bind lookups in ``add``, ``mul``, ``neg`` and ``inv`` tables, built once
    from base-p digits and the powers of x reduced by the fixed polynomial.
    The elimination kernel works on whole rows through ``row_sub(v, c, b)``,
    which is v - c*b, and ``row_scale(c, v)``, which is c*v: modular list
    comprehensions for prime fields, table lookups otherwise.
    """

    def __init__(self, q: int):
        p, e = prime_power_parts(q)
        self.q = q
        self.p = p
        self.e = e
        if e == 1:
            self.add = lambda a, b: (a + b) % q
            self.neg = lambda a: -a % q
            self.mul = lambda a, b: a * b % q
            self._inverse = lambda a: pow(a, q - 2, q)
            self.row_sub = lambda v, c, b: [(x - c * y) % q for x, y in zip(v, b)]
            self.row_scale = lambda c, v: [c * x % q for x in v]
        else:
            if q not in _IRREDUCIBLE:
                raise ValueError(f"unsupported extension field order {q}")
            add, mul = _extension_tables(q, p, e)
            neg = [row.index(0) for row in add]
            # axpy[c][x][y] = x - c*y
            axpy = [[[add[x][neg[mul[c][y]]] for y in range(q)] for x in range(q)]
                    for c in range(q)]

            def row_sub(v, c, b):
                t = axpy[c]
                return [t[x][y] for x, y in zip(v, b)]

            def row_scale(c, v):
                t = mul[c]
                return [t[x] for x in v]

            self.add = lambda a, b: add[a][b]
            self.neg = neg.__getitem__
            self.mul = lambda a, b: mul[a][b]
            self._inverse = [0, *[row.index(1) for row in mul[1:]]].__getitem__
            self.row_sub = row_sub
            self.row_scale = row_scale
        if q <= 9:
            self._check_axioms()

    def _check_axioms(self) -> None:
        q = self.q
        for a in range(q):
            for b in range(q):
                ab = self.mul(a, b)
                if ab != self.mul(b, a):
                    raise AssertionError("multiplication not commutative")
                for c in range(q):
                    if self.mul(a, self.add(b, c)) != self.add(ab, self.mul(a, c)):
                        raise AssertionError("distributivity fails")
                    if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                        raise AssertionError("associativity fails")
        for a in range(1, q):
            if self.mul(a, self.inv(a)) != 1:
                raise AssertionError("inverse fails")

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inverse(a)


def _extension_tables(q: int, p: int, e: int) -> tuple[list[list[int]], list[list[int]]]:
    """The addition and multiplication tables of F_q = F_p[x]/(the fixed
    polynomial), element a standing for the polynomial whose base-p digits,
    lowest first, are its coefficients."""
    digits = [ds[::-1] for ds in itertools.product(range(p), repeat=e)]
    index = {ds: a for a, ds in enumerate(digits)}
    # the digits of x^0 .. x^(2e-2): x^(i+1) is x^i shifted up one place,
    # its top digit c folded back in as c * x^e = -c * (the lower coefficients)
    powers = [[int(i == j) for j in range(e)] for i in range(e)]
    for _ in range(e - 1):
        *low, top = powers[-1]
        powers.append([(x - top * m) % p for x, m in zip([0, *low], _IRREDUCIBLE[q])])
    add = [[index[tuple([(x + y) % p for x, y in zip(da, db)])] for db in digits]
           for da in digits]
    # a*b: digit d sums x*y times digit d of x^(i+j) over a's digits x and b's y
    mul = [[index[tuple([sum(x * y * powers[i + j][d] for i, x in enumerate(da)
                             for j, y in enumerate(db)) % p for d in range(e)])]
            for db in digits] for da in digits]
    return add, mul


@cache
def field(q: int) -> FieldSpec:
    return FieldSpec(q)


# bytes 0 and 1 as binary digits, every other byte as "2", which int(_, 2) refuses
_F2_DIGITS = bytes(b"01" + b"2" * 254)
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _pack(row) -> int:
    """An F_2 row as an int, bit j holding column j; entries that are not
    0 or 1 (or True or False) raise in ``bytes`` or in ``int``."""
    return int(bytes(row)[::-1].translate(_F2_DIGITS) or b"0", 2)


def _unpack(word: int, n: int) -> tuple[int, ...]:
    """The row of length n >= 1 that ``_pack`` packs into word."""
    return tuple(bin(word)[:1:-1].ljust(n, "0").encode().translate(_BIT_VALUES))


def _f2_eliminate(words) -> dict[int, int]:
    """Gauss-Jordan elimination of packed F_2 rows, the one general F_2
    kernel (a design file's block list is reduced by ``_f2_reduce_blocks``).

    Returns {pivot bit: row}: each row's lowest set bit is its pivot, and
    every row is zero in the pivot columns of the others, so the rows sorted
    by pivot are the RREF.
    """
    basis: dict[int, int] = {}
    for word in words:
        for piv, row in basis.items():
            if word & piv:
                word ^= row
        if word:
            low = word & -word
            for piv, row in basis.items():
                if row & low:
                    basis[piv] = row ^ word
            basis[low] = word
    return basis


def _fq_eliminate(rows, fld: FieldSpec) -> dict[int, list[int]]:
    """Forward elimination over F_q, the one kernel for every field but F_2.

    Returns {pivot column: tail}: the tail is a row of the echelon form from
    its pivot column on, led by a 1, so the padded tails sorted by pivot are
    a row echelon form of the input and their number is its rank.  A row is
    held from its first nonzero column on, so each ``row_sub`` skips the
    columns that are already zero.
    """
    sub, scale, inv = fld.row_sub, fld.row_scale, fld.inv
    basis: dict[int, list[int]] = {}
    for v in rows:
        j = 0  # v holds the row's columns j, j+1, ...
        while (k := next((i for i, x in enumerate(v) if x), None)) is not None:
            j += k
            tail = basis.get(j)
            if tail is None:
                basis[j] = v[k:] if v[k] == 1 else scale(inv(v[k]), v[k:])
                break
            v = sub(v[k:], v[k], tail)
    return basis


def rref(rows, fld: FieldSpec) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form over F_q.

    Returns (nonzero rows as tuples, pivot columns).  Idempotent on its own
    output; the zero space comes back as an empty row tuple.  The rows go
    through ``_fq_eliminate`` over every field, F_2 included, and its padded
    rows then have the entries above each pivot cleared, last pivot first.
    """
    tails = _fq_eliminate(rows, fld)
    pivots = sorted(tails)
    reduced = {piv: [0] * piv + list(tails[piv]) for piv in pivots}
    for i in range(len(pivots) - 2, -1, -1):
        row = reduced[pivots[i]]
        for piv in pivots[i + 1:]:
            if row[piv]:
                row = fld.row_sub(row, row[piv], reduced[piv])
        reduced[pivots[i]] = row
    return tuple([tuple(reduced[piv]) for piv in pivots]), tuple(pivots)


def rows_rank(rows, fld: FieldSpec) -> int:
    """Rank of a coefficient matrix over F_q: the number of pivots that
    ``_f2_eliminate`` (rows packed into ints) or ``_fq_eliminate`` finds."""
    if fld.q == 2:
        return len(_f2_eliminate(map(_pack, rows)))
    return len(_fq_eliminate(rows, fld))


class Subspace:
    """A subspace of F_q^n held as its canonical RREF, ``key``: over F_2 one
    int per row, bit j holding column j, rows in pivot order; otherwise the
    RREF basis.  Equality and hashing go through (ambient, q, key).  Over
    F_2 ``basis`` is unpacked from the key, and ``pivots`` is read off it."""

    __slots__ = ("ambient", "q", "key", "basis", "pivots")

    def __init__(self, ambient: int, q: int, key: tuple):
        self.ambient = ambient
        self.q = q
        self.key = key
        self.basis = tuple([_unpack(word, ambient) for word in key]) if q == 2 else key
        self.pivots = tuple([row.index(1) for row in self.basis])

    @property
    def dim(self) -> int:
        return len(self.key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient, self.q, self.key) == (other.ambient, other.q, other.key)

    def __hash__(self) -> int:
        return hash((self.ambient, self.q, self.key))

    def __repr__(self) -> str:
        return f"Subspace(n={self.ambient}, q={self.q}, basis={self.basis})"

    def contains(self, other: "Subspace") -> bool:
        """True iff other is a subspace of self."""
        if other.ambient != self.ambient or other.q != self.q:
            raise ValueError("ambient mismatch")
        return rows_rank(self.basis + other.basis, field(self.q)) == self.dim

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.basis]


# JSON whitespace, and the map of a 1 onto the template's digit slot 0
_JSON_SPACE = b" \t\n\r"
_ONE_AS_ZERO = bytes.maketrans(b"1", b"0")
# characters of a block list read at a time
_TEXT_STEP = 1 << 16


def _f2_text_blocks(text: str, start: int, end: int, n: int, k: int) -> list[tuple] | None:
    """The RREF keys of the k-subspaces of F_2^n that the JSON array
    text[start:end] of k x n 0/1 matrices spans, in list order; None unless
    it holds a matrix, all exactly in that form, and every block has rank k.

    With JSON whitespace deleted and each 1 read as 0, the array must equal,
    byte for byte, the fixed-width template of its blocks: k rows of n
    one-character slots each.  Whitespace only sits between tokens, so that
    is exact: a split number (``1 0``) leaves two digits side by side, and
    ``-0``, ``01``, ``1.0``, ``true``, a comma too many or too few and a
    wrong row length each change a byte.  Each row's digits, reversed, are
    its packed word (bit j is column j).  The text is read a fixed number of
    characters at a time, so no copy of the whole array is held, and the
    words of the blocks in each piece are reduced together
    (``_f2_reduce_blocks``).
    """
    size = k * (2 * n + 2) + 2  # one block and its comma
    if size > end - start:
        return None
    unit = b"[" + b",".join([b"[" + b",".join([b"0"] * n) + b"]"] * k) + b"],"
    template = unit * (_TEXT_STEP // size + 2)
    # the array's inside, and the comma that ends its last block
    steps = (text[i:min(i + _TEXT_STEP, end - 1)].encode().translate(None, _JSON_SPACE)
             for i in range(start + 1, end - 1, _TEXT_STEP))
    blocks = []
    rest = b""
    for piece in itertools.chain(steps, [b","]):
        piece = rest + piece
        whole = len(piece) - len(piece) % size
        body, rest = piece[:whole], piece[whole:]
        if not template.startswith(body.translate(_ONE_AS_ZERO)):
            return None
        digits = body.translate(None, b"[],")[::-1]
        words = [int(digits[i:i + n], 2) for i in range(0, len(digits), n)][::-1]
        keys = _f2_reduce_blocks(words, k)
        if keys is None:
            return None
        blocks += keys
    return blocks if blocks and not rest else None


def _f2_reduce_blocks(words: list[int], k: int) -> list[tuple[int, ...]] | None:
    """The RREF keys of the blocks of k consecutive packed F_2 rows in
    words, in list order; None unless every block has rank k.

    Gauss-Jordan elimination on all blocks at once, in k passes over the
    whole list: pass j clears the pivots of rows 0..j-1 from row j of every
    block, takes its lowest set bit as its pivot (a zero row means a block
    of lower rank), and clears that pivot from rows 0..j-1.  The rows of
    each block are then sorted by pivot with k(k-1)/2 adjacent
    compare-exchanges.  RREF is unique, so each key is the one
    ``_f2_eliminate`` gives for its block alone.
    """
    rows = [words[j::k] for j in range(k)]
    pivots = []
    for j in range(k):
        row = rows[j]
        for i in range(j):
            row = [x ^ y if x & p else x for x, y, p in zip(row, rows[i], pivots[i])]
        if 0 in row:
            return None
        pivot = [x & -x for x in row]
        for i in range(j):
            rows[i] = [x ^ y if x & p else x for x, y, p in zip(rows[i], row, pivot)]
        rows[j] = row
        pivots.append(pivot)
    for top in range(k - 1, 0, -1):
        for i in range(top):
            low = [a if a & -a < b & -b else b for a, b in zip(rows[i], rows[i + 1])]
            # of a and b, the one that low does not hold
            rows[i + 1] = [a ^ b ^ c for a, b, c in zip(rows[i], rows[i + 1], low)]
            rows[i] = low
    return list(zip(*rows))


def _check_rows(rows, n: int, q: int) -> None:
    """Raise for the first bad row length or entry, row by row and entry by entry."""
    for r in rows:
        if len(r) != n:
            raise ValueError(f"row length {len(r)} != ambient {n}")
        for x in r:
            # bool is an int subclass, and JSON 1.0 or true must not pass as 1
            if type(x) is not int:
                raise ValueError(f"entry {x!r} is not an integer")
            if not 0 <= x < q:
                raise ValueError("entry outside 0..q-1")


def _rref_key(rows, n: int, q: int, expect_dim: int | None = None) -> tuple:
    """The canonical RREF key of the span of rows in F_q^n: check the rows,
    naming the first bad entry, then reduce them, packed over F_2."""
    _check_rows(rows, n, q)
    if q == 2:
        reduced = _f2_eliminate(map(_pack, rows))
        key = tuple([reduced[piv] for piv in sorted(reduced)])
    else:
        key = rref(rows, field(q))[0]
    if expect_dim is not None and len(key) != expect_dim:
        raise ValueError(f"expected dimension {expect_dim}, got {len(key)}")
    return key


def subspace_from_rows(rows, n: int, q: int, expect_dim: int | None = None) -> Subspace:
    """Canonicalize a spanning set into a Subspace of F_q^n (``_rref_key``)."""
    return Subspace(n, q, _rref_key(rows, n, q, expect_dim))


def _pivot_sets_colex(n: int, k: int):
    """Lazily yield the k-subsets of range(n), as sorted tuples, in
    colexicographic order (by their reversed tuples), with no recursion.

    The successor raises the lowest entry that can grow without meeting the
    next one (n above the last) and resets the entries below it to 0, 1, ...
    """
    if not 0 <= k <= n:
        return
    c = list(range(k)) + [n]
    while True:
        yield tuple(c[:k])
        j = 0
        while j < k and c[j] + 1 == c[j + 1]:
            j += 1
        if j == k:
            return
        c[j] += 1
        c[:j] = range(j)


def _free_positions(pivots: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """Row-major list of the unconstrained (row, col) slots of an RREF shape."""
    pivot_set = set(pivots)
    out = []
    for i, p in enumerate(pivots):
        for j in range(p + 1, n):
            if j not in pivot_set:
                out.append((i, j))
    return out


def _basis_for(pivots: tuple[int, ...], digits, n: int,
               free: list[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    rows = [[0] * n for _ in pivots]
    for i, p in enumerate(pivots):
        rows[i][p] = 1
    for (i, j), d in zip(free, digits):
        rows[i][j] = d
    return tuple(tuple(r) for r in rows)


def iter_subspaces(n: int, k: int, q: int):
    """Lazily yield the k-dim subspaces of F_q^n in canonical order."""
    for key, _ in _canonical_keys(n, k, q):
        yield Subspace(n, q, key)


def _canonical_keys(n: int, k: int, q: int):
    """(key, pivots) of each k-subspace of F_q^n in canonical order, with
    no Subspace built.

    Over F_2 the key's packed rows are read straight off (pivots, digits):
    ``itertools.product`` over the free slots' (0, 1 << column) choices
    walks the digits in canonical order, and row i of the RREF is its pivot
    bit plus the sum of its own slots' choices.  Row i has n - k - p_i + i
    free slots, the columns after its pivot p_i that hold no later pivot.
    Other fields' keys are the RREF bases.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    field(q)  # validates q
    bits = [(0, 1 << j) for j in range(n)]
    for pivots in _pivot_sets_colex(n, k):
        if q != 2:
            free = _free_positions(pivots, n)
            for digits in itertools.product(range(q), repeat=len(free)):
                yield _basis_for(pivots, digits, n, free), pivots
            continue
        pivot_set = set(pivots)
        choices = [bits[j] for p in pivots for j in range(p + 1, n) if j not in pivot_set]
        rows = []  # (pivot bit, first slot, end of slots) of each row
        start = 0
        for i, p in enumerate(pivots):
            stop = start + n - k - p + i
            rows.append((1 << p, start, stop))
            start = stop
        for digits in itertools.product(*choices):
            yield tuple([sum(digits[a:b], lead) for lead, a, b in rows]), pivots


@cache
def grassmannian(n: int, k: int, q: int) -> tuple[Subspace, ...]:
    """The k-dim subspaces of F_q^n in canonical order, built once.

    Order: pivot sets colexicographically, then free entries read row-major
    as base-q digits (first slot most significant).  Length is [n k]_q.
    """
    return tuple(iter_subspaces(n, k, q))


def gf_matmul(a, b, fld: FieldSpec) -> list[list[int]]:
    """Product of two coefficient matrices over F_q (nested int lists): each
    row of a*b is a sum of whole rows of b, x*brow added as acc - (-x)*brow."""
    sub, neg = fld.row_sub, fld.neg
    cols_b = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * cols_b
        for x, brow in zip(row, b):
            if x:
                acc = sub(acc, neg(x), brow)
        out.append(acc)
    return out


@cache
def _inner_indices(n: int, k: int, i: int, q: int) -> tuple[tuple[int, ...], ...]:
    """For each k-subspace of F_q^n in canonical order, the canonical
    indices of its i-subspaces, built once."""
    index = {s.key: j for j, s in enumerate(grassmannian(n, i, q))}
    columns = _coverage_columns([b.key for b in grassmannian(n, k, q)], k, i, q)
    return tuple(zip(*[list(map(index.__getitem__, col)) for col in columns]))


def _coverage_columns(keys: list, k: int, i: int, q: int) -> list:
    """The one coverage kernel, over the RREF keys of many k-subspaces at once.

    Returns one iterable per i-subspace W of F_q^k, in canonical order,
    yielding the key of W.B for each block key B in list order.  No
    elimination is needed: W.B is already in RREF.  B's pivot columns are
    unit columns, so W.B restricted to them is W; row r of W.B is zero
    before column B.pivots[W.pivots[r]], where it holds W's leading 1, and
    every other pivot column of W.B holds a zero of W.

    Row r of W.B is the combination of block rows that row r of W gives.
    Each is formed once, as a column across all blocks, through its
    prefixes: the one through coefficient c at position j is the one before
    it plus c times block row j, and the first, W's leading 1, is a block
    row.  So only the rows some W uses are built, never all q^k.
    """
    rows = [list(map(itemgetter(j), keys)) for j in range(k)]
    if q == 2:  # packed rows, and c is 1
        def add(col, c, j):
            return list(map(xor, col, rows[j]))
    else:
        sub, neg = field(q).row_sub, field(q).neg

        def add(col, c, j):
            return [tuple(sub(v, neg(c), b)) for v, b in zip(col, rows[j])]
    # prefix -> column; no function here refers to itself, so no reference
    # cycle holds the columns while the collector is paused
    cols = {(0,) * j + (1,): row for j, row in enumerate(rows)}

    def column(w):
        for j, c in enumerate(w):
            if c:
                if w[:j + 1] not in cols:
                    cols[w[:j + 1]] = add(col, c, j)
                col = cols[w[:j + 1]]
        return col

    return [zip(*map(column, w.basis)) if w.dim else [()] * len(keys)
            for w in grassmannian(k, i, q)]


def intersection_dim(a: Subspace, b: Subspace) -> int:
    """dim(a ^ b) via dim a + dim b - rank of the stacked bases."""
    if a.ambient != b.ambient or a.q != b.q:
        raise ValueError("ambient mismatch")
    stacked = list(a.basis) + list(b.basis)
    return a.dim + b.dim - rows_rank(stacked, field(a.q))


def mobius_interval(d: int, q: int) -> int:
    """Value of the subspace-lattice Mobius function on an interval of height d."""
    if d < 0:
        raise ValueError("interval height must be nonnegative")
    return (-1) ** d * q ** choose2(d)


def spanning_count_formula(m: int, d: int, q: int) -> int:
    """Number of m-sets of pairwise non-collinear nonzero vectors spanning F_q^d.

    Closed form: sum_j [d j] (-1)^(d-j) q^C(d-j,2) C([j]_q, m).
    """
    if m < 1:
        raise ValueError("m must be positive")
    total = Fraction(0)
    for j in range(d + 1):
        pts = q_int(j, q)
        if pts.denominator != 1:
            raise ValueError(f"[{j}]_{q} = {pts} is not an integer")
        total += (
            gauss_binom(d, j, q)
            * (-1) ** (d - j)
            * q ** choose2(d - j)
            * comb(int(pts), m)
        )
    if total.denominator != 1:
        raise ValueError(f"spanning count {total} is not an integer")
    return int(total)


def count_fixed_intersection(a: int, b: int, u: int, n: int, q: int) -> tuple[int, int]:
    """Closed-form counts for intersections with a fixed b-dim space B.

    Returns (#{u-dim U with U ^ B = A} for a fixed a-dim A <= B,
             #{u-dim U with dim(U ^ B) = a}).
    """
    if not (0 <= a <= min(b, u) <= max(b, u) <= n):
        raise ValueError("need 0 <= a <= min(b,u) <= max(b,u) <= n")
    base = q ** ((b - a) * (u - a)) * gauss_binom(n - b, u - a, q)
    both = base * gauss_binom(b, a, q)
    if base.denominator != 1 or both.denominator != 1:
        raise ValueError(f"fixed-intersection counts {base}, {both} not integral")
    return int(base), int(both)
