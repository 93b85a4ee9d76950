"""Seeded Desarguesian line spreads of F_2^(2m), built without qsteiner.

The points of PG(m-1, 4) are the 1-dimensional F_4-subspaces of F_4^m.  Read
over F_2, with the basis {1, w} of F_4 in each coordinate, every point
becomes a plane (2-dimensional subspace) of F_2^(2m), and these planes cover
each nonzero vector exactly once: a 1-(2m, 2, 1)_2 design with (4^m - 1)/3
blocks.  A random invertible F_2-linear map, chosen by the seed, relabels the
ambient space so that the file is not in any canonical form.

F_4 arithmetic (w^2 = w + 1) and the F_2 linear algebra are written out here
on bitmasks, so the inputs do not come from the code under test.  Vectors of
F_2^(2m) are ints; bit c is coordinate c.  An F_4 element a0 + a1*w is the
2-bit int a0 | a1 << 1, and coordinate j of F_4^m occupies bits 2j, 2j + 1.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

OMEGA = 2  # the element w of F_4


def f4_mul(a: int, b: int) -> int:
    """Product in F_4 = F_2[w] / (w^2 + w + 1)."""
    a0, a1, b0, b1 = a & 1, a >> 1, b & 1, b >> 1
    c0 = (a0 & b0) ^ (a1 & b1)
    c1 = (a0 & b1) ^ (a1 & b0) ^ (a1 & b1)
    return c0 | c1 << 1


def projective_points(m: int):
    """One representative per point of PG(m-1, 4): leading coordinate 1."""
    for lead in range(m):
        for tail in range(4 ** (m - 1 - lead)):
            coords = [0] * lead + [1]
            for _ in range(m - 1 - lead):
                coords.append(tail & 3)
                tail >>= 2
            yield coords


def embed(coords: list[int]) -> int:
    """F_4^m vector as a bitmask of F_2^(2m)."""
    word = 0
    for j, c in enumerate(coords):
        word |= c << (2 * j)
    return word


def random_relabeling(dim: int, rng: random.Random) -> list[int]:
    """Images of every vector of F_2^dim under a random invertible map.

    Columns are drawn uniformly and redrawn while they fall into the span of
    the earlier ones, which gives a uniform element of GL(dim, 2).
    """
    cols: list[int] = []
    pivots: dict[int, int] = {}  # highest set bit -> reduced column
    while len(cols) < dim:
        col = rng.getrandbits(dim)
        word = col
        while word:
            top = word.bit_length() - 1
            if top not in pivots:
                pivots[top] = word
                cols.append(col)
                break
            word ^= pivots[top]
    images = [0] * (1 << dim)
    for x in range(1, 1 << dim):
        low = (x & -x).bit_length() - 1
        images[x] = images[x & (x - 1)] ^ cols[low]
    return images


@dataclass
class Spread:
    """A line spread as (u, v) basis pairs, plus its perturbed copy."""

    dim: int
    blocks: list[tuple[int, int]]
    perturbed: list[tuple[int, int]]
    perturbed_cover: bytearray  # coverage of each vector by the perturbed blocks


def cover_counts(dim: int, blocks) -> bytearray:
    cover = bytearray(1 << dim)
    for u, v in blocks:
        cover[u] += 1
        cover[v] += 1
        cover[u ^ v] += 1
    return cover


def make_spread(m: int, seed: int) -> Spread:
    """The seeded, relabeled spread of F_2^(2m) and a copy with one block moved.

    Raises RuntimeError if the spread fails its own check: (4^m - 1)/3 blocks
    covering every nonzero vector exactly once.  The perturbed copy swaps
    block {u, v, u+v} for {u, x, u+x} with x outside it, so v and u+v are
    covered 0 times and x and u+x twice.
    """
    dim = 2 * m
    rng = random.Random(seed)
    images = random_relabeling(dim, rng)
    blocks = []
    for coords in projective_points(m):
        u = embed(coords)
        v = embed([f4_mul(OMEGA, c) for c in coords])
        blocks.append((images[u], images[v]))
    rng.shuffle(blocks)
    cover = cover_counts(dim, blocks)
    if len(blocks) != (4 ** m - 1) // 3 or cover[0] or any(
        c != 1 for c in cover[1:]
    ):
        raise RuntimeError("generated spread does not cover each vector once")
    idx = rng.randrange(len(blocks))
    u, v = blocks[idx]
    x = u
    while x in (u, v, u ^ v):
        x = rng.randrange(1, 1 << dim)
    perturbed = list(blocks)
    perturbed[idx] = (u, x)
    return Spread(dim, blocks, perturbed, cover_counts(dim, perturbed))


def bits(word: int, dim: int) -> list[int]:
    return [word >> c & 1 for c in range(dim)]


def write_design(path: Path, dim: int, blocks) -> None:
    """Write blocks as one qsteiner design file with parameters 1-(dim,2,1)_2."""
    obj = {"q": 2, "n": dim, "k": 2, "t": 1,
           "blocks": [[bits(u, dim), bits(v, dim)] for u, v in blocks]}
    path.write_text(json.dumps(obj, separators=(",", ":")) + "\n", encoding="utf-8")
