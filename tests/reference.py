"""Plain reference implementations the tests compare the library against.

The GridSet construction here is the bit-at-a-time one: a Z-order key
built one coordinate bit per pass, the split level of two neighbours from
the OR of their per-coordinate XORs, and bit lengths by halving shifts.
"""

import numpy as np


def bit_length(x) -> np.ndarray:
    """Exact bit length of each nonnegative int64, by halving shifts."""
    x = np.asarray(x, dtype=np.int64)
    out = np.zeros(len(x), dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        high = (x >> s) != 0
        out += s * high
        x = np.where(high, x >> s, x)
    return out + (x != 0)


def morton_order(cells: np.ndarray, level: int) -> np.ndarray:
    """Permutation sorting the cells by their bit-interleaved (Z-order) key.

    Bit b of coordinate j is key bit b*n + n-1-j; the key is packed into
    ceil(n*level/64) uint64 words, most significant word first.
    """
    m, n = cells.shape
    nwords = max(1, -(-n * level // 64))
    words = np.zeros((nwords, m), dtype=np.uint64)
    cols = cells.T.astype(np.uint64)
    for j in range(n):
        for b in range(level):
            pos = b * n + n - 1 - j
            bit = (cols[j] >> np.uint64(b)) & np.uint64(1)
            words[nwords - 1 - pos // 64] |= bit << np.uint64(pos % 64)
    return np.lexsort(words[::-1])


def construct(cells, n: int, level: int):
    """(cells, counts, split) of GridSet(n, level, cells): the cells in
    Z-order without duplicates, the box count at every level 0..level, and
    the split level of each pair of neighbours."""
    c = np.asarray(cells, dtype=np.int64).reshape(-1, n)
    c = c[morton_order(c, level)]
    diff = np.zeros(max(len(c) - 1, 0), dtype=np.int64)
    for j in range(n):
        diff |= c[1:, j] ^ c[:-1, j]
    c = c[np.concatenate([[True], diff != 0])[: len(c)]]
    split = bit_length(diff[diff != 0]).astype(np.int8)
    hist = np.bincount(split, minlength=level + 2)
    above = np.cumsum(hist[::-1])[::-1]
    counts = np.zeros(level + 1, dtype=np.int64)
    if len(c):
        counts = 1 + above[level + 1 : 0 : -1]
    return c, counts, split


def centers(g) -> np.ndarray:
    """Cell-centre coordinates of a GridSet, shape (m, n)."""
    c = g.cells + 0.5
    c /= 1 << g.level
    return c
