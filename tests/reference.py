"""Plain reference implementations the tests compare the library against.

The GridSet construction here is the bit-at-a-time one: a Z-order key
built one coordinate bit per pass, the split level of two neighbours from
the OR of their per-coordinate XORs, and bit lengths by halving shifts.
Beside it stands the word-at-a-time construction that preceded the batched
sort-and-split kernel: every chunk of 63 // g bits spread by log-step shifts
cell by cell, and the split level off the first differing word.  An .rle
blob is decoded by one broadcast shift and mask of the linear indices, and
written from the short-axis sum of every cell's shifted coordinates, sorted
by np.sort; a grid's CSV rows are its cells in np.lexsort order.  The
spreadify candidates are box-counted one GridSet at a time.  A stack
of float clouds is placed with its minima taken over the middle axis, and
each cloud's scale is found by doubling.  A row of box counts is fitted by
np.linalg.lstsq, the per-row solve that the closed-form fit replaced.
The finite-field directions are enumerated one RREF basis at a time, and
the coset representative and subspace points are the scalar loops behind
ff_coset_profile's vectorized labels; the graph form of a hyperplane reads
the AffineFlat images of apply_projective, and a graph-form plane becomes
an AffineFlat through the QR of its normal beside the identity.  A CSV table is written row by
row by csv.writer, and Haar-ball hits are counted with the batched-SVD
distance of every draw.  The Grassmann distance is the largest singular
value of the projector difference.  Haar bases of every dimension, lines included, are
drawn by a batched QR with the signs of diag R made positive.  The slab
intervals of the maximal sweep find their translate columns by
np.searchsorted on the translate grid.
"""

import csv
import io
import itertools
import math
import struct

import numpy as np

from furstlab import table
from furstlab.dimension import estimate_dimension, grid_from_points
from furstlab.duality import GraphHyperplane, VerticalHyperplaneError
from furstlab.finitefield import FFSet
from furstlab.grassmann import (
    _CHUNK,
    AffineFlat,
    Subspace,
    _grass_distance_batch,
    haar_projector_batch,
)
from furstlab.maximal import _translate_grid
from furstlab.tolerances import TOL_EXACT


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


def construct_words(cells, n: int, level: int):
    """(cells, counts, split) of GridSet(n, level, cells), as the
    word-at-a-time construction computed them: Z-order keys of g = min(n, 63)
    coordinates and w = 63 // g bits of each per uint64 word, every chunk
    spread by log-step shifts, a stable sort, and each neighbour pair's split
    level off the first word where their keys differ."""
    c = np.asarray(cells, dtype=np.int64).reshape(-1, n)
    m = len(c)
    g = min(n, 63)
    w = 63 // g
    groups = -(-n // g)
    bits = min(level, 63)
    nchunks = max(1, -(-bits // w))
    width = max(1, min(w, bits))
    steps = []
    s = (1 << (width - 1).bit_length()) >> 1
    while g > 1 and s:
        mask = sum(1 << (r // s * s * g + r % s) for r in range(width))
        steps.append((np.uint64(s * (g - 1)), np.uint64(mask)))
        s >>= 1
    cols = c.view(np.uint64)
    words = np.zeros((nchunks * groups, m), dtype=np.uint64)
    for i in range(nchunks):
        for j in range(n):
            x = (cols[:, j] >> np.uint64(i * w)) & np.uint64((1 << w) - 1)
            for shift, mask in steps:
                x |= x << shift
                x &= mask
            words[(nchunks - 1 - i) * groups + j // g] |= x << np.uint64(g - 1 - j % g)
    base = (w * (nchunks - 1 - np.arange(len(words)) // groups))[:, None]
    order = np.lexsort(words[::-1])
    c, words = c[order], words[:, order]
    x = words[:, 1:] ^ words[:, :-1]
    b = np.frexp((x & ~(x >> np.uint64(1))).astype(np.float64))[1]
    d = np.where(b > 0, base + (b + g - 1) // g, 0).max(axis=0)
    c = c[np.concatenate([[True], d != 0])[:m]]
    split = d[d != 0].astype(np.int8)
    hist = np.bincount(split, minlength=level + 2)
    above = np.cumsum(hist[::-1])[::-1]
    counts = np.zeros(level + 1, dtype=np.int64)
    if len(c):
        counts = 1 + above[level + 1 : 0 : -1]
    return c, counts, split


def rle_cells(blob: bytes):
    """(n, level, cells) of a well-formed .rle blob, the linear indices of
    its runs, one run at a time, split into coordinates by one broadcast
    shift and mask."""
    _, n, level, nruns = struct.unpack_from("<4sBBQ", blob, 0)
    runs = np.frombuffer(blob, dtype="<u8", offset=14).reshape(nruns, 2).tolist()
    lin = np.array([v for start, length in runs for v in range(start, start + length)],
                   dtype=np.int64)
    shifts = level * np.arange(n - 1, -1, -1)
    return n, level, (lin[:, None] >> shifts) & ((1 << level) - 1)


def rle_sum_sort(g) -> bytes:
    """GridSet.to_rle's blob from the short-axis sum of each cell's shifted
    coordinates, sorted by np.sort, its runs stacked and cast to "<u8"."""
    shifts = g.level * np.arange(g.n - 1, -1, -1)
    lin = np.sort((g.cells << shifts).sum(axis=1))
    first = np.flatnonzero(np.concatenate([[True], np.diff(lin) != 1])[: len(lin)])
    runs = np.column_stack([lin[first], np.diff(first, append=len(lin))])
    return struct.pack("<4sBBQ", b"GRLE", g.n, g.level, len(runs)) + runs.astype("<u8").tobytes()


def csv_lexsort(g) -> str:
    """GridSet.to_csv's text from the Z-ordered cells put in np.lexsort order."""
    return table.to_csv([f"i{j}" for j in range(g.n)], g.cells[np.lexsort(g.cells.T[::-1])])


def cover_scale(span: float) -> float:
    """The smallest power of two that is at least span and at least 1, by
    doubling."""
    scale = 1.0
    while scale < span:
        scale *= 2
    return scale


def point_cells(pts, level: int) -> np.ndarray:
    """The cells at `level` of the rows of one (m, d) float cloud, shifted by
    its minimum and scaled by the smallest power of two covering its span:
    the placement of one cloud alone."""
    lo = pts.min(axis=0) if len(pts) else np.zeros(pts.shape[1])
    span = float((pts - lo).max()) if len(pts) else 0.0
    unit = (pts - lo) / cover_scale(span)
    return np.clip((unit * (1 << level)).astype(np.int64), 0, (1 << level) - 1)


def stack_point_cells(pts, level: int) -> np.ndarray:
    """The cells at `level` of a (..., m, d) stack of clouds, each shifted by
    its minimum over the middle axis (numpy's reduction over an axis that
    is not the last) and scaled by its own power of two: the stacked
    placement before its minima ran along a contiguous axis."""
    if not pts.shape[-2]:
        return np.zeros(pts.shape, dtype=np.int64)
    unit = pts - pts.min(axis=-2, keepdims=True)
    span = unit.max(axis=(-2, -1))
    scale = [cover_scale(s) for s in span.ravel().tolist()]
    unit /= np.reshape(scale, span.shape + (1, 1))
    unit *= 1 << level
    return np.clip(unit.astype(np.int64), 0, (1 << level) - 1)


def lstsq_fit(counts, l_min: int, l_max: int) -> tuple:
    """(slope, intercept, r2) of log2 of the box counts of one row at levels
    l_min..l_max, given in that order: a least-squares solve by
    np.linalg.lstsq on math.log2 of each count.  On a flat row its r2 is
    not reliable: roundoff in the mean can leave a total sum of squares of
    about 1e-31, which the residual's roundoff then overwhelms."""
    levels = np.arange(l_min, l_max + 1, dtype=float)
    logs = np.array([math.log2(int(c)) for c in counts])
    a = np.vstack([levels, np.ones_like(levels)]).T
    coef, *_ = np.linalg.lstsq(a, logs, rcond=None)
    ss_res = float(((logs - a @ coef) ** 2).sum())
    ss_tot = float(((logs - logs.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 1e-30 else 1.0
    return float(coef[0]), float(coef[1]), r2


def candidate_dimensions_loop(duals, candidates, l_min: int, l_max: int) -> list:
    """spreadify's candidate dimensions, one GridSet per candidate basis b."""
    return [estimate_dimension(grid_from_points(duals @ b, l_max), l_min, l_max).slope
            for b in candidates]


def centers(g) -> np.ndarray:
    """Cell-centre coordinates of a GridSet, shape (m, n)."""
    c = g.cells + 0.5
    c /= 1 << g.level
    return c


def subspace_from_spanning(vectors) -> Subspace:
    """The Subspace spanned by the columns of vectors, orthonormalized by QR."""
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    if v.ndim != 2:
        raise ValueError("expected a matrix of column vectors")
    q, r = np.linalg.qr(v)
    rank = int((np.abs(np.diag(r)) > 1e-12).sum())
    if rank < v.shape[1]:
        raise ValueError("spanning vectors are linearly dependent")
    return Subspace(v.shape[0], v.shape[1], q)


def graph_from_flat(flat) -> GraphHyperplane:
    """The graph form {y_n = <a, y'> + c} of an AffineFlat hyperplane."""
    if flat.k != flat.n - 1:
        raise ValueError("expected a hyperplane")
    nu = flat.direction.complement_basis()[:, 0]
    if abs(nu[-1]) <= TOL_EXACT:
        raise VerticalHyperplaneError("hyperplane is vertical, no graph form")
    d = float(np.dot(nu, flat.offset))
    return GraphHyperplane(-nu[:-1] / nu[-1], d / nu[-1])


def flat_from_graph_qr(plane: GraphHyperplane) -> AffineFlat:
    """GraphHyperplane.to_flat with the direction from the QR of the unit
    normal beside the identity, [nu | I]: its columns 1..n-1."""
    n = plane.n
    nu = np.append(-plane.a, 1.0)
    q, _ = np.linalg.qr(np.concatenate([(nu / np.linalg.norm(nu))[:, None], np.eye(n)], axis=1))
    point = np.zeros(n)
    point[-1] = plane.c
    return AffineFlat.through(Subspace(n, n - 1, q[:, 1:n]), point)


def grass_distance_svd(u: Subspace, v: Subspace) -> float:
    """||P_U - P_V||, the largest singular value of the projector
    difference, clipped to [0, 1]."""
    s = np.linalg.svd(u.projector() - v.projector(), compute_uv=False)
    return float(min(max(s[0], 0.0), 1.0))


def ff_directions_loop(q: int, n: int, k: int) -> np.ndarray:
    """The (count, k, n) stack of ff_directions, one RREF basis at a time:
    pivot patterns by itertools.combinations, then the free entries, row by
    row, by itertools.product."""
    out = []
    for pivots in itertools.combinations(range(n), k):
        free_cols = [
            (i, j)
            for i in range(k)
            for j in range(n)
            if j > pivots[i] and j not in pivots
        ]
        for values in itertools.product(range(q), repeat=len(free_cols)):
            rows = [[0] * n for _ in range(k)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), v in zip(free_cols, values):
                rows[i][j] = v
            out.append(rows)
    return np.array(out, dtype=np.int64).reshape(-1, k, n)


def _pivots(basis) -> list:
    return [next(j for j, v in enumerate(row) if v) for row in basis]


def coset_of(q: int, basis, x) -> tuple:
    """Canonical coset representative of x modulo the span of the RREF
    basis rows over F_q: x with the pivot coordinates zeroed by subtracting
    basis rows."""
    n = len(x)
    v = [int(c) % q for c in x]
    for row, p in zip(basis, _pivots(basis)):
        coef = v[p]
        if coef:
            for j in range(n):
                v[j] = (v[j] - coef * row[j]) % q
    return tuple(v)


def subspace_points(q: int, basis) -> list:
    """All q^k points of the span of the k basis rows over F_q."""
    n = len(basis[0])
    out = []
    for coeffs in itertools.product(range(q), repeat=len(basis)):
        v = [0] * n
        for c, row in zip(coeffs, basis):
            for j in range(n):
                v[j] = (v[j] + c * row[j]) % q
        out.append(tuple(v))
    return out


def ff_full_space(q: int, n: int) -> FFSet:
    """All q^n points of F_q^n."""
    return FFSet(q, n, list(itertools.product(range(q), repeat=n)))


def csv_table(header, rows) -> str:
    """table.to_csv's format written by csv.writer, one Python row at a time."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(np.asarray(rows).tolist())
    return buf.getvalue()


def haar_bases_qr(n: int, k: int, count: int, seed=None) -> np.ndarray:
    """haar_projector_batch's (count, n, k) bases from the same Gaussian
    draws, every k orthonormalized by QR with the signs of diag R made
    positive."""
    g = np.random.default_rng(seed).standard_normal((count, n, k))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.einsum("...ii->...i", r))
    signs[signs == 0] = 1.0
    return q * signs[:, None, :]


def ball_hits_svd(u: Subspace, radii: tuple, samples: int, seed) -> list:
    """_ball_hits from the same chunked draws, every distance a batched SVD."""
    rng = np.random.default_rng(seed)
    hits = np.zeros(len(radii), dtype=np.int64)
    for start in range(0, samples, _CHUNK):
        bases = haar_projector_batch(u.n, u.k, min(_CHUNK, samples - start), rng)
        d = _grass_distance_batch(u.basis, bases)
        hits += np.count_nonzero(d[:, None] <= np.array(radii), axis=0)
    return hits.tolist()


def slab_intervals_searchsorted(points, frame, k: int, delta: float, step: float):
    """maximal._slab_intervals with the norms by np.linalg.norm, the band and
    each row's cells by index arrays, and every translate column by
    np.searchsorted on the translate grid."""
    c = frame.shape[1] - k
    x = points @ frame
    long_norm = np.linalg.norm(x[:, :k], axis=1)
    band = np.flatnonzero(long_norm <= 0.5 + delta)
    t = x[band, k:]
    excess = np.maximum(long_norm[band] - 0.5, 0.0)
    g_sq = delta * delta - excess * excess
    taus = _translate_grid(step)
    nt = len(taus)
    near = np.rint(t[:, :-1] / step).astype(int) + nt // 2
    row_stride = (nt + 1) * nt ** np.arange(c - 2, -1, -1)
    reach = range(-math.ceil(delta / step), math.ceil(delta / step) + 1)
    for offset in itertools.product(reach, repeat=c - 1):
        rows = near + np.array(offset, dtype=int)
        r_sq = g_sq - ((t[:, :-1] - taus[rows % nt]) ** 2).sum(axis=1)
        sel = np.flatnonzero(((rows >= 0) & (rows < nt)).all(axis=1) & (r_sq >= 0))
        r, tc, base = np.sqrt(r_sq[sel]), t[sel, -1], rows[sel] @ row_stride
        lo = base + np.searchsorted(taus, tc - r, side="left")
        hi = base + np.searchsorted(taus, tc + r, side="right")
        yield lo, hi, band[sel]
