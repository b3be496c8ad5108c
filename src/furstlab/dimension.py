"""Dyadic box counting, digit-restriction fractal constructors, and
dimension estimates for sets and for families of subspaces.

Box-counting (Minkowski) dimension is the computational proxy used
throughout: for the self-similar digit-restriction constructions produced
here it coincides with Hausdorff dimension, and nothing in this module
claims to compute Hausdorff dimension of arbitrary sets.

A GridSet holds the occupied dyadic cells of a subset of [0,1]^n at a fixed
depth, in Z-order, where every coarser box is a run of adjacent cells.
Construction builds one bit-interleaved key per cell, in uint64 words that
each take a chunk of at most 16 bits of every coordinate, spread out by one
lookup in a table of spread values, sorts the cells by it, and reads the
level at which each pair of neighbours splits off the first key word where
they differ; the box counts at all coarser levels follow from those split
levels.  That one kernel, _sort_split, takes a batch of grids of equal
size: a GridSet is a batch of one.

The build holds at most one full-size scratch array beside the arrays it
keeps: the input cells, the key words and the sort order while it sorts,
then the int8 split levels and the Z-ordered cells.  Every other pass runs
in blocks of _BLOCK rows: the Morton words, the split levels (settled as
int8 from the XOR of each block's sorted keys, and counted into the box
histogram there), the gather into Z-order and from_rle's run checks and
expansion, whose blocks count runs (so a grid of a few long runs is
expanded at full size).  The input cells may be of any integer width, and
from_rle builds them in the narrowest unsigned one; the kept Z-ordered
cells are one plain int64 array, made read-only.  One placement,
_point_cells, puts a stack of float clouds on grids, each shifted by its
own minimum (taken along a contiguous axis) and scaled by its own power of
two (read off one np.frexp of the spans); family_dimension counts one
cloud and projection_dimensions (spreadify's candidates) a batch, neither
building a GridSet.  Every slope comes from one fit, _fit, closed form
over a (rows, levels) array of box counts with sums along each row only,
so a row gets the same bits alone as in a batch: estimate_dimension,
family_dimension and projection_dimensions each make one call.
flat_slice finds the boxes of side about rho as runs of cells from the
same split levels, keeps that box table on the grid for the last box side
it used (one slot, so slicing a grid by many flats builds it once), drops
every box too far from the flat with one projection of the box centres
(distance to a flat is 1-Lipschitz), and runs its exact per-cell test
only on the cells left.  Digit-restriction
sets are rasterized by marking, per kept base-b cell, the dyadic cell
containing its center (one marked cell per construction cell, so the
construction's own count law is preserved exactly).
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import table
from .grassmann import AffineFlat, haar_projector_batch, row_sum_squares
from .tolerances import TOL_EXACT

MAX_CELLS = 1 << 24
MAX_POINT_LEVEL = 62  # unit * 2^level of a point in [0, 1] fits in int64
_RLE_HEAD = struct.Struct("<4sBBQ")
# The largest .rle blob from_rle reads: a header and at most MAX_CELLS runs.
MAX_RLE_BYTES = _RLE_HEAD.size + 16 * MAX_CELLS
# Rows per pass of the block loops here and in `maximal`'s slab sweep (cells,
# sorted neighbour pairs or runs), so their temporaries stay a few hundred KB,
# which the allocator reuses instead of faulting in fresh pages.
_BLOCK = 1 << 15


def _bit_length(x: np.ndarray) -> np.ndarray:
    """Exact bit length of each uint64, as int64, read off the exponent
    field of its float64 value.  x is left as it was; the bit lengths are
    settled in the one scratch array that clears x's lower bits.

    Clearing every set bit just below another set bit keeps the top bit and
    leaves no run of ones after it, so the conversion cannot round up to
    the next power of two.  The biased exponent of a value of bit length
    b >= 1 is b + 1022, and that of 0 is 0.
    """
    top = x >> np.uint64(1)
    np.invert(top, out=top)
    top &= x
    b = top.view(np.int64)
    np.copyto(top.view(np.float64), top, casting="unsafe")  # in place, element by element
    b >>= 52
    b -= 1022
    return np.maximum(b, 0, out=b)


def _expand_runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The integers of the runs [start, start + length), run after run."""
    offsets = np.cumsum(lengths)
    offsets -= lengths
    np.subtract(starts, offsets, out=offsets)
    runs = np.repeat(offsets, lengths)
    runs += np.arange(len(runs))
    return runs


def _rle_cells(starts: np.ndarray, lengths: np.ndarray, n: int, level: int) -> np.ndarray:
    """The (m, n) row-major cells of the runs of linear indices [start,
    start + length) of a grid of side 2^level, in the narrowest unsigned dtype
    that holds a coordinate.  The runs are expanded a block of `_BLOCK` runs at
    a time and split into coordinates while they are fresh.  The blocks count
    runs, not cells: a grid of a few long runs (a full square is one run per
    row) still expands to full-size linear indices in one block."""
    cells = np.empty((int(lengths.sum()), n), dtype=np.min_scalar_type((1 << level) - 1))
    pos = 0
    for lo in range(0, len(lengths), _BLOCK):
        lin = _expand_runs(starts[lo : lo + _BLOCK], lengths[lo : lo + _BLOCK])
        _split_linear(lin, cells[pos : pos + len(lin)], level)
        pos += len(lin)
    return cells


def _split_linear(lin: np.ndarray, out: np.ndarray, level: int) -> np.ndarray:
    """Split the row-major linear indices lin (side 2^level) into the (len(lin), n) rows out."""
    n = out.shape[1]
    for j in range(n):
        np.right_shift(lin, level * (n - 1 - j), out=out[:, j], casting="unsafe")
    out[:, 1:] &= (1 << level) - 1
    return out


@functools.lru_cache(maxsize=16)
def _spread_table(g: int, width: int) -> np.ndarray:
    """Every value below 2^width with its bits spread g apart (bit r moves
    to bit r*g), read-only.  Built by log-step shifts: for s = ..., 2, 1 the
    upper half of every 2s-bit block moves up by s*(g-1)."""
    x = np.arange(1 << width, dtype=np.uint64)
    s = (1 << (width - 1).bit_length()) >> 1
    while g > 1 and s:
        x |= x << np.uint64(s * (g - 1))
        x &= np.uint64(sum(1 << (r // s * s * g + r % s) for r in range(width)))
        s >>= 1
    x.flags.writeable = False
    return x


@functools.lru_cache(maxsize=64)
def _level_table(g: int, low: int) -> np.ndarray:
    """Split levels by the bit length b = 0..64 of the XOR of two key words
    of g coordinates per bit row, `low` coordinate bits above the keys'
    lowest: low + ceil(b / g), and 0 for b = 0 (the words agree).  int8,
    read-only."""
    b = np.arange(65)
    table = np.where(b > 0, low + (b + g - 1) // g, 0).astype(np.int8)
    table.flags.writeable = False
    return table


def _morton_keys(cells: np.ndarray, level: int) -> tuple:
    """Bit-interleaved (Z-order) keys of a (..., m, n) array of integer
    cells as uint64 words of shape (nwords, ..., m), most significant first.

    A word holds g = min(n, 63) coordinates and w = min(63 // g, 16) bits of
    each, so it stays below 2^63: bit i*w + r of coordinate j is bit
    r*g + g-1-(j mod g) of the word of chunk i and group j // g.  Words run
    by falling chunk, then rising group (only n > 63 needs several groups,
    with w = 1).  A chunk is spread by one lookup in `_spread_table`, which
    w <= 16 keeps small; with one chunk the cells are below 2^w already, so
    the chunk needs no shift or mask.  The cells, of any integer width, are
    read in blocks of `_BLOCK` rows (a column widened to int64 only when it
    is cut into chunks), so the words are the one full-size array made.

    Returns (words, g, base), base[i] being the number of coordinate bits
    below word i's chunk: keys that first differ in word i, at bit length
    b, first differ in coordinate bit base[i] + ceil(b / g).
    """
    n = cells.shape[-1]
    g = min(n, 63)
    w = min(63 // g, 16)
    groups = -(-n // g)
    bits = min(level, 63)  # int64 cells have no higher bit
    nchunks = max(1, -(-bits // w))
    table = _spread_table(g, max(1, min(w, bits)))
    rows = cells.reshape(-1, n)
    words = np.empty((nchunks * groups, len(rows)), dtype=np.uint64)
    for lo in range(0, len(rows), _BLOCK):
        for j in range(n):
            col = rows[lo : lo + _BLOCK, j]
            if nchunks > 1:
                col = col.astype(np.int64)
            for i in range(nchunks):
                chunk = col if nchunks == 1 else (col >> i * w) & ((1 << w) - 1)
                word = words[(nchunks - 1 - i) * groups + j // g, lo : lo + _BLOCK]
                # A group's first coordinate is looked up straight into its
                # word; every chunk value is below 2^width, so clipping
                # changes none.
                x = np.take(table, chunk, out=None if j % g else word, mode="clip")
                if j % g < g - 1:
                    x <<= np.uint64(g - 1 - j % g)
                if j % g:
                    word |= x
    base = w * (nchunks - 1 - np.arange(len(words)) // groups)
    return words.reshape(words.shape[:1] + cells.shape[:-1]), g, base


def _sort_split(cells: np.ndarray, level: int) -> tuple:
    """Z-order sort and box counts of each grid of a (B, m, n) batch of
    integer cells at depth `level`, all in [0, 2^level).

    The cells are sorted by their `_morton_keys` words, and each pair of
    sorted neighbours gets its split level off the first word where their
    keys differ.  In Z-order every coarser box is a run of adjacent cells, so
    a pair whose highest differing coordinate bit has length d (0 for a
    duplicate) starts a new box at every level l > level - d, and
    counts[l] = 1 + #{pairs with d >= level - l + 1}.

    The words and the sort order are the only full-size arrays besides the
    int8 split levels.  The pairs are settled in blocks of about `_BLOCK`:
    per word, a block's sorted keys are gathered and XORed with their
    neighbours, and the bit length b of each difference is looked up as
    the level base + ceil(b / g) (0 where the word does not differ), which
    the block's int8 split levels keep the maximum of.  A differing higher
    word always outranks a lower one, so the maximum is the level of the
    first differing word; with one word, base is 0 and the level is
    ceil(b / g).  Each block's levels then add to the box-count histogram.

    Returns (order, split, counts): order (B, m) sorts each grid (stably,
    so a duplicate keeps its first row), split (B, m - 1) int8 holds d for
    each sorted neighbour pair, and counts (B, level + 1) the box counts at
    levels 0..level, all 0 for a grid without cells.
    """
    words, g, base = _morton_keys(cells, level)
    sort_keys = words[::-1]
    if cells.shape[-1] * level <= 16:
        # Keys below 2^16: numpy's stable sort of 16-bit integers is a radix
        # sort.
        sort_keys = sort_keys.astype(np.uint16)
    order = np.lexsort(sort_keys, axis=-1)
    del sort_keys
    nb, m = order.shape
    words = words.reshape(len(words), -1)
    levels = [_level_table(g, low) for low in base.tolist()]
    split = np.zeros((nb, max(m - 1, 0)), dtype=np.int8)
    hist = np.zeros((nb, level + 2), dtype=np.int64)
    rows = max(1, _BLOCK // max(m, 1))  # whole grids per block, or part of one
    for r in range(0, nb, rows):
        for j in range(0, m - 1, _BLOCK):
            idx = order[r : r + rows, j : j + _BLOCK + 1]
            if nb > 1:
                idx = idx + m * np.arange(r, r + len(idx))[:, None]
            acc = split[r : r + rows, j : j + _BLOCK]
            for word, table in zip(words, levels):
                keys = np.take(word, idx)
                d = _bit_length((keys[:, 1:] ^ keys[:, :-1]).ravel())
                np.maximum(acc, np.take(table, d, mode="clip").reshape(acc.shape), out=acc)
            if len(acc) == 1:
                hist[r] += np.bincount(acc[0], minlength=level + 2)
            else:  # each grid's levels land in its own row of the histogram
                part = hist[r : r + rows]
                tagged = acc + part.shape[1] * np.arange(len(part))[:, None]
                part += np.bincount(tagged.ravel(), minlength=part.size).reshape(part.shape)
    counts = np.zeros((nb, level + 1), dtype=np.int64)
    if m:
        counts += 1 + np.cumsum(hist[:, ::-1], axis=1)[:, : level + 1]
    return order, split, counts


@dataclass(frozen=True, eq=False)
class GridSet:
    """Occupied dyadic cells of a subset of [0,1]^n at depth `level`.

    cells is an (m, n) int64 array of deduplicated cell indices in
    [0, 2^level)^n in Z-order (sorted by bit-interleaved coordinates), so
    the cells of every coarser box are contiguous.  It is an array of the
    grid's own, read-only, since everything else the grid holds derives
    from it.  The cells may be given as any array-like of integers; an
    integral float such as 2.0 counts as its integer, and any other value
    raises ValueError.  Construction is `_sort_split` on a batch of one
    grid: it sorts the cells, reads each neighbour pair's split level and
    counts the boxes at every level; the duplicates (split level 0) are
    then dropped.

    flat_slice keeps in one slot the box table of the last cull level it
    used (see `_box_table`), so a grid holds at most one such table.  to_rle
    and to_csv both read the sorted row-major linear indices (`_row_major`),
    so both need n * level <= 63 and raise ValueError beyond it.
    """

    n: int
    level: int
    cells: np.ndarray
    _counts: np.ndarray = field(init=False, repr=False)
    _split: np.ndarray = field(init=False, repr=False)
    _boxes: tuple | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if self.n < 1 or self.level < 0:
            raise ValueError(f"need n >= 1 and level >= 0, got n={self.n}, level={self.level}")
        c = table.integer_array(self.cells)
        if c.ndim != 2 or c.shape[1] != self.n:
            raise ValueError(f"cells shape {c.shape} incompatible with n={self.n}")
        if c.size and (c.min() < 0 or c.max() >= (1 << self.level)):
            raise ValueError("cell index out of range for level")
        order, split, counts = _sort_split(c[None], self.level)
        order, d = order[0], split[0]
        # The given cells may be of any integer width; they are gathered
        # into Z-order and widened to int64 a block at a time.
        z = np.empty(c.shape, np.int64)
        for lo in range(0, len(z), _BLOCK):
            z[lo : lo + _BLOCK] = np.take(c, order[lo : lo + _BLOCK], axis=0)
        del order
        if not d.all():
            z = z[np.concatenate([[True], d != 0])]
            d = d[d != 0]
        if len(z) > MAX_CELLS:
            raise ValueError(f"cell count {len(z)} exceeds cap {MAX_CELLS}")
        z.flags.writeable = False
        object.__setattr__(self, "cells", z)
        object.__setattr__(self, "_counts", counts[0])
        object.__setattr__(self, "_split", d)

    def __len__(self) -> int:
        return len(self.cells)

    def _box_table(self, lv: int) -> tuple:
        """(starts, lengths, centres) of the boxes of side 2^-lv: the first
        row and the cell count of each box's run of Z-ordered cells, and the
        box centres.  They depend only on the grid and lv, so the last
        table is kept and a call at another lv replaces it.  The arrays are
        made read-only, since later calls share them."""
        if self._boxes is not None and self._boxes[0] == lv:
            return self._boxes[1:]
        starts = np.flatnonzero(self._split >= self.level - lv + 1)
        starts = np.concatenate([[0], starts + 1])[: len(self)]
        lengths = np.diff(starts, append=len(self))
        centres = (np.take(self.cells, starts, axis=0) >> (self.level - lv)) + 0.5
        centres /= 1 << lv
        for a in (starts, lengths, centres):
            a.flags.writeable = False
        object.__setattr__(self, "_boxes", (lv, starts, lengths, centres))
        return starts, lengths, centres

    # -- serialization ----------------------------------------------------

    def _row_major(self) -> np.ndarray:
        """The cells' sorted row-major linear indices, in a fresh array even at n = 1."""
        if self.n * self.level > 63:
            raise ValueError("linear index would overflow 64 bits")
        lin = self.cells[:, 0].copy()
        for j in range(1, self.n):
            lin <<= self.level
            lin |= self.cells[:, j]
        lin.sort()
        return lin

    def to_csv(self) -> str:
        """Header i0..i{n-1}, then the cells in lexicographic order."""
        rows = _split_linear(self._row_major(), np.empty_like(self.cells), self.level)
        return table.to_csv([f"i{j}" for j in range(self.n)], rows)

    def to_rle(self) -> bytes:
        """Run-length encoding of the sorted linear (row-major) cell indices:
        a "<4sBBQ" header (magic, n, level, run count), then one "<QQ"
        (start, length) pair per run."""
        lin = self._row_major()
        first = np.flatnonzero(np.diff(lin, prepend=-2) != 1)  # lin[0] >= 0 starts a run
        runs = np.empty((len(first), 2), dtype="<u8")
        runs[:, 0], runs[:, 1] = lin[first], np.diff(first, append=len(lin))
        return _RLE_HEAD.pack(b"GRLE", self.n, self.level, len(runs)) + runs.tobytes()

    @classmethod
    def from_rle(cls, blob: bytes) -> "GridSet":
        """Inverse of to_rle; a malformed blob raises ValueError before
        anything is allocated.

        The row-major cells only feed the construction's sort and gather,
        so `_rle_cells` builds them in the narrowest unsigned dtype that
        holds a coordinate: at level <= 16 they take a quarter of the int64
        Z-ordered cells that the construction keeps.
        """
        if len(blob) < _RLE_HEAD.size:
            raise ValueError("RLE blob shorter than its header")
        magic, n, level, nruns = _RLE_HEAD.unpack_from(blob, 0)
        if magic != b"GRLE":
            raise ValueError("not a GridSet RLE blob")
        if nruns > MAX_CELLS:
            raise ValueError(f"RLE header claims {nruns} runs, more than the cap of {MAX_CELLS}")
        if len(blob) != _RLE_HEAD.size + 16 * nruns:
            raise ValueError(f"RLE blob of {len(blob)} bytes does not hold {nruns} runs")
        if n * level > 63:
            raise ValueError("linear index would overflow 64 bits")
        runs = np.frombuffer(blob, dtype="<u8", offset=_RLE_HEAD.size).reshape(nruns, 2)
        starts, lengths = runs[:, 0], runs[:, 1]
        if lengths.max(initial=0) > MAX_CELLS or int(lengths.sum()) > MAX_CELLS:
            raise ValueError(f"RLE runs hold more than {MAX_CELLS} cells")
        # Past these checks no start + length can wrap around 2^64.
        limit = 1 << (n * level)
        for lo in range(0, nruns, _BLOCK):
            block = slice(lo, lo + _BLOCK)
            if starts[block].max() >= limit or (starts[block] + lengths[block]).max() > limit:
                raise ValueError("RLE run leaves the grid")
        cells = _rle_cells(starts.view("<i8"), lengths.view("<i8"), n, level)  # all below 2^63
        # The blob goes before the construction's full-size arrays (if the
        # caller keeps no reference to it).
        del blob, runs, starts, lengths
        return cls(n, level, cells)


@dataclass(frozen=True)
class DimensionEstimate:
    """Least-squares slope of log2 N(2^-L) against L over a dyadic level
    range, with its intercept and r^2 (see `_fit`)."""

    slope: float
    intercept: float
    r2: float
    level_range: tuple

    def as_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r2": self.r2,
            "level_range": list(self.level_range),
        }


def box_count(g: GridSet, level: int) -> int:
    """Number of occupied cells after downsampling to `level`."""
    if not (0 <= level <= g.level):
        raise ValueError(f"level {level} not in [0, {g.level}]")
    return int(g._counts[level])


def estimate_dimension(g: GridSet, l_min: int, l_max: int) -> DimensionEstimate:
    """Least-squares slope of log2 box_count over levels [l_min, l_max]."""
    if not (1 <= l_min < l_max <= g.level):
        raise ValueError(f"need 1 <= l_min < l_max <= {g.level}")
    if not len(g):
        raise ValueError("cannot estimate the dimension of an empty grid: it has no cells")
    return DimensionEstimate(*_fit(g._counts[None], l_min, l_max)[:, 0].tolist(), (l_min, l_max))


def _fit(counts: np.ndarray, l_min: int, l_max: int) -> np.ndarray:
    """Least-squares fit of y = log2 count against the level l over levels
    l_min..l_max for each row of a (rows, levels) array of positive box
    counts at levels 0, 1, ...: a (3, rows) array of the slopes, intercepts
    and r^2.

    The levels are integers, so with w_i = l_i - mean(l) the fit is closed:
    slope = sum w_i y_i / sum w_i^2, intercept = mean(y) - slope * mean(l)
    and r^2 = slope * sum w_i y_i / sum (y_i - mean(y))^2.  The logs are
    taken relative to the row's first level, which changes none of these in
    exact arithmetic and makes a flat row exactly zero: slope 0, r^2 1.
    Every reduction is a sum along a contiguous row, so a row gets the same
    bits alone as in a batch; a matrix product, or a sum down the columns,
    does not keep that.
    """
    w = np.arange(l_min, l_max + 1) - (l_min + l_max) / 2
    logs = counts[:, l_min : l_max + 1].astype(float)
    np.log2(logs, out=logs)
    first = logs[:, 0].copy()
    logs -= first[:, None]
    sxy = (logs * w).sum(axis=1)
    slope = sxy / (w * w).sum()
    mean = logs.sum(axis=1) / len(w)
    logs -= mean[:, None]
    ss_tot = (logs * logs).sum(axis=1)
    r2 = np.divide(slope * sxy, ss_tot, out=np.ones_like(ss_tot), where=ss_tot > 0)
    return np.stack([slope, first + mean - slope * (l_min + l_max) / 2, r2])


def _normalize_keep(base: int, keep, n: int) -> list:
    """Per-axis digit patterns; a single pattern is broadcast to all axes."""
    if not keep:
        raise ValueError("keep must be nonempty")
    first = next(iter(keep))
    patterns = [keep] * n if isinstance(first, int) else list(keep)
    if len(patterns) != n:
        raise ValueError(f"need one digit pattern per axis, got {len(patterns)}")
    out = []
    for pat in patterns:
        digits = sorted(set(int(d) for d in pat))
        if not digits:
            raise ValueError("empty digit pattern")
        if digits[0] < 0 or digits[-1] >= base:
            raise ValueError(f"digits out of range for base {base}")
        out.append(digits)
    return out


def _axis_cells(base: int, digits: Sequence[int], depth: int, level: int) -> np.ndarray:
    """Dyadic cells (at `level`) containing the centers of kept base-cells."""
    idx = np.array([0], dtype=np.int64)
    dig = np.array(digits, dtype=np.int64)
    for _ in range(depth):
        idx = (idx[:, None] * base + dig[None, :]).ravel()
    bd = base ** depth
    return np.unique(((2 * idx + 1) * (1 << level)) // (2 * bd))


def _check_construction_size(n: int, base: int, depth: int):
    """Reject `depth` base-`base` digits on each of n axes past the 2^24
    cell cap, before any per-axis pattern is built."""
    if base < 2:
        raise ValueError("base must be >= 2")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if depth * math.log2(base) > 24 / n + 1e-9:
        raise ValueError(f"depth {depth} at base {base} overflows the 2^24 cell cap")


def cantor_grid(n: int, base: int, keep, depth: int) -> GridSet:
    """Iterated digit-restriction set: per axis, keep the base-`base` digits
    in the axis pattern, iterate `depth` times, rasterize to the finest
    dyadic level with 2^level >= base^depth.

    The rasterization marks one dyadic cell per kept construction cell (the
    one containing its center), so the stored cell count equals the product
    over axes of |keep_axis|^depth.
    """
    _check_construction_size(n, base, depth)
    patterns = _normalize_keep(base, keep, n)
    level = math.ceil(depth * math.log2(base))
    axes = [_axis_cells(base, pat, depth, level) for pat in patterns]
    total = 1
    for a in axes:
        total *= len(a)
    if total > MAX_CELLS:
        raise ValueError(f"cell count {total} exceeds cap {MAX_CELLS}")
    mesh = np.meshgrid(*axes, indexing="ij")
    cells = np.stack([m.ravel() for m in mesh], axis=1)
    return GridSet(n, level, cells)


def grid_from_points(points, level: int) -> GridSet:
    """Rasterize a point cloud into a GridSet.

    Points are shifted to nonnegative coordinates and isotropically scaled
    by the smallest power of two covering their extent, which changes box
    counts by at most a constant factor and therefore leaves dimension
    slopes unchanged.  A coordinate that is not finite, or not below 2^1022
    in magnitude, raises ValueError (see `_check_coordinates`).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2:
        raise ValueError("expected an (m, d) array of points")
    _check_coordinates(pts)
    return GridSet(pts.shape[1], level, _point_cells(pts, level))


def _check_coordinates(pts: np.ndarray):
    """Raise ValueError unless every coordinate is below 2^1022 in magnitude:
    finite, with a span below 2^1023, whose power-of-two scale is finite.  A
    NaN, an infinity or a larger span would poison `_point_cells`'s shift or
    scale."""
    if not (np.abs(pts) < 2.0**1022).all():
        raise ValueError("point coordinates must be finite and below 2^1022 in magnitude")


def _point_cells(pts: np.ndarray, level: int) -> np.ndarray:
    """The cells at `level` of a (..., m, d) float stack of clouds, each
    cloud placed as grid_from_points places it: shifted by its own minimum
    and scaled by its own power of two.  A level past MAX_POINT_LEVEL
    raises ValueError, since unit * 2^level must fit in int64."""
    if level > MAX_POINT_LEVEL:
        raise ValueError(f"level {level} exceeds {MAX_POINT_LEVEL}, the deepest float placement")
    if not pts.shape[-2]:
        return np.zeros(pts.shape, dtype=np.int64)
    # The minima along a contiguous axis: numpy reduces the middle axis of
    # a (..., m, d) stack in inner loops of length d.  A min is exact, so
    # either order gives the same values (a tie of 0.0 and -0.0 places
    # both at cell 0).
    lo = np.ascontiguousarray(pts.swapaxes(-1, -2)).min(axis=-1)
    unit = pts - lo[..., None, :]
    # The smallest power of two that is at least 1 and covers the span: with
    # span = m 2^e, m in [1/2, 1), that is 2^e, or 2^(e-1) where m = 1/2
    # (a span of 0 has e = 0).
    m, e = np.frexp(unit.max(axis=(-2, -1), keepdims=True))
    unit /= np.ldexp(1.0, np.maximum(0, e - (m == 0.5)))
    unit *= 1 << level
    return np.clip(unit.astype(np.int64), 0, (1 << level) - 1)


def projection_dimensions(points: np.ndarray, bases: np.ndarray, l_min: int, l_max: int) -> list:
    """For each basis b of a (count, n, k) stack, the slope that
    estimate_dimension(grid_from_points(points @ b, l_max), l_min, l_max)
    gives, bit for bit, from one stacked product, placement and _sort_split
    per batch of at most MAX_CELLS points, and one _fit of all the counts."""
    step = max(1, MAX_CELLS // len(points))
    counts = np.concatenate([
        _sort_split(_point_cells(points @ bases[i : i + step], l_max), l_max)[2]
        for i in range(0, len(bases), step)
    ])
    return _fit(counts, l_min, l_max)[0].tolist()


@dataclass(frozen=True, eq=False)
class Construction:
    """A set built to show a bound sharp.

    achieved_dimension is the set's dimension, achieved_slice_dimension the
    dimension s* that its slices by the flats of the problem exhibit, and
    target_dimension the dimension asked for.  bases, when set, is the
    witnessing family: a (count, n, k) stack of bases of flats that contain
    the set.
    """

    grid: GridSet
    achieved_dimension: float
    achieved_slice_dimension: float
    target_dimension: float
    bases: np.ndarray | None = field(default=None, repr=False)


def _base3_patterns_for(s: float, naxes: int) -> tuple:
    """Per-axis base-3 patterns whose dimensions sum as close to s as the
    alphabet {0, log3(2), 1} allows.  Returns (patterns, achieved)."""
    log32 = math.log(2) / math.log(3)
    full = [0, 1, 2]
    half = [0, 2]
    point = [0]
    best = None
    for nfull in range(naxes + 1):
        for nhalf in range(naxes - nfull + 1):
            dim = nfull + nhalf * log32
            err = abs(dim - s)
            if best is None or err < best[0] - 1e-12:
                best = (err, nfull, nhalf)
    _, nfull, nhalf = best
    pats = [full] * nfull + [half] * nhalf + [point] * (naxes - nfull - nhalf)
    return pats, nfull + nhalf * log32


def sharp_hyperplane_example(n: int, s: float, depth: int) -> Construction:
    """A set of dimension ~s inside the coordinate ceil(s)-subspace, with a
    dense sample of 256 hyperplanes containing that subspace as its bases.
    Each hyperplane contains the whole set, so its slice dimension is its
    dimension.

    The family is parametrized by the (n-1-ceil(s))-subspaces of the
    orthogonal complement and drawn as one Haar batch with a fixed seed,
    so the output is deterministic.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if not (1 < s <= n - 1):
        raise ValueError(f"need 1 < s <= n-1, got s={s}")
    _check_construction_size(n, 3, depth)
    m = math.ceil(s)
    pats, achieved = _base3_patterns_for(s, m)
    patterns = pats + [[0]] * (n - m)
    grid = cantor_grid(n, 3, patterns, depth)

    # Hyperplanes containing span{e_1..e_m}: the coordinate block plus an
    # (n-1-m)-subspace of the complement.  For m = n-1 the family collapses
    # to the single coordinate hyperplane.
    count = 1 if m == n - 1 else 256
    bases = np.zeros((count, n, n - 1))
    bases[:, :m, :m] = np.eye(m)
    if m < n - 1:
        bases[:, m:, m:] = haar_projector_batch(n - m, n - 1 - m, count, 20240 + n * 16 + m)
    return Construction(grid, achieved, achieved, float(s), bases)


def slicing_product_example(n: int, k: int, s: float, depth: int) -> Construction:
    """Product of an ~s-dimensional digit-restriction set in the first k
    coordinates with the full cube in the remaining n-k coordinates.  The
    product has box dimension ~ n-k+s, and its generic k-flat slices carry
    the factor's ~s; it has no witnessing family."""
    if not (1 <= k <= n - 1):
        raise ValueError(f"need 1 <= k <= n-1, got k={k}")
    if not (0 < s <= k):
        raise ValueError(f"need 0 < s <= k, got s={s}")
    _check_construction_size(n, 3, depth)
    pats, achieved = _base3_patterns_for(float(s), k)
    patterns = pats + [[0, 1, 2]] * (n - k)
    grid = cantor_grid(n, 3, patterns, depth)
    return Construction(grid, achieved + (n - k), achieved, float(s) + (n - k))


def flat_slice(g: GridSet, w: AffineFlat, rho: float) -> GridSet:
    """Cells of g within distance rho of the flat, re-expressed in the
    flat's own coordinates at matching resolution.

    The distance of a cell centre x is |(x - a) N| for an orthonormal basis
    N of the flat's orthogonal complement.

    The boxes of side 2^-l, l = clamp(floor(log2(1/rho)), 0, level), are
    runs of g's Z-ordered cells.  Their starts, run lengths and centres
    depend only on g and l; g keeps them for the last l it was sliced at
    (`GridSet._box_table`, one slot), so slicing one grid by many flats at
    one rho builds that table once.  Distance to a flat is 1-Lipschitz and
    a cell centre lies within half a box diagonal, sqrt(n)/2 * 2^-l, of its
    box's centre, so a box whose centre is farther than
    reach = rho + sqrt(n)/2 * 2^-l + TOL_EXACT * (1 + |a|_1)
    holds no cell within rho; such boxes are dropped without touching their
    cells.  The cull projects the table once, as c N - a N, and compares
    the squared row norm with reach^2.  That is (c - a) N up to roundoff:
    every quantity in it is at most sqrt(n) + |a|_1 in size (c lies in the
    unit cube and N has orthonormal columns), and its products, difference,
    squares and sums each add a relative error of a few 2^-52 for
    n <= 16, at most about 1e-13 (1 + |a|_1), far inside the TOL_EXACT
    slack.  So no box that holds a cell within rho is dropped.  The cull
    keeps cells up to about 2 rho away, so the surviving cells still get
    the exact per-centre test above, with the same floating-point
    operations as on the whole grid: the slice is cell for cell the one
    that testing every cell gives.  The cost is one projection of the
    boxes plus the exact test on the surviving cells, and a table build
    (a scan of the m - 1 split levels and a gather of the box heads) when
    l changes; rho >= 1 keeps the single level-0 box and tests every cell.

    Flat coordinates are shifted/scaled by a power of two exactly as in
    grid_from_points, which preserves dimension slopes.
    """
    if not rho >= 2.0 ** (-g.level):
        raise ValueError("rho must be at least one cell width")
    if w.n != g.n:
        raise ValueError("ambient dimension mismatch")
    normal = w.direction.complement_basis()
    lv = 0 if rho >= 1 else min(g.level, math.floor(-math.log2(rho)))
    starts, lengths, box = g._box_table(lv)
    reach = rho + math.sqrt(g.n) / 2 * 2.0**-lv + TOL_EXACT * (1 + np.abs(w.offset).sum())
    d = box @ normal
    d -= w.offset @ normal
    keep = row_sum_squares(d) <= reach * reach
    rows = _expand_runs(starts[keep], lengths[keep])
    rel = np.take(g.cells, rows, axis=0) + 0.5
    rel /= 1 << g.level
    rel -= w.offset
    near = np.linalg.norm(rel @ normal, axis=1) <= rho
    if not near.any():
        return GridSet(w.k, g.level, np.zeros((0, w.k), dtype=np.int64))
    return grid_from_points(rel[near] @ w.direction.basis, g.level)


def family_dimension(projectors: np.ndarray, l_min: int, l_max: int) -> DimensionEstimate:
    """Box-counting dimension of a family of subspaces, given as a nonempty
    (m, n, n) stack of their orthogonal projectors.

    Each projector is embedded as its n^2 entries and counted with max-norm
    boxes; that embedding is bi-Lipschitz-equivalent to the projector
    metric up to dimension constants, so the slope estimates the family's
    metric dimension.  The entries are counted as grid_from_points places
    them, and checked as it checks them.
    """
    p = np.asarray(projectors, dtype=float)
    if p.ndim != 3 or p.shape[1] != p.shape[2] or not len(p):
        raise ValueError(f"need a nonempty (m, n, n) stack of projectors, got shape {p.shape}")
    if len(p) > MAX_CELLS:
        raise ValueError(f"family of {len(p)} members exceeds cap {MAX_CELLS}")
    if not 1 <= l_min < l_max:
        raise ValueError(f"need 1 <= l_min < l_max, got {l_min}, {l_max}")
    _check_coordinates(p)
    counts = _sort_split(_point_cells(p.reshape(1, len(p), -1), l_max), l_max)[2]
    return DimensionEstimate(*_fit(counts, l_min, l_max)[:, 0].tolist(), (l_min, l_max))
