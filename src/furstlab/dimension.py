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
size: a GridSet is a batch of one.  One placement, _point_cells, puts a
stack of float clouds on grids, each scaled by its own power of two;
family_dimension counts one cloud and projection_dimensions (spreadify's
candidates) a batch, neither building a GridSet.  flat_slice finds
the boxes of side about rho as runs of cells from the same split levels,
drops every box too far from the flat (distance to a flat is 1-Lipschitz),
and runs its exact per-cell test only on the cells left.
Digit-restriction sets are rasterized by marking, per kept
base-b cell, the dyadic cell containing its center (one marked cell per
construction cell, so the construction's own count law is preserved
exactly).
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import table
from .grassmann import AffineFlat, haar_projector_batch
from .tolerances import TOL_EXACT

MAX_CELLS = 1 << 24
MAX_POINT_LEVEL = 62  # unit * 2^level of a point in [0, 1] fits in int64
_RLE_HEAD = struct.Struct("<4sBBQ")


def _bit_length(x: np.ndarray) -> np.ndarray:
    """Exact bit length of each uint64, as int64, read off the exponent
    field of its float64 value.

    Clearing every set bit just below another set bit keeps the top bit and
    leaves no run of ones after it, so the conversion cannot round up to
    the next power of two.  The biased exponent of a value of bit length
    b >= 1 is b + 1022, and that of 0 is 0.
    """
    top = x >> np.uint64(1)
    np.invert(top, out=top)
    top &= x
    b = top.astype(np.float64).view(np.int64)
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


def _morton_keys(cells: np.ndarray, level: int) -> tuple:
    """Bit-interleaved (Z-order) keys of a (..., m, n) array of cells as
    uint64 words of shape (nwords, ..., m), most significant first.

    A word holds g = min(n, 63) coordinates and w = min(63 // g, 16) bits of
    each, so it stays below 2^63: bit i*w + r of coordinate j is bit
    r*g + g-1-(j mod g) of the word of chunk i and group j // g.  Words run
    by falling chunk, then rising group (only n > 63 needs several groups,
    with w = 1).  A chunk is spread by one lookup in `_spread_table`, which
    w <= 16 keeps small; with one chunk the cells are below 2^w already, so
    the chunk needs no shift or mask.

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
    words = np.empty((nchunks * groups,) + cells.shape[:-1], dtype=np.uint64)
    for i in range(nchunks):
        for j in range(n):
            chunk = cells[..., j] if nchunks == 1 else (cells[..., j] >> i * w) & ((1 << w) - 1)
            word = words[(nchunks - 1 - i) * groups + j // g]
            # A group's first coordinate is looked up straight into its word;
            # every chunk value is below 2^width, so clipping changes none.
            x = np.take(table, chunk, out=None if j % g else word, mode="clip")
            if j % g < g - 1:
                x <<= np.uint64(g - 1 - j % g)
            if j % g:
                word |= x
    base = w * (nchunks - 1 - np.arange(len(words)) // groups)
    return words, g, base


def _sort_split(cells: np.ndarray, level: int) -> tuple:
    """Z-order sort and box counts of each grid of a (B, m, n) batch of
    cells at depth `level`, all in [0, 2^level).

    The cells are sorted by their `_morton_keys` words, and each pair of
    sorted neighbours gets its split level off the first word where their
    keys differ.  In Z-order every coarser box is a run of adjacent cells, so
    a pair whose highest differing coordinate bit has length d (0 for a
    duplicate) starts a new box at every level l > level - d, and
    counts[l] = 1 + #{pairs with d >= level - l + 1}.

    Returns (order, split, counts): order (B, m) sorts each grid (stably,
    so a duplicate keeps its first row), split (B, m - 1) holds d for each
    sorted neighbour pair, and counts (B, level + 1) the box counts at
    levels 0..level, all 0 for a grid without cells.
    """
    words, g, base = _morton_keys(cells, level)
    sort_keys = words[::-1]
    if cells.shape[-1] * level <= 16:
        # Keys below 2^16: numpy's stable sort of 16-bit integers is a radix
        # sort.
        sort_keys = sort_keys.astype(np.uint16)
    order = np.lexsort(sort_keys, axis=-1)
    nb, m = order.shape
    nwords = len(words)
    flat = order + m * np.arange(nb)[:, None] if nb > 1 else order
    keys = np.take(words.reshape(nwords, -1), flat, axis=1)
    # Each full-size array goes as soon as the next is made from it: on a
    # large grid fresh memory costs more than the passes over it.
    del words, sort_keys, flat
    diff = keys[..., 1:] ^ keys[..., :-1]
    del keys
    b = _bit_length(diff)
    del diff
    if nwords == 1:  # base 0, and b = 0 gives d = 0
        split = b[0]
        split += g - 1
        split //= g
    else:
        split = np.where(b > 0, base[:, None, None] + (b + g - 1) // g, 0).max(axis=0)
    hist = np.array([np.bincount(row, minlength=level + 2) for row in split])
    counts = np.zeros((nb, level + 1), dtype=np.int64)
    if m:
        counts += 1 + np.cumsum(hist[:, ::-1], axis=1)[:, : level + 1]
    return order, split, counts


@dataclass(frozen=True, eq=False)
class GridSet:
    """Occupied dyadic cells of a subset of [0,1]^n at depth `level`.

    cells is an (m, n) int64 array of deduplicated cell indices in
    [0, 2^level)^n in Z-order (sorted by bit-interleaved coordinates), so
    the cells of every coarser box are contiguous.  Construction is
    `_sort_split` on a batch of one grid: it sorts the cells, reads each
    neighbour pair's split level and counts the boxes at every level; the
    duplicates (split level 0) are then dropped.
    """

    n: int
    level: int
    cells: np.ndarray
    _counts: np.ndarray = field(init=False, repr=False)
    _split: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 1 or self.level < 0:
            raise ValueError(f"need n >= 1 and level >= 0, got n={self.n}, level={self.level}")
        c = np.asarray(self.cells, dtype=np.int64)
        if c.ndim != 2 or c.shape[1] != self.n:
            raise ValueError(f"cells shape {c.shape} incompatible with n={self.n}")
        if c.size and (c.min() < 0 or c.max() >= (1 << self.level)):
            raise ValueError("cell index out of range for level")
        order, split, counts = _sort_split(c[None], self.level)
        c, d = np.take(c, order[0], axis=0), split[0]
        if not d.all():
            c = c[np.concatenate([[True], d != 0])]
            d = d[d != 0]
        if len(c) > MAX_CELLS:
            raise ValueError(f"cell count {len(c)} exceeds cap {MAX_CELLS}")
        object.__setattr__(self, "cells", c)
        object.__setattr__(self, "_counts", counts[0])
        object.__setattr__(self, "_split", d.astype(np.int8))

    def __len__(self) -> int:
        return len(self.cells)

    # -- serialization ----------------------------------------------------

    def to_csv(self) -> str:
        """Header i0..i{n-1}, then the cells in lexicographic order."""
        cells = self.cells[np.lexsort(self.cells.T[::-1])]
        return table.to_csv([f"i{j}" for j in range(self.n)], cells)

    def to_rle(self) -> bytes:
        """Run-length encoding of the sorted linear (row-major) cell indices:
        a "<4sBBQ" header (magic, n, level, run count), then one "<QQ"
        (start, length) pair per run."""
        if self.n * self.level > 63:
            raise ValueError("linear index would overflow 64 bits")
        shifts = self.level * np.arange(self.n - 1, -1, -1)
        lin = np.sort((self.cells << shifts).sum(axis=1))
        first = np.flatnonzero(np.concatenate([[True], np.diff(lin) != 1])[: len(lin)])
        runs = np.column_stack([lin[first], np.diff(first, append=len(lin))])
        head = _RLE_HEAD.pack(b"GRLE", self.n, self.level, len(runs))
        return head + runs.astype("<u8").tobytes()

    @classmethod
    def from_rle(cls, blob: bytes) -> "GridSet":
        """Inverse of to_rle; a malformed blob raises ValueError before
        anything is allocated."""
        if len(blob) < _RLE_HEAD.size:
            raise ValueError("RLE blob shorter than its header")
        magic, n, level, nruns = _RLE_HEAD.unpack_from(blob, 0)
        if magic != b"GRLE":
            raise ValueError("not a GridSet RLE blob")
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
        if starts.max(initial=0) >= limit or (starts + lengths).max(initial=0) > limit:
            raise ValueError("RLE run leaves the grid")
        lin = _expand_runs(starts.view("<i8"), lengths.view("<i8"))  # all below 2^63
        cells = np.empty((len(lin), n), dtype=np.int64)
        for j in range(n):
            np.right_shift(lin, level * (n - 1 - j), out=cells[:, j])
            if j:
                cells[:, j] &= (1 << level) - 1
        del lin  # before the construction's own full-size arrays
        return cls(n, level, cells)


@dataclass(frozen=True)
class DimensionEstimate:
    """OLS slope of log2 N(2^-L) against L over a dyadic level range."""

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
    return _fit([box_count(g, l) for l in range(l_min, l_max + 1)], l_min, l_max)


def _fit(counts, l_min: int, l_max: int) -> DimensionEstimate:
    """Least-squares slope of log2 of the box counts at levels l_min..l_max,
    given in that order."""
    levels = np.arange(l_min, l_max + 1, dtype=float)
    logs = np.array([math.log2(int(c)) for c in counts])
    a = np.vstack([levels, np.ones_like(levels)]).T
    coef, *_ = np.linalg.lstsq(a, logs, rcond=None)
    fit = a @ coef
    ss_res = float(((logs - fit) ** 2).sum())
    ss_tot = float(((logs - logs.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 1e-30 else 1.0
    return DimensionEstimate(float(coef[0]), float(coef[1]), r2, (l_min, l_max))


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
    slopes unchanged.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2:
        raise ValueError("expected an (m, d) array of points")
    return GridSet(pts.shape[1], level, _point_cells(pts, level))


def _point_cells(pts: np.ndarray, level: int) -> np.ndarray:
    """The cells at `level` of a (..., m, d) float stack of clouds, each
    cloud placed as grid_from_points places it: shifted by its own minimum
    and scaled by its own power of two.  A level past MAX_POINT_LEVEL
    raises ValueError, since unit * 2^level must fit in int64."""
    if level > MAX_POINT_LEVEL:
        raise ValueError(f"level {level} exceeds {MAX_POINT_LEVEL}, the deepest float placement")
    if not pts.shape[-2]:
        return np.zeros(pts.shape, dtype=np.int64)
    unit = pts - pts.min(axis=-2, keepdims=True)
    span = unit.max(axis=(-2, -1))
    scale = [2.0 ** max(0, math.ceil(math.log2(s))) if s > 0 else 1.0 for s in span.ravel().tolist()]
    unit /= np.reshape(scale, span.shape + (1, 1))
    unit *= 1 << level
    return np.clip(unit.astype(np.int64), 0, (1 << level) - 1)


def projection_dimensions(points: np.ndarray, bases: np.ndarray, l_min: int, l_max: int) -> list:
    """For each basis b of a (count, n, k) stack, the slope that
    estimate_dimension(grid_from_points(points @ b, l_max), l_min, l_max)
    gives, bit for bit, from one stacked product, placement and _sort_split
    per batch of at most MAX_CELLS points."""
    step = max(1, MAX_CELLS // len(points))
    counts = np.concatenate([
        _sort_split(_point_cells(points @ bases[i : i + step], l_max), l_max)[2]
        for i in range(0, len(bases), step)
    ])
    return [_fit(row[l_min : l_max + 1], l_min, l_max).slope for row in counts]


@dataclass(frozen=True, eq=False)
class SharpHyperplaneExample:
    """A low-dimensional set inside a coordinate subspace together with the
    hyperplanes containing it, as a (count, n, n-1) stack of bases `bases`."""

    grid: GridSet
    bases: np.ndarray
    achieved_dimension: float
    target_dimension: float


@dataclass(frozen=True, eq=False)
class SlicingProductExample:
    """Product of a digit-restriction set with a full cube.

    achieved_dimension is the full product's dimension n-k+s*;
    achieved_slice_dimension is the factor dimension s* that generic k-flat
    slices should exhibit.
    """

    grid: GridSet
    achieved_dimension: float
    achieved_slice_dimension: float
    target_dimension: float


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


def sharp_hyperplane_example(n: int, s: float, depth: int) -> SharpHyperplaneExample:
    """A set of dimension ~s inside the coordinate ceil(s)-subspace, plus a
    dense sample of 256 hyperplanes containing that subspace.

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
    return SharpHyperplaneExample(grid, bases, achieved, float(s))


def slicing_product_example(n: int, k: int, s: float, depth: int) -> SlicingProductExample:
    """Product of an ~s-dimensional digit-restriction set in the first k
    coordinates with the full cube in the remaining n-k coordinates; the
    product has box dimension ~ n-k+s."""
    if not (1 <= k <= n - 1):
        raise ValueError(f"need 1 <= k <= n-1, got k={k}")
    if not (0 < s <= k):
        raise ValueError(f"need 0 < s <= k, got s={s}")
    _check_construction_size(n, 3, depth)
    pats, achieved = _base3_patterns_for(float(s), k)
    patterns = pats + [[0, 1, 2]] * (n - k)
    grid = cantor_grid(n, 3, patterns, depth)
    return SlicingProductExample(grid, achieved + (n - k), achieved, float(s) + (n - k))


def flat_slice(g: GridSet, w: AffineFlat, rho: float) -> GridSet:
    """Cells of g within distance rho of the flat, re-expressed in the
    flat's own coordinates at matching resolution.

    The distance of a cell centre x is |(x - a) N| for an orthonormal basis
    N of the flat's orthogonal complement.

    The boxes of side 2^-l, l = clamp(floor(log2(1/rho)), 0, level), are
    runs of g's Z-ordered cells, so their starts come from the stored split
    levels.  Distance to a flat is 1-Lipschitz and a cell centre lies within
    half a box diagonal, sqrt(n)/2 * 2^-l, of its box's centre, so a box
    whose centre is farther than rho plus that (plus roundoff slack) holds
    no cell within rho; such boxes are dropped without touching their cells.
    The cull keeps cells up to about 2 rho away, so the surviving cells
    still get the exact per-centre test above, with the same floating-point
    operations as on the whole grid: the slice is cell for cell the one that
    testing every cell gives.  The cost is the number of boxes plus the
    number of surviving cells; rho >= 1 keeps the single level-0 box and
    tests every cell.

    Flat coordinates are shifted/scaled by a power of two exactly as in
    grid_from_points, which preserves dimension slopes.
    """
    if not rho >= 2.0 ** (-g.level):
        raise ValueError("rho must be at least one cell width")
    if w.n != g.n:
        raise ValueError("ambient dimension mismatch")
    normal = w.direction.complement_basis()
    lv = 0 if rho >= 1 else min(g.level, math.floor(-math.log2(rho)))
    starts = np.concatenate([[0], 1 + np.flatnonzero(g._split >= g.level - lv + 1)])[: len(g)]
    box = (np.take(g.cells, starts, axis=0) >> (g.level - lv)) + 0.5
    box /= 1 << lv
    reach = rho + math.sqrt(g.n) / 2 * 2.0**-lv + TOL_EXACT * (1 + np.abs(w.offset).sum())
    keep = np.linalg.norm((box - w.offset) @ normal, axis=1) <= reach
    rows = _expand_runs(starts[keep], np.diff(starts, append=len(g))[keep])
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
    metric dimension.  The entries are counted as grid_from_points places them.
    """
    p = np.asarray(projectors, dtype=float)
    if p.ndim != 3 or p.shape[1] != p.shape[2] or not len(p):
        raise ValueError(f"need a nonempty (m, n, n) stack of projectors, got shape {p.shape}")
    if len(p) > MAX_CELLS:
        raise ValueError(f"family of {len(p)} members exceeds cap {MAX_CELLS}")
    if not 1 <= l_min < l_max:
        raise ValueError(f"need 1 <= l_min < l_max, got {l_min}, {l_max}")
    counts = _sort_split(_point_cells(p.reshape(1, len(p), -1), l_max), l_max)[2][0]
    return _fit(counts[l_min : l_max + 1], l_min, l_max)
