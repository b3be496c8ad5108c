"""Dyadic box counting, digit-restriction fractal constructors, and
dimension estimates for sets and for families of flats.

Box-counting (Minkowski) dimension is the computational proxy used
throughout: for the self-similar digit-restriction constructions produced
here it coincides with Hausdorff dimension, and nothing in this module
claims to compute Hausdorff dimension of arbitrary sets.

A GridSet holds the occupied dyadic cells of a subset of [0,1]^n at a fixed
depth, in Z-order, where every coarser box is a run of adjacent cells; the
box counts at all coarser levels come from one pass over neighbouring
cells.  Digit-restriction sets are rasterized by marking, per kept
base-b cell, the dyadic cell containing its center (one marked cell per
construction cell, so the construction's own count law is preserved
exactly).
"""

from __future__ import annotations

import csv
import io
import math
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .grassmann import AffineFlat, Subspace, haar_sample

MAX_CELLS = 1 << 24
_RLE_HEAD = struct.Struct("<4sBBQ")


def _bit_length(x: np.ndarray) -> np.ndarray:
    """Exact bit length of each nonnegative int64, by halving shifts."""
    out = np.zeros(len(x), dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        high = (x >> s) != 0
        out += s * high
        x = np.where(high, x >> s, x)
    return out + (x != 0)


def _morton_order(cells: np.ndarray, level: int) -> np.ndarray:
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


@dataclass(frozen=True)
class GridSet:
    """Occupied dyadic cells of a subset of [0,1]^n at depth `level`.

    cells is an (m, n) int64 array of deduplicated cell indices in
    [0, 2^level)^n in Z-order (sorted by bit-interleaved coordinates), so
    the cells of every coarser box are contiguous and the box counts at all
    levels come from one pass over adjacent cells at construction.
    """

    n: int
    level: int
    cells: np.ndarray
    _counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = np.asarray(self.cells, dtype=np.int64)
        if c.ndim != 2 or c.shape[1] != self.n:
            raise ValueError(f"cells shape {c.shape} incompatible with n={self.n}")
        if c.size and (c.min() < 0 or c.max() >= (1 << self.level)):
            raise ValueError("cell index out of range for level")
        c = c[_morton_order(c, self.level)]
        # In Z-order every coarser box is a run of adjacent cells.  A pair of
        # neighbours whose highest differing bit has length d (0 for a
        # duplicate) starts a new box at every level l > level - d, so
        # counts[l] = 1 + #{pairs with d >= level - l + 1}.
        diff = np.zeros(max(len(c) - 1, 0), dtype=np.int64)
        for j in range(self.n):
            diff |= c[1:, j] ^ c[:-1, j]
        c = c[np.concatenate([[True], diff != 0])[: len(c)]]
        if len(c) > MAX_CELLS:
            raise ValueError(f"cell count {len(c)} exceeds cap {MAX_CELLS}")
        hist = np.bincount(_bit_length(diff[diff != 0]), minlength=self.level + 2)
        above = np.cumsum(hist[::-1])[::-1]
        counts = np.zeros(self.level + 1, dtype=np.int64)
        if len(c):
            counts = 1 + above[self.level + 1 : 0 : -1]
        object.__setattr__(self, "cells", c)
        object.__setattr__(self, "_counts", counts)

    def __len__(self) -> int:
        return len(self.cells)

    def centers(self) -> np.ndarray:
        """Cell-center coordinates, shape (m, n)."""
        c = self.cells + 0.5
        c /= 1 << self.level
        return c

    def downsample(self, level: int) -> "GridSet":
        if not (0 <= level <= self.level):
            raise ValueError(f"level {level} not in [0, {self.level}]")
        return GridSet(self.n, level, self.cells >> (self.level - level))

    # -- serialization ----------------------------------------------------

    def to_csv(self) -> str:
        """Header i0..i{n-1}, then the cells in lexicographic order."""
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow([f"i{j}" for j in range(self.n)])
        w.writerows(self.cells[np.lexsort(self.cells.T[::-1])].tolist())
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, level: int) -> "GridSet":
        rows = list(csv.reader(io.StringIO(text)))
        data = np.array([[int(v) for v in r] for r in rows[1:]], dtype=np.int64)
        n = len(rows[0])
        return cls(n, level, data.reshape(-1, n))

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
        if (lengths > MAX_CELLS).any() or int(lengths.sum()) > MAX_CELLS:
            raise ValueError(f"RLE runs hold more than {MAX_CELLS} cells")
        limit = np.uint64(1 << (n * level))
        if ((starts >= limit) | (lengths > limit - starts)).any():
            raise ValueError("RLE run leaves the grid")
        lengths = lengths.astype(np.int64)
        offsets = starts.astype(np.int64) - (np.cumsum(lengths) - lengths)
        lin = np.repeat(offsets, lengths) + np.arange(lengths.sum())
        shifts = level * np.arange(n - 1, -1, -1)
        return cls(n, level, (lin[:, None] >> shifts) & ((1 << level) - 1))


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
    levels = np.arange(l_min, l_max + 1, dtype=float)
    logs = np.array([math.log2(box_count(g, int(l))) for l in levels])
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


def cantor_grid(n: int, base: int, keep, depth: int) -> GridSet:
    """Iterated digit-restriction set: per axis, keep the base-`base` digits
    in the axis pattern, iterate `depth` times, rasterize to the finest
    dyadic level with 2^level >= base^depth.

    The rasterization marks one dyadic cell per kept construction cell (the
    one containing its center), so the stored cell count equals the product
    over axes of |keep_axis|^depth.
    """
    if base < 2:
        raise ValueError("base must be >= 2")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    patterns = _normalize_keep(base, keep, n)
    if depth * math.log2(base) > 24 / n + 1e-9:
        raise ValueError(f"depth {depth} at base {base} overflows the 2^24 cell cap")
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
    lo = pts.min(axis=0) if len(pts) else np.zeros(pts.shape[1])
    span = float((pts - lo).max()) if len(pts) else 0.0
    scale = 2.0 ** max(0, math.ceil(math.log2(span))) if span > 0 else 1.0
    unit = (pts - lo) / scale
    idx = np.clip((unit * (1 << level)).astype(np.int64), 0, (1 << level) - 1)
    return GridSet(pts.shape[1], level, idx)


@dataclass(frozen=True)
class SharpHyperplaneExample:
    """A low-dimensional set inside a coordinate subspace together with a
    family of hyperplanes containing that subspace (AffineFlats, in `flats`)."""

    grid: GridSet
    flats: tuple
    achieved_dimension: float
    target_dimension: float


@dataclass(frozen=True)
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


def sharp_hyperplane_example(
    n: int, s: float, depth: int, family_size: int = 256
) -> SharpHyperplaneExample:
    """A set of dimension ~s inside the coordinate ceil(s)-subspace, plus a
    dense sample of the hyperplanes containing that subspace.

    The family is parametrized by the (n-1-ceil(s))-subspaces of the
    orthogonal complement and sampled with a fixed internal seed, so the
    output is deterministic.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if not (1 < s <= n - 1):
        raise ValueError(f"need 1 < s <= n-1, got s={s}")
    m = math.ceil(s)
    pats, achieved = _base3_patterns_for(s, m)
    patterns = pats + [[0]] * (n - m)
    grid = cantor_grid(n, 3, patterns, depth)

    # Hyperplanes containing span{e_1..e_m}: the coordinate block plus an
    # (n-1-m)-subspace of the complement.  For m = n-1 the family collapses
    # to the single coordinate hyperplane.
    flats = []
    if m == n - 1:
        basis = np.eye(n)[:, : n - 1]
        flats.append(AffineFlat(Subspace(n, n - 1, basis), np.zeros(n)))
    else:
        rng = np.random.default_rng(20240 + n * 16 + m)
        for _ in range(family_size):
            sub = haar_sample(n - m, n - 1 - m, rng)
            basis = np.zeros((n, n - 1))
            basis[:m, :m] = np.eye(m)
            basis[m:, m:] = sub.basis
            flats.append(AffineFlat(Subspace(n, n - 1, basis), np.zeros(n)))
    return SharpHyperplaneExample(grid, tuple(flats), achieved, float(s))


def slicing_product_example(n: int, k: int, s: float, depth: int) -> SlicingProductExample:
    """Product of an ~s-dimensional digit-restriction set in the first k
    coordinates with the full cube in the remaining n-k coordinates; the
    product has box dimension ~ n-k+s."""
    if not (1 <= k <= n - 1):
        raise ValueError(f"need 1 <= k <= n-1, got k={k}")
    if not (0 < s <= k):
        raise ValueError(f"need 0 < s <= k, got s={s}")
    pats, achieved = _base3_patterns_for(float(s), k)
    patterns = pats + [[0, 1, 2]] * (n - k)
    grid = cantor_grid(n, 3, patterns, depth)
    return SlicingProductExample(grid, achieved + (n - k), achieved, float(s) + (n - k))


def flat_slice(g: GridSet, w: AffineFlat, rho: float) -> GridSet:
    """Cells of g within distance rho of the flat, re-expressed in the
    flat's own coordinates at matching resolution.

    The distance of a cell centre x is |(x - a) N| for an orthonormal basis
    N of the flat's orthogonal complement.

    Flat coordinates are shifted/scaled by a power of two exactly as in
    grid_from_points, which preserves dimension slopes.
    """
    if rho < 2.0 ** (-g.level):
        raise ValueError("rho must be at least one cell width")
    if w.n != g.n:
        raise ValueError("ambient dimension mismatch")
    rel = g.centers()
    rel -= w.offset
    near = np.linalg.norm(rel @ w.direction.complement_basis(), axis=1) <= rho
    if not near.any():
        return GridSet(w.k, g.level, np.zeros((0, w.k), dtype=np.int64))
    return grid_from_points(rel[near] @ w.direction.basis, g.level)


def _embed_flats(flats) -> np.ndarray:
    first = flats[0]
    if isinstance(first, Subspace):
        if any(not isinstance(f, Subspace) or (f.n, f.k) != (first.n, first.k) for f in flats):
            raise ValueError("mixed or inconsistent subspace types")
        return np.stack([f.projector().ravel() for f in flats])
    if isinstance(first, AffineFlat):
        if any(
            not isinstance(f, AffineFlat) or (f.n, f.k) != (first.n, first.k)
            for f in flats
        ):
            raise ValueError("mixed or inconsistent flat types")
        return np.stack(
            [np.concatenate([f.direction.projector().ravel(), f.offset]) for f in flats]
        )
    raise ValueError("expected Subspace or AffineFlat elements")


def family_dimension(flats, l_min: int, l_max: int) -> DimensionEstimate:
    """Box-counting dimension of a family of subspaces or affine flats.

    Each element is embedded as its projector entries (plus the offset for
    affine flats) and counted with max-norm boxes; that embedding is
    bi-Lipschitz-equivalent to the projector-metric up to dimension
    constants, so the slope estimates the family's metric dimension.
    """
    if not flats:
        raise ValueError("family must be nonempty")
    emb = _embed_flats(list(flats))
    return estimate_dimension(grid_from_points(emb, l_max), l_min, l_max)
