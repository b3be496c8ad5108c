"""Discretized slab averages and Kakeya-type maximal functions.

Fields are nonnegative grid functions on dyadic cells of [-1,1]^n; a slab is
the delta-neighborhood of (U + a) intersected with the ball B(a, 1/2).  All
integrals are cell sums and the slab volume is the empirical in-slab cell
count, so averages of indicator fields are exact ratios and the usual
volume-constant fudge drops out of the contracts.

The translate supremum is a finite grid search over U-perp within B(0, 2):
fields have compact support in [-1,1]^n, so distant translates contribute
nothing.  One sweep serves every codimension >= 1: each cell adds its value
to an interval of translates on each nearby row of the grid, and one
difference array per row turns those intervals into every translate's
average at once.

The sweep makes two passes over the cells with the same per-cell arithmetic.
The in-slab counts come from the first half of the grid in flat order: its
mirror image is the second half, cell by cell (x and -x exactly, as the
centers are dyadic), the translate grid is symmetric, and every step of the
arithmetic commutes with negation under round-to-nearest, so the second
half's counts are the first half's flipped through the origin.  The value
sums come from the nonzero cells alone, which drops only +0.0 terms and
leaves the sums bitwise unchanged.  The cells both passes read are built
once per field, not once per direction.

Both passes run in blocks of `_BLOCK` = 2^15 cells, so every per-direction
temporary is a few hundred KB that the allocator reuses from block to block.
Unblocked, each direction of a level-8 planar field allocated fresh MB-sized
arrays over its 131,072 half-grid cells, and the first touch of their pages
cost about 1,100 minor page faults per direction (22,206 per 20-direction
`maximal scan` job at delta 2^-6, against 1,321 blocked).  Integer counts are
exact in any grouping, and the value sums are joined across blocks before
their one `bincount`, so the floats keep their bits (see `_slab_sweep`).

A cell's interval on a row ends at the translates nearest tc - r and tc + r,
found by arithmetic, not by a search of the translate grid: the grid points
fl(j*step) are within far less than step/4 of j*step, so only the one nearest
v can fall on either side of it, and one comparison with that grid point
settles each end exactly (proof in `_grid_index`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dimension import _BLOCK, MAX_CELLS
from .grassmann import Subspace, complement, haar_projector_batch, row_sum_squares

MAX_FIELD_DIM = 4
MIN_DELTA = 2.0 ** -8


def _grid_shape(n: int, level: int) -> tuple:
    """Shape (m,) * n of a field, m = 2^(level+1) cells per axis, checked
    against the dimension and cell caps before any array of that shape is built."""
    if n > MAX_FIELD_DIM:
        raise ValueError(f"ambient dimension capped at {MAX_FIELD_DIM}")
    m = 1 << (level + 1)
    if m**n > MAX_CELLS:
        raise ValueError(f"{m}^{n} cells exceed the cap {MAX_CELLS}")
    return (m,) * n


def _axis_centers(level: int) -> np.ndarray:
    """Centers of the 2^(level+1) dyadic cells of side 2^-level along [-1, 1]."""
    return -1.0 + (np.arange(1 << (level + 1)) + 0.5) * 2.0 ** -level


def _box_centers(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Centers of the cells of the box whose per-axis centers are axes, in
    flat order: shape (len(axes[0]), ..., len(axes[-1]), n), one axis center
    broadcast into each coordinate."""
    n = len(axes)
    out = np.empty([len(a) for a in axes] + [n])
    for d, a in enumerate(axes):
        out[..., d] = a.reshape((-1,) + (1,) * (n - 1 - d))
    return out


def _cell_centers(level: int, shape: tuple, idx: np.ndarray) -> np.ndarray:
    """Centers of the cells at the arbitrary flat indices idx of a grid of the
    given shape, one row per index."""
    return _axis_centers(level)[np.stack(np.unravel_index(idx, shape), axis=1)]


@dataclass(frozen=True, eq=False)
class MaximalField:
    """Nonnegative values on the dyadic cells of [-1,1]^n at side 2^-level."""

    n: int
    level: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        shape = _grid_shape(self.n, self.level)
        v = np.asarray(self.values, dtype=float)
        if v.shape != shape:
            raise ValueError(f"values shape {v.shape} != {shape}")
        if not np.isfinite(v).all() or (v < 0).any():
            raise ValueError("values must be finite and nonnegative")
        object.__setattr__(self, "values", v)

    @property
    def resolution(self) -> float:
        return 2.0 ** -self.level

    def centers(self) -> np.ndarray:
        """All cell centers in flat order, shape (m^n, n)."""
        return _box_centers([_axis_centers(self.level)] * self.n).reshape(-1, self.n)

    @classmethod
    def from_function(cls, n: int, level: int, fn) -> "MaximalField":
        """Evaluate fn on cell centers; fn takes an (m, n) array of points
        and returns m nonnegative values."""
        shape = _grid_shape(n, level)
        vals = fn(_box_centers([_axis_centers(level)] * n).reshape(-1, n))
        return cls(n, level, np.asarray(vals, dtype=float).reshape(shape))

    @classmethod
    def ball_indicator(cls, n: int, level: int, center=None, radius: float = 1.0) -> "MaximalField":
        c = np.zeros(n) if center is None else np.asarray(center, dtype=float)
        return cls.from_function(
            n, level, lambda x: (np.linalg.norm(x - c, axis=1) <= radius).astype(float)
        )

    @classmethod
    def constant(cls, n: int, level: int, value: float) -> "MaximalField":
        return cls(n, level, np.full(_grid_shape(n, level), float(value)))

    def translated(self, shift_cells: Sequence[int]) -> "MaximalField":
        """Shift by whole cells along each axis, filling with zeros; a shift
        of the whole axis or more leaves all zeros."""
        m = self.values.shape[0]
        src, dst = [], []
        for s in shift_cells:
            s = min(max(s, -m), m)
            src.append(slice(max(-s, 0), m - max(s, 0)))
            dst.append(slice(max(s, 0), m - max(-s, 0)))
        out = np.zeros_like(self.values)
        out[tuple(dst)] = self.values[tuple(src)]
        return MaximalField(self.n, self.level, out)


def _check_delta(delta: float):
    """The tube width rule of tube_average, the maximal search, the tube union
    field and delta_scan."""
    if not MIN_DELTA <= delta <= 0.5:
        raise ValueError(f"delta must be in [{MIN_DELTA}, 1/2], got {delta}")


def _check_resolution(f: MaximalField, delta: float):
    if f.resolution > delta / 4 + 1e-15:
        raise ValueError(
            f"field resolution {f.resolution} too coarse for delta {delta} (need <= delta/4)"
        )


def _tube_distances_sq(points: np.ndarray, basis: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared distance from points to the core disc of the slab of direction
    span(basis) about center."""
    w = points - center
    long_sq = row_sum_squares(w @ basis)
    rad_sq = np.maximum(row_sum_squares(w) - long_sq, 0.0)
    excess = np.maximum(np.sqrt(long_sq) - 0.5, 0.0)
    return rad_sq + excess * excess


def _slab_window(level: int, basis: np.ndarray, center: np.ndarray, radius: float):
    """Index slices of the bounding box of the slab of direction span(basis),
    center and radius (per-axis extent of the core disc plus the radius,
    padded by one cell) on the grid at side 2^-level, and the in-slab mask
    of the cells in it, shaped like the box (empty when the box misses the
    grid)."""
    half_extent = 0.5 * np.linalg.norm(basis, axis=1) + radius
    axis = _axis_centers(level)
    side = 2.0 ** -level
    slices = []
    for i in range(len(center)):
        lo = center[i] - half_extent[i] - side
        hi = center[i] + half_extent[i] + side
        j0 = int(np.searchsorted(axis, lo, side="left"))
        j1 = int(np.searchsorted(axis, hi, side="right"))
        slices.append(slice(j0, j1))
    pts = _box_centers([axis[s] for s in slices])
    inside = _tube_distances_sq(pts.reshape(-1, len(center)), basis, center) <= radius**2
    return tuple(slices), inside.reshape(pts.shape[:-1])


def tube_average(f: MaximalField, u: Subspace, center, radius: float) -> float:
    """Mean of the field over cells whose centers lie in the slab of direction
    U, center a and the given radius (the radius-neighborhood of (U + a)
    within B(a, 1/2)), normalized by the in-slab cell count."""
    if f.n != u.n:
        raise ValueError("field and tube live in different dimensions")
    center = np.asarray(center, dtype=float)
    if center.shape != (u.n,):
        raise ValueError("center dimension mismatch")
    _check_delta(radius)
    _check_resolution(f, radius)
    slices, inside = _slab_window(f.level, u.basis, center, radius)
    if not inside.any():
        return 0.0
    return float(f.values[slices][inside].sum() / inside.sum())


def _translate_grid(step: float) -> np.ndarray:
    """Symmetric 1-d grid of spacing `step` covering [-2, 2]."""
    m = int(math.floor(2.0 / step))
    return np.arange(-m, m + 1) * step


def _sweep_cells(f: MaximalField):
    """What every slab sweep of f reads: the centers of the first half of the
    cells in flat order, the centers of the nonzero cells and their values."""
    vals = f.values.ravel()
    nonzero = np.flatnonzero(vals)
    axis = _axis_centers(f.level)
    half = _box_centers([axis[: len(axis) // 2]] + [axis] * (f.n - 1)).reshape(-1, f.n)
    return half, _cell_centers(f.level, f.values.shape, nonzero), vals[nonzero]


def _grid_index(v: np.ndarray, step: float, side: str) -> np.ndarray:
    """np.searchsorted(_translate_grid(step), v, side), by arithmetic.

    The grid is fl(j*step) for |j| <= m = floor(2/step), nondecreasing in j.
    Call j counted when fl(j*step) < v (left side) or <= v (right side); the
    index is the number of counted grid points.  Let rho = v/step.

    - Each grid product is within 2^-52 of j*step, far less than step/4
      (`_check_search` caps the sweep at 2^24 entries, so step > 2^-22).  So
      j < rho - 1/4 is counted and j > rho + 1/4 is not, and only an integer
      in that interval of length 1/2, which holds at most one, is uncertain.
    - The candidate j* = rint(v * fl(1/step)) is within 1/2 + 2^-28 of rho
      while |rho| <= m + 2, so j* - 1 is counted and j* + 1 is not (a
      half-integer rho may round either way; both results qualify).  For
      larger |rho|, inf included, j* lies past the grid on rho's side.
    - Clipping j* to [-m, m] keeps both facts.

    So the index is the m + j* points below j*, plus whether j* is counted,
    tested on the product the grid holds: j* is an integral float, and an
    integral float times step is the same product as the integer's.
    """
    m = math.floor(2.0 / step)
    q = v * (1.0 / step)
    np.rint(q, out=q)
    np.clip(q, -m, m, out=q)
    counted = (np.less if side == "left" else np.less_equal)(q * step, v)
    index = q.astype(np.int64)
    index += m
    index += counted
    return index


def _slab_intervals(points: np.ndarray, frame: np.ndarray, k: int, delta: float, step: float):
    """For each row offset, yield (lo, hi, cells): points[cells[i]] is in the slab
    at every translate of difference-array positions lo[i] <= j < hi[i].  A point
    at U-perp coordinates t is in the slab at tau iff
    |t - tau|^2 <= delta^2 - (|U^T x| - 1/2)_+^2, so on each grid row along the
    last U-perp axis it covers one interval of translates, found by `_grid_index`.

    |U^T x| is the sum of squares under one square root, as np.linalg.norm
    forms it (`row_sum_squares` adds the k <= 3 squares in numpy's order);
    for lines it is |x|, which equals sqrt(x*x) in binary floating point
    except on underflow, where both are far inside the band with zero
    excess.  Codimension 1 has a single row and no row offsets."""
    c = frame.shape[1] - k
    x = points @ frame  # U coordinates, then U-perp ones
    if k == 1:
        long_norm = np.abs(x[:, 0])
    else:
        long_norm = np.sqrt(row_sum_squares(x[:, :k]))
    in_band = long_norm <= 0.5 + delta
    g_sq = long_norm  # delta^2 - (|U^T x| - 1/2)_+^2, in place
    g_sq -= 0.5
    np.maximum(g_sq, 0.0, out=g_sq)
    g_sq *= g_sq
    np.subtract(delta * delta, g_sq, out=g_sq)
    in_band &= g_sq >= 0  # a cell with g_sq < 0 is in no slab
    band = np.flatnonzero(in_band)
    t, g_sq = np.take(x[:, k:], band, axis=0), np.take(g_sq, band)
    del x, in_band  # the sweep reads only the band
    tc = t[:, -1]
    if c > 1:
        taus = _translate_grid(step)
        nt = len(taus)
        near = np.rint(t[:, :-1] / step).astype(int) + nt // 2
        row_stride = (nt + 1) * nt ** np.arange(c - 2, -1, -1)
        near_base = near @ row_stride
        # Rows off the grid read an infinite translate, so r_sq < 0 drops them.
        padded = np.concatenate(([np.inf], taus, [np.inf]))
    reach = range(-math.ceil(delta / step), math.ceil(delta / step) + 1)
    for offset in itertools.product(reach, repeat=c - 1):
        r_sq, tk, cells = g_sq, tc, band
        if c > 1:
            row_taus = np.take(padded, near + (np.array(offset) + 1), mode="clip")
            r_sq = g_sq - row_sum_squares(t[:, :-1] - row_taus)
            keep = r_sq >= 0
            r_sq, tk, cells = r_sq[keep], tc[keep], band[keep]
            base = near_base[keep] + int(np.dot(offset, row_stride))
        r = np.sqrt(r_sq)
        end = tk - r
        lo = _grid_index(end, step, "left")
        hi = _grid_index(np.add(tk, r, out=end), step, "right")
        if c > 1:
            lo += base
            hi += base
        yield lo, hi, cells


def _slab_sweep(cells, basis: np.ndarray, delta: float, step: float) -> float:
    """Largest slab average over the translate grid in U-perp within B(0, 2), for
    U = span(basis) of any codimension c >= 1, from the `_sweep_cells` of the
    field.

    Each cell adds to an interval of translates on each nearby grid row, and one
    difference array per row turns those intervals into every translate's
    in-slab count and value sum.  Two passes share that arithmetic:

    - Counts come from the first half of the cells only.  Cell i and cell
      N-1-i are x and -x exactly (the centers are dyadic), the translate grid
      is symmetric, and the projection, its norm and `rint` are odd or even
      exactly under round-to-nearest.  So where a cell covers the columns
      [lo, hi) of a row, its mirror covers exactly [nt - hi, nt - lo) of the
      mirrored row, and the full counts are the half's counts plus the same
      array flipped along every translate axis.
    - Sums come from the nonzero cells only.  Dropping zero values removes only
      +0.0 terms from each `bincount` and keeps the order of the rest, so the
      sums are bitwise those of the whole grid.

    Both passes read their cells in blocks of `_BLOCK` rows.  That changes no
    bit because `points @ frame` gives each row the same bits whatever other
    rows are in the product (the value pass has always relied on it for its
    nonzero subset).  The count pass adds each block's integer `bincount`s into
    the difference array, exact in any grouping.  The value pass joins each row
    offset's intervals and values across blocks, in block order, and makes one
    weighted `bincount` of them, so every bin adds its floats in flat order as
    an unblocked pass would; a field of one block is not copied.

    The ends of each interval are the indices np.searchsorted would give on the
    translate grid, computed by `_grid_index` from the integer j nearest
    v/step, clipped to the grid, and one comparison with the grid point fl(j*step).
    """
    half, points, vals = cells
    n, k = basis.shape
    frame = np.hstack([basis, complement(basis)])
    c = n - k
    taus = _translate_grid(step)
    nt = len(taus)
    size = nt ** (c - 1) * (nt + 1)

    def per_translate(diff):  # difference arrays -> one value per translate
        return np.cumsum(diff.reshape(-1, nt + 1), axis=1)[:, :nt].reshape((nt,) * c)

    diff = np.zeros(size, dtype=np.int64)
    for start in range(0, len(half), _BLOCK):
        for lo, hi, _ in _slab_intervals(half[start:start + _BLOCK], frame, k, delta, step):
            diff += np.bincount(lo, minlength=size)
            diff -= np.bincount(hi, minlength=size)
    counts = per_translate(diff)
    counts = counts + np.flip(counts)

    def weighted(start):  # one block's intervals, each with its cell's value
        block_vals = vals[start:start + _BLOCK]
        for lo, hi, cells in _slab_intervals(points[start:start + _BLOCK], frame, k, delta, step):
            yield lo, hi, block_vals[cells]

    diff = np.zeros(size)
    for parts in zip(*map(weighted, range(0, len(points), _BLOCK))):  # one row offset
        lo, hi, w = (a[0] if len(parts) == 1 else np.concatenate(a) for a in zip(*parts))
        diff += np.bincount(lo, w, size)
        diff -= np.bincount(hi, w, size)
    sums = per_translate(diff)
    avgs = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    return float(avgs[np.linalg.norm(_box_centers([taus] * c), axis=-1) <= 2.0].max())


def _check_search(f: MaximalField, k: int, delta: float, search_step: float):
    """The argument checks of kakeya_maximal that hold for every direction,
    made before any array is built."""
    if not 1 <= k < f.n:
        raise ValueError(f"need 1 <= k < n = {f.n}, got k={k}")
    _check_delta(delta)
    if not 0 < search_step <= delta / 2 + 1e-15:
        raise ValueError(f"search_step must be in (0, delta/2], got {search_step}")
    _check_resolution(f, delta)
    nt = 2 * math.floor(min(2.0 / search_step, MAX_CELLS)) + 1  # translates per axis
    if nt ** (f.n - k - 1) * (nt + 1) > MAX_CELLS:  # difference entries, more than nt
        raise ValueError(f"search_step {search_step} needs over {MAX_CELLS} sweep entries")


def kakeya_maximal(f: MaximalField, u: Subspace, delta: float, search_step: float) -> float:
    """Supremum of tube_average over translates a on a grid of spacing
    search_step in U-perp within B(0, 2), for 1 <= dim U < n."""
    if f.n != u.n:
        raise ValueError("field and direction live in different dimensions")
    _check_search(f, u.k, delta, search_step)
    return _slab_sweep(_sweep_cells(f), u.basis, delta, search_step)


def maximal_lp_norm(
    f: MaximalField,
    k: int,
    delta: float,
    p: float,
    ndirs: int,
    seed=None,
) -> float:
    """Monte Carlo L^p norm of the maximal function over Haar k-directions,
    1 <= k < n (normalized Haar measure: mean of p-th powers, then p-th
    root), each searched on the translate grid of spacing delta/2.

    p must be finite; a p so large that every positive maximal value
    underflows to 0 in its p-th power raises instead of returning 0.
    """
    if not 1 <= p < math.inf:
        raise ValueError(f"p must be finite and >= 1, got {p}")
    if ndirs < 1:
        raise ValueError("ndirs must be >= 1")
    step = delta / 2
    _check_search(f, k, delta, step)
    cells = _sweep_cells(f)  # shared by every direction
    acc = top = 0.0
    for b in haar_projector_batch(f.n, k, ndirs, seed):
        value = _slab_sweep(cells, b, delta, step)
        acc += value**p
        top = max(top, value)
    if acc == 0 < top:
        raise ValueError(f"p = {p} is too large: every M_delta f(u)^p underflows to 0")
    return (acc / ndirs) ** (1.0 / p)


def random_tube_union_field(
    n: int, level: int, delta: float, ntubes: int, seed=None
) -> MaximalField:
    """Indicator field of a union of random delta-tubes (line directions,
    centers in U-perp within B(0, 1/2)).

    Each tube draws its Haar line, then its n-1 center coordinates in the
    `complement` basis of U-perp."""
    _check_delta(delta)
    rng = np.random.default_rng(seed)
    hit = np.zeros(_grid_shape(n, level), dtype=bool)
    for _ in range(ntubes):
        basis = haar_projector_batch(n, 1, 1, rng)[0]
        tau = rng.uniform(-0.5, 0.5, size=n - 1)
        center = complement(basis) @ tau
        slices, inside = _slab_window(level, basis, center, delta)
        hit[slices] |= inside
    return MaximalField(n, level, hit.astype(float))


def delta_scan(
    deltas: Sequence[float],
    ntubes: int = 50,
    p: float = 2.0,
    ndirs: int = 20,
    seed=None,
) -> list:
    """Norm-versus-delta diagnostic table for a planar random tube union.

    Returns [(delta, lp_norm), ...]; the field for each delta is the union
    of ntubes random delta-tubes at the matching resolution.  The tubes and
    the Haar directions draw from two independent child streams of seed,
    spawned once, so every delta has the same tubes and directions and no
    direction repeats a tube's.  Every argument is checked before the first
    field is built.
    """
    if not deltas:
        raise ValueError("need at least one delta")
    for delta in deltas:
        _check_delta(delta)
    if min(ntubes, ndirs) < 1 or not 1 <= p < math.inf:
        raise ValueError(f"need ntubes, ndirs, p >= 1 and p finite; got {ntubes}, {ndirs}, {p}")
    tube_seed, dir_seed = np.random.SeedSequence(seed).spawn(2)
    rows = []
    for delta in deltas:
        level = math.ceil(math.log2(4.0 / delta))
        f = random_tube_union_field(2, level, delta, ntubes, tube_seed)
        norm = maximal_lp_norm(f, 1, delta, p, ndirs, dir_seed)
        rows.append((float(delta), float(norm)))
    return rows
