"""Point-hyperplane duality, projective transformations, and the
direction-spreading pipeline.

A non-vertical hyperplane is kept in graph form {y_n = <a, y'> + c}; the
dual of a point x is the hyperplane with a = x', c = x_n, and the dual of a
hyperplane is the point (-a, c).  The sign makes incidence self-dual:
x lies on L exactly when the dual point of L lies on the dual hyperplane
of x.

Projective maps act on homogeneous coordinates [x : 1].  The map built by
projective_to_infinity sends a chosen affine hyperplane to the hyperplane at
infinity; applied to a family of hyperplanes it converts intercept spread
into direction spread, which is what the spreadify pipeline measures.
Hyperplanes map exactly through the dual matrix: with M the matrix of the
map, the plane {l . [x; 1] = 0} goes to {l M^-1 . [y; 1] = 0}.

GraphHyperplane is one plane.  Inside spreadify a family is one (m, n + 1)
array of homogeneous rows l = (-a, 1, -c), whose x_n coefficient is exactly
1: the incidence count, the direction dimension and the map all take it.
Graph-form rows (a, c) are the layout of the plane CSV table: the CLI reads
that table into an (m, n) array, spreadify turns it into homogeneous rows
and its image back, and hyperplanes_to_csv writes it.  The ndirs candidate
projections are placed and box-counted together by
dimension.projection_dimensions, and the direction dimensions by
dimension.family_dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import table
from .dimension import (
    _BLOCK,
    MAX_CELLS,
    MAX_POINT_LEVEL,
    DimensionEstimate,
    family_dimension,
    projection_dimensions,
)
from .grassmann import AffineFlat, Subspace, complement, haar_projector_batch
from .tolerances import TOL_EXACT, TOL_PROJECTIVE


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of x, each row squared only after an exact
    scaling by a power of two to a largest entry in [1/2, 1).  No square
    overflows, a norm past the float range comes out inf, and on rows whose
    squares stay in the normal float range this is np.linalg.norm to the bit."""
    _, e = np.frexp(np.abs(x).max(axis=1))
    with np.errstate(over="ignore"):
        return np.ldexp(np.linalg.norm(np.ldexp(x, -e[:, None]), axis=1), e)


class VerticalHyperplaneError(ValueError):
    """The hyperplane has no graph form (its normal is horizontal)."""


class MapsToInfinityError(ValueError):
    """The object lies on the exceptional hyperplane of a projective map."""


@dataclass(frozen=True, eq=False)
class GraphHyperplane:
    """The hyperplane {y_n = <a, y'> + c} in R^n, n = len(a) + 1."""

    a: np.ndarray = field(repr=False)
    c: float

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        if a.ndim != 1:
            raise ValueError("slope coefficients must be a vector")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", float(self.c))

    @property
    def n(self) -> int:
        return len(self.a) + 1

    def height(self, xprime) -> float:
        return float(np.dot(self.a, xprime) + self.c)

    def to_flat(self) -> AffineFlat:
        """The same hyperplane as an AffineFlat."""
        n = self.n
        nu = np.append(-self.a, 1.0)
        direction = Subspace(n, n - 1, complement(nu[:, None] / np.linalg.norm(nu)))
        point = np.zeros(n)
        point[-1] = self.c
        return AffineFlat.through(direction, point)


def dualize_point(x) -> GraphHyperplane:
    """D: the point x becomes the hyperplane {y_n = <x', y'> + x_n}."""
    x = np.asarray(x, dtype=float)
    return GraphHyperplane(x[:-1], float(x[-1]))


def dualize_hyperplane(plane: GraphHyperplane) -> np.ndarray:
    """D*: the hyperplane {y_n = <a, y'> + c} becomes the point (-a, c)."""
    return np.append(-plane.a, plane.c)


def incident(x, plane: GraphHyperplane, tol: float) -> bool:
    """Graph-form incidence: |x_n - <a, x'> - c| <= tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = np.asarray(x, dtype=float)
    return abs(float(x[-1]) - plane.height(x[:-1])) <= tol


@dataclass(frozen=True, eq=False)
class ProjectiveMap:
    """An invertible map on homogeneous coordinates [x : 1] in R^n."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if abs(np.linalg.det(m)) < TOL_EXACT:
            raise ValueError("matrix is (near-)singular")
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0] - 1

    def apply_point(self, x) -> np.ndarray:
        """Image of the point x, or of every row of an (m, n) array x."""
        x = np.asarray(x, dtype=float)
        pts = np.atleast_2d(x)
        with np.errstate(over="ignore", invalid="ignore"):
            hom = np.hstack([pts, np.ones((len(pts), 1))]) @ self.matrix.T
        if not np.isfinite(hom).all():
            raise ValueError("a mapped point overflows; input values are too large")
        w = hom[:, -1:]
        scale = np.maximum(1.0, _row_norms(hom)[:, None])
        if (np.abs(w) <= TOL_PROJECTIVE * scale).any():
            raise MapsToInfinityError("point maps to infinity")
        images = hom[:, :-1] / w
        return images if x.ndim == 2 else images[0]


def projective_to_infinity(u, h: float) -> ProjectiveMap:
    """The projective map sending the hyperplane {<u, x> = h} to infinity.

    Composition of: an orthogonal change of frame taking u to e_n, the
    translation by -h along e_n, and the swap of the n-th coordinate with
    the homogeneous one.
    """
    u = np.asarray(u, dtype=float)
    n = len(u)
    if abs(np.linalg.norm(u) - 1.0) > TOL_EXACT:
        raise ValueError("u must be a unit vector")
    # Orthogonal Q with Q u = e_n (Householder unless already aligned).
    e_n = np.zeros(n)
    e_n[-1] = 1.0
    v = u - e_n
    vnorm = np.linalg.norm(v)
    if vnorm <= TOL_EXACT:
        q = np.eye(n)
    else:
        v = v / vnorm
        q = np.eye(n) - 2.0 * np.outer(v, v)
    rot = np.eye(n + 1)
    rot[:n, :n] = q
    trans = np.eye(n + 1)
    trans[n - 1, n] = -h
    swap = np.eye(n + 1)[list(range(n - 1)) + [n, n - 1]]
    return ProjectiveMap(swap @ trans @ rot)


def _map_hyperplanes(pmap: ProjectiveMap, rows: np.ndarray) -> np.ndarray:
    """The images {l M^-1 . [y; 1] = 0} of the planes {l . [x; 1] = 0}, one
    row l per plane, each divided by its x_n coefficient, which so becomes
    exactly 1: the homogeneous row (-A, 1, -c) of the image {y_n = <A, y'> + c}.
    A row and its negation give the same image, bit for bit.  A row whose
    whole normal part vanishes is the exceptional plane; one whose last
    normal entry vanishes has a vertical image.  An image that overflows
    raises ValueError; past these checks the row is bounded by the
    tolerances."""
    with np.errstate(over="ignore", invalid="ignore"):
        image = rows @ np.linalg.inv(pmap.matrix)
    if not np.isfinite(image).all():
        raise ValueError("a mapped plane overflows; input values are too large")
    normal = image[:, :-1]
    size = _row_norms(normal)
    if (size <= TOL_PROJECTIVE * _row_norms(image)).any():
        raise MapsToInfinityError("hyperplane maps to infinity")
    if (np.abs(normal[:, -1]) <= TOL_EXACT * size).any():
        raise VerticalHyperplaneError("image hyperplane is vertical, no graph form")
    return image / normal[:, -1:]


def apply_projective(pmap: ProjectiveMap, obj):
    """Image of a point (or of each row of an (m, n) array of points) or of
    an affine hyperplane under the projective map.

    A hyperplane maps exactly through the dual matrix; its image must have
    a graph form (VerticalHyperplaneError otherwise) and is returned as an
    AffineFlat.
    """
    if isinstance(obj, AffineFlat):
        if obj.k != obj.n - 1:
            raise ValueError("only hyperplanes are supported")
        nu = obj.direction.complement_basis()[:, 0]
        row = _map_hyperplanes(pmap, np.append(nu, -nu @ obj.offset)[None, :])[0]
        return GraphHyperplane(-row[:-2], -row[-1]).to_flat()
    return pmap.apply_point(obj)


def marstrand_project(points, u: Subspace) -> np.ndarray:
    """Coordinates of the orthogonal projections of the points in an
    orthonormal basis of u, shape (m, k)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != u.n:
        raise ValueError("point dimension mismatch")
    return pts @ u.basis


@dataclass(frozen=True, eq=False)
class SpreadifyReport:
    """What the direction-spreading pipeline did and measured."""

    chosen_direction_normal: Optional[np.ndarray]
    chosen_direction_index: Optional[int]
    candidate_dimensions: tuple
    exceptional_offset: Optional[float]
    initial_direction_dimension: float
    final_direction_dimension: float
    incidences_before: int
    incidences_after: int
    degenerate: bool
    seed: Optional[int]

    def as_dict(self) -> dict:
        return {
            "chosen_direction_normal": None
            if self.chosen_direction_normal is None
            else [float(v) for v in self.chosen_direction_normal],
            "chosen_direction_index": self.chosen_direction_index,
            "candidate_dimensions": [float(v) for v in self.candidate_dimensions],
            "exceptional_offset": self.exceptional_offset,
            "initial_direction_dimension": self.initial_direction_dimension,
            "final_direction_dimension": self.final_direction_dimension,
            "incidences_before": self.incidences_before,
            "incidences_after": self.incidences_after,
            "incidences_preserved": self.incidences_before == self.incidences_after,
            "degenerate": self.degenerate,
            "seed": self.seed,
        }


def _incidence_count(points: np.ndarray, rows: np.ndarray) -> int:
    """Point-plane pairs with |x_n - <a, x'> - c| <= TOL_EXACT (|x_n| +
    sum_i |a_i x_i| + |c|), one homogeneous row (-a, 1, -c) per plane: the
    residual is zero up to TOL_EXACT relative to its own terms, so scaling
    the data moves no count beyond rounding.

    Both sides are homogeneous products, rows @ [x', x_n, 1] and the same in
    absolute value, formed for all planes and a block of points at a time,
    at most _BLOCK pairs per block, so no planes x points matrix is built.
    A pair whose bound overflows counts as no incidence."""
    weights = np.abs(rows) * TOL_EXACT
    hom = np.column_stack([points, np.ones(len(points))]).T.copy()  # rows x', x_n, 1
    step = max(1, _BLOCK // len(rows))
    count = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, hom.shape[1], step):
            block = hom[:, lo:lo + step]
            residual = rows @ block
            np.abs(residual, out=residual)
            bound = weights @ np.abs(block)
            count += np.count_nonzero((residual <= bound) & (bound < np.inf))
    return int(count)


def _direction_dimension(normals: np.ndarray, l_min: int, l_max: int) -> DimensionEstimate:
    """Box dimension of the directions of the planes with the given normals
    (-a, 1), one row per plane: the family_dimension of their projectors
    I - nu nu^T, nu the unit normal."""
    nu = normals / _row_norms(normals)[:, None]
    return family_dimension(np.eye(nu.shape[1]) - nu[:, :, None] * nu[:, None, :], l_min, l_max)


def spreadify(
    points,
    planes,
    levels: tuple,
    seed=None,
    ndirs: int = 32,
):
    """Reparametrize a hyperplane family so intercept spread becomes
    direction spread.

    Pipeline: dualize the hyperplanes to points; among ndirs Haar-random
    hyperplane directions pick the one maximizing the box dimension of the
    projected dual set; send a translate of that direction (offset past the
    data's bounding radius, so nothing maps to infinity) to the hyperplane
    at infinity; apply the induced map to the points, and map the
    hyperplanes exactly through the dual matrix.

    Data whose radius r, the largest point norm or plane distance
    |c| / |(-a, 1)| to the origin, lies in (0, 1/2) is first scaled by the
    exact power of two that takes r into [1/2, 1), so a family of small
    size is spread and mapped like the same family at unit size.  The
    mapped points and planes are images of the scaled data, and the
    report's exceptional_offset is given in that scaled frame.

    The planes are an (m, n) array with one graph-form row (a, c) per plane
    {y_n = <a, y'> + c}, the layout of the plane CSV table.  Returns (mapped
    points, mapped planes as such an array, report); a degenerate family,
    whose dual points all coincide, comes back as given.  Raises
    VerticalHyperplaneError if an image plane is vertical, and ValueError
    unless ndirs >= 1, 1 <= l_min < l_max <= MAX_POINT_LEVEL and there are
    between 1 and MAX_CELLS planes, or if the data's bounding radius or a
    mapped value overflows.  Incidences are counted before and after the map
    by _incidence_count's scale-free rule, which the scaling leaves as it is.
    """
    l_min, l_max = levels
    if ndirs < 1:
        raise ValueError(f"ndirs must be >= 1, got {ndirs}")
    if not 1 <= l_min < l_max <= MAX_POINT_LEVEL:
        raise ValueError(f"need 1 <= l_min < l_max <= {MAX_POINT_LEVEL}, got levels {levels}")
    planes = np.asarray(planes, dtype=float)
    if not len(planes):
        raise ValueError("need at least one hyperplane")
    if planes.ndim != 2 or planes.shape[1] < 2:
        raise ValueError(f"planes must be an (m, n >= 2) array of rows (a, c), not {planes.shape}")
    if len(planes) > MAX_CELLS:
        raise ValueError(f"family of {len(planes)} members exceeds cap {MAX_CELLS}")
    n = planes.shape[1]
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != n:
        raise ValueError("point dimension mismatch")
    seed_val = int(seed) if isinstance(seed, (int, np.integer)) else None

    rows = np.column_stack([-planes[:, :-1], np.ones(len(planes)), -planes[:, -1]])
    initial = _direction_dimension(rows[:, :-1], l_min, l_max)
    inc_before = _incidence_count(pts, rows)

    with np.errstate(over="ignore", invalid="ignore"):  # overflows are refused below
        distances = np.abs(rows[:, -1]) / _row_norms(rows[:, :-1])
        radius = float(np.concatenate([_row_norms(pts), distances]).max())
        x = pts  # the points in the frame that is mapped
        if 0 < radius < 0.5:
            e = -int(np.frexp(radius)[1])
            x = np.ldexp(pts, e)
            rows[:, -1] = np.ldexp(rows[:, -1], e)
        duals = np.column_stack([rows[:, :-2], -rows[:, -1]])  # the points (-a, c)
        spread = float(np.ptp(duals, axis=0).max())  # past the float range is no degenerate family
    if spread <= TOL_EXACT:
        report = SpreadifyReport(
            None, None, (), None, 0.0, 0.0, inc_before, inc_before, True, seed_val
        )
        return pts.copy(), planes.copy(), report

    # The box counts scale each projected extent, at most h, up to a power of
    # two, and h must leave that power finite.
    h = 2.0 * max(float(_row_norms(np.vstack([duals, x])).max()), 1.0)
    if not h < 2.0**1022:
        raise ValueError("the data's bounding radius overflows; input values are too large")
    candidates = haar_projector_batch(n, n - 1, ndirs, seed)
    dims = projection_dimensions(duals, candidates, l_min, l_max)
    best_idx = int(np.argmax(dims))  # ties: lowest index wins
    u = complement(candidates[best_idx])[:, 0]

    pmap = projective_to_infinity(u, h)

    mapped_pts = pmap.apply_point(x)
    mapped = _map_hyperplanes(pmap, rows)
    final = _direction_dimension(mapped[:, :-1], l_min, l_max)
    inc_after = _incidence_count(mapped_pts, mapped)

    report = SpreadifyReport(
        u,
        best_idx,
        tuple(dims),
        h,
        initial.slope,
        final.slope,
        inc_before,
        inc_after,
        False,
        seed_val,
    )
    return mapped_pts, np.column_stack([-mapped[:, :-2], -mapped[:, -1]]), report


# -- CSV interchange -------------------------------------------------------


def points_to_csv(points) -> str:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return table.to_csv([f"x{j}" for j in range(pts.shape[1])], pts)


def points_from_csv(text: str) -> np.ndarray:
    """The rows under the header of a float table of at least 2 columns."""
    pts = table.from_csv(text, float)
    if pts.shape[1] < 2:
        raise ValueError("CSV needs a header row of at least 2 columns")
    return pts


def hyperplanes_to_csv(planes) -> str:
    """The plane table: header a0..a{n-2}, c, then one graph-form row (a, c)
    per plane, from an (m, n) array of such rows or a sequence of
    GraphHyperplanes.  The table reads back with points_from_csv."""
    if not isinstance(planes, np.ndarray):
        planes = [np.append(p.a, p.c) for p in planes]
    rows = np.asarray(planes, dtype=float)
    return table.to_csv([f"a{j}" for j in range(rows.shape[1] - 1)] + ["c"], rows)
