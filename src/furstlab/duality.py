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
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .dimension import (
    DimensionEstimate,
    estimate_dimension,
    family_dimension,
    grid_from_points,
)
from .grassmann import AffineFlat, Subspace, haar_sample
from .tolerances import TOL_EXACT, TOL_PROJECTIVE


class VerticalHyperplaneError(ValueError):
    """The hyperplane has no graph form (its normal is horizontal)."""


class MapsToInfinityError(ValueError):
    """The object lies on the exceptional hyperplane of a projective map."""


@dataclass(frozen=True)
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

    def normal(self) -> np.ndarray:
        """Unit normal, oriented with positive last coordinate."""
        nu = np.append(-self.a, 1.0)
        return nu / np.linalg.norm(nu)

    def height(self, xprime) -> float:
        return float(np.dot(self.a, xprime) + self.c)

    def to_flat(self) -> AffineFlat:
        """The same hyperplane as an AffineFlat."""
        n = self.n
        nu = self.normal()
        q, _ = np.linalg.qr(np.concatenate([nu[:, None], np.eye(n)], axis=1))
        direction = Subspace(n, n - 1, q[:, 1:n])
        point = np.zeros(n)
        point[-1] = self.c
        return AffineFlat.through(direction, point)

    @classmethod
    def from_flat(cls, flat: AffineFlat, tol: float = TOL_EXACT) -> "GraphHyperplane":
        if flat.k != flat.n - 1:
            raise ValueError("expected a hyperplane")
        nu = flat.direction.complement_basis()[:, 0]
        if abs(nu[-1]) <= tol:
            raise VerticalHyperplaneError("hyperplane is vertical, no graph form")
        d = float(np.dot(nu, flat.offset))
        return cls(-nu[:-1] / nu[-1], d / nu[-1])


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


@dataclass(frozen=True)
class ProjectiveMap:
    """An invertible map on homogeneous coordinates [x : 1] in R^n.

    exceptional_normal / exceptional_offset describe the affine hyperplane
    {<nu, x> = d} sent to infinity (None for affine maps).
    """

    matrix: np.ndarray = field(repr=False)
    exceptional_normal: Optional[np.ndarray] = field(default=None, repr=False)
    exceptional_offset: Optional[float] = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if abs(np.linalg.det(m)) < TOL_EXACT:
            raise ValueError("matrix is (near-)singular")
        object.__setattr__(self, "matrix", m)
        if self.exceptional_normal is None:
            row = m[-1]
            norm = np.linalg.norm(row[:-1])
            if norm > TOL_EXACT:
                object.__setattr__(self, "exceptional_normal", row[:-1] / norm)
                object.__setattr__(self, "exceptional_offset", float(-row[-1] / norm))

    @property
    def n(self) -> int:
        return self.matrix.shape[0] - 1

    def denominator(self, x) -> float:
        """Value of the homogeneous last coordinate at x (pre-division)."""
        x = np.asarray(x, dtype=float)
        return float(self.matrix[-1, :-1] @ x + self.matrix[-1, -1])

    def exceptional_distance(self, x) -> float:
        """Euclidean distance from x to the exceptional hyperplane."""
        if self.exceptional_normal is None:
            return math.inf
        x = np.asarray(x, dtype=float)
        return abs(float(self.exceptional_normal @ x) - self.exceptional_offset)

    def apply_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        hom = self.matrix @ np.append(x, 1.0)
        w = hom[-1]
        if abs(w) <= TOL_PROJECTIVE * max(1.0, float(np.linalg.norm(hom))):
            raise MapsToInfinityError("point maps to infinity")
        return hom[:-1] / w

    def inverse(self) -> "ProjectiveMap":
        return ProjectiveMap(np.linalg.inv(self.matrix))


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
    return ProjectiveMap(swap @ trans @ rot, np.array(u, dtype=float), float(h))


def _hyperplane_sample_points(flat: AffineFlat, step: float) -> np.ndarray:
    base = flat.offset
    pts = [base]
    for j in range(flat.k):
        pts.append(base + step * flat.direction.basis[:, j])
    return np.array(pts)


def apply_projective(pmap: ProjectiveMap, obj):
    """Image of a point or an affine hyperplane under the projective map.

    Hyperplanes are transformed by mapping n affinely independent sample
    points near the flat's base point and refitting the image hyperplane
    through them.
    """
    if isinstance(obj, AffineFlat):
        if obj.k != obj.n - 1:
            raise ValueError("only hyperplanes are supported")
        dist = pmap.exceptional_distance(obj.offset)
        if not math.isfinite(dist):
            step = 1.0
        else:
            if dist <= TOL_PROJECTIVE:
                raise MapsToInfinityError("hyperplane base point maps to infinity")
            step = min(1.0, 0.25 * dist)
        samples = _hyperplane_sample_points(obj, step)
        images = np.array([pmap.apply_point(p) for p in samples])
        diffs = (images[1:] - images[0]).T
        q, r = np.linalg.qr(diffs)
        if np.abs(np.diag(r)).min() <= 1e-12:
            raise MapsToInfinityError("image points are affinely degenerate")
        direction = Subspace(obj.n, obj.n - 1, q)
        return AffineFlat.through(direction, images[0])
    return pmap.apply_point(obj)


def marstrand_project(points, u: Subspace) -> np.ndarray:
    """Coordinates of the orthogonal projections of the points in an
    orthonormal basis of u, shape (m, k)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != u.n:
        raise ValueError("point dimension mismatch")
    return pts @ u.basis


@dataclass(frozen=True)
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


def _incidence_count(points: np.ndarray, planes: Sequence[GraphHyperplane], tol: float) -> int:
    if len(points) == 0 or not planes:
        return 0
    a = np.stack([p.a for p in planes])
    c = np.array([p.c for p in planes])
    resid = np.abs(points[:, -1][:, None] - points[:, :-1] @ a.T - c[None, :])
    return int((resid <= tol).sum())


def spreadify(
    points,
    planes: Sequence[GraphHyperplane],
    levels: tuple,
    seed=None,
    ndirs: int = 32,
    incidence_tol: float = 1e-6,
):
    """Reparametrize a hyperplane family so intercept spread becomes
    direction spread.

    Pipeline: dualize the hyperplanes to points; among ndirs Haar-random
    hyperplane directions pick the one maximizing the box dimension of the
    projected dual set; send a translate of that direction (offset past the
    data's bounding radius, so nothing maps to infinity) to the hyperplane
    at infinity; apply the induced map to the points and hyperplanes.

    Returns (mapped points, mapped hyperplanes as AffineFlats, report).
    """
    l_min, l_max = levels
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    planes = list(planes)
    if not planes:
        raise ValueError("need at least one hyperplane")
    n = planes[0].n
    if pts.size and pts.shape[1] != n:
        raise ValueError("point dimension mismatch")
    seed_val = seed if isinstance(seed, (int, np.integer)) or seed is None else None
    rng = np.random.default_rng(seed)

    duals = np.array([dualize_hyperplane(p) for p in planes])
    flats = [p.to_flat() for p in planes]
    initial = family_dimension([f.direction for f in flats], l_min, l_max)
    inc_before = _incidence_count(pts, planes, incidence_tol)

    spread = float(np.ptp(duals, axis=0).max()) if len(duals) else 0.0
    if spread <= TOL_EXACT:
        report = SpreadifyReport(
            None, None, (), None, 0.0, 0.0, inc_before, inc_before, True, seed_val
        )
        return pts.copy(), flats, report

    candidates = [haar_sample(n, n - 1, rng) for _ in range(ndirs)]
    dims = []
    for cand in candidates:
        proj = marstrand_project(duals, cand)
        est = estimate_dimension(grid_from_points(proj, l_max), l_min, l_max)
        dims.append(est.slope)
    best_idx = int(np.argmax(dims))  # ties: lowest index wins
    chosen = candidates[best_idx]
    u = chosen.complement_basis()[:, 0]

    all_pts = np.vstack([duals, pts]) if pts.size else duals
    radius = float(np.linalg.norm(all_pts, axis=1).max())
    h = 2.0 * max(radius, 1.0)
    pmap = projective_to_infinity(u, h)

    mapped_pts = (
        np.array([pmap.apply_point(x) for x in pts]) if pts.size else pts.copy()
    )
    mapped_flats = [apply_projective(pmap, f) for f in flats]
    final = family_dimension([f.direction for f in mapped_flats], l_min, l_max)

    mapped_planes = [GraphHyperplane.from_flat(f) for f in mapped_flats]
    inc_after = _incidence_count(mapped_pts, mapped_planes, incidence_tol)

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
    return mapped_pts, mapped_flats, report


# -- CSV interchange -------------------------------------------------------


def points_to_csv(points) -> str:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow([f"x{j}" for j in range(pts.shape[1])])
    w.writerows(pts.tolist())
    return buf.getvalue()


def points_from_csv(text: str) -> np.ndarray:
    rows = list(csv.reader(io.StringIO(text)))
    return np.array([[float(v) for v in r] for r in rows[1:]], dtype=float)


def hyperplanes_to_csv(planes: Sequence[GraphHyperplane]) -> str:
    planes = list(planes)
    n = planes[0].n
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow([f"a{j}" for j in range(n - 1)] + ["c"])
    for p in planes:
        w.writerow(list(p.a) + [p.c])
    return buf.getvalue()


def hyperplanes_from_csv(text: str) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    out = []
    for r in rows[1:]:
        vals = [float(v) for v in r]
        out.append(GraphHyperplane(np.array(vals[:-1]), vals[-1]))
    return out
