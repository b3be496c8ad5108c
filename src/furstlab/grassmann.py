"""Grassmannian G(n,k) and affine Grassmannian A(n,k) with projector metrics.

A k-dimensional subspace of R^n is stored as an orthonormal basis; all
comparisons go through the orthogonal projector P = B B^T, which is canonical
(independent of the basis choice).  The distance between subspaces is the
operator norm of the projector difference, which equals the sine of the
largest principal angle.  Affine flats carry the subspace plus the unique
offset vector orthogonal to it, and their distance adds the Euclidean offset
gap to the subspace distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tolerances import TOL_EXACT

MAX_AMBIENT_DIM = 16

# Draws per array pass of the Monte Carlo estimators, so their peak memory
# does not grow with the sample count.
_CHUNK = 1 << 12


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional linear subspace of R^n with an orthonormal basis.

    basis has shape (n, k) with orthonormal columns.  Equality of subspaces
    means equality of projectors, not of bases.
    """

    n: int
    k: int
    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (1 <= self.k <= self.n):
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.n > MAX_AMBIENT_DIM:
            raise ValueError(f"ambient dimension capped at {MAX_AMBIENT_DIM}")
        b = np.asarray(self.basis, dtype=float)
        if b.shape != (self.n, self.k):
            raise ValueError(f"basis shape {b.shape} != ({self.n}, {self.k})")
        gram = b.T @ b
        if not np.allclose(gram, np.eye(self.k), atol=TOL_EXACT):
            raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", b)

    @classmethod
    def from_spanning(cls, vectors) -> "Subspace":
        """Orthonormalize spanning vectors (columns) into a Subspace."""
        v = np.atleast_2d(np.asarray(vectors, dtype=float))
        if v.ndim != 2:
            raise ValueError("expected a matrix of column vectors")
        q, r = np.linalg.qr(v)
        rank = int((np.abs(np.diag(r)) > 1e-12).sum())
        if rank < v.shape[1]:
            raise ValueError("spanning vectors are linearly dependent")
        return cls(v.shape[0], v.shape[1], q)

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T

    def project(self, x) -> np.ndarray:
        """Orthogonal projection of x onto the subspace."""
        x = np.asarray(x, dtype=float)
        return self.basis @ (self.basis.T @ x)

    def coordinates(self, x) -> np.ndarray:
        """Coordinates of the projection of x in the orthonormal basis."""
        return self.basis.T @ np.asarray(x, dtype=float)

    def complement_basis(self) -> np.ndarray:
        """Orthonormal basis of the orthogonal complement, shape (n, n-k)."""
        # Full QR of the basis: trailing columns span the complement.
        q, _ = np.linalg.qr(self.basis, mode="complete")
        return q[:, self.k:]


@dataclass(frozen=True)
class AffineFlat:
    """An affine k-flat U + a with a orthogonal to U."""

    direction: Subspace
    offset: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.offset, dtype=float)
        if a.shape != (self.direction.n,):
            raise ValueError(f"offset shape {a.shape} != ({self.direction.n},)")
        if np.linalg.norm(self.direction.project(a)) > TOL_EXACT:
            raise ValueError("offset is not orthogonal to the direction")
        object.__setattr__(self, "offset", a)

    @classmethod
    def through(cls, direction: Subspace, point) -> "AffineFlat":
        """The flat with the given direction passing through `point`.

        The translation vector is re-orthogonalized: U + a = U + (a - proj_U a).
        """
        point = np.asarray(point, dtype=float)
        return cls(direction, point - direction.project(point))

    @property
    def n(self) -> int:
        return self.direction.n

    @property
    def k(self) -> int:
        return self.direction.k

    def point_at(self, coords) -> np.ndarray:
        """The flat point offset + basis @ coords."""
        return self.offset + self.direction.basis @ np.asarray(coords, dtype=float)


@dataclass(frozen=True)
class Rotation:
    """An orthogonal n x n matrix."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("rotation matrix must be square")
        if not np.allclose(m.T @ m, np.eye(m.shape[0]), atol=TOL_EXACT):
            raise ValueError("matrix is not orthogonal")
        det = np.linalg.det(m)
        if min(abs(det - 1.0), abs(det + 1.0)) > 1e-6:
            raise ValueError("determinant is not +-1")
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x) -> np.ndarray:
        return self.matrix @ np.asarray(x, dtype=float)


def haar_sample(n: int, k: int, seed=None) -> Subspace:
    """Draw a uniform (Haar) random k-subspace of R^n.

    A batch of one of haar_projector_batch, so it consumes the generator
    exactly as a batch draw does.  Deterministic for a fixed seed.
    """
    return Subspace(n, k, haar_projector_batch(n, k, 1, seed)[0])


def haar_projector_batch(n: int, k: int, count: int, seed=None) -> np.ndarray:
    """Stack of `count` Haar-random orthonormal bases, shape (count, n, k).

    The only Haar sampler.  It returns bases B, not projectors B B^T; the
    name is kept because the benchmark's tracer looks it up.  Each basis
    orthonormalizes an n x k matrix of independent standard normals; the
    rotational invariance of the Gaussian makes its span uniform on the
    Grassmannian.  The QR signs are fixed for a canonical representative.
    """
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n > MAX_AMBIENT_DIM:
        raise ValueError(f"ambient dimension capped at {MAX_AMBIENT_DIM}")
    rng = _rng(seed)
    g = rng.standard_normal((count, n, k))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.einsum("...ii->...i", r))
    signs[signs == 0] = 1.0
    return q * signs[:, None, :]


def _matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector products, (..., p, q) and (..., q) -> (..., p)."""
    return (m @ x[..., None])[..., 0]


def _perp(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Components of the vectors x (..., n) orthogonal to the spans of the
    orthonormal bases (..., n, k): the offsets of the flats span(basis) + x."""
    return x - _matvec(basis, _matvec(np.swapaxes(basis, -1, -2), x))


def _check_same_shape(u: Subspace, v: Subspace):
    if (u.n, u.k) != (v.n, v.k):
        raise ValueError(f"dimension mismatch: ({u.n},{u.k}) vs ({v.n},{v.k})")


def grass_distance(u: Subspace, v: Subspace) -> float:
    """Operator-norm distance ||P_U - P_V|| between equal-dimension subspaces.

    Computed as the largest singular value of the projector difference; for
    equal dimensions this equals sin(theta_max) of the principal angles, and
    lies in [0, 1].
    """
    _check_same_shape(u, v)
    diff = u.projector() - v.projector()
    s = np.linalg.svd(diff, compute_uv=False)
    return float(min(max(s[0], 0.0), 1.0))


def affine_distance(w: AffineFlat, w2: AffineFlat) -> float:
    """Subspace distance of the directions plus the offset gap."""
    d = grass_distance(w.direction, w2.direction)
    return d + float(np.linalg.norm(w.offset - w2.offset))


def project_point(w: AffineFlat, x) -> np.ndarray:
    """Euclidean-nearest point of the flat to x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (w.n,):
        raise ValueError(f"point shape {x.shape} != ({w.n},)")
    return w.offset + w.direction.project(x)


def _grass_distance_batch(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """||P_U - P_V|| for stacks of same-shape orthonormal bases (..., n, k).

    For equal dimensions this is sin(theta_max) = sigma_max(V - U U^T V),
    which keeps full precision near 0 (sqrt(1 - sigma_min(U^T V)^2) loses
    half the digits there).
    """
    resid = v - u @ (np.swapaxes(u, -1, -2) @ v)
    return np.minimum(np.linalg.norm(resid, 2, axis=(-2, -1)), 1.0)


def _direct_rotation_batch(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Direct rotations R_{U,V} for stacks of same-shape bases, (..., n, n).

    From the SVD V^T U = Y diag(c) Z^T, the principal vectors a_i (columns
    of U Z) and the unit vectors w_i along b_i - c_i a_i (b_i the columns of
    V Y) span mutually orthogonal planes.  R turns a_i into c_i a_i + s_i w_i
    and w_i into c_i w_i - s_i a_i, and fixes the common complement.  Pairs
    with s_i <= TOL_EXACT are already aligned and are left fixed.
    """
    y, c, zt = np.linalg.svd(np.swapaxes(v, -1, -2) @ u)
    c = np.minimum(c, 1.0)[..., None, :]
    a = u @ np.swapaxes(zt, -1, -2)
    w = v @ y - a * c
    s = np.linalg.norm(w, axis=-2, keepdims=True)
    w = w / np.maximum(s, TOL_EXACT)
    turn = s > TOL_EXACT
    c1, s = np.where(turn, c - 1.0, 0.0), np.where(turn, s, 0.0)
    return (np.eye(u.shape[-2]) + (a * c1 + w * s) @ np.swapaxes(a, -1, -2)
            + (w * c1 - a * s) @ np.swapaxes(w, -1, -2))


def min_rotation(u: Subspace, v: Subspace) -> Rotation:
    """Direct rotation R with R(span U) = span V and minimal ||I - R||.

    The principal vector pairs are rotated within their mutually orthogonal
    2-planes by the principal angles, and the common orthogonal complement
    is fixed pointwise.  The resulting operator norm is
    ||I - R|| = 2 sin(theta_max / 2), which is at most
    sqrt(2) * sin(theta_max) = sqrt(2) * grass_distance(U, V) since the
    principal angles lie in [0, pi/2].
    """
    _check_same_shape(u, v)
    return Rotation(_direct_rotation_batch(u.basis, v.basis))


def _subflat_batch(basis: np.ndarray, offset: np.ndarray, k2: int, r: np.ndarray, rng):
    """Haar-random k2-flats inside the flats offset + span(basis), meeting B(0, r).

    basis is (m, n, k), offset (m, n) and r (m,).  Each round draws, for the
    rows not yet accepted, a k2-direction within the flat and a base point
    offset + basis @ uniform(-r, r)^k, and accepts a row when the nearest
    point of its flat to the origin has norm <= r.  Returns the (m, n, k2)
    direction bases and the (m, n) offsets orthogonal to them.
    """
    m, n, k = basis.shape
    dirs, offs = np.empty((m, n, k2)), np.empty((m, n))
    todo = np.arange(m)
    for _ in range(10000):
        if len(todo) == 0:
            return dirs, offs
        b, rt = basis[todo], r[todo, None]
        d = b @ haar_projector_batch(k, k2, len(todo), rng)
        off = _perp(d, offset[todo] + _matvec(b, rng.uniform(-rt, rt, (len(todo), k))))
        ok = np.linalg.norm(off, axis=-1) <= r[todo]
        dirs[todo[ok]], offs[todo[ok]] = d[ok], off[ok]
        todo = todo[~ok]
    raise RuntimeError("rejection sampling failed to meet B(0, r)")


def sample_subflat(w: AffineFlat, k2: int, r: float, seed=None) -> AffineFlat:
    """A Haar-random k2-flat contained in the flat w and meeting B(0, r).

    A batch of one of the rejection sampler: a direction within w's
    direction and a base point on w are redrawn until the nearest point of
    the sampled flat to the origin has norm <= r.
    """
    if k2 >= w.k:
        raise ValueError(f"need k2 < flat dimension, got k2={k2}, k={w.k}")
    if k2 < 1:
        raise ValueError("k2 must be >= 1")
    if r <= 0:
        raise ValueError("r must be positive")
    if np.linalg.norm(w.offset) > r:
        raise ValueError("the flat itself does not meet B(0, r)")
    d, off = _subflat_batch(w.direction.basis[None], w.offset[None], k2, np.full(1, r), _rng(seed))
    return AffineFlat(Subspace(w.n, k2, d[0]), off[0])


def ball_measure_estimate(u: Subspace, delta: float, samples: int, seed=None) -> float:
    """Monte Carlo estimate of the Haar measure of the ball B(U, delta).

    Fraction of haar_sample draws within grass_distance delta of U.
    Deterministic for a fixed seed; draws are processed in chunks.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = _rng(seed)
    hits = 0
    for start in range(0, samples, _CHUNK):
        bases = haar_projector_batch(u.n, u.k, min(_CHUNK, samples - start), rng)
        hits += int(np.count_nonzero(_grass_distance_batch(u.basis, bases) <= delta))
    return hits / samples
