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

import math
from dataclasses import dataclass, field

import numpy as np

from .tolerances import TOL_EXACT

MAX_AMBIENT_DIM = 16
# Gaussian entries per Haar batch (128 MiB of float64), checked before the draw.
MAX_DRAW = 1 << 24

# Draws per array pass of the Monte Carlo estimators, so their peak memory
# does not grow with the sample count.
_CHUNK = 1 << 12


def check_dims(n: int, k: int) -> None:
    """Raise ValueError unless 1 <= k <= n <= MAX_AMBIENT_DIM, the dimensions
    every subspace, sampler and metric check of this lab works in."""
    if not 1 <= k <= n <= MAX_AMBIENT_DIM:
        raise ValueError(f"need 1 <= k <= n <= {MAX_AMBIENT_DIM}, got n={n}, k={k}")


@dataclass(frozen=True, eq=False)
class Subspace:
    """A k-dimensional linear subspace of R^n with an orthonormal basis.

    basis has shape (n, k) with orthonormal columns.  `==` is identity:
    two bases of one subspace differ, so compare subspaces by
    grass_distance (0 for equal projectors).
    """

    n: int
    k: int
    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_dims(self.n, self.k)
        b = np.asarray(self.basis, dtype=float)
        if b.shape != (self.n, self.k):
            raise ValueError(f"basis shape {b.shape} != ({self.n}, {self.k})")
        gram = b.T @ b
        if not np.allclose(gram, np.eye(self.k), atol=TOL_EXACT):
            raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", b)

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T

    def project(self, x) -> np.ndarray:
        """Orthogonal projection of x onto the subspace."""
        x = np.asarray(x, dtype=float)
        return self.basis @ (self.basis.T @ x)

    def complement_basis(self) -> np.ndarray:
        """Orthonormal basis of the orthogonal complement, shape (n, n-k)."""
        return complement(self.basis)


def complement(bases: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the orthogonal complements of the orthonormal
    bases (..., n, k), shape (..., n, n-k): the trailing columns of their
    complete QR."""
    return np.linalg.qr(bases, mode="complete")[0][..., bases.shape[-1]:]


@dataclass(frozen=True, eq=False)
class AffineFlat:
    """An affine k-flat U + a with a orthogonal to U."""

    direction: Subspace
    offset: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.offset, dtype=float)
        if a.shape != (self.direction.n,):
            raise ValueError(f"offset shape {a.shape} != ({self.direction.n},)")
        if not np.isfinite(a).all():
            raise ValueError("offset must be finite")
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


def haar_sample(n: int, k: int, seed=None) -> Subspace:
    """Draw a uniform (Haar) random k-subspace of R^n.

    A batch of one of haar_projector_batch, so it consumes the generator
    exactly as a batch draw does.  Deterministic for a fixed seed.
    """
    return Subspace(n, k, haar_projector_batch(n, k, 1, seed)[0])


def row_sum_squares(x: np.ndarray) -> np.ndarray:
    """Sum of squares of each row of the (m, w) array x, for a short w.

    The squares are added column by column, in column order.  For w <= 7
    that is the order np.add.reduce (and so np.linalg.norm) uses along the
    last axis, so the sums agree bit for bit; from w = 8 on numpy sums
    pairwise and the last bits can differ.  Like numpy's, the sums underflow
    to 0 and overflow to inf, with no rescaling.  The column loop avoids
    numpy's slow reduction over a short axis.  For w = 0 the sums are the
    empty sum, zeros, as numpy's are.
    """
    if not x.shape[1]:
        return np.zeros(len(x))
    out = x[:, 0] * x[:, 0]
    for j in range(1, x.shape[1]):
        out += x[:, j] * x[:, j]
    return out


def haar_projector_batch(n: int, k: int, count: int, seed=None) -> np.ndarray:
    """Stack of `count` Haar-random orthonormal bases, shape (count, n, k).

    The only Haar sampler.  It returns bases B, not projectors B B^T; the
    name is kept because the benchmark's tracer looks it up.  Each basis
    orthonormalizes an n x k matrix of independent standard normals; the
    rotational invariance of the Gaussian makes its span uniform on the
    Grassmannian.  The QR signs are fixed so that diag R > 0, which picks
    one canonical basis per draw (Mezzadri 2007).

    For lines (k = 1) the basis is the Gaussian column g divided by its
    norm, without a QR.  That is the same law, a normalized Gaussian being
    uniform on the sphere (Muller 1959), and the same canonical basis: the
    QR of one column is q r with r = +-|g|, and fixing the sign of r gives
    q = g / |g|.  The two agree to a few ulps, not bit for bit.
    """
    check_dims(n, k)
    if count * n * k > MAX_DRAW:
        raise ValueError(f"{count} draws of {n} x {k} bases exceed {MAX_DRAW} entries")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, n, k))
    if k == 1:
        v = g[:, :, 0]
        v /= np.sqrt(row_sum_squares(v))[:, None]
        return g
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
    """Operator-norm distance ||P_U - P_V|| between equal-dimension subspaces,
    sin(theta_max) of the principal angles, in [0, 1]; a batch of one of
    `_grass_distance_batch`."""
    _check_same_shape(u, v)
    return float(_grass_distance_batch(u.basis, v.basis))


def affine_distance(w: AffineFlat, w2: AffineFlat) -> float:
    """Subspace distance of the directions plus the offset gap."""
    d = grass_distance(w.direction, w2.direction)
    return d + float(np.linalg.norm(w.offset - w2.offset))


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


def min_rotation(u: Subspace, v: Subspace) -> np.ndarray:
    """Direct rotation R, an orthogonal (n, n) matrix, with R(span U) = span V
    and minimal ||I - R||.

    The principal vector pairs are rotated within their mutually orthogonal
    2-planes by the principal angles, and the common orthogonal complement
    is fixed pointwise.  The resulting operator norm is
    ||I - R|| = 2 sin(theta_max / 2), which is at most
    sqrt(2) * sin(theta_max) = sqrt(2) * grass_distance(U, V) since the
    principal angles lie in [0, pi/2].
    """
    _check_same_shape(u, v)
    return _direct_rotation_batch(u.basis, v.basis)


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
    rng = np.random.default_rng(seed)
    d, off = _subflat_batch(w.direction.basis[None], w.offset[None], k2, np.full(1, r), rng)
    return AffineFlat(Subspace(w.n, k2, d[0]), off[0])


def _ball_hits(u: Subspace, radii: tuple, samples: int, seed) -> list:
    """For each radius r, how many of `samples` haar_sample draws lie within
    grass_distance r of U; every radius reads the same draws, in chunks.

    For lines the residual V - U U^T V is one column, whose spectral norm
    is its Euclidean norm, so the distance is a row norm, not a batched SVD.
    """
    if min(radii) <= 0:
        raise ValueError("delta must be positive")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    hits = np.zeros(len(radii), dtype=np.int64)
    for start in range(0, samples, _CHUNK):
        bases = haar_projector_batch(u.n, u.k, min(_CHUNK, samples - start), rng)
        if u.k == 1:
            v = bases[:, :, 0]
            resid = v - np.outer(v @ u.basis[:, 0], u.basis[:, 0])
            d = np.minimum(np.sqrt(row_sum_squares(resid)), 1.0)
        else:
            d = _grass_distance_batch(u.basis, bases)
        hits += np.count_nonzero(d[:, None] <= np.array(radii), axis=0)
    return hits.tolist()


def ball_measure_estimate(u: Subspace, delta: float, samples: int, seed=None) -> float:
    """Monte Carlo estimate of the Haar measure of the ball B(U, delta).

    Fraction of haar_sample draws within grass_distance delta of U.
    Deterministic for a fixed seed; draws are processed in chunks.
    """
    return _ball_hits(u, (delta,), samples, seed)[0] / samples


def line_ball_measure(n: int, r: float) -> float:
    """Exact Haar measure of the ball of radius r about a line in G(n, 1).

    A line at angle theta to U lies at grass_distance sin(theta), and theta
    has density proportional to sin^(n-2) on [0, pi/2], so the measure is
    the ratio of the integrals of sin^(n-2) over [0, asin r] and over
    [0, pi/2].  Each integral comes from the sine reduction formula
    I_p = (-sin^(p-1) cos + (p-1) I_(p-2)) / p, starting at I_0(x) = x or
    I_1(x) = 1 - cos x.  G(1, 1) is one point, of measure 1.
    """
    if n == 1 or r >= 1:
        return 1.0

    def integral(x):
        s, c = math.sin(x), math.cos(x)
        acc = 1.0 - c if n % 2 else x
        for p in range(2 + n % 2, n - 1, 2):
            acc = ((p - 1) * acc - s ** (p - 1) * c) / p
        return acc

    return min(max(integral(math.asin(r)) / integral(math.pi / 2), 0.0), 1.0)
