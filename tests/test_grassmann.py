import math

import numpy as np
import pytest

from furstlab.grassmann import (
    AffineFlat,
    Subspace,
    _direct_rotation_batch,
    _grass_distance_batch,
    _subflat_batch,
    affine_distance,
    ball_measure_estimate,
    grass_distance,
    haar_projector_batch,
    haar_sample,
    min_rotation,
    project_point,
    sample_subflat,
)

E1 = Subspace(2, 1, np.array([[1.0], [0.0]]))
E2 = Subspace(2, 1, np.array([[0.0], [1.0]]))


def span(*cols):
    m = np.array(cols, dtype=float).T
    return Subspace.from_spanning(m)


def tr(a):
    return np.swapaxes(a, -1, -2)


class TestSubspace:
    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(ValueError):
            Subspace(2, 1, np.array([[1.0], [1.0]]))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Subspace(3, 0, np.zeros((3, 0)))
        with pytest.raises(ValueError):
            Subspace(17, 1, np.eye(17)[:, :1])

    def test_projector_idempotent_symmetric(self):
        u = haar_sample(5, 2, seed=0)
        p = u.projector()
        assert np.allclose(p, p.T, atol=1e-9)
        assert np.allclose(p @ p, p, atol=1e-9)

    def test_complement_basis(self):
        u = haar_sample(5, 2, seed=1)
        w = u.complement_basis()
        assert w.shape == (5, 3)
        assert np.allclose(w.T @ w, np.eye(3), atol=1e-9)
        assert np.allclose(u.basis.T @ w, 0.0, atol=1e-9)


class TestAffineFlat:
    def test_offset_must_be_orthogonal(self):
        with pytest.raises(ValueError):
            AffineFlat(E1, np.array([1.0, 0.0]))

    def test_through_reorthogonalizes(self):
        flat = AffineFlat.through(E1, np.array([3.0, 5.0]))
        assert np.allclose(flat.offset, [0.0, 5.0])


class TestHaarSample:
    def test_unit_vector(self):
        u = haar_sample(3, 1, seed=7)
        assert abs(np.linalg.norm(u.basis) - 1.0) <= 1e-9

    def test_full_space_distance_zero(self):
        u = haar_sample(3, 3, seed=7)
        v = haar_sample(3, 3, seed=8)
        assert grass_distance(u, v) == pytest.approx(0.0, abs=1e-9)

    def test_deterministic(self):
        a = haar_sample(4, 2, seed=42)
        b = haar_sample(4, 2, seed=42)
        assert np.array_equal(a.basis, b.basis)
        # A batch of one of the batch sampler, bit for bit, on a shared seed.
        r1, r2 = np.random.default_rng(42), np.random.default_rng(42)
        for n, k in [(1, 1), (3, 3), (4, 2), (6, 5), (16, 7)]:
            for _ in range(20):
                assert np.array_equal(haar_sample(n, k, r1).basis, haar_projector_batch(n, k, 1, r2)[0])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            haar_sample(3, 4, seed=0)
        with pytest.raises(ValueError):
            haar_sample(3, 0, seed=0)

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2)])
    def test_projector_mean_is_invariant(self, n, k):
        # Orthogonal invariance forces E[P] = (k/n) I.
        bases = haar_projector_batch(n, k, 10_000, seed=5)
        mean = np.einsum("mik,mjk->ij", bases, bases) / len(bases)
        assert np.abs(mean - (k / n) * np.eye(n)).max() <= 0.02


class TestGrassDistance:
    def test_identical(self):
        u = haar_sample(4, 2, seed=1)
        assert grass_distance(u, u) == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_lines(self):
        assert grass_distance(E1, E2) == pytest.approx(1.0, abs=1e-12)

    def test_thirty_degrees(self):
        v = span([math.cos(math.pi / 6), math.sin(math.pi / 6)])
        assert grass_distance(E1, v) == pytest.approx(0.5, abs=1e-12)

    def test_mismatch_raises(self):
        with pytest.raises(ValueError):
            grass_distance(E1, haar_sample(3, 1, seed=0))
        with pytest.raises(ValueError):
            grass_distance(haar_sample(4, 1, seed=0), haar_sample(4, 2, seed=0))

    def test_range_and_metric_axioms(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            u = haar_sample(4, 2, rng)
            v = haar_sample(4, 2, rng)
            w = haar_sample(4, 2, rng)
            duv, dvw, duw = grass_distance(u, v), grass_distance(v, w), grass_distance(u, w)
            assert 0.0 <= duv <= 1.0
            assert duv == pytest.approx(grass_distance(v, u), abs=1e-12)
            assert duw <= duv + dvw + 1e-9


class TestAffineDistance:
    def test_identical(self):
        w = AffineFlat(E1, np.array([0.0, 2.0]))
        assert affine_distance(w, w) == 0.0

    def test_parallel_lines(self):
        w0 = AffineFlat(E1, np.array([0.0, 0.0]))
        wb = AffineFlat(E1, np.array([0.0, 3.5]))
        assert affine_distance(w0, wb) == pytest.approx(3.5, abs=1e-12)

    def test_orthogonal_lines_with_offset(self):
        w1 = AffineFlat(E1, np.array([0.0, 0.0]))
        w2 = AffineFlat(E2, np.array([1.0, 0.0]))
        assert affine_distance(w1, w2) == pytest.approx(2.0, abs=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            flats = []
            for _ in range(3):
                u = haar_sample(3, 1, rng)
                flats.append(AffineFlat.through(u, rng.standard_normal(3)))
            a, b, c = flats
            assert affine_distance(a, c) <= (
                affine_distance(a, b) + affine_distance(b, c) + 1e-9
            )


class TestProjectPoint:
    def test_onto_line(self):
        w = AffineFlat(E1, np.zeros(2))
        assert np.allclose(project_point(w, [3.0, 5.0]), [3.0, 0.0])

    def test_onto_shifted_line(self):
        w = AffineFlat(E1, np.array([0.0, 1.0]))
        assert np.allclose(project_point(w, [3.0, 5.0]), [3.0, 1.0])

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        u = haar_sample(5, 2, rng)
        w = AffineFlat.through(u, rng.standard_normal(5))
        x = rng.standard_normal(5)
        once = project_point(w, x)
        assert np.linalg.norm(project_point(w, once) - once) <= 1e-9


class TestMinRotation:
    def test_identity_for_equal(self):
        u = haar_sample(4, 2, seed=9)
        r = min_rotation(u, u)
        assert np.allclose(r.matrix, np.eye(4), atol=1e-9)

    @pytest.mark.parametrize("theta", [0.1, math.pi / 6, math.pi / 3, math.pi / 2])
    def test_planar_rotation_norm(self, theta):
        v = span([math.cos(theta), math.sin(theta)])
        r = min_rotation(E1, v)
        opnorm = np.linalg.svd(np.eye(2) - r.matrix, compute_uv=False)[0]
        assert opnorm == pytest.approx(2 * math.sin(theta / 2), abs=1e-9)

    def test_maps_basis_into_target(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            u = haar_sample(5, 2, rng)
            v = haar_sample(5, 2, rng)
            r = min_rotation(u, v)
            residual = (np.eye(5) - v.projector()) @ (r.matrix @ u.basis)
            assert np.abs(residual).max() <= 1e-9
        # The batched kernel against the defining properties of the direct
        # rotation, every tenth pair identical.
        for n, k in [(2, 2), (3, 1), (4, 2), (5, 3), (6, 5)]:
            u = haar_projector_batch(n, k, 300, rng)
            v = haar_projector_batch(n, k, 300, rng)
            v[::10] = u[::10]
            r = _direct_rotation_batch(u, v)
            eye = np.eye(n)
            assert np.abs(tr(r) @ r - eye).max() <= 1e-9
            assert np.abs(np.linalg.det(r) - 1.0).max() <= 1e-9
            assert np.abs((eye - v @ tr(v)) @ r @ u).max() <= 1e-9
            sin_max = np.array([grass_distance(Subspace(n, k, a), Subspace(n, k, b))
                                for a, b in zip(u, v)])
            cos_max = np.linalg.svd(tr(v) @ u, compute_uv=False)[:, -1]
            theta = np.arctan2(sin_max, cos_max)
            opnorm = np.linalg.norm(eye - r, 2, axis=(-2, -1))
            assert np.abs(opnorm - 2 * np.sin(theta / 2)).max() <= 1e-9

    def test_norm_bound_sqrt2(self):
        rng = np.random.default_rng(19)
        for _ in range(500):
            u = haar_sample(4, 2, rng)
            v = haar_sample(4, 2, rng)
            r = min_rotation(u, v)
            opnorm = np.linalg.svd(np.eye(4) - r.matrix, compute_uv=False)[0]
            assert opnorm <= math.sqrt(2) * grass_distance(u, v) + 1e-8


class TestSampleSubflat:
    def test_containment(self):
        rng = np.random.default_rng(23)
        u = haar_sample(5, 3, rng)
        w = AffineFlat(u, np.zeros(5))
        sub = sample_subflat(w, 2, 1.5, rng)
        # direction span contained in w's direction span
        residual = (np.eye(5) - u.projector()) @ sub.direction.basis
        assert np.abs(residual).max() <= 1e-9
        # sampled points of the subflat lie on w
        for _ in range(10):
            x = sub.point_at(rng.standard_normal(2))
            assert np.linalg.norm(x - project_point(w, x)) <= 1e-9
        # Batched: orthonormal directions inside U, offsets on U and
        # orthogonal to their directions.
        bases = haar_projector_batch(5, 3, 300, rng)
        dirs, offs = _subflat_batch(bases, np.zeros((300, 5)), 2, rng.uniform(0.2, 3.0, 300), rng)
        p_u = bases @ tr(bases)
        assert np.abs(dirs - p_u @ dirs).max() <= 1e-9
        assert np.abs(tr(dirs) @ dirs - np.eye(2)).max() <= 1e-9
        assert np.abs(offs[..., None] - p_u @ offs[..., None]).max() <= 1e-9
        assert np.abs(tr(dirs) @ offs[..., None]).max() <= 1e-9

    def test_meets_ball(self):
        rng = np.random.default_rng(29)
        u = haar_sample(4, 2, rng)
        w = AffineFlat(u, np.zeros(4))
        for r in (0.3, 1.0, 2.0):
            sub = sample_subflat(w, 1, r, rng)
            assert np.linalg.norm(project_point(sub, np.zeros(4))) <= r
        # Batched, inside shifted flats a + U with |a| < r.
        bases = haar_projector_batch(4, 2, 300, rng)
        r = rng.uniform(0.2, 3.0, 300)
        g = rng.standard_normal((300, 4, 1))
        a = (g - bases @ tr(bases) @ g)[..., 0]
        a *= (0.9 * r / np.linalg.norm(a, axis=-1))[:, None]
        dirs, offs = _subflat_batch(bases, a, 1, r, rng)
        assert (np.linalg.norm(offs, axis=-1) <= r).all()
        rel = (offs - a)[..., None]
        assert np.abs(rel - bases @ tr(bases) @ rel).max() <= 1e-9

    def test_k2_too_large(self):
        u = haar_sample(4, 2, seed=0)
        with pytest.raises(ValueError):
            sample_subflat(AffineFlat(u, np.zeros(4)), 2, 1.0, seed=0)


class TestBallMeasure:
    def test_delta_at_least_one_gives_one(self):
        u = haar_sample(3, 1, seed=4)
        assert ball_measure_estimate(u, 1.0, 500, seed=1) == 1.0
        assert ball_measure_estimate(u, 1.5, 500, seed=1) == 1.0

    def test_deterministic(self):
        u = haar_sample(3, 1, seed=4)
        a = ball_measure_estimate(u, 0.3, 2000, seed=77)
        b = ball_measure_estimate(u, 0.3, 2000, seed=77)
        assert a == b

    def test_batch_distance_matches_projector_svd(self):
        rng = np.random.default_rng(31)
        u = haar_sample(4, 2, rng)
        # Random pairs, the identical pair and pairs 1e-12..1e-2 apart.
        near = [Subspace.from_spanning(u.basis + eps * rng.standard_normal((4, 2))).basis
                for eps in 10.0 ** -np.arange(2, 13)]
        bases = np.concatenate([haar_projector_batch(4, 2, 64, rng), [u.basis], near])
        fast = _grass_distance_batch(u.basis, bases)
        for i in range(len(bases)):
            slow = grass_distance(u, Subspace(4, 2, bases[i]))
            assert fast[i] == pytest.approx(slow, abs=1e-12)
