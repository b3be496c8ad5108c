import math

import numpy as np
import pytest
from reference import ball_hits_svd, grass_distance_svd, haar_bases_qr, subspace_from_spanning

import furstlab.checks as checks
import furstlab.grassmann as gr
from furstlab.checks import check_ball_scaling
from furstlab.grassmann import (
    AffineFlat,
    Subspace,
    _direct_rotation_batch,
    _grass_distance_batch,
    _subflat_batch,
    affine_distance,
    complement,
    ball_measure_estimate,
    grass_distance,
    haar_projector_batch,
    haar_sample,
    line_ball_measure,
    min_rotation,
    row_sum_squares,
    sample_subflat,
)

E1 = Subspace(2, 1, np.array([[1.0], [0.0]]))
E2 = Subspace(2, 1, np.array([[0.0], [1.0]]))


def span(*cols):
    m = np.array(cols, dtype=float).T
    return subspace_from_spanning(m)


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

    @pytest.mark.parametrize("n, k", [(3, 0), (2, 3), (17, 1)])
    def test_subspace_and_sampler_share_one_dimension_rule(self, n, k):
        rule = f"need 1 <= k <= n <= 16, got n={n}, k={k}"
        for build in (lambda: Subspace(n, k, np.zeros((n, k))),
                      lambda: haar_projector_batch(n, k, 1, seed=0)):
            with pytest.raises(ValueError, match=rule):
                build()

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
        # The trailing columns of the complete QR of the basis, bit for bit.
        for n, k in [(2, 1), (5, 2), (6, 5), (16, 7)]:
            u = haar_sample(n, k, seed=n + k)
            q = np.linalg.qr(u.basis, mode="complete")[0]
            assert np.array_equal(u.complement_basis(), q[:, k:])


class TestComplement:
    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 7) for k in range(1, n)])
    def test_orthonormal_and_orthogonal_to_the_basis(self, n, k):
        bases = haar_projector_batch(n, k, 200, seed=10 * n + k)
        w = complement(bases)
        assert w.shape == (200, n, n - k)
        assert np.abs(tr(w) @ w - np.eye(n - k)).max() <= 1e-12
        assert np.abs(tr(bases) @ w).max() <= 1e-12

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 1), (6, 3), (16, 7)])
    def test_stack_is_one_at_a_time(self, n, k):
        bases = haar_projector_batch(n, k, 50, seed=n * k)
        assert np.array_equal(complement(bases), np.stack([complement(b) for b in bases]))


class TestAffineFlat:
    def test_offset_must_be_orthogonal(self):
        with pytest.raises(ValueError):
            AffineFlat(E1, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_offset_must_be_finite(self, bad):
        # NaN compares false against the orthogonality tolerance.
        with pytest.raises(ValueError, match="finite"):
            AffineFlat(E1, np.array([0.0, bad]))

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

    @pytest.mark.parametrize("n,k,count", [(3, 2, 32), (4, 1, 256), (3, 2, 256), (2, 1, 20)])
    def test_batch_is_successive_draws(self, n, k, count):
        # A family drawn as one batch is, bit for bit, `count` successive
        # haar_sample draws, and leaves the generator in the same state.
        r1, r2 = np.random.default_rng(11), np.random.default_rng(11)
        batch = haar_projector_batch(n, k, count, r1)
        assert np.array_equal(batch, np.stack([haar_sample(n, k, r2).basis for _ in range(count)]))
        assert r1.random() == r2.random()

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
    def test_lines_match_qr_reference(self, n):
        # The normalized Gaussian is the sign-fixed QR basis up to rounding:
        # within 4 eps entrywise, with the same signs, and of norm 1 within
        # 2 eps.
        eps = np.finfo(float).eps
        got = haar_projector_batch(n, 1, 20_000, seed=n)
        want = haar_bases_qr(n, 1, 20_000, seed=n)
        assert np.abs(got - want).max() <= 4 * eps
        assert np.array_equal(np.sign(got), np.sign(want))
        assert np.abs(np.linalg.norm(got[:, :, 0], axis=1) - 1.0).max() <= 2 * eps

    @pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (4, 2), (5, 3), (16, 7)])
    def test_planes_are_the_qr_reference(self, n, k):
        assert np.array_equal(haar_projector_batch(n, k, 500, seed=k), haar_bases_qr(n, k, 500, seed=k))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            haar_sample(3, 4, seed=0)
        with pytest.raises(ValueError):
            haar_sample(3, 0, seed=0)

    @pytest.mark.parametrize("n,k,count", [(2, 1, 2**23 + 1), (16, 16, 2**16 + 1), (3, 2, 10**12)])
    def test_draws_past_the_entry_cap_raise_before_drawing(self, monkeypatch, n, k, count):
        def never(*args):
            raise AssertionError("drew past the cap")

        monkeypatch.setattr(np.random, "default_rng", never)
        with pytest.raises(ValueError, match="exceed"):
            haar_projector_batch(n, k, count, seed=0)

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2)])
    def test_projector_mean_is_invariant(self, n, k):
        # Orthogonal invariance forces E[P] = (k/n) I.
        bases = haar_projector_batch(n, k, 10_000, seed=5)
        mean = np.einsum("mik,mjk->ij", bases, bases) / len(bases)
        assert np.abs(mean - (k / n) * np.eye(n)).max() <= 0.02


class TestRowSumSquares:
    @pytest.mark.parametrize("width", range(1, 8))
    def test_is_numpy_norm_bit_for_bit(self, width):
        # Random rows over many scales, zero rows, subnormal rows whose
        # squares underflow to 0, and 1e200 rows whose squares overflow to
        # inf, as numpy's do.  A column slice of a wider array is read too.
        rng = np.random.default_rng(width)
        x = rng.standard_normal((20_000, width)) * 10.0 ** rng.integers(-150, 150, (20_000, 1))
        x = np.concatenate([x, np.zeros((3, width)), np.full((3, width), 5e-324),
                            rng.uniform(-1e-308, 1e-308, (3, width)), np.full((3, width), -1e200)])
        wide = np.hstack([x, x])
        with np.errstate(over="ignore"):
            got, norm = row_sum_squares(x), np.linalg.norm(x, axis=-1)
            assert np.array_equal(got, np.add.reduce(x * x, axis=-1))
            assert np.array_equal(np.sqrt(got), norm)
            assert np.array_equal(np.sqrt(row_sum_squares(wide[:, :width])), norm)
        assert np.isinf(got[-3:]).all() and (got[-9:-3] == 0).all()

    def test_no_columns_is_the_empty_sum(self):
        x = np.ones((4, 3))[:, :0]
        assert np.array_equal(row_sum_squares(x), np.linalg.norm(x, axis=-1) ** 2)
        assert row_sum_squares(x).shape == (4,)


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


def nearest_point(w, x):
    """The point of the flat w = U + a nearest to x: a + P_U x, as a is orthogonal to U."""
    return w.offset + w.direction.project(x)


class TestProjectPoint:
    def test_onto_line(self):
        w = AffineFlat(E1, np.zeros(2))
        assert np.allclose(nearest_point(w, [3.0, 5.0]), [3.0, 0.0])

    def test_onto_shifted_line(self):
        w = AffineFlat(E1, np.array([0.0, 1.0]))
        assert np.allclose(nearest_point(w, [3.0, 5.0]), [3.0, 1.0])

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        u = haar_sample(5, 2, rng)
        w = AffineFlat.through(u, rng.standard_normal(5))
        x = rng.standard_normal(5)
        once = nearest_point(w, x)
        assert np.linalg.norm(nearest_point(w, once) - once) <= 1e-9


class TestMinRotation:
    def test_identity_for_equal(self):
        u = haar_sample(4, 2, seed=9)
        r = min_rotation(u, u)
        assert np.allclose(r, np.eye(4), atol=1e-9)

    @pytest.mark.parametrize("theta", [0.1, math.pi / 6, math.pi / 3, math.pi / 2])
    def test_planar_rotation_norm(self, theta):
        v = span([math.cos(theta), math.sin(theta)])
        r = min_rotation(E1, v)
        opnorm = np.linalg.svd(np.eye(2) - r, compute_uv=False)[0]
        assert opnorm == pytest.approx(2 * math.sin(theta / 2), abs=1e-9)

    def test_maps_basis_into_target(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            u = haar_sample(5, 2, rng)
            v = haar_sample(5, 2, rng)
            r = min_rotation(u, v)
            residual = (np.eye(5) - v.projector()) @ (r @ u.basis)
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
            opnorm = np.linalg.svd(np.eye(4) - r, compute_uv=False)[0]
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
            x = sub.offset + sub.direction.basis @ rng.standard_normal(2)
            assert np.linalg.norm(x - nearest_point(w, x)) <= 1e-9
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
            assert np.linalg.norm(nearest_point(sub, np.zeros(4))) <= r
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


PAIR_CHECKS = {
    "translation_inequality": checks.check_translation_inequality,
    "rotation_pointwise": checks.check_rotation_pointwise,
    "min_rotation_norm": checks.check_min_rotation_norm,
}


class TestPairSuites:
    @pytest.mark.parametrize("n, k", [(3, 1), (4, 2), (5, 3), (16, 1)])
    @pytest.mark.parametrize("samples", [1, 100, 4096, 4097, 9000])
    def test_each_check_reports_its_entry_of_the_joint_pass(self, n, k, samples):
        # Up to 4096 samples are one chunk, 4097 adds a chunk of one draw
        # and 9000 a third.
        seed = 1000 * n + samples
        joint = checks.check_pair_suites(n, k, samples, seed)
        assert [r.name for r in joint] == list(PAIR_CHECKS)
        for res, check in zip(joint, PAIR_CHECKS.values()):
            assert res.as_dict() == check(n, k, samples, seed).as_dict()
            assert res.samples == samples

    @pytest.mark.parametrize("n, k, samples, seed, constant", [
        (3, 1, 100, 5, 1.4129975082180541),
        (4, 2, 4096, 7, 1.4141917396795067),
        (5, 3, 5000, 11, 1.4141743434206266),
        (16, 1, 9000, 3, 1.4141965590292913),
    ])
    def test_min_rotation_norm_keeps_its_values(self, n, k, samples, seed, constant):
        # The pair stream is the one every pair suite drew alone before its
        # offsets and vectors moved to child streams; these constants were
        # measured then (for this numpy and BLAS, like GRASSMANN_ARTIFACTS).
        res = checks.check_min_rotation_norm(n, k, samples, seed)
        assert (res.violations, res.measured_constant) == (0, constant)

    def test_each_chunk_draws_its_pairs_and_rotations_once(self, monkeypatch):
        rows, rotations = [], []
        batch, rotate = checks.haar_projector_batch, checks._direct_rotation_batch

        def counted_batch(n, k, count, seed=None):
            rows.append(count)
            return batch(n, k, count, seed)

        def counted_rotate(u, v):
            rotations.append(len(u))
            return rotate(u, v)

        monkeypatch.setattr(checks, "haar_projector_batch", counted_batch)
        monkeypatch.setattr(checks, "_direct_rotation_batch", counted_rotate)
        results = checks.check_pair_suites(4, 2, 9000, seed=5)
        assert rows == [4096, 4096, 4096, 4096, 808, 808]  # U then V, per chunk
        assert rotations == [4096, 4096, 808]
        assert all(r.passed for r in results)

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            checks.check_pair_suites(3, 1, 0, 0)


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

    @pytest.mark.parametrize(
        "n, exact",
        [(3, lambda d: 1 - math.sqrt(1 - d * d)),
         (4, lambda d: 2 / math.pi * (math.asin(d) - d * math.sqrt(1 - d * d)))],
        ids=["lines_in_R3", "lines_in_R4"],
    )
    def test_lines_match_closed_form(self, n, exact):
        # A Haar line at angle theta to U has grass_distance sin(theta) and
        # cos^2(theta) ~ Beta(1/2, (n-1)/2), so mu(d <= delta) is the
        # incomplete beta I_{delta^2}((n-1)/2, 1/2), closed form for n = 3, 4.
        if n == 4:
            assert exact(0.2) == pytest.approx(0.0034369, abs=1e-7)
        u = haar_sample(n, 1, seed=n)
        samples = 200_000
        for delta in (0.2, 0.1):
            p = exact(delta)
            est = ball_measure_estimate(u, delta, samples, seed=2024)
            assert abs(est - p) <= 4 * math.sqrt(p * (1 - p) / samples)
        for delta in (0.01, 0.05, 0.1, 0.2, 0.5, 0.9, 0.999):
            assert line_ball_measure(n, delta) == pytest.approx(exact(delta), abs=1e-12)

    def test_line_ball_measure_edges(self):
        assert line_ball_measure(2, 0.5) == pytest.approx(1 / 3, abs=1e-15)  # asin(1/2) / (pi/2)
        assert [line_ball_measure(n, 1.0) for n in (1, 2, 5, 16)] == [1.0] * 4
        assert line_ball_measure(1, 0.1) == 1.0
        assert all(0.0 <= line_ball_measure(n, 1e-3) < line_ball_measure(n, 0.5) for n in range(2, 17))

    @pytest.mark.parametrize("n", [2, 3, 5, 16])
    def test_line_hits_match_svd_distance(self, n):
        # For lines the distance is a row norm; it must count the same
        # draws as the batched SVD, across chunk boundaries.
        radii = (0.2, 0.1, 0.999)
        for seed in (0, 1, 2):
            u = haar_sample(n, 1, seed=100 + seed)
            hits = gr._ball_hits(u, radii, 10_000, seed)
            assert hits == ball_hits_svd(u, radii, 10_000, seed)
            assert hits[0] >= hits[1] and hits[2] > 0

    def test_ball_scaling_counts_both_radii_on_one_sample(self, monkeypatch):
        rows = []
        batch = gr.haar_projector_batch

        def counted(n, k, count, seed=None):
            rows.append(count)
            return batch(n, k, count, seed)

        monkeypatch.setattr(gr, "haar_projector_batch", counted)
        res = check_ball_scaling(3, 1, 0.2, 5000, seed=7)
        assert sum(rows) == 1 + 5000  # the centre U, then one pass of draws
        u = haar_sample(3, 1, seed=12345)
        ratio = ball_measure_estimate(u, 0.2, 5000, seed=7) / ball_measure_estimate(u, 0.1, 5000, seed=7)
        assert res.measured_constant == ratio

    @pytest.mark.parametrize("delta", [0.0, -0.1, 1.0, 5.0])
    def test_ball_scaling_delta_outside_unit_rejected(self, monkeypatch, delta):
        # Every subspace is within distance 1 of U, so delta >= 1 measures
        # nothing; the check raises before drawing.
        def never(*args):
            raise AssertionError("ball_scaling drew samples for a delta outside (0, 1)")

        monkeypatch.setattr(gr, "haar_projector_batch", never)
        with pytest.raises(ValueError):
            check_ball_scaling(3, 1, delta, 100, seed=0)

    def test_batch_distance_matches_projector_svd(self):
        rng = np.random.default_rng(31)
        u = haar_sample(4, 2, rng)
        # Random pairs, the identical pair and pairs 1e-12..1e-2 apart.
        near = [subspace_from_spanning(u.basis + eps * rng.standard_normal((4, 2))).basis
                for eps in 10.0 ** -np.arange(2, 13)]
        bases = np.concatenate([haar_projector_batch(4, 2, 64, rng), [u.basis], near])
        fast = _grass_distance_batch(u.basis, bases)
        for i in range(len(bases)):
            v = Subspace(4, 2, bases[i])
            slow = grass_distance_svd(u, v)
            assert fast[i] == pytest.approx(slow, abs=1e-12)
            assert grass_distance(u, v) == fast[i]
