import math

import numpy as np
import pytest

from furstlab.grassmann import Subspace, haar_sample
from furstlab.maximal import (
    MIN_DELTA,
    MaximalField,
    _axis_centers,
    _box_centers,
    _cell_centers,
    _check_search,
    _grid_index,
    _grid_shape,
    _slab_intervals,
    _sweep_cells,
    _translate_grid,
    _tube_distances_sq,
    delta_scan,
    kakeya_maximal,
    maximal_lp_norm,
    random_tube_union_field,
    tube_average,
)
from reference import slab_intervals_searchsorted

E1 = Subspace(2, 1, np.array([[1.0], [0.0]]))


def bump_field(level=6, center=(0.2, -0.1)):
    c = np.array(center)
    return MaximalField.from_function(
        2, level, lambda x: np.exp(-4 * np.linalg.norm(x - c, axis=1) ** 2)
    )


class TestMaximalField:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MaximalField(2, 3, np.zeros((8, 8)))  # needs 16 x 16
        with pytest.raises(ValueError):
            MaximalField(5, 2, np.zeros((8,) * 5))

    def test_nonnegative_finite(self):
        with pytest.raises(ValueError):
            MaximalField(1, 2, -np.ones(8))
        with pytest.raises(ValueError):
            MaximalField(1, 2, np.full(8, np.nan))

    def test_dimension_cap_checked_before_the_grid_is_built(self):
        # 1024^5 cells: a build before the check would raise MemoryError.
        for make in (lambda: MaximalField.from_function(5, 9, lambda x: x[:, 0] ** 2),
                     lambda: MaximalField.constant(5, 9, 0.0),
                     lambda: random_tube_union_field(5, 9, 0.25, 1, seed=0)):
            with pytest.raises(ValueError, match="capped"):
                make()

    def test_cell_cap_checked_before_the_grid_is_built(self):
        # 8192^4 = 2^52 cells: a build before the check would raise MemoryError.
        for make in (lambda: MaximalField.from_function(4, 12, lambda x: x[:, 0] ** 2),
                     lambda: MaximalField.constant(4, 12, 0.0),
                     lambda: random_tube_union_field(4, 12, 0.25, 1, seed=0)):
            with pytest.raises(ValueError, match="cells exceed the cap"):
                make()
        assert _grid_shape(4, 5) == (64,) * 4  # 2^24 cells, the cap itself
        with pytest.raises(ValueError, match="cells exceed the cap"):
            _grid_shape(4, 6)

    def test_centers_cover_symmetric_cube(self):
        f = MaximalField.constant(2, 3, 1.0)
        c = f.centers()
        assert c.min() == pytest.approx(-1 + f.resolution / 2)
        assert c.max() == pytest.approx(1 - f.resolution / 2)

    @pytest.mark.parametrize("n, level", [(1, 4), (2, 3), (3, 2), (4, 1)])
    def test_box_centers_equal_the_index_gather(self, n, level):
        # The broadcast centers are the same floats, in the same flat order, as
        # the gather by flat index they replace.
        f = MaximalField.constant(n, level, 1.0)
        shape, size = f.values.shape, f.values.size
        assert np.array_equal(f.centers(), _cell_centers(level, shape, np.arange(size)))
        assert np.array_equal(_sweep_cells(f)[0], _cell_centers(level, shape, np.arange(size // 2)))
        lo, hi = np.arange(n) % 3, np.arange(n) % 3 + 2
        box = _box_centers([_axis_centers(level)[a:b] for a, b in zip(lo, hi)])
        idx = np.ravel_multi_index(np.indices(hi - lo).reshape(n, -1) + lo[:, None], shape)
        assert np.array_equal(box.reshape(-1, n), _cell_centers(level, shape, idx))


class TestTubeAverage:
    def test_radius_range(self):
        # The tube width rule of the maximal search, message and all.
        f = MaximalField.constant(2, 7, 1.0)
        for radius in (0.6, 2.0**-9, 0.0, float("nan")):
            with pytest.raises(ValueError) as err:
                tube_average(f, E1, np.zeros(2), radius)
            assert str(err.value) == f"delta must be in [{MIN_DELTA}, 1/2], got {radius}"

    def test_center_dimension(self):
        f = MaximalField.constant(2, 7, 1.0)
        for center in (np.zeros(1), np.zeros(3), np.zeros((1, 2))):
            with pytest.raises(ValueError, match="center dimension mismatch"):
                tube_average(f, E1, center, 0.05)

    def test_constant_field(self):
        f = MaximalField.constant(2, 7, 1.0)
        assert tube_average(f, E1, np.zeros(2), 0.05) == 1.0

    def test_ball_indicator_tube_inside(self):
        f = MaximalField.ball_indicator(2, 7)
        for seed in range(5):
            u = haar_sample(2, 1, seed)
            assert tube_average(f, u, np.zeros(2), 0.05) == 1.0

    def test_halfspace_half(self):
        f = MaximalField.from_function(2, 7, lambda x: (x[:, 1] >= 0).astype(float))
        avg = tube_average(f, E1, np.zeros(2), 0.05)
        assert abs(avg - 0.5) <= 0.1

    def test_resolution_guard(self):
        f = MaximalField.constant(2, 4, 1.0)
        with pytest.raises(ValueError):
            tube_average(f, E1, np.zeros(2), 0.05)

    def test_shifts_past_the_axis_leave_zeros(self):
        f = MaximalField(2, 1, np.random.default_rng(4).random((4, 4)) + 0.1)
        for s in (4, 5, 40):
            for shift in ([s, 0], [0, -s], [-s, s]):
                assert not f.translated(shift).values.any()

    def test_in_range_shifts_move_the_values(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            f = MaximalField(n, 1, rng.random((4,) * n))
            padded = np.pad(f.values, 4)
            for _ in range(20):
                shift = rng.integers(-4, 5, n)
                want = padded[tuple(slice(4 - s, 8 - s) for s in shift)]
                assert np.array_equal(f.translated(shift).values, want)

    def test_exact_translation_covariance(self):
        f = bump_field()
        shift = np.array([4, -6])
        fv = f.translated(shift)
        u = haar_sample(2, 1, 0)
        moved = tube_average(fv, u, shift * f.resolution, 0.125)
        assert moved == pytest.approx(tube_average(f, u, np.zeros(2), 0.125), abs=1e-12)

    def test_refinement_stability(self):
        # doubling the resolution moves slab averages by < 10% on the
        # ball-indicator battery
        for cdist in (0.0, 0.4, 0.6, 0.8):
            a = cdist * np.array([0.6, 0.8])
            for seed in range(3):
                u = haar_sample(2, 1, seed)
                center = a - u.project(a)
                coarse = tube_average(MaximalField.ball_indicator(2, 4), u, center, 0.25)
                fine = tube_average(MaximalField.ball_indicator(2, 5), u, center, 0.25)
                if max(coarse, fine) > 0:
                    assert abs(coarse - fine) / max(coarse, fine) <= 0.10


class TestKakeyaMaximal:
    def test_constant_one(self):
        f = MaximalField.constant(2, 6, 1.0)
        u = haar_sample(2, 1, 1)
        assert kakeya_maximal(f, u, 0.125, 0.0625) == 1.0

    def test_zero_field(self):
        f = MaximalField.constant(2, 6, 0.0)
        u = haar_sample(2, 1, 1)
        assert kakeya_maximal(f, u, 0.125, 0.0625) == 0.0

    def test_step_guard(self):
        f = MaximalField.constant(2, 6, 1.0)
        with pytest.raises(ValueError):
            kakeya_maximal(f, E1, 0.125, 0.125)

    @pytest.mark.parametrize("step", [0.0, -0.125 / 4, math.nan, math.inf])
    def test_bad_search_step_is_a_value_error(self, step):
        f = MaximalField.constant(2, 6, 1.0)
        with pytest.raises(ValueError, match="search_step"):
            kakeya_maximal(f, E1, 0.125, step)

    @pytest.mark.parametrize("n, k", [(2, 1), (3, 1), (3, 2), (4, 1)])
    def test_sweep_cap_checked_before_any_array(self, n, k):
        # About 4e15 translates per axis: a build before the check would
        # raise MemoryError.
        f = MaximalField.constant(n, 3, 1.0)
        with pytest.raises(ValueError, match="sweep entries"):
            kakeya_maximal(f, haar_sample(n, k, 0), 0.5, 1e-15)

    def test_sweep_cap_bounds_the_step(self):
        # Codimension 2 needs nt * (nt + 1) <= 2^24 entries for nt = 2m + 1
        # translates per axis, so m = 2047 passes and m = 2048 does not.
        f = MaximalField.constant(3, 3, 1.0)
        _check_search(f, 1, 0.5, 2.0 / 2047.5)
        with pytest.raises(ValueError, match="sweep entries"):
            _check_search(f, 1, 0.5, 2.0 / 2048)

    def test_codimension_zero_rejected(self):
        f = MaximalField.constant(2, 6, 1.0)
        with pytest.raises(ValueError, match="k < n"):
            kakeya_maximal(f, Subspace(2, 2, np.eye(2)), 0.125, 0.0625)
        with pytest.raises(ValueError, match="k < n"):
            maximal_lp_norm(f, 2, 0.125, 2.0, ndirs=1, seed=0)

    def test_monotone_in_field(self):
        rng = np.random.default_rng(17)
        vals = rng.random((128, 128))
        f = MaximalField(2, 6, vals)
        g = MaximalField(2, 6, vals + rng.random((128, 128)))
        for seed in range(5):
            u = haar_sample(2, 1, seed)
            assert kakeya_maximal(f, u, 0.125, 0.0625) <= (
                kakeya_maximal(g, u, 0.125, 0.0625) + 1e-12
            )

    def test_bounded_by_sup(self):
        f = bump_field()
        sup = float(f.values.max())
        for seed in range(5):
            u = haar_sample(2, 1, seed)
            v = kakeya_maximal(f, u, 0.125, 0.0625)
            assert 0.0 <= v <= sup + 1e-12

    def test_translation_covariance_within_grid_error(self):
        f = bump_field(level=6)
        u = haar_sample(2, 1, 0)
        base = kakeya_maximal(f, u, 0.125, 0.0625)
        shifted = kakeya_maximal(f.translated([4, -6]), u, 0.125, 0.0625)
        assert abs(shifted - base) <= 2.0 ** (-6 + 2)

    def test_rotation_covariance_within_grid_error(self):
        c = np.array([0.2, -0.1])
        f = bump_field(level=6, center=c)
        u = haar_sample(2, 1, 0)
        base = kakeya_maximal(f, u, 0.125, 0.0625)
        rng = np.random.default_rng(4)
        for _ in range(10):
            th = rng.uniform(0, 2 * math.pi)
            rot = np.array(
                [[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]]
            )
            f_rot = MaximalField.from_function(
                2, 6, lambda x: np.exp(-4 * np.linalg.norm(x @ rot - c, axis=1) ** 2)
            )
            u_rot = Subspace(2, 1, rot @ u.basis)
            assert abs(kakeya_maximal(f_rot, u_rot, 0.125, 0.0625) - base) <= 0.02

    @pytest.mark.parametrize(
        "n, k, level, delta",
        [(2, 1, 5, 1 / 8), (3, 2, 4, 1 / 4), (3, 1, 4, 1 / 4), (4, 2, 3, 1 / 2), (4, 1, 3, 1 / 2)],
        ids=["n2k1", "n3k2", "n3k1", "n4k2", "n4k1"],
    )
    def test_fast_path_matches_translate_loop(self, n, k, level, delta):
        # The slab sweep against the definition: the largest tube_average over
        # the translate grid of U-perp restricted to B(0, 2).
        rng = np.random.default_rng(10 * n + k)
        f = MaximalField(n, level, rng.random((1 << (level + 1),) * n))
        u = haar_sample(n, k, rng)
        w = u.complement_basis()
        grid = np.meshgrid(*[_translate_grid(delta / 2)] * (n - k), indexing="ij")
        taus = np.stack([g.ravel() for g in grid], axis=1)
        slow = max(
            tube_average(f, u, w @ tau, delta)
            for tau in taus[np.linalg.norm(taus, axis=1) <= 2.0]
        )
        assert kakeya_maximal(f, u, delta, delta / 2) == pytest.approx(slow, rel=1e-12)

    @pytest.mark.parametrize(
        "n, k, level, delta, div, value",
        [(2, 1, 6, 0.1, 3, 0.6149944509467943), (2, 1, 6, 0.125, 2, 0.6454082556652025),
         (3, 1, 4, 0.3, 3, 0.8092656871743502), (3, 2, 4, 0.3, 3, 0.5658227449477311),
         (3, 2, 4, 0.25, 2, 0.5758281783279827), (4, 1, 3, 0.5, 3, 0.9821065088116895),
         (4, 2, 3, 0.5, 3, 0.7309802548573724), (4, 3, 3, 0.5, 2, 0.5024542068951017),
         (4, 3, 3, 0.5, 3, 0.5076593877666703)],
    )
    def test_pinned_dense_fields(self, n, k, level, delta, div, value):
        # Pinned from the single whole-grid pass per direction that the two-pass
        # sweep replaced; the sums must stay bitwise, so the pins are exact.
        rng = np.random.default_rng(100 * n + 10 * k + div)
        f = MaximalField(n, level, rng.random((1 << (level + 1),) * n))
        assert kakeya_maximal(f, haar_sample(n, k, rng), delta, delta / div) == value

    @pytest.mark.parametrize(
        "n, k, level, delta",
        [(2, 1, 5, 1 / 8), (3, 1, 4, 1 / 4), (3, 2, 4, 1 / 4), (4, 2, 3, 1 / 2)],
        ids=["n2k1", "n3k1", "n3k2", "n4k2"],
    )
    def test_edge_fields(self, n, k, level, delta):
        u = haar_sample(n, k, 5)
        step = delta / 3
        assert kakeya_maximal(MaximalField.constant(n, level, 0.0), u, delta, step) == 0.0
        # Dyadic value: every in-slab sum is exact, so only a wrong count moves it.
        assert kakeya_maximal(MaximalField.constant(n, level, 0.375), u, delta, step) == 0.375
        # One nonzero cell in the second half of the flat order, which the
        # half-grid count pass never reads: its exact average is 3 / (the
        # smallest in-slab count of a translate whose slab holds it).
        m = 1 << (level + 1)
        cell = np.ravel_multi_index((m // 2,) * n, (m,) * n)
        assert cell >= m**n // 2
        values = np.zeros(m**n)
        values[cell] = 3.0
        f = MaximalField(n, level, values.reshape((m,) * n))
        w = u.complement_basis()
        grid = np.meshgrid(*[_translate_grid(delta / 2)] * (n - k), indexing="ij")
        taus = np.stack([g.ravel() for g in grid], axis=1)
        slow = max(tube_average(f, u, w @ tau, delta)
                   for tau in taus[np.linalg.norm(taus, axis=1) <= 2.0])
        assert kakeya_maximal(f, u, delta, delta / 2) == slow > 0

    def test_slab_direction_in_3d(self):
        f = MaximalField.ball_indicator(3, 4)
        u = haar_sample(3, 2, 2)  # hyperplane slab, codimension 1
        assert kakeya_maximal(f, u, 0.25, 0.125) == 1.0
        v = haar_sample(3, 1, 2)  # tube, codimension 2
        assert kakeya_maximal(f, v, 0.25, 0.125) == 1.0


class TestSlabIntervals:
    @pytest.mark.parametrize("step", [MIN_DELTA / 2 * 2.0**e for e in range(8)]
                             + [0.15, 0.1, 1 / 6, 1 / 3, 0.0123])
    def test_grid_index_is_searchsorted(self, step):
        taus = _translate_grid(step)
        m = len(taus) // 2
        v = np.concatenate([
            np.random.default_rng(7).uniform(-3.0, 3.0, 20_000),
            taus, np.nextafter(taus, np.inf), np.nextafter(taus, -np.inf),
            [1e300, -1e300],
            (np.arange(-m, m) + 0.5) * step,  # midpoints: rint rounds half to even
            [np.inf, -np.inf, (m + 0.5) * step, -(m + 0.5) * step],
        ])
        for side in ("left", "right"):
            assert np.array_equal(_grid_index(v, step, side), np.searchsorted(taus, v, side))

    @pytest.mark.parametrize("n, k, level", [(2, 1, 6), (3, 1, 4), (3, 2, 4), (4, 1, 2),
                                             (4, 2, 3), (4, 3, 3)])
    def test_matches_searchsorted_kernel(self, n, k, level):
        # Both passes of the sweep (the half-grid cells and the nonzero cells)
        # yield exactly the intervals of the searchsorted kernel, for dyadic
        # and non-dyadic delta and steps delta/2 and delta/3.
        rng = np.random.default_rng(10 * n + k)
        m = 1 << (level + 1)
        values = rng.random((m,) * n) * (rng.random((m,) * n) < 0.4)
        half, nonzero, _ = _sweep_cells(MaximalField(n, level, values))
        u = haar_sample(n, k, rng)
        frame = np.hstack([u.basis, u.complement_basis()])
        for delta in (2.0**-6, 2.0**-3, 0.3, 0.15, 0.1):
            for div in (2, 3):
                for points in (half, nonzero):
                    new = list(_slab_intervals(points, frame, k, delta, delta / div))
                    old = list(slab_intervals_searchsorted(points, frame, k, delta, delta / div))
                    assert len(new) == len(old) and sum(len(idx) for *_, idx in old) > 0
                    for got, want in zip(new, old):
                        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("n, k, level", [(3, 1, 4), (3, 2, 4), (4, 2, 3), (4, 3, 3)])
    def test_dense_field_matches_searchsorted_kernel(self, n, k, level, monkeypatch):
        # On a field with no zero cell every cell is in the value pass.  The
        # intervals equal the reference kernel's, and so does the float the
        # sweep makes of them.
        import furstlab.maximal as mx

        rng = np.random.default_rng(100 + 10 * n + k)
        m = 1 << (level + 1)
        f = MaximalField(n, level, rng.random((m,) * n) + 0.01)
        cells = _sweep_cells(f)
        assert len(cells[1]) == m**n
        for u in (haar_sample(n, k, rng), haar_sample(n, k, rng)):
            frame = np.hstack([u.basis, u.complement_basis()])
            for delta in (2.0**-2, 0.3):
                new = list(_slab_intervals(cells[1], frame, k, delta, delta / 2))
                old = list(slab_intervals_searchsorted(cells[1], frame, k, delta, delta / 2))
                assert len(new) == len(old)
                for got, want in zip(new, old):
                    assert all(np.array_equal(a, b) for a, b in zip(got, want))
                value = mx._slab_sweep(cells, u.basis, delta, delta / 2)
                with monkeypatch.context() as patch:
                    patch.setattr(mx, "_slab_intervals", slab_intervals_searchsorted)
                    assert mx._slab_sweep(cells, u.basis, delta, delta / 2) == value > 0


class TestBlockedSweep:
    @pytest.mark.parametrize("n, k, level, delta, block",
                             [(2, 1, 5, 1 / 8, 37), (3, 2, 4, 1 / 4, 37), (3, 1, 4, 1 / 4, 331),
                              (4, 2, 3, 1 / 2, 997), (4, 1, 3, 1 / 2, 997)],
                             ids=["n2k1", "n3k2", "n3k1", "n4k2", "n4k1"])
    @pytest.mark.parametrize("density", [0.3, 1.0], ids=["sparse", "dense"])
    def test_blocks_change_no_bit(self, n, k, level, delta, block, density, monkeypatch):
        # Blocks that divide neither the half grid nor the nonzero cells give
        # the unblocked sweep's float and the searchsorted kernel's, bit for bit.
        import furstlab.maximal as mx

        rng = np.random.default_rng(10 * n + k)
        m = 1 << (level + 1)
        values = (rng.random((m,) * n) + 0.01) * (rng.random((m,) * n) < density)
        cells = _sweep_cells(MaximalField(n, level, values))
        for points in cells[:2]:
            assert len(points) > 2 * block and len(points) % block
        u = haar_sample(n, k, rng)
        monkeypatch.setattr(mx, "_BLOCK", block)
        blocked = mx._slab_sweep(cells, u.basis, delta, delta / 3)
        monkeypatch.setattr(mx, "_BLOCK", m**n)
        assert mx._slab_sweep(cells, u.basis, delta, delta / 3) == blocked > 0
        monkeypatch.setattr(mx, "_slab_intervals", slab_intervals_searchsorted)
        assert mx._slab_sweep(cells, u.basis, delta, delta / 3) == blocked

    def test_no_call_reads_more_than_a_block(self, monkeypatch):
        import furstlab.maximal as mx

        f = random_tube_union_field(2, 8, 2.0**-6, 10, seed=3)
        rows = []
        kernel = mx._slab_intervals
        monkeypatch.setattr(mx, "_slab_intervals",
                            lambda points, *args: rows.append(len(points)) or kernel(points, *args))
        assert kakeya_maximal(f, haar_sample(2, 1, 4), 2.0**-6, 2.0**-7) > 0
        assert max(rows) <= mx._BLOCK < f.values.size // 2
        assert sum(rows) == f.values.size // 2 + np.count_nonzero(f.values)

    @pytest.mark.parametrize("n, k, level", [(2, 1, 8), (3, 1, 5), (4, 1, 4), (4, 2, 4), (4, 3, 4)])
    def test_projection_rows_do_not_depend_on_the_block(self, n, k, level):
        # What the blocking rests on: each row of points @ frame has the same
        # bits whatever other rows are in the product.
        import furstlab.maximal as mx

        half = _sweep_cells(MaximalField.constant(n, level, 1.0))[0]
        rng = np.random.default_rng(n + k)
        for u in (haar_sample(n, k, rng) for _ in range(5)):
            frame = np.hstack([u.basis, u.complement_basis()])
            whole = half @ frame
            for block in (mx._BLOCK, 4099):
                for s in range(0, len(half), block):
                    assert np.array_equal(half[s:s + block] @ frame, whole[s:s + block])
            for s in range(0, len(half), len(half) // 7):  # lone rows too, through _project
                assert np.array_equal(mx._project(half[s:s + 1], frame), whole[s:s + 1])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_lone_nonzero_cell_projects_as_in_the_count_pass(self, k, monkeypatch):
        # One nonzero cell makes a one-row block in the value pass.  A plain
        # one-row product can differ in its last bit from the same cell's
        # row in the count pass (in R^4 for about half of all frames), so
        # the two passes would place that cell's interval ends apart.
        import furstlab.maximal as mx

        projected = []
        project = mx._project

        def recorded(points, frame):
            x = project(points, frame)
            projected.append((points, x))
            return x

        monkeypatch.setattr(mx, "_project", recorded)
        rng = np.random.default_rng(40 + k)
        shape = _grid_shape(4, 3)
        for flat in rng.integers(0, math.prod(shape) // 2, 6):  # a cell of the first half
            values = np.zeros(shape)
            values.flat[flat] = 1.0
            f = MaximalField(4, 3, values)
            for u in (haar_sample(4, k, rng) for _ in range(4)):
                projected.clear()
                kakeya_maximal(f, u, 1 / 2, 1 / 4)
                (half, counted), (cell, value_row) = projected
                assert len(half) == len(values.flat) // 2 and len(cell) == 1
                row = np.flatnonzero((half == cell).all(axis=1))
                assert row.tolist() == [flat]
                assert value_row.tobytes() == counted[flat].tobytes()


class TestLpNorm:
    def test_ball_indicator_norm_one(self):
        f = MaximalField.ball_indicator(2, 7)
        for p in (1.0, 2.0, 3.5):
            assert maximal_lp_norm(f, 1, 0.05, p, ndirs=5, seed=0) == 1.0

    def test_bounded_by_sup(self):
        f = bump_field()
        norm = maximal_lp_norm(f, 1, 0.125, 2.0, ndirs=8, seed=1)
        assert norm <= float(f.values.max()) + 1e-12

    def test_field_prepared_once_per_call(self, monkeypatch):
        # The cells every direction's sweep reads are built once per call, and
        # no direction rebuilds the whole grid's centers.
        import furstlab.maximal as mx

        f = bump_field()
        calls = []
        prepare = mx._sweep_cells
        monkeypatch.setattr(mx, "_sweep_cells", lambda f: calls.append(1) or prepare(f))
        monkeypatch.setattr(MaximalField, "centers", lambda self: pytest.fail("centers() rebuilt"))
        maximal_lp_norm(f, 1, 0.125, 2.0, ndirs=6, seed=2)
        assert len(calls) == 1

    def test_deterministic(self):
        f = bump_field()
        a = maximal_lp_norm(f, 1, 0.125, 2.0, ndirs=4, seed=9)
        b = maximal_lp_norm(f, 1, 0.125, 2.0, ndirs=4, seed=9)
        assert a == b


class TestDeltaScan:
    def test_table_shape_and_range(self):
        rows = delta_scan([2.0**-4, 2.0**-5], ntubes=12, p=2.0, ndirs=4, seed=3)
        assert [d for d, _ in rows] == [2.0**-4, 2.0**-5]
        for _, norm in rows:
            assert 0.0 <= norm <= 1.0  # indicator field

    def test_directions_are_independent_of_the_tubes(self):
        # One tube and one direction: were both drawn from one stream, the
        # direction would be the tube's own and the norm near 1 (0.88-0.99
        # over these seeds); independent draws read 0.12-0.65.
        norms = [delta_scan([2.0**-4], ntubes=1, ndirs=1, seed=s)[0][1] for s in range(8)]
        assert max(norms) < 0.8

    def test_every_delta_has_the_same_tubes_and_directions(self):
        deltas = [2.0**-4, 2.0**-5, 2.0**-6]
        rows = delta_scan(deltas, ntubes=5, ndirs=3, seed=2)
        assert rows == [delta_scan([d], ntubes=5, ndirs=3, seed=2)[0] for d in deltas]

    def test_union_field_is_indicator(self):
        f = random_tube_union_field(2, 6, 2.0**-4, 5, seed=2)
        assert set(np.unique(f.values)) <= {0.0, 1.0}

    @pytest.mark.parametrize("n, level, delta, ntubes, seed",
                             [(2, 6, 2.0**-4, 5, 2), (2, 8, 0.05, 13, 7), (3, 4, 0.25, 10, 3),
                              (4, 3, 0.5, 5, 5)])
    def test_union_field_matches_whole_grid_reference(self, n, level, delta, ntubes, seed):
        rng = np.random.default_rng(seed)
        tubes = []
        for _ in range(ntubes):
            u = haar_sample(n, 1, rng)
            tau = rng.uniform(-0.5, 0.5, size=n - 1)
            tubes.append((u.basis, u.complement_basis() @ tau))
        f = random_tube_union_field(n, level, delta, ntubes, seed)
        pts = f.centers()
        hit = np.zeros(len(pts), dtype=bool)
        for basis, center in tubes:
            hit |= _tube_distances_sq(pts, basis, center) <= delta**2
        assert np.array_equal(f.values.ravel(), hit.astype(float))

    @pytest.mark.parametrize("delta", [2.0**-9, 0.6, 0.0, float("nan")])
    def test_union_field_rejects_bad_delta(self, delta):
        with pytest.raises(ValueError):
            random_tube_union_field(2, 6, delta, 3, seed=0)

    @pytest.mark.parametrize("delta", [2.0**-9, 0.6, 0.0, float("nan")])
    def test_every_entry_point_rejects_a_bad_delta_alike(self, delta):
        f = MaximalField.constant(2, 6, 1.0)
        calls = [lambda: kakeya_maximal(f, E1, delta, 2.0**-10),
                 lambda: maximal_lp_norm(f, 1, delta, 2.0, 1, seed=0),
                 lambda: random_tube_union_field(2, 6, delta, 3, seed=0),
                 lambda: delta_scan([2.0**-4, delta])]
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == f"delta must be in [{MIN_DELTA}, 1/2], got {delta}"

    def test_arguments_checked_before_any_field(self, monkeypatch):
        import furstlab.maximal as mx

        def never(*args):
            raise AssertionError("field built before the arguments were checked")

        monkeypatch.setattr(mx, "random_tube_union_field", never)
        for kwargs in ({"deltas": [2.0**-4, 2.0**-9]}, {"deltas": [2.0**-4, 0.0]},
                       {"deltas": [2.0**-4], "ntubes": 0}, {"deltas": [2.0**-4], "ndirs": 0},
                       {"deltas": [2.0**-4], "p": float("nan")}):
            with pytest.raises(ValueError):
                delta_scan(**kwargs)
