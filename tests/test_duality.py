import math
import tracemalloc
import warnings

import numpy as np
import pytest
import reference
from reference import flat_from_graph_qr, graph_from_flat

import furstlab.dimension as dimension
import furstlab.duality as duality
from furstlab.duality import (
    GraphHyperplane,
    MapsToInfinityError,
    ProjectiveMap,
    VerticalHyperplaneError,
    _incidence_count,
    _map_hyperplanes,
    apply_projective,
    dualize_hyperplane,
    dualize_point,
    hyperplanes_to_csv,
    incident,
    marstrand_project,
    points_from_csv,
    points_to_csv,
    projective_to_infinity,
    spreadify,
)
from furstlab.dimension import _point_cells, _sort_split, projection_dimensions
from furstlab.grassmann import (
    AffineFlat,
    Subspace,
    grass_distance,
    haar_projector_batch,
    haar_sample,
)

E1 = Subspace(2, 1, np.array([[1.0], [0.0]]))


def horizontal_lines(count, seed=5):
    """Well-separated random heights in [0, 1], as graph-form rows (0, b)."""
    rng = np.random.default_rng(seed)
    b = (np.arange(count) + 0.05 + 0.9 * rng.random(count)) / count
    return np.column_stack([np.zeros(count), b]), b


def spread_family(npoints, nplanes, seed=0):
    """The benchmark's spreadify geometry: parallel planes in R^3 with
    well-separated intercepts, as graph-form rows (a, c), and points each
    lying on one of them."""
    rng = np.random.default_rng(seed)
    cuts = (np.arange(nplanes) + 0.05 + 0.9 * rng.random(nplanes)) / nplanes
    slope = rng.uniform(-0.5, 0.5, 2)
    xy = rng.random((npoints, 2))
    z = xy @ slope + cuts[rng.integers(0, nplanes, npoints)]
    return np.column_stack([xy, z]), np.column_stack([np.tile(slope, (nplanes, 1)), cuts])


class TestDuality:
    def test_point_to_line_2d(self):
        plane = dualize_point(np.array([2.0, 1.0]))  # y = 2x + 1
        assert np.allclose(plane.a, [2.0]) and plane.c == 1.0

    def test_origin_dualizes_to_horizontal(self):
        plane = dualize_point(np.zeros(3))
        assert np.allclose(plane.a, 0.0) and plane.c == 0.0

    def test_line_to_point_2d(self):
        assert np.allclose(
            dualize_hyperplane(GraphHyperplane(np.array([2.0]), 1.0)), [-2.0, 1.0]
        )

    def test_horizontal_dualizes_to_origin(self):
        assert np.allclose(
            dualize_hyperplane(GraphHyperplane(np.zeros(2), 0.0)), np.zeros(3)
        )

    def test_double_dual_negates_slopes(self):
        x = np.array([1.0, -2.0, 3.0])
        assert np.allclose(
            dualize_hyperplane(dualize_point(x)), [-1.0, 2.0, 3.0]
        )

    def test_incident_examples(self):
        plane = GraphHyperplane(np.array([2.0]), 1.0)
        assert incident(np.array([1.0, 3.0]), plane, 1e-9)
        assert not incident(np.array([1.0, 4.0]), plane, 1e-9)
        with pytest.raises(ValueError):
            incident(np.array([1.0, 3.0]), plane, 0.0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_incidence_equivalence(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(2000):
            x = rng.uniform(-5, 5, n)
            plane = GraphHyperplane(rng.uniform(-5, 5, n - 1), rng.uniform(-5, 5))
            if rng.random() < 0.5:
                x[-1] = plane.height(x[:-1])  # exactly incident
            lhs = incident(x, plane, 1e-9)
            rhs = incident(dualize_hyperplane(plane), dualize_point(x), 1e-9)
            assert lhs == rhs


def homogeneous(planes):
    """The homogeneous rows (-a, 1, -c) of graph-form rows (a, c)."""
    return np.column_stack([-planes[:, :-1], np.ones(len(planes)), -planes[:, -1]])


class TestIncidenceCount:
    """spreadify's incidence rule: |x_n - <a, x'> - c| <= TOL_EXACT (|x_n| +
    sum_i |a_i x_i| + |c|)."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_the_rule_pair_by_pair(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        pts = rng.uniform(-5, 5, (70, n))
        planes = rng.uniform(-5, 5, (90, n))
        a, c = planes[:, :-1], planes[:, -1]
        on = rng.integers(0, 90, 70)
        pts[:35, -1] = np.einsum("ij,ij->i", a[on[:35]], pts[:35, :-1]) + c[on[:35]]
        pts[20:35, -1] *= 1 + 1e-7  # off by far more than the tolerance
        expected = sum(
            abs(x[-1] - p[:-1] @ x[:-1] - p[-1])
            <= duality.TOL_EXACT * (abs(x[-1]) + np.abs(p[:-1] * x[:-1]).sum() + abs(p[-1]))
            for x in pts for p in planes)
        assert expected >= 20
        for block in (duality._BLOCK, 1, 89, 91, 1000):
            monkeypatch.setattr(duality, "_BLOCK", block)
            assert _incidence_count(pts, homogeneous(planes)) == expected

    @pytest.mark.parametrize("exponent", range(-12, 13))
    def test_spreadify_preserves_incidences_at_every_scale(self, exponent):
        # Scaling the data by s keeps every slope and scales every point and
        # intercept; the count must not move, before or after the map.  Data
        # of radius below 1/2 is first scaled by a power of two into [1/2, 1),
        # so the families at 1e-9 and below, whose intercept spread is under
        # TOL_EXACT, are mapped too, not returned as degenerate.
        pts, planes = spread_family(40, 60)
        scale = 10.0**exponent
        planes[:, -1] *= scale
        _, _, report = spreadify(pts * scale, planes, (2, 6), seed=0, ndirs=16)
        assert report.incidences_before == report.incidences_after == 40
        assert not report.degenerate

    def test_overflowing_pair_is_no_incidence(self):
        # |a x| overflows: the residual is inf and its bound inf.
        pts = np.array([[1e300, 1e300], [1.0, 3.0]])
        assert _incidence_count(pts, np.array([[-1e300, 1.0, 0.0]])) == 0
        assert _incidence_count(pts, np.array([[-2.0, 1.0, -1.0]])) == 1

    def test_memory_is_blocked(self):
        rng = np.random.default_rng(3)
        pts, rows = rng.random((2000, 3)), homogeneous(rng.random((2000, 3)))
        tracemalloc.start()
        try:
            _incidence_count(pts, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A 2000 x 2000 float64 residual matrix alone is 32 MB.
        assert peak < 4 * 2**20


class TestGraphFlatConversion:
    def test_roundtrip(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 5):
            for _ in range(50):
                plane = GraphHyperplane(rng.uniform(-3, 3, n - 1), rng.uniform(-3, 3))
                back = graph_from_flat(plane.to_flat())
                assert np.abs(back.a - plane.a).max() <= 1e-9
                assert abs(back.c - plane.c) <= 1e-9

    def test_same_flat_as_the_qr_of_normal_and_identity(self):
        rng = np.random.default_rng(9)
        for n in (2, 3, 5, 8):
            for scale in (1e-3, 1.0, 1e3):
                plane = GraphHyperplane(scale * rng.standard_normal(n - 1), rng.standard_normal())
                got, want = plane.to_flat(), flat_from_graph_qr(plane)
                assert grass_distance(got.direction, want.direction) <= 1e-12
                assert np.abs(got.offset - want.offset).max() <= 1e-12

    def test_vertical_rejected(self):
        vert = AffineFlat(Subspace(2, 1, np.array([[0.0], [1.0]])), np.array([2.0, 0.0]))
        with pytest.raises(VerticalHyperplaneError):
            graph_from_flat(vert)


class TestProjectiveToInfinity:
    def test_exceptional_points_blow_up(self):
        u = np.array([0.0, 1.0])
        pmap = projective_to_infinity(u, 2.0)
        with pytest.raises(MapsToInfinityError):
            pmap.apply_point(np.array([0.3, 2.0]))

    def test_needs_unit_vector(self):
        with pytest.raises(ValueError):
            projective_to_infinity(np.array([1.0, 1.0]), 2.0)

    def test_roundtrip_off_exceptional(self):
        rng = np.random.default_rng(21)
        for n in (2, 3):
            g = rng.standard_normal(n)
            u = g / np.linalg.norm(g)
            pmap = projective_to_infinity(u, 3.0)
            inv = ProjectiveMap(np.linalg.inv(pmap.matrix))
            for _ in range(1000):
                x = rng.uniform(-1, 1, n)
                y = inv.apply_point(pmap.apply_point(x))
                assert np.linalg.norm(y - x) <= 1e-7 * max(1.0, np.linalg.norm(x))

    def test_collinearity_preserved(self):
        rng = np.random.default_rng(22)
        u = np.array([3.0, 4.0]) / 5.0
        pmap = projective_to_infinity(u, 4.0)
        for _ in range(200):
            p = rng.uniform(-1, 1, 2)
            d = rng.standard_normal(2)
            pts = [p, p + 0.3 * d, p + 0.7 * d]
            q = [pmap.apply_point(x) for x in pts]
            v1, v2 = q[1] - q[0], q[2] - q[0]
            cross = v1[0] * v2[1] - v1[1] * v2[0]
            scale = max(np.linalg.norm(v1), np.linalg.norm(v2)) ** 2
            assert abs(cross) <= 1e-6 * max(1.0, scale)


class TestApplyProjective:
    def test_identity_map(self):
        ident = ProjectiveMap(np.eye(4))
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose(apply_projective(ident, x), x)
        flat = GraphHyperplane(np.array([1.0, -1.0]), 0.5).to_flat()
        image = apply_projective(ident, flat)
        assert np.linalg.norm(image.offset - flat.offset) <= 1e-9

    def test_point_on_exceptional_raises(self):
        pmap = projective_to_infinity(np.array([1.0, 0.0]), 1.5)
        with pytest.raises(MapsToInfinityError):
            apply_projective(pmap, np.array([1.5, 0.7]))

    def test_incidence_preserved(self):
        rng = np.random.default_rng(23)
        pmap = projective_to_infinity(np.array([3.0, 4.0]) / 5.0, 5.0)
        for _ in range(1000):
            plane = GraphHyperplane(rng.uniform(-1, 1, 1), rng.uniform(-1, 1))
            xprime = rng.uniform(-1, 1)
            x = np.array([xprime, plane.height([xprime])])
            y = apply_projective(pmap, x)
            image = apply_projective(pmap, plane.to_flat())
            nu = image.direction.complement_basis()[:, 0]
            dist = abs(float(nu @ (y - image.offset)))
            assert dist <= 1e-12

    def test_hyperplane_image_residual(self):
        rng = np.random.default_rng(24)
        pmap = projective_to_infinity(np.array([0.0, 0.6, 0.8]), 4.0)
        for _ in range(100):
            plane = GraphHyperplane(rng.uniform(-1, 1, 2), rng.uniform(-1, 1))
            flat = plane.to_flat()
            image = apply_projective(pmap, flat)
            nu = image.direction.complement_basis()[:, 0]
            # on-plane points must land on the image plane
            for _ in range(5):
                x = flat.offset + flat.direction.basis @ rng.uniform(-0.5, 0.5, 2)
                y = pmap.apply_point(x)
                assert abs(float(nu @ (y - image.offset))) <= 1e-12

    def test_batch_of_points_matches_one_at_a_time(self):
        rng = np.random.default_rng(25)
        pmap = projective_to_infinity(np.array([0.0, 0.6, 0.8]), 4.0)
        pts = rng.uniform(-1, 1, (50, 3))
        batch = pmap.apply_point(pts)
        assert batch.shape == (50, 3)
        for x, y in zip(pts, batch):
            assert np.allclose(pmap.apply_point(x), y, rtol=1e-14, atol=0)
        assert pmap.apply_point(np.zeros((0, 3))).shape == (0, 3)
        with pytest.raises(MapsToInfinityError):
            pmap.apply_point(np.vstack([pts, [0.0, 0.0, 5.0]]))  # <u, x> = 4


# Under projective_to_infinity(e_2, 2), (x, y) -> (x, 1) / (y - 2), and the line
# {y = a x + c} maps to {Y = a / (2 - c) X - 1 / (2 - c)}.
E2_MAP = projective_to_infinity(np.array([0.0, 1.0]), 2.0)


def graph_image(a, c):
    (row,) = _map_hyperplanes(E2_MAP, np.array([[-a, 1.0, -c]]))
    return float(-row[0]), float(-row[2])


class TestExactHyperplaneImage:
    @pytest.mark.parametrize(
        "plane, image", [((1.0, 0.0), (0.5, -0.5)), ((0.0, 1.0), (0.0, -1.0)),
                         ((3.0, -2.0), (0.75, -0.25))]
    )
    def test_closed_form(self, plane, image):
        assert np.allclose(graph_image(*plane), image, rtol=0, atol=1e-15)

    def test_rows_are_homogeneous_and_sign_free(self):
        # Each image row is divided by its own x_n coefficient, which so
        # reads exactly 1, and a row and its negation are one plane.
        rng = np.random.default_rng(11)
        u = haar_sample(3, 2, rng).complement_basis()[:, 0]
        pmap = projective_to_infinity(u, 7.0)
        rows = homogeneous(rng.uniform(-2, 2, (50, 3)))
        mapped = _map_hyperplanes(pmap, rows)
        assert (mapped[:, -2] == 1.0).all()
        assert np.array_equal(_map_hyperplanes(pmap, -rows), mapped)

    def test_exceptional_line_maps_to_infinity(self):
        with pytest.raises(MapsToInfinityError):
            graph_image(0.0, 2.0)  # y = 2
        with pytest.raises(MapsToInfinityError):
            apply_projective(E2_MAP, GraphHyperplane(np.array([0.0]), 2.0).to_flat())

    def test_vertical_image_raises_in_spreadify(self, monkeypatch):
        # (x, x + 2) -> (x, 1) / x: the image of y = x + 2 is the vertical line X = 1.
        with pytest.raises(VerticalHyperplaneError):
            graph_image(1.0, 2.0)
        monkeypatch.setattr(duality, "projective_to_infinity", lambda u, h: E2_MAP)
        planes = np.array([[1.0, 2.0], [0.0, 0.5]])
        with pytest.raises(VerticalHyperplaneError):
            spreadify(np.zeros((0, 2)), planes, (2, 4), seed=0, ndirs=2)

    def test_vertical_flat_maps_exactly(self):
        # {x = 1} has no graph form; its points (1, y) go to (1, 1) / (y - 2),
        # all on the line Y = X.
        vertical = AffineFlat(Subspace(2, 1, np.array([[0.0], [1.0]])), np.array([1.0, 0.0]))
        image = graph_from_flat(apply_projective(E2_MAP, vertical))
        assert np.allclose([image.a[0], image.c], [1.0, 0.0], rtol=0, atol=1e-15)


class TestDirectionMapAndProjection:
    def test_direction_of_horizontal_line(self):
        flat = GraphHyperplane(np.array([0.0]), 3.0).to_flat()
        d = flat.direction
        assert abs(abs(d.basis[0, 0]) - 1.0) <= 1e-9

    def test_translation_invariant(self):
        u = haar_sample(3, 2, seed=1)
        w1 = AffineFlat.through(u, np.array([1.0, 2.0, 3.0]))
        w2 = AffineFlat.through(u, np.array([-4.0, 0.0, 1.0]))
        assert np.allclose(
            w1.direction.projector(), w2.direction.projector(), atol=1e-12
        )

    def test_plane_through_origin_normal(self):
        # {x+y+z = 5} has direction with normal (1,1,1)/sqrt(3)
        plane = GraphHyperplane(np.array([-1.0, -1.0]), 5.0)
        d = plane.to_flat().direction
        nu = d.complement_basis()[:, 0]
        expect = np.ones(3) / math.sqrt(3)
        assert min(np.linalg.norm(nu - expect), np.linalg.norm(nu + expect)) <= 1e-9

    def test_marstrand_full_space_isometric(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((40, 3))
        u = haar_sample(3, 3, seed=0)
        proj = marstrand_project(pts, u)
        d_in = np.linalg.norm(pts[0] - pts[1])
        d_out = np.linalg.norm(proj[0] - proj[1])
        assert d_out == pytest.approx(d_in, abs=1e-9)

    def test_marstrand_axis_product(self):
        pts = np.array([[0.1, 0.0], [0.5, 0.0], [0.9, 0.0]])
        proj = marstrand_project(pts, E1)
        assert np.allclose(proj[:, 0], [0.1, 0.5, 0.9])


class TestSpreadify:
    def test_horizontal_lines_spread(self):
        planes, b = horizontal_lines(1000)
        rng = np.random.default_rng(6)
        xs = rng.random((1000, 5))
        pts = np.stack([xs, np.repeat(b[:, None], 5, axis=1)], axis=2).reshape(-1, 2)
        mapped_pts, mapped_planes, report = spreadify(pts, planes, (2, 6), seed=11, ndirs=25)
        assert report.initial_direction_dimension <= 0.1
        assert report.final_direction_dimension >= 0.85
        assert report.incidences_before == report.incidences_after
        assert mapped_planes.shape == (1000, 2) and mapped_pts.shape == (5000, 2)

    def test_already_spread_family_stable(self):
        rng = np.random.default_rng(7)
        slopes = np.tan((rng.random(1000) - 0.5) * 2.4)
        planes = np.column_stack([slopes, rng.random(1000)])
        _, _, report = spreadify(np.zeros((0, 2)), planes, (2, 6), seed=13, ndirs=25)
        assert (
            report.final_direction_dimension
            >= report.initial_direction_dimension - 0.15
        )

    def test_zero_ndirs_rejected_before_work(self, monkeypatch):
        def never(*args):
            raise AssertionError("dimension estimated before ndirs was checked")

        monkeypatch.setattr(duality, "family_dimension", never)
        monkeypatch.setattr(duality, "projection_dimensions", never)
        planes, _ = horizontal_lines(10)
        for ndirs in (0, -3):
            with pytest.raises(ValueError, match="ndirs"):
                spreadify(np.zeros((0, 2)), planes, (2, 6), seed=1, ndirs=ndirs)

    @pytest.mark.parametrize("levels", [(2, 63), (2, 64), (2, 100), (0, 4), (5, 5), (6, 2)])
    def test_bad_levels_rejected_before_work(self, monkeypatch, levels):
        def never(*args):
            raise AssertionError("dimension estimated before the levels were checked")

        monkeypatch.setattr(duality, "family_dimension", never)
        monkeypatch.setattr(duality, "projection_dimensions", never)
        planes, _ = horizontal_lines(10)
        with pytest.raises(ValueError, match="l_min < l_max <= 62"):
            spreadify(np.zeros((0, 2)), planes, levels, seed=1, ndirs=4)

    def test_plane_count_capped_before_work(self, monkeypatch):
        def never(*args):
            raise AssertionError("projectors built before the plane count was checked")

        monkeypatch.setattr(duality, "_direction_dimension", never)
        monkeypatch.setattr(duality, "MAX_CELLS", 9)
        planes, _ = horizontal_lines(10)
        with pytest.raises(ValueError, match="family of 10 members exceeds cap 9"):
            spreadify(np.zeros((0, 2)), planes, (2, 6), seed=1, ndirs=4)

    def test_deepest_levels_accepted(self):
        planes, b = horizontal_lines(50)
        pts = np.stack([np.full(50, 0.5), b], axis=1)
        _, _, report = spreadify(pts, planes, (2, 62), seed=3, ndirs=4)
        assert report.incidences_before == report.incidences_after

    def test_degenerate_family(self):
        planes = np.tile([0.0, 0.5], (10, 1))
        pts = np.array([[0.1, 0.5]])
        mapped_pts, mapped_planes, report = spreadify(pts, planes, (2, 6), seed=1, ndirs=5)
        assert report.degenerate
        assert mapped_planes.tolist() == [[0.0, 0.5]] * 10
        assert report.initial_direction_dimension == 0.0
        assert report.final_direction_dimension == 0.0
        assert np.allclose(mapped_pts, pts)

    def test_small_degenerate_family_comes_back_as_given(self):
        # Data of radius below 1/2 is scaled before the degenerate test, but
        # a degenerate family is returned as it was given, unscaled.
        planes = np.tile([0.25, 1e-9], (10, 1))
        pts = np.array([[1e-10, 1e-9]])
        mapped_pts, mapped_planes, report = spreadify(pts, planes, (2, 6), seed=1, ndirs=5)
        assert report.degenerate and report.exceptional_offset is None
        assert np.array_equal(mapped_planes, planes) and np.array_equal(mapped_pts, pts)

    def test_planes_map_like_their_points(self):
        rng = np.random.default_rng(9)
        planes = np.column_stack([rng.uniform(-1, 1, (40, 2)), rng.uniform(-1, 1, 40)])
        xy = rng.uniform(-1, 1, (40, 2))
        pts = np.column_stack([xy, [a @ v + c for (*a, c), v in zip(planes, xy)]])
        mapped_pts, mapped_planes, report = spreadify(pts, planes, (2, 5), seed=4, ndirs=6)
        assert report.incidences_after == report.incidences_before >= 40
        for y, (*a, c) in zip(mapped_pts, mapped_planes):
            assert abs(y[-1] - (y[:-1] @ a + c)) <= 1e-12 * max(1.0, np.abs(y).max())

    def test_overflowing_image_raises(self):
        planes = np.array([[1e300, 0.1], [0.5, 0.2]])
        with pytest.raises(ValueError):
            spreadify(np.array([[0.5, 0.25]]), planes, (2, 4), seed=0, ndirs=2)

    @pytest.mark.parametrize(
        "points, slope, outcome",
        [([[0.5, 0.25]], 1e150, "maps"), ([[0.5, 0.25]], 1e200, "overflows"),
         ([[0.5, 0.25]], 1e300, "overflows"), ([[1e300, 0.25], [0.1, 0.2]], 0.3, "maps")],
        ids=["slope1e150", "slope1e200", "slope1e300", "point1e300"],
    )
    def test_huge_inputs_map_or_overflow_without_warnings(self, points, slope, outcome):
        # h lies past the data's radius, so nothing maps to infinity: a finite
        # input maps to finite values or raises the overflow ValueError, and
        # no norm overflows on the way.
        planes = np.array([[slope, 0.1], [0.5, 0.2]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                mapped_pts, mapped_planes, _ = spreadify(np.array(points), planes, (2, 4),
                                                         seed=0, ndirs=4)
            except MapsToInfinityError:
                pytest.fail("a plane past the exceptional hyperplane was sent to infinity")
            except ValueError as exc:
                assert outcome == "overflows" and "overflows" in str(exc)
                return
        assert outcome == "maps"
        assert np.isfinite(mapped_pts).all()
        assert np.isfinite(mapped_planes).all()

    def test_report_serializes(self):
        import json

        planes, b = horizontal_lines(50)
        pts = np.stack([np.full(50, 0.5), b], axis=1)
        _, _, report = spreadify(pts, planes, (2, 5), seed=3, ndirs=8)
        blob = json.dumps(report.as_dict(), sort_keys=True)
        assert "final_direction_dimension" in blob

    def test_numpy_integer_seed_serializes(self):
        import json

        planes, b = horizontal_lines(50)
        pts = np.stack([np.full(50, 0.5), b], axis=1)
        _, _, report = spreadify(pts, planes, (2, 5), seed=np.int64(3), ndirs=8)
        assert type(report.seed) is int
        assert json.loads(json.dumps(report.as_dict()))["seed"] == 3


class TestCandidateDimensions:
    """projection_dimensions, the batched box count of spreadify's candidate
    projections, against one GridSet per candidate, bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize(
        "case", ["random", "duplicates", "single_plane", "zero_span", "two_words"])
    def test_batch_matches_one_gridset_per_candidate(self, n, case):
        rng = np.random.default_rng(100 * n + len(case))
        duals = rng.uniform(-1, 1, (300, n))
        l_min, l_max = (10, 20) if case == "two_words" else (2, 7)
        if case == "duplicates":
            duals = duals[rng.integers(0, 25, 300)]
        elif case == "single_plane":
            duals = duals[:1]
        elif case == "zero_span":  # every projection is a single point
            duals = np.tile(duals[:1], (40, 1))
        candidates = haar_projector_batch(n, n - 1, 12, int(rng.integers(1 << 30)))
        got = projection_dimensions(duals, candidates, l_min, l_max)
        assert got == reference.candidate_dimensions_loop(duals, candidates, l_min, l_max)
        cells = np.stack([_point_cells(duals @ b, l_max) for b in candidates])
        counts = _sort_split(cells, l_max)[2]
        for c, row in zip(cells, counts):
            assert np.array_equal(row, reference.construct(c, n - 1, l_max)[1])

    @pytest.mark.parametrize("cap", [1, 300, 1000])
    def test_batches_under_the_cell_cap(self, monkeypatch, cap):
        rng = np.random.default_rng(cap)
        duals = rng.uniform(-1, 1, (300, 3))
        candidates = haar_projector_batch(3, 2, 7, 5)
        expected = reference.candidate_dimensions_loop(duals, candidates, 2, 7)
        monkeypatch.setattr(dimension, "MAX_CELLS", cap)
        assert projection_dimensions(duals, candidates, 2, 7) == expected


class TestCsv:
    def test_points_roundtrip(self):
        pts = np.array([[0.25, -1.5], [3.0, 2.0]])
        assert np.allclose(points_from_csv(points_to_csv(pts)), pts)

    def test_hyperplanes_roundtrip(self):
        # The plane table reads back, as the CLI reads it, into its rows
        # (a, c); a sequence of GraphHyperplanes writes the same bytes.
        rows = np.array([[1.5, -2.0, 0.25], [0.0, 1.0, -3.0]])
        text = hyperplanes_to_csv(rows)
        assert text.splitlines()[0] == "a0,a1,c"
        assert np.array_equal(points_from_csv(text), rows)
        assert hyperplanes_to_csv([GraphHyperplane(r[:-1], r[-1]) for r in rows]) == text

    def test_header_only_is_empty(self):
        assert points_from_csv("x0,x1,x2\n").shape == (0, 3)

    @pytest.mark.parametrize(
        "text",
        ["", "x0\n0.5\n", "x0,x1\n0.5,nan\n", "x0,x1\n-inf,0.5\n", "x0,x1\n0.5,0.25\n0.5\n",
         "x0,x1\n0.5,0.25,1\n", "x0,x1\n0.5,abc\n"],
        ids=["empty", "one_column", "nan", "inf", "short_row", "long_row", "not_a_number"],
    )
    def test_bad_table_rejected(self, text):
        with pytest.raises(ValueError):
            points_from_csv(text)
