import math

import numpy as np
import pytest

from furstlab.duality import (
    GraphHyperplane,
    MapsToInfinityError,
    VerticalHyperplaneError,
    apply_projective,
    dualize_hyperplane,
    dualize_point,
    hyperplanes_from_csv,
    hyperplanes_to_csv,
    incident,
    marstrand_project,
    points_from_csv,
    points_to_csv,
    projective_to_infinity,
    spreadify,
)
from furstlab.grassmann import AffineFlat, Subspace, haar_sample

E1 = Subspace(2, 1, np.array([[1.0], [0.0]]))


def horizontal_lines(count, seed=5):
    """Well-separated random heights in [0, 1]."""
    rng = np.random.default_rng(seed)
    b = (np.arange(count) + 0.05 + 0.9 * rng.random(count)) / count
    return [GraphHyperplane(np.array([0.0]), float(v)) for v in b], b


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


class TestGraphFlatConversion:
    def test_roundtrip(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 5):
            for _ in range(50):
                plane = GraphHyperplane(rng.uniform(-3, 3, n - 1), rng.uniform(-3, 3))
                back = GraphHyperplane.from_flat(plane.to_flat())
                assert np.abs(back.a - plane.a).max() <= 1e-9
                assert abs(back.c - plane.c) <= 1e-9

    def test_vertical_rejected(self):
        vert = AffineFlat(Subspace(2, 1, np.array([[0.0], [1.0]])), np.array([2.0, 0.0]))
        with pytest.raises(VerticalHyperplaneError):
            GraphHyperplane.from_flat(vert)


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
            inv = pmap.inverse()
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
        from furstlab.duality import ProjectiveMap

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
            assert dist <= 1e-6

    def test_hyperplane_refit_residual(self):
        rng = np.random.default_rng(24)
        pmap = projective_to_infinity(np.array([0.0, 0.6, 0.8]), 4.0)
        for _ in range(100):
            plane = GraphHyperplane(rng.uniform(-1, 1, 2), rng.uniform(-1, 1))
            flat = plane.to_flat()
            image = apply_projective(pmap, flat)
            nu = image.direction.complement_basis()[:, 0]
            # extra on-plane samples must land on the refit image plane
            for _ in range(5):
                x = flat.point_at(rng.uniform(-0.5, 0.5, 2))
                y = pmap.apply_point(x)
                assert abs(float(nu @ (y - image.offset))) <= 1e-6


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
        mapped_pts, mapped_flats, report = spreadify(pts, planes, (2, 6), seed=11, ndirs=25)
        assert report.initial_direction_dimension <= 0.1
        assert report.final_direction_dimension >= 0.85
        assert report.incidences_before == report.incidences_after
        assert len(mapped_flats) == 1000 and len(mapped_pts) == 5000

    def test_already_spread_family_stable(self):
        rng = np.random.default_rng(7)
        slopes = np.tan((rng.random(1000) - 0.5) * 2.4)
        planes = [
            GraphHyperplane(np.array([float(m)]), float(c))
            for m, c in zip(slopes, rng.random(1000))
        ]
        _, _, report = spreadify(np.zeros((0, 2)), planes, (2, 6), seed=13, ndirs=25)
        assert (
            report.final_direction_dimension
            >= report.initial_direction_dimension - 0.15
        )

    def test_degenerate_family(self):
        planes = [GraphHyperplane(np.array([0.0]), 0.5) for _ in range(10)]
        pts = np.array([[0.1, 0.5]])
        mapped_pts, mapped_flats, report = spreadify(pts, planes, (2, 6), seed=1, ndirs=5)
        assert report.degenerate
        assert report.initial_direction_dimension == 0.0
        assert report.final_direction_dimension == 0.0
        assert np.allclose(mapped_pts, pts)

    def test_report_serializes(self):
        import json

        planes, b = horizontal_lines(50)
        pts = np.stack([np.full(50, 0.5), b], axis=1)
        _, _, report = spreadify(pts, planes, (2, 5), seed=3, ndirs=8)
        blob = json.dumps(report.as_dict(), sort_keys=True)
        assert "final_direction_dimension" in blob


class TestCsv:
    def test_points_roundtrip(self):
        pts = np.array([[0.25, -1.5], [3.0, 2.0]])
        assert np.allclose(points_from_csv(points_to_csv(pts)), pts)

    def test_hyperplanes_roundtrip(self):
        planes = [
            GraphHyperplane(np.array([1.5, -2.0]), 0.25),
            GraphHyperplane(np.array([0.0, 1.0]), -3.0),
        ]
        back = hyperplanes_from_csv(hyperplanes_to_csv(planes))
        for p, q in zip(planes, back):
            assert np.allclose(p.a, q.a) and p.c == q.c
