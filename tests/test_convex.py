import json
import math

import numpy as np
import pytest

from fpplab.convex import (GeometryError, boundary_project,
                           extreme_points, flat_edge_intersection, gauge,
                           hausdorff, hull, l1, l1_ball, point_to_shape_l1,
                           predicted_flat_edge, projection_coefficient,
                           tangent_at)


SQRT2 = math.sqrt(2.0)


class TestHull:
    def test_square(self):
        h = hull([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)])
        assert set(h.vertices) == {(0, 0), (1, 0), (1, 1), (0, 1)}
        assert len(h) == 4

    def test_collinear_pruned(self):
        h = hull([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)])
        assert (1.0, 0.0) not in h.vertices

    def test_ccw_orientation(self):
        h = hull([(1, 0), (0, 1), (-1, 0), (0, -1)])
        v = h.vertices
        area2 = sum(v[i][0] * v[(i + 1) % len(v)][1]
                    - v[(i + 1) % len(v)][0] * v[i][1] for i in range(len(v)))
        assert area2 > 0

    def test_canonical_start(self):
        h = hull([(3, 5), (1, 1), (5, 1), (3, 8)])
        assert h.vertices[0] == (1.0, 1.0)  # lowest, then leftmost

    def test_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            hull([(0, 0), (1, 1), (2, 2)])
        with pytest.raises(GeometryError):
            hull([(0, 0), (1, 1)])

    def test_theta_tolerance_prunes_flat_vertices(self):
        # a vertex displaced by an angle below theta_tol disappears
        pts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, -1e-12)]
        assert len(hull(pts, theta_tol=1e-6)) == 4


class TestContainsAndDistance:
    def test_contains(self):
        b = l1_ball(1.0)
        assert b.contains((0.3, 0.3))
        assert b.contains((1.0, 0.0))
        assert not b.contains((0.8, 0.4))

    def test_point_to_shape(self):
        b = l1_ball(1.0)
        assert point_to_shape_l1((0.0, 0.0), b) == 0.0
        assert point_to_shape_l1((2.0, 0.0), b) == pytest.approx(1.0)
        assert point_to_shape_l1((1.0, 1.0), b) == pytest.approx(1.0)

    def test_hausdorff_scaled_balls(self):
        assert hausdorff(l1_ball(1.0), l1_ball(1.5)) == pytest.approx(0.5)
        assert hausdorff(l1_ball(2.0), l1_ball(2.0)) == 0.0

    def test_hausdorff_symmetry(self):
        a = hull([(0, 0), (2, 0), (1, 2)])
        b = l1_ball(1.0)
        assert hausdorff(a, b) == pytest.approx(hausdorff(b, a))

    def test_hausdorff_translation(self):
        b = l1_ball(1.0)
        shifted = hull([(x + 0.25, y) for x, y in b.vertices])
        assert hausdorff(b, shifted) == pytest.approx(0.25)


class TestExtremePoints:
    def test_square_has_four(self):
        assert len(extreme_points(l1_ball(1.0))) == 4

    def test_octagon_has_eight(self):
        pts = [(1, 0.4), (0.4, 1), (-0.4, 1), (-1, 0.4), (-1, -0.4),
               (-0.4, -1), (0.4, -1), (1, -0.4)]
        assert len(extreme_points(hull(pts))) == 8

    def test_statistical_tolerance_collapses_noise(self):
        # a 1e-6 bump on an edge counts at tight tolerance, not at loose
        pts = [(1, 0), (0, 1), (-1, 0), (0, -1), (0.5 + 1e-6, 0.5)]
        h = hull(pts, theta_tol=1e-9)
        assert len(extreme_points(h, theta_tol=1e-9)) == 5
        assert len(extreme_points(h, theta_tol=1e-2)) == 4


class TestFlatEdge:
    def test_predicted_endpoints_at_extremes(self):
        w, wp = predicted_flat_edge(0.0)
        assert w == (0.5, 0.5) and wp == (0.5, 0.5)
        w, wp = predicted_flat_edge(SQRT2 / 2)
        assert w == pytest.approx((1.0, 0.0))
        assert wp == pytest.approx((0.0, 1.0))

    def test_predicted_symmetric_about_diagonal(self):
        w, wp = predicted_flat_edge(0.3)
        assert w[0] == pytest.approx(wp[1])
        assert w[1] == pytest.approx(wp[0])
        assert w[0] + w[1] == pytest.approx(1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(GeometryError):
            predicted_flat_edge(-0.1)
        with pytest.raises(GeometryError):
            predicted_flat_edge(1.0)

    def test_detection_on_octagon(self):
        # octagon with a genuine segment on x + y = 1
        pts = [(0.8, 0.2), (0.2, 0.8), (-0.2, 0.8), (-0.8, 0.2),
               (-0.8, -0.2), (-0.2, -0.8), (0.2, -0.8), (0.8, -0.2)]
        rep = flat_edge_intersection(hull(pts), tol=1e-9,
                                     predicted=((0.8, 0.2), (0.2, 0.8)))
        assert rep.intersects
        assert rep.segment == ((0.8, 0.2), (0.2, 0.8))
        assert rep.discrepancy == pytest.approx(0.0, abs=1e-12)

    def test_no_intersection(self):
        rep = flat_edge_intersection(l1_ball(0.9))
        assert not rep.intersects

    def test_oversized_shape_rejected(self):
        with pytest.raises(GeometryError):
            flat_edge_intersection(l1_ball(1.1), tol=1e-3)

    def test_full_ball_boundary_counts(self):
        rep = flat_edge_intersection(l1_ball(1.0))
        assert rep.intersects
        assert rep.segment == ((1.0, 0.0), (0.0, 1.0))


class TestGauge:
    def test_l1_ball_gauge_is_l1_norm(self):
        b = l1_ball(1.0)
        for p in [(0.5, 0.2), (-1.0, 2.0), (3.0, 0.0)]:
            assert gauge(b, p) == pytest.approx(l1(p))

    def test_boundary_project(self):
        b = l1_ball(1.0)
        q = boundary_project(b, (3.0, 1.0))
        assert l1(q) == pytest.approx(1.0)
        assert q[0] / q[1] == pytest.approx(3.0)

    def test_origin_must_be_interior(self):
        off = hull([(1, 1), (2, 1), (2, 2), (1, 2)])
        with pytest.raises(GeometryError):
            gauge(off, (1.5, 1.5))
        with pytest.raises(GeometryError):
            gauge(off, np.array([[1.5, 1.5], [0.0, 0.0]]))

    @staticmethod
    def loop_gauge(shape, p):
        """The per-point definition: the largest ratio of an edge's normal
        functional at p to its value on the edge."""
        g = 0.0
        for a, b in shape.edges():
            nx, ny = b[1] - a[1], a[0] - b[0]
            g = max(g, (nx * p[0] + ny * p[1]) / (nx * a[0] + ny * a[1]))
        return g

    @pytest.mark.parametrize("shape", [
        l1_ball(1.0),
        hull([(1, 0.4), (0.4, 1), (-0.4, 1), (-1, 0.4), (-1, -0.4),
              (-0.4, -1), (0.4, -1), (1, -0.4)]),
    ], ids=["l1_ball", "octagon"])
    def test_array_form_equals_scalar_form(self, shape):
        ticks = np.arange(-13, 14) / 7
        grid = np.stack(np.meshgrid(ticks, ticks), axis=-1).reshape(-1, 2)
        g = gauge(shape, grid)
        assert g.shape == (len(grid),)
        want = [self.loop_gauge(shape, p) for p in grid.tolist()]
        assert g.tolist() == want
        assert [gauge(shape, p) for p in grid.tolist()] == want


class TestProjection:
    def test_coefficient_solves_basis(self):
        v, w = (1.0, 0.0), (0.0, 1.0)
        assert projection_coefficient(v, w, (3.0, 7.0)) == pytest.approx(3.0)
        v, w = (1.0, 1.0), (-1.0, 1.0)
        x = (2 * v[0] + 5 * w[0], 2 * v[1] + 5 * w[1])
        assert projection_coefficient(v, w, x) == pytest.approx(2.0)

    def test_parallel_rejected(self):
        with pytest.raises(GeometryError):
            projection_coefficient((1.0, 1.0), (2.0, 2.0), (1.0, 0.0))

    def test_tangent_at_square_corner(self):
        t = tangent_at(l1_ball(1.0), (1.0, 0.0))
        # bisector of the two incident edges is vertical at (1, 0)
        assert t[0] == pytest.approx(0.0, abs=1e-12)
        assert abs(t[1]) == pytest.approx(1.0)


class TestSerialization:
    def test_round_trip(self):
        # a shape's payload form, ccw from its lowest-then-leftmost vertex
        h = hull([(2, 1), (0, 0), (0, 1), (2, 0), (1, 0)])
        assert json.loads(json.dumps(h.to_dict())) == {
            "vertices": [[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]]}
