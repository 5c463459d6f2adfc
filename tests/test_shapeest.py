import itertools
import math

import numpy as np
import pytest

from fpplab._rng import derive_seed
from fpplab.convex import extreme_points, hausdorff, l1_ball
from fpplab.lattice import EdgeField, GridGraph, Window, round_site
from fpplab.measure import levy_distance, mk_distribution, point_mass
from fpplab.shapeest import (ShapeEstimateError, empirical_shape,
                             eps_density, time_constant)
from oracles import EPS_ATOM, UNIF12, ZERO_ATOM


class TestPlan:
    def test_default_plan(self):
        # the angles run from 0 to pi/2 in equal steps
        est = empirical_shape(point_mass(1.0), 17, 16, 1, 0)
        assert len(est.angles) == 17
        assert est.angles[0] == 0.0
        assert est.angles[-1] == pytest.approx(math.pi / 2)
        assert np.allclose(np.diff(est.angles), math.pi / 32)

    def test_validation(self):
        with pytest.raises(ShapeEstimateError):
            empirical_shape(UNIF12, 2, 50, 5, 0)
        with pytest.raises(ShapeEstimateError):
            empirical_shape(UNIF12, 17, 8, 5, 0)
        with pytest.raises(ShapeEstimateError):
            empirical_shape(UNIF12, 17, 50, 0, 0)


class TestTimeConstant:
    def test_unit_weights_axis(self):
        m, se = time_constant(point_mass(1.0), (1, 0), n=40, trials=2, seed=0)
        assert m == 1.0
        assert se == 0.0

    def test_unit_weights_diagonal(self):
        # under unit weights the passage time is the l1 norm
        m, se = time_constant(point_mass(1.0), (0.5, 0.5), n=40, trials=2,
                              seed=0)
        assert m == pytest.approx(1.0)

    def test_determinism(self):
        a = time_constant(UNIF12, (1, 0), n=30, trials=3, seed=9)
        b = time_constant(UNIF12, (1, 0), n=30, trials=3, seed=9)
        assert a == b

    def test_bounds(self):
        # min support 1 forces m >= 1; straight-line paths force
        # m <= mean weight along the axis for this short scale
        m, _ = time_constant(UNIF12, (1, 0), n=50, trials=5, seed=1)
        assert 1.0 <= m <= 2.0

    def test_zero_direction_rejected(self):
        with pytest.raises(ShapeEstimateError):
            time_constant(UNIF12, (0, 0), n=30, trials=1, seed=0)


class TestEmpiricalShape:
    def test_unit_weights_recover_l1_ball(self):
        est = empirical_shape(point_mass(1.0), 7, 60, 2, 0)
        assert hausdorff(est.shape, l1_ball(1.0)) < 0.02
        assert est.clipped_trials == 0

    def test_dihedral_symmetry_of_output(self):
        est = empirical_shape(UNIF12, 5, 50, 3, 4)
        vs = set(est.shape.vertices)
        for x, y in vs:
            for g in ((-x, y), (x, -y), (y, x), (-y, -x)):
                assert any(abs(g[0] - a) + abs(g[1] - b) < 1e-9
                           for a, b in vs)

    def test_shape_inside_l1_ball(self):
        # min support 1 means m >= l1 norm, so the shape fits in the ball
        est = empirical_shape(UNIF12, 5, 50, 3, 2)
        for x, y in est.shape.vertices:
            assert abs(x) + abs(y) <= 1.0 + 1e-9

    def test_determinism(self):
        plan = (5, 40, 2, 8)
        a = empirical_shape(UNIF12, *plan)
        b = empirical_shape(UNIF12, *plan)
        assert a.shape.vertices == b.shape.vertices
        assert a.m_hat == b.m_hat

    def test_every_trial_enters_the_mean(self):
        # m_hat is the mean over all 10 trials of the exact orbit-averaged
        # passage times, each solved here on a window far larger than the
        # ball that holds the targets
        est = empirical_shape(EPS_ATOM, 5, 40, 10, 0)
        big = Window.square(160)
        orbits = []
        for th in est.angles:
            c, s = math.cos(th), math.sin(th)
            x, y = 40 * (c / (c + s)), 40 * (s / (c + s))
            orbits.append([round_site(p) for p in (
                (x, y), (-x, y), (x, -y), (-x, -y),
                (y, x), (-y, x), (y, -x), (-y, -x))])
        per_trial = []
        for t in range(10):
            f = EdgeField(derive_seed(0, t), EPS_ATOM)
            ptm = GridGraph(f, big).solve((0, 0))
            times = [[ptm.time(s) for s in orb] for orb in orbits]
            assert not ptm.boundary_contact(max(map(max, times)))
            per_trial.append([np.mean(ts) / 40 for ts in times])
        want = np.mean(per_trial, axis=0)
        assert np.allclose(est.m_hat, want, rtol=1e-12, atol=0)
        assert est.trials == 10

    def test_regrown_trials_are_counted_not_dropped(self):
        # with an atom at 0 the ball reaches the first diamond's boundary
        # before some targets; such trials are regrown and kept
        est = empirical_shape(ZERO_ATOM, 5, 20, 3, 0)
        assert est.clipped_trials > 0
        assert all(m > 0 for m in est.m_hat)

    def test_to_dict_round_trips_shape(self):
        est = empirical_shape(point_mass(1.0), 5, 40, 2, 3)
        d = est.to_dict()
        assert len(d["m_hat"]) == 5
        assert d["trials"] == 2


class TestShapeStatistics:
    def test_sides_of_unit_ball_estimate(self):
        est = empirical_shape(point_mass(1.0), 9, 60, 3, 1)
        assert len(extreme_points(est.shape, 0.05)) == 4

    def test_eps_density(self):
        assert eps_density(l1_ball(1.0), eps=2.1)
        assert not eps_density(l1_ball(1.0), eps=0.5)

    def test_continuity_association(self):
        # closer measures give closer shapes on this spread-out family:
        # the shapes' pairwise Hausdorff distances correlate positively
        # with the measures' Levy distances
        plan = (5, 40, 2, 6)
        dists = [point_mass(1.0),
                 mk_distribution(atoms=[(1.0, 0.5), (1.2, 0.5)]),
                 mk_distribution(atoms=[(1.0, 0.5), (2.0, 0.5)])]
        shapes = [empirical_shape(d, *plan).shape for d in dists]
        pairs = list(itertools.combinations(range(3), 2))
        dh = [hausdorff(shapes[i], shapes[j]) for i, j in pairs]
        dl = [levy_distance(dists[i], dists[j]) for i, j in pairs]
        assert np.corrcoef(dh, dl)[0, 1] > 0
