import math

import numpy as np
import pytest

from fpplab._rng import derive_seed
from fpplab.convex import hausdorff, l1_ball
from fpplab.lattice import EdgeField, Window, round_site, solve
from fpplab.measure import mk_distribution, point_mass
from fpplab.shapeest import (DirectionPlan, ShapeEstimateError,
                             continuity_probe, empirical_shape, eps_density,
                             sides_estimate, time_constant)

UNIF12 = mk_distribution(pieces=[(1.0, 2.0, 1.0)])
EPS_ATOM = mk_distribution(atoms=[(0.05, 0.4), (1.0, 0.6)])
ZERO_ATOM = mk_distribution(atoms=[(0.0, 0.4), (1.0, 0.6)])


class TestPlan:
    def test_default_plan(self):
        p = DirectionPlan.default()
        assert len(p.angles) == 17
        assert p.angles[0] == 0.0
        assert p.angles[-1] == pytest.approx(math.pi / 2)

    def test_validation(self):
        with pytest.raises(ShapeEstimateError):
            DirectionPlan(angles=(0.0, 1.0), n=50, trials=5, seed=0)
        with pytest.raises(ShapeEstimateError):
            DirectionPlan.default(n=8)
        with pytest.raises(ShapeEstimateError):
            DirectionPlan.default(trials=0)


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
        plan = DirectionPlan.default(D=7, n=60, trials=2, seed=0)
        est = empirical_shape(point_mass(1.0), plan)
        assert hausdorff(est.shape, l1_ball(1.0)) < 0.02
        assert est.clipped_trials == 0

    def test_dihedral_symmetry_of_output(self):
        plan = DirectionPlan.default(D=5, n=50, trials=3, seed=4)
        est = empirical_shape(UNIF12, plan)
        vs = set(est.shape.vertices)
        for x, y in vs:
            for g in ((-x, y), (x, -y), (y, x), (-y, -x)):
                assert any(abs(g[0] - a) + abs(g[1] - b) < 1e-9
                           for a, b in vs)

    def test_shape_inside_l1_ball(self):
        # min support 1 means m >= l1 norm, so the shape fits in the ball
        plan = DirectionPlan.default(D=5, n=50, trials=3, seed=2)
        est = empirical_shape(UNIF12, plan)
        for x, y in est.shape.vertices:
            assert abs(x) + abs(y) <= 1.0 + 1e-9

    def test_determinism(self):
        plan = DirectionPlan.default(D=5, n=40, trials=2, seed=8)
        a = empirical_shape(UNIF12, plan)
        b = empirical_shape(UNIF12, plan)
        assert a.shape.vertices == b.shape.vertices
        assert a.m_hat == b.m_hat

    def test_every_trial_enters_the_mean(self):
        # m_hat is the mean over all 10 trials of the exact orbit-averaged
        # passage times, each solved here on a window far larger than the
        # ball that holds the targets
        plan = DirectionPlan.default(D=5, n=40, trials=10, seed=0)
        est = empirical_shape(EPS_ATOM, plan)
        big = Window.square(160)
        orbits = []
        for th in plan.angles:
            c, s = math.cos(th), math.sin(th)
            x, y = 40 * (c / (c + s)), 40 * (s / (c + s))
            orbits.append([round_site(p) for p in (
                (x, y), (-x, y), (x, -y), (-x, -y),
                (y, x), (-y, x), (y, -x), (-y, -x))])
        per_trial = []
        for t in range(plan.trials):
            ptm = solve(EdgeField(derive_seed(0, t), EPS_ATOM), (0, 0), big)
            times = [[ptm.time(s) for s in orb] for orb in orbits]
            assert not ptm.boundary_contact(max(map(max, times)))
            per_trial.append([np.mean(ts) / 40 for ts in times])
        want = np.mean(per_trial, axis=0)
        assert np.allclose(est.m_hat, want, rtol=1e-12, atol=0)
        assert est.trials == 10

    def test_regrown_trials_are_counted_not_dropped(self):
        # an atom at 0 makes the first window the capped one, which the
        # ball can reach; such trials are regrown and kept
        plan = DirectionPlan.default(D=5, n=20, trials=3, seed=0)
        est = empirical_shape(ZERO_ATOM, plan)
        assert est.clipped_trials > 0
        assert all(m > 0 for m in est.m_hat)

    def test_to_dict_round_trips_shape(self):
        plan = DirectionPlan.default(D=5, n=40, trials=2, seed=3)
        est = empirical_shape(point_mass(1.0), plan)
        d = est.to_dict()
        assert len(d["m_hat"]) == 5
        assert d["trials"] == 2


class TestShapeStatistics:
    def test_sides_of_unit_ball_estimate(self):
        plan = DirectionPlan.default(D=9, n=60, trials=3, seed=1)
        est = empirical_shape(point_mass(1.0), plan)
        assert sides_estimate(est, theta_stat=0.05) == 4

    def test_eps_density(self):
        assert eps_density(l1_ball(1.0), eps=2.1)
        assert not eps_density(l1_ball(1.0), eps=0.5)

    def test_continuity_association(self):
        plan = DirectionPlan.default(D=5, n=40, trials=2, seed=6)
        dists = [point_mass(1.0),
                 mk_distribution(atoms=[(1.0, 0.5), (1.2, 0.5)]),
                 mk_distribution(atoms=[(1.0, 0.5), (2.0, 0.5)])]
        probe = continuity_probe(dists, plan)
        assert probe.d_hausdorff.shape == (3, 3)
        assert np.all(np.diag(probe.d_hausdorff) == 0)
        # closer measures give closer shapes on this spread-out family
        assert probe.association > 0

    def test_needs_two_dists(self):
        with pytest.raises(ShapeEstimateError):
            continuity_probe([point_mass(1.0)], DirectionPlan.default())
