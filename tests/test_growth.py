import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from fpplab import lattice
from fpplab._rng import derive_seed
from fpplab.convex import hull, l1_ball
from fpplab.growth import (CompetitionConfig, GrowthError, NONE_OWNER,
                           coexistence_stats, compete, place_seeds)
from fpplab.lattice import EdgeField, GridGraph, LatticeError, Window
from fpplab.measure import mk_distribution, point_mass
from oracles import UNIF12


def cfg(seeds, W=10, dist=UNIF12, policy="strict", seed=0):
    return CompetitionConfig(dist=dist, seeds=tuple(seeds),
                             window=Window.square(W), tie_policy=policy,
                             seed=seed)


class TestConfig:
    def test_duplicate_seeds_rejected(self):
        with pytest.raises(GrowthError):
            cfg([(0, 0), (0, 0)])

    def test_out_of_window_seed_rejected(self):
        with pytest.raises(GrowthError):
            cfg([(0, 0), (20, 0)], W=10)

    def test_unknown_policy_rejected(self):
        with pytest.raises(GrowthError):
            cfg([(0, 0)], policy="first-come")


class TestCompete:
    def test_partition_covers_window_under_continuous(self):
        occ = compete(cfg([(-5, 0), (5, 0)], W=10))
        # continuous weights: no ties, every site owned
        assert occ.tie_set == set()
        assert np.all(occ.owner_grid != NONE_OWNER)
        assert occ.region(0) | occ.region(1) == set(occ.config.window.sites())
        assert occ.region(0) & occ.region(1) == set()

    def test_owner_matches_argmin_recomputation(self):
        c = cfg([(-4, -4), (4, 4), (0, 0)], W=8, seed=3)
        occ = compete(c)
        field = EdgeField(c.seed, c.dist)
        g = GridGraph(field, c.window)
        d = np.stack([g.distances(s) for s in c.seeds])
        for s in [(7, 2), (-8, 8), (1, -5), (0, 3)]:
            i, j = s[0] + 8, s[1] + 8
            assert occ.owner(s) == int(np.argmin(d[:, i, j]))

    def test_seed_owns_itself(self):
        occ = compete(cfg([(-3, 0), (3, 0)], W=6))
        assert occ.owner((-3, 0)) == 0
        assert occ.owner((3, 0)) == 1
        assert occ.reach_grid[3, 6] == 0.0  # (-3, 0) on [-6, 6]^2

    def test_owner_refuses_off_window_site(self):
        # a site off the window is refused, not wrapped through a
        # negative index onto a site of the window
        occ = compete(cfg([(-3, 0), (3, 0)], W=4))
        for s in ((-12, 0), (0, -6), (5, 0), (0, 5)):
            with pytest.raises(LatticeError):
                occ.owner(s)

    def test_unit_weights_tie_line(self):
        # symmetric seeds under unit weights: the bisector column ties
        occ = compete(cfg([(-3, 0), (3, 0)], W=6, dist=point_mass(1.0)))
        assert all(s[0] == 0 for s in occ.tie_set)
        assert len(occ.tie_set) == 13
        for s in occ.tie_set:
            assert occ.owner(s) == NONE_OWNER

    def test_lexicographic_policy_fills_ties(self):
        occ = compete(cfg([(-3, 0), (3, 0)], W=6, dist=point_mass(1.0),
                          policy="lexicographic"))
        assert occ.tie_set  # ties detected
        for s in occ.tie_set:
            assert occ.owner(s) == 0  # lowest index wins

    def test_random_policy_deterministic(self):
        a = compete(cfg([(-3, 0), (3, 0)], W=6, dist=point_mass(1.0),
                        policy="random", seed=5))
        b = compete(cfg([(-3, 0), (3, 0)], W=6, dist=point_mass(1.0),
                        policy="random", seed=5))
        assert np.array_equal(a.owner_grid, b.owner_grid)
        owners = {a.owner(s) for s in a.tie_set}
        assert owners <= {0, 1}

    def test_reach_is_min_over_species(self):
        c = cfg([(-4, 0), (4, 0)], W=6, seed=2)
        occ = compete(c)
        field = EdgeField(c.seed, c.dist)
        g = GridGraph(field, c.window)
        d = np.stack([g.distances(s) for s in c.seeds])
        assert np.allclose(occ.reach_grid,
                           d.min(axis=0) / c.dist.ticks_per_unit)

    @pytest.mark.parametrize("policy", ["strict", "lexicographic", "random"])
    def test_one_solve_per_trial(self, monkeypatch, policy):
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs.get("indices"))
            return dijkstra(*args, **kwargs)
        monkeypatch.setattr(lattice, "_csgraph_dijkstra", spy)
        seeds = [(-5, 0), (5, 0), (0, 5), (0, -5)]
        for dist in (UNIF12, point_mass(1.0)):
            calls.clear()
            res = coexistence_stats(cfg(seeds, dist=dist, policy=policy),
                                    trials=3, survival_threshold=1)
            # one multi-source solve from every seed, per trial
            assert len(calls) == 3
            assert all(len(idx) == len(seeds) for idx in calls)
        assert sum(res.ties) > 0  # unit weights tie along the diagonals


class TestCoexistence:
    def test_two_species_symmetric_often_coexist(self):
        c = cfg([(-6, 0), (6, 0)], W=12, seed=1)
        res = coexistence_stats(c, trials=20, survival_threshold=30)
        assert 0.0 <= res.fraction <= 1.0
        assert res.fraction > 0.5  # symmetric seeds, generous threshold
        assert len(res.survivals) == 20

    def test_determinism(self):
        c = cfg([(-6, 0), (6, 0)], W=12, seed=1)
        a = coexistence_stats(c, trials=5, survival_threshold=30)
        b = coexistence_stats(c, trials=5, survival_threshold=30)
        assert a == b

    def test_per_trial_sizes_and_ties_match_compete(self):
        atomic = mk_distribution(atoms=[(1.0, 0.5), (2.0, 0.5)])
        c = cfg([(-5, 0), (5, 0), (0, 5)], W=10, dist=atomic, seed=4)
        res = coexistence_stats(c, trials=4, survival_threshold=10)
        assert len(res.sizes) == len(res.ties) == 4
        for t in range(4):
            occ = compete(cfg(c.seeds, W=10, dist=atomic,
                              seed=derive_seed(4, t)))
            assert res.sizes[t] == tuple(len(occ.region(i))
                                         for i in range(3))
            assert res.ties[t] == len(occ.tie_set)
            assert res.survivals[t] == occ.survivors(10)
        assert sum(res.ties) > 0  # atomic weights: ties do occur

    def test_threshold_validation(self):
        c = cfg([(0, 0)])
        with pytest.raises(GrowthError):
            coexistence_stats(c, trials=1, survival_threshold=0)


class TestPlacement:
    def octagon(self):
        return hull([(1, 0.4), (0.4, 1), (-0.4, 1), (-1, 0.4), (-1, -0.4),
                     (-0.4, -1), (0.4, -1), (1, -0.4)])

    def test_place_seeds_count_and_distinct(self):
        shape = self.octagon()
        dirs = shape.vertices[:4]
        sites = place_seeds(shape, dirs, 40.0)
        assert len(sites) == 4
        assert len(set(sites)) == 4

    def test_first_seed_is_scaled_direction(self):
        shape = self.octagon()
        dirs = shape.vertices[:3]
        sites = place_seeds(shape, dirs, 10.0)
        # canonical hull order starts at the lowest-then-leftmost vertex
        assert dirs[0] == (-0.4, -1.0)
        assert sites[0] == (-4, -10)

    def test_increment_rule(self):
        # x_{i+1} - x_i tracks R * (v_{i+1} - v_i) before rounding
        shape = self.octagon()
        dirs = shape.vertices[:3]
        R = 20.0
        sites = place_seeds(shape, dirs, R)
        for i in range(1, 3):
            dx = (R * (dirs[i][0] - dirs[i - 1][0]),
                  R * (dirs[i][1] - dirs[i - 1][1]))
            got = (sites[i][0] - sites[i - 1][0], sites[i][1] - sites[i - 1][1])
            assert abs(got[0] - dx[0]) <= 1.0
            assert abs(got[1] - dx[1]) <= 1.0

    def test_validation(self):
        shape = self.octagon()
        with pytest.raises(GrowthError):
            place_seeds(shape, [(1, 0.4), (1, 0.4)], 10.0)
        with pytest.raises(GrowthError):
            place_seeds(shape, shape.vertices[:2], -1.0)
        with pytest.raises(GrowthError):
            place_seeds(shape, shape.vertices[:3], 0.01)  # collide at 0
