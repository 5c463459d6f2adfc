import json

import numpy as np
import pytest

from fpplab._rng import derive_seed
from fpplab.cli import main
from fpplab.convex import hull
from fpplab.expcli import run
from fpplab.growth import (CompetitionConfig, GrowthError, NONE_OWNER,
                           compete, place_seeds)
from fpplab.lattice import EdgeField, GridGraph, LatticeError, Window
from fpplab.measure import mk_distribution, point_mass
from oracles import UNIF12
from test_golden import payload_digests


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


def compete_config(seeds, W, seed, trials, threshold, dist=UNIF12):
    return {"kind": "compete", "seed": seed, "trials": trials, "params": {
        "dist": dist.to_dict(), "seeds": [list(s) for s in seeds],
        "window": W, "survival_threshold": threshold}}


def run_payload(cfg, out):
    """payload.json of one run of cfg into out."""
    art = run(cfg, out_root=str(out), echo=False)
    with open(art.payloads[0]) as f:
        return json.load(f)


class TestCoexistence:
    """The runner's coexistence statistics (expcli._run_compete): trial t
    is one compete() on the seed derive_seed(seed, t)."""

    def test_two_species_symmetric_often_coexist(self, tmp_path):
        config = compete_config([(-6, 0), (6, 0)], 12, 1, 20, 30)
        payload = run_payload(config, tmp_path)
        assert 0.0 <= payload["coexistence_fraction"] <= 1.0
        # symmetric seeds, generous threshold
        assert payload["coexistence_fraction"] > 0.5
        assert len(payload["per_trial"]) == 20

    def test_determinism(self, tmp_path):
        config = compete_config([(-6, 0), (6, 0)], 12, 1, 5, 30)
        a = payload_digests(config, str(tmp_path / "a"))
        assert set(a) == {"payload.json", "survival.csv"}
        assert payload_digests(config, str(tmp_path / "b")) == a

    def test_per_trial_sizes_and_ties_match_compete(self, tmp_path):
        atomic = mk_distribution(atoms=[(1.0, 0.5), (2.0, 0.5)])
        seeds = [(-5, 0), (5, 0), (0, 5)]
        config = compete_config(seeds, 10, 4, 4, 10, dist=atomic)
        rows = run_payload(config, tmp_path)["per_trial"]
        assert [r["trial"] for r in rows] == [0, 1, 2, 3]
        for t, r in enumerate(rows):
            occ = compete(cfg(seeds, W=10, dist=atomic,
                              seed=derive_seed(4, t)))
            assert r["sizes"] == [len(occ.region(i)) for i in range(3)]
            assert r["ties"] == len(occ.tie_set)
            assert r["alive"] == occ.survivors(10)
        assert sum(r["ties"] for r in rows) > 0  # atomic weights: ties occur

    def test_threshold_validation(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(compete_config([(0, 0)], 10, 0, 1, 0)))
        assert main(["compete", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()


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
