import math

import numpy as np
import pytest

from fpplab.oriented import (OrientedError, alpha_rotated, estimate_alpha,
                             estimate_pc, oriented_cluster, survival_curve)


class TestCluster:
    def test_p_one_fills_everything(self):
        run = oriented_cluster(1.0, 50, seed=0)
        assert run.survived
        assert run.rightmost[-1] == 50
        assert np.array_equal(run.rightmost, np.arange(51))

    def test_p_zero_dies_immediately(self):
        run = oriented_cluster(0.0, 10, seed=0)
        assert not run.survived
        assert run.died_level == 1

    def test_determinism(self):
        a = oriented_cluster(0.7, 100, seed=42)
        b = oriented_cluster(0.7, 100, seed=42)
        assert a.survived == b.survived
        assert np.array_equal(a.rightmost, b.rightmost)

    def test_parity_of_rightmost(self):
        # a level-n site has x + n even, so rightmost[n] + n is even
        run = oriented_cluster(0.8, 60, seed=3)
        for n, r in enumerate(run.rightmost):
            assert (r + n) % 2 == 0

    def test_speed_bounded_by_one(self):
        run = oriented_cluster(0.9, 80, seed=1)
        for n, r in enumerate(run.rightmost):
            assert abs(r) <= n

    def test_invalid_args(self):
        with pytest.raises(OrientedError):
            oriented_cluster(1.5, 10, 0)
        with pytest.raises(OrientedError):
            oriented_cluster(0.5, 0, 0)


class TestAlpha:
    def test_alpha_one_exact(self):
        a, se, dead = estimate_alpha(1.0, 200, 20, seed=0)
        assert a == 1.0
        assert se == 0.0
        assert dead == 0

    def test_dead_runs_counted(self):
        # 96 of the 200 clusters oriented_cluster(0.66, 400,
        # derive_seed(4, t)) die before level 400; none goes uncounted
        assert estimate_alpha(0.66, 400, 200, 4)[2] == 96

    def test_monotone_in_p(self):
        vals = {}
        for p in (0.7, 0.8, 0.9):
            vals[p] = estimate_alpha(p, 300, 150, seed=5)
        assert vals[0.7][0] < vals[0.8][0] < vals[0.9][0]
        # separation well beyond noise
        assert vals[0.8][0] - vals[0.7][0] > 3 * (vals[0.7][1] + vals[0.8][1])

    def test_all_dead_raises(self):
        with pytest.raises(OrientedError):
            estimate_alpha(0.1, 100, 20, seed=0)

    def test_rotation(self):
        assert alpha_rotated(1.0) == pytest.approx(math.sqrt(2) / 2)
        assert alpha_rotated(0.0) == 0.0
        with pytest.raises(OrientedError):
            alpha_rotated(1.5)


class TestCritical:
    def test_survival_monotone_in_p(self):
        grid = [0.55, 0.65, 0.75]
        s_T, s_2T = survival_curve(grid, 100, 200, seed=7)
        assert s_T[0] <= s_T[-1]
        # longer horizon can only lose clusters
        assert np.all(s_2T <= s_T + 1e-12)

    def test_pc_estimate_in_range(self):
        grid = np.arange(0.58, 0.76, 0.02)
        est = estimate_pc(grid, 200, 200, seed=11)
        assert 0.60 < est.p_hat < 0.70
        assert est.crossing_2T >= est.crossing_T - 0.02

    def test_bracketing_errors(self):
        with pytest.raises(OrientedError):
            estimate_pc([0.9, 0.95], 50, 50, seed=0)  # crossing below grid
        with pytest.raises(OrientedError):
            estimate_pc([0.05, 0.1], 50, 50, seed=0)  # crossing above grid
        with pytest.raises(OrientedError):
            estimate_pc([0.0, 0.5], 50, 50, seed=0)  # grid outside (0,1)
