import math

import numpy as np
import pytest

from fpplab import oriented
from fpplab._rng import derive_seed, hash_words
from fpplab.expcli import run
from fpplab.oriented import (OrientedError, _bonds, _grow, _survival,
                             _threshold, alpha_and_pc, alpha_rotated,
                             estimate_alpha, oriented_cluster)


def reference(p, T, trials, seed):
    """(died, r_T) of each trial from the one-cluster reference."""
    died, r_T = [], []
    for t in range(trials):
        run = oriented_cluster(p, T, derive_seed(seed, t))
        died.append(T + 1 if run.survived else len(run.rightmost))
        r_T.append(int(run.rightmost[-1]) if run.survived else 0)
    return died, r_T


class TestCluster:
    def test_p_one_fills_everything(self):
        run = oriented_cluster(1.0, 50, seed=0)
        assert run.survived
        assert run.rightmost[-1] == 50
        assert np.array_equal(run.rightmost, np.arange(51))

    def test_p_zero_dies_immediately(self):
        run = oriented_cluster(0.0, 10, seed=0)
        assert not run.survived
        assert len(run.rightmost) == 1  # only the origin, at level 0

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
        with pytest.raises(OrientedError):
            alpha_and_pc([0.5, 1.5], None, 10, 5, 0)


class TestBatched:
    PS = (0.0, 0.5, 0.66, 0.8, 1.0)

    @pytest.mark.parametrize("seed", [3, 12])
    def test_matches_reference_run_by_run(self, seed):
        T, trials = 70, 40
        died, r_T = _grow(self.PS, T, trials, seed)
        for k, p in enumerate(self.PS):
            ref = reference(p, T, trials, seed)
            assert died[k].tolist() == ref[0]
            assert r_T[k].tolist() == ref[1]
            # alone, p grows the same clusters (other rows die sooner)
            alone = _grow([p], T, trials, seed)
            assert np.array_equal(alone[0][0], died[k])
            assert np.array_equal(alone[1][0], r_T[k])

    def test_coupling_monotone_in_p(self):
        died, r_T = _grow(self.PS, 100, 60, seed=9)
        assert np.all(np.diff(died, axis=0) >= 0)
        # a survivor's cluster lies inside its cluster at any larger p
        surv = died == 101
        assert np.all(np.diff(r_T, axis=0)[surv[:-1] & surv[1:]] >= 0)

    def test_trials_are_prefix_stable(self):
        small = _grow((0.6, 0.7), 50, 10, seed=1)
        large = _grow((0.6, 0.7), 50, 25, seed=1)
        assert np.array_equal(small[0], large[0][:, :10])
        assert np.array_equal(small[1], large[1][:, :10])

    def test_alpha_estimates_match_single_calls(self):
        ps = [0.7, 0.8, 1.0]
        assert alpha_and_pc(ps, None, 80, 30, 2)[0] == [
            estimate_alpha(p, 80, 30, 2) for p in ps]


def spy_bonds(monkeypatch, seed, trials):
    """Record the level of each _bonds call, checking that its keys are a
    column of premixed trial seeds, hash_words(derive_seed(seed, t))."""
    keys = {int(hash_words(derive_seed(seed, t))) for t in range(trials)}
    calls = []

    def spy(key, n, j):
        assert key.shape == (len(key), 1) and len(key) > 0
        assert set(key[:, 0].tolist()) <= keys
        calls.append(n)
        return _bonds(key, n, j)

    monkeypatch.setattr(oriented, "_bonds", spy)
    return calls


def assert_matches_reference(ps, T, trials, seed):
    died, r_T = _grow(ps, T, trials, seed)
    for k, p in enumerate(ps):
        ref = reference(p, T, trials, seed)
        assert died[k].tolist() == ref[0]
        assert r_T[k].tolist() == ref[1]
    return died, r_T


class TestLabels:
    """_grow reads every p off one minimax label per site and trial."""

    def test_p_on_each_side_of_a_bond_half(self):
        # trial 0's two bonds out of the origin; at p = h / 2^32 the
        # lower, h, is closed (h < h fails), at (h + 1) / 2^32 it is open
        left, right = _bonds(hash_words(derive_seed(5, 0)), 0,
                             np.arange(1))
        h = int(min(left[0], right[0]))
        ps = (h / 2.0 ** 32, (h + 1) / 2.0 ** 32)
        assert [_threshold(p, 1) for p in ps] == [h, h + 1]
        died, _ = assert_matches_reference(ps, 6, 12, seed=5)
        assert died[0, 0] == 1 < died[1, 0]

    def test_threshold_two_to_the_32_below_one(self):
        # p = 1 - 2^-33 opens every bond, as p = 1 does, while a smaller
        # p shares the growth
        p = 1 - 2.0 ** -33
        assert p < 1 and _threshold(p, 1) == 2 ** 32
        died, r_T = assert_matches_reference((0.6, p), 40, 15, seed=2)
        assert np.all(died[1] == 41) and np.all(r_T[1] == 40)

    def test_fine_grid_p_by_p(self):
        grid = np.arange(0.60, 0.7001, 0.005)
        assert len(grid) == 21
        died, _ = assert_matches_reference(grid, 60, 30, seed=13)
        # the grid spans deaths and survivals
        assert 0 < np.count_nonzero(died > 60) < died.size

    @pytest.mark.parametrize("p_top", [0.55, 0.7])
    def test_one_hash_per_level_whatever_the_grid(self, monkeypatch,
                                                  p_top):
        T, trials = 120, 20
        calls = spy_bonds(monkeypatch, 8, trials)
        levels = []
        for ps in ([p_top], np.linspace(p_top - 0.2, p_top, 21)):
            calls.clear()
            died, _ = _grow(ps, T, trials, seed=8)
            # level n is grown while some trial is alive at the top p
            assert calls == list(range(min(int(died[-1].max()), T)))
            levels.append(len(calls))
        assert levels[0] == levels[1]


class TestAlpha:
    def test_alpha_one_exact(self):
        a, se, dead = estimate_alpha(1.0, 200, 20, seed=0)
        assert a == 1.0
        assert se == 0.0
        assert dead == 0

    def test_dead_runs_counted(self):
        # every cluster oriented_cluster(0.66, 400, derive_seed(4, t))
        # that dies before level 400 is counted
        died, _ = reference(0.66, 400, 200, 4)
        dead = sum(d <= 400 for d in died)
        assert 0 < dead < 200
        assert estimate_alpha(0.66, 400, 200, 4)[2] == dead

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
        s_T, s_2T = _survival(_grow((), 100, 200, 7, grid)[0], 100)
        assert np.all(np.diff(s_T) >= 0)
        # longer horizon can only lose clusters
        assert np.all(s_2T <= s_T + 1e-12)

    def test_pc_estimate_in_range(self):
        grid = np.arange(0.58, 0.76, 0.02)
        _, est = alpha_and_pc((), grid, 200, 200, seed=11)
        assert 0.60 < est.p_hat < 0.70
        assert est.crossing_2T >= est.crossing_T - 0.02

    def test_bracketing_errors(self):
        with pytest.raises(OrientedError):
            # crossing below grid
            alpha_and_pc((), [0.9, 0.95], 50, 50, seed=0)
        with pytest.raises(OrientedError):
            # crossing above grid
            alpha_and_pc((), [0.05, 0.1], 50, 50, seed=0)
        with pytest.raises(OrientedError):
            # grid outside (0,1)
            alpha_and_pc((), [0.0, 0.5], 50, 50, seed=0)


class TestOneGrowth:
    """alpha_and_pc grows the p-values to T and the grid to 2T at once."""

    PS = (0.66, 0.72, 0.8, 0.9, 1.0)

    @pytest.mark.parametrize("grid", [
        (0.62, 0.66, 0.70, 0.95),  # top above the p-values below 1
        (0.58, 0.62, 0.64, 0.66, 0.68, 0.70, 0.72),  # top below them
    ])
    def test_equals_separate_calls(self, grid):
        T, trials, seed = 80, 120, 4
        alphas, pc = alpha_and_pc(self.PS, grid, T, trials, seed)
        assert alphas == [estimate_alpha(p, T, trials, seed)
                          for p in self.PS]
        _, alone = alpha_and_pc((), grid, T, trials, seed)
        for key in ("p_hat", "crossing_T", "crossing_2T", "p_grid"):
            assert getattr(pc, key) == getattr(alone, key)
        assert np.array_equal(pc.surv_T, alone.surv_T)
        assert np.array_equal(pc.surv_2T, alone.surv_2T)

    @pytest.mark.parametrize("ps", [PS, (1.0,)])
    def test_without_a_grid(self, ps):
        alphas, pc = alpha_and_pc(ps, None, 60, 40, 3)
        assert pc is None
        assert alphas == [estimate_alpha(p, 60, 40, 3) for p in ps]

    @pytest.mark.parametrize("grid", [(), (0.65,)])
    def test_grid_too_short_refused_as_alone(self, grid):
        with pytest.raises(OrientedError) as alone:
            alpha_and_pc((), grid, 40, 20, 1)
        with pytest.raises(OrientedError) as shared:
            alpha_and_pc(self.PS, grid, 40, 20, 1)
        assert str(shared.value) == str(alone.value)

    def test_grid_rows_match_reference_to_2T(self):
        ps, grid, T, trials, seed = (0.7, 0.85), (0.6, 0.66, 0.75), 30, 40, 6
        died, r_T = _grow(ps, T, trials, seed, grid)
        assert r_T.shape == (len(ps), trials)
        for k, p in enumerate(ps + grid):
            horizon = T if k < len(ps) else 2 * T
            ref = reference(p, horizon, trials, seed)
            assert died[k].tolist() == ref[0]
            if k < len(ps):
                assert r_T[k].tolist() == ref[1]

    @pytest.mark.parametrize("ps, grid", [((1.0,), ()),
                                          ((1.0,), (1 - 2.0 ** -33,))])
    def test_p_one_alone_hashes_no_bonds(self, monkeypatch, ps, grid):
        calls = spy_bonds(monkeypatch, 2, 25)
        T = 200
        died, r_T = _grow(ps, T, 25, 2, grid)
        assert calls == []
        assert np.all(died[0] == T + 1) and np.all(r_T == T)
        assert np.all(died[1:] == 2 * T + 1)
        assert estimate_alpha(1.0, T, 25, 2) == (1.0, 0.0, 0)

    @pytest.mark.parametrize("grid, past_T", [((0.6, 0.64, 0.7), True),
                                              ((0.5, 0.55), False),
                                              ((0.62, 0.95), True)])
    def test_each_level_hashed_at_most_once_up_to_2T(self, monkeypatch,
                                                     grid, past_T):
        T, trials, seed = 60, 30, 8
        # up to level T the window follows the largest p below 1, then
        # the grid's largest
        top = max(p for p in self.PS + grid if p < 1)
        first = int(_grow([top], T, trials, seed)[0].max())
        last = int(_grow((), T, trials, seed, [max(grid)])[0].max())
        levels = first if first <= T else min(max(last, T), 2 * T)
        calls = spy_bonds(monkeypatch, seed, trials)
        _grow(self.PS, T, trials, seed, grid)
        assert calls == list(range(levels))
        # the subcritical grid dies out by level T and stops the growth
        assert (levels > T) == past_T

    def test_runner_grows_once(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(oriented, "_grow",
                            lambda *a: calls.append(a) or _grow(*a))
        cfg = {"kind": "oriented", "seed": 3, "trials": 40,
               "params": {"p_values": [0.7, 0.9, 1.0], "T": 40,
                          "pc_grid": [0.6, 0.65, 0.7]}}
        run(cfg, out_root=str(tmp_path), echo=False)
        assert len(calls) == 1
