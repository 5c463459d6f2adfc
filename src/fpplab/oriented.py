"""Supercritical oriented bond percolation on Z^2.

Simulates clusters grown from the origin in the space-time frame (sites (x, n)
with x + n even, bonds to (x +/- 1, n + 1) open with probability p),
estimates the rightmost-site edge speed and the critical parameter, and
converts the speed to the rotated frame used by flat-edge predictions.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._rng import derive_seed


class OrientedError(ValueError):
    pass


@dataclass(frozen=True)
class OrientedRun:
    """One cluster growth: rightmost infected position per level."""

    p: float
    levels: int
    rightmost: np.ndarray  # r_0..r_d where d is the last infected level
    survived: bool

    @property
    def died_level(self):
        return None if self.survived else len(self.rightmost)


def _rng_for(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed & (2**64 - 1))))


def oriented_cluster(p: float, T: int, seed: int) -> OrientedRun:
    """Grow one oriented cluster from the origin for up to T levels."""
    if not 0.0 <= p <= 1.0:
        raise OrientedError("p must lie in [0, 1]")
    if T < 1:
        raise OrientedError("T must be >= 1")
    rng = _rng_for(seed)
    # level n holds positions x = 2j - n for j = 0..n
    alive = np.ones(1, dtype=bool)
    rightmost = [0]
    for n in range(T):
        open_l = rng.random(n + 1) < p
        open_r = rng.random(n + 1) < p
        nxt = np.zeros(n + 2, dtype=bool)
        nxt[:-1] = alive & open_l
        nxt[1:] |= alive & open_r
        if not nxt.any():
            return OrientedRun(p, T, np.array(rightmost), False)
        alive = nxt
        idx = np.flatnonzero(alive)
        rightmost.append(int(2 * idx[-1] - (n + 1)))
    return OrientedRun(p, T, np.array(rightmost), True)


def estimate_alpha(p: float, T: int, trials: int, seed: int):
    """Edge speed: (mean of r_T / T over surviving runs, stderr, dead runs).

    The speed is defined for the supercritical surviving cluster, so the
    mean is over the runs that reach level T; the number of runs that
    died before it is returned with it. Raises if every run dies.
    """
    speeds = []
    for t in range(trials):
        run = oriented_cluster(p, T, derive_seed(seed, t))
        if run.survived:
            speeds.append(run.rightmost[-1] / T)
    if not speeds:
        raise OrientedError(
            "all %d runs died at p=%g, T=%d (p or T too small)" % (trials, p, T))
    speeds = np.array(speeds)
    mean = float(speeds.mean())
    stderr = float(speeds.std(ddof=1) / math.sqrt(len(speeds))) if len(speeds) > 1 else 0.0
    return mean, stderr, trials - len(speeds)


def alpha_rotated(alpha_st: float) -> float:
    """Convert the space-time-frame speed to the rotated-frame speed.

    Normalized so that p = 1 (speed 1) yields the full flat edge with
    endpoint (1, 0): alpha_rot = alpha_st / sqrt(2).
    """
    if not 0.0 <= alpha_st <= 1.0 + 1e-12:
        raise OrientedError("alpha %g outside [0, 1]" % alpha_st)
    return alpha_st / math.sqrt(2.0)


def survival_curve(p_grid, T: int, trials: int, seed: int):
    """Survival fractions at horizons T and 2T for each p in the grid.

    One batch of runs to horizon 2T serves both horizons: a run survives
    to T iff it has not died by level T.
    """
    surv_T = []
    surv_2T = []
    for i, p in enumerate(p_grid):
        alive_T = alive_2T = 0
        for t in range(trials):
            run = oriented_cluster(p, 2 * T, derive_seed(seed, i, t))
            d = run.died_level
            if d is None:
                alive_T += 1
                alive_2T += 1
            elif d > T:
                alive_T += 1
        surv_T.append(alive_T / trials)
        surv_2T.append(alive_2T / trials)
    return np.array(surv_T), np.array(surv_2T)


def _crossing(p_grid, surv, threshold):
    p_grid = np.asarray(p_grid, dtype=float)
    if surv[0] >= threshold:
        raise OrientedError(
            "survival %.3f already >= %.2f at the grid bottom: critical "
            "point below the grid" % (surv[0], threshold))
    if surv[-1] < threshold:
        raise OrientedError(
            "survival %.3f < %.2f at the grid top: critical point above "
            "the grid" % (surv[-1], threshold))
    i = int(np.argmax(surv >= threshold))
    p0, p1 = p_grid[i - 1], p_grid[i]
    s0, s1 = surv[i - 1], surv[i]
    if s1 == s0:
        return float(p1)
    return float(p0 + (threshold - s0) / (s1 - s0) * (p1 - p0))


@dataclass(frozen=True)
class PcEstimate:
    p_hat: float
    crossing_T: float
    crossing_2T: float
    surv_T: np.ndarray
    surv_2T: np.ndarray
    p_grid: tuple


def estimate_pc(p_grid, T: int, trials: int, seed: int,
                threshold: float = 0.5) -> PcEstimate:
    """Critical-parameter estimate from survival-threshold crossings.

    The survival curve at horizon T crosses the threshold at c_T; the
    finite-horizon refinement compares c_T with c_2T and backs the drift
    out: p_hat = c_T - (c_2T - c_T). Raises a bracketing error when the
    grid does not straddle the crossing.
    """
    p_grid = tuple(float(p) for p in p_grid)
    if any(not 0.0 < p < 1.0 for p in p_grid):
        raise OrientedError("grid must lie inside (0, 1)")
    surv_T, surv_2T = survival_curve(p_grid, T, trials, seed)
    c1 = _crossing(p_grid, surv_T, threshold)
    c2 = _crossing(p_grid, surv_2T, threshold)
    p_hat = c1 - (c2 - c1)
    return PcEstimate(p_hat=p_hat, crossing_T=c1, crossing_2T=c2,
                      surv_T=surv_T, surv_2T=surv_2T, p_grid=p_grid)
