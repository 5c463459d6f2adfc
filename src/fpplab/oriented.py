"""Supercritical oriented bond percolation on Z^2.

Simulates clusters grown from the origin in the space-time frame (sites (x, n)
with x + n even, bonds to (x +/- 1, n + 1) open with probability p),
estimates the rightmost-site edge speed and the critical parameter, and
converts the speed to the rotated frame used by flat-edge predictions.

Level n holds the sites x = 2j - n for j = 0..n. The two bonds leaving
site j of level n in the cluster with seed s come from one counter hash,
h = hash_words(s, n << 32 | j): the left bond, to site j of level n + 1,
reads the low 32 bits of h and the right bond, to site j + 1, the high
32 bits. A bond is open iff its half is < ceil(p * 2^32), so p = 1 opens
every bond and p = 0 none. Trial t of an estimate with seed m grows from
s = derive_seed(m, t), so adding trials never changes earlier ones.

Every p of an estimate reads the same bonds: a site of level n >= 1 is in
the cluster at p iff its label, the least over paths from the origin of
the largest bond half on the path, is < ceil(p * 2^32). In this monotone
coupling survival and the rightmost site are monotone in p trial by trial.

An oriented run grows once: _grow takes the edge-speed p-values to level T
and the critical-parameter grid to level 2T over one label array. It
answers p = 1 exactly, without growth: every bond half is < 2^32, so the
cluster is the whole light cone, never dies, and r_T = T.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._rng import fold, hash_words, mix64


class OrientedError(ValueError):
    pass


@dataclass(frozen=True)
class OrientedRun:
    """One cluster growth: rightmost infected position per level."""

    p: float
    levels: int
    rightmost: np.ndarray  # r_0..r_d where d is the last infected level
    survived: bool


# where the low and the high 32-bit half of a uint64 sit in its uint32 view
_LO, _HI = (0, 1) if sys.byteorder == "little" else (1, 0)


def _threshold(p, T):
    """Validate (p, T); a bond is open iff its 32-bit half is below this."""
    if not 0.0 <= p <= 1.0:
        raise OrientedError("p must lie in [0, 1]")
    if T < 1:
        raise OrientedError("T must be >= 1")
    return math.ceil(p * 2.0 ** 32)


_FULL = 2 ** 32  # the threshold of p = 1, above every bond half


def _bonds(key, n, j):
    """(left, right) bond halves of the sites j of level n, as uint32.

    key is hash_words(s) of one seed s, or an (R, 1) column of them for R
    rows of bonds: hash_words(s, word) is fold(key, word), so the seeds
    are mixed once, not once per level.
    """
    h = fold(key, (n << 32) | j)
    u = h.view(np.uint32).reshape(h.shape + (2,))
    return u[..., _LO], u[..., _HI]


def oriented_cluster(p: float, T: int, seed: int) -> OrientedRun:
    """Grow one oriented cluster from the origin for up to T levels.

    The one-cluster reference for _grow, which reads the same bonds.
    """
    thr = _threshold(p, T)
    key = hash_words(seed)
    alive = np.ones(1, dtype=bool)
    rightmost = [0]
    for n in range(T):
        left, right = _bonds(key, n, np.arange(n + 1))
        nxt = np.zeros(n + 2, dtype=bool)
        nxt[:-1] = alive & (left < thr)
        nxt[1:] |= alive & (right < thr)
        if not nxt.any():
            return OrientedRun(p, T, np.array(rightmost), False)
        alive = nxt
        idx = np.flatnonzero(alive)
        rightmost.append(int(2 * idx[-1] - (n + 1)))
    return OrientedRun(p, T, np.array(rightmost), True)


def _grow(ps, T, trials, seed, grid=()):
    """Grow trials 0..trials-1 at every p in ps to level T, and at every p
    in grid to level 2T.

    Trial t at p is the cluster oriented_cluster(p, H, derive_seed(seed,
    t)), where the horizon H is T for ps and 2T for grid. Returns (died,
    r_T), two int64 arrays of one column per trial. died has a row per p
    of ps, then of grid: the level at which the cluster has no site left,
    or H + 1 if it reaches level H. r_T has a row per p of ps: the
    rightmost position at level T (0 if the cluster died by then).

    One growth of the labels (module docstring) to level 2T serves every
    row. Up to level T it hashes the bonds of the sites alive at the
    largest threshold of all rows, after it at the grid's largest. Least
    labels never decrease down the levels, nor suffix minima rightwards:
    they give died and r_T. A row at threshold 2^32 (p = 1) is answered
    exactly, and never hashes a bond or widens the window.
    """
    k = len(ps)
    thr = np.array([_threshold(p, T) for p in (*ps, *grid)],
                   dtype=np.int64)[:, None]
    cap = np.repeat([T + 1, 2 * T + 1], [k, len(grid)])[:, None]
    full = thr[:, 0] == _FULL

    def top_of(rows):  # the largest threshold below 2^32, or 0
        return int(rows[rows < _FULL].max(initial=0))

    top = top_of(thr)
    levels = 2 * T if top_of(thr[k:]) else T
    keys = mix64(hash_words(seed, np.arange(trials)))[:, None]
    # lab[i, j]: site j's label in trial live[i], exact if < top, else
    # >= top; 0xFFFFFFFF (unreached) is >= top, since top < 2^32.
    live = np.arange(trials)
    lab = np.full((trials, levels + 2), 0xFFFFFFFF, dtype=np.uint32)
    lab[:, 0] = 0
    least = np.zeros(trials, dtype=np.uint32)  # least label, last level
    died = np.ones((len(thr), trials), dtype=np.int64)
    r_T = np.zeros((k, trials), dtype=np.int64)
    lo = hi = 0  # level n's sites alive at top lie in columns lo..hi
    for n in range(levels + 1):
        if n == T:
            suf = np.minimum.accumulate(lab[:, lo:hi + 1][:, ::-1], axis=1)
            last = hi - np.count_nonzero(suf >= thr[:k, None], axis=2)
            r_T[:, live] = np.where(died[:k, live] > T, 2 * last - T, 0)
            top = top_of(thr[k:])
        keep = least[live] < top
        if not keep.all():
            live, lab = live[keep], lab[keep]
        if n == levels or not len(live):
            break
        cols = np.flatnonzero(lab[:, lo:hi + 1].min(axis=0) < top)
        lo, hi = lo + int(cols[0]), lo + int(cols[-1])
        left, right = _bonds(keys[live], n, np.arange(lo, hi + 1))
        cur, nxt = lab[:, lo:hi + 1], lab[:, lo + 1:hi + 2]
        to_right = np.maximum(cur, right)
        np.maximum(cur, left, out=cur)
        np.minimum(nxt, to_right, out=nxt)
        hi += 1
        least[live] = lab[:, lo:hi + 1].min(axis=1)
        died += least < thr
    # past level T a row of ps keeps counting: it reached its horizon
    np.minimum(died, cap, out=died)
    died[full] = cap[full]
    r_T[full[:k]] = T
    return died, r_T


def estimate_alpha(p: float, T: int, trials: int, seed: int):
    """Edge speed: (mean of r_T / T over surviving runs, stderr, dead runs).

    The speed is defined for the supercritical surviving cluster, so the
    mean is over the runs that reach level T; the number of runs that
    died before it is returned with it. Raises if every run dies.
    """
    return alpha_and_pc([p], None, T, trials, seed)[0][0]


def alpha_rotated(alpha_st: float) -> float:
    """Convert the space-time-frame speed to the rotated-frame speed.

    Normalized so that p = 1 (speed 1) yields the full flat edge with
    endpoint (1, 0): alpha_rot = alpha_st / sqrt(2).
    """
    if not 0.0 <= alpha_st <= 1.0 + 1e-12:
        raise OrientedError("alpha %g outside [0, 1]" % alpha_st)
    return alpha_st / math.sqrt(2.0)


def _survival(died, T):
    return tuple(np.count_nonzero(died > h, axis=1) / died.shape[1]
                 for h in (T, 2 * T))


_PC_SURVIVAL = 0.5  # the survival fraction whose crossing locates p_c


def _crossing(p_grid, surv):
    p_grid = np.asarray(p_grid, dtype=float)
    if surv[0] >= _PC_SURVIVAL:
        raise OrientedError(
            "survival %.3f already >= %.2f at the grid bottom: critical "
            "point below the grid" % (surv[0], _PC_SURVIVAL))
    if surv[-1] < _PC_SURVIVAL:
        raise OrientedError(
            "survival %.3f < %.2f at the grid top: critical point above "
            "the grid" % (surv[-1], _PC_SURVIVAL))
    i = int(np.argmax(surv >= _PC_SURVIVAL))
    p0, p1 = p_grid[i - 1], p_grid[i]
    s0, s1 = surv[i - 1], surv[i]
    if s1 == s0:
        return float(p1)
    return float(p0 + (_PC_SURVIVAL - s0) / (s1 - s0) * (p1 - p0))


@dataclass(frozen=True)
class PcEstimate:
    p_hat: float
    crossing_T: float
    crossing_2T: float
    surv_T: np.ndarray
    surv_2T: np.ndarray
    p_grid: tuple


def estimate_pc(p_grid, T: int, trials: int, seed: int) -> PcEstimate:
    """Critical-parameter estimate from survival-threshold crossings.

    The survival curve at horizon T crosses 1/2 at c_T; the
    finite-horizon refinement compares c_T with c_2T and backs the drift
    out: p_hat = c_T - (c_2T - c_T). Raises a bracketing error when the
    grid does not straddle the crossing.
    """
    return alpha_and_pc((), p_grid, T, trials, seed)[1]


def alpha_and_pc(p_values, pc_grid, T: int, trials: int, seed: int):
    """estimate_alpha(p, T, trials, seed) for each p in p_values and
    estimate_pc(pc_grid, T, trials, seed), from one growth to level
    2T.

    pc_grid may be None, and then so is the second result.
    """
    if pc_grid is not None:
        pc_grid = tuple(float(p) for p in pc_grid)
        if len(pc_grid) < 2:
            raise OrientedError("grid needs two points to bracket a crossing")
        if any(not 0.0 < p < 1.0 for p in pc_grid):
            raise OrientedError("grid must lie inside (0, 1)")
    died, r_T = _grow(p_values, T, trials, seed, pc_grid or ())
    alphas = []
    for p, d, r in zip(p_values, died, r_T):
        speeds = r[d > T] / T
        if not len(speeds):
            raise OrientedError(
                "all %d runs died at p=%g, T=%d (p or T too small)"
                % (trials, p, T))
        stderr = (float(speeds.std(ddof=1) / math.sqrt(len(speeds)))
                  if len(speeds) > 1 else 0.0)
        alphas.append((float(speeds.mean()), stderr, trials - len(speeds)))
    if pc_grid is None:
        return alphas, None
    surv_T, surv_2T = _survival(died[len(p_values):], T)
    c1 = _crossing(pc_grid, surv_T)
    c2 = _crossing(pc_grid, surv_2T)
    return alphas, PcEstimate(p_hat=c1 - (c2 - c1), crossing_T=c1,
                              crossing_2T=c2, surv_T=surv_T, surv_2T=surv_2T,
                              p_grid=pc_grid)
