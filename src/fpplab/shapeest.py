"""Empirical limit shapes from directional time constants.

The shape estimate samples first-quadrant directions, measures the
passage time to round(n * direction) over independent trials, averages
each direction's full dihedral orbit (lattice symmetry halves the
variance), and inverts: the boundary point in direction u is u / m(u).

Every trial is one call to lattice.solve_targets, which serves all
directions at once and returns exact lattice passage times: it sizes the
window from a monotone-path bound and the least edge weight, and doubles
it while the ball of radius max tau touches the boundary. No trial is
ever dropped; clipped_trials counts the trials whose first window was
regrown, which is 0 whenever the first window was the exact one.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._rng import derive_seed
from . import convex
from .convex import ConvexShape, hull, extreme_points, hausdorff, l1
from .lattice import EdgeField, round_site, solve_targets
from .measure import WeightDistribution, levy_distance


class ShapeEstimateError(ValueError):
    pass


@dataclass(frozen=True)
class DirectionPlan:
    """Sampling plan: first-quadrant angles, scale n, trials, seed."""

    angles: tuple
    n: int
    trials: int
    seed: int

    def __post_init__(self):
        if len(self.angles) < 3:
            raise ShapeEstimateError("need at least 3 directions")
        if self.n < 16:
            raise ShapeEstimateError("scale n must be >= 16")
        if self.trials < 1:
            raise ShapeEstimateError("need at least one trial")

    @classmethod
    def default(cls, D=17, n=200, trials=20, seed=0):
        return cls(angles=tuple(np.linspace(0.0, math.pi / 2, D)),
                   n=n, trials=trials, seed=seed)

    def to_dict(self):
        return {"angles": list(self.angles), "n": self.n,
                "trials": self.trials, "seed": self.seed}


def _unit_l1(theta):
    c, s = math.cos(theta), math.sin(theta)
    norm = abs(c) + abs(s)
    return (c / norm, s / norm)


_DIHEDRAL = (
    lambda x, y: (x, y), lambda x, y: (-x, y),
    lambda x, y: (x, -y), lambda x, y: (-x, -y),
    lambda x, y: (y, x), lambda x, y: (-y, x),
    lambda x, y: (y, -x), lambda x, y: (-y, -x),
)


@dataclass(frozen=True)
class ShapeEstimate:
    """Empirical limit shape with per-direction time constants."""

    shape: ConvexShape
    angles: tuple
    m_hat: tuple
    stderr: tuple
    clipped_trials: int  # trials whose first window was regrown
    dist: WeightDistribution
    n: int
    trials: int

    def to_dict(self):
        return {"shape": self.shape.to_dict(), "angles": list(self.angles),
                "m_hat": list(self.m_hat), "stderr": list(self.stderr),
                "clipped_trials": self.clipped_trials,
                "dist": self.dist.to_dict(), "n": self.n, "trials": self.trials}


def _trial_times(dist: WeightDistribution, targets, trials: int, seed: int):
    """Exact passage times from the origin to the targets, one row per
    trial, and the number of trials whose first window was regrown."""
    rows = []
    regrown = 0
    for t in range(trials):
        times, regrowths = solve_targets(
            EdgeField(derive_seed(seed, t), dist), (0, 0), targets)
        rows.append(times)
        regrown += int(regrowths > 0)
    return np.array(rows), regrown


def _mean_stderr(vals):
    se = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return float(vals.mean()), se


def time_constant(dist: WeightDistribution, direction, n: int, trials: int,
                  seed: int):
    """Directional time constant: mean of tau(0, round(n*dir))/n, stderr.

    Every trial's passage time is exact (lattice.solve_targets), and
    every trial enters the mean.
    """
    if direction[0] == 0 and direction[1] == 0:
        raise ShapeEstimateError("direction must be nonzero")
    target = round_site((n * direction[0], n * direction[1]))
    times, _ = _trial_times(dist, [target], trials, seed)
    return _mean_stderr(times[:, 0] / n)


def empirical_shape(dist: WeightDistribution, plan: DirectionPlan) -> ShapeEstimate:
    """Estimate the limit shape over the plan's directions.

    Each trial runs one source solve whose passage times serve every
    direction and its dihedral orbit; per-direction estimates are orbit
    averages over all trials, and the hull of the symmetrized boundary
    points is returned.
    """
    dirs = [_unit_l1(th) for th in plan.angles]
    n = plan.n
    orbits = [[round_site(g(n * u[0], n * u[1])) for g in _DIHEDRAL]
              for u in dirs]
    all_targets = sorted({t for orb in orbits for t in orb})
    pos = {s: i for i, s in enumerate(all_targets)}
    times, regrown = _trial_times(dist, all_targets, plan.trials, plan.seed)
    m_hat = []
    stderr = []
    for orb in orbits:
        idx = [pos[s] for s in orb]
        m, se = _mean_stderr(np.array([np.mean(row[idx]) / n
                                       for row in times]))
        m_hat.append(m)
        stderr.append(se)
    pts = []
    for k, u in enumerate(dirs):
        bx, by = u[0] / m_hat[k], u[1] / m_hat[k]
        for g in _DIHEDRAL:
            pts.append(g(bx, by))
    shape = hull(pts)
    return ShapeEstimate(shape=shape, angles=tuple(plan.angles),
                         m_hat=tuple(m_hat), stderr=tuple(stderr),
                         clipped_trials=regrown, dist=dist, n=n,
                         trials=plan.trials)


def sides_estimate(est, theta_stat: float) -> int:
    """Extreme-point count at the statistical angle tolerance theta_stat.

    theta_stat should exceed the noise-induced turning angles of the
    empirical hull (unlike the exact-geometry tolerance in convex.hull).
    """
    shape = est.shape if isinstance(est, ShapeEstimate) else est
    return len(extreme_points(shape, theta_stat))


def eps_density(est, eps: float, theta_stat: float = 1e-9) -> bool:
    """True iff counted extreme points are eps-dense in the hull boundary.

    Checked on a boundary discretization of step eps/10 in l1 arc length.
    """
    shape = est.shape if isinstance(est, ShapeEstimate) else est
    ext = extreme_points(shape, theta_stat)
    step = eps / 10.0
    for a, b in shape.edges():
        length = l1(a, b)
        k = max(1, int(math.ceil(length / step)))
        for i in range(k + 1):
            t = i / k
            p = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
            if min(l1(p, x) for x in ext) >= eps:
                return False
    return True


@dataclass(frozen=True)
class ContinuityProbe:
    d_hausdorff: np.ndarray
    d_levy: np.ndarray
    association: float  # correlation of paired pairwise distances


def continuity_probe(dists, plan: DirectionPlan) -> ContinuityProbe:
    """Pairwise Hausdorff distances of empirical shapes vs Levy distances.

    A positive association is the finite-sample echo of the continuity of
    the map from measures to limit shapes.
    """
    if len(dists) < 2:
        raise ShapeEstimateError("need at least 2 distributions")
    shapes = [empirical_shape(d, plan).shape for d in dists]
    k = len(dists)
    dh = np.zeros((k, k))
    dl = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            dh[i, j] = dh[j, i] = hausdorff(shapes[i], shapes[j])
            dl[i, j] = dl[j, i] = levy_distance(dists[i], dists[j])
    iu = np.triu_indices(k, 1)
    hv, lv = dh[iu], dl[iu]
    if len(hv) > 1 and hv.std() > 0 and lv.std() > 0:
        association = float(np.corrcoef(hv, lv)[0, 1])
    else:
        association = math.nan
    return ContinuityProbe(d_hausdorff=dh, d_levy=dl, association=association)


def flat_edge_report(est: ShapeEstimate, alpha_rot: float, tol=0.02):
    """Detected vs predicted flat edge of an empirical shape."""
    predicted = convex.predicted_flat_edge(alpha_rot)
    return convex.flat_edge_intersection(est.shape, tol=tol, predicted=predicted)
