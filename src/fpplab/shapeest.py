"""Empirical limit shapes from directional time constants.

The shape estimate samples equally spaced first-quadrant directions,
from angle 0 to pi/2, measures the passage time to round(n * direction)
over independent trials, averages each direction's full dihedral orbit
(lattice symmetry halves the variance), and inverts: the boundary point
in direction u is u / m(u).

All trials of an estimate go to one lattice.solve_targets call, which
serves every direction at once and returns exact lattice passage times.
Each trial is solved on an l1 diamond around the origin and certified
after the solve at the diamond's exit edges: a path to a target that
leaves the diamond first crosses from a boundary site y to a site z
outside, and costs at least the time of y, plus the least edge weight
a_min for each step from y to z and on to the target. The first trial's
radius is L + ceil(L^(1/3)), L the targets' largest l1 norm, and each
later trial starts at the radius the trial before it ended at; a
diamond grows while the certificate fails. A one-atom law is solved by
its l1 distances, with no diamond. No trial is ever dropped;
clipped_trials counts the trials whose first diamond failed the
certificate.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._rng import derive_seed
from . import convex
from .convex import ConvexShape, hull, extreme_points, l1
from .lattice import EdgeField, round_site, solve_targets
from .measure import WeightDistribution


class ShapeEstimateError(ValueError):
    pass


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
    clipped_trials: int  # trials whose first diamond failed the certificate
    dist: WeightDistribution
    n: int
    trials: int

    def to_dict(self):
        return {"shape": self.shape.to_dict(), "angles": list(self.angles),
                "m_hat": list(self.m_hat), "stderr": list(self.stderr),
                "clipped_trials": self.clipped_trials,
                "dist": self.dist.to_dict(), "n": self.n, "trials": self.trials}


def _fields(dist: WeightDistribution, trials: int, seed: int):
    """The trials' independent fields: trial t reads derive_seed(seed, t)."""
    return [EdgeField(derive_seed(seed, t), dist) for t in range(trials)]


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
    times, _ = solve_targets(_fields(dist, trials, seed), (0, 0), [target])
    return _mean_stderr(times[:, 0] / n)


def empirical_shape(dist: WeightDistribution, directions: int, n: int,
                    trials: int, seed: int) -> ShapeEstimate:
    """Estimate the limit shape at directions >= 3 equally spaced angles
    from 0 to pi/2, at scale n >= 16, over trials >= 1 fields.

    Each trial runs one source solve whose passage times serve every
    direction and its dihedral orbit; per-direction estimates are orbit
    averages over all trials, and the hull of the symmetrized boundary
    points is returned.
    """
    if directions < 3:
        raise ShapeEstimateError("need at least 3 directions")
    if n < 16:
        raise ShapeEstimateError("scale n must be >= 16")
    if trials < 1:
        raise ShapeEstimateError("need at least one trial")
    angles = tuple(np.linspace(0.0, math.pi / 2, directions))
    dirs = [_unit_l1(th) for th in angles]
    orbits = [[round_site(g(n * u[0], n * u[1])) for g in _DIHEDRAL]
              for u in dirs]
    all_targets = sorted({t for orb in orbits for t in orb})
    pos = {s: i for i, s in enumerate(all_targets)}
    times, regrown = solve_targets(_fields(dist, trials, seed),
                                   (0, 0), all_targets)
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
    return ShapeEstimate(shape=shape, angles=angles,
                         m_hat=tuple(m_hat), stderr=tuple(stderr),
                         clipped_trials=regrown, dist=dist, n=n,
                         trials=trials)


def sides_estimate(est: ShapeEstimate, theta_stat: float) -> int:
    """Extreme-point count at the statistical angle tolerance theta_stat.

    theta_stat should exceed the noise-induced turning angles of the
    empirical hull (unlike the exact-geometry tolerance in convex.hull).
    """
    return len(extreme_points(est.shape, theta_stat))


def eps_density(shape: ConvexShape, eps: float) -> bool:
    """True iff counted extreme points are eps-dense in the boundary of a
    convex shape, such as a ShapeEstimate's shape.

    Checked on a boundary discretization of step eps/10 in l1 arc length.
    """
    ext = extreme_points(shape)
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


def flat_edge_report(est: ShapeEstimate, alpha_rot: float, tol=0.02):
    """Detected vs predicted flat edge of an empirical shape."""
    predicted = convex.predicted_flat_edge(alpha_rot)
    return convex.flat_edge_intersection(est.shape, tol=tol, predicted=predicted)
