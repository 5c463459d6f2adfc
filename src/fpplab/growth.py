"""Richardson-type multi-species competition on a window.

k species grow simultaneously from seed sites through one shared
edge-weight field; a site belongs to the species whose seed is strictly
closest in passage time. Sites reached at exactly equal times form the
tie set and are never colonized under the strict policy.
"""

from dataclasses import dataclass

import numpy as np

from ._rng import derive_seed, hash_words
from .convex import ConvexShape, projection_coefficient, tangent_at
from .lattice import EdgeField, GridGraph, Window, round_site
from .measure import WeightDistribution

NONE_OWNER = -1
TIE_POLICIES = ("strict", "lexicographic", "random")


class GrowthError(ValueError):
    pass


@dataclass(frozen=True)
class CompetitionConfig:
    dist: WeightDistribution
    seeds: tuple  # k distinct sites
    window: Window
    tie_policy: str = "strict"
    seed: int = 0

    def __post_init__(self):
        if len(self.seeds) < 1:
            raise GrowthError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise GrowthError("seeds must be distinct")
        if self.tie_policy not in TIE_POLICIES:
            raise GrowthError("unknown tie policy %r" % (self.tie_policy,))
        for s in self.seeds:
            if not self.window.contains(s):
                raise GrowthError("seed %s outside window" % (s,))


@dataclass
class OccupancyMap:
    """Final colonization state: owner partition, reach times, tie set."""

    config: CompetitionConfig
    owner_grid: np.ndarray  # species index or NONE_OWNER
    reach_grid: np.ndarray  # min over species of the passage time
    tie_mask: np.ndarray

    def owner(self, s) -> int:
        w = self.config.window
        return int(self.owner_grid[s[0] - w.xmin, s[1] - w.ymin])

    def reach_time(self, s) -> float:
        w = self.config.window
        return float(self.reach_grid[s[0] - w.xmin, s[1] - w.ymin])

    @property
    def tie_set(self):
        w = self.config.window
        ii, jj = np.nonzero(self.tie_mask)
        return {(int(i) + w.xmin, int(j) + w.ymin) for i, j in zip(ii, jj)}

    def region_size(self, i) -> int:
        return int(np.count_nonzero(self.owner_grid == i))

    def region(self, i):
        w = self.config.window
        ii, jj = np.nonzero(self.owner_grid == i)
        return {(int(a) + w.xmin, int(b) + w.ymin) for a, b in zip(ii, jj)}

    def touches_boundary(self, i) -> bool:
        g = self.owner_grid
        return bool((g[0, :] == i).any() or (g[-1, :] == i).any()
                    or (g[:, 0] == i).any() or (g[:, -1] == i).any())

    def survivors(self, threshold) -> int:
        """Number of surviving species. Species i survives on the finite
        window when |C_i| >= threshold and C_i touches the window boundary
        (the desk-scale proxy for an infinite colonized set)."""
        return sum(1 for i in range(len(self.config.seeds))
                   if self.region_size(i) >= threshold
                   and self.touches_boundary(i))


def compete(config: CompetitionConfig) -> OccupancyMap:
    """Run the competition to termination on the window.

    owner(y) = argmin_i tau(y, x_i) when unique; equal minima follow the
    tie policy (strict: never colonized; lexicographic: lowest index;
    random: deterministic seeded choice per site). Tie detection uses
    exact float equality, which is meaningful because tied times arise as
    identical sums of identical atom values.
    """
    field = EdgeField(config.seed, config.dist)
    graph = GridGraph(field, config.window)
    dists = np.stack([graph.distances(s) for s in config.seeds])
    reach = dists.min(axis=0)
    is_min = dists == reach[None, :, :]
    n_min = is_min.sum(axis=0)
    owner = np.asarray(is_min.argmax(axis=0), dtype=np.int64)
    tie = n_min > 1
    if config.tie_policy == "strict":
        owner[tie] = NONE_OWNER
    elif config.tie_policy == "random":
        w = config.window
        ii, jj = np.nonzero(tie)
        for i, j in zip(ii, jj):
            cands = np.flatnonzero(is_min[:, i, j])
            h = int(hash_words(config.seed, i + w.xmin, j + w.ymin, 7))
            owner[i, j] = cands[h % len(cands)]
    # lexicographic: argmax already picks the lowest tied index
    return OccupancyMap(config=config, owner_grid=owner, reach_grid=reach,
                        tie_mask=tie)


@dataclass(frozen=True)
class CoexistenceResult:
    fraction: float
    trials: int
    survivals: tuple  # per-trial count of surviving species

    def to_dict(self):
        return {"fraction": self.fraction, "trials": self.trials,
                "survivals": list(self.survivals)}


def coexistence_stats(config: CompetitionConfig, trials: int,
                      survival_threshold: int) -> CoexistenceResult:
    """Fraction of trials where every species survives
    (OccupancyMap.survivors).
    """
    if survival_threshold < 1:
        raise GrowthError("survival threshold must be >= 1")
    k = len(config.seeds)
    n_all = 0
    survivals = []
    for t in range(trials):
        cfg = CompetitionConfig(dist=config.dist, seeds=config.seeds,
                                window=config.window,
                                tie_policy=config.tie_policy,
                                seed=derive_seed(config.seed, t))
        alive = compete(cfg).survivors(survival_threshold)
        survivals.append(alive)
        if alive == k:
            n_all += 1
    return CoexistenceResult(fraction=n_all / trials, trials=trials,
                             survivals=tuple(survivals))


def place_seeds(shape: ConvexShape, extreme_dirs, R_seq):
    """Seed sites from boundary directions: x_1 = R_1 v_1 rounded, then
    x_{i+1} = x_i + R_i (v_{i+1} - v_i).

    extreme_dirs must be distinct boundary points ordered along the
    boundary; R_seq is one radius per step (or a scalar reused).
    """
    k = len(extreme_dirs)
    if len(set(extreme_dirs)) != k:
        raise GrowthError("directions must be distinct")
    if np.isscalar(R_seq):
        R_seq = [float(R_seq)] * k
    if any(r <= 0 for r in R_seq):
        raise GrowthError("all R_i must be > 0")
    if len(R_seq) < k:
        raise GrowthError("need a radius per seed")
    x = (R_seq[0] * extreme_dirs[0][0], R_seq[0] * extreme_dirs[0][1])
    sites = [round_site(x)]
    for i in range(1, k):
        v_prev, v = extreme_dirs[i - 1], extreme_dirs[i]
        x = (x[0] + R_seq[i] * (v[0] - v_prev[0]),
             x[1] + R_seq[i] * (v[1] - v_prev[1]))
        sites.append(round_site(x))
    if len(set(sites)) != k:
        raise GrowthError("rounded seeds collide; increase the radii")
    return sites


def seed_projections(shape: ConvexShape, extreme_dirs, sites):
    """Matrix of pi_{v_i}(x_i - x_j) values for placed seeds.

    Positive off-diagonal entries are the geometric separation condition
    behind Busemann-based coexistence arguments.
    """
    k = len(extreme_dirs)
    out = np.zeros((k, k))
    for i, v in enumerate(extreme_dirs):
        w = tangent_at(shape, v)
        for j in range(k):
            if i == j:
                continue
            d = (sites[i][0] - sites[j][0], sites[i][1] - sites[j][1])
            out[i, j] = projection_coefficient(v, w, d)
    return out
