"""Richardson-type multi-species competition on a window.

k species grow simultaneously from seed sites through one shared
edge-weight field; a site belongs to the species whose seed is strictly
closest in passage time. Sites reached at exactly equal times (passage
times are exact integer ticks) form the tie set and are never colonized
under the strict policy.

Each compete call is one competition on one field. The trials of a
coexistence estimate, each on its own field, and the fraction of them
in which every species survives are the runner's (expcli._run_compete).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._rng import hash_words
from .convex import ConvexShape
from .lattice import EdgeField, GridGraph, Window, round_site
from .measure import InputError, WeightDistribution

NONE_OWNER = -1
TIE_POLICIES = ("strict", "lexicographic", "random")


class GrowthError(InputError):
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
        """The owner of a window site; LatticeError for one off it."""
        return int(self.owner_grid.item(self.config.window.index(s)))

    @property
    def tie_set(self):
        return self.config.window.sites_of(self.tie_mask)

    @cached_property
    def sizes(self):
        """The region size of every species, from one count of the owner
        grid (its NONE_OWNER sites go to a bin of their own)."""
        return np.bincount(self.owner_grid.reshape(-1) + 1,
                           minlength=len(self.config.seeds) + 1)[1:]

    def region(self, i):
        return self.config.window.sites_of(self.owner_grid == i)

    def touches_boundary(self, i) -> bool:
        return bool(np.any(self.owner_grid[self.config.window.rim] == i))

    def survivors(self, threshold) -> int:
        """Number of surviving species. Species i survives on the finite
        window when |C_i| >= threshold and C_i touches the window boundary
        (the desk-scale proxy for an infinite colonized set)."""
        return sum(1 for i, size in enumerate(self.sizes)
                   if size >= threshold and self.touches_boundary(i))


def compete(config: CompetitionConfig) -> OccupancyMap:
    """Run the competition to termination on the window.

    owner(y) = argmin_i tau(y, x_i) when unique; equal minima follow the
    tie policy (strict: never colonized; lexicographic: lowest index;
    random: deterministic seeded choice per site). Passage times are
    integer ticks (lattice), so ties are exact equalities.

    Every policy takes one multi-source solve from the seeds
    (GridGraph.minimisers): it gives the reach, and a breadth-first
    search per seed along the edges tight for that reach marks the sites
    where the seed attains it. A site ties exactly when two seeds do.
    """
    field = EdgeField(config.seed, config.dist)
    graph = GridGraph(field, config.window)
    reach, is_min = graph.minimisers(config.seeds)
    tie = is_min.sum(axis=0) > 1
    owner = np.asarray(is_min.argmax(axis=0), dtype=np.int64)
    if config.tie_policy == "strict":
        owner[tie] = NONE_OWNER
    elif config.tie_policy == "random":
        w = config.window
        ii, jj = np.nonzero(tie)
        cands = is_min[:, ii, jj]
        h = hash_words(config.seed, ii + w.xmin, jj + w.ymin, 7)
        n = cands.sum(axis=0, dtype=np.uint64)  # h % int64 rounds via float64
        owner[ii, jj] = (cands.cumsum(0, dtype=np.uint64) > h % n).argmax(0)
    return OccupancyMap(config=config, owner_grid=owner,
                        reach_grid=reach / field.dist.ticks_per_unit,
                        tie_mask=tie)


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
