"""Edge-weight distributions: finite mixtures of atoms and uniform pieces.

A WeightDistribution is an exact symbolic mixture on [0, infinity): a list
of atoms (location, mass) plus a list of uniform pieces ([a, b), mass).
All measure arithmetic works directly on this representation; nothing is
ever histogrammed. The module also provides the staged mass-moving
construction (move mass r from the atom at 1 out to y at each stage) and
an exactly computed Levy distance between mixtures.
"""

from dataclasses import dataclass

import numpy as np

BOND_PC = 0.5  # critical probability for bond percolation on Z^2
_MASS_TOL = 1e-12


class DistributionError(ValueError):
    pass


@dataclass(frozen=True)
class WeightDistribution:
    """Finite mixture of point masses and uniform pieces on [0, inf).

    atoms:  tuple of (location, mass)
    pieces: tuple of (a, b, mass), uniform density mass/(b-a) on [a, b)
    Immutable after construction; safe to share across threads.
    """

    atoms: tuple
    pieces: tuple

    # -- basic queries -------------------------------------------------

    def mass_at(self, loc):
        for x, m in self.atoms:
            if x == loc:
                return m
        return 0.0

    def mean(self):
        mu = sum(x * m for x, m in self.atoms)
        mu += sum(0.5 * (a + b) * m for a, b, m in self.pieces)
        return mu

    def min_support(self):
        lo = min([x for x, _ in self.atoms] + [a for a, _, _ in self.pieces])
        return lo

    def max_support(self):
        return max([x for x, _ in self.atoms] + [b for _, b, _ in self.pieces])

    def is_atomless(self):
        return not self.atoms

    def is_purely_atomic(self):
        return not self.pieces

    def cdf(self, x):
        """Exact CDF value F(x) (right-continuous)."""
        f = sum(m for loc, m in self.atoms if loc <= x)
        for a, b, m in self.pieces:
            if x >= b:
                f += m
            elif x > a:
                f += m * (x - a) / (b - a)
        return f

    def cdf_left(self, x):
        """Left limit F(x-)."""
        f = sum(m for loc, m in self.atoms if loc < x)
        for a, b, m in self.pieces:
            if x >= b:
                f += m
            elif x > a:
                f += m * (x - a) / (b - a)
        return f

    def breakpoints(self):
        """Sorted locations where the CDF jumps or changes slope."""
        pts = {loc for loc, _ in self.atoms}
        for a, b, _ in self.pieces:
            pts.add(a)
            pts.add(b)
        return sorted(pts)

    # -- quantiles -----------------------------------------------------

    def _components(self):
        comps = [(loc, loc, m, True) for loc, m in self.atoms]
        comps += [(a, b, m, False) for a, b, m in self.pieces]
        comps.sort(key=lambda c: (c[0], c[1]))
        return comps

    def quantile(self, u):
        """Generalized inverse CDF; u may be a scalar or an array in [0,1)."""
        u_arr = np.asarray(u, dtype=float)
        if np.any(u_arr < 0) or np.any(u_arr >= 1):
            raise ValueError("quantile argument must lie in [0, 1)")
        comps = self._components()
        starts = np.cumsum([0.0] + [c[2] for c in comps[:-1]])
        lo = np.array([c[0] for c in comps])
        hi = np.array([c[1] for c in comps])
        mass = np.array([c[2] for c in comps])
        idx = np.searchsorted(starts, u_arr, side="right") - 1
        idx = np.clip(idx, 0, len(comps) - 1)
        frac = (u_arr - starts[idx]) / mass[idx]
        out = lo[idx] + np.clip(frac, 0.0, 1.0) * (hi[idx] - lo[idx])
        if np.isscalar(u) or u_arr.ndim == 0:
            return float(out)
        return out

    # -- serialization -------------------------------------------------

    def to_dict(self):
        return {
            "atoms": [[loc, m] for loc, m in self.atoms],
            "pieces": [[a, b, m] for a, b, m in self.pieces],
        }

    @classmethod
    def from_dict(cls, d):
        return mk_distribution(
            [tuple(a) for a in d.get("atoms", [])],
            [tuple(p) for p in d.get("pieces", [])],
        )

    def __str__(self):
        parts = ["%.17g*d(%.17g)" % (m, x) for x, m in self.atoms]
        parts += ["%.17g*U[%.17g,%.17g)" % (m, a, b) for a, b, m in self.pieces]
        return " + ".join(parts) if parts else "(empty)"


def mk_distribution(atoms=(), pieces=()) -> WeightDistribution:
    """Validate raw component lists and return a canonical mixture.

    Raises DistributionError on: total mass != 1, negative locations,
    atom mass at 0 >= 1/2, duplicate atom locations, overlapping pieces.
    """
    atoms = [(float(x), float(m)) for x, m in atoms]
    pieces = [(float(a), float(b), float(m)) for a, b, m in pieces]
    for x, m in atoms:
        if x < 0:
            raise DistributionError("atom location %g is negative" % x)
        if not 0 < m <= 1:
            raise DistributionError("atom mass %g outside (0, 1]" % m)
    for a, b, m in pieces:
        if a < 0:
            raise DistributionError("piece start %g is negative" % a)
        if not a < b:
            raise DistributionError("piece [%g, %g) is empty" % (a, b))
        if not 0 < m <= 1:
            raise DistributionError("piece mass %g outside (0, 1]" % m)
    total = sum(m for _, m in atoms) + sum(m for _, _, m in pieces)
    if abs(total - 1.0) > _MASS_TOL:
        raise DistributionError("total mass %.17g != 1" % total)
    locs = [x for x, _ in atoms]
    if len(set(locs)) != len(locs):
        raise DistributionError("duplicate atom locations")
    pieces.sort()
    for (a1, b1, _), (a2, _, _) in zip(pieces, pieces[1:]):
        if a2 < b1:
            raise DistributionError(
                "pieces overlap: [%g, %g) and [%g, ...)" % (a1, b1, a2))
    mass_at_zero = sum(m for x, m in atoms if x == 0.0)
    if mass_at_zero >= BOND_PC:
        raise DistributionError(
            "mass at zero %g >= 1/2 (supercritical zero-weight cluster)"
            % mass_at_zero)
    atoms.sort()
    return WeightDistribution(tuple(atoms), tuple(pieces))


def point_mass(loc) -> WeightDistribution:
    return mk_distribution([(loc, 1.0)])


def q_support(dist: WeightDistribution):
    """Support intervals of the continuous part (the set Q).

    Empty iff the distribution is purely atomic. Edges whose weight falls
    in these intervals almost surely have unique weights.
    """
    return [(a, b) for a, b, _ in dist.pieces]


def in_q_support(dist: WeightDistribution, w):
    """Vectorized membership of weights in the continuous-support set."""
    w = np.asarray(w, dtype=float)
    member = np.zeros(w.shape, dtype=bool)
    for a, b, _ in dist.pieces:
        member |= (w >= a) & (w < b)
    return member


# ---------------------------------------------------------------------------
# Staged construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstructionSchedule:
    """Schedule for the staged mass-moving construction.

    p0:     initial mass of the atom at 1
    p_seq:  strictly decreasing targets for the atom mass, below p0
    y_seq:  strictly decreasing placement points > 1 for the moved mass
    stages: number of stages N to perform
    spread: half-width h >= 0; if positive the moved mass becomes a
            uniform piece on [y - h, y + h) instead of an atom at y
    """

    p0: float
    p_seq: tuple
    y_seq: tuple
    stages: int
    spread: float = 0.0

    def __post_init__(self):
        if not 0 < self.p0 <= 1:
            raise DistributionError("p0 %g outside (0, 1]" % self.p0)
        if self.stages < 0:
            raise DistributionError("stages must be >= 0")
        if len(self.p_seq) < self.stages or len(self.y_seq) < self.stages:
            raise DistributionError("p_seq/y_seq shorter than stages")
        prev = self.p0
        for p in self.p_seq[: self.stages]:
            if not 0 < p < prev:
                raise DistributionError("p_seq not strictly decreasing below p0")
            prev = p
        prev = float("inf")
        for y in self.y_seq[: self.stages]:
            if not 1 < y < prev:
                raise DistributionError("y_seq not strictly decreasing above 1")
            prev = y
        if self.spread < 0:
            raise DistributionError("spread must be >= 0")

    def to_dict(self):
        return {"p0": self.p0, "p_seq": list(self.p_seq),
                "y_seq": list(self.y_seq), "stages": self.stages,
                "spread": self.spread}

    @classmethod
    def from_dict(cls, d):
        return cls(p0=d["p0"], p_seq=tuple(d["p_seq"]), y_seq=tuple(d["y_seq"]),
                   stages=d.get("stages", len(d["p_seq"])),
                   spread=d.get("spread", 0.0))


def construct_sequence(base: WeightDistribution,
                       schedule: ConstructionSchedule):
    """Run the staged construction, returning [mu_0, ..., mu_N].

    Stage n moves mass r_n = p_{n-1} - p_n from the atom at 1 to an atom
    at y_n (or, with spread h > 0, to a uniform piece on [y_n-h, y_n+h)).
    Each output keeps total mass 1, mass exactly p_n at 1 and no mass
    below 1.
    """
    if abs(base.mass_at(1.0) - schedule.p0) > _MASS_TOL:
        raise DistributionError(
            "base atom at 1 has mass %.17g, schedule expects p0=%.17g"
            % (base.mass_at(1.0), schedule.p0))
    if base.min_support() < 1.0:
        raise DistributionError("base has mass below 1")
    seq = [base]
    cur = base
    p_prev = schedule.p0
    h = schedule.spread
    for n in range(schedule.stages):
        p_n = schedule.p_seq[n]
        y = schedule.y_seq[n]
        r = p_prev - p_n
        if r > cur.mass_at(1.0) + _MASS_TOL:
            raise DistributionError("stage %d moves more mass than the atom at 1 holds" % (n + 1))
        if y <= 1.0:
            raise DistributionError("y_%d = %g <= 1" % (n + 1, y))
        if h > 0 and y - h < 1.0:
            raise DistributionError("piece around y_%d extends below 1" % (n + 1))
        atoms = {loc: m for loc, m in cur.atoms}
        atoms[1.0] = atoms[1.0] - r
        if atoms[1.0] <= _MASS_TOL:
            del atoms[1.0]
        pieces = list(cur.pieces)
        if h > 0:
            pieces.append((y - h, y + h, r))
        else:
            atoms[y] = atoms.get(y, 0.0) + r
        cur = mk_distribution(sorted(atoms.items()), pieces)
        seq.append(cur)
        p_prev = p_n
    return seq


# ---------------------------------------------------------------------------
# Levy distance
# ---------------------------------------------------------------------------


def _t_star(dist: WeightDistribution, z):
    """Smallest t with F(t) + t >= z, walked exactly over breakpoints."""
    bps = dist.breakpoints()
    if not bps or z <= dist.cdf_left(bps[0]) + bps[0]:
        # region below the support: F = 0, so F(t)+t = t
        return min(z, bps[0]) if bps else z
    prev_t = bps[0]
    prev_psi = dist.cdf(bps[0]) + bps[0]
    if z <= prev_psi:
        return bps[0]
    for t in bps[1:]:
        psi_left = dist.cdf_left(t) + t
        if z <= psi_left:
            slope = (psi_left - prev_psi) / (t - prev_t)
            return prev_t + (z - prev_psi) / slope
        psi_right = dist.cdf(t) + t
        if z <= psi_right:
            return t
        prev_t, prev_psi = t, psi_right
    return z - 1.0  # beyond the support: F = 1


def _one_sided(F: WeightDistribution, G: WeightDistribution):
    """sup over x of the smallest eps with G(x) <= F(x + eps) + eps."""
    candidates = set(G.breakpoints())
    for b in F.breakpoints():
        for psi in (F.cdf_left(b) + b, F.cdf(b) + b):
            candidates.add(_t_star(G, psi))
    best = 0.0
    for x in candidates:
        for y in (G.cdf(x), G.cdf_left(x)):
            eps = _t_star(F, y + x) - x
            if eps > best:
                best = eps
    return best


def levy_distance(F: WeightDistribution, G: WeightDistribution) -> float:
    """Exact Levy distance between the CDFs of two finite mixtures.

    Computed over the finite breakpoint set; symmetric and zero iff the
    mixtures are equal as distributions.
    """
    return max(_one_sided(F, G), _one_sided(G, F))
