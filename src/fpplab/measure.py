"""Edge-weight distributions: finite mixtures of atoms and uniform pieces.

A WeightDistribution is an exact symbolic mixture on [0, infinity): a list
of atoms (location, mass) plus a list of uniform pieces ([a, b), mass).
All measure arithmetic works directly on this representation; nothing is
ever histogrammed. The module also provides the staged mass-moving
construction (move mass r from the atom at 1 out to y at each stage) and
an exactly computed Levy distance between mixtures.

Solvers see a law on an integer grid: every weight is a whole number of
ticks, 1/D each. A purely atomic law takes D = the lcm of its atoms'
denominators (the atoms rationalized with a bounded denominator; D = 10
for 1, 1.6, 2, 2.5, 3), so its weights are its atoms exactly. A law with
pieces takes D = d * 2^32, d the lcm over its atoms and piece ends, and
rounds each continuous value down onto that grid. Sums of ticks are
exact in float64 below 2^53, so equal passage times compare equal.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

BOND_PC = 0.5  # critical probability for bond percolation on Z^2
_MASS_TOL = 1e-12
MAX_DENOMINATOR = 10**6  # bound for rationalizing atoms and piece ends
PIECE_TICKS = 2**32      # ticks per 1/d of a law with pieces
TICK_LIMIT = 2**53       # float64 adds integers exactly below this


class InputError(ValueError):
    """An input refused; the experiment runner reports it as a config error."""


class DistributionError(InputError):
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

    def min_support(self):
        lo = min([x for x, _ in self.atoms] + [a for a, _, _ in self.pieces])
        return lo

    def max_support(self):
        return max([x for x, _ in self.atoms] + [b for _, b, _ in self.pieces])

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

    # -- ticks -----------------------------------------------------------

    @cached_property
    def ticks_per_unit(self):
        """D: every weight of the law is a whole number of ticks 1/D.

        Raises DistributionError when an atom or piece end is not a ratio
        with denominator at most MAX_DENOMINATOR (one that rounds to the
        float exactly), or when the largest weight reaches 2^53 ticks.
        """
        d = 1
        for x in self.breakpoints():
            r = Fraction(x).limit_denominator(MAX_DENOMINATOR)
            if float(r) != x:
                raise DistributionError(
                    "%r is not a ratio with denominator <= %d"
                    % (x, MAX_DENOMINATOR))
            d = math.lcm(d, r.denominator)
        D = d * PIECE_TICKS if self.pieces else d
        if Fraction(max(self.max_support(), 1.0)) * D >= TICK_LIMIT:
            raise DistributionError("weights of %s reach 2^53 ticks" % self)
        return D

    def tick(self, x):
        """x, an atom or piece end of the law, in ticks."""
        r = Fraction(x).limit_denominator(MAX_DENOMINATOR) * self.ticks_per_unit
        if r.denominator != 1:
            raise DistributionError("%r is not on the law's tick grid" % x)
        return r.numerator

    # -- quantiles -----------------------------------------------------

    def _components(self):
        comps = [(loc, loc, m, True) for loc, m in self.atoms]
        comps += [(a, b, m, False) for a, b, m in self.pieces]
        comps.sort(key=lambda c: (c[0], c[1]))
        return comps

    @cached_property
    def _tick_table(self):
        """Per component, sorted: the start of its mass, its mass, its
        first tick and that tick in real units, its width in ticks and its
        last tick's offset. Ticks are whole numbers held in float64."""
        comps = self._components()
        starts = np.cumsum([0.0] + [c[2] for c in comps[:-1]])
        mass = np.array([c[2] for c in comps])
        lo = np.array([float(self.tick(c[0])) for c in comps])
        span = np.array([float(self.tick(c[1])) for c in comps]) - lo
        return (starts, mass, lo, lo / self.ticks_per_unit, span,
                np.maximum(span - 1, 0.0))

    def quantile(self, u, ticks=False):
        """Generalized inverse CDF; u may be a scalar or an array in [0,1).

        The value is in ticks with ticks=True (whole numbers, held exactly
        in float64 as the solvers add them; an int for a scalar u), else in
        real units, ticks / D: for an atom that is the atom's float
        exactly. A piece [a, b) takes the tick at or below its exact
        quantile, so each of its (b - a) D ticks is about equally likely
        and every value lies in [a, b).
        """
        u_arr = np.asarray(u, dtype=float)
        # written so that NaN fails too
        if u_arr.size and not (u_arr.min() >= 0 and u_arr.max() < 1):
            raise ValueError("quantile argument must lie in [0, 1)")
        starts, mass, lo, real, span, last = self._tick_table
        flat = u_arr.reshape(-1)
        # u's component is the count of the starts after the first that
        # u reaches, equal starts included, as searchsorted(starts, u,
        # "right") - 1 gives it: one pass per component, which beats the
        # binary search up to ~250 components, in the least unsigned type
        # that holds the count
        idx = np.zeros(flat.shape, np.min_scalar_type(len(starts) - 1))
        for start in starts[1:]:
            idx += flat >= start
        idx = idx.astype(np.intp)
        if not self.pieces:
            # one gather, of the atoms' ticks or of their floats
            out = (lo if ticks else real)[idx]
        else:
            # atoms have zero span: the step adds exactly 0 to them
            out = lo[idx]
            step = flat - starts[idx]
            step /= mass[idx]
            step *= span[idx]
            np.floor(step, out=step)
            np.minimum(step, last[idx], out=step)
            out += step
            if not ticks:
                out = out / self.ticks_per_unit
        if np.isscalar(u) or u_arr.ndim == 0:
            return int(out[0]) if ticks else float(out[0])
        return out.reshape(u_arr.shape)

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


def in_q_support(dist: WeightDistribution, w):
    """Vectorized membership of weights in the support of the continuous
    part (the set Q)."""
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
    """Schedule for the staged mass-moving construction: one stage per
    entry of p_seq, so N = len(p_seq).

    p0:     initial mass of the atom at 1
    p_seq:  strictly decreasing targets for the atom mass, below p0
    y_seq:  strictly decreasing placement points > 1 for the moved mass,
            one per stage
    spread: half-width h >= 0; if positive the moved mass becomes a
            uniform piece on [y - h, y + h) instead of an atom at y
    """

    p0: float
    p_seq: tuple
    y_seq: tuple
    spread: float = 0.0

    def __post_init__(self):
        if not 0 < self.p0 <= 1:
            raise DistributionError("p0 %g outside (0, 1]" % self.p0)
        if len(self.y_seq) != len(self.p_seq):
            raise DistributionError("y_seq has %d entries, p_seq %d"
                                    % (len(self.y_seq), len(self.p_seq)))
        prev = self.p0
        for p in self.p_seq:
            if not 0 < p < prev:
                raise DistributionError("p_seq not strictly decreasing below p0")
            prev = p
        prev = float("inf")
        for y in self.y_seq:
            if not 1 < y < prev:
                raise DistributionError("y_seq not strictly decreasing above 1")
            prev = y
        if self.spread < 0:
            raise DistributionError("spread must be >= 0")

    @classmethod
    def from_dict(cls, d):
        return cls(p0=d["p0"], p_seq=tuple(d["p_seq"]), y_seq=tuple(d["y_seq"]),
                   spread=d.get("spread", 0.0))


def construct_sequence(base: WeightDistribution,
                       schedule: ConstructionSchedule):
    """Run the staged construction, returning [mu_0, ..., mu_N].

    Stage n moves mass r_n = p_{n-1} - p_n from the atom at 1 to an atom
    at y_n (or, with spread h > 0, to a uniform piece on [y_n-h, y_n+h)).
    Each output keeps total mass 1, up to float rounding, no mass below 1
    and mass exactly p_n at 1: the atom at 1 is set to p_n, not reduced
    by r_n, so it stays, since every p_n > 0, however small.
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
    for n, (p_n, y) in enumerate(zip(schedule.p_seq, schedule.y_seq)):
        r = p_prev - p_n
        if h > 0 and y - h < 1.0:
            raise DistributionError("piece around y_%d extends below 1" % (n + 1))
        atoms = {loc: m for loc, m in cur.atoms}
        atoms[1.0] = p_n
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
