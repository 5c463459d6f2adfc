import json
import math
from fractions import Fraction

import numpy as np
import pytest

from fpplab.measure import (ConstructionSchedule, DistributionError,
                            WeightDistribution, construct_sequence,
                            in_q_support, levy_distance, mk_distribution,
                            point_mass)


def uniform_piece(a, b):
    return mk_distribution(pieces=[(a, b, 1.0)])


class TestValidation:
    def test_total_mass_must_be_one(self):
        with pytest.raises(DistributionError):
            mk_distribution(atoms=[(1.0, 0.5)])
        with pytest.raises(DistributionError):
            mk_distribution(atoms=[(1.0, 0.7), (2.0, 0.7)])

    def test_zero_atom_mass_below_half(self):
        with pytest.raises(DistributionError):
            mk_distribution(atoms=[(0.0, 0.5), (1.0, 0.5)])
        # strictly below 1/2 is fine
        d = mk_distribution(atoms=[(0.0, 0.49), (1.0, 0.51)])
        assert d.mass_at(0.0) == 0.49

    def test_negative_location_rejected(self):
        with pytest.raises(DistributionError):
            mk_distribution(atoms=[(-1.0, 1.0)])
        with pytest.raises(DistributionError):
            mk_distribution(pieces=[(-0.5, 1.0, 1.0)])

    def test_duplicate_atoms_rejected(self):
        with pytest.raises(DistributionError):
            mk_distribution(atoms=[(1.0, 0.5), (1.0, 0.5)])

    def test_overlapping_pieces_rejected(self):
        with pytest.raises(DistributionError):
            mk_distribution(pieces=[(1.0, 2.0, 0.5), (1.5, 3.0, 0.5)])

    def test_touching_pieces_allowed(self):
        d = mk_distribution(pieces=[(1.0, 2.0, 0.5), (2.0, 3.0, 0.5)])
        assert d.cdf(3.0) == pytest.approx(1.0)


class TestQueries:
    def test_point_mass_cdf(self):
        d = point_mass(1.0)
        assert d.cdf(0.999) == 0.0
        assert d.cdf(1.0) == 1.0
        assert d.cdf_left(1.0) == 0.0

    def test_mixture_cdf_and_mean(self):
        d = mk_distribution(atoms=[(1.0, 0.85)], pieces=[(1.1, 1.3, 0.15)])
        assert d.cdf(1.0) == pytest.approx(0.85)
        assert d.cdf(1.2) == pytest.approx(0.85 + 0.15 * 0.5)
        assert d.cdf(2.0) == pytest.approx(1.0)

    def test_q_support(self):
        d = mk_distribution(atoms=[(1.0, 0.85)], pieces=[(1.1, 1.3, 0.15)])
        flags = in_q_support(d, np.array([1.0, 1.1, 1.25, 1.3]))
        assert flags.tolist() == [False, True, True, False]
        assert not in_q_support(point_mass(1.0), [1.0, 1.2]).any()

    def test_quantile_matches_cdf_inverse(self):
        d = mk_distribution(atoms=[(1.0, 0.3), (3.0, 0.2)],
                            pieces=[(1.5, 2.5, 0.5)])
        # a continuous value is rounded down onto the tick grid, by less
        # than one tick of the piece, which carries this much mass
        tick_mass = 0.5 / (1.0 * d.ticks_per_unit)
        for u in [0.0, 0.1, 0.299, 0.3, 0.55, 0.79, 0.8, 0.99]:
            x = d.quantile(u)
            assert x * d.ticks_per_unit == d.quantile(u, ticks=True)
            # generalized inverse: F(x) >= u and F(x-) <= u
            assert d.cdf(x) >= u - tick_mass - 1e-12
            assert d.cdf_left(x) <= u + 1e-12

    def test_quantile_rejects_out_of_range(self):
        d = point_mass(1.0)
        with pytest.raises(ValueError):
            d.quantile(1.0)
        with pytest.raises(ValueError):
            d.quantile(-0.1)


def reference_quantile(d, u):
    """Generalized inverse CDF with the width term for every component.

    A law with pieces has its value rounded down onto the grid of
    1 / ticks_per_unit, in exact rational arithmetic, and kept inside its
    piece.
    """
    comps = sorted([(x, x, m) for x, m in d.atoms]
                   + [(a, b, m) for a, b, m in d.pieces],
                   key=lambda c: (c[0], c[1]))
    starts = np.cumsum([0.0] + [c[2] for c in comps[:-1]])
    lo, hi, mass = (np.array([c[k] for c in comps]) for k in range(3))
    idx = np.clip(np.searchsorted(starts, u, side="right") - 1,
                  0, len(comps) - 1)
    frac = (u - starts[idx]) / mass[idx]
    if not d.pieces:
        return lo[idx] + np.clip(frac, 0.0, 1.0) * (hi[idx] - lo[idx])
    D = d.ticks_per_unit
    out = []
    for k, f in zip(np.atleast_1d(idx), np.atleast_1d(frac)):
        a, b = Fraction(lo[k]) * D, Fraction(hi[k]) * D
        t = min(math.floor(a + Fraction(float(f)) * (b - a)),
                max(a, b - 1))
        out.append(float(t) / D)
    return np.array(out).reshape(np.shape(u))


QUANTILE_LAWS = {
    "atomic": mk_distribution(atoms=[(1.0, 0.3), (2.0, 0.5), (3.0, 0.2)]),
    "stage3": mk_distribution(atoms=[(1.0, 0.66), (1.6, 0.06), (2.0, 0.08),
                                     (2.5, 0.1), (3.0, 0.1)]),
    "zero_atom": mk_distribution(atoms=[(-0.0, 0.4), (1.0, 0.6)]),
    "point": point_mass(1.0),
    "mixed": mk_distribution(atoms=[(1.0, 0.3), (3.0, 0.2)],
                             pieces=[(1.5, 2.5, 0.5)]),
    "uniform": uniform_piece(1.0, 2.0),
    # a mass below half an ulp of its start: two cumulative starts equal
    # in float, and u at that start lies in the later component
    "repeated_start": mk_distribution(atoms=[(1.0, 0.5), (2.0, 1e-17),
                                             (3.0, 0.5)]),
    "repeated_start_mixed": mk_distribution(
        atoms=[(1.0, 0.5), (3.0, 0.5)], pieces=[(1.5, 2.5, 1e-17)]),
}


class TestQuantileBits:
    @pytest.mark.parametrize("name", sorted(QUANTILE_LAWS))
    def test_matches_reference_at_every_boundary(self, name):
        # u = 0, each cumulative mass exactly (searchsorted side="right"
        # puts it in the next component), the largest uniform below 1,
        # and random uniforms
        d = QUANTILE_LAWS[name]
        masses = sorted([(x, m) for x, m in d.atoms]
                        + [(a, m) for a, _, m in d.pieces])
        cum = np.cumsum([m for _, m in masses])[:-1]
        u = np.concatenate([[0.0, 1 - 2.0**-53], cum,
                            np.nextafter(cum, 0),
                            np.random.default_rng(3).random(1000)])
        got = d.quantile(u)
        want = reference_quantile(d, u)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        for v in u[:10]:
            x = d.quantile(float(v))
            assert type(x) is float
            assert np.float64(x).tobytes() == reference_quantile(
                d, np.float64(v)).tobytes()
        if not d.pieces:
            assert set(got.tolist()) <= {x + 0.0 for x, _ in d.atoms}

    @pytest.mark.parametrize("name", sorted(QUANTILE_LAWS))
    def test_rejects_outside_unit_interval(self, name):
        d = QUANTILE_LAWS[name]
        for bad in (1.0, -0.1, -2.0**-1074, np.nan, np.inf,
                    np.array([0.5, 1.0]), np.array([[0.2], [-0.5]]),
                    np.array([0.1, np.nan])):
            with pytest.raises(ValueError):
                d.quantile(bad)
        assert d.quantile(np.array([])).shape == (0,)


class TestQuantilePushforward:
    def test_ks_statistic_small(self):
        # pushing uniforms through the inverse CDF must reproduce the
        # mixture: KS distance below 0.005 at a million samples
        d = mk_distribution(atoms=[(1.0, 0.6)], pieces=[(1.5, 2.5, 0.4)])
        rng = np.random.default_rng(12345)
        u = rng.random(1_000_000)
        x = d.quantile(u)
        probes = np.concatenate([np.array(d.breakpoints()),
                                 np.linspace(0.5, 3.0, 41)])
        for t in probes:
            emp = np.mean(x <= t)
            assert abs(emp - d.cdf(t)) < 0.005

    def test_atom_masses_recovered(self):
        d = mk_distribution(atoms=[(1.0, 0.85), (3.0, 0.15)])
        rng = np.random.default_rng(7)
        x = d.quantile(rng.random(500_000))
        assert np.mean(x == 1.0) == pytest.approx(0.85, abs=0.002)
        assert np.mean(x == 3.0) == pytest.approx(0.15, abs=0.002)


class TestLevy:
    # frozen closed-form values, worked out by hand from the definition
    def test_two_atoms(self):
        assert levy_distance(point_mass(1.0), point_mass(1.3)) == pytest.approx(0.3)
        # distant atoms saturate at the mass scale
        assert levy_distance(point_mass(1.0), point_mass(10.0)) == pytest.approx(1.0)

    def test_atom_vs_split(self):
        g = mk_distribution(atoms=[(1.0, 0.5), (10.0, 0.5)])
        assert levy_distance(point_mass(1.0), g) == pytest.approx(0.5)

    def test_atom_vs_nearby_split(self):
        # half the mass moves by 0.2, below the 0.5 mass gap, so the jump
        # width 0.2 is the binding constraint
        g = mk_distribution(atoms=[(1.0, 0.5), (1.2, 0.5)])
        assert levy_distance(point_mass(1.0), g) == pytest.approx(0.2)

    def test_identity(self):
        d = mk_distribution(atoms=[(1.0, 0.85)], pieces=[(1.1, 1.3, 0.15)])
        assert levy_distance(d, d) == 0.0

    def test_symmetry_and_triangle(self):
        ds = [point_mass(1.0),
              mk_distribution(atoms=[(1.0, 0.8), (2.0, 0.2)]),
              mk_distribution(pieces=[(1.0, 2.0, 1.0)]),
              mk_distribution(atoms=[(1.5, 0.4)], pieces=[(1.0, 3.0, 0.6)])]
        for a in ds:
            for b in ds:
                assert levy_distance(a, b) == pytest.approx(
                    levy_distance(b, a), abs=1e-12)
                for c in ds:
                    assert (levy_distance(a, c)
                            <= levy_distance(a, b) + levy_distance(b, c) + 1e-12)

    def test_against_grid_search(self):
        # independent numerical oracle: scan (x, eps) grids and find the
        # smallest eps with F(x-eps)-eps <= G(x) <= F(x+eps)+eps
        def levy_grid(F, G, lo=0.0, hi=5.0, n=4001):
            xs = np.linspace(lo, hi, n)
            Fv = np.array([F.cdf(x) for x in xs])
            Gv = np.array([G.cdf(x) for x in xs])
            h = xs[1] - xs[0]
            for k in range(n):
                eps = k * h
                sh = int(round(eps / h))
                F_hi = np.concatenate([Fv[sh:], np.full(sh, 1.0)]) + eps
                F_lo = np.concatenate([np.full(sh, 0.0), Fv[:n - sh]]) - eps
                if np.all(Gv <= F_hi + 1e-12) and np.all(F_lo <= Gv + 1e-12):
                    return eps
            return np.inf

        pairs = [(point_mass(1.0), point_mass(1.3)),
                 (point_mass(1.0),
                  mk_distribution(atoms=[(1.0, 0.5), (1.2, 0.5)])),
                 (mk_distribution(pieces=[(1.0, 2.0, 1.0)]),
                  mk_distribution(pieces=[(1.3, 2.3, 1.0)])),
                 (mk_distribution(atoms=[(1.0, 0.85)],
                                  pieces=[(1.1, 1.3, 0.15)]),
                  mk_distribution(atoms=[(1.0, 0.7)],
                                  pieces=[(1.1, 1.3, 0.3)]))]
        for F, G in pairs:
            exact = levy_distance(F, G)
            approx = levy_grid(F, G)
            assert exact == pytest.approx(approx, abs=2 * 5.0 / 4000)


class TestConstruction:
    def base(self, p0=0.9):
        return mk_distribution(atoms=[(1.0, p0), (3.0, 1.0 - p0)])

    def test_stage_count_and_masses(self):
        sched = ConstructionSchedule(p0=0.9, p_seq=(0.8, 0.72),
                                     y_seq=(2.0, 1.5))
        seq = construct_sequence(self.base(), sched)
        assert len(seq) == 3
        assert seq[0].mass_at(1.0) == pytest.approx(0.9)
        assert seq[1].mass_at(1.0) == pytest.approx(0.8)
        assert seq[2].mass_at(1.0) == pytest.approx(0.72)
        for mu in seq:
            total = (sum(m for _, m in mu.atoms)
                     + sum(m for _, _, m in mu.pieces))
            assert total == pytest.approx(1.0, abs=1e-12)
            assert mu.min_support() >= 1.0

    def test_moved_mass_lands_at_y(self):
        sched = ConstructionSchedule(p0=0.9, p_seq=(0.8,), y_seq=(2.0,))
        seq = construct_sequence(self.base(), sched)
        assert seq[1].mass_at(2.0) == pytest.approx(0.1)

    def test_spread_makes_piece(self):
        sched = ConstructionSchedule(p0=0.9, p_seq=(0.8,), y_seq=(2.0,),
                                     spread=0.1)
        seq = construct_sequence(self.base(), sched)
        assert [(a, b) for a, b, _ in seq[1].pieces] == [(1.9, 2.1)]
        assert seq[1].mass_at(2.0) == 0.0

    @pytest.mark.parametrize("spread", [0.0, 0.25])
    def test_p_n_below_the_float_resolution_is_kept(self, spread):
        # 0.9 - (0.9 - p_n) is 0.0 for each of these p_n, down to the
        # least subnormal: the atom at 1 is set to p_n, never reduced to
        # a mass of 0, and the mass moved to y_n is positive
        p_seq = (1e-17, 1e-300, 5e-324)
        sched = ConstructionSchedule(p0=0.9, p_seq=p_seq,
                                     y_seq=(2.5, 2.0, 1.5), spread=spread)
        seq = construct_sequence(self.base(), sched)
        for mu, p_n in zip(seq[1:], p_seq):
            assert mu.mass_at(1.0) == p_n
            assert all(m > 0 for _, m in mu.atoms)
            assert all(m > 0 for _, _, m in mu.pieces)
            total = (sum(m for _, m in mu.atoms)
                     + sum(m for _, _, m in mu.pieces))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_levy_steps_bounded_by_moved_mass(self):
        sched = ConstructionSchedule(p0=0.9, p_seq=(0.8, 0.72, 0.65),
                                     y_seq=(2.0, 1.8, 1.6))
        seq = construct_sequence(self.base(), sched)
        ps = (0.9, 0.8, 0.72, 0.65)
        for n, (a, b) in enumerate(zip(seq, seq[1:])):
            r = ps[n] - ps[n + 1]
            assert levy_distance(a, b) <= r + 1e-12

    def test_schedule_validation(self):
        with pytest.raises(DistributionError):
            ConstructionSchedule(p0=0.9, p_seq=(0.95,), y_seq=(2.0,))
        with pytest.raises(DistributionError):
            ConstructionSchedule(p0=0.9, p_seq=(0.8,), y_seq=(0.9,))
        with pytest.raises(DistributionError):
            ConstructionSchedule(p0=0.9, p_seq=(0.8, 0.85),
                                 y_seq=(2.0, 1.5))

    def test_base_mismatch_rejected(self):
        sched = ConstructionSchedule(p0=0.9, p_seq=(0.8,), y_seq=(2.0,))
        with pytest.raises(DistributionError):
            construct_sequence(self.base(0.8), sched)

    def test_y_below_one_rejected(self):
        sched = ConstructionSchedule(p0=0.9, p_seq=(0.8,), y_seq=(1.05,),
                                     spread=0.1)
        with pytest.raises(DistributionError):
            construct_sequence(self.base(), sched)


class TestSerialization:
    def test_round_trip_exact(self):
        d = mk_distribution(atoms=[(1.0, 1 / 3), (math.pi, 1 / 3)],
                            pieces=[(4.0, 5.0, 1 / 3)])
        d2 = WeightDistribution.from_dict(json.loads(json.dumps(d.to_dict())))
        assert d2 == d

    def test_schedule_round_trip(self):
        # a config's schedule block, as expcli reads it
        block = json.loads('{"p0": 0.9, "p_seq": [0.8, 0.72], '
                           '"y_seq": [2.0, 1.5], "spread": 0.05}')
        s = ConstructionSchedule.from_dict(block)
        assert s == ConstructionSchedule(p0=0.9, p_seq=(0.8, 0.72),
                                         y_seq=(2.0, 1.5), spread=0.05)
        # spread defaults to 0
        block = {"p0": 0.9, "p_seq": [0.8], "y_seq": [2.0]}
        assert ConstructionSchedule.from_dict(block) == ConstructionSchedule(
            p0=0.9, p_seq=(0.8,), y_seq=(2.0,), spread=0.0)
        # one stage per entry of p_seq: a y_seq of another length is refused
        for y_seq in ([2.0, 1.5], []):
            with pytest.raises(DistributionError, match="y_seq has"):
                ConstructionSchedule.from_dict(dict(block, y_seq=y_seq))
