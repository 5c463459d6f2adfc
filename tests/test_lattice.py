import itertools

import numpy as np
import pytest

from fpplab.lattice import (EdgeField, GridGraph, LatticeError, LatticePath,
                            Window, ball, canonical_edge, geodesic,
                            monotone_upper_bounds, round_site, solve,
                            solve_targets)
from fpplab.measure import mk_distribution, point_mass

UNIF12 = mk_distribution(pieces=[(1.0, 2.0, 1.0)])
MIX = mk_distribution(atoms=[(1.0, 0.85)], pieces=[(1.1, 1.3, 0.15)])
ATOMIC = mk_distribution(atoms=[(1.0, 0.8), (3.0, 0.2)])
EPS_ATOM = mk_distribution(atoms=[(0.05, 0.4), (1.0, 0.6)])
ZERO_ATOM = mk_distribution(atoms=[(0.0, 0.4), (1.0, 0.6)])


def brute_force_times(field, window, source):
    """Exhaustive simple-path minimization, for oracle-grade comparison.

    DFS over all simple paths; exponential, only for tiny windows.
    """
    best = {s: np.inf for s in window.sites()}
    best[source] = 0.0

    def visit(site, cost, seen):
        if cost < best[site]:
            best[site] = cost
        for d in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nb = (site[0] + d[0], site[1] + d[1])
            if nb in seen or not window.contains(nb):
                continue
            visit(nb, cost + field.edge_weight(site, nb), seen | {nb})

    visit(source, 0.0, {source})
    return best


class TestBasics:
    def test_round_site_half_open_convention(self):
        assert round_site((0.5, -0.5)) == (1, 0)
        assert round_site((-0.5, 0.49)) == (0, 0)
        assert round_site((1.49, -1.51)) == (1, -2)

    def test_canonical_edge(self):
        assert canonical_edge((1, 0), (0, 0)) == ((0, 0), (1, 0))
        with pytest.raises(LatticeError):
            canonical_edge((0, 0), (1, 1))

    def test_window_index_round_trip(self):
        w = Window.square(3)
        for s in w.sites():
            assert w.site(w.index(s)) == s

    def test_path_validation(self):
        with pytest.raises(LatticeError):
            LatticePath(((0, 0), (2, 0)))
        p = LatticePath(((0, 0), (1, 0), (1, 1)))
        assert len(p.edges()) == 2


class TestEdgeField:
    def test_determinism_and_purity(self):
        f = EdgeField(42, UNIF12)
        e = ((3, -2), (3, -1))
        w1 = f.edge_weight(*e)
        w2 = EdgeField(42, UNIF12).edge_weight(*e)
        assert w1 == w2
        assert f.edge_weight(e[1], e[0]) == w1  # orientation-free

    def test_different_seeds_differ(self):
        e = ((0, 0), (1, 0))
        assert EdgeField(1, UNIF12).edge_weight(*e) != \
            EdgeField(2, UNIF12).edge_weight(*e)

    def test_weight_grids_match_pointwise(self):
        f = EdgeField(7, MIX)
        w = Window(-2, 3, -1, 2)
        hw, vw = f.weight_grids(w)
        for i in range(w.nx - 1):
            for j in range(w.ny):
                u = (w.xmin + i, w.ymin + j)
                assert hw[i, j] == f.edge_weight(u, (u[0] + 1, u[1]))
        for i in range(w.nx):
            for j in range(w.ny - 1):
                u = (w.xmin + i, w.ymin + j)
                assert vw[i, j] == f.edge_weight(u, (u[0], u[1] + 1))

    def test_atom_frequency(self):
        # binomial check on a large batch of edges: the atom at 1 carries
        # mass 0.2, so the hit fraction must match to 3 sigma
        d = mk_distribution(atoms=[(1.0, 0.2)], pieces=[(2.0, 3.0, 0.8)])
        f = EdgeField(11, d)
        w = Window.square(353)  # ~ 10^6 edges in two grids
        hw, vw = f.weight_grids(w)
        vals = np.concatenate([hw.ravel(), vw.ravel()])
        assert len(vals) >= 10**6 / 2
        assert np.mean(vals == 1.0) == pytest.approx(0.2, abs=0.002)


class TestSolveOracle:
    def test_exhaustive_small_windows(self):
        # the compiled shortest-path solve agrees exactly with brute-force
        # simple-path enumeration on 4x4 windows over many random fields
        w = Window(0, 3, 0, 3)
        for seed in range(30):
            f = EdgeField(seed, UNIF12)
            ptm = solve(f, (0, 0), w)
            oracle = brute_force_times(f, w, (0, 0))
            for s in w.sites():
                assert ptm.time(s) == pytest.approx(oracle[s], abs=1e-12)

    def test_oracle_with_atoms(self):
        w = Window(0, 3, 0, 2)
        d = mk_distribution(atoms=[(1.0, 0.5), (2.0, 0.5)])
        for seed in range(20):
            f = EdgeField(seed, d)
            ptm = solve(f, (1, 1), w)
            oracle = brute_force_times(f, w, (1, 1))
            for s in w.sites():
                assert ptm.time(s) == oracle[s]

    def test_symmetry_of_passage_time(self):
        w = Window.square(8)
        f = EdgeField(5, MIX)
        a, b = (0, 0), (5, -3)
        assert solve(f, a, w).time(b) == pytest.approx(
            solve(f, b, w).time(a), abs=1e-12)

    def test_subpath_optimality(self):
        # times along a geodesic are the prefix sums of its edge weights
        w = Window.square(12)
        f = EdgeField(9, UNIF12)
        ptm = solve(f, (0, 0), w)
        path = geodesic(ptm, (7, 5))
        acc = 0.0
        for a, b in zip(path.sites, path.sites[1:]):
            acc += f.edge_weight(a, b)
            assert ptm.time(b) == pytest.approx(acc, abs=1e-12)

    def test_limit_prunes(self):
        w = Window.square(10)
        f = EdgeField(1, UNIF12)
        ptm = solve(f, (0, 0), w, limit=3.0)
        assert ptm.time((1, 0)) < 3.0
        with pytest.raises(LatticeError):
            ptm.time((10, 10))


class TestGeodesics:
    def test_geodesic_weight_equals_time(self):
        w = Window.square(15)
        for seed in range(5):
            f = EdgeField(seed, MIX)
            ptm = solve(f, (0, 0), w)
            t = (9, -6)
            path = geodesic(ptm, t)
            assert path.sites[0] == (0, 0) and path.sites[-1] == t
            assert path.weight(f) == pytest.approx(ptm.time(t), abs=1e-12)

    def test_all_policy_contains_lexicographic(self):
        w = Window.square(8)
        f = EdgeField(3, point_mass(1.0))  # massive ties
        ptm = solve(f, (0, 0), w)
        t = (4, 3)
        all_edges = geodesic(ptm, t, tie_policy="all")
        lex = geodesic(ptm, t)
        assert set(lex.edges()) <= all_edges
        # under unit weights every monotone path is optimal
        assert len(all_edges) == 4 * 4 + 5 * 3  # edges of the 5x4 sub-grid

    def test_zero_atom_plateau(self):
        d = mk_distribution(atoms=[(0.0, 0.4), (1.0, 0.6)])
        w = Window.square(10)
        for seed in range(10):
            f = EdgeField(seed, d)
            ptm = solve(f, (0, 0), w)
            path = geodesic(ptm, (6, 2))
            assert path.weight(f) == ptm.time((6, 2))

    def test_unknown_policy(self):
        w = Window.square(3)
        ptm = solve(EdgeField(0, UNIF12), (0, 0), w)
        with pytest.raises(LatticeError):
            geodesic(ptm, (1, 1), tie_policy="bogus")


class TestBall:
    def test_unit_weights_give_l1_balls(self):
        w = Window.square(12)
        ptm = solve(EdgeField(0, point_mass(1.0)), (0, 0), w)
        for t in [0, 1, 3.5, 7]:
            got = ball(ptm, t)
            want = {(x, y) for x in range(-12, 13) for y in range(-12, 13)
                    if abs(x) + abs(y) <= int(t)}
            assert got == want

    def test_boundary_warning(self):
        w = Window.square(5)
        ptm = solve(EdgeField(0, point_mass(1.0)), (0, 0), w)
        with pytest.warns(UserWarning):
            ball(ptm, 5.0)

    def test_negative_radius(self):
        w = Window.square(3)
        ptm = solve(EdgeField(0, point_mass(1.0)), (0, 0), w)
        with pytest.raises(LatticeError):
            ball(ptm, -1.0)


class TestMonotoneBound:
    def test_upper_bound_dominates_true_time(self):
        w = Window.square(10)
        for seed in range(10):
            f = EdgeField(seed, UNIF12)
            g = GridGraph(f, w)
            ptm = solve(f, (0, 0), w, graph=g)
            targets = [(7, 3), (-4, 8), (-6, -6), (9, 0)]
            ubs = monotone_upper_bounds(g.hw, g.vw, w, (0, 0), targets)
            for t in targets:
                assert ubs[t] >= ptm.time(t) - 1e-12

    def test_exact_for_straight_segments(self):
        # a straight segment has a single monotone path, whose weight the
        # dynamic program must reproduce exactly
        w = Window.square(6)
        f = EdgeField(4, UNIF12)
        g = GridGraph(f, w)
        total = sum(f.edge_weight((k, 0), (k + 1, 0)) for k in range(5))
        ub = monotone_upper_bounds(g.hw, g.vw, w, (0, 0), [(5, 0)])[(5, 0)]
        assert ub == pytest.approx(total, abs=1e-12)

    def test_multi_target_matches_single(self):
        # every target's bound is the exhaustive minimum over all
        # coordinate-monotone paths from the source
        def best_monotone(f, s, t):
            dx, dy = t[0] - s[0], t[1] - s[1]
            sx, sy = (1 if dx >= 0 else -1), (1 if dy >= 0 else -1)
            n = abs(dx) + abs(dy)
            best = np.inf
            for xsteps in itertools.combinations(range(n), abs(dx)):
                site, cost = s, 0.0
                for k in range(n):
                    nxt = ((site[0] + sx, site[1]) if k in xsteps
                           else (site[0], site[1] + sy))
                    cost += f.edge_weight(site, nxt)
                    site = nxt
                best = min(best, cost)
            return best

        w = Window.square(9)
        for seed, source in ((2, (0, 0)), (5, (1, -2))):
            f = EdgeField(seed, MIX)
            g = GridGraph(f, w)
            targets = [(5, 2), (-3, 7), (4, -4), (0, 0), (-8, -1), (1, -2)]
            many = monotone_upper_bounds(g.hw, g.vw, w, source, targets)
            for t in targets:
                assert many[t] == pytest.approx(best_monotone(f, source, t),
                                                abs=1e-12)


class TestSolveTargets:
    TARGETS = [(12, 0), (9, 4), (6, 6), (-3, 11), (-8, -7), (0, -12),
               (5, -1), (0, 0)]

    @pytest.mark.parametrize("dist", [ATOMIC, UNIF12, EPS_ATOM, ZERO_ATOM],
                             ids=["atomic", "unif12", "eps_atom", "zero_atom"])
    def test_matches_unbounded_solve(self, dist):
        big = Window.square(60)
        for seed in range(3):
            f = EdgeField(seed, dist)
            times, _ = solve_targets(f, (0, 0), self.TARGETS)
            ptm = solve(f, (0, 0), big)
            want = np.array([ptm.time(t) for t in self.TARGETS])
            assert not ptm.boundary_contact(want.max())
            assert np.array_equal(times, want)

    def test_exact_first_window_is_not_regrown(self):
        # a_min = 1: the first window floor(ub) + 1 is below the cap here
        for dist in (ATOMIC, UNIF12):
            for seed in range(3):
                _, regrowths = solve_targets(EdgeField(seed, dist), (0, 0),
                                             self.TARGETS)
                assert regrowths == 0

    def test_zero_atom_regrows_first_window(self):
        # with a_min = 0 the first window is twice the bounding square;
        # here the ball reaches its boundary and the window doubles
        f = EdgeField(6, ZERO_ATOM)
        targets = [(6, 0), (4, 3), (-2, 5), (0, -6)]
        times, regrowths = solve_targets(f, (0, 0), targets)
        assert regrowths >= 1
        ptm = solve(f, (0, 0), Window.square(60))
        assert not ptm.boundary_contact(times.max())
        assert np.array_equal(times, [ptm.time(t) for t in targets])

    def test_off_origin_source(self):
        f = EdgeField(3, UNIF12)
        source, targets = (7, -4), [(15, 0), (0, -10), (7, -4)]
        times, _ = solve_targets(f, source, targets)
        ptm = solve(f, source, Window.square(50))
        assert np.array_equal(times, [ptm.time(t) for t in targets])


class TestMultiSource:
    def test_distance_to_set_is_min_of_singles(self):
        w = Window.square(7)
        f = EdgeField(8, UNIF12)
        g = GridGraph(f, w)
        srcs = [(0, 0), (3, -2), (-5, 5)]
        combined = g.distance_to_set(srcs)
        singles = np.stack([g.distances(s) for s in srcs]).min(axis=0)
        assert np.allclose(combined, singles, atol=1e-12)

    def test_empty_set_rejected(self):
        g = GridGraph(EdgeField(0, UNIF12), Window.square(3))
        with pytest.raises(LatticeError):
            g.distance_to_set([])
