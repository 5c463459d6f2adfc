import gc
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, dijkstra

from fpplab._rng import hash_words, uniform01
from fpplab.lattice import (Diamond, DomainError, EdgeField, GridGraph,
                            LatticeError, Window, _exit_bounds, _Topology,
                            ball, canonical_edge, check_domain, geodesic,
                            monotone_upper_bounds, round_site, solve_targets)
from fpplab.measure import mk_distribution, point_mass
from oracles import (EPS_ATOM, MIX, STAGE3, UNIF12, ZERO_ATOM, exhaustive_times,
                     exit_edges, path_weight)

ATOMIC = mk_distribution(atoms=[(1.0, 0.8), (3.0, 0.2)])
# heavy edges that can wall a near target off inside a small diamond,
# while light ones lead round them from outside it
LEAVER = mk_distribution(atoms=[(1.0, 0.6), (10.0, 0.4)])
# a law whose first diamond often fails the certificate without any path
# that leaves it being faster
SLOW = mk_distribution(atoms=[(1.0, 0.5), (5.0, 0.5)])


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

    def test_rim_and_sites_of(self):
        w = Window(-2, 1, 0, 4)
        assert w.sites_of(w.rim) == {
            s for s in w.sites()
            if s[0] in (w.xmin, w.xmax) or s[1] in (w.ymin, w.ymax)}
        assert w.rim is w.rim and not w.rim.flags.writeable
        mask = np.random.default_rng(0).random(w.shape) < 0.5
        assert w.sites_of(mask) == {w.site(k) for k in np.flatnonzero(mask)}



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
        # grids hash broadcast coordinate vectors; edge_weight hashes
        # scalars one edge at a time
        for f, w in ((EdgeField(7, MIX), Window(-2, 3, -1, 2)),
                     (EdgeField(3, STAGE3), Window(4, 11, -9, -2)),
                     (EdgeField(8, UNIF12), Window(-13, -7, 2, 10))):
            hw, vw = f.weight_grids(w)
            for i in range(w.nx - 1):
                for j in range(w.ny):
                    u = (w.xmin + i, w.ymin + j)
                    assert hw[i, j] == f.edge_weight(u, (u[0] + 1, u[1]))
            for i in range(w.nx):
                for j in range(w.ny - 1):
                    u = (w.xmin + i, w.ymin + j)
                    assert vw[i, j] == f.edge_weight(u, (u[0], u[1] + 1))

    def test_diamond_weight_grids_match_pointwise(self):
        # on a Diamond the grids are the per-site arrays: hw[k], vw[k] weigh
        # the edges from site k to its right and above it, also where these
        # leave the diamond
        for f, d in ((EdgeField(7, MIX), Diamond((2, -3), 4)),
                     (EdgeField(3, STAGE3), Diamond((-9, 5), 1)),
                     (EdgeField(8, UNIF12), Diamond((0, 0), 6))):
            for ticks in (False, True):
                hw, vw = f.weight_grids(d, ticks=ticks)
                assert hw.shape == vw.shape == (d.n_sites,)
                for k, u in enumerate(domain_sites(d)):
                    for grid, v in ((hw, (u[0] + 1, u[1])),
                                    (vw, (u[0], u[1] + 1))):
                        want = (edge_ticks(f, u, v) if ticks
                                else f.edge_weight(u, v))
                        assert grid[k] == want

    def test_broadcast_hash_matches_meshgrid(self):
        xs = np.arange(-17, 9)
        ys = np.arange(5, 40)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        for seed in (0, 7, 2**64 - 1):
            for axis in (np.int64(0), np.int64(1)):
                full = hash_words(seed, gx, gy, axis)
                fast = hash_words(seed, xs[:, None], ys[None, :], axis)
                assert fast.dtype == full.dtype == np.uint64
                assert fast.shape == full.shape
                assert np.array_equal(fast, full)

    # more sites than one block of weight_grids (8192), in rows whose
    # lengths do not divide it, so that blocks end inside rows
    BLOCKS = (Window(-40, 60, -50, 49), Diamond((2, -3), 70))

    @pytest.mark.parametrize("domain", BLOCKS, ids=["window", "diamond"])
    def test_site_words_of_blocks(self, domain):
        xs, ys = np.array(domain_sites(domain)).T
        x, y = domain.site_words()
        assert np.array_equal(x, xs) and np.array_equal(y, ys)
        for lo, hi in ((0, 1), (99, 8291), (8192, domain.n_sites),
                       (5000, 5001)):
            x, y = domain.site_words(lo, hi)
            assert np.array_equal(x, xs[lo:hi])
            assert np.array_equal(y, ys[lo:hi])

    @pytest.mark.parametrize("domain", BLOCKS, ids=["window", "diamond"])
    def test_weight_grids_out_matches_whole_domain_hash(self, domain):
        # one hash and one quantile call over every site at once is the
        # reference; the blocks, into the default arrays or into two
        # strided slots of out, must match it bit for bit
        xs, ys = np.array(domain_sites(domain)).T
        n = domain.n_sites
        for seed, dist in enumerate((UNIF12, MIX, EPS_ATOM, ZERO_ATOM,
                                     STAGE3)):
            f = EdgeField(seed, dist)
            u = uniform01(hash_words(seed, xs, ys, np.arange(2)[:, None]))
            for ticks in (False, True):
                want = dist.quantile(u, ticks=ticks)
                wt4 = np.full((n, 4), np.nan)
                got = f.weight_grids(domain, ticks=ticks,
                                     out=(wt4[:, 3], wt4[:, 2]))
                plain = f.weight_grids(domain, ticks=ticks)
                assert np.array_equal(wt4[:, 3], want[0])
                assert np.array_equal(wt4[:, 2], want[1])
                assert np.isnan(wt4[:, :2]).all()
                for g, p in zip(got, plain):
                    assert np.shares_memory(g, wt4)
                    assert g.shape == p.shape
                    assert np.array_equal(g, p)

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
            ptm = GridGraph(f, w).solve((0, 0))
            oracle = exhaustive_times(f, w, (0, 0))
            for s in w.sites():
                assert ptm.time(s) == pytest.approx(oracle[s], abs=1e-12)

    def test_oracle_with_atoms(self):
        w = Window(0, 3, 0, 2)
        d = mk_distribution(atoms=[(1.0, 0.5), (2.0, 0.5)])
        for seed in range(20):
            f = EdgeField(seed, d)
            ptm = GridGraph(f, w).solve((1, 1))
            oracle = exhaustive_times(f, w, (1, 1))
            for s in w.sites():
                assert ptm.time(s) == oracle[s]

    def test_symmetry_of_passage_time(self):
        w = Window.square(8)
        f = EdgeField(5, MIX)
        a, b = (0, 0), (5, -3)
        assert GridGraph(f, w).solve(a).time(b) == pytest.approx(
            GridGraph(f, w).solve(b).time(a), abs=1e-12)

    def test_subpath_optimality(self):
        # times along a geodesic are the prefix sums of its edge weights
        w = Window.square(12)
        f = EdgeField(9, UNIF12)
        ptm = GridGraph(f, w).solve((0, 0))
        path = geodesic(ptm, (7, 5))
        acc = 0.0
        for a, b in zip(path, path[1:]):
            acc += f.edge_weight(a, b)
            assert ptm.time(b) == pytest.approx(acc, abs=1e-12)

    def test_limit_prunes(self):
        w = Window.square(10)
        f = EdgeField(1, UNIF12)
        ptm = GridGraph(f, w).solve((0, 0), limit=3.0)
        assert ptm.time((1, 0)) < 3.0
        with pytest.raises(LatticeError):
            ptm.time((10, 10))


class TestGeodesics:
    def test_geodesic_weight_equals_time(self):
        w = Window.square(15)
        for seed in range(5):
            f = EdgeField(seed, MIX)
            ptm = GridGraph(f, w).solve((0, 0))
            t = (9, -6)
            path = geodesic(ptm, t)
            assert path[0] == (0, 0) and path[-1] == t
            assert path_weight(f, path) == pytest.approx(ptm.time(t),
                                                         abs=1e-12)

    def test_zero_atom_plateau(self):
        d = mk_distribution(atoms=[(0.0, 0.4), (1.0, 0.6)])
        w = Window.square(10)
        for seed in range(10):
            f = EdgeField(seed, d)
            ptm = GridGraph(f, w).solve((0, 0))
            path = geodesic(ptm, (6, 2))
            assert path_weight(f, path) == ptm.time((6, 2))


class TestBall:
    def test_unit_weights_give_l1_balls(self):
        w = Window.square(12)
        ptm = GridGraph(EdgeField(0, point_mass(1.0)), w).solve((0, 0))
        for t in [0, 1, 3.5, 7]:
            got = ball(ptm, t)
            want = {(x, y) for x in range(-12, 13) for y in range(-12, 13)
                    if abs(x) + abs(y) <= int(t)}
            assert got == want

    def test_boundary_warning(self):
        w = Window.square(5)
        ptm = GridGraph(EdgeField(0, point_mass(1.0)), w).solve((0, 0))
        with pytest.warns(UserWarning):
            ball(ptm, 5.0)

    def test_negative_radius(self):
        w = Window.square(3)
        ptm = GridGraph(EdgeField(0, point_mass(1.0)), w).solve((0, 0))
        with pytest.raises(LatticeError):
            ball(ptm, -1.0)


class TestMonotoneBound:
    def test_upper_bound_dominates_true_time(self):
        w = Window.square(10)
        for seed in range(10):
            f = EdgeField(seed, UNIF12)
            ptm = GridGraph(f, w).solve((0, 0))
            targets = [(7, 3), (-4, 8), (-6, -6), (9, 0)]
            hw, vw = f.weight_grids(w)
            ubs = monotone_upper_bounds(hw, vw, w, (0, 0), targets)
            for t in targets:
                assert ubs[t] >= ptm.time(t) - 1e-12

    def test_exact_for_straight_segments(self):
        # a straight segment has a single monotone path, whose weight the
        # dynamic program must reproduce exactly
        w = Window.square(6)
        f = EdgeField(4, UNIF12)
        total = sum(f.edge_weight((k, 0), (k + 1, 0)) for k in range(5))
        hw, vw = f.weight_grids(w)
        ub = monotone_upper_bounds(hw, vw, w, (0, 0), [(5, 0)])[(5, 0)]
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
            hw, vw = f.weight_grids(w)
            targets = [(5, 2), (-3, 7), (4, -4), (0, 0), (-8, -1), (1, -2)]
            many = monotone_upper_bounds(hw, vw, w, source, targets)
            for t in targets:
                assert many[t] == pytest.approx(best_monotone(f, source, t),
                                                abs=1e-12)


def exit_bound(diamond, d, edges, target, a):
    """The certificate's bound for one target, edge by edge: the least
    d[y] + a + a |z - target|_1 over the diamond's exit edges y -> z."""
    return min(d[diamond.index(y)] + a
               + a * (abs(z[0] - target[0]) + abs(z[1] - target[1]))
               for y, z in edges)


class TestSolveTargets:
    TARGETS = [(12, 0), (9, 4), (6, 6), (-3, 11), (-8, -7), (0, -12),
               (5, -1), (0, 0)]

    @pytest.mark.parametrize("dist", [ATOMIC, UNIF12, EPS_ATOM, ZERO_ATOM],
                             ids=["atomic", "unif12", "eps_atom", "zero_atom"])
    def test_matches_unbounded_solve(self, dist):
        big = Window.square(60)
        for seed in range(3):
            f = EdgeField(seed, dist)
            times, _ = solve_targets([f], (0, 0), self.TARGETS)
            ptm = GridGraph(f, big).solve((0, 0))
            want = np.array([ptm.time(t) for t in self.TARGETS])
            assert not ptm.boundary_contact(want.max())
            assert np.array_equal(times[0], want)

    @pytest.mark.parametrize("dist", [ATOMIC, UNIF12, EPS_ATOM, ZERO_ATOM],
                             ids=["atomic", "unif12", "eps_atom", "zero_atom"])
    def test_batch_matches_unbounded_solve(self, dist):
        # later fields start at the radius the field before them ended
        # at; every row stays exact
        big = Window.square(60)
        fields = [EdgeField(seed, dist) for seed in (4, 0, 7, 1, 9, 2)]
        times, _ = solve_targets(fields, (0, 0), self.TARGETS)
        assert times.shape == (len(fields), len(self.TARGETS))
        for f, row in zip(fields, times):
            ptm = GridGraph(f, big).solve((0, 0))
            want = np.array([ptm.time(t) for t in self.TARGETS])
            assert not ptm.boundary_contact(want.max())
            assert np.array_equal(row, want)

    def test_exact_first_window_is_not_regrown(self):
        # a_min = 1: the first diamond, of radius 12 + ceil(12^(1/3)) =
        # 15, is certified for these fields
        for dist in (ATOMIC, UNIF12):
            for seed in range(3):
                _, regrowths = solve_targets([EdgeField(seed, dist)],
                                             (0, 0), self.TARGETS)
                assert regrowths == 0

    def test_zero_atom_regrows_first_window(self):
        # with a_min = 0 the certificate asks that no boundary site of the
        # diamond be reached before a target; here one is, and the
        # diamond doubles
        f = EdgeField(6, ZERO_ATOM)
        targets = [(6, 0), (4, 3), (-2, 5), (0, -6)]
        times, regrowths = solve_targets([f], (0, 0), targets)
        assert regrowths >= 1
        ptm = GridGraph(f, Window.square(60)).solve((0, 0))
        assert not ptm.boundary_contact(times.max())
        assert np.array_equal(times[0], [ptm.time(t) for t in targets])

    @pytest.mark.parametrize("dist", [ZERO_ATOM, EPS_ATOM],
                             ids=["zero_atom", "eps_atom"])
    def test_small_a_min_batch_keeps_its_radius(self, dist, monkeypatch):
        # a_min = 0 or 1/20 of the mean: each field starts where the one
        # before it ended, at first 28 + ceil(28^(1/3)) = 32, so the batch
        # does not climb again from there field after field; the fields
        # of one radius share one diamond, and so one topology
        targets = [(28, 0), (20, 8), (14, 14), (-7, 21), (-16, -12),
                   (0, -28), (10, -3), (0, 0)]
        fields = [EdgeField(seed, dist) for seed in range(8)]
        radii = self.count_solves(monkeypatch)
        made = []
        make = _Topology.__init__

        def spy(topo, domain):
            if isinstance(domain, Diamond):
                made.append(domain.radius)
            make(topo, domain)

        monkeypatch.setattr(_Topology, "__init__", spy)
        times, _ = solve_targets(fields, (0, 0), targets)
        assert radii[0] == 32
        assert radii == sorted(radii)
        assert len(radii) <= 10
        assert made == sorted(set(radii))
        big = Window.square(150)
        for f, row in zip(fields, times):
            ptm = GridGraph(f, big).solve((0, 0))
            want = np.array([ptm.time(t) for t in targets])
            assert not ptm.boundary_contact(want.max())
            assert np.array_equal(row, want)

    @staticmethod
    def diamond_ticks(seed, dist, radius):
        """The l1 diamond of the radius around the origin, and the
        passage times in ticks inside it, with no limit."""
        diamond = Diamond((0, 0), radius)
        return diamond, GridGraph(EdgeField(seed, dist), diamond).distances(
            (0, 0))

    @staticmethod
    def count_solves(monkeypatch):
        """A list that grows by the radius of each GridGraph.distances
        solve on a Diamond."""
        radii = []
        solve_once = GridGraph.distances

        def spy(graph, source, limit=None):
            if isinstance(graph.window, Diamond):
                radii.append(graph.window.radius)
            return solve_once(graph, source, limit=limit)

        monkeypatch.setattr(GridGraph, "distances", spy)
        return radii

    def test_too_small_first_diamond_regrows(self, monkeypatch):
        # SLOW has a_min = 1 tick. The target (4, 0), L = 4, gets the first
        # diamond of radius 4 + ceil(4^(1/3)) = 6. Exactly the seeds whose
        # time inside it exceeds the bound, computed here edge by edge,
        # regrow, to min(2 * 6, 6 + max(1, ceil(deficit / 2))); the answer
        # is the Z^2 time either way.
        big = Window.square(24)
        edges = exit_edges((0, 0), 6)
        radii = self.count_solves(monkeypatch)
        found = 0
        for seed in range(200):
            f = EdgeField(seed, SLOW)
            ptm = GridGraph(f, big).solve((0, 0))
            diamond, d = self.diamond_ticks(seed, SLOW, 6)
            deficit = (d[diamond.index((4, 0))]
                       - exit_bound(diamond, d, edges, (4, 0), 1))
            radii.clear()
            times, regrowths = solve_targets([f], (0, 0), [(4, 0)])
            assert not ptm.boundary_contact(times[0, 0])
            assert times[0, 0] == ptm.time((4, 0))
            assert radii[0] == 6
            assert regrowths == (deficit > 0)
            if deficit > 0:
                assert radii[1] == min(12, 6 + max(1, math.ceil(deficit / 2)))
                found += 1
            else:
                assert radii == [6]
        assert found

    def test_path_that_leaves_and_comes_back_is_certified(self, monkeypatch):
        # LEAVER weighs whole ticks. The target (2, 0) gets the first
        # diamond of radius 2 + ceil(2^(1/3)) = 4. Where heavy edges wall
        # the target off inside it, a path that leaves it and comes back
        # on light edges beats every path inside: the certificate must
        # refuse that diamond, and the answer is the Z^2 time.
        big = Window.square(24)
        radii = self.count_solves(monkeypatch)
        beaten = 0
        for seed in range(60):
            f = EdgeField(seed, LEAVER)
            ptm = GridGraph(f, big).solve((0, 0))
            want = ptm.time((2, 0))
            assert not ptm.boundary_contact(want)
            diamond, d = self.diamond_ticks(seed, LEAVER, 4)
            radii.clear()
            times, regrowths = solve_targets([f], (0, 0), [(2, 0)])
            assert radii[0] == 4
            assert times[0, 0] == want
            if d[diamond.index((2, 0))] > want:
                assert regrowths == 1
                assert len(radii) > 1
                beaten += 1
        assert beaten

    def test_later_field_starts_at_the_radius_before_it(self, monkeypatch):
        # LEAVER, target (2, 0): seed 1 (a time of 13) fails the first
        # diamond, radius 4, and grows to 6; seed 0 (a time of 4) then
        # starts at 6, where the field before it ended, and is not
        # counted as regrown
        fields = [EdgeField(seed, LEAVER) for seed in (1, 0)]
        radii = self.count_solves(monkeypatch)
        times, regrown = solve_targets(fields, (0, 0), [(2, 0)])
        assert radii == [4, 6, 6]
        assert regrown == 1
        assert times.tolist() == [[13.0], [4.0]]
        big = Window.square(24)
        assert times[:, 0].tolist() == [
            GridGraph(f, big).solve((0, 0)).time((2, 0)) for f in fields]

    def test_regrowth_beyond_first_radius_is_counted(self, monkeypatch):
        # regrown counts the fields whose first diamond fails, wherever it
        # stands: seed 6 grows 4 -> 5, seed 1 starts at 5 and grows to 6,
        # seed 33 starts at 6 and grows to 7
        radii = self.count_solves(monkeypatch)
        times, regrown = solve_targets(
            [EdgeField(s, LEAVER) for s in (6, 1, 33)], (0, 0), [(2, 0)])
        assert radii == [4, 5, 5, 6, 6, 7]
        assert regrown == 3
        assert times.tolist() == [[8.0], [13.0], [15.0]]
        radii.clear()
        # seed 33 first grows 4 -> 7 in one step, and seeds 1 and 6 then
        # pass at 7: one regrown field
        times, regrown = solve_targets(
            [EdgeField(s, LEAVER) for s in (33, 1, 6)], (0, 0), [(2, 0)])
        assert radii == [4, 7, 7, 7]
        assert regrown == 1
        assert times.tolist() == [[15.0], [13.0], [8.0]]

    @pytest.mark.parametrize("atom", [1.0, 1.6, 2.5])
    def test_one_atom_law_is_solved_by_its_l1_distance(self, atom,
                                                       monkeypatch):
        # for delta_a every path to x has at least |x - s|_1 edges of
        # weight a and a monotone path has exactly that many: no edge is
        # hashed and no graph is built, and the times are the solver's
        dist = point_mass(atom)
        source, targets = (5, -3), [(17, -3), (9, 6), (-2, -11), (5, -3)]
        fields = [EdgeField(seed, dist) for seed in (0, 3)]
        want = [[GridGraph(f, Window.square(25)).solve(source).time(t)
                 for t in targets] for f in fields]

        def no_graph(*args):
            raise AssertionError("a one-atom law built a graph")
        monkeypatch.setattr(GridGraph, "__init__", no_graph)
        monkeypatch.setattr(EdgeField, "weight_grids", no_graph)
        times, regrown = solve_targets(fields, source, targets)
        assert regrown == 0
        assert np.array_equal(times, want)

    def test_batch_of_one_law(self):
        with pytest.raises(LatticeError):
            solve_targets([EdgeField(0, ATOMIC), EdgeField(1, UNIF12)],
                          (0, 0), [(2, 0)])
        with pytest.raises(LatticeError):
            solve_targets([], (0, 0), [(2, 0)])

    def test_off_origin_source(self):
        f = EdgeField(3, UNIF12)
        source, targets = (7, -4), [(15, 0), (0, -10), (7, -4)]
        times, _ = solve_targets([f], source, targets)
        ptm = GridGraph(f, Window.square(50)).solve(source)
        assert np.array_equal(times[0], [ptm.time(t) for t in targets])



def rim(t):
    """The least of a window's times on its border."""
    return min(t[0].min(), t[-1].min(), t[:, 0].min(), t[:, -1].min())


class TestExitCertificate:
    """solve_targets' bound on the paths that leave a diamond, against the
    exact cost of the best such path: min over the exit edges (y, z) of
    tau_D(y) + w(y, z) + tau(z, x), with tau(z, x) solved from x on a big
    window whose border every time used is certified not to reach."""

    TARGETS = [(3, 0), (1, -2), (-1, 1), (0, 0)]

    # each window is the least half-width, plus a few, at which every
    # seed's times pass the border check below
    @pytest.mark.parametrize("dist, W", [(ATOMIC, 22), (LEAVER, 32),
                                         (EPS_ATOM, 40), (ZERO_ATOM, 55)],
                             ids=["atomic", "leaver", "eps_atom", "zero_atom"])
    def test_bound_is_sound(self, dist, W):
        a = dist.tick(dist.min_support())
        dx = np.array([x for x, _ in self.TARGETS])
        dy = np.array([y for _, y in self.TARGETS])
        big = Window.square(W)

        def at(site):
            return site[0] + W, site[1] + W
        # diamonds of radius L = 3 and of solve_targets' first radius 5
        radii = {R: (Diamond((0, 0), R), exit_edges((0, 0), R))
                 for R in (3, 5)}
        passed = refused = 0
        for seed in range(200):
            f = EdgeField(seed, dist)
            graph = GridGraph(f, big)
            tau = graph.distances((0, 0))
            assert rim(tau) >= max(tau[at(x)] for x in self.TARGETS)
            back = {x: graph.distances(x) for x in self.TARGETS}
            for diamond, edges in radii.values():
                d = GridGraph(f, diamond).distances((0, 0))
                bounds = _exit_bounds(d, diamond, dx, dy, a)
                # the exact weight of each exit edge, read off the window
                # graph's weight grids
                w = {(y, z): (graph.th if y[1] == z[1] else graph.tv)[
                    at(min(y, z))] for y, z in edges}
                for j, x in enumerate(self.TARGETS):
                    assert rim(back[x]) >= max(back[x][at(z)] for _, z in edges)
                    assert bounds[j] == exit_bound(diamond, d, edges, x, a)
                    leave = min(d[diamond.index(y)] + w[y, z] + back[x][at(z)]
                                for y, z in edges)
                    assert bounds[j] <= leave
                    if d[diamond.index(x)] <= bounds[j]:
                        assert d[diamond.index(x)] == tau[at(x)]
                        passed += 1
                    else:
                        refused += 1
        # both outcomes occur for every law
        assert passed and refused


def domain_sites(domain):
    """The sites of a Window or a Diamond, row after row, y ascending."""
    if isinstance(domain, Window):
        return list(domain.sites())
    (cx, cy), r = domain.center, domain.radius
    return [(x, y) for x in range(cx - r, cx + r + 1)
            for y in range(cy - r, cy + r + 1)
            if abs(x - cx) + abs(y - cy) <= r]


def edge_ticks(field, u, v):
    """The weight of one edge in ticks, hashed on its own."""
    return field.dist.quantile(field.edge_uniform(canonical_edge(u, v)),
                               ticks=True)


def reference_csr(field, domain):
    """The domain adjacency in ticks through COO -> CSR, edge by edge,
    with each weight hashed on its own."""
    rows, cols, data = [], [], []
    for u in domain_sites(domain):
        for v in ((u[0] + 1, u[1]), (u[0], u[1] + 1)):
            if domain.contains(v):
                a, b = domain.index(u), domain.index(v)
                rows += [a, b]
                cols += [b, a]
                data += [float(edge_ticks(field, u, v))] * 2
    n = domain.n_sites
    return csr_matrix((data, (rows, cols)), shape=(n, n))


class TestGraphBuild:
    NEIGHBOURS = ((-1, 0), (0, -1), (0, 1), (1, 0))  # in slot order
    DOMAINS = ((0, Window(-3, 5, 2, 4)), (1, Window(10, 11, -6, 6)),
               (2, Window(-9, -2, -1, 0)), (3, Window(-7, 7, -4, 9)),
               (4, Diamond((3, -2), 5)), (5, Diamond((-6, 9), 1)),
               (6, Diamond((0, 0), 8)))

    @pytest.mark.parametrize("dist", [STAGE3, ZERO_ATOM, UNIF12],
                             ids=["stage3", "zero_atom", "unif12"])
    def test_csr_matches_coo_reference(self, dist):
        for seed, w in self.DOMAINS:
            f = EdgeField(seed, dist)
            sites = domain_sites(w)
            assert [w.index(s) for s in sites] == list(range(w.n_sites))
            g = GridGraph(f, w)
            ref = reference_csr(f, w)
            csr, n = g._csr, w.n_sites
            # four entries per site, in the slots of its neighbours
            # (x - 1, y), (x, y - 1), (x, y + 1), (x + 1, y)
            assert np.array_equal(csr.indptr, 4 * np.arange(n + 1))
            rows = np.repeat(np.arange(n), 4)
            loop = csr.indices == rows
            # a self-loop weighs 0 and stands for a neighbour off the domain
            assert not csr.data[loop].any()
            for e in np.flatnonzero(loop):
                (x, y), (dx, dy) = sites[rows[e]], self.NEIGHBOURS[e % 4]
                assert not w.contains((x + dx, y + dy))
            # without them, the CSR is the reference's; zero weights
            # (ZERO_ATOM) stay explicit entries
            kept = ~loop
            assert kept.sum() == ref.nnz
            indptr = np.r_[0, np.cumsum(kept.reshape(n, 4).sum(axis=1))]
            for name, got in (("indptr", indptr),
                              ("indices", csr.indices[kept]),
                              ("data", csr.data[kept])):
                want = getattr(ref, name)
                assert getattr(csr, name).dtype == want.dtype
                assert np.array_equal(got, want)
            source = sites[len(sites) // 3]  # off the origin and centre
            want = dijkstra(ref, directed=True,
                            indices=w.index(source)).reshape(w.shape)
            assert np.array_equal(g.distances(source), want)
            targets = [source, sites[-1]]
            want = dijkstra(ref, directed=True, min_only=True,
                            indices=[w.index(s) for s in targets])
            assert np.array_equal(g.distance_to_set(targets),
                                  want.reshape(w.shape))

    @pytest.mark.parametrize("domain", [Window.square(100),
                                        Diamond((3, -2), 150)],
                             ids=["window", "diamond"])
    def test_build_allocates_only_its_csr_data(self, domain):
        # with its domain's topology made, a build keeps one fresh array,
        # the 4 float64 CSR entries of each site, and its temporaries
        # stay within as much again
        n = domain.n_sites
        for dist in (STAGE3, UNIF12):
            first = GridGraph(EdgeField(0, dist), domain)
            tracemalloc.start()
            try:
                g = GridGraph(EdgeField(1, dist), domain)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert 32 * n <= kept <= 32 * n + (64 << 10)
            assert peak <= 64 * n
            assert np.shares_memory(g._csr.indices, first._csr.indices)
            del first, g

    def test_graphs_of_one_domain_share_a_read_only_topology(self):
        for make in (lambda: Window(-5, 7, 2, 9), lambda: Diamond((1, 1), 6)):
            domain = make()
            a = GridGraph(EdgeField(0, UNIF12), domain)
            b = GridGraph(EdgeField(1, STAGE3), domain)
            assert np.shares_memory(a._csr.indices, b._csr.indices)
            assert np.shares_memory(a._csr.indptr, b._csr.indptr)
            assert not np.shares_memory(a._csr.data, b._csr.data)
            for array in (b._csr.indices, b._csr.indptr, b.neighbours):
                with pytest.raises(ValueError):
                    array[0] = 1
            # an equal domain made apart makes its own, equal, topology
            other = make()
            assert other == domain
            c = GridGraph(EdgeField(1, STAGE3), other)
            assert not np.shares_memory(b._csr.indices, c._csr.indices)
            assert not np.shares_memory(b._csr.data, c._csr.data)
            assert np.array_equal(b._csr.indices, c._csr.indices)
            assert np.array_equal(b._csr.indptr, c._csr.indptr)
            assert np.array_equal(b.distances((1, 3)), c.distances((1, 3)))

    def test_topology_is_freed_with_its_domain(self):
        # the topology holds no reference to its domain, so it goes as
        # soon as the domain and its graphs do, with no cycle to collect
        gc.disable()
        try:
            domain = Diamond((0, 0), 5)
            graphs = [GridGraph(EdgeField(seed, UNIF12), domain)
                      for seed in range(2)]
            topo = weakref.ref(domain._topology)
            del graphs
            assert topo() is not None  # the domain keeps it for its next
            del domain
            assert topo() is None
        finally:
            gc.enable()

    def test_diamond_boundary_is_its_l1_sphere(self):
        d = Diamond((4, -1), 6)
        sites = domain_sites(d)
        sphere = {d.index(s) for s in sites
                  if abs(s[0] - 4) + abs(s[1] + 1) == 6}
        first, last = d.boundary()
        assert set(first) | set(last) == sphere
        assert len(sphere) == 4 * 6
        # the first and the last site of each row, in row order
        for i, x in enumerate(range(-2, 11)):
            ys = [s[1] for s in sites if s[0] == x]
            assert (first[i], last[i]) == (d.index((x, min(ys))),
                                           d.index((x, max(ys))))

    def test_int32_overflow_rejected_before_allocating(self):
        # 60001^2 sites, or the 2 r (r + 1) + 1 sites of a diamond of
        # radius 16384: 4 * n_sites does not fit the int32 indices.
        # solve_targets' first diamond for a target at l1 distance 16400
        # has radius 16400 + ceil(16400^(1/3)) = 16426, and every later
        # radius is larger.
        f = EdgeField(0, ATOMIC)
        tracemalloc.start()
        try:
            for domain in (Window.square(30000), Diamond((0, 0), 16384)):
                with pytest.raises(LatticeError):
                    GridGraph(f, domain)
            with pytest.raises(LatticeError):
                solve_targets([f], (0, 0), [(16400, 0)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_seed_entries_counted_in_int32_bound(self):
        # a graph holds 4 * n_sites entries, with no seed entries:
        # 256999 * 2089 = 2^29 - 1 sites fill 2^31 - 4 of the int32
        # indices, and 262144 * 2048 = 2^29 sites overflow them
        fits, over = Window(0, 256998, 0, 2088), Window(0, 262143, 0, 2047)
        assert 4 * fits.n_sites == np.iinfo(np.int32).max - 3
        assert 4 * over.n_sites == np.iinfo(np.int32).max + 1
        tracemalloc.start()
        try:
            check_domain(ATOMIC, fits)
            with pytest.raises(DomainError):
                check_domain(ATOMIC, over)
            with pytest.raises(DomainError):
                GridGraph(EdgeField(0, ATOMIC), over)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestScipyContract:
    """What GridGraph's fixed four slots per site rely on in scipy's
    dijkstra and breadth_first_order: zero-weight self-loops, duplicated
    and out of order within a row, change no result, while zero-weight
    edges kept as explicit entries stay edges."""

    @staticmethod
    def graphs(seed, n=60):
        rng = np.random.default_rng(seed)
        m = 5 * n
        rows, cols = rng.integers(0, n, m), rng.integers(0, n, m)
        keep = rows != cols
        rows, cols = rows[keep], cols[keep]
        # integer weights, a third of them explicit zeros
        data = rng.integers(0, 3, len(rows)) * rng.integers(1, 9, len(rows))
        plain = csr_matrix((data.astype(float), (rows, cols)), shape=(n, n))
        assert plain.nnz > np.count_nonzero(plain.data)  # zeros kept
        # each row gets 0-3 self-loops, shuffled in among its entries
        indices, data, indptr = [], [], [0]
        for r in range(n):
            row = slice(plain.indptr[r], plain.indptr[r + 1])
            c = rng.integers(0, 4)
            order = rng.permutation(row.stop - row.start + c)
            indices += list(np.r_[plain.indices[row], [r] * c][order])
            data += list(np.r_[plain.data[row], [0.0] * c][order])
            indptr.append(len(indices))
        looped = csr_matrix((np.array(data), np.array(indices, dtype=np.int32),
                             np.array(indptr, dtype=np.int32)), shape=(n, n))
        assert looped.nnz > plain.nnz
        return plain, looped

    def test_zero_weight_self_loops_change_nothing(self):
        for seed in range(20):
            plain, looped = self.graphs(seed)
            for kwargs in ({"indices": seed % 60},
                           {"indices": 3, "limit": 9.0},
                           {"indices": [1, 17, 40], "min_only": True}):
                want = dijkstra(plain, directed=True, return_predecessors=True,
                                **kwargs)
                got = dijkstra(looped, directed=True, return_predecessors=True,
                               **kwargs)
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype
                    assert np.array_equal(a, b)


    def test_breadth_first_order_follows_zero_weight_entries(self):
        def reached(graph, start):
            """Every node a path of stored entries leads to, by hand."""
            seen, todo = {start}, [start]
            while todo:
                u = todo.pop()
                for v in graph.indices[graph.indptr[u]:graph.indptr[u + 1]]:
                    if v not in seen:
                        seen.add(int(v))
                        todo.append(int(v))
            return seen

        zero_only = 0
        for seed in range(20):
            plain, looped = self.graphs(seed)
            # every row's entries twice over, self-loops included
            doubled = csr_matrix(
                (np.repeat(looped.data, 2), np.repeat(looped.indices, 2),
                 2 * looped.indptr), shape=looped.shape)
            nonzero = plain.copy()
            nonzero.eliminate_zeros()
            for start in (seed % 60, 7, 33):
                want = reached(plain, start)
                zero_only += want != reached(nonzero, start)
                for g in (plain, looped, doubled):
                    got = breadth_first_order(g, start, directed=True,
                                              return_predecessors=False)
                    assert len(got) == len(want)
                    assert set(got.tolist()) == want
        assert zero_only > 0  # some nodes are reached over zeros only


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

    @pytest.mark.parametrize("dist", [ZERO_ATOM, STAGE3, UNIF12, MIX],
                             ids=["zero_atom", "stage3", "unif12", "mix"])
    def test_minimisers_match_stacked_distances(self, dist):
        # the sites lie in the diamond, which lies in the window
        w, dm = Window.square(9), Diamond((0, 0), 9)
        xs, ys = dm.site_words()
        rng = np.random.default_rng(0)
        for seed in range(4):
            f = EdgeField(seed, dist)
            cells = rng.choice(dm.n_sites, size=2 + 3 * seed, replace=False)
            sites = [(int(xs[c]), int(ys[c])) for c in cells]
            if dist is ZERO_ATOM:
                # a seed that another reaches at time 0: joined to it by
                # zero-weight edges, so both attain reach all over a plateau
                x, y = sites[0]
                sites.append(next(
                    v for v in ((x + 1, y), (x - 1, y), (x, y + 1),
                                (x, y - 1))
                    if dm.contains(v) and v not in sites
                    and f.edge_weight((x, y), v) == 0.0))
            for domain in (w, dm):
                g = GridGraph(f, domain)
                d = np.stack([g.distances(s) for s in sites])
                reach, is_min = g.minimisers(sites)
                assert np.array_equal(reach, d.min(axis=0))
                assert np.array_equal(is_min, d == reach)
                if dist is ZERO_ATOM:
                    assert (is_min[0] & is_min[-1]).any()


class TestTight:
    @pytest.mark.parametrize("domain", [Window(-6, 5, -4, 7),
                                        Diamond((1, -1), 6)],
                             ids=["window", "diamond"])
    def test_no_self_loop_or_unreached_entry(self, domain):
        # a self-loop has weight 0 and inf + w == inf, so the tick
        # equality alone would call both tight
        for seed in range(3):
            g = GridGraph(EdgeField(seed, ZERO_ATOM), domain)
            nbr = g.neighbours
            loop = nbr == np.arange(domain.n_sites)[:, None]
            assert loop.any()
            for limit in (None, 2 * ZERO_ATOM.ticks_per_unit):
                t = g.distances((1, -1), limit=limit).reshape(-1)
                tight = g.tight(t)
                into_inf = ~np.isfinite(t)[nbr]
                assert into_inf.any() == (limit is not None)
                assert not tight[loop].any()
                assert not tight[into_inf].any()
                assert tight.any()


class TestOffDomain:
    def test_window_index_refused(self):
        # by its arithmetic alone, (0, 4) would take the index 28 of (1, -3)
        with pytest.raises(LatticeError):
            Window.square(3).index((0, 4))

    def test_diamond_index_refused(self):
        # by its arithmetic alone, (3, 3) would take the index 27 of a
        # diamond of 25 sites
        with pytest.raises(LatticeError):
            Diamond((0, 0), 3).index((3, 3))

    def test_site_sets_refused(self):
        g = GridGraph(EdgeField(0, UNIF12), Window.square(3))
        for sites in ([(-4, 5)], [(4, 0)], [(-4, 5), (0, 0)]):
            with pytest.raises(LatticeError):
                g.distance_to_set(sites)
            with pytest.raises(LatticeError):
                g.minimisers(sites)
        g = GridGraph(EdgeField(0, UNIF12), Diamond((0, 0), 3))
        for sites in ([(3, 1)], [(0, 0), (-2, -2)]):
            with pytest.raises(LatticeError):
                g.distance_to_set(sites)
            with pytest.raises(LatticeError):
                g.minimisers(sites)

    def test_predecessors_refused(self):
        # the walk of predecessors refuses a target off the window
        ptm = GridGraph(EdgeField(0, UNIF12), Window.square(3)).solve((0, 0))
        for s in ((-4, 2), (4, 0), (0, -4)):
            with pytest.raises(LatticeError):
                geodesic(ptm, s)

    def test_solve_refused_on_a_diamond(self):
        # a PassageTimeMap reads its times as window grids (geodesic,
        # ball), so a single-source solve takes a Window; distances
        # still solves a Diamond
        g = GridGraph(EdgeField(0, UNIF12), Diamond((0, 0), 3))
        for limit in (None, 2.0):
            with pytest.raises(LatticeError, match="Window"):
                g.solve((0, 0), limit=limit)
        assert np.isfinite(g.distances((0, 0))).all()
