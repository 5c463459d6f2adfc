import itertools

import numpy as np
import pytest

from fpplab import geograph
from fpplab.convex import gauge, hull, tangent_at
from fpplab.geograph import (BusemannSpec, GeoGraphError, InfectionGraph,
                             busemann, busemann_separation, discretize_line,
                             disjointness_diagnostic, ends_estimate,
                             infection_graph, k_lower_bound)
from fpplab.lattice import EdgeField, GridGraph, Window, geodesic
from fpplab.measure import in_q_support, mk_distribution, point_mass
from oracles import (MIX, STAGE3, UNIF12, ZERO_ATOM, edges_graph, ends_loop,
                     geodesic_loop, line_sites_loop, pruned_search_times)

OCTAGON = hull([(1, 0.4), (0.4, 1), (-0.4, 1), (-1, 0.4), (-1, -0.4),
                (-0.4, -1), (0.4, -1), (1, -0.4)])


class TestInfectionGraph:
    def test_unit_weights_fill_window(self):
        # constant weights: every edge on some monotone geodesic, i.e. all
        w = Window.square(4)
        g = infection_graph(EdgeField(0, point_mass(1.0)), w)
        assert g.h_mask.all() and g.v_mask.all()

    def test_limited_solve_keeps_unexplored_sites_out(self):
        # unit weights, limit 3: the 25 sites of the l1 ball of radius 3
        # are solved and carry its 4 * 3^2 edges; an edge between two
        # unexplored sites (inf + 1 == inf) is not optimal
        f = EdgeField(0, point_mass(1.0))
        w = Window.square(10)
        ptm = GridGraph(f, w).solve((0, 0), limit=3)
        assert np.isfinite(ptm.ticks).sum() == 25
        g = InfectionGraph.from_map(ptm)
        assert g.n_edges == 36
        assert g.vertex_count() == 25

    def test_continuous_weights_give_tree(self):
        w = Window.square(15)
        for seed in range(5):
            g = infection_graph(EdgeField(seed, UNIF12), w)
            assert g.n_edges == g.vertex_count() - 1

    def test_edge_soundness(self):
        # every graph edge connects sites whose times differ by its weight
        # (exact identity in ticks, in the direction the edge was relaxed)
        w = Window.square(8)
        f = EdgeField(3, MIX)
        ptm = GridGraph(f, w).solve((0, 0))
        g = InfectionGraph.from_map(ptm)
        grids = f.weight_grids(w, ticks=True)
        for mask, grid, step in zip((g.h_mask, g.v_mask), grids,
                                    ((1, 0), (0, 1))):
            assert mask.any()
            for i, j in zip(*np.nonzero(mask)):
                u = (int(i) + w.xmin, int(j) + w.ymin)
                v = (u[0] + step[0], u[1] + step[1])
                ticks = MIX.quantile(f.edge_uniform((u, v)), ticks=True)
                assert grid[i, j] == ticks
                tu, tv = ptm.tick_time(u), ptm.tick_time(v)
                assert tu + ticks == tv or tv + ticks == tu

    def test_q_edges_have_distinct_weights(self):
        w = Window.square(12)
        for seed in range(5):
            f = EdgeField(seed, MIX)
            g = infection_graph(f, w)
            ticks = np.concatenate([grid[mask] for mask, grid in zip(
                (g.h_mask, g.v_mask), f.weight_grids(w, ticks=True))])
            q = ticks[in_q_support(MIX, ticks / MIX.ticks_per_unit)]
            assert len(q) and len(q) == len(np.unique(q))


class TestEnds:
    def window(self):
        return Window.square(5)

    def star(self):
        edges = []
        for d in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
            for k in range(5):
                edges.append(((k * d[0], k * d[1]),
                              ((k + 1) * d[0], (k + 1) * d[1])))
        return edges_graph(edges, self.window())

    def test_star_has_four(self):
        assert ends_estimate(self.star(), [1]) == [4]

    def test_path_has_two(self):
        edges = [((k, 0), (k + 1, 0)) for k in range(-5, 5)]
        g = edges_graph(edges, self.window())
        assert ends_estimate(g, [1]) == [2]

    def test_removal_radius_bound(self):
        with pytest.raises(GeoGraphError):
            ends_estimate(self.star(), [3])

    def test_one_bad_radius_refused_before_any_pass(self, monkeypatch):
        # 3 >= half / 2 on the 11 x 11 window; the radius 1 beside it is
        # fine, but no components pass runs for it either
        def no_pass(*args, **kwargs):
            raise AssertionError("a components pass ran")

        monkeypatch.setattr(geograph, "connected_components", no_pass)
        with pytest.raises(GeoGraphError):
            ends_estimate(self.star(), [1, 3])

    @pytest.mark.parametrize("dist", [
        UNIF12, MIX, mk_distribution(atoms=[(1.0, 0.5), (2.0, 0.5)]),
        mk_distribution(atoms=[(0.0, 0.3), (1.0, 0.7)])],
        ids=["unif12", "mix15", "half12", "zero_atom"])
    def test_all_radii_equal_one_pass_per_radius(self, dist):
        # one pass at the largest radius, merged for the others, against
        # the per-radius oracle at every valid radius of three windows,
        # the radii given unsorted and repeated
        for W, seeds in ((20, 6), (41, 6), (150, 2)):
            win = Window.square(W)
            valid = [m for m in (1, 2, 3, 5, 8, 10, 20, 30, 37) if m < W / 2]
            radii = valid[1::2] + valid[::2] + valid[-1:] + valid[:1]
            for seed in range(seeds):
                g = infection_graph(EdgeField(seed, dist), win)
                assert ends_estimate(g, radii) == [ends_loop(g, m)
                                                   for m in radii]

    def test_random_tree_majority_at_least_four(self):
        w = Window.square(40)
        hits = 0
        for seed in range(10):
            g = infection_graph(EdgeField(seed, UNIF12), w)
            if ends_estimate(g, [5])[0] >= 4:
                hits += 1
        assert hits >= 6


class TestKFormula:
    def test_anchor_values(self):
        assert k_lower_bound(4) == 0
        assert k_lower_bound(16) == 4
        assert k_lower_bound(40) == 12

    def test_nondecreasing_and_divisible(self):
        prev = 0
        for s in range(4, 200):
            k = k_lower_bound(s)
            assert k % 4 == 0
            assert k >= prev
            prev = k

    def test_domain(self):
        with pytest.raises(GeoGraphError):
            k_lower_bound(3)


class TestBusemann:
    def spec(self, n=6):
        return BusemannSpec(v=(1.0, 0.0), w=(0.0, 1.0), n=n)

    def test_parallel_tangent_rejected(self):
        with pytest.raises(GeoGraphError):
            BusemannSpec(v=(1.0, 0.0), w=(2.0, 0.0), n=5)

    def test_discretization_covers_line(self):
        w = Window.square(8)
        sites = discretize_line(self.spec(), w)
        assert set(sites) == {(6, y) for y in range(-8, 9)}

    def test_line_outside_window(self):
        with pytest.raises(GeoGraphError):
            discretize_line(self.spec(n=20), Window.square(8))

    def test_discretization_matches_scalar_loop(self):
        # random lines (integer or float directions, tangents with a zero
        # component) on random windows, many of them missing the window
        rng = np.random.default_rng(12)
        cases = missed = 0
        for _ in range(700):
            xmin, ymin = (int(c) for c in rng.integers(-30, 5, 2))
            w = Window(xmin, xmin + int(rng.integers(1, 50)),
                       ymin, ymin + int(rng.integers(1, 50)))
            if rng.random() < 0.5:
                v = tuple(int(c) for c in rng.integers(-3, 4, 2))
                wt = tuple(int(c) for c in rng.integers(-3, 4, 2))
            else:
                v = tuple(rng.uniform(-2, 2, 2))
                wt = tuple(rng.uniform(-2, 2, 2) * (rng.random(2) < 0.8))
            try:
                spec = BusemannSpec(v=v, w=wt, n=int(rng.integers(0, 15)))
            except GeoGraphError:
                continue
            cases += 1
            try:
                want = line_sites_loop(spec, w)
            except GeoGraphError as e:
                with pytest.raises(GeoGraphError, match=str(e)):
                    discretize_line(spec, w)
                missed += 1
                continue
            got = discretize_line(spec, w)
            assert got == want
            assert all(type(c) is int for s in got for c in s)
        assert cases >= 500 and 150 < missed < cases - 150

    def test_same_point_zero(self):
        w = Window.square(8)
        f = EdgeField(2, UNIF12)
        assert busemann(GridGraph(f, w), self.spec(), (1, 1), (1, 1)) == 0.0

    def test_antisymmetry(self):
        w = Window.square(8)
        f = EdgeField(2, UNIF12)
        b1 = busemann(GridGraph(f, w), self.spec(), (0, 0), (2, -3))
        b2 = busemann(GridGraph(f, w), self.spec(), (2, -3), (0, 0))
        assert b1 == pytest.approx(-b2, abs=1e-12)

    def test_cocycle(self):
        w = Window.square(8)
        f = EdgeField(4, MIX)
        x, y, z = (0, 0), (3, 1), (-2, 4)
        bxy = busemann(GridGraph(f, w), self.spec(), x, y)
        byz = busemann(GridGraph(f, w), self.spec(), y, z)
        bxz = busemann(GridGraph(f, w), self.spec(), x, z)
        assert bxy + byz == pytest.approx(bxz, abs=1e-9)

    def test_bounded_by_passage_time(self):
        w = Window.square(8)
        f = EdgeField(7, UNIF12)
        x, y = (-3, 2), (4, -1)
        tau = GridGraph(f, w).solve(x).time(y)
        assert abs(busemann(GridGraph(f, w), self.spec(), x, y)) <= tau + 1e-12

    @pytest.mark.parametrize("dist", [STAGE3, MIX, ZERO_ATOM],
                             ids=["stage3", "mix", "zero_atom"])
    def test_equals_two_solve_definition(self, dist):
        # min over the line of the solve from x, minus that from y, in
        # ticks: one solve from the line must give the same difference
        w = Window.square(10)
        v = OCTAGON.vertices[1]
        specs = [self.spec(n=7), BusemannSpec(v=v, w=tangent_at(OCTAGON, v),
                                              n=6)]
        pairs = [((0, 0), (3, -4)), ((-5, 2), (7, 7)), ((9, -9), (-10, 10))]
        for seed in range(4):
            f = EdgeField(seed, dist)
            g = GridGraph(f, w)
            for spec in specs:
                line = [w.index(s) for s in discretize_line(spec, w)]
                for x, y in pairs:
                    tx = g.solve(x).ticks.ravel()[line].min()
                    ty = g.solve(y).ticks.ravel()[line].min()
                    want = float((tx - ty) / dist.ticks_per_unit)
                    assert busemann(g, spec, x, y) == want

    def test_point_outside_window_rejected(self):
        # (-9, 0) would be index -1 into the grids of Window.square(8)
        w = Window.square(8)
        f = EdgeField(2, UNIF12)
        for x, y in [((-9, 0), (0, 0)), ((0, 0), (-9, 0)),
                     ((0, 9), (0, 0))]:
            with pytest.raises(GeoGraphError):
                busemann(GridGraph(f, w), self.spec(), x, y)

    def test_brute_force_small_window(self):
        # exact agreement with exhaustive path enumeration on 5x5
        w = Window(0, 4, 0, 4)
        spec = BusemannSpec(v=(1.0, 0.0), w=(0.0, 1.0), n=4)
        for seed in range(10):
            f = EdgeField(seed, UNIF12)
            oracle = pruned_search_times(f, w, (0, 0))
            oracle_y = pruned_search_times(f, w, (1, 2))
            S = discretize_line(spec, w)
            want = min(oracle[s] for s in S) - min(oracle_y[s] for s in S)
            got = busemann(GridGraph(f, w), spec, (0, 0), (1, 2))
            assert got == pytest.approx(want, abs=1e-12)


class TestSeparation:
    def test_diagonal_zero(self):
        w = Window.square(10)
        f = EdgeField(0, UNIF12)
        specs = [BusemannSpec(v=(1.0, 0.0), w=(0.0, 1.0), n=8),
                 BusemannSpec(v=(0.0, 1.0), w=(1.0, 0.0), n=8)]
        rep = busemann_separation(f, specs, [(4, 0), (0, 4)], w)
        assert np.all(np.diag(rep.matrix) == 0)
        assert rep.projections[0, 1] == pytest.approx(4.0)
        assert rep.alpha == pytest.approx(2.0)

    def test_mismatched_lengths(self):
        w = Window.square(5)
        f = EdgeField(0, UNIF12)
        with pytest.raises(GeoGraphError):
            busemann_separation(
                f, [BusemannSpec(v=(1.0, 0.0), w=(0.0, 1.0), n=4)],
                [(0, 0), (1, 1)], w)


class TestDiagnostics:
    def four_targets(self, n):
        return [BusemannSpec(v=(1.0, 0.0), w=(0.0, 1.0), n=n),
                BusemannSpec(v=(0.0, 1.0), w=(1.0, 0.0), n=n),
                BusemannSpec(v=(-1.0, 0.0), w=(0.0, 1.0), n=n),
                BusemannSpec(v=(0.0, -1.0), w=(1.0, 0.0), n=n)]

    def test_single_target_trivially_disjoint(self):
        w = Window.square(30)
        f = EdgeField(1, MIX)
        rep = disjointness_diagnostic(
            f, [BusemannSpec(v=(1.0, 0.0), w=(0.0, 1.0), n=22)],
            5, 18, w)
        assert rep.disjoint.shape == (1, 1)
        assert rep.disjoint[0, 0]

    def test_atomic_weights_have_no_q_edges(self):
        w = Window.square(30)
        f = EdgeField(2, mk_distribution(atoms=[(1.0, 0.8), (2.0, 0.2)]))
        rep = disjointness_diagnostic(f, self.four_targets(22), 5, 18, w)
        assert rep.n_q == (0, 0, 0, 0)
        assert rep.events["E"] == [False, False, False, False]

    def test_mixture_counts_q_edges(self):
        w = Window.square(60)
        f = EdgeField(3, MIX)
        rep = disjointness_diagnostic(f, self.four_targets(45), 10, 40, w)
        assert all(c >= 1 for c in rep.n_q)
        assert rep.rho_hat == tuple(c / 40 for c in rep.n_q)
        assert rep.alpha > 0

    def test_octagon_q_counts_match_independent_count(self):
        # n_Q recounted edge by edge along each geodesic with the scalar
        # gauge and the field's own edge weights
        w = Window.square(60)
        m, M = 10, 40
        shape = hull([(1.2 * x, 1.2 * y) for x, y in OCTAGON.vertices])
        for seed in (4, 5):
            f = EdgeField(seed, MIX)
            rep = disjointness_diagnostic(f, self.four_targets(45), m, M, w,
                                          shape=shape)
            counts = []
            for path in rep.geodesic_sites:
                count = 0
                for u, v in zip(path, path[1:]):
                    ends = [gauge(shape, (s[0] / r, s[1] / r))
                            for r in (m, M) for s in (u, v)]
                    if (ends[0] > 1 and ends[1] > 1 and ends[2] <= 1
                            and ends[3] <= 1
                            and 1.1 <= f.edge_weight(u, v) < 1.3):
                        count += 1
                counts.append(count)
            assert rep.n_q == tuple(counts)
            assert sum(counts) > 0

    def test_parameter_validation(self):
        w = Window.square(20)
        f = EdgeField(0, MIX)
        ts = self.four_targets(10)
        with pytest.raises(GeoGraphError):
            disjointness_diagnostic(f, ts, 10, 5, w)  # m >= M
        with pytest.raises(GeoGraphError):
            disjointness_diagnostic(f, ts, 5, 25, w)  # M >= half-width


class TestCutSolves:
    """The busemann and diagnose solves stop at an L-path bound; each
    result equals the one read from solves with no limit. Under delta_1
    the L-path weight is the time, so the cut falls exactly on a time
    that is read; 0.3 delta_0 + 0.7 delta_1 has zero-weight plateaus."""

    LAWS = [point_mass(1.0), mk_distribution(atoms=[(1.0, 0.5), (2.0, 0.5)]),
            mk_distribution(atoms=[(0.0, 0.3), (1.0, 0.7)])]
    IDS = ["delta1", "half12", "zero_atom"]

    @pytest.fixture
    def cut_and_uncut(self, monkeypatch):
        """call -> (cut, uncut, pruned): call() as it is and with every
        solve's limit dropped, each a result or the message of a
        RuntimeError, and whether the cut left a site of a line solve or
        of a solve from the origin unsettled."""
        state = {}
        for name in ("distances", "distance_to_set"):
            def spy(graph, at, limit=None, name=name,
                    solve=getattr(GridGraph, name)):
                d = solve(graph, at, limit=limit if state["cut"] else None)
                if name == "distance_to_set" or at == (0, 0):
                    state["pruned"] |= not np.isfinite(d).all()
                return d

            monkeypatch.setattr(GridGraph, name, spy)

        def outcome(call):
            try:
                return call()
            except RuntimeError as e:  # a geodesic clipped by the window
                return str(e)

        def run(call):
            state.update(cut=True, pruned=False)
            cut = outcome(call)
            pruned = state["pruned"]
            state["cut"] = False
            return cut, outcome(call), pruned

        return run

    @pytest.mark.parametrize("dist", LAWS, ids=IDS)
    def test_separation_equals_uncut(self, dist, cut_and_uncut):
        rng = np.random.default_rng(7)
        pruned = 0
        for seed in range(20):
            W = 20 + seed
            w = Window.square(W)
            specs = TestDiagnostics.four_targets(None, W // 2)
            seeds = [tuple(int(c) for c in rng.integers(-W, W + 1, 2))
                     for _ in specs]
            cut, uncut, p = cut_and_uncut(
                lambda: busemann_separation(
                    EdgeField(seed, dist), specs, seeds, w))
            assert np.array_equal(cut.matrix, uncut.matrix)
            pruned += p
        assert pruned >= 10

    @pytest.mark.parametrize("dist", LAWS, ids=IDS)
    def test_diagnostic_equals_uncut(self, dist, cut_and_uncut):
        pruned = 0
        for seed in range(20):
            W = 21 + seed % 20
            w = Window.square(W)
            m, M = W // 6, W // 2
            # lines beyond M, and lines nearer than the arc sites mD_i,
            # whose times then set the cut
            for n in (M + 3, m // 2 + 1):
                targets = TestDiagnostics.four_targets(None, n)
                cut, uncut, p = cut_and_uncut(
                    lambda: disjointness_diagnostic(
                        EdgeField(seed, dist), targets, m, M, w))
                if isinstance(uncut, str):
                    assert cut == uncut
                    continue
                assert cut.to_dict() == uncut.to_dict()
                assert cut.geodesic_sites == uncut.geodesic_sites
                pruned += p
        assert pruned >= 10

    @pytest.mark.parametrize("dist", LAWS, ids=IDS)
    def test_geodesic_equals_site_walk(self, dist):
        # the index walk against the site-by-site walk of the same
        # solve, on full and on limited solves
        rng = np.random.default_rng(3)
        for seed in range(20):
            W = 20 + seed
            graph = GridGraph(EdgeField(seed, dist), Window.square(W))
            for limit in (None, W / 2):
                ptm = graph.solve((0, 0), limit=limit)
                for _ in range(4):
                    t = tuple(int(c) for c in rng.integers(-W, W + 1, 2))
                    if not np.isfinite(ptm.ticks[t[0] + W, t[1] + W]):
                        continue
                    assert geodesic(ptm, t) == geodesic_loop(ptm, t)
