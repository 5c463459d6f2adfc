"""Exact ticks: oracles in rational arithmetic, scale invariance, the
competition's minimisers, and the limits refused before any allocation."""

import json
import math
import tracemalloc
from fractions import Fraction

# expcli imports the validator on first use; load it before any
# allocation peak is measured, so that the peaks are the runs' own
import jsonschema  # noqa: F401
import numpy as np
import pytest

from fpplab import expcli, growth
from fpplab.cli import main
from fpplab.geograph import InfectionGraph, infection_graph
from fpplab.growth import NONE_OWNER, CompetitionConfig, compete
from fpplab.lattice import (DomainError, EdgeField, GridGraph, LatticeError,
                            Window, canonical_edge, check_domain)
from fpplab.measure import DistributionError, TICK_LIMIT, mk_distribution
from oracles import (MIX, NEIGHBOURS, STAGE3, UNIF12, ZERO_ATOM,
                     pred_sites, random_owners_loop)

STAGE3_X10 = mk_distribution(atoms=[(10.0, 0.66), (16.0, 0.06),
                                    (20.0, 0.08), (25.0, 0.1), (30.0, 0.1)])
# atoms tie often; the piece's values lie on the grid 2^-33
ATOM_PIECE = mk_distribution(atoms=[(1.0, 0.6)], pieces=[(1.5, 2.5, 0.4)])
LAWS = {"stage3": STAGE3, "zero_atom": ZERO_ATOM, "atom_piece": ATOM_PIECE}


def exact_weight(field, u, v):
    """The edge weight as a rational: its ticks over the law's D."""
    ticks = field.dist.quantile(field.edge_uniform(canonical_edge(u, v)),
                                ticks=True)
    return Fraction(ticks, field.dist.ticks_per_unit)


def exact_weights(field, window):
    """Every edge of the window, both ways round, to its exact weight."""
    out = {}
    for u in window.sites():
        for v in ((u[0] + 1, u[1]), (u[0], u[1] + 1)):
            if window.contains(v):
                out[u, v] = out[v, u] = exact_weight(field, u, v)
    return out


def fraction_times(weights, source):
    """Label-correcting search in rational arithmetic: relax every edge
    out of a site whose time improved until no time improves."""
    best = {source: Fraction(0)}
    queue = [source]
    while queue:
        u = queue.pop()
        for dx, dy in NEIGHBOURS:
            v = (u[0] + dx, u[1] + dy)
            if (u, v) not in weights:
                continue
            t = best[u] + weights[u, v]
            if v not in best or t < best[v]:
                best[v] = t
                queue.append(v)
    return best


class TestFractionOracle:
    W = Window(-4, 4, -3, 4)
    SEEDS = ((-3, -2), (3, 0), (0, 3))

    def test_atoms_are_their_decimals(self):
        # the rationalized atoms are the decimals the law was written with
        f = EdgeField(0, STAGE3)
        for u in self.W.sites():
            v = (u[0] + 1, u[1])
            if self.W.contains(v):
                assert exact_weight(f, u, v) == Fraction(
                    repr(f.edge_weight(u, v)))

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_times_and_optimal_edges(self, name):
        w = self.W
        for seed in range(6):
            f = EdgeField(seed, LAWS[name])
            weights = exact_weights(f, w)
            T = fraction_times(weights, (0, 0))
            ptm = GridGraph(f, w).solve((0, 0))
            D = f.dist.ticks_per_unit
            for s in w.sites():
                assert Fraction(int(ptm.tick_time(s)), D) == T[s]
                assert ptm.time(s) == float(T[s])
            # slots (left, down, up, right): right[i, j] is the entry from
            # (i, j) to (i + 1, j), left[i, j] the entry back, and so on
            tight = ptm.tight.reshape(w.nx, w.ny, 4)
            right, left = tight[:-1, :, 3], tight[1:, :, 0]
            up, down = tight[:, :-1, 2], tight[:, 1:, 1]
            graph = InfectionGraph.from_map(ptm)
            for i in range(w.nx):
                for j in range(w.ny):
                    u = (w.xmin + i, w.ymin + j)
                    if i + 1 < w.nx:
                        v = (u[0] + 1, u[1])
                        wt = weights[u, v]
                        assert right[i, j] == (T[u] + wt == T[v])
                        assert left[i, j] == (T[v] + wt == T[u])
                        assert graph.h_mask[i, j] == (abs(T[u] - T[v]) == wt)
                    if j + 1 < w.ny:
                        v = (u[0], u[1] + 1)
                        wt = weights[u, v]
                        assert up[i, j] == (T[u] + wt == T[v])
                        assert down[i, j] == (T[v] + wt == T[u])
                        assert graph.v_mask[i, j] == (abs(T[u] - T[v]) == wt)
            for s in w.sites():
                nbrs = [(s[0] + dx, s[1] + dy) for dx, dy in NEIGHBOURS]
                assert set(pred_sites(ptm, s)) == {
                    u for u in nbrs
                    if (u, s) in weights and T[u] + weights[u, s] == T[s]}

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_competition_ties(self, name):
        ties = 0
        for seed in range(6):
            f = EdgeField(seed, LAWS[name])
            weights = exact_weights(f, self.W)
            Ts = [fraction_times(weights, s) for s in self.SEEDS]
            occ = compete(CompetitionConfig(dist=f.dist, seeds=self.SEEDS,
                                            window=self.W, seed=seed))
            for s in self.W.sites():
                times = [T[s] for T in Ts]
                winners = [i for i, t in enumerate(times) if t == min(times)]
                assert (s in occ.tie_set) == (len(winners) > 1)
                assert occ.owner(s) == (winners[0] if len(winners) == 1
                                        else NONE_OWNER)
                assert occ.reach_grid.item(self.W.index(s)) == float(
                    min(times))
            ties += len(occ.tie_set)
        assert ties > 0


class TestScaleInvariance:
    def test_atoms_times_ten(self):
        # the same ticks under D = 10 and D = 1: ties and optimal edges
        # cannot move, and every time scales by exactly 10
        window = Window.square(30)
        seeds = ((-20, -3), (18, 6), (2, 21), (-4, -22))
        for seed in range(3):
            a, b = EdgeField(seed, STAGE3), EdgeField(seed, STAGE3_X10)
            ga, gb = infection_graph(a, window), infection_graph(b, window)
            assert np.array_equal(ga.h_mask, gb.h_mask)
            assert np.array_equal(ga.v_mask, gb.v_mask)
            oa, ob = (compete(CompetitionConfig(dist=f.dist, seeds=seeds,
                                                window=window, seed=seed))
                      for f in (a, b))
            assert oa.tie_set == ob.tie_set
            assert len(oa.tie_set) > 0
            assert np.array_equal(oa.owner_grid, ob.owner_grid)
            assert np.array_equal(np.rint(oa.reach_grid * 10),
                                  ob.reach_grid)


class TestTwoSolveCompetition:
    @pytest.mark.parametrize("dist", [ZERO_ATOM, STAGE3, UNIF12],
                             ids=["zero_atom", "stage3", "unif12"])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_matches_per_species_minimisers(self, dist, k):
        window = Window.square(12)
        rng = np.random.default_rng(k)
        cells = rng.choice(window.n_sites, size=k, replace=False)
        seeds = tuple(window.site(int(c)) for c in cells)
        for seed in range(3):
            g = GridGraph(EdgeField(seed, dist), window)
            d = np.stack([g.distances(s) for s in seeds])
            reach = d.min(axis=0)
            is_min = d == reach
            tie = is_min.sum(axis=0) > 1
            lowest = is_min.argmax(axis=0)
            for policy in ("strict", "lexicographic"):
                occ = compete(CompetitionConfig(dist=dist, seeds=seeds,
                                                window=window,
                                                tie_policy=policy,
                                                seed=seed))
                assert np.array_equal(occ.tie_mask, tie)
                want = (np.where(tie, NONE_OWNER, lowest)
                        if policy == "strict" else lowest)
                assert np.array_equal(occ.owner_grid, want)
                assert np.array_equal(occ.reach_grid,
                                      reach / dist.ticks_per_unit)

    @pytest.mark.parametrize("dist", [ZERO_ATOM, STAGE3, UNIF12, MIX],
                             ids=["zero_atom", "stage3", "unif12", "mix"])
    @pytest.mark.parametrize("k", [2, 7, 60])
    def test_random_policy_matches_loop(self, dist, k):
        window = Window(-9, 5, -6, 8)
        rng = np.random.default_rng(k)
        cells = rng.choice(window.n_sites, size=k, replace=False)
        seeds = tuple(window.site(int(c)) for c in cells)
        for seed in range(3):
            g = GridGraph(EdgeField(seed, dist), window)
            d = np.stack([g.distances(s) for s in seeds])
            is_min = d == d.min(axis=0)
            occ = compete(CompetitionConfig(dist=dist, seeds=seeds,
                                            window=window,
                                            tie_policy="random", seed=seed))
            assert np.array_equal(occ.owner_grid,
                                  random_owners_loop(is_min, seed, window))
            if dist is ZERO_ATOM and k == 60:
                # ties among many seeds, where the pick is no coin flip
                assert is_min.sum(axis=0).max() > 3


# max_support * D = 1000 * 2^32 ticks; a window of half-width 600 has
# l1 diameter 2400, and 1000 * 2^32 * 2401 > 2^53, though its 4 * 1201^2
# graph indices fit int32
WIDE = {"pieces": [[1.0, 1000.0, 1.0]]}
PI_ATOM = {"atoms": [[1.0, 0.5], [math.pi, 0.5]]}


def compete_cfg(dist, window, seeds=((0, 0), (5, 5))):
    return {"kind": "compete", "seed": 1,
            "params": {"dist": dist, "seeds": [list(s) for s in seeds],
                       "window": window, "survival_threshold": 1}}


def peak_while(fn):
    """The tracemalloc peak, in bytes, of fn()."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestAdmission:
    def test_law_without_ticks_rejected(self):
        d = mk_distribution(atoms=[(1.0, 0.5), (math.pi, 0.5)])
        with pytest.raises(DistributionError):
            d.ticks_per_unit
        with pytest.raises(DistributionError):
            EdgeField(0, d).weight_grids(Window.square(2), ticks=True)

    def test_tick_overflow_rejected_before_allocating(self):
        wide = mk_distribution(pieces=[(1.0, 1000.0, 1.0)])
        w = Window.square(600)
        assert 4 * w.n_sites < 2**31
        assert wide.tick(1000.0) * (w.diameter + 1) >= TICK_LIMIT

        def build():
            with pytest.raises(LatticeError):
                GridGraph(EdgeField(0, wide), w)
        assert peak_while(build) < 1 << 20
        check_domain(wide, Window.square(500))  # 1000 * 2^32 * 2001 < 2^53

    @pytest.mark.parametrize("cfg", [compete_cfg(PI_ATOM, 20),
                                     compete_cfg(WIDE, 600)],
                             ids=["pi_atom", "tick_overflow"])
    def test_config_error_before_allocating(self, tmp_path, cfg):
        def run():
            with pytest.raises(expcli.ConfigError):
                expcli.run(cfg, out_root=str(tmp_path / "o"), echo=False)
        assert peak_while(run) < 1 << 20
        assert not (tmp_path / "o").exists()
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["compete", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2

    def test_shape_diamond_refused_as_config_error(self, tmp_path):
        # 10^5 * 2^32 ticks: the first diamond (radius 2 (L + 1), L <= 17)
        # already lets a Dijkstra sum reach 2^53 ticks
        cfg = {"kind": "shape", "seed": 0, "trials": 1,
               "params": {"dist": {"pieces": [[1.0, 1e5, 1.0]]},
                          "directions": 3, "n": 16}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["shape", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_compete_checks_its_scaled_weights(self, monkeypatch):
        # every policy solves the unscaled weights, so compete admits a
        # window exactly when check_domain does
        law = mk_distribution(pieces=[(1.0, 100.0, 1.0)])
        top = law.tick(law.max_support())
        edge = int((TICK_LIMIT / top - 1) // 4)  # 4 edge + 1 = diameter + 1
        check_domain(law, Window.square(edge))
        with pytest.raises(DomainError):
            check_domain(law, Window.square(edge + 1))
        seeds = tuple((i, 0) for i in range(5))

        class Admitted(Exception):
            pass

        def admit_only(field, window):
            check_domain(field.dist, window)
            raise Admitted

        for policy in ("strict", "lexicographic", "random"):
            def refused():
                with pytest.raises(DomainError):
                    compete(CompetitionConfig(
                        dist=law, seeds=seeds, tie_policy=policy,
                        window=Window.square(edge + 1)))
            assert peak_while(refused) < 1 << 20
            # the largest admitted window passes the check, then is
            # stopped before its graph is built
            with monkeypatch.context() as m:
                m.setattr(growth, "GridGraph", admit_only)
                with pytest.raises(Admitted):
                    compete(CompetitionConfig(dist=law, seeds=seeds,
                                              tie_policy=policy,
                                              window=Window.square(edge)))


class TestThreadsFlag:
    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_non_positive_threads_exit_two(self, tmp_path, value):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(compete_cfg(PI_ATOM, 20)))
        with pytest.raises(SystemExit) as exc:
            main(["compete", "--config", str(path), "--threads", value])
        assert exc.value.code == 2
