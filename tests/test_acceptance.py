"""Acceptance suite: one test per release criterion.

Each test is a single pass/fail gate at the stated tolerance; run with
pytest -v to get one line per criterion. Scales are chosen to keep each
criterion within its runtime budget on a laptop-class machine.
"""

import json
import math
import os

import numpy as np
import pytest

from fpplab.convex import (hausdorff, hull, l1, l1_ball, predicted_flat_edge)
from fpplab.geograph import (BusemannSpec, busemann, disjointness_diagnostic,
                             ends_estimate, infection_graph, k_lower_bound)
from fpplab.growth import (NONE_OWNER, CompetitionConfig, coexistence_stats,
                           compete, place_seeds)
from fpplab.lattice import EdgeField, GridGraph, Window, ball
from fpplab.measure import mk_distribution, point_mass
from fpplab.oriented import alpha_rotated, estimate_alpha, estimate_pc
from fpplab.shapeest import (DirectionPlan, empirical_shape, flat_edge_report,
                             sides_estimate, time_constant)
from fpplab import expcli
from oracles import MIX, UNIF12, exhaustive_times, pruned_search_times


def test_criterion_01_solver_matches_exhaustive_enumeration():
    # >= 100 random 4x4 fields: exact equality with brute-force path
    # enumeration, tolerance 1e-12
    w = Window(0, 3, 0, 3)
    dists = [UNIF12,
             mk_distribution(atoms=[(1.0, 0.5), (2.0, 0.5)]),
             MIX]
    checked = 0
    for seed in range(34):
        for d in dists:
            f = EdgeField(seed, d)
            ptm = GridGraph(f, w).solve((0, 0))
            oracle = exhaustive_times(f, w, (0, 0))
            for s in w.sites():
                assert abs(ptm.time(s) - oracle[s]) <= 1e-12
            checked += 1
    assert checked >= 100


def test_criterion_02_unit_weights_give_l1_balls_and_shape():
    # balls: B(t) equals the exact l1 ball of radius floor(t), t <= 30
    w = Window.square(32)
    ptm = GridGraph(EdgeField(0, point_mass(1.0)), w).solve((0, 0))
    for t in list(range(31)) + [0.5, 7.9, 29.99, 30.0]:
        got = ball(ptm, t)
        r = int(t)
        want = {(x, y) for x in range(-32, 33) for y in range(-32, 33)
                if abs(x) + abs(y) <= r}
        assert got == want
    # empirical shape within Hausdorff 0.02 of the l1 unit ball
    plan = DirectionPlan.default(D=17, n=200, trials=20, seed=0)
    est = empirical_shape(point_mass(1.0), plan)
    assert hausdorff(est.shape, l1_ball(1.0)) < 0.02


def test_criterion_03_diagonal_flat_edge_ratios():
    # supercritical atom (p=0.8): tau(0,(n,n))/(2n) within [0.99, 1.03];
    # subcritical (p=0.5): strictly above 1.04 (n=300, 20 trials each)
    d_super = mk_distribution(atoms=[(1.0, 0.8), (3.0, 0.2)])
    d_sub = mk_distribution(atoms=[(1.0, 0.5), (3.0, 0.5)])
    m_super, _ = time_constant(d_super, (1, 1), n=300, trials=20, seed=1)
    m_sub, _ = time_constant(d_sub, (1, 1), n=300, trials=20, seed=1)
    ratio_super = m_super / 2.0  # tau/(2n), direction (1,1) has l1 norm 2
    ratio_sub = m_sub / 2.0
    assert 0.99 <= ratio_super <= 1.03
    assert ratio_sub > 1.04


def test_criterion_04_flat_edge_endpoints_and_sides():
    # detected endpoints within l1 0.05 of the oriented-percolation
    # prediction; extreme-point count >= 8 at the calibrated tolerance
    d8 = mk_distribution(atoms=[(1.0, 0.8), (3.0, 0.2)])
    plan = DirectionPlan(angles=tuple(np.linspace(0, math.pi / 2, 65)),
                         n=200, trials=20, seed=3)
    est = empirical_shape(d8, plan)
    a_hat, _, _ = estimate_alpha(0.8, T=400, trials=300, seed=4)
    rep = flat_edge_report(est, alpha_rotated(a_hat), tol=0.02)
    assert rep.intersects
    assert rep.discrepancy <= 0.05
    assert sides_estimate(est, theta_stat=0.02) >= 8


def test_criterion_05_oriented_speed_and_critical_point():
    a1, se1, _ = estimate_alpha(1.0, T=400, trials=100, seed=0)
    assert a1 == 1.0 and se1 == 0.0
    est = {p: estimate_alpha(p, T=400, trials=300, seed=6)
           for p in (0.7, 0.8, 0.9)}
    for lo, hi in ((0.7, 0.8), (0.8, 0.9)):
        gap = est[hi][0] - est[lo][0]
        assert gap > 3 * (est[lo][1] + est[hi][1])
    pc = estimate_pc(np.arange(0.58, 0.76, 0.02), T=400, trials=300, seed=7)
    assert 0.62 <= pc.p_hat <= 0.67


def test_criterion_06_construction_stage_nesting():
    # alpha_p strictly increasing over the schedule p = 0.9, 0.8, 0.72,
    # hence the predicted flat-edge segments strictly nest as p decreases
    ps = (0.9, 0.8, 0.72)
    est = {p: estimate_alpha(p, T=400, trials=300, seed=8) for p in ps}
    for hi, lo in zip(ps, ps[1:]):
        gap = est[hi][0] - est[lo][0]
        assert gap > 3 * (est[hi][1] + est[lo][1])
    segs = {p: predicted_flat_edge(alpha_rotated(est[p][0])) for p in ps}
    for hi, lo in zip(ps, ps[1:]):
        (w_hi, wp_hi), (w_lo, wp_lo) = segs[hi], segs[lo]
        # segment of the smaller p sits strictly inside the larger one
        assert wp_hi[0] < wp_lo[0] <= w_lo[0] < w_hi[0]


def test_criterion_07_busemann_identities():
    # antisymmetry, cocycle, passage-time bound on 1000 random instances
    # (tolerance 1e-9), plus solver-independent equality on 5x5 windows
    rng = np.random.default_rng(2024)
    w = Window.square(10)
    vs = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0),
          (1.0, 1.0), (1.0, -1.0)]
    n_instances = 0
    for fs in range(25):
        f = EdgeField(fs, MIX)
        g = GridGraph(f, w)
        for _ in range(40):
            v = vs[rng.integers(len(vs))]
            t = (-v[1], v[0])
            spec = BusemannSpec(v=v, w=t, n=int(rng.integers(5, 9)))
            x, y, z = [tuple(int(c) for c in rng.integers(-4, 5, size=2))
                       for _ in range(3)]
            bxy = busemann(g, spec, x, y)
            byx = busemann(g, spec, y, x)
            byz = busemann(g, spec, y, z)
            bxz = busemann(g, spec, x, z)
            assert abs(bxy + byx) <= 1e-9
            assert abs(bxy + byz - bxz) <= 1e-9
            tau = g.solve(x).time(y)
            assert abs(bxy) <= tau + 1e-9
            n_instances += 1
    assert n_instances == 1000
    # exact equality against an independent path-search oracle on 5x5
    w5 = Window(0, 4, 0, 4)
    spec = BusemannSpec(v=(1.0, 0.0), w=(0.0, 1.0), n=4)
    for seed in range(10):
        f = EdgeField(seed, UNIF12)
        ox = pruned_search_times(f, w5, (0, 0))
        oy = pruned_search_times(f, w5, (1, 2))
        S = [(4, yy) for yy in range(5)]
        want = min(ox[s] for s in S) - min(oy[s] for s in S)
        assert busemann(GridGraph(f, w5), spec, (0, 0),
                        (1, 2)) == pytest.approx(want, abs=1e-12)


def test_criterion_08_competition_partition_exactness():
    # disjoint regions, exact argmin agreement on sampled sites, and an
    # empty tie set under continuous weights in 100/100 trials
    rng = np.random.default_rng(5)
    window = Window.square(25)
    seeds = ((-12, -10), (13, 2), (-2, 14))
    for trial in range(100):
        cfg = CompetitionConfig(dist=UNIF12, seeds=seeds, window=window,
                                seed=trial)
        occ = compete(cfg)
        assert occ.tie_set == set()
        regions = [occ.region(i) for i in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not (regions[i] & regions[j])
        field = EdgeField(trial, UNIF12)
        g = GridGraph(field, window)
        d = np.stack([g.distances(s) for s in seeds])
        for _ in range(10):
            s = tuple(int(c) for c in rng.integers(-25, 26, size=2))
            i, j = s[0] + 25, s[1] + 25
            assert occ.owner(s) == int(np.argmin(d[:, i, j]))


def test_criterion_09_four_species_coexistence():
    # 4 species seeded at alternating octagon extreme points (R = 40) on a
    # 201^2 window: all-four-survival fraction positive over 200 trials
    octagon = hull([(1, 0.4), (0.4, 1), (-0.4, 1), (-1, 0.4), (-1, -0.4),
                    (-0.4, -1), (0.4, -1), (1, -0.4)])
    dirs = [octagon.vertices[i] for i in (0, 2, 4, 6)]
    sites = place_seeds(octagon, dirs, 40.0)
    cfg = CompetitionConfig(dist=MIX, seeds=tuple(sites),
                            window=Window.square(100), seed=9)
    res = coexistence_stats(cfg, trials=200, survival_threshold=1000)
    assert res.fraction > 0.0


def test_criterion_10_infection_graph_ends():
    # continuous weights, 301^2 windows: >= 4 boundary-touching components
    # after removing the radius-20 ball, in >= 60% of 50 seeds
    window = Window.square(150)
    hits = 0
    for seed in range(50):
        g = infection_graph(EdgeField(seed, UNIF12), window)
        if ends_estimate(g, [20])[0] >= 4:
            hits += 1
    assert hits >= 30
    assert k_lower_bound(4) == 0
    assert k_lower_bound(16) == 4
    assert k_lower_bound(40) == 12


def test_criterion_11_annulus_q_edge_density():
    # 15% continuous mixture, m=30, M=150: every geodesic carries a Q-edge
    # in the annulus in >= 95% of 100 seeds; rho_hat has positive median
    window = Window.square(170)
    targets = [BusemannSpec(v=(1.0, 0.0), w=(0.0, 1.0), n=155),
               BusemannSpec(v=(0.0, 1.0), w=(1.0, 0.0), n=155),
               BusemannSpec(v=(-1.0, 0.0), w=(0.0, 1.0), n=155),
               BusemannSpec(v=(0.0, -1.0), w=(1.0, 0.0), n=155)]
    all_e = 0
    rhos = []
    for seed in range(100):
        rep = disjointness_diagnostic(EdgeField(seed, MIX), targets,
                                      30, 150, window)
        if all(rep.events["E"]):
            all_e += 1
        rhos.extend(rep.rho_hat)
    assert all_e >= 95
    assert float(np.median(rhos)) > 0.0


def test_criterion_12_payloads_independent_of_thread_hint(tmp_path):
    # identical configs with different thread hints produce byte-identical
    # CSV/JSON payloads
    configs = [
        {"kind": "oriented", "seed": 2, "trials": 40,
         "params": {"p_values": [0.7, 0.8, 0.9], "T": 60}},
        {"kind": "compete", "seed": 3, "trials": 8,
         "params": {"dist": {"atoms": [[1.0, 1.0]]},
                    "seeds": [[-5, 0], [5, 0]], "window": 10,
                    "survival_threshold": 10}},
        {"kind": "ends", "seed": 4, "trials": 4,
         "params": {"dist": {"pieces": [[1.0, 2.0, 1.0]]},
                    "window": 30, "m_grid": [3, 5]}},
    ]
    for cfg in configs:
        a = expcli.run(dict(cfg, threads=1), out_root=str(tmp_path / "t1"),
                       echo=False)
        b = expcli.run(dict(cfg, threads=4), out_root=str(tmp_path / "t4"),
                       echo=False)
        assert a.payloads and len(a.payloads) == len(b.payloads)
        for pa, pb in zip(a.payloads, b.payloads):
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                assert fa.read() == fb.read()
