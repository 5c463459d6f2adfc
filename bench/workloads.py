"""The benchmark's workloads: inputs, one round of the pipeline, checks.

A round runs a workload's experiment configs through fpplab.expcli.run,
the runner behind the ``fpplab`` command, in the order the paper's
argument takes them. Inputs are a function of the benchmark seed alone,
so every round of a run repeats the same work. The first round's outputs
are checked against properties the method must have and against exact
oracles; later rounds must write byte-identical payloads.
"""

import copy
import json
import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from fpplab import (EdgeField, Window, construct_sequence, hull,
                    infection_graph, place_seeds, point_mass)
from fpplab._rng import derive_seed
from fpplab.convex import tangent_at
from fpplab.measure import ConstructionSchedule, WeightDistribution

# The staged construction: base law 0.9*d(1) + 0.1*d(3); stage n moves
# mass from the atom at 1 to y_n. The masses at 1 run from well above the
# oriented critical value down to just above it.
BASE = {"atoms": [[1.0, 0.9], [3.0, 0.1]]}
SCHEDULE = {"p0": 0.9, "p_seq": [0.8, 0.72, 0.66], "y_seq": [2.5, 2.0, 1.6]}
STAGE_P = [SCHEDULE["p0"]] + SCHEDULE["p_seq"]
ORIENTED_PC = 0.6447  # oriented bond percolation threshold (Jensen 1999)

# Continuous law for the infection-graph ends, and the atom-plus-piece
# mixture whose Q-edges (weights in the continuous part) the Busemann and
# diagnose kinds probe.
UNIF12 = {"pieces": [[1.0, 2.0, 1.0]]}
MIX15 = {"atoms": [[1.0, 0.85]], "pieces": [[1.1, 1.3, 0.15]]}

OCTAGON = [(1, 0.4), (0.4, 1), (-0.4, 1), (-1, 0.4), (-1, -0.4),
           (-0.4, -1), (0.4, -1), (1, -0.4)]


def _load(path):
    with open(path) as f:
        return json.load(f)


def _support_min(d):
    return min([x for x, _ in d.get("atoms", [])]
               + [a for a, _, _ in d.get("pieces", [])])


class Workload:
    """One workload: inputs made from the seed, a round, its checks."""

    def __init__(self, seed):
        self.inputs = self.make_inputs(seed)

    def round_ops(self, results):
        """Operations beyond the runner calls, attempted every round:
        a list of (name, failed)."""
        return []


class StageShapes(Workload):
    """construct mu_0..mu_3, then the limit shape of every stage."""

    N = 200
    DIRECTIONS = 17   # odd, so the middle angle is the diagonal
    TRIALS = 6
    UNIT_TRIALS = 2   # the unit law is deterministic

    def make_inputs(self, seed):
        return {
            "construct": {"kind": "construct", "seed": seed,
                          "params": {"base": BASE, "schedule": SCHEDULE}},
            "shape": {"kind": "shape", "seed": seed, "trials": self.TRIALS,
                      "params": {"directions": self.DIRECTIONS,
                                 "n": self.N}},
            "unit": {"kind": "shape", "seed": seed,
                     "trials": self.UNIT_TRIALS,
                     "params": {"dist": point_mass(1.0).to_dict(),
                                "directions": self.DIRECTIONS,
                                "n": self.N}},
        }

    def run(self, expcli, out_root):
        art = expcli.run(self.inputs["construct"], out_root=out_root,
                         echo=False)
        results = [("construct", art)]
        for path in art.payloads[:-1]:  # mu_0.json ... mu_N.json
            cfg = copy.deepcopy(self.inputs["shape"])
            cfg["params"]["dist"] = _load(path)
            results.append(("shape", expcli.run(cfg, out_root=out_root,
                                                echo=False)))
        results.append(("shape", expcli.run(self.inputs["unit"],
                                            out_root=out_root, echo=False)))
        return results

    def check(self, results, fail):
        construct = results[0][1]
        mus = [_load(p) for p in construct.payloads[:-1]]
        if len(mus) != len(STAGE_P):
            fail("construct wrote %d stages, expected %d"
                 % (len(mus), len(STAGE_P)))
        for i, mu in enumerate(mus):
            atoms, pieces = mu.get("atoms", []), mu.get("pieces", [])
            total = sum(m for _, m in atoms) + sum(m for _, _, m in pieces)
            at_one = sum(m for x, m in atoms if x == 1.0)
            if abs(total - 1.0) > 1e-12:
                fail("mu_%d has total mass %r" % (i, total))
            if abs(at_one - STAGE_P[i]) > 1e-12:
                fail("mu_%d has mass %r at 1, expected %r"
                     % (i, at_one, STAGE_P[i]))
            if _support_min(mu) < 1.0:
                fail("mu_%d has mass below 1" % i)
        steps = _load(construct.payloads[-1])["levy_steps"]
        for i, d in enumerate(steps, start=1):
            gap = STAGE_P[i - 1] - STAGE_P[i]
            if not 0.0 < d <= gap + 1e-12:
                fail("Levy distance mu_%d -> mu_%d is %r, outside (0, %r]"
                     % (i - 1, i, d, gap))

        shapes = [_load(art.payloads[0]) for _, art in results[1:]]
        stages, unit = shapes[:-1], shapes[-1]
        norms = [np.mean(_orbit_l1(a, self.N)) / self.N
                 for a in unit["angles"]]
        for k, (got, want) in enumerate(zip(unit["m_hat"], norms)):
            if not math.isclose(got, want, rel_tol=1e-12):
                fail("unit law m_hat[%d] = %r, exact value %r"
                     % (k, got, want))
        diag = self.DIRECTIONS // 2
        prev = None
        for i, (mu, est) in enumerate(zip(mus, stages)):
            a_min = _support_min(mu)
            for k, (m, b) in enumerate(zip(est["m_hat"], norms)):
                if m < a_min * b * (1 - 1e-12):
                    fail("stage %d m_hat[%d] = %r is below a_min * |x|_1 / n"
                         " = %r" % (i, k, m, a_min * b))
            # mu_i dominates mu_{i-1} stochastically and every stage uses
            # the same seed, so each edge weight, hence each passage
            # time, can only grow from stage to stage
            if prev is not None:
                for k, (lo, hi) in enumerate(zip(prev, est["m_hat"])):
                    if hi < lo:
                        fail("m_hat[%d] decreases from stage %d to %d: "
                             "%r -> %r" % (k, i - 1, i, lo, hi))
            prev = est["m_hat"]
            if (STAGE_P[i] > ORIENTED_PC
                    and not 1.0 <= est["m_hat"][diag] <= 1.03):
                fail("stage %d (p=%g): diagonal time constant %r outside "
                     "[1, 1.03]" % (i, STAGE_P[i], est["m_hat"][diag]))


def _orbit_l1(angle, n):
    """l1 norms of the rounded dihedral orbit of n*u, u = unit l1 vector
    at the angle (rounding: the site x' with x in x' + [-1/2, 1/2)^2)."""
    c, s = math.cos(angle), math.sin(angle)
    x, y = n * c / (abs(c) + abs(s)), n * s / (abs(c) + abs(s))
    pts = [(x, y), (-x, y), (x, -y), (-x, -y),
           (y, x), (-y, x), (y, -x), (-y, -x)]
    return [abs(math.floor(a + 0.5)) + abs(math.floor(b + 0.5))
            for a, b in pts]


class FlatEdgeCalibration(Workload):
    """Oriented-percolation edge speed at every stage mass, and p_c."""

    T = 150
    TRIALS = 200
    PC_GRID = [0.62, 0.64, 0.66, 0.68, 0.70, 0.72]

    def make_inputs(self, seed):
        return {"oriented": {"kind": "oriented", "seed": seed,
                             "trials": self.TRIALS,
                             "params": {"p_values": sorted(STAGE_P) + [1.0],
                                        "T": self.T,
                                        "pc_grid": self.PC_GRID}}}

    def run(self, expcli, out_root):
        return [("oriented", expcli.run(self.inputs["oriented"],
                                        out_root=out_root, echo=False))]

    def check(self, results, fail):
        obj = _load(results[0][1].payloads[0])
        rows = {r["p"]: r for r in obj["alpha"]}
        one = rows[1.0]
        if one["alpha"] != 1.0 or one["stderr"] != 0.0:
            fail("alpha(1) = %r +- %r, expected exactly 1 +- 0"
                 % (one["alpha"], one["stderr"]))
        ps = sorted(rows)
        for lo, hi in zip(ps, ps[1:]):
            a, b = rows[lo], rows[hi]
            if not b["alpha"] - a["alpha"] > 3 * (a["stderr"] + b["stderr"]):
                fail("alpha(%g) = %r and alpha(%g) = %r are not 3 sigma "
                     "apart" % (lo, a["alpha"], hi, b["alpha"]))
        for r in obj["alpha"]:
            if not math.isclose(r["alpha_rotated"],
                                r["alpha"] / math.sqrt(2), rel_tol=1e-12):
                fail("alpha_rotated(%g) = %r is not alpha / sqrt(2)"
                     % (r["p"], r["alpha_rotated"]))
        p_hat = obj["pc"]["p_hat"]
        if not 0.62 <= p_hat <= 0.67:
            fail("p_c estimate %r outside [0.62, 0.67]" % p_hat)
        # The flat edge predicted from the rotated speed a runs between
        # (1/2 + a/sqrt(2), 1/2 - a/sqrt(2)) and its mirror image; as the
        # stage mass falls each segment must sit strictly inside the last.
        half = [rows[p]["alpha_rotated"] / math.sqrt(2) for p in STAGE_P]
        for i in range(1, len(half)):
            if not 0.0 < half[i] < half[i - 1]:
                fail("flat edge of stage %d (half-width %r) does not nest "
                     "inside stage %d (%r)" % (i, half[i], i - 1,
                                               half[i - 1]))


class CoexistenceGraph(Workload):
    """compete on mu_3, ends on a continuous law, Busemann and diagnose
    on a mixture with a continuous piece."""

    # Exact-tie inputs are fixed, not derived from the benchmark seed:
    # every one of these trials disagrees with the exact oracle today.
    TIES_SEED = 11
    TIES_WINDOW = 150
    TIES_TRIALS = 10
    TIES_RADIUS = 60.0
    ENDS_WINDOW = 150
    ENDS_TRIALS = 6
    ENDS_M_GRID = [10, 20, 30]
    BUSEMANN_WINDOW = 150
    BUSEMANN_LINE_N = 100
    DIAG_WINDOW = 170
    DIAG_TRIALS = 3
    DIAG_m, DIAG_M = 30, 150

    def make_inputs(self, seed):
        octagon = hull(OCTAGON)
        dirs = list(octagon.vertices)
        sites = [list(s) for s in place_seeds(octagon, dirs,
                                              self.TIES_RADIUS)]
        base = WeightDistribution.from_dict(BASE)
        sched = ConstructionSchedule.from_dict(SCHEDULE)
        mu3 = construct_sequence(base, sched)[-1].to_dict()
        lines = [{"v": list(v), "w": list(tangent_at(octagon, v)),
                  "n": self.BUSEMANN_LINE_N} for v in dirs]
        axes = [((1.0, 0.0), (0.0, 1.0)), ((0.0, 1.0), (1.0, 0.0)),
                ((-1.0, 0.0), (0.0, 1.0)), ((0.0, -1.0), (1.0, 0.0))]
        targets = [{"v": list(v), "w": list(w), "n": self.DIAG_M + 5}
                   for v, w in axes]
        return {
            "compete": {"kind": "compete", "seed": self.TIES_SEED,
                        "trials": self.TIES_TRIALS,
                        "params": {"dist": mu3, "seeds": sites,
                                   "window": self.TIES_WINDOW,
                                   "tie_policy": "strict",
                                   "survival_threshold": 1000}},
            "ends": {"kind": "ends", "seed": seed,
                     "trials": self.ENDS_TRIALS,
                     "params": {"dist": UNIF12, "window": self.ENDS_WINDOW,
                                "m_grid": self.ENDS_M_GRID}},
            "busemann": {"kind": "busemann", "seed": seed,
                         "params": {"dist": MIX15,
                                    "window": self.BUSEMANN_WINDOW,
                                    "lines": lines, "seeds": sites}},
            "diagnose": {"kind": "diagnose", "seed": seed,
                         "trials": self.DIAG_TRIALS,
                         "params": {"dist": MIX15,
                                    "window": self.DIAG_WINDOW,
                                    "m": self.DIAG_m, "M": self.DIAG_M,
                                    "targets": targets}},
        }

    def run(self, expcli, out_root):
        return [(kind, expcli.run(self.inputs[kind], out_root=out_root,
                                  echo=False))
                for kind in ("compete", "ends", "busemann", "diagnose")]

    def check(self, results, fail):
        arts = dict(results)
        cfg = self.inputs["compete"]
        window = Window.square(cfg["params"]["window"])
        dist = WeightDistribution.from_dict(cfg["params"]["dist"])
        self._oracle = []
        for r in _load(arts["compete"].payloads[0])["per_trial"]:
            if sum(r["sizes"]) + r["ties"] != window.n_sites:
                fail("compete trial %d: regions and ties cover %d of %d "
                     "sites" % (r["trial"], sum(r["sizes"]) + r["ties"],
                                window.n_sites))
            field = EdgeField(derive_seed(cfg["seed"], r["trial"]), dist)
            ties, sizes, h_mask, v_mask = exact_ties(
                field, cfg["params"]["seeds"], window)
            graph = infection_graph(field, window)
            graph_ok = (np.array_equal(graph.h_mask, h_mask)
                        and np.array_equal(graph.v_mask, v_mask))
            self._oracle.append((ties, sizes, graph_ok))

        e_cfg = self.inputs["ends"]
        e_dist = WeightDistribution.from_dict(e_cfg["params"]["dist"])
        e_window = Window.square(e_cfg["params"]["window"])
        for r in _load(arts["ends"].payloads[0])["per_trial"]:
            if min(r["counts"].values()) < 1:
                fail("ends trial %d: a count below 1: %s"
                     % (r["trial"], r["counts"]))
            graph = infection_graph(
                EdgeField(derive_seed(e_cfg["seed"], r["trial"]), e_dist),
                e_window)
            if graph.n_edges != e_window.n_sites - 1:
                fail("ends trial %d: infection graph has %d edges on %d "
                     "sites" % (r["trial"], graph.n_edges,
                                e_window.n_sites))
            if _components(graph) != 1:
                fail("ends trial %d: infection graph is not connected"
                     % r["trial"])

        matrix = np.array(_load(arts["busemann"].payloads[0])["matrix"])
        b_params = self.inputs["busemann"]["params"]
        seeds = np.array(b_params["seeds"])
        cap = WeightDistribution.from_dict(b_params["dist"]).max_support()
        l1 = np.abs(seeds[:, None, :] - seeds[None, :, :]).sum(axis=2)
        if np.any(np.diag(matrix) != 0.0):
            fail("Busemann diagonal is not zero: %s" % np.diag(matrix))
        if np.any(np.abs(matrix) > cap * l1 + 1e-9):
            fail("a Busemann value exceeds max_support * |x_i - x_j|_1")

        big_m = self.inputs["diagnose"]["params"]["M"]
        for t, rep in enumerate(_load(arts["diagnose"].payloads[0])
                                ["reports"]):
            for i, (nq, rho, e) in enumerate(zip(
                    rep["n_q"], rep["rho_hat"], rep["events"]["E"])):
                if rho != nq / big_m or e != (nq >= 1):
                    fail("diagnose trial %d target %d: n_Q=%d, rho_hat=%r, "
                         "E=%r" % (t, i, nq, rho, e))

    def round_ops(self, results):
        """ties_exact: each compete trial's strict tie count and region
        sizes, and the infection graph of its mu_3 field, against the
        exact oracle computed by check()."""
        per_trial = _load(dict(results)["compete"].payloads[0])["per_trial"]
        return [("ties_exact",
                 not (r["ties"] == ties and r["sizes"] == sizes and graph_ok))
                for r, (ties, sizes, graph_ok) in zip(per_trial,
                                                      self._oracle)]


def _window_adjacency(hw, vw):
    """Undirected CSR adjacency of a window from its edge-weight grids."""
    nx, ny = vw.shape[0], hw.shape[1]
    ix, iy = np.arange(nx), np.arange(ny)
    hu = (ix[:-1, None] * ny + iy[None, :])
    vu = (ix[:, None] * ny + iy[None, :-1])
    rows = np.concatenate([hu.ravel(), vu.ravel()])
    cols = np.concatenate([hu.ravel() + ny, vu.ravel() + 1])
    data = np.concatenate([hw.ravel(), vw.ravel()])
    return csr_matrix((data, (rows, cols)), shape=(nx * ny, nx * ny))


def exact_ties(field, seeds, window):
    """Strict-policy tie count and region sizes for the seeds, and the
    infection-graph masks from the origin, in exact arithmetic.

    The field's law must be purely atomic with atoms on the grid 1/10 Z.
    Weights are scaled by 10 to integers, so every Dijkstra sum is exact
    and equal passage times compare equal whatever the summation order.
    """
    locs = np.array([x for x, _ in field.dist.atoms])
    scaled = np.rint(locs * 10)
    if field.dist.pieces or not np.array_equal(scaled / 10, locs):
        raise ValueError("law is not purely atomic on the grid 1/10 Z")
    hw, vw = field.weight_grids(window)
    kh, kv = np.searchsorted(locs, hw), np.searchsorted(locs, vw)
    if not (np.array_equal(locs[kh], hw) and np.array_equal(locs[kv], vw)):
        raise ValueError("a weight is not one of the law's atoms")
    ih, iv = scaled[kh], scaled[kv]
    adj = _window_adjacency(ih, iv)
    shape = (window.nx, window.ny)
    idx = [window.index(tuple(s)) for s in seeds]
    d = dijkstra(adj, directed=False, indices=idx).reshape(
        (len(seeds),) + shape)
    is_min = d == d.min(axis=0)
    tie = is_min.sum(axis=0) > 1
    owner = np.where(tie, -1, is_min.argmax(axis=0))
    sizes = [int(np.count_nonzero(owner == i)) for i in range(len(seeds))]
    g = dijkstra(adj, directed=False,
                 indices=window.index((0, 0))).reshape(shape)
    h_mask = np.abs(g[1:, :] - g[:-1, :]) == ih
    v_mask = np.abs(g[:, 1:] - g[:, :-1]) == iv
    return int(np.count_nonzero(tie)), sizes, h_mask, v_mask


def _components(graph):
    """Number of connected components of an infection graph's sites."""
    nx, ny = graph.window.nx, graph.window.ny
    idx = np.arange(nx * ny).reshape(nx, ny)
    rows = np.concatenate([idx[:-1, :][graph.h_mask],
                           idx[:, :-1][graph.v_mask]])
    cols = np.concatenate([idx[1:, :][graph.h_mask],
                           idx[:, 1:][graph.v_mask]])
    adj = csr_matrix((np.ones(len(rows)), (rows, cols)),
                     shape=(nx * ny, nx * ny))
    return connected_components(adj, directed=False)[0]


WORKLOADS = {
    "stage_shapes": StageShapes,
    "flat_edge_calibration": FlatEdgeCalibration,
    "coexistence_graph": CoexistenceGraph,
}
