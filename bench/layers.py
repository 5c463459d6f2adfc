"""Per-layer tracing for the benchmark's traced run.

The benchmark does not change fpplab: it wraps the public functions and
methods of each module from outside, recording one span per call (total
time, self time, call count) and layer counters read off each call's
result and the spans it was made in. Module-level functions are rebound
in every loaded fpplab module that imported them by name, so calls made
from inside the package are caught too.

Spans live in memory in a Tracer and are read out as per-layer metrics
after each round; nothing is written from here.
"""

import functools
import os
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Span and counter store. Wrapped calls record only while active."""

    def __init__(self):
        self.active = False
        self.reset()

    def reset(self):
        self.total = defaultdict(float)    # span name -> seconds
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.within = defaultdict(float)   # (parent, child) -> seconds
        self.count = defaultdict(float)    # counter name -> value
        self._stack = []

    def inside(self, name):
        """Whether a call is being made inside an open span of this name."""
        return any(frame[0] == name for frame in self._stack)

    def wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [name, 0.0]  # span name, time covered by child spans
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                tracer.total[name] += dt
                tracer.self_time[name] += dt - frame[1]
                tracer.calls[name] += 1
                if tracer._stack:
                    parent = tracer._stack[-1]
                    parent[1] += dt
                    tracer.within[(parent[0], name)] += dt
            if after is not None:
                after(tracer, out)
            return out

        return traced


def _rebind(modules, owner, attr, wrapper):
    """Replace owner.attr, and every by-name import of the same object."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper)
    for mod in modules:
        for k, v in list(vars(mod).items()):
            if v is original:
                setattr(mod, k, wrapper)


# -- counters read off results -----------------------------------------

def _count_grid_edges(t, out):
    hw, vw = out
    t.count["rng.edges_hashed"] += hw.size + vw.size


def _count_one_edge(t, out):
    t.count["rng.edges_hashed"] += 1


def _count_solve(t, out):
    t.count["lattice.window_sites"] += out.size
    t.count["lattice.settled_sites"] += int(
        np.count_nonzero(np.isfinite(out)))


def _count_clipped(t, out):
    t.count["shapeest.clipped_trials"] += out.clipped_trials


def _count_cluster(t, out):
    if not out.survived:
        t.count["oriented.dead_runs"] += 1
        # estimate_alpha averages only the survivors and reports no count
        # of the runs it left out; survival_curve's dead runs are its data.
        if t.inside("oriented.estimate_alpha"):
            t.count["oriented.dropped_runs"] += 1
    t.count["oriented.levels"] += (out.levels if out.survived
                                   else len(out.rightmost))


def _count_ties(t, out):
    t.count["growth.tie_sites"] += int(np.count_nonzero(out.tie_mask))


def _count_infection_edges(t, out):
    t.count["geograph.infection_edges"] += out.n_edges


def _count_geodesic_sites(t, out):
    t.count["geograph.geodesic_sites"] += sum(len(s)
                                              for s in out.geodesic_sites)


def _count_payload_bytes(t, out):
    t.count["expcli.payload_bytes"] += sum(
        os.path.getsize(p) for p in out.payloads + out.figures)


def install(tracer):
    """Wrap fpplab's layer entry points so that they report into tracer."""
    import sys

    from fpplab import (_rng, convex, expcli, geograph, growth, lattice,
                        measure, oriented, shapeest, svgout)

    modules = [m for n, m in sys.modules.items()
               if n == "fpplab" or n.startswith("fpplab.")]
    spans = [
        (_rng, "hash_words", "rng.hash", None),
        (measure.WeightDistribution, "quantile", "measure.quantile", None),
        (measure, "construct_sequence", "measure.construct", None),
        (measure, "levy_distance", "measure.levy", None),
        (lattice.EdgeField, "weight_grids", "lattice.weight_grids",
         _count_grid_edges),
        (lattice.EdgeField, "edge_uniform", "lattice.edge_uniform",
         _count_one_edge),
        (lattice.GridGraph, "__init__", "lattice.graph_build", None),
        (lattice.GridGraph, "distances", "lattice.solve", _count_solve),
        (lattice.GridGraph, "distance_to_set", "lattice.solve", _count_solve),
        (lattice, "monotone_upper_bounds", "lattice.bound", None),
        (shapeest, "empirical_shape", "shapeest.empirical_shape",
         _count_clipped),
        (convex, "hull", "convex.hull", None),
        (oriented, "oriented_cluster", "oriented.cluster", _count_cluster),
        (oriented, "estimate_alpha", "oriented.estimate_alpha", None),
        (growth, "compete", "growth.compete", _count_ties),
        (geograph, "infection_graph", "geograph.infection_graph",
         _count_infection_edges),
        (geograph, "ends_estimate", "geograph.ends", None),
        (geograph, "busemann_separation", "geograph.busemann", None),
        (geograph, "disjointness_diagnostic", "geograph.diagnose",
         _count_geodesic_sites),
        (svgout, "shape_figure", "svgout.figure", None),
        (svgout, "curve_figure", "svgout.figure", None),
        (svgout, "path_figure", "svgout.figure", None),
        (expcli, "run", "expcli.run", _count_payload_bytes),
    ]
    for owner, attr, name, after in spans:
        wrapper = tracer.wrap(name, getattr(owner, attr), after)
        _rebind(modules, owner, attr, wrapper)


# name -> unit, in the order the traced run prints them
LAYER_UNITS = {
    "rng.hash_s": "s", "rng.edges_hashed": "count",
    "measure.quantile_s": "s", "measure.construct_s": "s",
    "measure.levy_s": "s",
    "lattice.weight_grids_s": "s", "lattice.graph_build_s": "s",
    "lattice.bound_s": "s", "lattice.solve_s": "s",
    "lattice.solves": "count", "lattice.window_sites": "count",
    "lattice.settled_sites": "count", "lattice.settled_frac": "frac",
    "shapeest.trial_s": "s", "shapeest.clipped_trials": "count",
    "convex.hull_s": "s",
    "oriented.cluster_s": "s", "oriented.runs": "count",
    "oriented.dead_runs": "count", "oriented.dropped_runs": "count",
    "oriented.levels": "count",
    "growth.compete_s": "s", "growth.tie_sites": "count",
    "geograph.infection_graph_s": "s", "geograph.ends_s": "s",
    "geograph.busemann_s": "s", "geograph.diagnose_s": "s",
    "geograph.infection_edges": "count", "geograph.geodesic_sites": "count",
    "expcli.run_s": "s", "expcli.overhead_s": "s",
    "expcli.payload_bytes": "B",
    "svgout.figure_s": "s",
    "setup.import_s": "s",
}


def round_metrics(tracer):
    """Per-layer metrics of one round (everything but setup.import_s)."""
    t, c = tracer.total, tracer.count
    window = c["lattice.window_sites"]
    shape_s = t["shapeest.empirical_shape"]
    return {
        "rng.hash_s": t["rng.hash"],
        "rng.edges_hashed": c["rng.edges_hashed"],
        "measure.quantile_s": t["measure.quantile"],
        "measure.construct_s": t["measure.construct"],
        "measure.levy_s": t["measure.levy"],
        "lattice.weight_grids_s": t["lattice.weight_grids"],
        "lattice.graph_build_s": tracer.self_time["lattice.graph_build"],
        "lattice.bound_s": t["lattice.bound"],
        "lattice.solve_s": t["lattice.solve"],
        "lattice.solves": tracer.calls["lattice.solve"],
        "lattice.window_sites": window,
        "lattice.settled_sites": c["lattice.settled_sites"],
        "lattice.settled_frac": (c["lattice.settled_sites"] / window
                                 if window else 0.0),
        "shapeest.trial_s": shape_s - tracer.within[
            ("shapeest.empirical_shape", "convex.hull")],
        "shapeest.clipped_trials": c["shapeest.clipped_trials"],
        "convex.hull_s": t["convex.hull"],
        "oriented.cluster_s": t["oriented.cluster"],
        "oriented.runs": tracer.calls["oriented.cluster"],
        "oriented.dead_runs": c["oriented.dead_runs"],
        "oriented.dropped_runs": c["oriented.dropped_runs"],
        "oriented.levels": c["oriented.levels"],
        "growth.compete_s": t["growth.compete"],
        "growth.tie_sites": c["growth.tie_sites"],
        "geograph.infection_graph_s": t["geograph.infection_graph"],
        "geograph.ends_s": t["geograph.ends"],
        "geograph.busemann_s": t["geograph.busemann"],
        "geograph.diagnose_s": t["geograph.diagnose"],
        "geograph.infection_edges": c["geograph.infection_edges"],
        "geograph.geodesic_sites": c["geograph.geodesic_sites"],
        "expcli.run_s": t["expcli.run"],
        "expcli.overhead_s": tracer.self_time["expcli.run"],
        "expcli.payload_bytes": c["expcli.payload_bytes"],
        "svgout.figure_s": t["svgout.figure"],
    }
