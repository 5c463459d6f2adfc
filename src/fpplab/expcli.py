"""Experiment runner: config validation, dispatch, persistence.

A config is a JSON object with kind, seed, optional trials/threads/out and
a kind-specific params block, validated against the schemas shipped with
the package. run() dispatches, derives per-trial seeds from the master
seed, writes payloads atomically and prints a one-line JSON summary.
Payload bytes depend only on the config (never on the thread count or
completion order).
"""

import csv
import hashlib
import io
import json
import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

import jsonschema
import numpy as np

from . import __version__, svgout
from ._rng import derive_seed
from .convex import l1_ball
from .geograph import (BusemannSpec, busemann_separation,
                       disjointness_diagnostic, ends_estimate,
                       infection_graph)
from .growth import CompetitionConfig, compete
from .lattice import EdgeField, Window
from .measure import (ConstructionSchedule, WeightDistribution,
                      construct_sequence, levy_distance)
from .oriented import alpha_rotated, estimate_alpha, estimate_pc
from .shapeest import DirectionPlan, empirical_shape

KINDS = ("shape", "construct", "oriented", "compete", "ends", "busemann",
         "diagnose")


class ConfigError(ValueError):
    pass


class RunError(RuntimeError):
    pass


def _schema_for(kind):
    path = os.path.join(os.path.dirname(__file__), "schemas", kind + ".json")
    with open(path) as f:
        return json.load(f)


def load_config(path):
    try:
        with open(path) as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError("cannot load config %s: %s" % (path, e))
    return cfg


def validate_config(cfg):
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("config must be an object with a 'kind' field")
    kind = cfg["kind"]
    if kind not in KINDS:
        raise ConfigError("unknown kind %r (expected one of %s)"
                          % (kind, ", ".join(KINDS)))
    try:
        jsonschema.validate(cfg, _schema_for(kind))
    except jsonschema.ValidationError as e:
        raise ConfigError("config invalid for kind %s: %s" % (kind, e.message))
    return cfg


def config_hash(cfg) -> str:
    """sha256 of the canonical JSON form (key order irrelevant)."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def output_root(cfg, override=None):
    return (override or cfg.get("out") or os.environ.get("FPPLAB_OUT")
            or os.path.join(os.getcwd(), "fpplab_out"))


def _atomic_write(path, data: bytes):
    d = os.path.dirname(path)
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path, obj):
    data = (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()
    _atomic_write(path, data)


def _write_csv(path, header, rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for r in rows:
        w.writerow(r)
    _atomic_write(path, buf.getvalue().encode())


def _map_indexed(fn, count, threads):
    """fn(i) for i in range(count), results ordered by index.

    The reduction is by index regardless of scheduling, so results do not
    depend on the thread count.
    """
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, range(count)))
    return [fn(i) for i in range(count)]


@dataclass
class ResultArtifact:
    kind: str
    config_hash: str
    version: str
    out_dir: str
    payloads: list = dc_field(default_factory=list)
    figures: list = dc_field(default_factory=list)
    wall_time: float = 0.0
    summary: dict = dc_field(default_factory=dict)
    error: str = None

    def summary_line(self):
        d = {"kind": self.kind, "hash": self.config_hash,
             "version": self.version, "out": self.out_dir,
             "payloads": self.payloads, "figures": self.figures,
             "wall_time": round(self.wall_time, 3)}
        d.update(self.summary)
        if self.error is not None:
            d["error"] = self.error
        return json.dumps(d, sort_keys=True)


def _line_spec(d):
    return BusemannSpec(v=tuple(d["v"]), w=tuple(d["w"]), n=int(d["n"]))


# --- per-kind runners -------------------------------------------------


def _run_shape(cfg, out_dir, threads):
    p = cfg["params"]
    dist = WeightDistribution.from_dict(p["dist"])
    plan = DirectionPlan.default(D=p["directions"], n=p["n"],
                                 trials=cfg.get("trials", 10),
                                 seed=cfg["seed"])
    est = empirical_shape(dist, plan)
    payload = os.path.join(out_dir, "shape.json")
    _write_json(payload, est.to_dict())
    fig = os.path.join(out_dir, "shape.svg")
    _atomic_write(fig, svgout.shape_figure(
        est.shape, reference=l1_ball(1.0)).encode())
    return [payload], [fig], {"n_vertices": len(est.shape),
                              "clipped_trials": est.clipped_trials}


def _run_construct(cfg, out_dir, threads):
    p = cfg["params"]
    base = WeightDistribution.from_dict(p["base"])
    sd = dict(p["schedule"])
    sd.setdefault("stages", len(sd["p_seq"]))
    sched = ConstructionSchedule.from_dict(sd)
    seq = construct_sequence(base, sched)
    payloads = []
    for i, mu in enumerate(seq):
        path = os.path.join(out_dir, "mu_%d.json" % i)
        _write_json(path, mu.to_dict())
        payloads.append(path)
    steps = [levy_distance(a, b) for a, b in zip(seq, seq[1:])]
    summary_path = os.path.join(out_dir, "payload.json")
    _write_json(summary_path, {"stages": sched.stages, "levy_steps": steps})
    payloads.append(summary_path)
    return payloads, [], {"stages": sched.stages}


def _run_oriented(cfg, out_dir, threads):
    p = cfg["params"]
    trials = cfg.get("trials", 100)
    T = p["T"]
    pv = [float(x) for x in p["p_values"]]

    def one(i):
        a, se, dead = estimate_alpha(pv[i], T, trials,
                                     derive_seed(cfg["seed"], i))
        return (pv[i], a, se, alpha_rotated(a), dead)

    rows = _map_indexed(one, len(pv), threads)
    table = os.path.join(out_dir, "alpha.csv")
    _write_csv(table, ["p", "alpha", "stderr", "alpha_rotated"],
               [[repr(v) for v in r[:4]] for r in rows])
    payload = os.path.join(out_dir, "payload.json")
    obj = {"T": T, "trials": trials,
           "alpha": [{"p": r[0], "alpha": r[1], "stderr": r[2],
                      "alpha_rotated": r[3], "dead_runs": r[4]}
                     for r in rows]}
    if "pc_grid" in p:
        pc = estimate_pc(p["pc_grid"], T, trials,
                         derive_seed(cfg["seed"], len(pv)))
        obj["pc"] = {"p_hat": pc.p_hat, "crossing_T": pc.crossing_T,
                     "crossing_2T": pc.crossing_2T}
    _write_json(payload, obj)
    figs = []
    if len(rows) >= 2:
        fig = os.path.join(out_dir, "alpha.svg")
        _atomic_write(fig, svgout.curve_figure(
            [r[0] for r in rows], [r[1] for r in rows],
            title="edge speed").encode())
        figs.append(fig)
    return [payload, table], figs, {"n_p": len(pv)}


def _run_compete(cfg, out_dir, threads):
    p = cfg["params"]
    dist = WeightDistribution.from_dict(p["dist"])
    seeds = tuple(tuple(s) for s in p["seeds"])
    window = Window.square(p["window"])
    policy = p.get("tie_policy", "strict")
    thr = p["survival_threshold"]
    trials = cfg.get("trials", 10)
    k = len(seeds)

    def one(t):
        c = CompetitionConfig(dist=dist, seeds=seeds, window=window,
                              tie_policy=policy,
                              seed=derive_seed(cfg["seed"], t))
        occ = compete(c)
        return {"trial": t, "alive": occ.survivors(thr),
                "sizes": [occ.region_size(i) for i in range(k)],
                "ties": int(np.count_nonzero(occ.tie_mask))}

    results = _map_indexed(one, trials, threads)
    frac = sum(1 for r in results if r["alive"] == k) / trials
    payload = os.path.join(out_dir, "payload.json")
    _write_json(payload, {"trials": trials, "coexistence_fraction": frac,
                          "per_trial": results})
    table = os.path.join(out_dir, "survival.csv")
    _write_csv(table, ["trial", "alive", "ties"],
               [[r["trial"], r["alive"], r["ties"]] for r in results])
    return [payload, table], [], {"coexistence_fraction": frac}


def _run_ends(cfg, out_dir, threads):
    p = cfg["params"]
    dist = WeightDistribution.from_dict(p["dist"])
    window = Window.square(p["window"])
    m_grid = [int(m) for m in p["m_grid"]]
    trials = cfg.get("trials", 10)

    def one(t):
        field = EdgeField(derive_seed(cfg["seed"], t), dist)
        g = infection_graph(field, window)
        counts = {m: ends_estimate(g, m) for m in m_grid}
        best_m = max(m_grid, key=lambda m: (counts[m], -m))
        return {"trial": t, "counts": counts, "best_m": best_m,
                "ends": counts[best_m]}

    results = _map_indexed(one, trials, threads)
    payload = os.path.join(out_dir, "payload.json")
    _write_json(payload, {"trials": trials, "m_grid": m_grid,
                          "per_trial": [
                              {"trial": r["trial"], "best_m": r["best_m"],
                               "ends": r["ends"],
                               "counts": {str(k): v for k, v in
                                          r["counts"].items()}}
                              for r in results]})
    table = os.path.join(out_dir, "ends.csv")
    _write_csv(table, ["trial", "best_m", "ends"],
               [[r["trial"], r["best_m"], r["ends"]] for r in results])
    med = float(np.median([r["ends"] for r in results]))
    return [payload, table], [], {"median_ends": med}


def _run_busemann(cfg, out_dir, threads):
    p = cfg["params"]
    dist = WeightDistribution.from_dict(p["dist"])
    window = Window.square(p["window"])
    specs = [_line_spec(d) for d in p["lines"]]
    seeds = [tuple(s) for s in p["seeds"]]
    field = EdgeField(cfg["seed"], dist)
    rep = busemann_separation(field, specs, seeds, window)
    payload = os.path.join(out_dir, "payload.json")
    _write_json(payload, rep.to_dict())
    return [payload], [], {"alpha": rep.alpha}


def _run_diagnose(cfg, out_dir, threads):
    p = cfg["params"]
    dist = WeightDistribution.from_dict(p["dist"])
    window = Window.square(p["window"])
    targets = [_line_spec(d) for d in p["targets"]]
    m, M = p["m"], p["M"]
    ahw = p.get("arc_halfwidth", 0.25)
    trials = cfg.get("trials", 1)

    def one(t):
        field = EdgeField(derive_seed(cfg["seed"], t), dist)
        return disjointness_diagnostic(field, targets, m, M, window,
                                       arc_halfwidth=ahw)

    reports = _map_indexed(one, trials, threads)
    payload = os.path.join(out_dir, "payload.json")
    _write_json(payload, {"trials": trials,
                          "reports": [r.to_dict() for r in reports]})
    fig = os.path.join(out_dir, "geodesics.svg")
    _atomic_write(fig, svgout.path_figure(
        reports[0].geodesic_sites, p["window"]).encode())
    med = float(np.median([q for r in reports for q in r.rho_hat]))
    return [payload], [fig], {"median_rho_hat": med}


_RUNNERS = {"shape": _run_shape, "construct": _run_construct,
            "oriented": _run_oriented, "compete": _run_compete,
            "ends": _run_ends, "busemann": _run_busemann,
            "diagnose": _run_diagnose}


def run(cfg, out_root=None, threads=None, echo=True) -> ResultArtifact:
    """Validate, dispatch and persist one experiment."""
    validate_config(cfg)
    h = config_hash(cfg)
    kind = cfg["kind"]
    root = output_root(cfg, out_root)
    out_dir = os.path.join(root, "%s-%s" % (kind, h[:12]))
    os.makedirs(out_dir, exist_ok=True)
    if threads is None:
        threads = cfg.get("threads", 1)
    t0 = time.monotonic()
    try:
        payloads, figures, summary = _RUNNERS[kind](cfg, out_dir, threads)
    except ConfigError:
        raise
    except Exception as e:
        raise RunError("%s experiment failed: %s" % (kind, e)) from e
    art = ResultArtifact(kind=kind, config_hash=h, version=__version__,
                         out_dir=out_dir, payloads=payloads,
                         figures=figures, wall_time=time.monotonic() - t0,
                         summary=summary)
    if echo:
        print(art.summary_line())
    return art


def sweep(configs, out_root=None, threads=None, echo=True):
    """Run a homogeneous list of configs with per-config isolation.

    A failing config becomes an error row in the merged CSV instead of
    aborting the rest. Returns the list of artifacts (errors included).
    """
    if not configs:
        raise ConfigError("sweep needs at least one config")
    kinds = {c.get("kind") for c in configs}
    if len(kinds) != 1:
        raise ConfigError("sweep configs must share one kind, got %s"
                          % sorted(str(k) for k in kinds))
    kind = kinds.pop()
    arts = []
    for cfg in configs:
        try:
            arts.append(run(cfg, out_root=out_root, threads=threads,
                            echo=echo))
        except (ConfigError, RunError) as e:
            arts.append(ResultArtifact(kind=str(kind),
                                       config_hash=config_hash(cfg),
                                       version=__version__, out_dir="",
                                       error=str(e)))
            if echo:
                print(arts[-1].summary_line())
    root = output_root(configs[0], out_root)
    keys = sorted({k for a in arts for k in a.summary})
    rows = []
    for a in arts:
        rows.append([a.config_hash, a.error or ""]
                    + [a.summary.get(k, "") for k in keys])
    merged = os.path.join(root, "sweep-%s.csv" % kind)
    _write_csv(merged, ["config_hash", "error"] + keys, rows)
    return arts
