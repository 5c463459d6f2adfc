"""Experiment runner: config validation, dispatch, persistence.

A config is a JSON object with kind, seed, optional trials/threads/out and
a kind-specific params block. SCHEMAS holds one JSON Schema per kind,
composed from single definitions of the parts the kinds share: the
envelope, the law, the seed-site list and the line spec. run()
validates, dispatches, derives per-trial seeds from the master seed, runs
the trials serially, writes the outputs that the runner returns, each
file atomically, and prints a one-line JSON summary: a run whose runner
fails writes nothing. Payload bytes depend only on the config; threads
is an accepted hint that changes nothing.

What the schema cannot see is refused where it is parsed, by a
measure.InputError that run() reports as a ConfigError before any output
is written: a malformed law or schedule (DistributionError), a domain on
which the solves would not be exact (DomainError, from check_domain,
which every graph calls before it allocates), a compete seed off its
window or repeated (GrowthError), and busemann or diagnose lines, seeds
or scales and ends removal radii that do not fit (GeoGraphError). The
ends and diagnose runners check their radii and lines before trial 0.
"""

import csv
import functools
import hashlib
import io
import json
import os
import tempfile
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import __version__, svgout
from ._rng import derive_seed
from .convex import l1_ball
from .geograph import (BusemannSpec, busemann_separation,
                       check_removal_radius, discretize_line,
                       disjointness_diagnostic, ends_estimate,
                       infection_graph)
from .growth import TIE_POLICIES, CompetitionConfig, coexistence_stats
from .lattice import EdgeField, Window
from .measure import (ConstructionSchedule, InputError, WeightDistribution,
                      construct_sequence, levy_distance)
from .oriented import alpha_and_pc, alpha_rotated
from .shapeest import DirectionPlan, empirical_shape


class ConfigError(ValueError):
    pass


class RunError(RuntimeError):
    pass


def _of(type_, **keywords):
    """A schema for one value: its type and keywords, keys sorted, since
    the validator reports its errors in the order it reads the keys."""
    return dict(sorted({"type": type_, **keywords}.items()))


def _count(minimum):
    return _of("integer", minimum=minimum)


def _tuple(type_, n):
    return _of("array", items=_of(type_), minItems=n, maxItems=n)


def _object(properties, *required):
    keywords = {"required": list(required)} if required else {}
    return _of("object", additionalProperties=False,
               properties=dict(sorted(properties.items())), **keywords)


# The parts the kinds share, each defined once: the law
# (measure.WeightDistribution.from_dict), the seed-site list, the line
# spec (geograph.BusemannSpec) and the envelope around the params.
_LAW = _object({"atoms": _of("array", items=_tuple("number", 2)),
                "pieces": _of("array", items=_tuple("number", 3))})
_SITES = _of("array", items=_tuple("integer", 2), minItems=1)
_LINES = _of("array", minItems=1, items=_object(
    {"v": _tuple("number", 2), "w": _tuple("number", 2), "n": _count(1)},
    "v", "w", "n"))


def _config(kind, params, *required):
    return {"$schema": "http://json-schema.org/draft-07/schema#",
            **_object({"kind": {"const": kind}, "out": _of("string"),
                       "params": _object(params, *required),
                       "seed": _count(0), "threads": _count(1),
                       "trials": _count(1)},
                      "kind", "seed", "params")}


SCHEMAS = {
    "shape": _config("shape", {
        "dist": _LAW, "directions": _count(3), "n": _count(16)},
        "dist", "directions", "n"),
    "construct": _config("construct", {"base": _LAW, "schedule": _object({
        "p0": _of("number"), "p_seq": _of("array", items=_of("number")),
        "y_seq": _of("array", items=_of("number")), "stages": _count(0),
        "spread": _of("number", minimum=0)}, "p0", "p_seq", "y_seq")},
        "base", "schedule"),
    "oriented": _config("oriented", {
        "p_values": _of("array", minItems=1,
                        items=_of("number", minimum=0, maximum=1)),
        "T": _count(1),
        "pc_grid": _of("array", minItems=2, items=_of(
            "number", exclusiveMinimum=0, exclusiveMaximum=1))},
        "p_values", "T"),
    "compete": _config("compete", {
        "dist": _LAW, "seeds": _SITES, "window": _count(2),
        "survival_threshold": _count(1),
        "tie_policy": {"enum": list(TIE_POLICIES)}},
        "dist", "seeds", "window", "survival_threshold"),
    "ends": _config("ends", {
        "dist": _LAW, "window": _count(4),
        "m_grid": _of("array", items=_count(1), minItems=1)},
        "dist", "window", "m_grid"),
    "busemann": _config("busemann", {
        "dist": _LAW, "window": _count(2), "lines": _LINES,
        "seeds": _SITES}, "dist", "window", "lines", "seeds"),
    "diagnose": _config("diagnose", {
        "dist": _LAW, "window": _count(4), "m": _count(1), "M": _count(2),
        "targets": _LINES, "arc_halfwidth": _of("number", exclusiveMinimum=0)},
        "dist", "window", "m", "M", "targets"),
}
KINDS = tuple(SCHEMAS)


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
    from jsonschema.exceptions import best_match
    # the error jsonschema.validate would raise, without checking the
    # schema again on every run
    e = best_match(_validator(kind).iter_errors(cfg))
    if e is not None:
        raise ConfigError("config invalid for kind %s: %s" % (kind, e.message))
    return cfg


@functools.cache
def _validator(kind):
    """The validator of SCHEMAS[kind], its schema checked once."""
    # imported here, so that importing the runner stays cheap
    from jsonschema.validators import validator_for
    cls = validator_for(SCHEMAS[kind])
    cls.check_schema(SCHEMAS[kind])
    return cls(SCHEMAS[kind])


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


def _write(out_dir, outputs):
    """Write each output of a runner into out_dir atomically: its file
    name maps to a JSON object (.json), a (header, rows) pair (.csv) or
    SVG text (.svg). Returns (payloads, figures), the paths of the .svg
    files in figures and of the others in payloads, in dict order."""
    payloads, figures = [], []
    for name, content in outputs.items():
        path = os.path.join(out_dir, name)
        if name.endswith(".svg"):
            _atomic_write(path, content.encode())
            figures.append(path)
        elif name.endswith(".csv"):
            _write_csv(path, *content)
            payloads.append(path)
        else:
            _write_json(path, content)
            payloads.append(path)
    return payloads, figures


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


# --- per-kind runners: (cfg, params) -> (outputs, summary) -----------


def _run_shape(cfg, p):
    dist = WeightDistribution.from_dict(p["dist"])
    plan = DirectionPlan.default(D=p["directions"], n=p["n"],
                                 trials=cfg.get("trials", 10),
                                 seed=cfg["seed"])
    est = empirical_shape(dist, plan)
    outputs = {"shape.json": est.to_dict(),
               "shape.svg": svgout.shape_figure(est.shape,
                                                reference=l1_ball(1.0))}
    return outputs, {"n_vertices": len(est.shape),
                     "clipped_trials": est.clipped_trials}


def _run_construct(cfg, p):
    base = WeightDistribution.from_dict(p["base"])
    sched = ConstructionSchedule.from_dict(p["schedule"])
    seq = construct_sequence(base, sched)
    outputs = {"mu_%d.json" % i: mu.to_dict() for i, mu in enumerate(seq)}
    steps = [levy_distance(a, b) for a, b in zip(seq, seq[1:])]
    outputs["payload.json"] = {"stages": sched.stages, "levy_steps": steps}
    return outputs, {"stages": sched.stages}


def _run_oriented(cfg, p):
    trials = cfg.get("trials", 100)
    T = p["T"]
    pv = [float(x) for x in p["p_values"]]
    # every p reads the same clusters (the monotone coupling), grown once
    alphas, pc = alpha_and_pc(pv, p.get("pc_grid"), T, trials, cfg["seed"])
    rows = [{"p": q, "alpha": a, "stderr": se,
             "alpha_rotated": alpha_rotated(a), "dead_runs": dead}
            for q, (a, se, dead) in zip(pv, alphas)]
    obj = {"T": T, "trials": trials, "alpha": rows}
    if pc is not None:
        obj["pc"] = {"p_hat": pc.p_hat, "crossing_T": pc.crossing_T,
                     "crossing_2T": pc.crossing_2T}
    header = ["p", "alpha", "stderr", "alpha_rotated"]
    outputs = {"payload.json": obj,
               "alpha.csv": (header, [[repr(r[k]) for k in header]
                                      for r in rows])}
    if len(rows) >= 2:
        outputs["alpha.svg"] = svgout.curve_figure(
            pv, [r["alpha"] for r in rows])
    return outputs, {"n_p": len(pv),
                     "dead_runs": sum(r["dead_runs"] for r in rows)}


def _run_compete(cfg, p):
    config = CompetitionConfig(dist=WeightDistribution.from_dict(p["dist"]),
                               seeds=tuple(tuple(s) for s in p["seeds"]),
                               window=Window.square(p["window"]),
                               tie_policy=p.get("tie_policy", "strict"),
                               seed=cfg["seed"])
    trials = cfg.get("trials", 10)
    res = coexistence_stats(config, trials, p["survival_threshold"])
    rows = [{"trial": t, "alive": alive, "sizes": list(sizes), "ties": ties}
            for t, (alive, sizes, ties)
            in enumerate(zip(res.survivals, res.sizes, res.ties))]
    outputs = {"payload.json": {"trials": trials,
                                "coexistence_fraction": res.fraction,
                                "per_trial": rows},
               "survival.csv": (["trial", "alive", "ties"],
                                [[r["trial"], r["alive"], r["ties"]]
                                 for r in rows])}
    return outputs, {"coexistence_fraction": res.fraction}


def _run_ends(cfg, p):
    dist = WeightDistribution.from_dict(p["dist"])
    window = Window.square(p["window"])
    m_grid = [int(m) for m in p["m_grid"]]
    for m in m_grid:
        check_removal_radius(window, m)
    trials = cfg.get("trials", 10)

    rows = []
    for t in range(trials):
        field = EdgeField(derive_seed(cfg["seed"], t), dist)
        g = infection_graph(field, window)
        counts = dict(zip(m_grid, ends_estimate(g, m_grid)))
        best_m = max(m_grid, key=lambda m: (counts[m], -m))
        rows.append({"trial": t, "best_m": best_m, "ends": counts[best_m],
                     "counts": {str(m): c for m, c in counts.items()}})
    outputs = {"payload.json": {"trials": trials, "m_grid": m_grid,
                                "per_trial": rows},
               "ends.csv": (["trial", "best_m", "ends"],
                            [[r["trial"], r["best_m"], r["ends"]]
                             for r in rows])}
    med = float(np.median([r["ends"] for r in rows]))
    return outputs, {"median_ends": med}


def _run_busemann(cfg, p):
    dist = WeightDistribution.from_dict(p["dist"])
    window = Window.square(p["window"])
    specs = [_line_spec(d) for d in p["lines"]]
    seeds = [tuple(s) for s in p["seeds"]]
    field = EdgeField(cfg["seed"], dist)
    rep = busemann_separation(field, specs, seeds, window)
    return {"payload.json": rep.to_dict()}, {"alpha": rep.alpha}


def _run_diagnose(cfg, p):
    dist = WeightDistribution.from_dict(p["dist"])
    window = Window.square(p["window"])
    targets = [_line_spec(d) for d in p["targets"]]
    for spec in targets:
        discretize_line(spec, window)  # refuses a line that misses it
    m, M = p["m"], p["M"]
    ahw = p.get("arc_halfwidth", 0.25)
    trials = cfg.get("trials", 1)

    reports = [disjointness_diagnostic(
        EdgeField(derive_seed(cfg["seed"], t), dist), targets, m, M, window,
        arc_halfwidth=ahw) for t in range(trials)]
    outputs = {"payload.json": {"trials": trials,
                                "reports": [r.to_dict() for r in reports]},
               "geodesics.svg": svgout.path_figure(
                   reports[0].geodesic_sites, p["window"])}
    med = float(np.median([q for r in reports for q in r.rho_hat]))
    return outputs, {"median_rho_hat": med}


_RUNNERS = {"shape": _run_shape, "construct": _run_construct,
            "oriented": _run_oriented, "compete": _run_compete,
            "ends": _run_ends, "busemann": _run_busemann,
            "diagnose": _run_diagnose}


def run(cfg, out_root=None, echo=True) -> ResultArtifact:
    """Validate, dispatch and persist one experiment.

    The config's threads field is an accepted hint: trials run serially
    and it changes nothing. Each runner makes its domain once, so the
    graphs of its trials share one CSR topology, which goes with the
    domain when the runner returns. An InputError from the runner is a
    ConfigError.
    """
    validate_config(cfg)
    h = config_hash(cfg)
    kind = cfg["kind"]
    root = output_root(cfg, out_root)
    out_dir = os.path.join(root, "%s-%s" % (kind, h[:12]))  # made on write
    t0 = time.monotonic()
    try:
        outputs, summary = _RUNNERS[kind](cfg, cfg["params"])
        payloads, figures = _write(out_dir, outputs)
    except InputError as e:
        raise ConfigError("config refused for kind %s: %s" % (kind, e))
    except Exception as e:
        raise RunError("%s experiment failed: %s" % (kind, e)) from e
    art = ResultArtifact(kind=kind, config_hash=h, version=__version__,
                         out_dir=out_dir, payloads=payloads,
                         figures=figures, wall_time=time.monotonic() - t0,
                         summary=summary)
    if echo:
        print(art.summary_line())
    return art


def sweep(configs, out_root=None, echo=True):
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
            arts.append(run(cfg, out_root=out_root, echo=echo))
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
