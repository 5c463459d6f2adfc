"""Experiment runner: config validation, dispatch, persistence.

A config is a JSON object with kind, seed, an optional out and a
kind-specific params block, and an optional trials for the kinds in
TRIALS, which holds their default trial counts. A field that would change
no payload byte is not in the schema, so a config that sets one is
refused. SCHEMAS holds one draft-07 JSON Schema per kind, composed from
single definitions of the parts the kinds share: the envelope, the law,
the seed-site list and the line spec. validate_config checks them itself,
accepting and refusing what jsonschema 4.26 does, with its message,
except that NaN and ±Infinity are no numbers, and returns the config
with each value that the schema types integer made an int, so that 2.0
runs, hashes and names its output directory as 2 does. run() hashes and
dispatches that parse, derives per-trial seeds from the master seed,
runs the trials serially, writes the outputs that the runner returns,
each file atomically, and prints a one-line JSON summary: a run whose
runner fails writes nothing. Payload bytes depend only on the config.

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
import hashlib
import io
import json
import math
import numbers
import operator
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
from .shapeest import empirical_shape


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


# The default trial count of each kind whose runner reads one; a config
# of another kind that sets trials is refused
TRIALS = {"shape": 10, "oriented": 100, "compete": 10, "ends": 10,
          "diagnose": 1}


def _config(kind, params, *required):
    envelope = {"kind": {"const": kind}, "out": _of("string"),
                "params": _object(params, *required), "seed": _count(0)}
    if kind in TRIALS:
        envelope["trials"] = _count(1)
    return {"$schema": "http://json-schema.org/draft-07/schema#",
            **_object(envelope, "kind", "seed", "params")}


SCHEMAS = {
    "shape": _config("shape", {
        "dist": _LAW, "directions": _count(3), "n": _count(16)},
        "dist", "directions", "n"),
    "construct": _config("construct", {"base": _LAW, "schedule": _object({
        "p0": _of("number"), "p_seq": _of("array", items=_of("number")),
        "y_seq": _of("array", items=_of("number")),
        "spread": _of("number", minimum=0)}, "p0", "p_seq", "y_seq")},
        "base", "schedule"),
    "oriented": _config("oriented", {
        "p_values": _of("array", minItems=1,
                        items=_of("number", exclusiveMinimum=0, maximum=1)),
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
    """The JSON value in the file at path: NaN and ±Infinity are not JSON."""
    try:
        with open(path) as f:
            return json.load(f, parse_constant=_not_json)
    except (OSError, ValueError) as e:
        raise ConfigError("cannot load config %s: %s" % (path, e))


def _not_json(token):
    raise ValueError("%s is not a JSON number" % token)


def validate_config(cfg):
    """The config parsed: refused with a ConfigError, or returned with
    each value that SCHEMAS[kind] types integer made an int."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("config must be an object with a 'kind' field")
    kind = cfg["kind"]
    if kind not in KINDS:
        raise ConfigError("unknown kind %r (expected one of %s)"
                          % (kind, ", ".join(KINDS)))
    # jsonschema's best_match: the highest error, then the last path,
    # then the first (its type term never decides: a path meets one schema)
    e = max(_errors(SCHEMAS[kind], cfg, ()), default=None,
            key=lambda err: (-len(err[0]), err[0]))
    if e is not None:
        raise ConfigError("config invalid for kind %s: %s" % (kind, e[1]))
    return _typed(SCHEMAS[kind], cfg)


def _typed(schema, x):
    """The valid value x with each integer-typed value in it an int."""
    if schema.get("type") == "integer":
        return int(x)
    if "properties" in schema:
        return {k: _typed(schema["properties"][k], v) for k, v in x.items()}
    if "items" in schema:
        return [_typed(schema["items"], item) for item in x]
    return x


_TYPES = {"object": lambda x: isinstance(x, dict),
          "array": lambda x: isinstance(x, list),
          "string": lambda x: isinstance(x, str),
          # a bool is no number, and neither is NaN or ±Infinity
          "number": lambda x: (isinstance(x, numbers.Number)
                               and not isinstance(x, bool)
                               and x == x and abs(x) != math.inf),
          "integer": lambda x: not isinstance(x, bool) and (
              isinstance(x, int) or isinstance(x, float) and x.is_integer())}
_BOUNDS = {"minimum": (operator.lt, "less than"),
           "maximum": (operator.gt, "greater than"),
           "exclusiveMinimum": (operator.le, "less than or equal to"),
           "exclusiveMaximum": (operator.ge, "greater than or equal to")}


def _errors(schema, x, path):
    """Yield (path, message) for each error of the value x at path, in
    jsonschema 4.26's order and words. A keyword that _of, _tuple,
    _object and _config do not write raises, as does a const or enum
    that is not a string (compared with ==)."""
    obj, arr = isinstance(x, dict), isinstance(x, list)
    for key, v in schema.items():
        bad = None
        if key in _BOUNDS:  # on any number, whatever the type
            test, words = _BOUNDS[key]
            bad = _TYPES["number"](x) and test(x, v) and (
                "%r is %s the %s of %r" % (x, words, key[-7:].lower(), v))
        elif key == "type":
            bad = not _TYPES[v](x) and "%r is not of type %r" % (x, v)
        elif key == "const" and isinstance(v, str):
            bad = x != v and "%r was expected" % (v,)
        elif key == "enum" and all(isinstance(each, str) for each in v):
            bad = x not in v and "%r is not one of %r" % (x, v)
        elif key == "minItems":
            bad = arr and len(x) < v and "%r %s" % (
                x, "should be non-empty" if v == 1 else "is too short")
        elif key == "maxItems":
            bad = arr and len(x) > v and "%r %s" % (
                x, "is expected to be empty" if v == 0 else "is too long")
        elif key == "additionalProperties" and v is False:
            extra = obj and sorted(x.keys() - schema["properties"], key=str)
            bad = extra and "Additional properties are not allowed " + (
                "(%s %s unexpected)" % (", ".join(map(repr, extra)),
                                        "was" if len(extra) == 1 else "were"))
        elif key == "items":
            for i, item in enumerate(x if arr else ()):
                yield from _errors(v, item, path + (i,))
        elif key == "properties":
            for k in [k for k in v if obj and k in x]:
                yield from _errors(v[k], x[k], path + (k,))
        elif key == "required":
            yield from ((path, "%r is a required property" % (k,))
                        for k in v if obj and k not in x)
        elif key != "$schema":
            raise NotImplementedError("schema keyword %s: %r" % (key, v))
        if bad:
            yield path, bad


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


def _trials(cfg):
    return cfg.get("trials", TRIALS[cfg["kind"]])


def _line_spec(d):
    return BusemannSpec(v=tuple(d["v"]), w=tuple(d["w"]), n=d["n"])


# --- per-kind runners: (cfg, params) -> (outputs, summary) -----------


def _run_shape(cfg, p):
    dist = WeightDistribution.from_dict(p["dist"])
    est = empirical_shape(dist, p["directions"], p["n"], _trials(cfg),
                          cfg["seed"])
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
    outputs["payload.json"] = {"stages": len(steps), "levy_steps": steps}
    return outputs, {"stages": len(steps)}


def _run_oriented(cfg, p):
    trials = _trials(cfg)
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
    trials = _trials(cfg)
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
    m_grid = p["m_grid"]
    for m in m_grid:
        check_removal_radius(window, m)
    trials = _trials(cfg)

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
    trials = _trials(cfg)

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

    The hash, the output directory and the runner read the config that
    validate_config returns. Trials run serially. Each runner makes its
    domain once, so the graphs of its trials share one CSR topology,
    which goes with the domain when the runner returns. An InputError
    from the runner is a ConfigError.
    """
    cfg = validate_config(cfg)
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
    # one that is no object, or has no known kind, is refused as run()
    # would, before the merged CSV is named after that kind
    for cfg in configs:
        if not isinstance(cfg, dict) or cfg.get("kind") not in KINDS:
            validate_config(cfg)
    kinds = {c.get("kind") for c in configs}
    if len(kinds) != 1:
        raise ConfigError("sweep configs must share one kind, got %s"
                          % sorted(str(k) for k in kinds))
    kind = kinds.pop()
    arts = []
    for cfg in configs:
        try:
            cfg = validate_config(cfg)  # so that an error row hashes the parse
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
