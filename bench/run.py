"""Run one benchmark workload against the fpplab source tree beside it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload (see workloads.py) until S seconds have
passed, in this process, at the runner's default worker count. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb);
--trace 1 wraps the library's layers (layers.py) and reports the per-layer
metrics instead. Exits with 2, printing no result, when the fpplab
sources are missing or the arguments are wrong, and with 1 when the
program raises.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
SETUP_PROBES = 7


def _digest(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def measure_setup(workload, seed):
    """Median wall time of fresh interpreters that import fpplab and make
    the workload's inputs, and the median import time inside them."""
    walls, imports = [], []
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), workload,
           str(seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        out = subprocess.run(cmd, check=True, capture_output=True,
                             text=True, timeout=120).stdout
        walls.append(time.perf_counter() - t0)
        imports.append(json.loads(out.splitlines()[-1])["import_s"])
    return statistics.median(walls), statistics.median(imports)


def main(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    from fpplab import expcli
    from layers import LAYER_UNITS, Tracer, install, round_metrics

    wl = WORKLOADS[args.workload](args.seed)
    setup_s, import_s = measure_setup(args.workload, args.seed)

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    out_root = os.path.join(OUT, str(os.getpid()))
    walls, layer_rounds, digests = [], [], None
    attempted = failed = 0
    problems = []
    start = time.perf_counter()
    try:
        while not walls or time.perf_counter() - start < args.seconds:
            shutil.rmtree(out_root, ignore_errors=True)
            if tracer:
                tracer.reset()
                tracer.active = True
            t0 = time.perf_counter()
            results = wl.run(expcli, out_root)
            walls.append(time.perf_counter() - t0)
            if tracer:
                tracer.active = False
                layer_rounds.append(round_metrics(tracer))
            attempted += len(results)
            paths = [p for _, art in results for p in art.payloads]
            if digests is None:
                wl.check(results, problems.append)
                digests = _digest(paths)
            elif _digest(paths) != digests:
                problems.append("round %d wrote payloads that differ from "
                                "round 0" % (len(walls) - 1))
            ops = wl.round_ops(results)
            attempted += len(ops)
            failed += sum(1 for _, f in ops if f)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    for p in problems:
        print("check failed: %s" % p, file=sys.stderr)
    print("round walls (s): %s" % " ".join("%.3f" % w for w in walls),
          file=sys.stderr)

    if tracer:
        layers = {k: statistics.median(r[k] for r in layer_rounds)
                  for k in layer_rounds[0]}
        layers["setup.import_s"] = import_s
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in LAYER_UNITS.items()}
        print("traced wall_s %.6f over %d rounds"
              % (statistics.median(walls), len(walls)), file=sys.stderr)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"wall_s": {"value": statistics.median(walls), "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": rss_mb, "unit": "MiB"}}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "fpplab", "__init__.py")):
        print("bench: no fpplab sources at %s" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.exit(main())
