"""Repeat a workload over several seeds, summarize, and compare two sets.

    python3 bench/repeat.py run WORKLOAD [--runs 10] [--seed0 1]
                                [--trace 0|1] [--save FILE]
    python3 bench/repeat.py compare BASE.json NEW.json

``run`` runs BENCHMARK.json's command once per seed (seed0, seed0+1, ...)
from the repository root, one run at a time, for BENCHMARK.json's
run_seconds. It saves the results (default
bench/_runs/WORKLOAD-traceT-seedSEED0-YYYYmmdd-HHMMSS.json; an existing
file is never overwritten) and prints each metric's median and quartiles
(statistics.quantiles, n=4). For end-to-end metrics it also prints the
spread, (q3 - q1) / median, against the metric's bound: a steady
benchmark keeps every spread but setup_s below a third of its bound. A
traced set also shows the traced wall_s, which against an untraced set
of the same seeds gives the tracing overhead.

``compare`` takes two untraced sets of the same workload and run length.
For each end-to-end metric it prints each set's spread, and how far
NEW's median is from BASE's as a share of BASE's median (positive =
worse), against the bound. It also checks that the shares of failed
operations are equal. It exits with 1 if a spread other than setup_s's
exceeds its bound, if a metric is worse by more than its bound, or if
the failed shares differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def summarize(saved, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = saved["results"]
    fails = {(r["failed"], r["attempted"]) for r in results}
    print("%s, trace %d: %d runs, seeds %s; correct in %d; "
          "failed/attempted %s" % (
              saved["workload"], saved["trace"], len(results),
              saved["seeds"], sum(r["correct"] for r in results),
              sorted(fails)))
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med, q1, q3 = _stats(vals)
        line = "  %-28s %-6s median %-12.6g q1 %-12.6g q3 %-12.6g" % (
            name, unit, med, q1, q3)
        if name in bounds and med:
            spread = (q3 - q1) / med
            steady = name == "setup_s" or spread < bounds[name] / 3
            line += " spread %.4f bound %.2f%s" % (
                spread, bounds[name], "" if steady else "  <-- not steady")
        print(line)
    if "traced_wall_s" in results[0]:
        med, q1, q3 = _stats([r["traced_wall_s"] for r in results])
        print("  %-28s %-6s median %-12.6g q1 %-12.6g q3 %-12.6g" % (
            "(traced wall_s)", "s", med, q1, q3))


def cmd_run(args):
    spec = _spec()
    seconds = spec["run_seconds"]
    seeds = list(range(args.seed0, args.seed0 + args.runs))
    path = args.save or os.path.join(
        HERE, "_runs", "%s-trace%d-seed%d-%s.json" % (
            args.workload, args.trace, args.seed0,
            time.strftime("%Y%m%d-%H%M%S")))
    if os.path.exists(path):
        sys.exit("%s exists; give another --save" % path)
    results = []
    for seed in seeds:
        cmd = spec["command"] + ["--workload", args.workload,
                                 "--seed", str(seed),
                                 "--seconds", str(seconds),
                                 "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit("seed %d: exit code %d" % (seed, proc.returncode))
        result = json.loads(proc.stdout.splitlines()[-1])
        for line in proc.stderr.splitlines():
            if line.startswith("traced wall_s "):
                result["traced_wall_s"] = float(line.split()[2])
        results.append(result)
        print("seed %d: %s" % (seed, proc.stdout.splitlines()[-1]),
              flush=True)
    saved = {"workload": args.workload, "trace": args.trace,
             "seconds": seconds, "seeds": seeds, "results": results}
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "x") as f:
        json.dump(saved, f, indent=1)
    print("saved %s" % path)
    summarize(saved, spec)


def cmd_compare(args):
    spec = _spec()
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    for key in ("workload", "trace", "seconds"):
        if base[key] != new[key]:
            sys.exit("the sets differ in %s: %s against %s"
                     % (key, base[key], new[key]))
    if base["trace"]:
        sys.exit("traced sets have no end-to-end metrics to compare")
    ok = True
    for m in spec["end_to_end"]:
        name = m["name"]
        (b, bq1, bq3), (n, nq1, nq3) = [
            _stats([r["metrics"][name]["value"] for r in s["results"]])
            for s in (base, new)]
        spreads = ((bq3 - bq1) / b, (nq3 - nq1) / n)
        wide = name != "setup_s" and max(spreads) > m["bound"]
        worse = (n - b) / b if m["better"] == "lower" else (b - n) / b
        bad = worse > m["bound"]
        ok = ok and not (bad or wide)
        print("  %-12s base %-10.5g new %-10.5g worse by %+.4f, spreads "
              "%.4f %.4f (bound %.2f)%s%s"
              % (name, b, n, worse, spreads[0], spreads[1], m["bound"],
                 "  <-- regression" if bad else "",
                 "  <-- spread" if wide else ""))

    def share(s):
        return {r["failed"] / r["attempted"] for r in s["results"]}

    same = share(base) == share(new) and len(share(base)) == 1
    ok = ok and same
    print("  failed share: base %s new %s%s" % (
        sorted(share(base)), sorted(share(new)),
        "" if same else "  <-- differs"))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run a workload over several seeds")
    r.add_argument("workload")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--save")
    c = sub.add_parser("compare", help="compare two saved sets of runs")
    c.add_argument("base")
    c.add_argument("new")
    args = ap.parse_args(argv)
    if args.cmd == "run":
        cmd_run(args)
        return 0
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
