"""Trials mapped over a fork pool (fpplab._pool.map_trials).

A run's payload bytes do not depend on the number of CPUs it may use,
a run leaves no worker behind, whether it returns or a trial fails in a
worker, and each worker's trials share the objects their arguments
share. The tests that need a pool skip on a one-CPU machine, where
every trial runs in the test process. Each mapped trial makes the
solves its row needs and no more.
"""

import json
import multiprocessing
import os
import subprocess
import sys

import pytest
from scipy.sparse.csgraph import dijkstra

from fpplab import expcli, lattice
from fpplab._pool import map_trials
from fpplab.cli import main
from fpplab.expcli import RunError, run
from fpplab.lattice import Window
from fpplab.measure import point_mass
from oracles import UNIF12, one_cpu
from test_golden import CONFIGS

HERE = os.path.dirname(os.path.abspath(__file__))
CPUS = len(os.sched_getaffinity(0))
needs_a_pool = pytest.mark.skipif(CPUS < 2, reason="one CPU: no pool")

# the golden compete and ends configs' digests, printed by a fresh
# interpreter pinned to one CPU (argv[2] == "1") or left as it is
DIGESTS = """
import json, os, sys, tempfile
if sys.argv[2] == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from test_golden import CONFIGS, payload_digests
print(json.dumps(payload_digests(CONFIGS[sys.argv[1]], tempfile.mkdtemp())))
"""


def digests(kind, pinned, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(HERE), "src"), HERE]))
    out = subprocess.run([sys.executable, "-c", DIGESTS, kind,
                          "1" if pinned else "0"], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    return json.loads(out.stdout)


def whose(obj, t):
    """Which process ran trial t, and which object it got as obj."""
    return os.getpid(), id(obj), t


def failing_row(*args):
    raise ValueError("trial failed in a worker")


@needs_a_pool
@pytest.mark.parametrize("kind", ["compete", "ends"])
def test_payload_bytes_do_not_depend_on_the_cpus(tmp_path, kind):
    one = digests(kind, True, tmp_path)
    assert one and digests(kind, False, tmp_path) == one


@needs_a_pool
def test_each_worker_gets_one_contiguous_chunk_sharing_its_objects():
    obj = [0]
    rows = map_trials(whose, [(obj, t) for t in range(7)])
    assert [t for _, _, t in rows] == list(range(7))
    workers = min(7, CPUS)
    size = -(-7 // workers)
    chunks = [rows[i:i + size] for i in range(0, 7, size)]
    for chunk in chunks:
        # one process ran the chunk, and its trials got one object
        assert len({(pid, ident) for pid, ident, _ in chunk}) == 1
        assert chunk[0][0] != os.getpid()
    assert multiprocessing.active_children() == []


def test_one_trial_runs_here():
    assert map_trials(whose, [("x", 0)])[0][0] == os.getpid()


def test_no_worker_left_after_a_run(tmp_path):
    for kind in ("compete", "ends"):
        run(CONFIGS[kind], out_root=str(tmp_path / kind), echo=False)
        assert multiprocessing.active_children() == []


def test_trial_failing_in_a_worker_leaves_no_worker(tmp_path, monkeypatch):
    # the failing trial function is inherited by the forked workers
    monkeypatch.setattr(expcli, "_compete_row", failing_row)
    with pytest.raises(RunError, match="trial failed in a worker"):
        run(CONFIGS["compete"], out_root=str(tmp_path / "run"), echo=False)
    assert multiprocessing.active_children() == []
    path = tmp_path / "c.json"
    path.write_text(json.dumps(CONFIGS["compete"]))
    assert main(["compete", "--config", str(path),
                 "--out", str(tmp_path / "cli")]) == 3
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "run").exists()
    assert not (tmp_path / "cli").exists()


@pytest.mark.parametrize("kind", ["compete-strict", "compete-lexicographic",
                                  "compete-random", "ends"])
def test_one_solve_per_trial(tmp_path, monkeypatch, kind):
    # a compete trial makes one multi-source solve, from all its seeds,
    # and an ends trial one single-source solve, from the origin
    kind, _, policy = kind.partition("-")
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs["indices"])
        return dijkstra(*args, **kwargs)
    monkeypatch.setattr(lattice, "_csgraph_dijkstra", spy)
    window, seeds = Window.square(10), [(-5, 0), (5, 0), (0, 5), (0, -5)]
    if kind == "compete":
        params = {"seeds": [list(s) for s in seeds], "tie_policy": policy,
                  "survival_threshold": 1}
        want = [window.index(s) for s in seeds]
    else:
        params, want = {"m_grid": [2, 4]}, window.index((0, 0))
    for i, dist in enumerate((UNIF12, point_mass(1.0))):
        calls.clear()
        cfg = {"kind": kind, "seed": 0, "trials": 3, "params": dict(
            params, dist=dist.to_dict(), window=10)}
        with one_cpu():  # the trials run here, where the spy counts
            art = run(cfg, out_root=str(tmp_path / str(i)), echo=False)
        assert calls == [want] * 3
    if kind == "compete":
        with open(art.payloads[0]) as f:
            rows = json.load(f)["per_trial"]
        # unit weights tie along the diagonals
        assert sum(r["ties"] for r in rows) > 0
