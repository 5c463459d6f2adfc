"""Set-up probe: import fpplab and make one workload's inputs, then exit.

    python3 bench/probe.py WORKLOAD SEED

run.py times whole runs of this script in fresh interpreters (setup_s);
the script prints the time its own import of fpplab took (import_s).
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))
import fpplab.expcli  # noqa: E402,F401  (imports numpy, scipy, jsonschema)

import_s = time.perf_counter() - t0

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](int(sys.argv[2]))
print(json.dumps({"import_s": import_s}))
