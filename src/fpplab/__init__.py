"""fpplab: a simulation laboratory for first-passage percolation on Z^2.

Deterministic seeded edge-weight fields, exact windowed passage times,
empirical limit shapes, oriented percolation calibration, multi-species
competition, infection-graph and Busemann diagnostics, and a config-driven
experiment runner.
"""

__version__ = "0.1.0"

# the names that bench/workloads.py imports from the root; every other
# caller imports from the module that defines a name
from .measure import construct_sequence, point_mass
from .lattice import EdgeField, Window
from .convex import hull
from .growth import place_seeds
from .geograph import infection_graph
