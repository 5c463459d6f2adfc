"""fpplab: a simulation laboratory for first-passage percolation on Z^2.

Deterministic seeded edge-weight fields, exact windowed passage times,
empirical limit shapes, oriented percolation calibration, multi-species
competition, infection-graph and Busemann diagnostics, and a config-driven
experiment runner.
"""

__version__ = "0.1.0"

from .measure import (ConstructionSchedule, DistributionError,
                      WeightDistribution, construct_sequence, levy_distance,
                      mk_distribution, point_mass)
from .lattice import (EdgeField, GridGraph, LatticeError, PassageTimeMap,
                      Window, ball, canonical_edge, geodesic, round_site)
from .convex import (ConvexShape, GeometryError, extreme_points,
                     flat_edge_intersection, hausdorff, hull, l1_ball,
                     predicted_flat_edge)
from .oriented import (OrientedError, alpha_rotated, estimate_alpha,
                       estimate_pc, oriented_cluster)
from .shapeest import (ShapeEstimate, empirical_shape, sides_estimate,
                       time_constant)
from .growth import (CompetitionConfig, OccupancyMap, coexistence_stats,
                     compete, place_seeds)
from .geograph import (BusemannSpec, InfectionGraph, busemann,
                       busemann_separation, disjointness_diagnostic,
                       ends_estimate, infection_graph, k_lower_bound)
