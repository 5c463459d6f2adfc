"""Infection graph, graph ends, Busemann functions and geodesic diagnostics.

The infection graph is the union over all in-window sites of every
optimal incoming edge of a single-source solve (ties included). Ends are
proxied by counting boundary-touching components after removing a scaled
ball around the origin, for every removal radius from one components
pass at the largest. Busemann functions are differences of minimal
passage times to a discretized line, read from one solve from the line.
busemann and InfectionGraph.from_map take the GridGraph or the solve
alone and read the field and the window from it. The line solves and the
diagnostic's solve from the origin stop at a cut in ticks: the largest
weight of an L-shaped path to a site whose time bounds every time they
read, which Dijkstra's limit keeps exact. A GeoGraphError refuses an
input; a geodesic clipped by the window, which depends on the field, is
a RuntimeError.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .convex import (ConvexShape, boundary_project, gauge, l1, l1_ball,
                     projection_coefficient)
from .lattice import (EdgeField, GridGraph, LatticeError, PassageTimeMap,
                      Window, geodesic, round_site)
from .measure import InputError, in_q_support


class GeoGraphError(InputError):
    pass


def _vertices(h_mask, v_mask):
    """Sites that are an endpoint of an edge of the masks."""
    verts = np.zeros((v_mask.shape[0], h_mask.shape[1]), dtype=bool)
    verts[:-1, :] |= h_mask
    verts[1:, :] |= h_mask
    verts[:, :-1] |= v_mask
    verts[:, 1:] |= v_mask
    return verts


@dataclass
class InfectionGraph:
    """Edge set of all geodesics from the source of a solve."""

    window: Window
    h_mask: np.ndarray  # (nx-1, ny): edge (x,y)-(x+1,y) present
    v_mask: np.ndarray  # (nx, ny-1): edge (x,y)-(x,y+1) present

    @property
    def n_edges(self) -> int:
        return int(self.h_mask.sum() + self.v_mask.sum())

    def vertex_count(self) -> int:
        return int(_vertices(self.h_mask, self.v_mask).sum())

    @classmethod
    def from_map(cls, ptm: PassageTimeMap):
        """All optimal predecessor edges of a solve on a window.

        An edge belongs iff it is an optimal incoming edge of one of its
        endpoints, i.e. the times of its endpoints differ by exactly its
        weight (ties and loops included): one of its two entries is
        tight (GridGraph.tight).
        """
        window = ptm.graph.window
        # an edge to the right is in when slot 3 of its left end or slot
        # 0 of its right end is tight; an edge up, slot 2 or slot 1
        tight = ptm.tight.reshape(window.shape + (4,))
        return cls(window=window,
                   h_mask=tight[:-1, :, 3] | tight[1:, :, 0],
                   v_mask=tight[:, :-1, 2] | tight[:, 1:, 1])


def infection_graph(field: EdgeField, window: Window) -> InfectionGraph:
    """The infection graph from the origin over every in-window site
    (InfectionGraph.from_map)."""
    return InfectionGraph.from_map(GridGraph(field, window).solve((0, 0)))


def check_removal_radius(window: Window, removal_radius: int):
    """Refuse a removal radius of at least half the window half-width."""
    half = min(window.xmax, -window.xmin, window.ymax, -window.ymin)
    if removal_radius >= half / 2:
        raise GeoGraphError("removal radius %d too large for the window"
                            % removal_radius)


def _components(n, rows, cols):
    """(count, labels) of the components of n nodes, edges rows - cols."""
    adj = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    return connected_components(adj, directed=False)


def _edges(window, h_mask, v_mask):
    """(rows, cols): the flat indices of the two ends of each edge of the
    masks, the edges right, then the edges up."""
    idx = np.arange(window.n_sites).reshape(window.shape)
    return (np.concatenate([idx[:-1][h_mask], idx[:, :-1][v_mask]]),
            np.concatenate([idx[1:][h_mask], idx[:, 1:][v_mask]]))


def ends_estimate(graph: InfectionGraph, radii) -> list:
    """For each removal radius m, in order, the boundary-touching
    components after deleting the l1 ball of radius m around the origin
    (finite-window proxy for the number of ends).

    All radii are checked first. One components pass runs at the largest
    radius R; a component at m is a union of those at R joined through
    the edges into the shell m < |x|_1 <= R. No rim site is adjacent to
    an allowed ball (check_removal_radius), so the rim sites that touch
    an edge are the same at every radius."""
    win = graph.window
    for m in radii:
        check_removal_radius(win, m)
    R = max(radii)
    x, y = np.ogrid[win.xmin:win.xmax + 1, win.ymin:win.ymax + 1]
    r = np.abs(x) + np.abs(y)
    keep = r > R  # vertices outside the largest ball
    hm = graph.h_mask & keep[:-1, :] & keep[1:, :]
    vm = graph.v_mask & keep[:, :-1] & keep[:, 1:]
    n, labels = _components(win.n_sites, *_edges(win, hm, vm))
    touching = labels.reshape(win.shape)[_vertices(hm, vm) & win.rim]
    # the edges that the largest ball removes, and the l1 norm of the
    # nearer end of each: a ball of radius m keeps those beyond m
    hd, vd = graph.h_mask & ~hm, graph.v_mask & ~vm
    rows, cols = _edges(win, hd, vd)
    near = np.concatenate([np.minimum(r[:-1], r[1:])[hd],
                           np.minimum(r[:, :-1], r[:, 1:])[vd]])
    counts = []
    for m in radii:
        shell = near > m
        merged = _components(n, labels[rows[shell]], labels[cols[shell]])[1]
        counts.append(len(np.unique(merged[touching])))
    return counts


def k_lower_bound(s: int) -> int:
    """Ends lower bound 4 * floor((s - 4) / 12) from a side count s."""
    if s < 4:
        raise GeoGraphError("side count must be >= 4")
    return 4 * ((s - 4) // 12)


@dataclass(frozen=True)
class BusemannSpec:
    """Target line L + n*v: through n*v with tangent direction w."""

    v: tuple  # boundary direction point
    w: tuple  # tangent direction, not parallel to v
    n: int

    def __post_init__(self):
        if self.v[0] * self.w[1] - self.v[1] * self.w[0] == 0:
            raise GeoGraphError("tangent parallel to direction")


def discretize_line(spec: BusemannSpec, window: Window):
    """Lattice sites of the line L + n*v clipped to the window.

    Steps along the tangent at half-lattice resolution, rounds as
    round_site does, and deduplicates in first-seen order; raises if the
    line misses the window entirely.
    """
    base = (spec.n * spec.v[0], spec.n * spec.v[1])
    wnorm = max(abs(spec.w[0]), abs(spec.w[1]))
    if wnorm == 0:
        raise GeoGraphError("zero tangent")
    step = 0.5 / wnorm
    # range of t for which the point can lie inside the window; t steps
    # from -t_max by running sums, which accumulate adds in order
    extent = max(window.xmax - window.xmin, window.ymax - window.ymin)
    t_max = extent / wnorm
    t = np.full(int(2 * t_max / step) + 3, step)
    t[0] = -t_max
    np.add.accumulate(t, out=t)
    t = t[t <= t_max]
    xy = np.floor(np.multiply.outer(t, spec.w) + base + 0.5).astype(np.int64)
    xy = xy[((xy >= (window.xmin, window.ymin))
             & (xy <= (window.xmax, window.ymax))).all(axis=1)]
    _, first = np.unique(xy[:, 0] * window.ny + xy[:, 1], return_index=True)
    if not len(first):
        raise GeoGraphError("line misses the window")
    return [tuple(s) for s in xy[np.sort(first)].tolist()]


def _cells(window: Window, sites):
    """Indices of the sites, refused off the window with GeoGraphError."""
    for s in sites:
        if not window.contains(s):
            raise GeoGraphError("site %s outside window" % (s,))
    return [window.index(s) for s in sites]


def _l_path_ticks(graph: GridGraph, a, b):
    """The weight in ticks of the path from a along x to (b_x, a_y), then
    along y to b: an upper bound on the time between two window sites,
    summed exactly (check_domain)."""
    (ax, ay), (bx, by) = np.subtract((a, b), (graph.window.xmin,
                                              graph.window.ymin))
    return float(graph.th[min(ax, bx):max(ax, bx), ay].sum()
                 + graph.tv[bx, min(ay, by):max(ay, by)].sum())


def _nearest(line, site):
    """The first of the line's sites nearest the given site in l1."""
    return line[int(np.abs(np.array(line) - site).sum(axis=1).argmin())]


def _line_ticks(graph: GridGraph, spec: BusemannSpec, sites):
    """Ticks between the discretized line L + n*v and each of the sites,
    in one solve from the line (the graph is symmetric and sums ticks
    exactly), stopped at the largest weight of an L-path from a site's
    nearest line site to it, which bounds the site's time."""
    cells = _cells(graph.window, sites)
    line = discretize_line(spec, graph.window)
    cut = max(_l_path_ticks(graph, _nearest(line, x), x) for x in sites)
    return graph.distance_to_set(line, limit=cut).take(cells)


def _projections(specs, points):
    """[i, j] = pi_{v_i}(points[i] - points[j]) off the diagonal, and alpha,
    half the least such entry (inf for a single spec)."""
    k = len(specs)
    proj = np.zeros((k, k))
    for i, spec in enumerate(specs):
        for j in range(k):
            if j != i:
                proj[i, j] = projection_coefficient(
                    spec.v, spec.w, (points[i][0] - points[j][0],
                                     points[i][1] - points[j][1]))
    if k == 1:
        return proj, math.inf
    return proj, 0.5 * float(proj[~np.eye(k, dtype=bool)].min())


def busemann(graph: GridGraph, spec: BusemannSpec, x, y) -> float:
    """B_S(x, y) in the graph's field: the minimal passage time from x to
    the discretized line minus that from y, exact in ticks, from one
    solve from the line."""
    tx, ty = _line_ticks(graph, spec, (x, y))
    return float((tx - ty) / graph.field.dist.ticks_per_unit)


@dataclass(frozen=True)
class SeparationReport:
    matrix: np.ndarray       # [i, j] = B_{L_i + n v_i}(x_j, x_i)
    projections: np.ndarray  # [i, j] = pi_{v_i}(x_i - x_j)
    alpha: float             # half the minimal off-diagonal projection

    def to_dict(self):
        return {"matrix": self.matrix.tolist(),
                "projections": self.projections.tolist(),
                "alpha": self.alpha}


def busemann_separation(field: EdgeField, specs, seeds,
                        window: Window) -> SeparationReport:
    """Full k x k Busemann matrix for the spec lines against the seeds.

    Row i reads every seed's time to line L_i + n v_i from one solve from
    that line, and each entry is a difference of tick times, converted
    once. Projections pi_{v_i}(x_i - x_j) use the tangent from the spec.
    """
    k = len(seeds)
    if len(specs) != k:
        raise GeoGraphError("need one line spec per seed")
    _cells(window, seeds)  # refused before the graph is built
    graph = GridGraph(field, window)
    mat = np.zeros((k, k))
    for i, spec in enumerate(specs):
        ticks = _line_ticks(graph, spec, seeds)
        mat[i] = (ticks - ticks[i]) / field.dist.ticks_per_unit
    proj, alpha = _projections(specs, seeds)
    return SeparationReport(matrix=mat, projections=proj, alpha=alpha)


# ---------------------------------------------------------------------------
# Disjoint-geodesic / Q-edge diagnostics
# ---------------------------------------------------------------------------


@dataclass
class DisjointnessReport:
    disjoint: np.ndarray       # [i, j] True if geodesics i, j share no site
                               # outside the inner ball
    n_q: tuple                 # Q-edge count per geodesic in the annulus
    rho_hat: tuple             # n_q / M
    alpha: float
    events: dict               # per-event lists of booleans, keys B..E
    geodesic_sites: list = dc_field(default_factory=list, repr=False)

    def to_dict(self):
        return {"disjoint": self.disjoint.tolist(), "n_q": list(self.n_q),
                "rho_hat": list(self.rho_hat), "alpha": self.alpha,
                "events": {k: list(v) for k, v in self.events.items()}}


def _grid_index(window: Window, sites):
    """The index arrays of the sites in an array of the window's shape."""
    sites = np.array(sites)
    return sites[:, 0] - window.xmin, sites[:, 1] - window.ymin


def _line_geodesic(ptm: PassageTimeMap, line):
    """The lexicographic geodesic from the solve's source to the site of
    the discretized line with the least tick time (the least such site
    on a tie), found in one gather over the line's cells."""
    ticks = ptm.ticks[_grid_index(ptm.graph.window, line)].tolist()
    return geodesic(ptm, min(zip(ticks, line))[1])


def disjointness_diagnostic(field: EdgeField, targets, m: int, M: int,
                            window: Window, shape: ConvexShape = None,
                            arc_halfwidth: float = 0.25) -> DisjointnessReport:
    """Geodesic diagnostics for one configuration.

    One geodesic per target line; pairwise disjointness outside the inner
    ball m * shape; per-geodesic Q-edge counts N_Q in the annulus
    M*shape minus m*shape with rho_hat = N_Q / M; plus the per-target
    event booleans:

      B: the geodesic crosses the inner and outer boundaries inside the
         arc around its own direction;
      C: |tau(0, x) - m| < m*alpha/10 for the two arc sites x, m times
         the boundary points at +-arc_halfwidth/2 along the tangent;
      D: tau(y, x) < m*alpha/5 for perturbed arc sites y near x;
      E: at least one Q-edge in the annulus.

    shape is the limit-shape proxy used for all scalings (default: the
    l1 unit ball). alpha is half the minimal pairwise projection
    separation of the arc directions. Each geodesic's gauge is evaluated
    once at scale m and once at M, for all of its sites.
    """
    if not (0 < m < M):
        raise GeoGraphError("need 0 < m < M")
    half = min(window.xmax, -window.xmin, window.ymax, -window.ymin)
    if M >= half:
        raise GeoGraphError("M must be smaller than the window half-width")
    if shape is None:
        shape = l1_ball(1.0)
    graph = GridGraph(field, window)
    alpha = _projections(targets, [spec.v for spec in targets])[1]
    lines = [discretize_line(spec, window) for spec in targets]
    # the sites mD_i that events C and D read: m times the two boundary
    # points around v_i, +-arc_halfwidth/2 along the tangent
    arcs = [[round_site((m * p[0], m * p[1])) for p in (
        boundary_project(shape, (spec.v[0] + a * spec.w[0],
                                 spec.v[1] + a * spec.w[1]))
        for a in (-arc_halfwidth / 2, arc_halfwidth / 2))]
        if alpha > 0 and math.isfinite(alpha) else [] for spec in targets]
    # every time read below is at most the time of one of these sites: a
    # geodesic's sites are no later than its line's nearest site
    bounds = [_nearest(line, (0, 0)) for line in lines] + [
        x for arc in arcs for x in arc if window.contains(x)]
    cut = max(_l_path_ticks(graph, (0, 0), x) for x in bounds)
    ptm = PassageTimeMap(graph, (0, 0), graph.distances((0, 0), limit=cut),
                         cut / field.dist.ticks_per_unit)
    k = len(targets)

    geodesics = []
    for line in lines:
        path = _line_geodesic(ptm, line)
        if window.rim[_grid_index(window, path)].any():
            raise RuntimeError("geodesic clipped by the window")
        geodesics.append(path)

    outside = []
    n_q = []
    ev = {"B": [], "C": [], "D": [], "E": []}
    for spec, path, arc in zip(targets, geodesics, arcs):
        sites = np.array(path)
        beyond_m = gauge(shape, sites / m) > 1.0
        beyond_M = gauge(shape, sites / M) > 1.0
        outside.append({s for s, b in zip(path, beyond_m) if b})

        # Q-edges with both ends in the annulus: every step of a geodesic
        # is tight, so its weight is the rise of the ticks along it
        annulus = beyond_m & ~beyond_M
        rise = np.diff(ptm.ticks[_grid_index(window, path)])
        w = rise[annulus[:-1] & annulus[1:]] / field.dist.ticks_per_unit
        count = int(np.count_nonzero(in_q_support(field.dist, w)))
        n_q.append(count)
        ev["E"].append(count >= 1)

        # the first sites beyond m * shape and beyond M * shape, scaled
        firsts = [sites[beyond.argmax()] / radius for beyond, radius
                  in ((beyond_m, m), (beyond_M, M)) if beyond.any()]
        ev["B"].append(len(firsts) == 2 and all(
            l1(boundary_project(shape, p), spec.v) <= arc_halfwidth
            for p in firsts))

        if not arc:  # alpha is not positive and finite
            ev["C"].append(False)
            ev["D"].append(False)
            continue
        c_ok = True
        d_ok = True
        for x in arc:
            if not window.contains(x):
                c_ok = d_ok = False
                break
            c_ok = c_ok and abs(ptm.time(x) - m) < m * alpha / 10
            pert = round_site((x[0] + m * alpha / 20, x[1]))
            if window.contains(pert) and pert != x:
                sub = graph.solve(x, limit=m * alpha)
                try:
                    d_ok = d_ok and sub.time(pert) < m * alpha / 5
                except LatticeError:
                    d_ok = False
        ev["C"].append(c_ok)
        ev["D"].append(d_ok)

    disjoint = np.ones((k, k), dtype=bool)
    for i in range(k):
        for j in range(i + 1, k):
            disjoint[i, j] = disjoint[j, i] = not (outside[i] & outside[j])

    return DisjointnessReport(disjoint=disjoint, n_q=tuple(n_q),
                              rho_hat=tuple(c / M for c in n_q),
                              alpha=alpha, events=ev,
                              geodesic_sites=geodesics)
