"""Infection graph, graph ends, Busemann functions and geodesic diagnostics.

The infection graph is the union over all in-window sites of every
optimal incoming edge of a single-source solve (ties included). Ends are
proxied by counting boundary-touching components after removing a scaled
ball around the origin. Busemann functions are differences of minimal
passage times to a discretized line.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .convex import ConvexShape, boundary_project, l1, l1_ball, projection_coefficient
from .lattice import (EdgeField, GridGraph, LatticeError, PassageTimeMap,
                      Window, geodesic, round_site, solve)
from .measure import in_q_support


class GeoGraphError(ValueError):
    pass


@dataclass
class InfectionGraph:
    """Edge set of all geodesics from the origin, with Q-membership flags."""

    window: Window
    h_mask: np.ndarray  # (nx-1, ny): edge (x,y)-(x+1,y) present
    v_mask: np.ndarray  # (nx, ny-1): edge (x,y)-(x,y+1) present
    hw: np.ndarray
    vw: np.ndarray
    qh: np.ndarray  # q_member flags, same shapes as the masks
    qv: np.ndarray

    @property
    def n_edges(self) -> int:
        return int(self.h_mask.sum() + self.v_mask.sum())

    def vertex_count(self) -> int:
        nx, ny = self.window.nx, self.window.ny
        verts = np.zeros((nx, ny), dtype=bool)
        verts[:-1, :] |= self.h_mask
        verts[1:, :] |= self.h_mask
        verts[:, :-1] |= self.v_mask
        verts[:, 1:] |= self.v_mask
        return int(verts.sum())

    def edges(self):
        """Iterate (u, v, weight, q_member) over canonical edges."""
        w = self.window
        for i, j in zip(*np.nonzero(self.h_mask)):
            u = (int(i) + w.xmin, int(j) + w.ymin)
            yield u, (u[0] + 1, u[1]), float(self.hw[i, j]), bool(self.qh[i, j])
        for i, j in zip(*np.nonzero(self.v_mask)):
            u = (int(i) + w.xmin, int(j) + w.ymin)
            yield u, (u[0], u[1] + 1), float(self.vw[i, j]), bool(self.qv[i, j])

    def has_edge(self, u, v) -> bool:
        a, b = (u, v) if u < v else (v, u)
        w = self.window
        i, j = a[0] - w.xmin, a[1] - w.ymin
        if b == (a[0] + 1, a[1]):
            return bool(self.h_mask[i, j])
        if b == (a[0], a[1] + 1):
            return bool(self.v_mask[i, j])
        return False

    @classmethod
    def from_edges(cls, edges, window: Window, weights=None, q_flags=None):
        """Build a graph from an explicit edge list (used by diagnostics
        and tests on hand-made graphs)."""
        nx, ny = window.nx, window.ny
        g = cls(window=window,
                h_mask=np.zeros((nx - 1, ny), dtype=bool),
                v_mask=np.zeros((nx, ny - 1), dtype=bool),
                hw=np.zeros((nx - 1, ny)), vw=np.zeros((nx, ny - 1)),
                qh=np.zeros((nx - 1, ny), dtype=bool),
                qv=np.zeros((nx, ny - 1), dtype=bool))
        for k, (u, v) in enumerate(edges):
            a, b = (u, v) if u < v else (v, u)
            i, j = a[0] - window.xmin, a[1] - window.ymin
            wgt = 1.0 if weights is None else weights[k]
            qf = False if q_flags is None else q_flags[k]
            if b == (a[0] + 1, a[1]):
                g.h_mask[i, j] = True
                g.hw[i, j] = wgt
                g.qh[i, j] = qf
            elif b == (a[0], a[1] + 1):
                g.v_mask[i, j] = True
                g.vw[i, j] = wgt
                g.qv[i, j] = qf
            else:
                raise GeoGraphError("non-adjacent edge %s %s" % (u, v))
        return g


def infection_graph(field: EdgeField, window: Window,
                    ptm: PassageTimeMap = None) -> InfectionGraph:
    """All optimal predecessor edges over every in-window site.

    An edge belongs iff it is an optimal incoming edge of one of its
    endpoints, i.e. the times of its endpoints differ by exactly its
    weight (ties and loops included). Q-membership flags mark edges whose
    weight falls in the continuous part of the distribution.
    """
    if ptm is None:
        ptm = solve(field, (0, 0), window)
    g, hw, vw = ptm.grid, ptm.hw, ptm.vw
    h_mask = (g[:-1, :] + hw == g[1:, :]) | (g[1:, :] + hw == g[:-1, :])
    v_mask = (g[:, :-1] + vw == g[:, 1:]) | (g[:, 1:] + vw == g[:, :-1])
    qh = in_q_support(field.dist, hw) & h_mask
    qv = in_q_support(field.dist, vw) & v_mask
    return InfectionGraph(window=window, h_mask=h_mask, v_mask=v_mask,
                          hw=hw, vw=vw, qh=qh, qv=qv)


def ends_estimate(graph: InfectionGraph, removal_radius: int) -> int:
    """Boundary-touching components after deleting the l1 ball of the
    given radius around the origin (finite-window proxy for the number
    of ends)."""
    win = graph.window
    half = min(win.xmax, -win.xmin, win.ymax, -win.ymin)
    if removal_radius >= half / 2:
        raise GeoGraphError("removal radius %d too large for the window"
                            % removal_radius)
    nx, ny = win.nx, win.ny
    xs = np.arange(win.xmin, win.xmax + 1)
    ys = np.arange(win.ymin, win.ymax + 1)
    norm = np.abs(xs)[:, None] + np.abs(ys)[None, :]
    keep = norm > removal_radius  # vertices outside the removed ball
    hm = graph.h_mask & keep[:-1, :] & keep[1:, :]
    vm = graph.v_mask & keep[:, :-1] & keep[:, 1:]
    iy = np.arange(ny)
    hu = (np.arange(nx - 1)[:, None] * ny + iy[None, :])[hm]
    vu = (np.arange(nx)[:, None] * ny + iy[None, :-1])[vm]
    rows = np.concatenate([hu, vu])
    cols = np.concatenate([hu + ny, vu + 1])
    n = win.n_sites
    adj = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    n_comp, labels = connected_components(adj, directed=False)
    # graph vertices = endpoints of surviving edges
    verts = np.zeros((nx, ny), dtype=bool)
    verts[:-1, :] |= hm
    verts[1:, :] |= hm
    verts[:, :-1] |= vm
    verts[:, 1:] |= vm
    boundary = np.zeros((nx, ny), dtype=bool)
    boundary[0, :] = boundary[-1, :] = True
    boundary[:, 0] = boundary[:, -1] = True
    touching = verts & boundary
    return len(np.unique(labels.reshape(nx, ny)[touching]))


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

    Steps along the tangent at half-lattice resolution, rounds, and
    deduplicates; raises if the line misses the window entirely.
    """
    base = (spec.n * spec.v[0], spec.n * spec.v[1])
    wnorm = max(abs(spec.w[0]), abs(spec.w[1]))
    if wnorm == 0:
        raise GeoGraphError("zero tangent")
    step = 0.5 / wnorm
    # range of t for which the point can lie inside the window
    extent = max(window.xmax - window.xmin, window.ymax - window.ymin)
    t_max = extent / wnorm
    sites = []
    seen = set()
    t = -t_max
    while t <= t_max:
        s = round_site((base[0] + t * spec.w[0], base[1] + t * spec.w[1]))
        if s not in seen and window.contains(s):
            seen.add(s)
            sites.append(s)
        t += step
    if not sites:
        raise GeoGraphError("line misses the window")
    return sites


def busemann(field: EdgeField, spec: BusemannSpec, x, y, window: Window,
             graph: GridGraph = None) -> float:
    """B_S(x, y): difference of minimal passage times from x and y to the
    discretized line (two single-source solves)."""
    sites = discretize_line(spec, window)
    if graph is None:
        graph = GridGraph(field, window)
    dx = graph.distances(x)
    dy = graph.distances(y)
    idx = np.array([window.index(s) for s in sites])
    return float(dx.ravel()[idx].min() - dy.ravel()[idx].min())


@dataclass(frozen=True)
class SeparationReport:
    matrix: np.ndarray       # [i, j] = B_{L_i + n v_i}(x_j, x_i)
    projections: np.ndarray  # [i, j] = pi_{v_i}(x_i - x_j)
    alpha: float             # half the minimal off-diagonal projection

    def to_dict(self):
        return {"matrix": self.matrix.tolist(),
                "projections": self.projections.tolist(),
                "alpha": self.alpha}


def busemann_separation(field: EdgeField, specs, seeds, window: Window,
                        graph: GridGraph = None) -> SeparationReport:
    """Full k x k Busemann matrix for the spec lines against the seeds.

    Row i uses line L_i + n v_i (one multi-source solve per line; weights
    are symmetric so distance-from-the-line equals distance-to-it).
    Projections pi_{v_i}(x_i - x_j) use the tangent from the spec.
    """
    k = len(seeds)
    if len(specs) != k:
        raise GeoGraphError("need one line spec per seed")
    if graph is None:
        graph = GridGraph(field, window)
    for s in seeds:
        if not window.contains(s):
            raise GeoGraphError("seed %s outside window" % (s,))
    mat = np.zeros((k, k))
    proj = np.zeros((k, k))
    for i, spec in enumerate(specs):
        sites = discretize_line(spec, window)
        d = graph.distance_to_set(sites)
        di = d[seeds[i][0] - window.xmin, seeds[i][1] - window.ymin]
        for j in range(k):
            dj = d[seeds[j][0] - window.xmin, seeds[j][1] - window.ymin]
            mat[i, j] = float(dj - di)
            if j != i:
                proj[i, j] = projection_coefficient(
                    spec.v, spec.w,
                    (seeds[i][0] - seeds[j][0], seeds[i][1] - seeds[j][1]))
    off = proj[~np.eye(k, dtype=bool)] if k > 1 else np.array([0.0])
    alpha = 0.5 * float(off.min()) if k > 1 else math.inf
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


def _first_crossing(path_sites, shape: ConvexShape, radius):
    """First site along the path with gauge(site / radius) > 1."""
    from .convex import gauge
    for s in path_sites:
        if gauge(shape, (s[0] / radius, s[1] / radius)) > 1.0:
            return s
    return None


def disjointness_diagnostic(field: EdgeField, targets, m: int, M: int,
                            window: Window, shape: ConvexShape = None,
                            arc_halfwidth: float = 0.25,
                            samples_per_arc: int = 2) -> DisjointnessReport:
    """Geodesic diagnostics for one configuration.

    One geodesic per target line; pairwise disjointness outside the inner
    ball m * shape; per-geodesic Q-edge counts N_Q in the annulus
    M*shape minus m*shape with rho_hat = N_Q / M; plus the per-target
    event booleans:

      B: the geodesic crosses the inner and outer boundaries inside the
         arc around its own direction;
      C: |tau(0, x) - m| < m*alpha/10 for sampled arc sites x;
      D: tau(y, x) < m*alpha/5 for perturbed arc sites y near x;
      E: at least one Q-edge in the annulus.

    shape is the limit-shape proxy used for all scalings (default: the
    l1 unit ball). alpha is half the minimal pairwise projection
    separation of the arc directions.
    """
    if not (0 < m < M):
        raise GeoGraphError("need 0 < m < M")
    half = min(window.xmax, -window.xmin, window.ymax, -window.ymin)
    if M >= half:
        raise GeoGraphError("M must be smaller than the window half-width")
    if shape is None:
        shape = l1_ball(1.0)
    graph = GridGraph(field, window)
    ptm = solve(field, (0, 0), window, graph=graph)
    k = len(targets)

    geodesics = []
    for spec in targets:
        sites = discretize_line(spec, window)
        best = min(sites, key=lambda s: (ptm.time(s), s))
        path = geodesic(ptm, best)
        if window.on_boundary(path.sites[-1]) or any(
                window.on_boundary(s) for s in path.sites):
            raise GeoGraphError("geodesic clipped by the window")
        geodesics.append(path)

    from .convex import gauge
    outside = []
    for path in geodesics:
        outside.append({s for s in path.sites
                        if gauge(shape, (s[0] / m, s[1] / m)) > 1.0})
    disjoint = np.ones((k, k), dtype=bool)
    for i in range(k):
        for j in range(i + 1, k):
            d = not (outside[i] & outside[j])
            disjoint[i, j] = disjoint[j, i] = d

    # projections / alpha over the target directions
    alpha = math.inf
    if k > 1:
        vals = []
        for i, si in enumerate(targets):
            for j, sj in enumerate(targets):
                if i != j:
                    d = (si.v[0] - sj.v[0], si.v[1] - sj.v[1])
                    vals.append(projection_coefficient(si.v, si.w, d))
        alpha = 0.5 * min(vals)

    n_q = []
    ev = {"B": [], "C": [], "D": [], "E": []}
    for idx, path in enumerate(geodesics):
        count = 0
        for (u, v) in path.edges():
            gu_m = gauge(shape, (u[0] / m, u[1] / m))
            gv_m = gauge(shape, (v[0] / m, v[1] / m))
            gu_M = gauge(shape, (u[0] / M, u[1] / M))
            gv_M = gauge(shape, (v[0] / M, v[1] / M))
            if gu_m > 1 and gv_m > 1 and gu_M <= 1 and gv_M <= 1:
                i, j = u[0] - window.xmin, u[1] - window.ymin
                w = ptm.hw[i, j] if v[0] != u[0] else ptm.vw[i, j]
                if bool(in_q_support(field.dist, w)):
                    count += 1
        n_q.append(count)
        ev["E"].append(count >= 1)

        spec = targets[idx]
        cross_m = _first_crossing(path.sites, shape, m)
        cross_M = _first_crossing(path.sites, shape, M)
        in_arc = True
        for cross, radius in ((cross_m, m), (cross_M, M)):
            if cross is None:
                in_arc = False
                continue
            b = boundary_project(shape, (cross[0] / radius, cross[1] / radius))
            in_arc = in_arc and l1(b, spec.v) <= arc_halfwidth
        ev["B"].append(in_arc)

        # sampled arc sites mD_i: spread boundary points around v_i
        if alpha <= 0 or not math.isfinite(alpha):
            ev["C"].append(False)
            ev["D"].append(False)
            continue
        arc_pts = []
        for a in np.linspace(-arc_halfwidth / 2, arc_halfwidth / 2,
                             samples_per_arc):
            p = (spec.v[0] + a * spec.w[0], spec.v[1] + a * spec.w[1])
            arc_pts.append(boundary_project(shape, p))
        c_ok = True
        d_ok = True
        for p in arc_pts:
            x = round_site((m * p[0], m * p[1]))
            if not window.contains(x):
                c_ok = d_ok = False
                break
            c_ok = c_ok and abs(ptm.time(x) - m) < m * alpha / 10
            pert = round_site((x[0] + m * alpha / 20, x[1]))
            if window.contains(pert) and pert != x:
                sub = solve(field, x, window, limit=m * alpha,
                            graph=graph)
                try:
                    d_ok = d_ok and sub.time(pert) < m * alpha / 5
                except LatticeError:
                    d_ok = False
        ev["C"].append(c_ok)
        ev["D"].append(d_ok)

    return DisjointnessReport(disjoint=disjoint, n_q=tuple(n_q),
                              rho_hat=tuple(c / M for c in n_q),
                              alpha=alpha, events=ev,
                              geodesic_sites=[p.sites for p in geodesics])


def nested_geodesic_agreement(field: EdgeField, spec: BusemannSpec,
                              spec_far: BusemannSpec, r: int,
                              window: Window) -> bool:
    """Do geodesics toward two nested line scales agree on [-r, r]^2?

    Finite-window probe of subsequence convergence of geodesics toward a
    boundary direction.
    """
    graph = GridGraph(field, window)
    ptm = solve(field, (0, 0), window, graph=graph)
    paths = []
    for sp in (spec, spec_far):
        sites = discretize_line(sp, window)
        best = min(sites, key=lambda s: (ptm.time(s), s))
        paths.append(geodesic(ptm, best))
    boxes = [{s for s in p.sites if max(abs(s[0]), abs(s[1])) <= r}
             for p in paths]
    return boxes[0] == boxes[1]
