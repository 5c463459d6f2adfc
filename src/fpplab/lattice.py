"""Seeded edge-weight fields and exact passage times on finite windows.

Edge weights are a pure function of (seed, canonical edge): a keyed
counter-based hash of the edge coordinates produces a uniform variate
which is pushed through the distribution's inverse CDF. Fields can
therefore be shared, queried lazily and reproduced bit-identically.

Single-source passage times are solved with Dijkstra (scipy's compiled
implementation on a CSR adjacency of the window); the predecessor
structure keeps ALL optimal incoming edges so tie unions (the infection
graph) stay computable. solve_targets sizes its own window and returns
exact lattice passage times to a set of targets.
"""

import math
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from ._rng import hash_words, uniform01
from .measure import WeightDistribution

Site = tuple  # (x, y) integer lattice coordinates


class LatticeError(ValueError):
    pass


def round_site(point) -> Site:
    """The unique lattice site x' with point in x' + [-1/2, 1/2)^2."""
    x, y = point
    return (int(np.floor(x + 0.5)), int(np.floor(y + 0.5)))


def canonical_edge(u: Site, v: Site):
    """Canonical (lexicographically ordered) endpoint pair of an edge."""
    if abs(u[0] - v[0]) + abs(u[1] - v[1]) != 1:
        raise LatticeError("sites %s and %s are not adjacent" % (u, v))
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Window:
    """Finite axis-aligned rectangle of lattice sites.

    The standard window is the centered square [-W, W]^2; rectangular
    windows exist for small exhaustive-oracle tests.
    """

    xmin: int
    xmax: int
    ymin: int
    ymax: int

    def __post_init__(self):
        if self.xmax <= self.xmin or self.ymax <= self.ymin:
            raise LatticeError("degenerate window")

    @classmethod
    def square(cls, half_width: int):
        if half_width < 1:
            raise LatticeError("half-width must be >= 1")
        return cls(-half_width, half_width, -half_width, half_width)

    @property
    def nx(self):
        return self.xmax - self.xmin + 1

    @property
    def ny(self):
        return self.ymax - self.ymin + 1

    @property
    def n_sites(self):
        return self.nx * self.ny

    def contains(self, s: Site) -> bool:
        return self.xmin <= s[0] <= self.xmax and self.ymin <= s[1] <= self.ymax

    def on_boundary(self, s: Site) -> bool:
        return s[0] in (self.xmin, self.xmax) or s[1] in (self.ymin, self.ymax)

    def index(self, s: Site) -> int:
        return (s[0] - self.xmin) * self.ny + (s[1] - self.ymin)

    def site(self, idx: int) -> Site:
        return (idx // self.ny + self.xmin, idx % self.ny + self.ymin)

    def sites(self):
        for x in range(self.xmin, self.xmax + 1):
            for y in range(self.ymin, self.ymax + 1):
                yield (x, y)


@dataclass(frozen=True)
class EdgeField:
    """Deterministic i.i.d. edge-weight assignment from a 64-bit seed."""

    seed: int
    dist: WeightDistribution

    def edge_uniform(self, e):
        """The uniform variate attached to a canonical edge."""
        (x, y), v = e
        axis = 0 if v[0] == x + 1 else 1
        return float(uniform01(hash_words(self.seed, x, y, axis)))

    def edge_weight(self, u: Site, v: Site = None) -> float:
        """Weight of the edge between adjacent sites (pure in seed, edge)."""
        e = canonical_edge(u, v) if v is not None else u
        return float(self.dist.quantile(self.edge_uniform(e)))

    def weight_grids(self, window: Window):
        """Vectorized weights of all window edges.

        Returns (hw, vw): hw[i, j] is the weight of the edge from site
        (xmin+i, ymin+j) to (xmin+i+1, ymin+j); vw[i, j] of the edge to
        (xmin+i, ymin+j+1).
        """
        xs = np.arange(window.xmin, window.xmax + 1)
        ys = np.arange(window.ymin, window.ymax + 1)
        hx, hy = np.meshgrid(xs[:-1], ys, indexing="ij")
        vx, vy = np.meshgrid(xs, ys[:-1], indexing="ij")
        hu = uniform01(hash_words(self.seed, hx, hy, np.int64(0)))
        vu = uniform01(hash_words(self.seed, vx, vy, np.int64(1)))
        return self.dist.quantile(hu), self.dist.quantile(vu)


class GridGraph:
    """Window adjacency of one field, reusable across many solves."""

    def __init__(self, field: EdgeField, window: Window, grids=None):
        self.field = field
        self.window = window
        self.hw, self.vw = (field.weight_grids(window) if grids is None
                            else grids)
        ny = window.ny
        n = window.n_sites
        ix = np.arange(window.nx)
        iy = np.arange(window.ny)
        hu = (ix[:-1, None] * ny + iy[None, :]).ravel()
        vu = (ix[:, None] * ny + iy[None, :-1]).ravel()
        rows = np.concatenate([hu, hu + ny, vu, vu + 1])
        cols = np.concatenate([hu + ny, hu, vu + 1, vu])
        data = np.concatenate([self.hw.ravel()] * 2 + [self.vw.ravel()] * 2)
        self._csr = csr_matrix((data, (rows, cols)), shape=(n, n))

    def distances(self, source: Site, limit=None):
        if not self.window.contains(source):
            raise LatticeError("source %s outside window" % (source,))
        d = _csgraph_dijkstra(self._csr, directed=True,
                              indices=self.window.index(source),
                              limit=np.inf if limit is None else float(limit))
        return d.reshape(self.window.nx, self.window.ny)

    def distance_to_set(self, sites):
        """min over the site set of the passage time to each window site."""
        idx = [self.window.index(s) for s in sites]
        if not idx:
            raise LatticeError("empty site set")
        d = _csgraph_dijkstra(self._csr, directed=True, indices=idx,
                              min_only=True)
        return d.reshape(self.window.nx, self.window.ny)


@dataclass
class PassageTimeMap:
    """Solved single-source passage times plus all-optimal predecessors."""

    field: EdgeField
    window: Window
    source: Site
    grid: np.ndarray  # (nx, ny) times, inf where unexplored (limit cut)
    hw: np.ndarray
    vw: np.ndarray
    limit: float = np.inf
    _masks: tuple = dc_field(default=None, repr=False)

    def time(self, s: Site) -> float:
        if not self.window.contains(s):
            raise LatticeError("site %s outside window" % (s,))
        t = self.grid[s[0] - self.window.xmin, s[1] - self.window.ymin]
        if not np.isfinite(t):
            raise LatticeError(
                "site %s beyond the solve limit %g" % (s, self.limit))
        return float(t)

    def _opt_masks(self):
        # opt_right[i,j]: edge (i,j)->(i+1,j) is an optimal incoming edge
        # of (i+1,j); analogously for the other three directions.
        if self._masks is None:
            g, hw, vw = self.grid, self.hw, self.vw
            opt_right = g[:-1, :] + hw == g[1:, :]
            opt_left = g[1:, :] + hw == g[:-1, :]
            opt_up = g[:, :-1] + vw == g[:, 1:]
            opt_down = g[:, 1:] + vw == g[:, :-1]
            self._masks = (opt_right, opt_left, opt_up, opt_down)
        return self._masks

    def preds(self, s: Site):
        """All optimal incoming edges of s, as canonical edge tuples."""
        opt_right, opt_left, opt_up, opt_down = self._opt_masks()
        i, j = s[0] - self.window.xmin, s[1] - self.window.ymin
        out = []
        if i > 0 and opt_right[i - 1, j]:
            out.append(((s[0] - 1, s[1]), s))
        if i < self.window.nx - 1 and opt_left[i, j]:
            out.append((s, (s[0] + 1, s[1])))
        if j > 0 and opt_up[i, j - 1]:
            out.append(((s[0], s[1] - 1), s))
        if j < self.window.ny - 1 and opt_down[i, j]:
            out.append((s, (s[0], s[1] + 1)))
        return out

    def pred_sites(self, s: Site):
        return [e[0] if e[1] == s else e[1] for e in self.preds(s)]

    def boundary_contact(self, t) -> bool:
        """True if the ball of radius t touches the window boundary."""
        g = self.grid
        edges = np.concatenate([g[0, :], g[-1, :], g[:, 0], g[:, -1]])
        return bool(np.any(edges <= t))


def solve(field: EdgeField, source: Site, window: Window,
          limit=None, graph: GridGraph = None) -> PassageTimeMap:
    """Exact in-window passage times from the source to every site.

    limit optionally prunes the search: sites with time > limit come back
    as unexplored (their true time exceeds limit, which callers must only
    use when they query nearer sites). graph allows reuse of a prebuilt
    GridGraph for repeated solves on one field.
    """
    if graph is None:
        graph = GridGraph(field, window)
    grid = graph.distances(source, limit=limit)
    return PassageTimeMap(field=field, window=window, source=source,
                          grid=grid, hw=graph.hw, vw=graph.vw,
                          limit=np.inf if limit is None else float(limit))


@dataclass(frozen=True)
class LatticePath:
    """Sequence of adjacent sites; weight is the sum of its edge weights."""

    sites: tuple

    def __post_init__(self):
        for a, b in zip(self.sites, self.sites[1:]):
            if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
                raise LatticeError("non-adjacent consecutive sites %s %s" % (a, b))

    def __len__(self):
        return len(self.sites)

    def edges(self):
        return [canonical_edge(a, b) for a, b in zip(self.sites, self.sites[1:])]

    def weight(self, field: EdgeField) -> float:
        return sum(field.edge_weight(e) for e in self.edges())


def _plateau_escape(ptm: PassageTimeMap, v: Site, visited):
    """BFS through zero-weight optimal edges to a site with a strict drop.

    Needed only when the distribution has an atom at zero. Deterministic:
    neighbors are explored in sorted order.
    """
    from collections import deque
    t_v = ptm.time(v)
    q = deque([v])
    parent = {v: None}
    while q:
        u = q.popleft()
        if u != v:
            if u == ptm.source or any(
                    ptm.time(w) < t_v for w in ptm.pred_sites(u)):
                path = []
                while u is not None:
                    path.append(u)
                    u = parent[u]
                return path[::-1][1:]  # drop v itself
        for w in sorted(ptm.pred_sites(u)):
            if w not in parent and w not in visited and ptm.time(w) == t_v:
                parent[w] = u
                q.append(w)
    raise LatticeError("stuck on a zero-weight plateau at %s" % (v,))


def geodesic(ptm: PassageTimeMap, target: Site, tie_policy="lexicographic"):
    """A minimizing path from the source to the target.

    tie_policy "lexicographic" walks predecessors choosing the smallest
    site at every tie and returns a LatticePath. tie_policy "all" returns
    the set of canonical edges lying on ANY geodesic from the source to
    the target.
    """
    if not ptm.window.contains(target):
        raise LatticeError("target %s outside window" % (target,))
    if tie_policy == "all":
        from collections import deque
        seen = {target}
        edges = set()
        q = deque([target])
        while q:
            v = q.popleft()
            for e in ptm.preds(v):
                edges.add(e)
                u = e[0] if e[1] == v else e[1]
                if u not in seen:
                    seen.add(u)
                    q.append(u)
        return edges
    if tie_policy != "lexicographic":
        raise LatticeError("unknown tie policy %r" % (tie_policy,))
    rev = [target]
    visited = {target}
    v = target
    while v != ptm.source:
        strict = sorted(u for u in ptm.pred_sites(v) if ptm.time(u) < ptm.time(v))
        if strict:
            v = strict[0]
            rev.append(v)
            visited.add(v)
        else:
            for u in _plateau_escape(ptm, v, visited):
                rev.append(u)
                visited.add(u)
            v = rev[-1]
    return LatticePath(tuple(rev[::-1]))


def ball(ptm: PassageTimeMap, t) -> set:
    """All in-window sites with passage time <= t.

    Warns when the ball touches the window boundary: the returned set may
    then miss sites whose true geodesic leaves the window.
    """
    if t < 0:
        raise LatticeError("ball radius must be >= 0")
    if ptm.boundary_contact(t):
        warnings.warn("ball(t=%g) touches the window boundary; "
                      "truncation may bias the result" % t,
                      stacklevel=2)
    ii, jj = np.nonzero(ptm.grid <= t)
    xmin, ymin = ptm.window.xmin, ptm.window.ymin
    return {(int(i) + xmin, int(j) + ymin) for i, j in zip(ii, jj)}


def monotone_upper_bounds(hw, vw, window: Window, source: Site, targets):
    """Monotone-path upper bounds for many targets at once.

    Runs one dynamic program per quadrant (to the extreme corner spanned
    by that quadrant's targets) and reads each target off the table.
    """
    by_quadrant = {}
    out = {}
    for t in targets:
        if t == source:
            out[t] = 0.0
            continue
        q = (1 if t[0] >= source[0] else -1, 1 if t[1] >= source[1] else -1)
        by_quadrant.setdefault(q, []).append(t)
    for (qx, qy), ts in by_quadrant.items():
        ex = max(abs(t[0] - source[0]) for t in ts)
        ey = max(abs(t[1] - source[1]) for t in ts)
        xs = source[0] + qx * np.arange(ex + 1)
        ys = source[1] + qy * np.arange(ey + 1)
        # H[k, j]: edge between columns xs[k] and xs[k+1] at row ys[j]
        # V[k, j]: edge between rows ys[j] and ys[j+1] at column xs[k]
        H = V = None
        if len(xs) > 1:
            hx = np.minimum(xs[1:], xs[:-1]) - window.xmin
            H = hw[hx[:, None], (ys - window.ymin)[None, :]]
        if len(ys) > 1:
            vy = np.minimum(ys[1:], ys[:-1]) - window.ymin
            V = vw[(xs - window.xmin)[:, None], vy[None, :]]
        # dp over columns; within a column the min over entry rows is a
        # prefix-min scan against cumulative vertical weights.
        table = np.empty((len(xs), len(ys)))
        dp = np.concatenate([[0.0], np.cumsum(V[0])]) if V is not None else np.zeros(1)
        table[0] = dp
        for k in range(1, len(xs)):
            c = dp + H[k - 1]
            vs = np.concatenate([[0.0], np.cumsum(V[k])]) if V is not None else np.zeros(1)
            dp = vs + np.minimum.accumulate(c - vs)
            table[k] = dp
        for t in ts:
            out[t] = float(table[abs(t[0] - source[0]), abs(t[1] - source[1])])
    return out


def _grow_grids(field: EdgeField, inner: Window, hw, vw, window: Window):
    """Weight grids of window, copying those of inner and hashing the rest.

    inner is a square inside the concentric square window. The
    frame between them is covered by four rectangles: left and right at
    full height, bottom and top between them. Every window edge lies in
    inner or in one of them.
    """
    if window == inner:
        return hw, vw
    out_h = np.empty((window.nx - 1, window.ny))
    out_v = np.empty((window.nx, window.ny - 1))
    parts = [(inner, hw, vw)]
    for r in (Window(window.xmin, inner.xmin, window.ymin, window.ymax),
              Window(inner.xmax, window.xmax, window.ymin, window.ymax),
              Window(inner.xmin, inner.xmax, window.ymin, inner.ymin),
              Window(inner.xmin, inner.xmax, inner.ymax, window.ymax)):
        parts.append((r,) + field.weight_grids(r))
    for r, h, v in parts:
        i, j = r.xmin - window.xmin, r.ymin - window.ymin
        out_h[i:i + h.shape[0], j:j + h.shape[1]] = h
        out_v[i:i + v.shape[0], j:j + v.shape[1]] = v
    return out_h, out_v


def solve_targets(field: EdgeField, source: Site, targets):
    """Exact lattice passage times from the source to each target.

    Returns (times, regrowths): times[k] is tau(source, targets[k]) on all
    of Z^2, and regrowths counts how often the first window was doubled.

    The bound ub is the largest monotone-path time to a target within
    the targets' bounding square, of half-width ex + 1 around the source.
    A site with time <= ub lies within l1 distance ub / a_min of the
    source, a_min = dist.min_support(), so the window of half-width
    floor(ub / a_min) + 1 holds every such site off its boundary. That
    half-width is capped at twice the bounding square's (a_min small or
    0), and the window doubles while the ball of radius max tau touches
    its boundary. Once it does not, every path that leaves the window is
    slower than the in-window times, so these are exact. Each edge weight
    is hashed once: larger windows copy the weights already computed.
    """
    sx, sy = source
    targets = list(targets)
    S = 1 + max(max(abs(x - sx), abs(y - sy)) for x, y in targets)

    def square(h):
        return Window(sx - h, sx + h, sy - h, sy + h)

    inner = square(S)
    hw, vw = field.weight_grids(inner)
    ub = max(monotone_upper_bounds(hw, vw, inner, source, targets).values())
    a_min = field.dist.min_support()
    # the max with S: rounding in ub can put floor(ub / a_min) below S - 1
    W = 2 * S if a_min <= 0 else max(S, min(2 * S,
                                            math.floor(ub / a_min) + 1))
    regrowths = 0
    while True:
        window = square(W)
        hw, vw = _grow_grids(field, inner, hw, vw, window)
        inner = window
        ptm = solve(field, source, window, limit=ub * (1 + 1e-9) + 1e-9,
                    graph=GridGraph(field, window, grids=(hw, vw)))
        times = np.array([ptm.time(t) for t in targets])
        if not ptm.boundary_contact(times.max()):
            return times, regrowths
        W *= 2
        regrowths += 1
