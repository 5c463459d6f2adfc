"""Seeded edge-weight fields and exact passage times on finite domains.

Edge weights are a pure function of (seed, canonical edge): a keyed
counter-based hash of the edge coordinates produces a uniform variate
which is pushed through the distribution's inverse CDF. Fields can
therefore be shared, queried lazily, weighed in blocks of sites and
reproduced bit-identically.

Solves run on integer ticks. Every weight is a whole number of ticks of
its law (measure.WeightDistribution.ticks_per_unit, D), and Dijkstra adds
them in float64, which is exact below 2^53. So equal passage times
compare equal whatever order the sums were made in, and integer
equality is the one tie predicate: GridGraph.tight marks the entries
u -> v with ticks[u] + w == ticks[v], and competition, the infection
graph and geodesics all read that mask. Public times are converted
once, as ticks / D. A domain on which a Dijkstra sum could reach 2^53
ticks is refused before anything is allocated (check_domain).

A domain is a Window (an axis-aligned rectangle) or a Diamond (an l1
ball, whose rows have ragged y-ranges). Each owns its site layout: index
refuses a site off it with LatticeError, and a Window gives its rim and
the sites of a mask over it. Both number their sites row after row, and
each site owns its edges to the right and above, so one assembly builds
the CSR adjacency of either: four entries per site, a zero-weight
self-loop standing for a neighbour off the domain, written directly with
no COO stage. The CSR's int32 indices and its indptr depend on the
domain alone. A domain object makes them at its first graph and keeps
them, read-only, for its other graphs, such as the trials of a run on
one window; they are freed with the domain. So a build allocates one
fresh array, the CSR data, into which EdgeField.weight_grids hashes the
weights block by block.

A GridGraph is the one handle on a field over a domain. GridGraph.solve
runs Dijkstra (scipy's compiled implementation) from one source on a
Window, and the PassageTimeMap it returns reads the field and the window
from its graph. Every optimal incoming edge of a site, ties included, is
a tight entry into it, so tie unions (the infection graph) stay
computable; geodesic walks them by flat index, in slot order, which is
the sites' lexicographic order. A
multi-source solve also tells, through the edges its times make tight,
which of its sources attain each time (GridGraph.minimisers).

solve_targets returns exact lattice passage times to a set of targets,
for a batch of fields of one law. It solves each field on an l1 diamond
around the source and certifies every target after the solve at the
diamond's exit edges: a path that leaves the diamond crosses from a
site y on its boundary to a site z just outside, so it costs at least
the in-diamond time of y, plus a_min for the edge, plus a_min per step
from z to the target, for the least edge weight a_min. A target whose
in-diamond time is no more than the least such bound has its Z^2 time,
exactly in ticks, whatever the radius. A one-atom law needs no solve.
"""

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from ._rng import hash_words, uniform01
from .measure import TICK_LIMIT, InputError, WeightDistribution

Site = tuple  # (x, y) integer lattice coordinates


# Sites per block of EdgeField.weight_grids: a block's hash, uniform
# and quantile temporaries, two axes of 8 B per site, stay at 128 KiB,
# which malloc reuses from block to block and the cache holds.
_BLOCK = 8192


class LatticeError(ValueError):
    pass


class DomainError(LatticeError, InputError):
    """A domain refused by check_domain, before anything is allocated."""


def round_site(point) -> Site:
    """The unique lattice site x' with point in x' + [-1/2, 1/2)^2."""
    x, y = point
    return (int(np.floor(x + 0.5)), int(np.floor(y + 0.5)))


def canonical_edge(u: Site, v: Site):
    """Canonical (lexicographically ordered) endpoint pair of an edge."""
    if abs(u[0] - v[0]) + abs(u[1] - v[1]) != 1:
        raise LatticeError("sites %s and %s are not adjacent" % (u, v))
    return (u, v) if u < v else (v, u)


class _Rows:
    """Sites numbered row after row, y ascending within a row: row i holds
    the sites (xmin + i, y), ylo[i] <= y <= yhi[i], of rows()."""

    @cached_property
    def _row_table(self):
        """(yhi, lens, ends): each row's top y, its site count, and the
        index one past its last site; made once, read by every block."""
        ylo, yhi = self.rows()
        lens = yhi - ylo + 1
        return yhi, lens, np.cumsum(lens)

    @cached_property
    def _topology(self):
        """The CSR indices and indptr that its graphs share (_Topology),
        made at the first graph and freed with this domain."""
        return _Topology(self)

    def site_words(self, lo=0, hi=None):
        """Coordinates (x, y) of the sites lo .. hi - 1 (every site by
        default), as flat int64 arrays in index order."""
        hi = self.n_sites if hi is None else hi
        yhi, lens, ends = self._row_table
        # the rows i0 .. i1 - 1 that hold the sites lo .. hi - 1, and how
        # many of them each holds; site k of row i has y = k - base[i]
        i0, i1 = np.searchsorted(ends, (lo, hi - 1), side="right") + (0, 1)
        span = slice(i0, i1)
        counts = (np.minimum(ends[span], hi)
                  - np.maximum(ends[span] - lens[span], lo))
        base = ends[span] - yhi[span] - 1
        return (np.repeat(np.arange(self.xmin + i0, self.xmin + i1), counts),
                np.arange(lo, hi) - np.repeat(base, counts))


@dataclass(frozen=True)
class Window(_Rows):
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

    @property
    def shape(self):
        """Shape of the arrays of per-site values, such as solved times."""
        return (self.nx, self.ny)

    @property
    def diameter(self):
        """The largest l1 distance between two of its sites."""
        return self.nx + self.ny - 2

    def rows(self):
        """(ylo, yhi): the y-range of each row x = xmin + i."""
        return np.full(self.nx, self.ymin), np.full(self.nx, self.ymax)

    def contains(self, s: Site) -> bool:
        return self.xmin <= s[0] <= self.xmax and self.ymin <= s[1] <= self.ymax

    def index(self, s: Site) -> int:
        """The index of a site of the window; LatticeError for one off it."""
        if not self.contains(s):
            raise LatticeError("site %s outside the domain" % (s,))
        return (s[0] - self.xmin) * self.ny + (s[1] - self.ymin)

    def site(self, idx: int) -> Site:
        return (idx // self.ny + self.xmin, idx % self.ny + self.ymin)

    def sites(self):
        for x in range(self.xmin, self.xmax + 1):
            for y in range(self.ymin, self.ymax + 1):
                yield (x, y)

    def sites_of(self, mask) -> set:
        """The sites where a bool array of the window's shape is True."""
        ii, jj = np.nonzero(mask)
        return set(zip((ii + self.xmin).tolist(), (jj + self.ymin).tolist()))

    @cached_property
    def rim(self):
        """Read-only bool array of the window's shape, True at the sites
        on its boundary; made at first use and kept."""
        rim = np.ones(self.shape, dtype=bool)
        rim[1:-1, 1:-1] = False
        rim.flags.writeable = False
        return rim


def _shared(ylo, yhi):
    """(lo, hi): the y-range that rows i and i + 1 share, where the
    horizontal edges between them run."""
    return np.maximum(ylo[:-1], ylo[1:]), np.minimum(yhi[:-1], yhi[1:])


def _row_ends(starts, before, after):
    """Flat indices of the first before[i] and the last after[i] sites of
    each row i, where row i holds the sites starts[i] .. starts[i + 1] - 1
    (starts ends with the site count)."""
    firsts = np.concatenate([starts[:-1], starts[1:] - after])
    counts = np.concatenate([before, after])
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) + np.repeat(firsts - (ends - counts), counts)


@dataclass(frozen=True)
class Diamond(_Rows):
    """The l1 ball |x - cx| + |y - cy| <= radius of sites.

    Its rows are ragged: row i holds the sites (cx - radius + i, y) of its
    own y-range. Sites and edges are numbered as in a Window, row after
    row with y ascending, so GridGraph builds both the same way. Solved
    times come back as one flat array in that order.
    """

    center: Site
    radius: int

    def __post_init__(self):
        if self.radius < 1:
            raise LatticeError("radius must be >= 1")

    @property
    def xmin(self):
        return self.center[0] - self.radius

    @property
    def n_sites(self):
        return 2 * self.radius * (self.radius + 1) + 1

    @property
    def shape(self):
        return (self.n_sites,)

    @property
    def diameter(self):
        return 2 * self.radius

    def rows(self):
        """(ylo, yhi): the y-range of each row x = xmin + i."""
        half = self.radius - np.abs(np.arange(-self.radius, self.radius + 1))
        return self.center[1] - half, self.center[1] + half

    def contains(self, s: Site) -> bool:
        return (abs(s[0] - self.center[0]) + abs(s[1] - self.center[1])
                <= self.radius)

    def index(self, s: Site) -> int:
        """The index of a site of the diamond; LatticeError for one off it."""
        if not self.contains(s):
            raise LatticeError("site %s outside the domain" % (s,))
        r, i = self.radius, s[0] - self.xmin
        # rows 0..i-1 hold i^2 sites up to the middle row; past it, rows
        # i..2r mirror rows 0..2r-i and hold (2r + 1 - i)^2
        start = i * i if i <= r else self.n_sites - (2 * r + 1 - i) ** 2
        return start + s[1] - (self.center[1] - (r - abs(i - r)))

    def boundary(self):
        """(first, last): the indices of the first and the last site of
        each row, whose union is the sites at l1 distance radius."""
        _, lens, ends = self._row_table
        return ends - lens, ends - 1


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

    def weight_grids(self, window, ticks=False, out=None):
        """Vectorized weights of all edges of a Window or a Diamond, in
        real units, or in ticks (whole numbers in float64) with ticks=True.

        Each site owns its edges to (x + 1, y) and to (x, y + 1), leaving
        the domain or not. They are weighed into two per-site arrays,
        right and up, in blocks of at most _BLOCK sites: one hash call
        and one quantile call per block, so that every temporary stays
        small. out = (right, up), two writable arrays of n_sites entries
        of any stride (GridGraph passes two slots of its CSR data),
        receives them; by default one (2,) + window.shape array is made.
        Returns (hw, vw), views of right and up: on a Diamond the flat
        per-site arrays themselves; on a Window the grids without the
        edges that leave it, where hw[i, j] is the weight of the edge
        from site (xmin+i, ymin+j) to (xmin+i+1, ymin+j) and vw[i, j] of
        the edge to (xmin+i, ymin+j+1).
        """
        n = window.n_sites
        if out is None:
            right, up = np.empty((2, n))
        else:
            right, up = out
        axis = np.arange(2)[:, None]
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            x, y = window.site_words(lo, hi)
            right[lo:hi], up[lo:hi] = self.dist.quantile(
                uniform01(hash_words(self.seed, x, y, axis)), ticks=ticks)
        if isinstance(window, Window):
            return (right.reshape(window.shape)[:-1],
                    up.reshape(window.shape)[:, :-1])
        return right, up


def check_domain(dist: WeightDistribution, domain):
    """Refuse a domain before anything is allocated for it.

    Raises DomainError when the 4 * n_sites entries of its graph overflow
    the int32 graph indices, or when a Dijkstra sum on it could reach
    2^53 ticks, past which float64 no longer adds integers exactly. A
    settled site's time is at most the weight of a monotone path,
    max_ticks * diameter, and a relaxation adds one edge to it.
    """
    if 4 * domain.n_sites > np.iinfo(np.int32).max:
        raise DomainError("window of %d sites overflows int32 graph indices"
                          % domain.n_sites)
    if dist.tick(dist.max_support()) * (domain.diameter + 1) >= TICK_LIMIT:
        raise DomainError(
            "passage times on a domain of l1 diameter %d reach 2^53 ticks "
            "of %s" % (domain.diameter, dist))


class _Topology:
    """The part of a GridGraph's CSR that depends on its domain alone,
    made once per domain object (_Rows._topology) and shared, read-only,
    by that domain's graphs.

    indices, the (n, 4) neighbour table flat, and indptr are the CSR's
    own; missing[s] lists the sites whose neighbour in slot s is off the
    domain, where indices holds a self-loop. It keeps no reference to its
    domain, so it is freed with the domain, with no cycle to collect.
    """

    def __init__(self, domain):
        n = domain.n_sites
        yhi, lens, ends = domain._row_table
        ylo = yhi - lens + 1
        starts = np.r_[0, ends]
        # site (xmin + i, y) is k = base[i] + y; its left and right
        # neighbours sit at the per-row offsets k - left[i], k + right[i]
        base = starts[:-1] - ylo
        left = np.diff(base, prepend=base[0]).astype(np.int32)
        right = np.diff(base, append=base[-1]).astype(np.int32)
        lo, hi = _shared(ylo, yhi)
        # a row's ends beyond the y-range it shares with the row beside
        # it, or its first and its last site
        self.missing = (
            _row_ends(starts, np.r_[lens[0], lo - ylo[1:]],
                      np.r_[0, yhi[1:] - hi]),
            starts[:-1], starts[1:] - 1,
            _row_ends(starts, np.r_[lo - ylo[:-1], lens[-1]],
                      np.r_[yhi[:-1] - hi, 0]))
        nbr4 = np.empty((n, 4), dtype=np.int32)
        k = np.arange(n, dtype=np.int32)
        steps = (-np.repeat(left, lens), -1, 1, np.repeat(right, lens))
        for s, step in enumerate(steps):
            np.add(k, step, out=nbr4[:, s])
            nbr4[self.missing[s], s] = self.missing[s]
        self.indices = nbr4.reshape(-1)
        self.indptr = np.arange(0, 4 * n + 1, 4, dtype=np.int32)
        self.indices.flags.writeable = self.indptr.flags.writeable = False


class GridGraph:
    """Adjacency of one field on a Window or a Diamond, in ticks,
    reusable across many solves.

    Row k of the CSR holds four entries from 4 k on, its neighbours
    (x - 1, y), (x, y - 1), (x, y + 1), (x + 1, y) in this order; one off
    the domain is a zero-weight self-loop, which no solve can use. The
    CSR's indices and indptr depend on the domain alone: the graphs of
    one domain object share them, read-only, and they go with the domain
    (_Rows._topology). Beyond them a build allocates one fresh array, the
    CSR data:
    EdgeField.weight_grids weighs each site's right and up edges
    straight into slots 3 and 2, and slots 0 and 1 are copied from them.
    th, tv are the field's weight grids in ticks, views of slots 3 and 2
    (EdgeField.weight_grids); on a Diamond an edge off the domain reads
    0 there. Solves return times in ticks of the field's law
    (measure.WeightDistribution.ticks_per_unit).
    """

    def __init__(self, field: EdgeField, window):
        check_domain(field.dist, window)
        self.field = field
        self.window = window
        n = window.n_sites
        # the topology, which may outlive this graph, is made before the
        # data, so that the data freed with the graph leaves no hole in
        # the heap below a live topology
        topo = window._topology
        wt4 = np.empty((n, 4))
        self.th, self.tv = field.weight_grids(window, ticks=True,
                                              out=(wt4[:, 3], wt4[:, 2]))
        # slot 0 is the left neighbour's edge right, gathered in blocks;
        # slot 1 the edge up of the site below
        left = topo.indices[0::4]
        for lo in range(0, n, _BLOCK):
            k = slice(lo, lo + _BLOCK)
            wt4[k, 0] = wt4[left[k], 3]
        wt4[1:, 1] = wt4[:-1, 2]
        # zero weights stay as explicit entries
        for s, m in enumerate(topo.missing):
            wt4[m, s] = 0
        self._csr = csr_matrix((wt4.reshape(-1), topo.indices, topo.indptr),
                               shape=(n, n))

    def distances(self, source: Site, limit=None):
        """Passage times in ticks (exact float64 integers) from the source
        to every domain site. limit, in ticks, prunes the search: sites
        beyond it come back inf."""
        d = _csgraph_dijkstra(self._csr, directed=True,
                              indices=self.window.index(source),
                              limit=np.inf if limit is None else float(limit))
        return d.reshape(self.window.shape)

    def distance_to_set(self, sites, limit=None):
        """min over a site set of the passage time, in ticks, to each
        domain site: every site of the set starts at 0. limit, in ticks,
        prunes the search as in distances."""
        idx = [self.window.index(s) for s in sites]
        if not idx:
            raise LatticeError("empty site set")
        d = _csgraph_dijkstra(self._csr, directed=True, indices=idx,
                              min_only=True,
                              limit=np.inf if limit is None else float(limit))
        return d.reshape(self.window.shape)

    @cached_property
    def neighbours(self):
        """(n, 4) int32: row k's neighbours in slot order (left, down, up,
        right), k where one is off the domain; slot 3 - j leads back."""
        return self._csr.indices.reshape(-1, 4)

    def tight(self, ticks):
        """(n, 4) bool over the CSR slots: entry u -> v is tight when
        ticks[u] + w(u, v) == ticks[v], an exact equality of ticks. A
        self-loop (a neighbour off the domain) is never tight, nor is an
        entry into a site left at inf, though inf + w == inf."""
        t = np.asarray(ticks).reshape(-1)
        nbr4, wt4 = self.neighbours, self._csr.data.reshape(-1, 4)
        out = np.empty(nbr4.shape, dtype=bool)
        # blocks of rows: no (n, 4) float temporary, and contiguous reads
        for lo in range(0, t.size, 4096):
            k = slice(lo, lo + 4096)
            tv = t.take(nbr4[k])
            out[k] = ((t[k, None] + wt4[k] == tv) & np.isfinite(tv)
                      & (nbr4[k] != np.arange(lo, lo + len(tv))[:, None]))
        return out

    def minimisers(self, sites):
        """(reach, is_min): reach = distance_to_set(sites), and is_min[i]
        marks the domain sites where sites[i] attains reach, with the
        shape (len(sites),) + reach.shape.

        sites[i] attains reach at v exactly when v can be reached from
        sites[i] along tight entries (GridGraph.tight): every edge of a
        geodesic from sites[i] to such a v is tight, and a tight path
        from sites[i], where reach is 0, is as fast as reach. So one
        breadth-first search per site, on a copy of the CSR whose entries
        that are not tight point back at their own row, gives is_min.
        """
        reach = self.distance_to_set(sites)
        own = np.arange(reach.size, dtype=np.int32)[:, None]
        nbr = np.where(self.tight(reach), self.neighbours, own)
        bfs = csr_matrix((self._csr.data, nbr.reshape(-1), self._csr.indptr),
                         shape=self._csr.shape)
        is_min = np.zeros((len(sites), reach.size), dtype=bool)
        for i, s in enumerate(sites):
            is_min[i, breadth_first_order(
                bfs, self.window.index(s), directed=True,
                return_predecessors=False)] = True
        return reach, is_min.reshape((len(sites),) + reach.shape)

    def solve(self, source: Site, limit=None):
        """Exact in-window passage times from the source to every site,
        as a PassageTimeMap; LatticeError off a Window (see distances).

        limit optionally prunes the search: sites with time > limit come
        back as unexplored (their true time exceeds limit, which callers
        must only use when they query nearer sites).
        """
        if not isinstance(self.window, Window):
            raise LatticeError("a single-source solve needs a Window, "
                               "not %s" % type(self.window).__name__)
        limit = math.inf if limit is None else float(limit)
        ticks = self.distances(source, limit=None if limit == math.inf else
                               math.floor(Fraction(limit)
                                          * self.field.dist.ticks_per_unit))
        return PassageTimeMap(self, source, ticks, limit)


@dataclass
class PassageTimeMap:
    """Single-source passage times on a graph (GridGraph.solve), which
    holds their field and their domain.

    ticks are the times in ticks (exact; inf where the limit cut the
    solve), and grid the same in real units, ticks / D. tight, the
    graph's tight mask for these times (GridGraph.tight), holds every
    optimal incoming edge of every site, ties included.
    """

    graph: GridGraph
    source: Site
    ticks: np.ndarray  # the domain's shape
    limit: float

    @cached_property
    def grid(self):
        return self.ticks / self.graph.field.dist.ticks_per_unit

    @cached_property
    def tight(self):
        return self.graph.tight(self.ticks)

    def tick_time(self, s: Site):
        """The passage time to s in ticks, exact."""
        t = self.ticks.item(self.graph.window.index(s))
        if not math.isfinite(t):
            raise LatticeError(
                "site %s beyond the solve limit %g" % (s, self.limit))
        return t

    def time(self, s: Site) -> float:
        return float(self.tick_time(s) / self.graph.field.dist.ticks_per_unit)

    def boundary_contact(self, t) -> bool:
        """True if the ball of radius t touches the window boundary."""
        return bool(np.any(self.grid[self.graph.window.rim] <= t))


def _preds(ptm: PassageTimeMap, k: int):
    """The flat indices u of every optimal incoming edge u -> k, in slot
    order, which is the sites' lexicographic order: the neighbour u in
    slot j of k is one when the entry back, slot 3 - j of u, is tight. A
    self-loop (u == k) is no neighbour."""
    return [u for j, u in enumerate(ptm.graph.neighbours[k].tolist())
            if u != k and ptm.tight.item(u, 3 - j)]


def _plateau_escape(ptm: PassageTimeMap, k: int, visited):
    """BFS through zero-weight optimal edges from the flat index k to a
    site with a strict drop, as the indices of the path after k.

    Needed only when the distribution has an atom at zero. Deterministic:
    predecessors are explored in slot order, the sites' sorted order.
    """
    from collections import deque
    tick = ptm.ticks.item
    source = ptm.graph.window.index(ptm.source)
    q = deque([k])
    parent = {k: None}
    while q:
        u = q.popleft()
        if u != k and (u == source or any(
                tick(w) < tick(k) for w in _preds(ptm, u))):
            path = []
            while u is not None:
                path.append(u)
                u = parent[u]
            return path[::-1][1:]  # drop k itself
        for w in _preds(ptm, u):
            if w not in parent and w not in visited and tick(w) == tick(k):
                parent[w] = u
                q.append(w)
    raise LatticeError("stuck on a zero-weight plateau at index %d" % k)


def geodesic(ptm: PassageTimeMap, target: Site) -> tuple:
    """A minimizing path from the source to the target, as its tuple of
    sites, walking predecessors by flat index and choosing the smallest
    site at every tie: the first tight slot with a strict drop."""
    window = ptm.graph.window
    ptm.tick_time(target)  # refuses a target off the window or unsolved
    tick = ptm.ticks.item
    source = window.index(ptm.source)
    k = window.index(target)
    rev = [k]
    visited = {k}
    while k != source:
        step = [u for u in _preds(ptm, k) if tick(u) < tick(k)][:1]
        if not step:
            step = _plateau_escape(ptm, k, visited)
        rev.extend(step)
        visited.update(step)
        k = rev[-1]
    return tuple(map(window.site, reversed(rev)))


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
    return ptm.graph.window.sites_of(ptm.grid <= t)


def monotone_upper_bounds(hw, vw, window: Window, source: Site, targets):
    """Monotone-path upper bounds for many targets at once.

    Runs one dynamic program per quadrant (to the extreme corner spanned
    by that quadrant's targets) and reads each target off the table.
    solve_targets does not use it; the benchmark's traced run looks it
    up by name.
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


def _exit_bounds(d, diamond, dx, dy, a):
    """For each target x = center + (dx[j], dy[j]), the least d[y] + a +
    a |z - x|_1 over the diamond's exit edges y -> z (|y|_1 = R, |z|_1 =
    R + 1 about the center), in ticks: a lower bound on every path to x
    that leaves the diamond, whose in-diamond times are d, for the least
    edge weight a.

    The ring site z past either end of row i touches that end and the
    same end of the next row toward the middle; the two past the outer
    rows touch their one site. So g(z) = a + min d over z's inside
    neighbours is read off the row ends, over the 4 (R + 1) ring sites.
    """
    R = diamond.radius
    first, last = diamond.boundary()
    cols = np.arange(-R, R + 1)
    toward = cols + R - np.sign(cols)
    ends, inner = np.r_[first, last], np.r_[first[toward], last[toward]]
    g = np.r_[np.minimum(d[ends], d[inner]), d[first[[0, -1]]]] + a
    h = R + 1 - np.abs(cols)
    zx = np.r_[cols, cols, -R - 1, R + 1]
    zy = np.r_[-h, h, 0, 0]
    steps = np.abs(zx - dx[:, None]) + np.abs(zy - dy[:, None])
    return (g + a * steps).min(axis=1)


def solve_targets(fields, source: Site, targets):
    """Exact lattice passage times from the source to each target, for
    every field of a batch of fields of one law.

    Returns (times, regrown): times[k, j] is tau(source, targets[j]) on
    all of Z^2 in fields[k], and regrown counts the fields whose first
    diamond failed the certificate.

    Each field is solved, with no limit, on the l1 diamond D of radius R
    around the source, and certified at D's exit edges (_exit_bounds): a
    path to a target x that leaves D first crosses an edge y -> z with
    |y - source|_1 = R, so it costs at least tau_D(y) + a_min + a_min
    |z - x|_1, a_min = dist.min_support(). When tau_D(x) is at most the
    least such bound for every target, every tau_D(x) is its Z^2 time,
    ties included; with a_min = 0 this asks that no boundary site of D be
    reached before a target. Every target lies within l1 distance L of
    the source. The first field starts at R = L + ceil(L^(1/3)), a margin
    on the conjectured scale of passage-time fluctuations, and each later
    one at the radius the field before it ended at. While the certificate
    fails by a deficit of m ticks, R grows to min(2 R, R + max(1, ceil(m
    / (2 a_min)))), or doubles when a_min = 0. Every edge weight of each
    diamond is hashed afresh.

    A one-atom law delta_a needs no solve: every path to x has at least
    |x - source| edges of weight a, and a monotone path has exactly that
    many, so tau = a * |x - source| in every field, and no edge is
    hashed.
    """
    fields = list(fields)
    if not fields:
        raise LatticeError("no fields to solve")
    dist = fields[0].dist
    if any(f.dist != dist for f in fields):
        raise LatticeError("the fields of one batch share one law")
    sx, sy = source
    targets = list(targets)
    dx = np.array([x - sx for x, _ in targets])
    dy = np.array([y - sy for _, y in targets])
    steps = np.abs(dx) + np.abs(dy)
    a = dist.tick(dist.min_support())
    if len(dist.atoms) == 1 and not dist.pieces:
        return np.tile(a * steps / dist.ticks_per_unit,
                       (len(fields), 1)), 0
    L = int(steps.max())
    c = round(L ** (1 / 3))
    R = max(1, L + c + (c ** 3 < L))  # L + ceil(L^(1/3))
    # one diamond, and so one topology, serves the fields until one of
    # them regrows it
    diamond = Diamond(source, R)
    rows = []
    regrown = 0
    for field in fields:
        start = R
        while True:
            graph = GridGraph(field, diamond)
            d = graph.distances(source)
            times = d[[diamond.index(t) for t in targets]]
            deficit = (times - _exit_bounds(d, diamond, dx, dy, a)).max()
            del graph, d  # freed before the next diamond is built
            if deficit <= 0:
                break
            R = (min(2 * R, R + max(1, math.ceil(deficit / (2 * a))))
                 if a else 2 * R)
            diamond = Diamond(source, R)
        regrown += R > start
        rows.append(times / dist.ticks_per_unit)
    return np.array(rows), regrown
