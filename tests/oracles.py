"""Laws and solver-independent oracles shared by the tests.

The two passage-time oracles return a dict site -> minimal passage time
from the source within the window, using only EdgeField.edge_weight,
called once per edge of each search.
line_sites_loop is the scalar reference of geograph.discretize_line,
random_owners_loop that of growth.compete's random tie policy,
geodesic_loop that of lattice.geodesic, walking sites through
pred_sites, and ends_loop that of geograph.ends_estimate, one components
pass per radius.
edges_graph builds a hand-made infection graph from an edge list,
path_weight sums a path's edge weights, and exit_edges lists the edges
that leave an l1 diamond.
"""

from collections import deque

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from fpplab._rng import hash_words
from fpplab.geograph import (GeoGraphError, InfectionGraph,
                             check_removal_radius)
from fpplab.lattice import LatticeError, round_site
from fpplab.measure import mk_distribution

UNIF12 = mk_distribution(pieces=[(1.0, 2.0, 1.0)])
# 15% continuous mass: Q-edges among atoms at 1
MIX = mk_distribution(atoms=[(1.0, 0.85)], pieces=[(1.1, 1.3, 0.15)])
EPS_ATOM = mk_distribution(atoms=[(0.05, 0.4), (1.0, 0.6)])
ZERO_ATOM = mk_distribution(atoms=[(0.0, 0.4), (1.0, 0.6)])
# purely atomic, like the last stage of the staged construction
STAGE3 = mk_distribution(atoms=[(1.0, 0.66), (1.6, 0.06), (2.0, 0.08),
                                (2.5, 0.1), (3.0, 0.1)])
NEIGHBOURS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _weigher(field):
    """field.edge_weight, memoized per edge for the life of one search."""
    memo = {}

    def weight(u, v):
        e = (u, v) if u < v else (v, u)
        if e not in memo:
            memo[e] = field.edge_weight(u, v)
        return memo[e]

    return weight


def exhaustive_times(field, window, source):
    """Exhaustive simple-path minimization: DFS over all simple paths.

    Exponential, only for tiny windows.
    """
    best = {s: np.inf for s in window.sites()}
    weight = _weigher(field)

    def visit(site, cost, seen):
        if cost < best[site]:
            best[site] = cost
        for d in NEIGHBOURS:
            nb = (site[0] + d[0], site[1] + d[1])
            if nb in seen or not window.contains(nb):
                continue
            visit(nb, cost + weight(site, nb), seen | {nb})

    visit(source, 0.0, {source})
    return best


def pruned_search_times(field, window, source):
    """Label-correcting path search: depth-first over paths, abandoning
    any prefix that reaches a site no cheaper than a path found before.
    Exact for nonnegative weights."""
    best = {s: np.inf for s in window.sites()}
    best[source] = 0.0
    weight = _weigher(field)
    stack = [(source, 0.0)]
    while stack:
        site, cost = stack.pop()
        if cost > best[site]:
            continue
        for d in NEIGHBOURS:
            nb = (site[0] + d[0], site[1] + d[1])
            if not window.contains(nb):
                continue
            c = cost + weight(site, nb)
            if c < best[nb]:
                best[nb] = c
                stack.append((nb, c))
    return best


def path_weight(field, path):
    """The sum of the edge weights of a path, a tuple of sites, in its
    order."""
    return sum(field.edge_weight(a, b) for a, b in zip(path, path[1:]))


def exit_edges(center, radius):
    """The edges (y, z) from a site y at l1 distance radius of the center
    to a neighbour z at radius + 1, found by scanning the square around
    the diamond."""
    cx, cy = center
    out = []
    for x in range(cx - radius, cx + radius + 1):
        for y in range(cy - radius, cy + radius + 1):
            if abs(x - cx) + abs(y - cy) != radius:
                continue
            for dx, dy in NEIGHBOURS:
                z = (x + dx, y + dy)
                if abs(z[0] - cx) + abs(z[1] - cy) == radius + 1:
                    out.append(((x, y), z))
    return out


def edges_graph(edges, window):
    """An InfectionGraph of the given edges that holds only its masks,
    which are all ends_estimate reads: a hand-made graph."""
    h_mask = np.zeros((window.nx - 1, window.ny), dtype=bool)
    v_mask = np.zeros((window.nx, window.ny - 1), dtype=bool)
    for u, v in edges:
        (x, y), b = min(u, v), max(u, v)
        mask = h_mask if b == (x + 1, y) else v_mask
        mask[x - window.xmin, y - window.ymin] = True
    return InfectionGraph(window, h_mask, v_mask)


def line_sites_loop(spec, window):
    """The sites of the line L + n*v clipped to the window, one step of
    half-lattice resolution at a time: rounded, deduplicated in first-seen
    order, and refused when the line misses the window."""
    base = (spec.n * spec.v[0], spec.n * spec.v[1])
    wnorm = max(abs(spec.w[0]), abs(spec.w[1]))
    if wnorm == 0:
        raise GeoGraphError("zero tangent")
    step = 0.5 / wnorm
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


def random_owners_loop(is_min, seed, window):
    """The owner grid of the random tie policy, one tie site at a time.

    is_min[i] marks where seed i attains the least passage time. A site
    attained by one seed goes to it; a tie site (x, y) goes to the r-th
    of its minimising seeds, r = hash_words(seed, x, y, 7) % their count.
    """
    owner = is_min.argmax(axis=0)
    for i, j in zip(*np.nonzero(is_min.sum(axis=0) > 1)):
        cands = np.flatnonzero(is_min[:, i, j])
        h = int(hash_words(seed, i + window.xmin, j + window.ymin, 7))
        owner[i, j] = cands[h % len(cands)]
    return owner


def pred_sites(ptm, s):
    """The sites u of every optimal incoming edge u -> s of a solve, in
    sorted order: the neighbour u in slot j of s is one when the entry
    back, slot 3 - j of u, is tight. A self-loop (u == s) is no
    neighbour."""
    window = ptm.graph.window
    k = window.index(s)
    return [window.site(u)
            for j, u in enumerate(ptm.graph.neighbours[k].tolist())
            if u != k and ptm.tight.item(u, 3 - j)]


def _plateau_escape_loop(ptm, v, visited):
    """BFS through zero-weight optimal edges to a site with a strict drop,
    neighbours explored in sorted order."""
    t_v = ptm.tick_time(v)
    q = deque([v])
    parent = {v: None}
    while q:
        u = q.popleft()
        if u != v:
            if u == ptm.source or any(
                    ptm.tick_time(w) < t_v for w in pred_sites(ptm, u)):
                path = []
                while u is not None:
                    path.append(u)
                    u = parent[u]
                return path[::-1][1:]  # drop v itself
        for w in sorted(pred_sites(ptm, u)):
            if (w not in parent and w not in visited
                    and ptm.tick_time(w) == t_v):
                parent[w] = u
                q.append(w)
    raise LatticeError("stuck on a zero-weight plateau at %s" % (v,))


def geodesic_loop(ptm, target):
    """The lexicographic geodesic from the source to the target, one site
    at a time: the smallest strictly earlier predecessor at every step,
    or an escape from a zero-weight plateau."""
    rev = [target]
    visited = {target}
    v = target
    while v != ptm.source:
        t_v = ptm.tick_time(v)
        strict = sorted(u for u in pred_sites(ptm, v)
                        if ptm.tick_time(u) < t_v)
        if strict:
            v = strict[0]
            rev.append(v)
            visited.add(v)
        else:
            for u in _plateau_escape_loop(ptm, v, visited):
                rev.append(u)
                visited.add(u)
            v = rev[-1]
    return tuple(rev[::-1])


def ends_loop(graph, removal_radius):
    """Boundary-touching components of an infection graph after deleting
    the l1 ball of the radius around the origin, from one components
    pass over the edges with both ends outside it."""
    win = graph.window
    check_removal_radius(win, removal_radius)
    x, y = np.ogrid[win.xmin:win.xmax + 1, win.ymin:win.ymax + 1]
    keep = np.abs(x) + np.abs(y) > removal_radius
    hm = graph.h_mask & keep[:-1, :] & keep[1:, :]
    vm = graph.v_mask & keep[:, :-1] & keep[:, 1:]
    idx = np.arange(win.n_sites).reshape(win.shape)
    hu, vu = idx[:-1][hm], idx[:, :-1][vm]
    rows = np.concatenate([hu, vu])
    cols = np.concatenate([hu + win.ny, vu + 1])
    adj = csr_matrix((np.ones(len(rows)), (rows, cols)),
                     shape=(win.n_sites, win.n_sites))
    labels = connected_components(adj, directed=False)[1]
    verts = np.zeros(win.shape, dtype=bool)
    verts[:-1, :] |= hm
    verts[1:, :] |= hm
    verts[:, :-1] |= vm
    verts[:, 1:] |= vm
    return len(np.unique(labels.reshape(win.shape)[verts & win.rim]))
