"""Laws and solver-independent passage-time oracles shared by the tests.

Both oracles return a dict site -> minimal passage time from the source
within the window, using only EdgeField.edge_weight.
"""

import numpy as np

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


def exhaustive_times(field, window, source):
    """Exhaustive simple-path minimization: DFS over all simple paths.

    Exponential, only for tiny windows.
    """
    best = {s: np.inf for s in window.sites()}

    def visit(site, cost, seen):
        if cost < best[site]:
            best[site] = cost
        for d in NEIGHBOURS:
            nb = (site[0] + d[0], site[1] + d[1])
            if nb in seen or not window.contains(nb):
                continue
            visit(nb, cost + field.edge_weight(site, nb), seen | {nb})

    visit(source, 0.0, {source})
    return best


def pruned_search_times(field, window, source):
    """Label-correcting path search: depth-first over paths, abandoning
    any prefix that reaches a site no cheaper than a path found before.
    Exact for nonnegative weights."""
    best = {s: np.inf for s in window.sites()}
    best[source] = 0.0
    stack = [(source, 0.0)]
    while stack:
        site, cost = stack.pop()
        if cost > best[site]:
            continue
        for d in NEIGHBOURS:
            nb = (site[0] + d[0], site[1] + d[1])
            if not window.contains(nb):
                continue
            c = cost + field.edge_weight(site, nb)
            if c < best[nb]:
                best[nb] = c
                stack.append((nb, c))
    return best
