"""Exact planar convex geometry in the l1 metric.

Hulls, extreme points, Hausdorff distance, flat-edge analysis against
the line x + y = 1, and the oriented-percolation flat-edge endpoint
predictions. All shape comparisons use the l1 norm; Euclidean appears
only in plotting code elsewhere.
"""

import math
from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    pass


def l1(p, q=(0.0, 0.0)):
    return abs(p[0] - q[0]) + abs(p[1] - q[1])


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _turn_angle(prev_pt, pt, next_pt):
    """Exterior turning angle at pt along a ccw polygon, in radians."""
    a = (pt[0] - prev_pt[0], pt[1] - prev_pt[1])
    b = (next_pt[0] - pt[0], next_pt[1] - pt[1])
    return abs(math.atan2(a[0] * b[1] - a[1] * b[0], a[0] * b[0] + a[1] * b[1]))


@dataclass(frozen=True)
class ConvexShape:
    """Convex polygon, counterclockwise vertices, canonical start vertex."""

    vertices: tuple

    def __len__(self):
        return len(self.vertices)

    def edges(self):
        v = self.vertices
        return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]

    def contains(self, p) -> bool:
        for a, b in self.edges():
            if _cross(a, b, p) < -1e-12 * (l1(a, b) + 1.0):
                return False
        return True

    def to_dict(self):
        return {"vertices": [[x, y] for x, y in self.vertices]}


def _canonicalize(verts):
    """ccw order, start at the lowest-then-leftmost vertex."""
    pts = [tuple(map(float, p)) for p in verts]
    start = min(range(len(pts)), key=lambda i: (pts[i][1], pts[i][0]))
    return ConvexShape(tuple(pts[start:] + pts[:start]))


def hull(points, theta_tol=1e-9) -> ConvexShape:
    """Convex hull with collinear-interior vertices pruned.

    Andrew's monotone chain; vertices whose turning angle is <= theta_tol
    are removed so the result is in strictly convex position.
    """
    pts = sorted({(float(p[0]), float(p[1])) for p in points})
    if len(pts) < 3:
        raise GeometryError("need at least 3 distinct points")

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    verts = lower[:-1] + upper[:-1]
    if len(verts) < 3:
        raise GeometryError("degenerate input: all points collinear")
    # merge numerically coincident neighbors (turning angles between them
    # are ill-conditioned and would survive the angle pruning)
    scale = max(max(abs(x), abs(y)) for x, y in verts) or 1.0
    merged = []
    for p in verts:
        if merged and l1(p, merged[-1]) < 1e-9 * scale:
            continue
        merged.append(p)
    if len(merged) >= 2 and l1(merged[0], merged[-1]) < 1e-9 * scale:
        merged.pop()
    verts = merged
    if len(verts) < 3:
        raise GeometryError("degenerate hull after merging")
    # angle-based pruning pass (the chain already removed exact collinear)
    pruned = extreme_points(ConvexShape(tuple(verts)), theta_tol)
    if len(pruned) < 3:
        raise GeometryError("degenerate hull after pruning")
    return _canonicalize(pruned)


def l1_ball(radius=1.0) -> ConvexShape:
    r = float(radius)
    return _canonicalize([(r, 0.0), (0.0, r), (-r, 0.0), (0.0, -r)])


def extreme_points(shape: ConvexShape, theta_tol=1e-9):
    """Vertices with turning angle above theta_tol (the extreme points)."""
    v = shape.vertices
    n = len(v)
    return [v[i] for i in range(n)
            if _turn_angle(v[i - 1], v[i], v[(i + 1) % n]) > theta_tol]


def _seg_point_l1(p, a, b):
    """Exact l1 distance from point p to segment [a, b]."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    cand = [0.0, 1.0]
    if dx != 0:
        cand.append((p[0] - a[0]) / dx)
    if dy != 0:
        cand.append((p[1] - a[1]) / dy)
    best = math.inf
    for t in cand:
        t = min(1.0, max(0.0, t))
        q = (a[0] + t * dx, a[1] + t * dy)
        best = min(best, l1(p, q))
    return best


def point_to_shape_l1(p, shape: ConvexShape) -> float:
    if shape.contains(p):
        return 0.0
    return min(_seg_point_l1(p, a, b) for a, b in shape.edges())


def hausdorff(A: ConvexShape, B: ConvexShape) -> float:
    """Exact l1 Hausdorff distance between two convex polygons.

    The supremum of the distance-to-the-other-body is convex, hence
    attained at a vertex; vertex-to-polygon maximization is exact.
    """
    d_ab = max(point_to_shape_l1(v, B) for v in A.vertices)
    d_ba = max(point_to_shape_l1(v, A) for v in B.vertices)
    return max(d_ab, d_ba)


def predicted_flat_edge(alpha_rot: float):
    """Flat-edge endpoints on x + y = 1 for a rotated-frame speed alpha.

    Returns (w, w'), symmetric about the diagonal; alpha_rot = 0 gives the
    degenerate point (1/2, 1/2), alpha_rot = sqrt(2)/2 the full edge.
    """
    s = math.sqrt(2.0)
    if not 0.0 <= alpha_rot <= s / 2 + 1e-12:
        raise GeometryError("alpha %g outside [0, sqrt(2)/2]" % alpha_rot)
    w = (0.5 + alpha_rot / s, 0.5 - alpha_rot / s)
    wp = (0.5 - alpha_rot / s, 0.5 + alpha_rot / s)
    return w, wp


@dataclass(frozen=True)
class FlatEdgeReport:
    intersects: bool
    segment: tuple  # ((x1,y1),(x2,y2)) on x+y=1, or ()
    predicted: tuple  # (w, w') or ()
    discrepancy: float  # max l1 distance between detected and predicted endpoints


def flat_edge_intersection(shape: ConvexShape, tol=1e-9,
                           predicted=None) -> FlatEdgeReport:
    """Portion of the boundary lying on the line x + y = 1, within tol.

    Restricted to the first quadrant. Errors if the shape pokes out of the
    l1 unit ball by more than tol (an estimator-bias flag). If predicted
    endpoints are supplied the report carries the worst l1 discrepancy.
    """
    over = max(abs(x) + abs(y) for x, y in shape.vertices) - 1.0
    if over > tol:
        raise GeometryError(
            "shape exceeds the l1 unit ball by %g > tol" % over)
    on_line = [(x, y) for x, y in shape.vertices
               if abs(x + y - 1.0) <= tol and x >= -tol and y >= -tol]
    # an edge may cross the strip even if no vertex lies on the line
    if not on_line:
        return FlatEdgeReport(False, (), predicted or (), math.nan)
    lo = min(on_line, key=lambda p: p[0])
    hi = max(on_line, key=lambda p: p[0])
    segment = (hi, lo)  # (w, w') convention: larger x first
    disc = math.nan
    if predicted:
        disc = max(l1(segment[0], predicted[0]), l1(segment[1], predicted[1]))
    return FlatEdgeReport(True, segment, predicted or (), disc)


def tangent_at(shape: ConvexShape, vertex):
    """Pseudo-tangent direction at a polygon vertex (edge bisector).

    Polygons are not differentiable at vertices; the normalized sum of the
    incoming and outgoing edge directions is the natural stand-in when a
    boundary point and tangent are needed for projections.
    """
    v = shape.vertices
    i = min(range(len(v)), key=lambda k: l1(v[k], vertex))
    a, b, c = v[i - 1], v[i], v[(i + 1) % len(v)]
    d1 = np.array([b[0] - a[0], b[1] - a[1]], dtype=float)
    d2 = np.array([c[0] - b[0], c[1] - b[1]], dtype=float)
    d1 /= np.hypot(*d1)
    d2 /= np.hypot(*d2)
    t = d1 + d2
    n = np.hypot(*t)
    if n == 0:
        t = d2
        n = np.hypot(*t)
    return (float(t[0] / n), float(t[1] / n))


def gauge(shape: ConvexShape, p):
    """Minkowski functional of a shape with the origin in its interior.

    gauge(p) <= 1 iff p is in the shape; p / gauge(p) is the radial
    projection of p onto the boundary. p is one point, which gives a
    float, or an (N, 2) array of points, which gives an (N,) array.
    """
    q = np.asarray(p, dtype=float)
    g = np.zeros(q.shape[:-1])
    for a, b in shape.edges():
        nx, ny = b[1] - a[1], a[0] - b[0]  # outward normal of a ccw edge
        c = nx * a[0] + ny * a[1]
        if c <= 0:
            raise GeometryError("origin not interior to the shape")
        np.maximum(g, (nx * q[..., 0] + ny * q[..., 1]) / c, out=g)
    return g if g.ndim else float(g)


def boundary_project(shape: ConvexShape, p):
    """Radial projection of a nonzero point onto the shape boundary."""
    g = gauge(shape, p)
    if g <= 0:
        raise GeometryError("cannot project the origin (or a point with "
                            "nonpositive gauge)")
    return (p[0] / g, p[1] / g)


def projection_coefficient(v, w, x):
    """Coefficient a in x = a*v + b*w (the projection functional pi_v)."""
    det = v[0] * w[1] - v[1] * w[0]
    if det == 0:
        raise GeometryError("tangent parallel to direction")
    return (x[0] * w[1] - x[1] * w[0]) / det
