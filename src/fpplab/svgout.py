"""Minimal SVG emitter for figures (no plotting dependency).

Produces small standalone documents: polygons for shapes, polylines for
curves and paths, and a handful of marks. Coordinates are mapped from a
data box to a fixed pixel viewport; output is deterministic (fixed float
formatting), so figure files are byte-stable across runs.
"""

_FMT = "%.6g"


def _f(x):
    return _FMT % float(x)


class SvgCanvas:
    """Fixed-viewport canvas with a data-to-pixel affine map."""

    def __init__(self, data_box, size=480, margin=30):
        xmin, ymin, xmax, ymax = data_box
        if not (xmax > xmin and ymax > ymin):
            raise ValueError("degenerate data box")
        self.size = size
        self.margin = margin
        span = max(xmax - xmin, ymax - ymin)
        self._scale = (size - 2 * margin) / span
        self._x0, self._y0 = xmin, ymin
        self._ymax = ymax
        self.elements = []

    def map(self, p):
        px = self.margin + (p[0] - self._x0) * self._scale
        # SVG y grows downward
        py = self.margin + (self._ymax - p[1]) * self._scale
        return px, py

    def polygon(self, pts, stroke="black", fill="none", width=1.5):
        d = " ".join("%s,%s" % self._fmt_pt(p) for p in pts)
        self.elements.append(
            '<polygon points="%s" stroke="%s" fill="%s" stroke-width="%s"/>'
            % (d, stroke, fill, _f(width)))

    def polyline(self, pts, stroke="black", width=1.0):
        d = " ".join("%s,%s" % self._fmt_pt(p) for p in pts)
        self.elements.append(
            '<polyline points="%s" stroke="%s" fill="none" stroke-width="%s"/>'
            % (d, stroke, width))

    def circle(self, p, r=2.5, fill="black"):
        cx, cy = self._fmt_pt(p)
        self.elements.append(
            '<circle cx="%s" cy="%s" r="%s" fill="%s"/>' % (cx, cy, _f(r), fill))

    def text(self, p, s, size=12):
        cx, cy = self._fmt_pt(p)
        self.elements.append(
            '<text x="%s" y="%s" font-size="%d" font-family="sans-serif">%s</text>'
            % (cx, cy, size, s))

    def _fmt_pt(self, p):
        px, py = self.map(p)
        return _f(px), _f(py)

    def document(self):
        head = ('<svg xmlns="http://www.w3.org/2000/svg" width="%d" '
                'height="%d" viewBox="0 0 %d %d">'
                % (self.size, self.size, self.size, self.size))
        return "\n".join([head] + self.elements + ["</svg>"]) + "\n"


def shape_figure(shape, reference=None, title=None):
    """Polygon figure of a convex shape, optionally over a reference shape."""
    verts = list(shape.vertices)
    xs = [v[0] for v in verts]
    ys = [v[1] for v in verts]
    pad = 0.1 * max(max(xs) - min(xs), max(ys) - min(ys))
    canvas = SvgCanvas((min(xs) - pad, min(ys) - pad,
                        max(xs) + pad, max(ys) + pad))
    if reference is not None:
        canvas.polygon(list(reference.vertices), stroke="#888", width=1.0)
    canvas.polygon(verts, stroke="#1030c0", width=1.8)
    for v in verts:
        canvas.circle(v, r=2.0, fill="#1030c0")
    if title:
        canvas.text((min(xs) - pad / 2, max(ys) + pad / 2), title)
    return canvas.document()


def curve_figure(xs, ys, title=None):
    """Simple polyline plot of y against x with endpoint labels."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need matching x/y sequences of length >= 2")
    xpad = 0.05 * (max(xs) - min(xs)) or 0.5
    ypad = 0.05 * (max(ys) - min(ys)) or 0.5
    canvas = SvgCanvas((min(xs) - xpad, min(ys) - ypad,
                        max(xs) + xpad, max(ys) + ypad))
    pts = sorted(zip(xs, ys))
    canvas.polyline(pts, stroke="#c03010", width=1.6)
    for p in pts:
        canvas.circle(p, r=2.0, fill="#c03010")
    canvas.text((min(xs), min(ys) - ypad / 2), _f(min(xs)))
    canvas.text((max(xs), min(ys) - ypad / 2), _f(max(xs)))
    if title:
        canvas.text((min(xs), max(ys) + ypad / 2), title)
    return canvas.document()


def path_figure(site_lists, window_half, title=None):
    """Lattice paths (e.g. geodesics) drawn inside a centered window."""
    W = float(window_half)
    canvas = SvgCanvas((-W, -W, W, W))
    canvas.polygon([(-W, -W), (W, -W), (W, W), (-W, W)], stroke="#bbb",
                   width=1.0)
    palette = ["#1030c0", "#c03010", "#108030", "#806010", "#801080"]
    for i, sites in enumerate(site_lists):
        canvas.polyline(sites, stroke=palette[i % len(palette)], width=1.2)
    canvas.circle((0, 0), r=3.0, fill="black")
    if title:
        canvas.text((-W, W), title)
    return canvas.document()
