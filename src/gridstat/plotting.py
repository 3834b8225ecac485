"""Contour rendering of a grid field with stationary-point overlays.

Isolines come from marching squares (linear interpolation along cell
edges, saddle cells disambiguated by the cell-center average), computed
with numpy over the whole grid at once for each level.  The array code does
the same IEEE operations, in the same order, as a cell-by-cell loop, so its
segments, their order and the SVG bytes are those of the loop; the tests
keep the loop as the reference.  Output is standalone SVG with one group
per layer: contours, detected points/curves, and optionally the analytic
ground truth in a dashed style.
"""

from __future__ import annotations

import numpy as np

from .grid import GridField

_SIZE = 640  # px, the longer side of a plot


def marching_squares(g: GridField, level: float) -> list[list[list[float]]]:
    """Line segments [[x0, y0], [x1, y1]] of the isoline at ``level``.

    Cells come in row-major order.  Within a cell, a segment joins the
    crossings of two crossed edges, ascending by edge (edge k runs from
    corner k to corner k+1, corners counterclockwise from bottom-left).  A
    saddle cell, with all four edges crossed, gives two segments, split by
    whether the average of its corners is on corner 0's side of the level.
    """
    v = g.grid2d()
    x0, y0 = g.origin
    above = [c > level for c in (v[:-1, :-1], v[:-1, 1:], v[1:, 1:], v[1:, :-1])]
    crossed = np.stack([above[k] != above[(k + 1) % 4] for k in range(4)], axis=-1)
    i, j = np.nonzero(crossed.any(axis=-1))
    crossed = crossed[i, j]
    vals = np.stack([v[i, j], v[i, j + 1], v[i + 1, j + 1], v[i + 1, j]], axis=-1)
    xl, xr = x0 + j * g.dx, x0 + (j + 1) * g.dx
    yb, yt = y0 + i * g.dy, y0 + (i + 1) * g.dy
    cx = np.stack([xl, xr, xr, xl], axis=-1)
    cy = np.stack([yb, yb, yt, yt], axis=-1)

    # the edges a cell's segments join: its first and last crossed edge, or
    # in a saddle (0, 3) and (1, 2) when the average is on corner 0's side
    # of the level, else (0, 1) and (2, 3)
    saddle = crossed.all(axis=-1)
    center = (((vals[:, 0] + vals[:, 1]) + vals[:, 2]) + vals[:, 3]) / 4.0 > level
    same = center == (vals[:, 0] > level)
    first = np.argmax(crossed, axis=-1)
    last = 3 - np.argmax(crossed[:, ::-1], axis=-1)
    edge_a = np.stack([first, np.where(same, 1, 2)], axis=-1)
    edge_b = np.stack([np.where(saddle & ~same, 1, last), np.where(same, 2, 3)], axis=-1)
    # (cell, segment) pairs in row-major order: a saddle's second segment
    # follows its first
    cell, seg = np.nonzero(np.stack([np.ones_like(saddle), saddle], axis=-1))

    def crossing(k):
        k2 = (k + 1) % 4
        vk, xk, yk = vals[cell, k], cx[cell, k], cy[cell, k]
        t = (level - vk) / (vals[cell, k2] - vk)
        return np.stack([xk + t * (cx[cell, k2] - xk), yk + t * (cy[cell, k2] - yk)], axis=-1)

    return np.stack([crossing(edge_a[cell, seg]), crossing(edge_b[cell, seg])],
                    axis=1).tolist()


def chain_polyline(points: np.ndarray) -> list[int]:
    """Order curve members into a polyline by greedy nearest-neighbor
    chaining, starting from the point most distant from the centroid
    (an endpoint for open curves).  Of equally near points the one with
    the lowest index comes next."""
    pts = np.asarray(points, float)
    n = len(pts)
    if n <= 2:
        return list(range(n))
    start = int(np.argmax(np.linalg.norm(pts - pts.mean(axis=0), axis=1)))
    order = [start]
    rest = np.delete(np.arange(n), start)  # ascending, so argmin breaks ties by index
    while rest.size:
        k = int(np.argmin(np.linalg.norm(pts[rest] - pts[order[-1]], axis=1)))
        order.append(int(rest[k]))
        rest = np.delete(rest, k)
    return order


class _Svg:
    def __init__(self, width, height):
        self.width = width
        self.height = height
        self.parts = []

    def open_group(self, gid):
        self.parts.append(f'<g id="{gid}">')

    def close_group(self):
        self.parts.append("</g>")

    def polyline(self, pts, stroke, width, dashed=False):
        coords = " ".join(f"{x:.3f},{y:.3f}" for x, y in pts)
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        self.parts.append(f'<polyline points="{coords}" fill="none" '
                          f'stroke="{stroke}" stroke-width="{width}"{dash}/>')

    def circle(self, x, y, r, stroke, fill):
        self.parts.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="{r}" '
                          f'stroke="{stroke}" fill="{fill}"/>')

    def cross(self, x, y, r, stroke):
        self.parts.append(f'<path d="M {x - r:.3f} {y - r:.3f} L {x + r:.3f} {y + r:.3f} '
                          f'M {x - r:.3f} {y + r:.3f} L {x + r:.3f} {y - r:.3f}" '
                          f'stroke="{stroke}" stroke-width="1.2"/>')

    def render(self):
        body = "\n".join(self.parts)
        return (f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'width="{self.width}" height="{self.height}" '
                f'viewBox="0 0 {self.width} {self.height}">\n{body}\n</svg>\n')


def render_svg(g: GridField, report: dict | None = None, ground_truth: dict | None = None,
               levels: int = 10) -> str:
    """SVG contour map with optional detected/analytic overlays.

    ``report`` is the pipeline's JSON report (stationary_points, bindings);
    ``ground_truth`` the JSON export of the oracle module.
    """
    xmin, ymin = g.origin
    xmax = xmin + (g.nx - 1) * g.dx
    ymax = ymin + (g.ny - 1) * g.dy
    margin = 20.0
    scale = (_SIZE - 2 * margin) / max(xmax - xmin, ymax - ymin)
    width = (xmax - xmin) * scale + 2 * margin
    height = (ymax - ymin) * scale + 2 * margin

    def to_px(x, y):
        return (margin + (x - xmin) * scale, height - margin - (y - ymin) * scale)

    svg = _Svg(round(width), round(height))

    svg.open_group("contours")
    vmin, vmax = float(g.values.min()), float(g.values.max())
    if vmax > vmin:
        segs = np.array([s for lv in np.linspace(vmin, vmax, levels + 2)[1:-1]
                         for s in marching_squares(g, lv)]).reshape(-1, 4)
        ends = np.column_stack([*to_px(segs[:, 0], segs[:, 1]),
                                *to_px(segs[:, 2], segs[:, 3])])
        for xa, ya, xb, yb in ends.tolist():
            svg.polyline([(xa, ya), (xb, yb)], stroke="#9ab", width=0.8)
    svg.close_group()

    svg.open_group("detected")
    if report:
        pts = report.get("stationary_points", [])
        for b in report.get("bindings", []):
            members = b["members"]
            if b["kind"] == "curve":
                pos = np.array([[pts[i]["x"], pts[i]["y"]] for i in members])
                order = chain_polyline(pos)
                svg.polyline([to_px(*pos[k]) for k in order],
                             stroke="#ffffff", width=2.0)
            else:
                p = pts[members[0]]
                x, y = to_px(p["x"], p["y"])
                svg.circle(x, y, 4.0, stroke="#333", fill="#ffffff")
    svg.close_group()

    svg.open_group("ground-truth")
    if ground_truth:
        for curve in ground_truth.get("curves", []):
            svg.polyline([to_px(x, y) for x, y in curve],
                         stroke="#d22", width=1.2, dashed=True)
        for x, y in ground_truth.get("isolated", []):
            px, py = to_px(x, y)
            svg.cross(px, py, 4.0, stroke="#d22")
    svg.close_group()

    return svg.render()
