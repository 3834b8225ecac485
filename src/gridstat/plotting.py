"""Contour rendering of a grid field with stationary-point overlays.

Isolines come from marching squares (linear interpolation along cell
edges, saddle cells disambiguated by the cell-center average), computed
with numpy over the whole grid at once for each level.  The array code does
the same IEEE operations, in the same order, as a cell-by-cell loop, so its
segments, their order and the SVG bytes are those of the loop; the tests
keep the loop as the reference.  Output is standalone SVG with one group
per layer: contours, detected points/curves, and optionally the analytic
ground truth in a dashed style.  The contour segments of all levels are
mapped to pixels as one array and formatted straight from it, one line of
text per segment; the tests keep the element-by-element builder this
replaced and compare the text byte for byte.
"""

from __future__ import annotations

import numpy as np

from .grid import GridField

_SIZE = 640  # px, the longer side of a plot


def marching_squares(g: GridField, level: float) -> np.ndarray:
    """Line segments of the isoline at ``level``, shape (n, 2, 2): segment
    s runs from point [s, 0] to [s, 1], each (x, y).

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

    return np.stack([crossing(edge_a[cell, seg]), crossing(edge_b[cell, seg])], axis=1)


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
    # every distance once, rounded as np.linalg.norm rounds it; used points
    # are masked out as infinitely far, and argmin over the ascending
    # indices breaks ties by index
    dx = pts[:, 0, None] - pts[:, 0]
    dy = pts[:, 1, None] - pts[:, 1]
    dx *= dx
    dx += np.multiply(dy, dy, out=dy)
    dist = np.sqrt(dx, out=dx)
    used = np.zeros(n, dtype=bool)
    used[start] = True
    for _ in range(n - 1):
        k = int(np.argmin(np.where(used, np.inf, dist[order[-1]])))
        used[k] = True
        order.append(k)
    return order


def _polyline(pts, style: str) -> str:
    coords = " ".join(f"{x:.3f},{y:.3f}" for x, y in pts)
    return f'<polyline points="{coords}" fill="none" {style}/>'


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

    parts = ['<g id="contours">']
    vmin, vmax = float(g.values.min()), float(g.values.max())
    if vmax > vmin:
        segs = np.concatenate([np.empty((0, 2, 2)), *(
            marching_squares(g, lv) for lv in np.linspace(vmin, vmax, levels + 2)[1:-1])])
        ends = np.stack(to_px(segs[..., 0], segs[..., 1]), axis=-1).reshape(-1, 4)
        parts += [f'<polyline points="{xa:.3f},{ya:.3f} {xb:.3f},{yb:.3f}" fill="none" '
                  f'stroke="#9ab" stroke-width="0.8"/>' for xa, ya, xb, yb in ends.tolist()]

    parts += ["</g>", '<g id="detected">']
    if report:
        pts = report.get("stationary_points", [])
        for b in report.get("bindings", []):
            members = b["members"]
            if b["kind"] == "curve":
                pos = np.array([[pts[i]["x"], pts[i]["y"]] for i in members])
                parts.append(_polyline([to_px(*pos[k]) for k in chain_polyline(pos)],
                                       'stroke="#ffffff" stroke-width="2.0"'))
            else:
                p = pts[members[0]]
                x, y = to_px(p["x"], p["y"])
                parts.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="4.0" '
                             f'stroke="#333" fill="#ffffff"/>')

    parts += ["</g>", '<g id="ground-truth">']
    if ground_truth:
        for curve in ground_truth.get("curves", []):
            parts.append(_polyline([to_px(x, y) for x, y in curve],
                                   'stroke="#d22" stroke-width="1.2" stroke-dasharray="6,4"'))
        for x, y in ground_truth.get("isolated", []):
            px, py = to_px(x, y)
            parts.append(f'<path d="M {px - 4.0:.3f} {py - 4.0:.3f} L {px + 4.0:.3f} '
                         f'{py + 4.0:.3f} M {px - 4.0:.3f} {py + 4.0:.3f} L {px + 4.0:.3f} '
                         f'{py - 4.0:.3f}" stroke="#d22" stroke-width="1.2"/>')
    parts.append("</g>")

    body = "\n".join(parts)
    w, h = round(width), round(height)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
            f'viewBox="0 0 {w} {h}">\n{body}\n</svg>\n')
