"""Contour rendering of a grid field with stationary-point overlays.

Isolines come from marching squares (linear interpolation along cell
edges, saddle cells disambiguated by the cell-center average), computed
with numpy for all levels in one pass: each level only picks out its
crossed cells, from a one-byte count of the corners above it, and one set
of array operations over every crossed (level, cell) pair gives the
segments.  The array code does the same IEEE operations, in the same
order, as a cell-by-cell loop run level by level, so its segments, their
order and the SVG bytes are those of the loop; the tests keep the loop as
the reference.  Output is standalone SVG with one group per layer:
contours, detected points/curves, and optionally the analytic ground truth
in a dashed style.  The contour segments of all levels are mapped to
pixels as one array and formatted straight from it, one ``%`` per chunk
of ``_CHUNK`` segments, so the text, its template and the Python floats
of a whole layer are never held at once; the tests keep the
element-by-element builder this replaced and compare the text byte for
byte.  Lengths are rescaled by exact powers of two before distances and
pixel scales are taken, so the picture does not depend on the length
unit.
"""

from __future__ import annotations

import numpy as np

from .grid import GridField

_SIZE = 640  # px, the longer side of a plot
_CHUNK = 1024  # contour segments formatted by one template


def marching_squares(g: GridField, levels) -> np.ndarray:
    """Line segments of the isolines at each of ``levels``, a sequence,
    shape (n, 2, 2): segment s runs from point [s, 0] to [s, 1], each (x, y).

    Levels come in the order given, and within a level the cells in
    row-major order.  Within a cell, a segment joins the crossings of two
    crossed edges, ascending by edge (edge k runs from corner k to corner
    k+1, corners counterclockwise from bottom-left).  A saddle cell, with
    all four edges crossed, gives two segments, the second right after the
    first, split by whether the average of its corners is on corner 0's
    side of the level.
    """
    levels = np.asarray(levels, dtype=float)
    v = g.grid2d()
    x0, y0 = g.origin
    # a cell is crossed when 1 to 3 of its corners are above the level; the
    # counts are uint8, so each whole-grid temporary is a byte per cell
    cells = []
    for level in levels:
        above = (v > level).view(np.uint8)
        count = above[:-1, :-1] + above[:-1, 1:]
        count += above[1:, 1:]
        count += above[1:, :-1]
        count &= 3
        cells.append(np.flatnonzero(count))
    level = np.repeat(levels, [len(c) for c in cells])
    i, j = np.divmod(np.concatenate([np.empty(0, np.intp), *cells]), g.nx - 1)

    def corner(k, i, j):
        # corner k of cell (i, j) is node (i + k // 2, j + (k + 1) // 2 % 2)
        ci, cj = i + k // 2, j + (k + 1) // 2 % 2
        return g.values.take(ci * g.nx + cj), x0 + cj * g.dx, y0 + ci * g.dy

    vals = [corner(k, i, j)[0] for k in range(4)]
    above = [vk > level for vk in vals]
    crossed = [above[k] != above[(k + 1) % 4] for k in range(4)]
    # the edges a cell's segments join: its first and last crossed edge, or
    # in a saddle (0, 3) and (1, 2) when the average is on corner 0's side
    # of the level, else (0, 1) and (2, 3); the crossed edges are 2 or 4
    saddle = crossed[0] & crossed[1] & crossed[2] & crossed[3]
    center = (((vals[0] + vals[1]) + vals[2]) + vals[3]) / 4.0 > level
    same = center == above[0]
    first = np.where(crossed[0], 0, np.where(crossed[1], 1, 2))
    last = np.where(crossed[3], 3, np.where(crossed[2], 2, 1))
    edge_a = np.stack([first, np.where(same, 1, 2)], axis=-1)
    edge_b = np.stack([np.where(saddle & ~same, 1, last), np.where(same, 2, 3)], axis=-1)
    # (pair, segment) in the pairs' order: a saddle's second segment follows
    # its first
    pair, seg = np.nonzero(np.stack([np.ones_like(saddle), saddle], axis=-1))
    i, j, level = i[pair], j[pair], level[pair]

    def crossing(k):
        vk, xk, yk = corner(k, i, j)
        vk2, xk2, yk2 = corner((k + 1) % 4, i, j)
        t = (level - vk) / (vk2 - vk)
        return np.stack([xk + t * (xk2 - xk), yk + t * (yk2 - yk)], axis=-1)

    return np.stack([crossing(edge_a[pair, seg]), crossing(edge_b[pair, seg])], axis=1)


def chain_polyline(points: np.ndarray) -> list[int]:
    """Order curve members into a polyline by greedy nearest-neighbor
    chaining, starting from the point most distant from the centroid
    (an endpoint for open curves).  Of equally near points the one with
    the lowest index comes next.  The points are first scaled by the power
    of two that brings the largest coordinate into [0.5, 1), exactly, so
    the order does not depend on the length unit: at extreme units the
    squared distances would overflow or underflow."""
    pts = np.asarray(points, float)
    n = len(pts)
    if n <= 2:
        return list(range(n))
    pts = np.ldexp(pts, -np.frexp(np.abs(pts).max())[1])
    start = int(np.argmax(np.linalg.norm(pts - pts.mean(axis=0), axis=1)))
    order = [start]
    # every distance once, rounded as np.linalg.norm rounds it; a chained
    # point's column is set to infinity, and argmin over the ascending
    # indices breaks ties by index
    dx = pts[:, 0, None] - pts[:, 0]
    dy = pts[:, 1, None] - pts[:, 1]
    dx *= dx
    dx += np.multiply(dy, dy, out=dy)
    dist = np.sqrt(dx, out=dx)
    dist[:, start] = np.inf
    for _ in range(n - 1):
        k = int(np.argmin(dist[order[-1]]))
        dist[:, k] = np.inf
        order.append(k)
    return order


def _polyline(xy: np.ndarray, style: str) -> str:
    coords = " ".join(["%.3f,%.3f"] * len(xy)) % tuple(xy.ravel().tolist())
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
    # lengths times 2^e, which brings the longer extent into [0.5, 1): exact,
    # and the scale stays finite for a subnormal extent
    extent = max(xmax - xmin, ymax - ymin)
    e = -np.frexp(extent)[1]
    scale = (_SIZE - 2 * margin) / float(np.ldexp(extent, e))
    width = float(np.ldexp(xmax - xmin, e)) * scale + 2 * margin
    height = float(np.ldexp(ymax - ymin, e)) * scale + 2 * margin

    def to_px(xy):
        """Pixel positions of the points (..., 2), given in field units."""
        d = np.ldexp(np.asarray(xy, float) - (xmin, ymin), e) * scale
        return np.stack([margin + d[..., 0], height - margin - d[..., 1]], axis=-1)

    w, h = round(width), round(height)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
             f'viewBox="0 0 {w} {h}">', '<g id="contours">']
    vmin, vmax = float(g.values.min()), float(g.values.max())
    if vmax > vmin:
        ends = to_px(marching_squares(g, np.linspace(vmin, vmax, levels + 2)[1:-1]))
        ends = ends.reshape(-1, 4)
        line = ('<polyline points="%.3f,%.3f %.3f,%.3f" fill="none" '
                'stroke="#9ab" stroke-width="0.8"/>')
        template = "\n".join([line] * _CHUNK)
        for k in range(0, len(ends), _CHUNK):
            chunk = ends[k:k + _CHUNK]
            if len(chunk) < _CHUNK:  # the last chunk
                template = "\n".join([line] * len(chunk))
            parts.append(template % tuple(chunk.ravel().tolist()))

    parts += ["</g>", '<g id="detected">']
    if report:
        pts = report.get("stationary_points", [])
        for b in report.get("bindings", []):
            members = b["members"]
            if b["kind"] == "curve":
                pos = np.array([[pts[i]["x"], pts[i]["y"]] for i in members])
                parts.append(_polyline(to_px(pos[chain_polyline(pos)]),
                                       'stroke="#ffffff" stroke-width="2.0"'))
            else:
                p = pts[members[0]]
                x, y = to_px([p["x"], p["y"]]).tolist()
                parts.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="4.0" '
                             f'stroke="#333" fill="#ffffff"/>')

    parts += ["</g>", '<g id="ground-truth">']
    if ground_truth:
        for curve in ground_truth.get("curves", []):
            parts.append(_polyline(to_px(np.reshape(curve, (-1, 2))),
                                   'stroke="#d22" stroke-width="1.2" stroke-dasharray="6,4"'))
        for x, y in ground_truth.get("isolated", []):
            px, py = to_px([x, y]).tolist()
            parts.append(f'<path d="M {px - 4.0:.3f} {py - 4.0:.3f} L {px + 4.0:.3f} '
                         f'{py + 4.0:.3f} M {px - 4.0:.3f} {py + 4.0:.3f} L {px + 4.0:.3f} '
                         f'{py - 4.0:.3f}" stroke="#d22" stroke-width="1.2"/>')
    parts += ["</g>", "</svg>\n"]
    return "\n".join(parts)
