"""Marching squares, polyline chaining, and SVG rendering."""

import dataclasses
import xml.etree.ElementTree as ET
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridstat import GridField, KernelKind, TestFunction, plotting, run_pipeline, sample
from gridstat.plotting import chain_polyline, marching_squares, render_svg


def linear_field(nx=10, ny=8):
    xs = np.arange(nx, dtype=float)
    v = np.tile(xs, (ny, 1))
    return GridField(nx=nx, ny=ny, dx=1.0, dy=1.0, origin=(0.0, 0.0),
                     values=v.ravel())


def test_marching_squares_linear_field():
    g = linear_field()
    segs = marching_squares(g, [4.5])
    assert len(segs) == g.ny - 1  # one vertical crossing per cell row
    for p0, p1 in segs:
        assert p0[0] == pytest.approx(4.5)
        assert p1[0] == pytest.approx(4.5)


def test_marching_squares_no_crossings():
    g = linear_field()
    segs = marching_squares(g, [99.0])
    assert segs.size == 0
    assert segs.shape == (0, 2, 2)


def test_marching_squares_closed_loop():
    # radial bump: the isoline is a closed loop, endpoints match up
    n = 15
    xs = np.linspace(-1, 1, n)
    X, Y = np.meshgrid(xs, xs)
    g = GridField(nx=n, ny=n, dx=xs[1] - xs[0], dy=xs[1] - xs[0],
                  origin=(-1.0, -1.0), values=(X ** 2 + Y ** 2).ravel())
    segs = marching_squares(g, [0.25])
    assert segs.size
    for p0, p1 in segs:
        for p in (p0, p1):
            assert np.hypot(*p) == pytest.approx(0.5, abs=0.1)


def test_chain_polyline_orders_line():
    rng = np.random.default_rng(41)
    xs = np.linspace(0, 1, 12)
    pts = np.column_stack([xs, 2 * xs])
    perm = rng.permutation(12)
    order = chain_polyline(pts[perm])
    chained = pts[perm][order]
    diffs = np.diff(chained[:, 0])
    assert np.all(diffs > 0) or np.all(diffs < 0)
    assert chain_polyline(pts[:2]) == [0, 1]


# --- scalar references: the cell-by-cell loops the array code replaced ----

def _interp(p0, p1, v0, v1, level):
    t = 0.5 if v1 == v0 else (level - v0) / (v1 - v0)
    return (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))


def marching_squares_reference(g, level):
    v = g.grid2d()
    x0, y0 = g.origin
    segs = []
    for i in range(g.ny - 1):
        for j in range(g.nx - 1):
            # corners counterclockwise from bottom-left
            corners = [(x0 + j * g.dx, y0 + i * g.dy),
                       (x0 + (j + 1) * g.dx, y0 + i * g.dy),
                       (x0 + (j + 1) * g.dx, y0 + (i + 1) * g.dy),
                       (x0 + j * g.dx, y0 + (i + 1) * g.dy)]
            vals = [v[i, j], v[i, j + 1], v[i + 1, j + 1], v[i + 1, j]]
            case = sum(1 << k for k in range(4) if vals[k] > level)
            if case in (0, 15):
                continue
            crossings = {}
            for k in range(4):
                k2 = (k + 1) % 4
                if (vals[k] > level) != (vals[k2] > level):
                    crossings[k] = _interp(corners[k], corners[k2],
                                           vals[k], vals[k2], level)
            edges = sorted(crossings)
            if len(edges) == 2:
                segs.append((crossings[edges[0]], crossings[edges[1]]))
            elif len(edges) == 4:
                # saddle cell: split by the center average
                center_above = (sum(vals) / 4.0) > level
                corner0_above = vals[0] > level
                if center_above == corner0_above:
                    segs.append((crossings[0], crossings[3]))
                    segs.append((crossings[1], crossings[2]))
                else:
                    segs.append((crossings[0], crossings[1]))
                    segs.append((crossings[2], crossings[3]))
    return segs


def chain_polyline_reference(points):
    pts = np.asarray(points, float)
    n = len(pts)
    if n <= 2:
        return list(range(n))
    start = int(np.argmax(np.linalg.norm(pts - pts.mean(axis=0), axis=1)))
    order = [start]
    used = {start}
    while len(order) < n:
        last = pts[order[-1]]
        dist = np.linalg.norm(pts - last, axis=1)
        dist[list(used)] = np.inf
        nxt = int(np.argmin(dist))
        order.append(nxt)
        used.add(nxt)
    return order


# few distinct values, so cells tie, levels hit samples, and saddles split
# both ways: corners 2, 0, 1, 0 around level 0.5 average above it, on corner
# 0's side; corners 1, 0, 1, 0 average on the level, off corner 0's side.
# -3 and 5 lie outside every grid's [min, max]
VALUES = (-1.0, 0.0, 0.5, 1.0, 2.0)
LEVELS = (-3.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 5.0)


@st.composite
def small_grids(draw):
    nx, ny = draw(st.integers(4, 9)), draw(st.integers(4, 9))
    spacing = st.floats(0.05, 3.0, allow_nan=False)
    dx, dy = draw(spacing), draw(spacing)
    origin = (draw(st.floats(-50.0, 0.0)), draw(st.floats(-50.0, 0.0)))
    values = draw(st.lists(st.sampled_from(VALUES), min_size=nx * ny, max_size=nx * ny))
    return GridField(nx=nx, ny=ny, dx=dx, dy=dy, origin=origin, values=np.array(values))


SADDLES = GridField(nx=4, ny=4, dx=0.3, dy=0.7, origin=(-1.5, -2.0),
                    values=np.array([2.0, 0.0, 1.0, 0.0,
                                     0.0, 1.0, 0.0, 1.0,
                                     1.0, 0.0, 1.0, 0.0,
                                     0.0, 1.0, 0.0, 2.0]))


@settings(max_examples=300, deadline=None)
@given(g=small_grids(), levels=st.lists(st.sampled_from(LEVELS), max_size=6))
@example(g=SADDLES, levels=[0.5])
@example(g=SADDLES, levels=[])
@example(g=SADDLES, levels=[2.0, 0.5, 0.0, 0.5, 1.0])
@example(g=SADDLES, levels=[-3.0, 5.0])
def test_marching_squares_equals_cell_loop(g, levels):
    # levels empty, single, unsorted, repeated, outside [min, max] or equal
    # to samples: the segments of each level in turn, as the loop gives them
    got = marching_squares(g, levels)
    want = [s for level in levels for s in marching_squares_reference(g, level)]
    assert got.tolist() == [[list(p0), list(p1)] for p0, p1 in want]
    # bit for bit, the sign of zero included
    assert got.tobytes() == np.array(want, dtype=float).tobytes()


def test_pinned_grid_has_saddles_split_both_ways():
    # every cell of SADDLES is a saddle at 0.5: two segments each
    v = SADDLES.grid2d()
    cells = [(v[i, j], v[i, j + 1], v[i + 1, j + 1], v[i + 1, j])
             for i in range(3) for j in range(3)]
    assert {(sum(c) / 4.0 > 0.5) == (c[0] > 0.5) for c in cells} == {True, False}
    assert len(marching_squares(SADDLES, [0.5])) == 2 * len(cells)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((0.0, 1.0, 2.0)), st.sampled_from((0.0, 1.0, 2.0))),
                max_size=14))
@example([(0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (2.0, 2.0), (1.0, 0.0), (0.0, 1.0)])
def test_chain_polyline_equals_masked_loop(points):
    # lattice points: duplicates and equidistant candidates are common
    pts = np.array(points, dtype=float).reshape(-1, 2)
    assert chain_polyline(pts) == chain_polyline_reference(pts)


PARABOLA = [(t, t * t) for t in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0)),
                          st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0))), max_size=14),
       st.integers(-1072, 1021))
@example(PARABOLA, 600)
@example(PARABOLA, -600)
@example(PARABOLA, -1000)
def test_chain_polyline_does_not_see_the_length_unit(points, k):
    # a power-of-two unit scales these points exactly; at 2^600 their
    # squared distances would overflow and at 2^-600 underflow
    pts = np.array(points, dtype=float).reshape(-1, 2)
    assert chain_polyline(np.ldexp(pts, k)) == chain_polyline(pts)


def test_chain_polyline_chains_a_parabola_from_its_far_end():
    assert chain_polyline(np.array(PARABOLA)) == [5, 4, 3, 2, 1, 0]


def fake_report(positions, curve_members=(), isolated_members=()):
    return {
        "stationary_points": [
            {"x": float(x), "y": float(y), "value": 0.0,
             "class": "degenerate", "merged": 1}
            for x, y in positions],
        "bindings": ([{"kind": "curve", "members": list(m)} for m in curve_members]
                     + [{"kind": "isolated", "members": [i]} for i in isolated_members]),
    }


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


def render_svg_reference(g, report=None, ground_truth=None, levels=10):
    """``render_svg`` as an element-by-element builder over the scalar
    references, the way it was written before it formatted the contour
    array directly."""
    xmin, ymin = g.origin
    xmax = xmin + (g.nx - 1) * g.dx
    ymax = ymin + (g.ny - 1) * g.dy
    margin = 20.0
    scale = (640 - 2 * margin) / max(xmax - xmin, ymax - ymin)
    width = (xmax - xmin) * scale + 2 * margin
    height = (ymax - ymin) * scale + 2 * margin

    def to_px(x, y):
        return (margin + (x - xmin) * scale, height - margin - (y - ymin) * scale)

    svg = _Svg(round(width), round(height))

    svg.open_group("contours")
    vmin, vmax = float(g.values.min()), float(g.values.max())
    if vmax > vmin:
        segs = np.array([s for lv in np.linspace(vmin, vmax, levels + 2)[1:-1]
                         for s in marching_squares_reference(g, lv)]).reshape(-1, 4)
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
                order = chain_polyline_reference(pos)
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


def overlays(g):
    """A report with curve and isolated bindings and a ground truth with
    curves and isolated points, spread over g's rectangle."""
    x0, y0 = g.origin
    w, h = (g.nx - 1) * g.dx, (g.ny - 1) * g.dy
    t = np.linspace(0.0, 1.0, 7)
    report = fake_report(np.column_stack([x0 + w * t, y0 + h * t * t]),
                         curve_members=[(5, 1, 3, 2), (4, 6)], isolated_members=[0, 6])
    gt = {"curves": [[[x0, y0], [x0 + w / 3, y0 + h], [x0 + w, y0 + h / 7]],
                     [[x0 + w / 2, y0 + h / 2], [x0, y0 + h]]],
          "isolated": [[x0 + w / 5, y0 + h / 3], [x0 + w, y0]]}
    return report, gt


CHUNKS = (1, 2, 3, 1024)


@settings(max_examples=100, deadline=None)
@given(g=small_grids(), levels=st.sampled_from((0, 1, 2, 10, 37)), with_overlays=st.booleans(),
       chunk=st.sampled_from(CHUNKS))
@example(g=SADDLES, levels=10, with_overlays=True, chunk=1024)
@example(g=SADDLES, levels=10, with_overlays=False, chunk=1024)
def test_render_svg_equals_the_builder(g, levels, with_overlays, chunk):
    report, gt = overlays(g) if with_overlays else (None, None)
    with mock.patch.object(plotting, "_CHUNK", chunk):
        got = render_svg(g, report, gt, levels)
    assert got == render_svg_reference(g, report, gt, levels)


# (field, levels, with overlays): a linear field's levels each cross one
# column of cells, ny - 1 segments a level, so 8 levels give 1024 segments
# at ny = 129, 1032 at ny = 130 and one level 7 at ny = 8; the flat field
# and no levels give none
CHUNK_CASES = [
    (linear_field(10, 129), 8, False),
    (linear_field(), 1, False),
    (linear_field(10, 130), 8, True),
    (SADDLES, 10, True),
    (SADDLES, 0, True),
    (dataclasses.replace(SADDLES, values=np.ones(16)), 10, True),
]


@pytest.mark.parametrize("chunk", CHUNKS)
def test_render_svg_at_the_chunk_boundaries(chunk, monkeypatch):
    monkeypatch.setattr(plotting, "_CHUNK", chunk)
    counts = []
    for g, levels, with_overlays in CHUNK_CASES:
        report, gt = overlays(g) if with_overlays else (None, None)
        svg = render_svg(g, report, gt, levels)
        assert svg == render_svg_reference(g, report, gt, levels)
        counts.append(svg.count('stroke="#9ab"'))
    assert counts == [1024, 7, 1032, 100, 0, 0]
    # some case fills whole chunks only, and some ends on a partial one
    assert any(n and n % chunk == 0 for n in counts)
    assert chunk == 1 or any(n % chunk for n in counts)


def test_render_svg_well_formed_and_layered():
    g = sample(TestFunction.F2, 12, 12)
    report = fake_report([(0.0, 0.0), (1.0, 1.0), (1.1, 1.1)],
                         curve_members=[(1, 2)], isolated_members=[0])
    gt = {"isolated": [[0.5, 0.5]], "curves": [[[0, 0], [1, 1]]]}
    svg = render_svg(g, report=report, ground_truth=gt)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    groups = [el.get("id") for el in root
              if el.tag.endswith("g")]
    assert groups == ["contours", "detected", "ground-truth"]


def test_render_svg_empty_report_has_no_glyphs():
    g = sample(TestFunction.F2, 12, 12)
    svg = render_svg(g, report=fake_report([]))
    assert "<circle" not in svg
    root = ET.fromstring(svg)
    detected = [el for el in root if el.get("id") == "detected"]
    assert len(list(detected[0])) == 0


def test_render_svg_f2_has_24_circles(pipeline):
    report, g, _ = pipeline(TestFunction.F2, KernelKind.GAUSSIAN)
    svg = render_svg(g, report=report)
    assert svg.count("<circle") == 24
    ET.fromstring(svg)  # well-formed


@pytest.fixture(scope="module")
def f13_60():
    g = sample(TestFunction.F13, 60, 60)
    return g, render_svg(g, run_pipeline(g, KernelKind.GAUSSIAN, timings=False))


@pytest.mark.parametrize("k", [-1000, -600, 600])
def test_render_svg_does_not_see_the_length_unit(k, f13_60):
    # `find` scales every length of the report by the power of two exactly,
    # and so the pixel map and the curves' chaining see the same numbers
    g, want = f13_60
    f = 2.0 ** k
    h = dataclasses.replace(g, dx=g.dx * f, dy=g.dy * f,
                            origin=(g.origin[0] * f, g.origin[1] * f))
    assert render_svg(h, run_pipeline(h, KernelKind.GAUSSIAN, timings=False)) == want
