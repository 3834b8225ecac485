"""Marching squares, polyline chaining, and SVG rendering."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridstat import GridField, KernelKind, TestFunction, sample
from gridstat.plotting import chain_polyline, marching_squares, render_svg


def linear_field(nx=10, ny=8):
    xs = np.arange(nx, dtype=float)
    v = np.tile(xs, (ny, 1))
    return GridField(nx=nx, ny=ny, dx=1.0, dy=1.0, origin=(0.0, 0.0),
                     values=v.ravel())


def test_marching_squares_linear_field():
    g = linear_field()
    segs = marching_squares(g, level=4.5)
    assert len(segs) == g.ny - 1  # one vertical crossing per cell row
    for p0, p1 in segs:
        assert p0[0] == pytest.approx(4.5)
        assert p1[0] == pytest.approx(4.5)


def test_marching_squares_no_crossings():
    g = linear_field()
    assert marching_squares(g, level=99.0) == []


def test_marching_squares_closed_loop():
    # radial bump: the isoline is a closed loop, endpoints match up
    n = 15
    xs = np.linspace(-1, 1, n)
    X, Y = np.meshgrid(xs, xs)
    g = GridField(nx=n, ny=n, dx=xs[1] - xs[0], dy=xs[1] - xs[0],
                  origin=(-1.0, -1.0), values=(X ** 2 + Y ** 2).ravel())
    segs = marching_squares(g, level=0.25)
    assert segs
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
# 0's side; corners 1, 0, 1, 0 average on the level, off corner 0's side
VALUES = (-1.0, 0.0, 0.5, 1.0, 2.0)
LEVELS = (-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0)


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
@given(g=small_grids(), level=st.sampled_from(LEVELS))
@example(g=SADDLES, level=0.5)
def test_marching_squares_equals_cell_loop(g, level):
    got = marching_squares(g, level)
    want = marching_squares_reference(g, level)
    assert got == [[list(p0), list(p1)] for p0, p1 in want]
    # bit for bit, the sign of zero included
    assert np.array(got).tobytes() == np.array(want, dtype=float).tobytes()


def test_pinned_grid_has_saddles_split_both_ways():
    # every cell of SADDLES is a saddle at 0.5: two segments each
    v = SADDLES.grid2d()
    cells = [(v[i, j], v[i, j + 1], v[i + 1, j + 1], v[i + 1, j])
             for i in range(3) for j in range(3)]
    assert {(sum(c) / 4.0 > 0.5) == (c[0] > 0.5) for c in cells} == {True, False}
    assert len(marching_squares(SADDLES, 0.5)) == 2 * len(cells)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((0.0, 1.0, 2.0)), st.sampled_from((0.0, 1.0, 2.0))),
                max_size=14))
@example([(0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (2.0, 2.0), (1.0, 0.0), (0.0, 1.0)])
def test_chain_polyline_equals_masked_loop(points):
    # lattice points: duplicates and equidistant candidates are common
    pts = np.array(points, dtype=float).reshape(-1, 2)
    assert chain_polyline(pts) == chain_polyline_reference(pts)


def fake_report(positions, curve_members=(), isolated_members=()):
    return {
        "stationary_points": [
            {"x": float(x), "y": float(y), "value": 0.0,
             "class": "degenerate", "merged": 1}
            for x, y in positions],
        "bindings": ([{"kind": "curve", "members": list(m)} for m in curve_members]
                     + [{"kind": "isolated", "members": [i]} for i in isolated_members]),
    }


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
