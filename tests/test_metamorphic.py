"""Metamorphic tests: changes of the input that must leave the stationary
set where it was (Chen et al., "Metamorphic Testing: A Review of Challenges
and Opportunities", ACM Computing Surveys 51(1), 2018).

Each changed grid's report is mapped back to the original grid and compared
with the original report: `run_pipeline` at 60x60, Gaussian kernel, on f2
(isolated points), f13 (circles) and f14 (crossing lines).
"""

import dataclasses

import numpy as np
import pytest

from gridstat import KernelKind, TestFunction, run_pipeline, sample

FUNCTIONS = [TestFunction.F2, TestFunction.F13, TestFunction.F14]


def find(g):
    return run_pipeline(g, KernelKind.GAUSSIAN, timings=False)


@pytest.fixture(scope="module")
def original():
    """original(fn) -> (grid, report) of fn at 60x60, cached."""
    cache = {}

    def get(fn):
        if fn not in cache:
            g = sample(fn, 60, 60)
            cache[fn] = g, find(g)
        return cache[fn]

    return get


def positions(report, kind=None):
    """Positions of the report's points, or of those in bindings of `kind`."""
    pts = report["stationary_points"]
    if kind is not None:
        pts = [pts[i] for b in report["bindings"] if b["kind"] == kind for i in b["members"]]
    return np.array([[p["x"], p["y"]] for p in pts]).reshape(-1, 2)


def assert_each_near(a, b, tol):
    """Every point of a within tol of some point of b, and the other way."""
    if len(a) == len(b) == 0:
        return
    dist = np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])
    assert dist.min(axis=1).max() <= tol
    assert dist.min(axis=0).max() <= tol


def assert_same_stationary_set(rep, ref, back):
    """rep, its positions mapped back by `back`, has ref's binding counts,
    its isolated points within 1e-6 d of ref's, and its curve points
    within delta_max of ref's.  A root on a curve of stationary points is
    ill-conditioned along the curve, so rounding alone moves curve points
    and the anchored reduction may meet them in another order."""
    summary = rep["summary"]
    assert (summary["isolated"], summary["curves"]) == (ref["summary"]["isolated"],
                                                        ref["summary"]["curves"])
    assert_each_near(back(positions(rep, "isolated")), positions(ref, "isolated"),
                     1e-6 * ref["d"])
    assert_each_near(back(positions(rep, "curve")), positions(ref, "curve"), ref["delta_max"])


@pytest.mark.parametrize("shift", [1e5, 1e6])
@pytest.mark.parametrize("fn", FUNCTIONS)
def test_translation_moves_the_points_with_the_grid(fn, shift, original):
    # the engine sees the same patches, bit for bit
    g, ref = original(fn)
    rep = find(dataclasses.replace(g, origin=(g.origin[0] + shift, g.origin[1] + shift)))
    assert rep["bindings"] == ref["bindings"]
    got, want = positions(rep) - shift, positions(ref)
    assert got.shape == want.shape
    assert np.hypot(*(got - want).T).max() <= 1e-6 * ref["d"]


@pytest.mark.parametrize("factor", [2.0 ** 600, 2.0 ** -600], ids=["x2^600", "x2^-600"])
@pytest.mark.parametrize("fn", FUNCTIONS)
def test_power_of_two_scale_changes_only_the_values(fn, factor, original):
    # the weights scale exactly, and the engine divides them by the range
    g, ref = original(fn)
    rep = find(dataclasses.replace(g, values=g.values * factor))
    got, want = rep["stationary_points"], ref["stationary_points"]
    assert want
    assert ([(p["x"], p["y"], p["class"], p["merged"]) for p in got]
            == [(p["x"], p["y"], p["class"], p["merged"]) for p in want])
    assert [p["value"] for p in got] == [p["value"] * factor for p in want]
    assert rep["bindings"] == ref["bindings"]


@pytest.mark.parametrize("change", ["x1e200", "x1e-200", "+1e8"])
@pytest.mark.parametrize("fn", FUNCTIONS)
def test_scale_and_offset_keep_the_points(fn, change, original):
    g, ref = original(fn)
    values = {"x1e200": g.values * 1e200, "x1e-200": g.values * 1e-200,
              "+1e8": g.values + 1e8}[change]
    rep = find(dataclasses.replace(g, values=values))
    assert_same_stationary_set(rep, ref, lambda p: p)


def transpose(g):
    return dataclasses.replace(g, nx=g.ny, ny=g.nx, dx=g.dy, dy=g.dx,
                               origin=g.origin[::-1], values=g.grid2d().T.ravel())


def reflect(g):
    """x -> -x."""
    return dataclasses.replace(g, origin=(-(g.origin[0] + (g.nx - 1) * g.dx), g.origin[1]),
                               values=g.grid2d()[:, ::-1].ravel())


@pytest.mark.parametrize("change", ["transpose", "reflect"])
@pytest.mark.parametrize("fn", FUNCTIONS)
def test_transpose_and_reflection_keep_the_points(fn, change, original):
    g, ref = original(fn)
    if change == "transpose":
        assert_same_stationary_set(find(transpose(g)), ref, lambda p: p[:, ::-1])
    else:
        assert_same_stationary_set(find(reflect(g)), ref, lambda p: p * [-1.0, 1.0])


STRETCH_OPEN = pytest.mark.xfail(
    strict=True, reason="stretching an axis changes the answer: the kernel is isotropic "
    "in physical units (CHANGES.md, FOUND: dy = 10 dx)")


# f14's two diagonals stay one curve near the mapped-back lines
@pytest.mark.parametrize("fn", [pytest.param(TestFunction.F2, marks=STRETCH_OPEN),
                                pytest.param(TestFunction.F13, marks=STRETCH_OPEN),
                                TestFunction.F14])
def test_axis_stretch_keeps_the_points(fn, original):
    g, ref = original(fn)
    y0 = g.origin[1]
    rep = find(dataclasses.replace(g, dy=10 * g.dy))
    assert_same_stationary_set(rep, ref,
                               lambda p: np.column_stack([p[:, 0], y0 + (p[:, 1] - y0) / 10]))
