"""Metamorphic tests: changes of the input that must leave the stationary
set where it was (Chen et al., "Metamorphic Testing: A Review of Challenges
and Opportunities", ACM Computing Surveys 51(1), 2018).

Each changed grid's report is mapped back to the original grid and compared
with the original report: `run_pipeline` at 60x60, Gaussian kernel, on f2
(isolated points), f13 (circles) and f14 (crossing lines).  A round bowl
on one-patch grids of several aspect ratios checks that stretching keeps
the classification.
"""

import dataclasses

import numpy as np
import pytest

from gridstat import (GridField, KernelKind, TestFunction, diag_step, run_pipeline, sample,
                      sweep_full)

from conftest import default_kernel, every_patch

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
    # the samples divided by the range, and so the weights, keep their bits
    g, ref = original(fn)
    rep = find(dataclasses.replace(g, values=g.values * factor))
    got, want = rep["stationary_points"], ref["stationary_points"]
    assert want
    assert ([(p["x"], p["y"], p["class"], p["merged"]) for p in got]
            == [(p["x"], p["y"], p["class"], p["merged"]) for p in want])
    assert [p["value"] for p in got] == [p["value"] * factor for p in want]
    assert rep["bindings"] == ref["bindings"]


@pytest.mark.parametrize("change", ["x1e200", "x1e-200", "x1e307", "+1e8"])
@pytest.mark.parametrize("fn", FUNCTIONS)
def test_scale_and_offset_keep_the_points(fn, change, original):
    g, ref = original(fn)
    values = {"x1e200": g.values * 1e200, "x1e-200": g.values * 1e-200,
              "x1e307": g.values * 1e307, "+1e8": g.values + 1e8}[change]
    rep = find(dataclasses.replace(g, values=values))
    assert_same_stationary_set(rep, ref, lambda p: p)


@pytest.mark.parametrize("factor", [2.0 ** 600, 2.0 ** -600], ids=["x2^600", "x2^-600"])
@pytest.mark.parametrize("fn", FUNCTIONS)
def test_power_of_two_length_unit_scales_only_the_lengths(fn, factor, original):
    # the sweep works in grid-index units and never sees the spacing; the
    # map to the grid and back, the merge radius and the Hessian's scale
    # d / dx all scale exactly
    g, ref = original(fn)
    rep = find(dataclasses.replace(g, dx=g.dx * factor, dy=g.dy * factor,
                                   origin=(g.origin[0] * factor, g.origin[1] * factor)))
    got, want = rep["stationary_points"], ref["stationary_points"]
    assert want
    assert got == [{**p, "x": p["x"] * factor, "y": p["y"] * factor} for p in want]
    assert rep["bindings"] == ref["bindings"]
    summary = ref["summary"]
    assert rep["summary"] == {**summary, "curve_details": [
        {k: v if k == "members" else v * factor for k, v in c.items()}
        for c in summary["curve_details"]]}
    assert (rep["d"], rep["delta_max"]) == (ref["d"] * factor, ref["delta_max"] * factor)
    assert (rep["alpha"], rep["alpha_default"]) == (ref["alpha"] / factor,
                                                    ref["alpha_default"] / factor)


@pytest.mark.parametrize("fn", FUNCTIONS)
def test_sweep_does_not_see_the_spacing(fn):
    # dy = 10 dx: the same samples give the same patches, seeds and roots in
    # the patch frame, so the same raw points up to the map to the grid
    g = sample(fn, 60, 60)
    stretched = dataclasses.replace(g, dy=10 * g.dy)
    ref, got = (sweep_full(h, default_kernel(KernelKind.GAUSSIAN)) for h in (g, stretched))
    assert got.seed_counts == ref.seed_counts
    assert got.seed_counts.iterations == ref.seed_counts.iterations
    np.testing.assert_array_equal(got.raw_patch, ref.raw_patch)
    np.testing.assert_array_equal(got.raw_seed, ref.raw_seed)
    np.testing.assert_array_equal(got.band_patches, ref.band_patches)
    mine, theirs = got.interpolant(*every_patch(stretched)), ref.interpolant(*every_patch(g))
    np.testing.assert_array_equal(mine.weights, theirs.weights)
    np.testing.assert_array_equal(mine.constant, theirs.constant)
    y0 = g.origin[1]
    back = np.column_stack([got.raw[:, 0], y0 + (got.raw[:, 1] - y0) / 10])
    np.testing.assert_allclose(back, ref.raw, rtol=0, atol=1e-12)


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
    strict=True, reason="the sweep is stretch-invariant (test_sweep_does_not_see_the_spacing), "
    "but merging and chaining stay physical: with dy = 10 dx, d and delta_max = 4d grow "
    "tenfold along x, and at 60x60 f2 gives 0 isolated points and 7 curves, f13 0 and 1")


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


ANISOTROPY_OPEN = pytest.mark.xfail(
    strict=True, reason="in grid-index units the bowl's curvature differs 400:1 between the "
    "axes, and the interpolation error along the steep axis flips the sign of the flat "
    "axis's eigenvalue of the patch-frame Hessian: the minimum is classified a saddle")


@pytest.mark.parametrize("dx, dy", [(1.0, 5.0),
                                    pytest.param(0.1, 2.0, marks=ANISOTROPY_OPEN),
                                    pytest.param(3.0, 0.01, marks=ANISOTROPY_OPEN)])
def test_round_bowl_is_a_minimum_at_any_aspect(dx, dy):
    # x^2 + y^2 on a 4x4 grid centered at the origin: one patch, one minimum
    x, y = dx * (np.arange(4.0) - 1.5), dy * (np.arange(4.0) - 1.5)
    xx, yy = np.meshgrid(x, y)
    g = GridField(nx=4, ny=4, dx=dx, dy=dy, origin=(x[0], y[0]),
                  values=(xx * xx + yy * yy).ravel())
    [point] = find(g)["stationary_points"]
    assert np.hypot(point["x"], point["y"]) <= 1e-6 * diag_step(g)
    assert point["class"] == "minimum"
