"""Per-patch Newton search, the full sweep, and duplicate reduction."""

import math

import numpy as np
import pytest

from gridstat import (Classification, GridField, KernelKind, PatchMatrix,
                      RawStationaryPoint, SearchDomain, SolverConfig,
                      TestFunction, diag_step, find_patch_stationary,
                      interpolate_patch, kernel_for_grid, patch_domain,
                      patch_offsets, reduce_points, sample, sweep_full)
from gridstat.stationary import _GRAD_TOL_REL


def unit_grid(nx=6, ny=6):
    return GridField(nx=nx, ny=ny, dx=1.0, dy=1.0, origin=(0.0, 0.0),
                     values=np.arange(nx * ny, dtype=float))


def interp_from(kind, h, origin=(0.0, 0.0), dx=1.0, dy=1.0):
    k = kernel_for_grid(kind, math.hypot(dx, dy))
    m = PatchMatrix(k, dx, dy)
    centers = np.asarray(origin, float) + patch_offsets(dx, dy)
    return interpolate_patch(m, centers, h)


# --- configuration and domains ----------------------------------------------

def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(seeds_per_axis=1)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)


def test_search_domain_validation():
    with pytest.raises(ValueError):
        SearchDomain(lo=np.array([1.0, 0.0]), hi=np.array([0.0, 1.0]))
    dom = SearchDomain(lo=np.array([0.0, 0.0]), hi=np.array([1.0, 2.0]))
    assert dom.contains([0.5, 1.0])
    assert not dom.contains([1.5, 1.0])


def test_patch_domain_interior():
    dom = patch_domain(unit_grid(), 2, 2)
    np.testing.assert_allclose(dom.lo, [1.5, 1.5])
    np.testing.assert_allclose(dom.hi, [3.5, 3.5])


def test_patch_domain_corner():
    dom = patch_domain(unit_grid(), 1, 1)
    np.testing.assert_allclose(dom.lo, [0.0, 0.0])
    np.testing.assert_allclose(dom.hi, [2.5, 2.5])


def test_patch_domain_far_corner():
    dom = patch_domain(unit_grid(), 3, 3)
    np.testing.assert_allclose(dom.lo, [2.5, 2.5])
    np.testing.assert_allclose(dom.hi, [5.0, 5.0])


def test_adjacent_domains_overlap_by_dx():
    g = unit_grid(nx=8, ny=8)
    a = patch_domain(g, 3, 2)
    b = patch_domain(g, 3, 3)
    assert a.hi[0] - b.lo[0] == pytest.approx(g.dx)


def test_patch_domain_range_check():
    g = unit_grid()
    with pytest.raises(IndexError):
        patch_domain(g, 0, 1)
    with pytest.raises(IndexError):
        patch_domain(g, 1, 4)  # nx-3 = 3 is the last valid column


def test_domains_cover_grid_rectangle():
    g = unit_grid(nx=7, ny=6)
    doms = [patch_domain(g, i, j)
            for i in range(1, g.ny - 2) for j in range(1, g.nx - 2)]
    rng = np.random.default_rng(21)
    pts = rng.uniform([0, 0], [g.nx - 1, g.ny - 1], size=(2000, 2))
    corners = np.array([[0, 0], [g.nx - 1, 0], [0, g.ny - 1],
                        [g.nx - 1, g.ny - 1]], float)
    for p in np.vstack([pts, corners]):
        assert any(d.contains(p) for d in doms)


# --- per-patch search ---------------------------------------------------------

def test_find_bump_maximum():
    centers = patch_offsets(1, 1) - np.array([1.5, 1.5])
    h = np.exp(-np.sum(centers ** 2, axis=1))
    k = kernel_for_grid(KernelKind.GAUSSIAN, math.sqrt(2))
    p = interpolate_patch(PatchMatrix(k, 1, 1), centers, h)
    dom = SearchDomain(lo=np.array([-1.0, -1.0]), hi=np.array([1.0, 1.0]))
    roots = find_patch_stationary(p, dom)
    assert len(roots) == 1
    assert np.linalg.norm(roots[0].position) <= 1e-6 * math.sqrt(2)


def test_monotone_field_has_no_roots():
    centers = patch_offsets(1, 1)
    h = centers[:, 0].copy()
    p = interp_from(KernelKind.GAUSSIAN, h)
    dom = SearchDomain(lo=np.array([1.0, 1.0]), hi=np.array([2.0, 2.0]))
    assert find_patch_stationary(p, dom) == []


def test_flat_patch_skipped():
    p = interp_from(KernelKind.GAUSSIAN, np.full(16, 3.0))
    dom = SearchDomain(lo=np.array([1.0, 1.0]), hi=np.array([2.0, 2.0]))
    assert find_patch_stationary(p, dom) == []


def test_roots_respect_gradient_tolerance_and_domain():
    g = sample(TestFunction.F2, 20, 20)
    d = diag_step(g)
    cfg = SolverConfig()
    sr = sweep_full(g, kernel_for_grid(KernelKind.GAUSSIAN, d), cfg)
    tol_g = _GRAD_TOL_REL * g.field_range / d
    assert sr.raw, "expected stationary points on the F2 sample"
    for r in sr.raw:
        dom = patch_domain(g, *r.patch)
        assert dom.contains(r.position)
        interp = sr.interpolant(*r.patch)
        assert np.linalg.norm(interp.gradient(r.position)) <= tol_g


# --- sweep --------------------------------------------------------------------

def test_sweep_patch_counts():
    g4 = sample(TestFunction.F2, 4, 4)
    sr = sweep_full(g4, kernel_for_grid(KernelKind.GAUSSIAN, diag_step(g4)))
    assert sr.weights.shape == (1, 16)
    g20 = sample(TestFunction.F2, 20, 20)
    sr = sweep_full(g20, kernel_for_grid(KernelKind.GAUSSIAN, diag_step(g20)))
    assert sr.weights.shape == (17 * 17, 16)


def skewed_grid():
    """f2's formula on a 13x10 grid with dx != dy and an off-center origin."""
    nx, ny, dx, dy, origin = 13, 10, 0.31, 0.43, (-1.7, -2.1)
    x = origin[0] + dx * np.arange(nx)
    y = origin[1] + dy * np.arange(ny)
    xx, yy = np.meshgrid(x, y)
    return GridField(nx=nx, ny=ny, dx=dx, dy=dy, origin=origin,
                     values=TestFunction.F2(xx, yy).ravel())


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("seeds", [3, 2, 4])
@pytest.mark.parametrize("grid", ["f2-12x12", "skewed"])
def test_sweep_equals_per_patch_search(grid, seeds, threads):
    # the engine gives bit-identical raw points for one patch and for a slice
    g = sample(TestFunction.F2, 12, 12) if grid == "f2-12x12" else skewed_grid()
    d = diag_step(g)
    k = kernel_for_grid(KernelKind.GAUSSIAN, d)
    cfg = SolverConfig(seeds_per_axis=seeds)
    sr = sweep_full(g, k, cfg, threads=threads)
    assert sr.raw
    expected = []
    for i in range(1, g.ny - 2):
        for j in range(1, g.nx - 2):
            p = sr.interpolant(i, j)
            expected.extend(find_patch_stationary(
                p, patch_domain(g, i, j), cfg,
                field_range=g.field_range, d=d, patch=(i, j)))
    assert len(sr.raw) == len(expected)
    for a, b in zip(sr.raw, expected):
        np.testing.assert_array_equal(a.position, b.position)
        assert (a.patch, a.seed_index) == (b.patch, b.seed_index)


def test_sweep_ordered_and_thread_invariant():
    g = sample(TestFunction.F2, 20, 20)
    k = kernel_for_grid(KernelKind.GAUSSIAN, diag_step(g))
    raw1 = sweep_full(g, k, threads=1).raw
    raw4 = sweep_full(g, k, threads=4).raw
    keys = [(r.patch, r.seed_index) for r in raw1]
    assert keys == sorted(keys)
    assert len(raw1) == len(raw4)
    for a, b in zip(raw1, raw4):
        np.testing.assert_array_equal(a.position, b.position)
        assert (a.patch, a.seed_index) == (b.patch, b.seed_index)


def test_sweep_matches_dense_multistart_oracle():
    # reduced sweep output vs. 1000-start Newton on the analytic gradient
    tf = TestFunction.F2
    g = sample(tf, 20, 20)
    d = diag_step(g)
    reduced = reduce_points(sweep_full(g, kernel_for_grid(KernelKind.GAUSSIAN, d)).raw, d)
    got = np.array([p.position for p in reduced])

    rng = np.random.default_rng(22)
    x = rng.uniform(-2, 2, (1000, 2))
    h = 1e-7
    for _ in range(60):
        grad = tf.gradient(x[:, 0], x[:, 1])
        jxx = (tf.gradient(x[:, 0] + h, x[:, 1])[:, 0]
               - tf.gradient(x[:, 0] - h, x[:, 1])[:, 0]) / (2 * h)
        jxy = (tf.gradient(x[:, 0], x[:, 1] + h)[:, 0]
               - tf.gradient(x[:, 0], x[:, 1] - h)[:, 0]) / (2 * h)
        jyy = (tf.gradient(x[:, 0], x[:, 1] + h)[:, 1]
               - tf.gradient(x[:, 0], x[:, 1] - h)[:, 1]) / (2 * h)
        det = jxx * jyy - jxy * jxy
        det = np.where(np.abs(det) < 1e-12, np.nan, det)
        x = x - np.stack([(jyy * grad[:, 0] - jxy * grad[:, 1]) / det,
                          (jxx * grad[:, 1] - jxy * grad[:, 0]) / det], axis=-1)
    x = x[np.isfinite(x).all(axis=1)]
    gnorm = np.linalg.norm(tf.gradient(x[:, 0], x[:, 1]), axis=1)
    inside = np.all(np.abs(x) <= 2, axis=1)
    x = x[(gnorm < 1e-10) & inside]
    truth = []
    for p in x:
        if all(np.hypot(*(p - q)) > 1e-4 for q in truth):
            truth.append(p)
    truth = np.array(truth)

    assert len(got) == len(truth)
    dist = np.linalg.norm(got[:, None, :] - truth[None, :, :], axis=2)
    assert dist.min(axis=1).max() <= d


# --- reduction ----------------------------------------------------------------

def raw(*positions):
    return [RawStationaryPoint(position=np.array(p, float), patch=(1, 1),
                               seed_index=i) for i, p in enumerate(positions)]


def test_reduce_merges_close_pair():
    out = reduce_points(raw((0, 0), (0.5, 0)), d=math.sqrt(2))
    assert len(out) == 1
    np.testing.assert_allclose(out[0].position, [0.25, 0.0])
    assert out[0].members_merged == 2


def test_reduce_keeps_distant_points():
    out = reduce_points(raw((0, 0), (10, 0)), d=math.sqrt(2))
    assert len(out) == 2
    np.testing.assert_allclose(out[0].position, [0, 0])
    np.testing.assert_allclose(out[1].position, [10, 0])


def test_reduce_anchor_semantics():
    # (2,0) stays separate: gathering is anchored at the first point only
    out = reduce_points(raw((0, 0), (1, 0), (2, 0)), d=1.5)
    assert len(out) == 2
    np.testing.assert_allclose(out[0].position, [0.5, 0.0])
    np.testing.assert_allclose(out[1].position, [2.0, 0.0])
    assert [p.members_merged for p in out] == [2, 1]


def test_reduce_deterministic_and_idempotent():
    pts = raw((0, 0), (1, 0), (2.6, 0), (5, 5))
    once = reduce_points(pts, d=1.5)
    again = reduce_points(pts, d=1.5)
    for a, b in zip(once, again):
        np.testing.assert_array_equal(a.position, b.position)
    # all pairwise distances now exceed d: reducing again changes nothing
    as_raw = raw(*[tuple(p.position) for p in once])
    twice = reduce_points(as_raw, d=1.5)
    assert len(twice) == len(once)
    for a, b in zip(once, twice):
        np.testing.assert_allclose(a.position, b.position)


def test_reduce_evaluates_on_first_members_patch():
    centers = patch_offsets(1, 1) - np.array([1.5, 1.5])
    h = 1.0 - 0.1 * np.sum(centers ** 2, axis=1)
    k = kernel_for_grid(KernelKind.GAUSSIAN, math.sqrt(2))
    p = interpolate_patch(PatchMatrix(k, 1, 1), centers, h)
    pts = [RawStationaryPoint(position=np.zeros(2), patch=(1, 1), seed_index=0)]
    out = reduce_points(pts, d=1.0, interpolant_for=lambda i, j: p,
                        hessian_scale=1.0)
    assert out[0].value == pytest.approx(1.0, abs=0.05)
    assert out[0].classification is Classification.MAXIMUM


def test_reduce_without_interpolant_marks_degenerate():
    out = reduce_points(raw((0, 0)), d=1.0)
    assert math.isnan(out[0].value)
    assert out[0].classification is Classification.DEGENERATE


def test_classification_kinds():
    # quadratic-like fields through the patch center
    centers = patch_offsets(1, 1) - np.array([1.5, 1.5])
    k = kernel_for_grid(KernelKind.GAUSSIAN, math.sqrt(2))
    m = PatchMatrix(k, 1, 1)
    cases = {
        Classification.MINIMUM: np.sum(centers ** 2, axis=1),
        Classification.MAXIMUM: -np.sum(centers ** 2, axis=1),
        Classification.SADDLE: centers[:, 0] ** 2 - centers[:, 1] ** 2,
    }
    for expected, h in cases.items():
        p = interpolate_patch(m, centers, h)
        pts = [RawStationaryPoint(position=np.zeros(2), patch=(1, 1), seed_index=0)]
        out = reduce_points(pts, d=0.5, interpolant_for=lambda i, j: p,
                            hessian_scale=1.0)
        assert out[0].classification is expected
