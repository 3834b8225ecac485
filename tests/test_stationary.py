"""Per-patch Newton search, the full sweep, and duplicate reduction."""

import math
import sys
import tracemalloc
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridstat import (Classification, GridField, Kernel, KernelKind, PatchInterpolant,
                      PatchMatrix, StationaryPoint, TestFunction, diag_step, reduce_points,
                      sample, sweep_full)
from gridstat import patch, stationary
from gridstat.patch import _OFFS, DIAG, _grad_jac, _grad_jac_rows, _gradient_sums, _node_major
from gridstat.stationary import (_DOMAINS, _GRAD_TOL_REL, _SINGULAR_DET, _STEP_TOL,
                                 SeedCounts, _domain_code, classify)

from conftest import default_kernel, patch_sweep


def unit_grid(nx=6, ny=6):
    return GridField(nx=nx, ny=ny, dx=1.0, dy=1.0, origin=(0.0, 0.0),
                     values=np.arange(nx * ny, dtype=float))


def sweep_each_kernel(f, origin=(0.0, 0.0)):
    """sweep_full of a 4x4 unit-spaced grid of f(x, y), exactly one patch,
    with each kernel at its default shape parameter."""
    return {kind: patch_sweep(f, origin=origin, kind=kind) for kind in KernelKind}


# --- search domains ------------------------------------------------------------

def domain_bounds(g, i, j):
    """lo, hi (..., 2) of the search domains of patches (i, j) in the patch
    frame, looked up by their codes."""
    box = _DOMAINS[_domain_code(g, i, j)]
    return box[..., 0, :], box[..., 1, :]


def test_domain_codes_mark_the_boundaries_a_patch_touches():
    # patches i = 1..3, j = 1..4; bit 0 of ex + 4 ey is the first column,
    # bit 1 the last, bits 2 and 3 the first and last row
    g = unit_grid(nx=7, ny=6)
    i, j = np.mgrid[1:4, 1:5]
    assert _domain_code(g, i, j).tolist() == [[5, 4, 4, 6], [1, 0, 0, 2], [9, 8, 8, 10]]
    # the one patch of a 4x4 grid touches all four boundaries
    assert _domain_code(unit_grid(4, 4), 1, 1) == 15
    np.testing.assert_array_equal(domain_bounds(unit_grid(4, 4), 1, 1), [[0, 0], [3, 3]])


def test_patch_domain_interior():
    # in the patch frame: patch (2, 2) starts at node (1, 1) of the grid
    lo, hi = domain_bounds(unit_grid(), 2, 2)
    np.testing.assert_allclose(lo, [0.5, 0.5])
    np.testing.assert_allclose(hi, [2.5, 2.5])


def test_patch_domain_corner():
    lo, hi = domain_bounds(unit_grid(), 1, 1)
    np.testing.assert_allclose(lo, [0.0, 0.0])
    np.testing.assert_allclose(hi, [2.5, 2.5])


def test_patch_domain_far_corner():
    lo, hi = domain_bounds(unit_grid(), 3, 3)
    np.testing.assert_allclose(lo, [0.5, 0.5])
    np.testing.assert_allclose(hi, [3.0, 3.0])


def test_adjacent_domains_overlap_by_one_cell():
    g = unit_grid(nx=8, ny=8)
    _, a_hi = domain_bounds(g, 3, 2)
    b_lo, _ = domain_bounds(g, 3, 3)
    # patch (3, 3) starts one cell to the right of patch (3, 2)
    assert a_hi[0] - (b_lo[0] + 1) == 1


def test_domains_cover_grid_rectangle():
    g = unit_grid(nx=7, ny=6)
    i, j = np.mgrid[1:g.ny - 2, 1:g.nx - 2]
    lo, hi = domain_bounds(g, i.ravel(), j.ravel())  # (patches, 2)
    origins = np.column_stack([j.ravel() - 1, i.ravel() - 1])  # first nodes, index units
    lo, hi = lo + origins, hi + origins
    rng = np.random.default_rng(21)
    pts = rng.uniform([0, 0], [g.nx - 1, g.ny - 1], size=(2000, 2))
    corners = np.array([[0, 0], [g.nx - 1, 0], [0, g.ny - 1],
                        [g.nx - 1, g.ny - 1]], float)
    p = np.vstack([pts, corners])[:, None, :]
    assert np.all((p >= lo) & (p <= hi), axis=-1).any(axis=1).all()


# --- single-patch search (a 4x4 grid has one patch) --------------------------

def test_find_bump_maximum():
    for kind, sr in sweep_each_kernel(lambda x, y: np.exp(-(x * x + y * y)),
                                      origin=(-1.5, -1.5)).items():
        assert len(sr.raw) == 1, kind
        assert np.linalg.norm(sr.raw[0]) <= 1e-6 * math.sqrt(2), kind


def assert_no_raw(sr):
    """A sweep without roots still gives its raw points as arrays of the
    usual dtypes: (0, 2) float positions, (0, 2) int patches, (0,) int
    seed slots."""
    assert (sr.raw.shape, sr.raw.dtype) == ((0, 2), np.float64)
    assert (sr.raw_patch.shape, sr.raw_patch.dtype.kind) == ((0, 2), "i")
    assert (sr.raw_seed.shape, sr.raw_seed.dtype.kind) == ((0,), "i")


def test_monotone_field_has_no_roots():
    # the gradient is near (1, 0) everywhere: the patch is certified root-free
    for kind, sr in sweep_each_kernel(lambda x, y: x).items():
        assert_no_raw(sr)
        assert (sr.flat_patches.shape, sr.flat_patches.dtype.kind) == ((0, 2), "i"), kind
        assert sr.seed_counts.excluded == 1, kind
        assert sr.seed_counts.launched == 0, kind


def test_flat_patch_skipped():
    for kind, sr in sweep_each_kernel(lambda x, y: 3.0).items():
        assert_no_raw(sr)
        assert sr.flat_patches.dtype.kind == "i", kind
        assert sr.flat_patches.tolist() == [[1, 1]], kind
        assert sr.seed_counts == SeedCounts(), kind


def window_range_grid(seed):
    """A 23x19 grid of constant regions of 0.0 and -0.0 (mixed), of 1e300
    and of -1e300, a region within a few ulps of 1e300, and random values
    of all signs and sizes."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((19, 23)) * 10.0 ** rng.integers(-300, 300, (19, 23))
    v[:8, :9] = rng.choice([0.0, -0.0], (8, 9))
    v[10:, :7] = 1e300
    v[:6, 12:] = -1e300
    v[12:, 14:] = 1e300 * (1.0 + 2.0 ** -52 * rng.integers(-4, 5, (7, 9)))
    v[rng.random(v.shape) < 0.05] *= -1.0
    return GridField(nx=23, ny=19, dx=1.0, dy=1.0, origin=(0.0, 0.0), values=v.ravel())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_window_range_keeps_the_bits_of_each_windows_own(seed):
    g = window_range_grid(seed)
    h = np.lib.stride_tricks.sliding_window_view(g.grid2d(), (4, 4)).reshape(-1, 16)
    want = h.max(axis=1) - h.min(axis=1)
    got = stationary._window_range(g.grid2d())
    assert got.shape == (g.ny - 3, g.nx - 3)
    assert got.ravel().tobytes() == want.tobytes()
    # the flat windows are those the sweep skips
    flat = want <= stationary._FLAT_PATCH * g.field_range
    assert 0 < np.count_nonzero(flat) < flat.size
    patches = np.argwhere(flat.reshape(g.ny - 3, g.nx - 3)) + 1
    sr = sweep_full(g, default_kernel(KernelKind.GAUSSIAN))
    assert sr.flat_patches.tolist() == patches.tolist()


def to_patch_frame(g, position, i, j):
    """A raw point's position mapped back into the frame of its patch (i, j)."""
    return (position - g.origin) / [g.dx, g.dy] - [j - 1, i - 1]


@pytest.mark.parametrize("grid", ["f2-20x20", "skewed"])
def test_roots_respect_gradient_tolerance_and_domain(grid):
    g = sample(TestFunction.F2, 20, 20) if grid == "f2-20x20" else skewed_grid()
    sr = sweep_full(g, default_kernel(KernelKind.GAUSSIAN))
    # in the patch frame, in units of the field range, up to the rounding of
    # the map to the grid and back
    tol_g = _GRAD_TOL_REL / DIAG * (1 + 1e-6)
    assert len(sr.raw), "expected stationary points on the F2 sample"
    for x, (i, j) in zip(sr.raw, sr.raw_patch.tolist()):
        lo, hi = domain_bounds(g, i, j)
        xi = to_patch_frame(g, x, i, j)
        assert np.all((lo - 1e-12 <= xi) & (xi <= hi + 1e-12))
        interp = sr.interpolant(i, j)
        assert np.linalg.norm(interp.gradient(xi)) <= tol_g


def test_interpolant_range_check():
    g = sample(TestFunction.F2, 12, 12)
    sr = sweep_full(g, default_kernel(KernelKind.GAUSSIAN))
    for i, j in [(0, 1), (1, 0), (g.ny - 2, 1), (1, g.nx - 2)]:
        with pytest.raises(IndexError, match=rf"^patch \({i},{j}\) outside valid range$"):
            sr.interpolant(i, j)
        # in an array, the first patch outside is named
        with pytest.raises(IndexError, match=rf"^patch \({i},{j}\) outside valid range$"):
            sr.interpolant(np.array([1, i, 0]), np.array([1, j, 0]))
    sr.interpolant(g.ny - 3, g.nx - 3)  # the last valid patch


def test_stacked_interpolant_equals_each_patch():
    g = skewed_grid()
    sr = sweep_full(g, default_kernel(KernelKind.GAUSSIAN))
    i, j = np.array([1, 3, 1, g.ny - 3]), np.array([2, 1, 2, g.nx - 3])
    stacked = sr.interpolant(i, j)
    assert stacked.weights.shape == (4, 16) and stacked.constant.shape == (4,)
    x = np.array([[1.1, 1.2], [0.3, 2.9], [2.0, 0.5], [1.5, 1.5]])
    values, jac = stacked(x), stacked.gradient_jacobian(x)
    for r, (a, b) in enumerate(zip(i, j)):
        one = sr.interpolant(int(a), int(b))
        assert values[r] == one(x[r])
        np.testing.assert_array_equal(jac[r], one.gradient_jacobian(x[r]))


# --- sweep --------------------------------------------------------------------

def test_sweep_patch_counts():
    g4 = sample(TestFunction.F2, 4, 4)
    sr = sweep_full(g4, default_kernel(KernelKind.GAUSSIAN))
    assert sr.weights.shape == (1, 16)
    g20 = sample(TestFunction.F2, 20, 20)
    sr = sweep_full(g20, default_kernel(KernelKind.GAUSSIAN))
    assert sr.weights.shape == (17 * 17, 16)


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("nx, ny", [(20, 20), (23, 17)])
def test_weights_solved_in_blocks_equal_the_whole_grid_solve(threads, nx, ny, monkeypatch):
    # blocks of 7 patches split 17x17 = 289 and 20x14 = 280 patches
    # unevenly; each block gathers its windows from the grid, and the pool's
    # threads write their blocks' rows of one array, switching often
    monkeypatch.setattr(stationary, "_BLOCK_PATCHES", 7)
    g = sample(TestFunction.F2, nx, ny)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sr = sweep_full(g, default_kernel(KernelKind.GAUSSIAN), threads=threads)
    finally:
        sys.setswitchinterval(interval)
    h = np.lib.stride_tricks.sliding_window_view(g.grid2d(), (4, 4)).reshape(-1, 16)
    weights, constants = (np.asarray(x, dtype=float)
                          for x in sr.matrix.solve(h / g.field_range))
    np.testing.assert_array_equal(sr.weights, weights)
    np.testing.assert_array_equal(sr.constants, constants)


def skewed_grid():
    """f2's formula on a 13x10 grid with dx != dy and an off-center origin."""
    nx, ny, dx, dy, origin = 13, 10, 0.31, 0.43, (-1.7, -2.1)
    x = origin[0] + dx * np.arange(nx)
    y = origin[1] + dy * np.arange(ny)
    xx, yy = np.meshgrid(x, y)
    return GridField(nx=nx, ny=ny, dx=dx, dy=dy, origin=origin,
                     values=TestFunction.F2(xx, yy).ravel())


def f2_window(nx, ny, i0, j0):
    """The nx x ny nodes of f2 sampled at 30x30 from node row i0, column j0."""
    g = sample(TestFunction.F2, 30, 30)
    values = g.grid2d()[i0:i0 + ny, j0:j0 + nx]
    return GridField(nx=nx, ny=ny, dx=g.dx, dy=g.dy,
                     origin=(g.origin[0] + j0 * g.dx, g.origin[1] + i0 * g.dy),
                     values=values.ravel())


def narrow_grid(nx, ny):
    """nx x ny nodes of f2 sampled at 30x30, 4 wide along one axis and
    starting 5 nodes in along it: one patch spans that axis and touches both
    of its boundaries."""
    return f2_window(nx, ny, *((0, 5) if nx == 4 else (5, 0)))


def assert_same_raw(got, want):
    """Two sweeps gave the same raw points, bit for bit and in one order:
    their positions, patches and seed slots."""
    for name in ("raw", "raw_patch", "raw_seed"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


def check_block_invariance(g, block, threads, monkeypatch):
    """sweep_full in blocks of `block` patches on `threads` threads gives the
    raw points, bit for bit, and the seed counts of one block on one thread."""
    k = default_kernel(KernelKind.GAUSSIAN)
    monkeypatch.setattr(stationary, "_BLOCK_PATCHES", 10**6)
    ref = sweep_full(g, k, threads=1)
    monkeypatch.setattr(stationary, "_BLOCK_PATCHES", block)
    got = sweep_full(g, k, threads=threads)
    assert len(ref.raw)
    assert_same_raw(got, ref)
    assert got.seed_counts == ref.seed_counts
    assert got.seed_counts.iterations == ref.seed_counts.iterations > 0
    return ref


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("seeds", [3, 2, 4])
@pytest.mark.parametrize("grid", ["f2-12x12", "skewed"])
def test_sweep_equals_per_patch_search(grid, seeds, threads, monkeypatch):
    # blocks of one patch are the per-patch search
    g = sample(TestFunction.F2, 12, 12) if grid == "f2-12x12" else skewed_grid()
    monkeypatch.setattr(stationary, "_SEEDS", stationary._seed_lattice(seeds))
    sr = check_block_invariance(g, 1, threads, monkeypatch)
    searched = (g.nx - 3) * (g.ny - 3) - len(sr.flat_patches) - sr.seed_counts.excluded
    assert sr.seed_counts.launched == searched * seeds * seeds


def test_sweep_ordered_and_thread_invariant():
    g = sample(TestFunction.F2, 20, 20)
    k = default_kernel(KernelKind.GAUSSIAN)
    sr1 = sweep_full(g, k, threads=1)
    sr4 = sweep_full(g, k, threads=4)
    keys = list(zip(map(tuple, sr1.raw_patch.tolist()), sr1.raw_seed.tolist()))
    assert keys == sorted(keys)
    assert_same_raw(sr4, sr1)


def test_sweep_matches_dense_multistart_oracle():
    # reduced sweep output vs. 1000-start Newton on the analytic gradient
    tf = TestFunction.F2
    g = sample(tf, 20, 20)
    d = diag_step(g)
    sr = sweep_full(g, default_kernel(KernelKind.GAUSSIAN))
    reduced = reduce_points(sr.raw, sr.raw_patch, sr)
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


# --- gradient and Jacobian of RBF sums -------------------------------------------

def gradient_reference(x, weights, kernel):
    """The gradient as it was first written: offsets to the nodes ``_OFFS``
    as one (..., 16, 2) array."""
    diff = x[..., None, :] - _OFFS
    r = np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2)
    cpsi = weights * kernel.psi(r)
    return (cpsi * diff[..., 0]).sum(axis=-1), (cpsi * diff[..., 1]).sum(axis=-1)


def grad_jac_reference(x, weights, kernel):
    """``_grad_jac`` as it was first written: offsets to the nodes ``_OFFS``
    as one (..., 16, 2) array, and psi and eta from two kernel evaluations."""
    diff = x[..., None, :] - _OFFS
    r = np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2)
    cpsi = weights * kernel.psi(r)
    ceta = weights * kernel.eta(r)
    gx, gy = (cpsi * diff[..., 0]).sum(axis=-1), (cpsi * diff[..., 1]).sum(axis=-1)
    tr = cpsi.sum(axis=-1)
    jxx = (ceta * diff[..., 0] ** 2).sum(axis=-1) + tr
    jxy = (ceta * diff[..., 0] * diff[..., 1]).sum(axis=-1)
    jyy = (ceta * diff[..., 1] ** 2).sum(axis=-1) + tr
    return gx, gy, jxx, jxy, jyy


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def gradient_shapes(kind, seed):
    """(x, weights) in every layout the engine, the certifier and
    ``PatchInterpolant`` use, on one random patch with one point on a node."""
    k, w = random_patch(kind, 1.0, seed)
    rng = np.random.default_rng(seed)
    R = 7
    x = rng.uniform(0, 1, (R, 2)) * [2.1, 1.2]
    x[2] = _OFFS[5]  # r = 0: Wendland's eta takes its r = 0 branch
    ws = w * rng.uniform(0.5, 2.0, (R, 1))
    return k, [
        (x, ws),                     # the engine: per-seed weights; a stack, one point each
        (x, w),                      # one interpolant at many points
        (x[3], w),                   # one point, one patch
        (x[3], ws),                  # one point against a stack: weights broader than x
        (x[:, None, :], ws[None]),   # (R, R) broadcast
    ]


def assert_interpolant_keeps_the_bits(interp, x):
    """``.gradient`` and ``.gradient_jacobian`` of interp at x are the
    references' bits."""
    gx, gy, jxx, jxy, jyy = grad_jac_reference(x, interp.weights, interp.kernel)
    assert_same_bits([interp.gradient(x)], [np.stack(
        gradient_reference(x, interp.weights, interp.kernel), axis=-1)])
    assert_same_bits([interp.gradient_jacobian(x)], [np.stack(
        [np.stack([jxx, jxy], axis=-1), np.stack([jxy, jyy], axis=-1)], axis=-2)])


@pytest.mark.parametrize("kind", list(KernelKind))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grad_jac_and_gradient_keep_the_bits_of_the_reference(kind, seed):
    k, layouts = gradient_shapes(kind, seed)
    for x, weights in layouts:
        got = _grad_jac_rows(x, weights, k)
        assert_same_bits(got, grad_jac_reference(x, weights, k))
        assert_same_bits(got[:2], gradient_reference(x, weights, k))
        assert_interpolant_keeps_the_bits(PatchInterpolant(weights=weights, kernel=k), x)


@pytest.mark.parametrize("kind", list(KernelKind))
def test_interpolant_derivatives_keep_the_bits_of_the_reference(kind):
    k, w = random_patch(kind, 1.0, 5)
    rng = np.random.default_rng(5)
    ws = w * rng.uniform(0.5, 2.0, (4, 1))
    one = PatchInterpolant(weights=w, kernel=k)
    many = PatchInterpolant(weights=ws, kernel=k)
    for interp, x in ((one, rng.uniform(0, 1.5, 2)), (one, rng.uniform(0, 1.5, (9, 2))),
                      (many, rng.uniform(0, 1.5, 2)), (many, rng.uniform(0, 1.5, (4, 2)))):
        assert_interpolant_keeps_the_bits(interp, x)


def test_grad_jac_leaves_its_arguments_unchanged():
    k, layouts = gradient_shapes(KernelKind.GAUSSIAN, 3)
    for x, weights in layouts:
        _, *args = _node_major(x, weights)
        before = [a.copy() for a in args]
        _grad_jac(*args, k)
        for a, b in zip(args, before):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("kind", list(KernelKind))
@pytest.mark.parametrize("n", [1, patch._SLICE - 1, patch._SLICE + 1, 5000])
def test_grad_jac_of_owners_keeps_the_bits_of_per_point_weights(kind, n):
    # N points of 37 patches, read through their owners or from one
    # column of weights per point
    rng = np.random.default_rng(n)
    k = default_kernel(kind)
    weights = np.stack([random_patch(kind, 1.0, seed)[1] for seed in range(37)])
    owner = rng.integers(0, len(weights), n)
    x = rng.uniform(0, 3, (n, 2))
    x[0] = _OFFS[5]  # r = 0: Wendland's eta takes its r = 0 branch
    px, py = x[:, 0].copy(), x[:, 1].copy()
    got = _grad_jac(px, py, np.ascontiguousarray(weights.T), owner, k)
    columns = np.ascontiguousarray(weights.take(owner, axis=0).T)
    assert_same_bits(got, _grad_jac(px, py, columns, np.arange(n), k))
    assert_same_bits(got, grad_jac_reference(x, weights.take(owner, axis=0), k))


def hard_rows(rng, n):
    """(n, 16) rows that are hard to sum: magnitudes from 1e-40 to 1e40,
    exact and near cancellation, zeros of both signs, infinities of both
    signs, NaN and overflow.

    No row holds both NaN and infinities: inf - inf makes a NaN whose sign
    differs from np.nan's, and IEEE 754 leaves open which of two NaNs an
    addition returns.  numpy's compiled sum adds r_3 + r_2 where the
    written-out order has r_2 + r_3, and only such a pair of NaNs shows it.
    """
    a = rng.standard_normal((n, 16)) * 10.0 ** rng.integers(-40, 41, (n, 16))
    q = np.array_split(np.arange(n), 6)
    # exact cancellation: the last 8 terms are the first 8 negated, reordered
    perm = rng.permuted(np.tile(np.arange(8), (q[0].size, 1)), axis=1)
    a[q[0], 8:] = -np.take_along_axis(a[q[0], :8], perm, axis=1)
    # near cancellation: the same, off by a few ulps
    perm = rng.permuted(np.tile(np.arange(8), (q[1].size, 1)), axis=1)
    ulps = 1.0 + rng.integers(-3, 4, (q[1].size, 8)) * 2.0 ** -52
    a[q[1], 8:] = -np.take_along_axis(a[q[1], :8], perm, axis=1) * ulps
    # zeros of both signs, alone or among tiny terms
    a[q[2]] = rng.choice([0.0, -0.0, 5e-324, -5e-324], (q[2].size, 16), p=[.45, .45, .05, .05])
    a[q[2][:3]] = -0.0
    # infinities of both signs at random places, and NaN in other rows
    for rows, special in ((q[3], [np.inf, -np.inf]), (q[4], [np.nan])):
        a[rows] = np.where(rng.random((rows.size, 16)) < 0.1,
                           rng.choice(special, (rows.size, 16)), a[rows])
    # overflow of a finite sum
    a[q[5]] = rng.choice([-1.0, 1.0], (q[5].size, 16)) * np.finfo(float).max
    return a


def test_gradient_sums_keep_the_bits_of_numpy_sum():
    # the one 16-term sum is numpy's sum of the same terms laid out (N, 16),
    # byte for byte, in the (16, N) layout, in (16, A, B) and written to out
    rng = np.random.default_rng(21)
    a = hard_rows(rng, 120_000)
    with np.errstate(all="ignore"):
        want = a.sum(axis=-1)
        got = _gradient_sums(np.ascontiguousarray(a.T))
        assert got.tobytes() == want.tobytes()
        got = _gradient_sums(np.ascontiguousarray(a.T).reshape(16, 300, 400))
        assert got.tobytes() == want.reshape(300, 400).tobytes()
        out = np.full((400, 300), 7.0)
        _gradient_sums(np.ascontiguousarray(a.T).reshape(16, 300, 400), out=out.T)
        assert np.ascontiguousarray(out.T).tobytes() == want.reshape(300, 400).tobytes()
    assert np.isnan(want).any() and np.isinf(want).any()
    # numpy's identity, 0.0, turns a sum of -0.0 into 0.0
    assert (want == 0).sum() > 3 and not np.signbit(want[want == 0]).any()


# --- Newton seed retirement -----------------------------------------------------

def newton_full_cap(seeds, weights, kernel, bbox_lo, bbox_hi, cap):
    """The Newton loop without retirement of stuck seeds: every seed that
    neither converges nor hits a singular Jacobian runs all `cap` iterations."""
    x = np.array(seeds, dtype=float)
    n = x.shape[0]
    alive = np.ones(n, dtype=bool)
    converged = np.zeros(n, dtype=bool)
    step_tol = _STEP_TOL * DIAG
    for _ in range(cap):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        gx, gy, jxx, jxy, jyy = _grad_jac_rows(x[idx], weights[idx], kernel)
        det = jxx * jyy - jxy * jxy
        frob2 = jxx * jxx + 2.0 * jxy * jxy + jyy * jyy
        ok = (frob2 > 0) & np.isfinite(det) & (np.abs(det) >= _SINGULAR_DET * frob2)
        alive[idx[~ok]] = False
        idx = idx[ok]
        if idx.size == 0:
            break
        det = det[ok]
        sx = (jyy[ok] * gx[ok] - jxy[ok] * gy[ok]) / det
        sy = (jxx[ok] * gy[ok] - jxy[ok] * gx[ok]) / det
        x[idx, 0] = np.minimum(np.maximum(x[idx, 0] - sx, bbox_lo[idx, 0]), bbox_hi[idx, 0])
        x[idx, 1] = np.minimum(np.maximum(x[idx, 1] - sy, bbox_lo[idx, 1]), bbox_hi[idx, 1])
        done = np.sqrt(sx * sx + sy * sy) <= step_tol
        converged[idx[done]] = True
        alive[idx[done]] = False
    return x, converged


def full_cap_roots(seeds, owner, weights, kernel, cap):
    """``newton_full_cap`` on the per-seed arrays made from the engine's
    inputs, weights (16, P): the converged seed indices and their positions."""
    n = len(owner)
    x, converged = newton_full_cap(seeds, weights.T[owner], kernel, np.zeros((n, 2)),
                                   np.full((n, 2), 3.0), cap)
    idx = np.flatnonzero(converged)
    return idx, x[idx]


def assert_same_roots(got, want):
    (idx, pos), (ref_idx, ref_pos) = got, want
    np.testing.assert_array_equal(idx, ref_idx)
    np.testing.assert_array_equal(pos, ref_pos)


def captured_engine_runs(monkeypatch, g, kind):
    """Sweep g once, returning the inputs and outputs of every engine call."""
    calls = []
    engine = stationary._newton_seeds

    def capture(*args):
        out = engine(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(stationary, "_newton_seeds", capture)
    sweep_full(g, default_kernel(kind))
    monkeypatch.setattr(stationary, "_newton_seeds", engine)
    return calls


@pytest.mark.parametrize("kind", list(KernelKind))
@pytest.mark.parametrize("fn", [TestFunction.F2, TestFunction.F14])
def test_retiring_stuck_seeds_changes_nothing(fn, kind, monkeypatch):
    # rerun the engine's real inputs during a sweep without retirement
    [(args, (idx, pos, counts))] = captured_engine_runs(monkeypatch, sample(fn, 20, 20), kind)
    assert counts.stuck > 0
    assert counts.converged == idx.size > 0
    assert_same_roots((idx, pos), full_cap_roots(*args, stationary._MAX_ITERATIONS))


def test_seed_clamped_to_bbox_corner_retires_at_once(monkeypatch):
    # a bowl centered far beyond the patch: Newton from the patch's far
    # corner steps outward in both coordinates and is clamped back onto it
    h = (_OFFS[:, 0] - 10.0) ** 2 + (_OFFS[:, 1] - 10.0) ** 2
    k = default_kernel(KernelKind.GAUSSIAN)
    weights = np.asarray(PatchMatrix(k).solve(h)[0], float)
    args = (np.array([[3.0, 3.0]]), np.array([0]), weights[:, None], k)
    evaluations = []

    def counting(*a):
        evaluations.append(a[0].shape[0])
        return _grad_jac(*a)

    monkeypatch.setattr(stationary, "_grad_jac", counting)
    idx, pos, counts = stationary._newton_seeds(*args)
    assert evaluations == [1]
    assert counts == SeedCounts(launched=1, stuck=1)
    assert idx.size == 0 and pos.shape == (0, 2)
    assert_same_roots((idx, pos), full_cap_roots(*args, stationary._MAX_ITERATIONS))


def test_singular_seeds_leave_at_their_first_evaluation():
    # four patches with interleaved seeds: 0 has zero weights, so a zero
    # Jacobian everywhere; 1 has one unit weight at center (0, 1), and its
    # seed sits at the Gaussian's inflection radius along x, where the
    # Jacobian is rank-deficient; 2 is a bump whose seeds converge; 3 is a
    # bowl centered far beyond the patch, whose corner seed is stuck at once.
    k = Kernel(KernelKind.GAUSSIAN, alpha=1 / (2 * math.sqrt(2)))
    m = PatchMatrix(k)
    unit = np.zeros(16)
    unit[4] = 1.0
    bump = m.solve(-(_OFFS[:, 0] - 1.5) ** 2 - (_OFFS[:, 1] - 1.2) ** 2)[0]
    bowl = m.solve((_OFFS[:, 0] - 10.0) ** 2 + (_OFFS[:, 1] - 10.0) ** 2)[0]
    weights = np.column_stack([np.zeros(16), unit, np.asarray(bump, float),
                               np.asarray(bowl, float)])
    lattice = [[x, y] for y in (0.6, 1.4, 2.2) for x in (0.7, 1.6, 2.4)]
    inflection = _OFFS[4] + [1 / (k.alpha * math.sqrt(2)), 0.0]
    seeds = np.array([lattice[0], [1.0, 1.0], lattice[1], inflection, *lattice[2:5],
                      [2.5, 0.5], [3.0, 3.0], *lattice[5:], [0.2, 2.9]])
    owner = np.array([2, 0, 2, 1, 2, 2, 2, 0, 3, 2, 2, 2, 2, 0])
    args = (seeds, owner, weights, k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        idx, pos, counts = stationary._newton_seeds(*args)
    assert counts == SeedCounts(launched=14, converged=9, singular=4, stuck=1)
    assert set(owner[idx]) == {2}
    assert_same_roots((idx, pos), full_cap_roots(*args, stationary._MAX_ITERATIONS))
    # without the singular seeds the others run exactly as before: the
    # compaction kept each live seed's index, patch, position and ring
    keep = np.flatnonzero(owner >= 2)
    rest_idx, rest_pos, rest = stationary._newton_seeds(seeds[keep], owner[keep], *args[2:])
    assert_same_roots((keep[rest_idx], rest_pos), (idx, pos))
    assert rest == SeedCounts(launched=10, converged=9, stuck=1)
    assert counts.iterations - rest.iterations == 4


def test_sweep_memory_is_bounded_by_its_blocks():
    # tracemalloc's peak over the sweep of f13 at 120x120 on one thread was
    # 9.97 MB (2^20 bytes) on numpy 2.4.6, and 15.85 MB while the sweep
    # held every window's samples and a weight column per Newton seed; the
    # bound leaves 1.53 MB of headroom
    g = sample(TestFunction.F13, 120, 120)
    k = default_kernel(KernelKind.GAUSSIAN)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        sweep_full(g, k, threads=1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 11.5 * 2 ** 20


def test_seed_counts_add_up_and_do_not_depend_on_threads():
    # f14, not f2: every seed launched on f2 at 30x30 converges
    g = sample(TestFunction.F14, 30, 30)
    k = default_kernel(KernelKind.GAUSSIAN)
    sr = sweep_full(g, k, threads=1)
    one = sr.seed_counts
    two = sweep_full(g, k, threads=2).seed_counts
    assert one == two
    assert 0 < one.excluded < (g.nx - 3) * (g.ny - 3)
    assert one.launched == ((g.nx - 3) * (g.ny - 3) - len(sr.flat_patches) - one.excluded) * 9
    assert one.converged + one.singular + one.stuck + one.capped == one.launched
    assert one.stuck > 0
    assert one.converged > 0


@pytest.mark.parametrize("kind", list(KernelKind))
@pytest.mark.parametrize("fn", [TestFunction.F2, TestFunction.F14])
def test_retiring_seeds_on_short_cycles_changes_nothing(fn, kind, monkeypatch):
    # a ring of one position retires fixed points only; the default ring
    # also retires orbits of period up to _CYCLE, and both equal the full cap.
    # At 18x18 every case has seeds on orbits of period 2 to _CYCLE
    g = sample(fn, 18, 18)
    stuck = {}
    for cycle in (1, stationary._CYCLE):
        monkeypatch.setattr(stationary, "_CYCLE", cycle)
        [(args, (idx, pos, counts))] = captured_engine_runs(monkeypatch, g, kind)
        assert_same_roots((idx, pos), full_cap_roots(*args, stationary._MAX_ITERATIONS))
        stuck[cycle] = counts.stuck
    assert stuck[stationary._CYCLE] > stuck[1]


@pytest.mark.parametrize("cap", range(23, 33))
def test_seed_on_a_cycle_returns_its_orbit_point_at_the_cap(cap, monkeypatch):
    # caps of every residue mod _CYCLE: whatever phase of its orbit a stuck
    # seed would be in at the cap, retiring it leaves the converged seeds
    # and their positions those of the full-cap loop
    g = sample(TestFunction.F2, 20, 20)
    [(args, _)] = captured_engine_runs(monkeypatch, g, KernelKind.INVERSE_QUADRIC)
    monkeypatch.setattr(stationary, "_MAX_ITERATIONS", cap)
    idx, pos, counts = stationary._newton_seeds(*args)
    assert_same_roots((idx, pos), full_cap_roots(*args, cap))
    assert counts.stuck > 0 and counts.capped > 0
    # one more iteration evaluates exactly the seeds live at the cap
    monkeypatch.setattr(stationary, "_MAX_ITERATIONS", cap + 1)
    assert stationary._newton_seeds(*args)[2].iterations == counts.iterations + counts.capped


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("block", [1, 7, 10**6])
@pytest.mark.parametrize("grid", ["f2-20x20", "skewed", "f2-4x30"])
def test_sweep_does_not_depend_on_block_size(grid, block, threads, monkeypatch):
    g = {"f2-20x20": lambda: sample(TestFunction.F2, 20, 20), "skewed": skewed_grid,
         "f2-4x30": lambda: narrow_grid(4, 30)}[grid]()
    check_block_invariance(g, block, threads, monkeypatch)


# --- in-patch duplicates ---------------------------------------------------------

def search_reference(code, weights, kernel, ns):
    """``_search`` with its in-patch dedup as the per-root loop it was first
    written as, with an ns x ns seed lattice laid in each patch's domain,
    on weights (16, P): the kept roots as (patch, seed slot, position) and
    the number of accepted roots."""
    lo, hi = _DOMAINS[code, 0], _DOMAINS[code, 1]
    nseed = ns * ns
    t = np.arange(1, ns + 1) / (ns + 1)
    fx = lo[:, 0, None] + (hi[:, 0] - lo[:, 0])[:, None] * t
    fy = lo[:, 1, None] + (hi[:, 1] - lo[:, 1])[:, None] * t
    seeds = np.stack([np.tile(fx, ns), np.repeat(fy, ns, axis=1)], axis=-1)
    owner = np.repeat(np.arange(len(lo)), nseed)
    idx, pos, _ = stationary._newton_seeds(seeds.reshape(-1, 2), owner, weights, kernel)
    k = owner[idx]
    gx, gy = gradient_reference(pos, weights.T[k], kernel)
    inside = np.all((pos >= lo[k]) & (pos <= hi[k]), axis=-1)
    acc = inside & (np.sqrt(gx * gx + gy * gy) <= _GRAD_TOL_REL / stationary.DIAG)
    min_sep = stationary._DEDUP_RADIUS * stationary.DIAG
    out = []
    keep = []
    prev = -1
    for seed, p in zip(idx[acc], pos[acc]):
        pk, si = divmod(int(seed), nseed)
        if pk != prev:
            keep, prev = [], pk
        if all(np.hypot(p[0] - q[0], p[1] - q[1]) > min_sep for q in keep):
            keep.append(p)
            out.append((pk, si, p))
    return out, int(np.count_nonzero(acc))


def assert_same_search(got, want):
    """``_search``'s kept roots equal the reference's (patch, slot, position)."""
    k, slot, xi = got
    assert len(k) == len(want)
    for a, b, p, (wk, ws, wp) in zip(k.tolist(), slot.tolist(), xi, want):
        assert (a, b) == (wk, ws)
        np.testing.assert_array_equal(p, wp)


def captured_searches(monkeypatch, g, kind):
    """Sweep g once, returning the inputs and kept roots of every search."""
    calls = []
    search = stationary._search

    def capture(*args):
        out = search(*args)
        calls.append((args, out[0]))
        return out

    monkeypatch.setattr(stationary, "_search", capture)
    sweep_full(g, default_kernel(kind))
    monkeypatch.setattr(stationary, "_search", search)
    return calls


@pytest.mark.parametrize("kind", list(KernelKind))
@pytest.mark.parametrize("grid", ["F11-24", "F13-40", "F14-32", "skewed"])
def test_search_dedup_matches_the_per_root_loop(grid, kind, monkeypatch):
    if grid == "skewed":
        g = skewed_grid()
    else:
        fn, n = grid.split("-")
        g = sample(TestFunction[fn], int(n), int(n))
    accepted = kept = 0
    for args, got in captured_searches(monkeypatch, g, kind):
        want, n_acc = search_reference(*args, stationary._SEEDS_PER_AXIS)
        assert_same_search(got, want)
        accepted, kept = accepted + n_acc, kept + len(want)
    assert accepted > kept > 0


def test_roots_exactly_the_dedup_radius_apart_are_one_root(monkeypatch):
    # with a unit index diagonal min_sep = 5 * 2^-12 exactly, and every
    # offset below is exact: in patch
    # 0 slot 1 is min_sep from slot 0 along x and slot 2 along a 3-4-5
    # diagonal, and both are dropped; slot 4 and slot 5, one ulp of 1 beyond
    # min_sep, are kept.  In patch 1 slot 0 lies outside the domain, so it
    # does not hide slot 3, 2^-11 from it; slot 5 is min_sep from slot 3.
    sep = 5 * 2.0 ** -12
    monkeypatch.setattr(stationary, "DIAG", 1.0)
    monkeypatch.setattr(stationary, "_DEDUP_RADIUS", sep)
    u = 2.0 ** -12
    roots = {0: (1.0, 1.0), 1: (1.0 + sep, 1.0), 2: (1.0 + 3 * u, 1.0 + 4 * u),
             4: (1.0 + 16 * u, 1.0), 5: (1.0 + sep + 2.0 ** -52, 1.0),
             9: (0.5 - u, 1.0), 12: (0.5 + u, 1.0), 14: (0.5 + u + sep, 1.0)}
    idx = np.array(list(roots))
    pos = np.array(list(roots.values()))

    def engine(seeds, owner, *rest):
        return idx, pos, SeedCounts(launched=len(owner), converged=idx.size)

    monkeypatch.setattr(stationary, "_newton_seeds", engine)
    # domain code 0: [0.5, 2.5]^2
    args = (np.zeros(2, dtype=int), np.zeros((16, 2)), default_kernel(KernelKind.GAUSSIAN))
    got, _ = stationary._search(*args)
    assert list(zip(got[0].tolist(), got[1].tolist())) == [(0, 0), (0, 4), (0, 5), (1, 3)]
    assert_same_search(got, search_reference(*args, stationary._SEEDS_PER_AXIS)[0])


# --- certified exclusion of root-free patches ---------------------------------

def certifier_inputs(g, kernel):
    """The inputs ``sweep_full`` gives ``_certify`` for every patch of g, in
    the patch frame: the weights node-major, (16, P)."""
    sr = sweep_full(g, kernel)
    ii, jj = np.divmod(np.arange(sr.weights.shape[0]), g.nx - 3)
    tables = stationary._level_tables(kernel)
    weights = np.ascontiguousarray(sr.weights.T)
    return (_domain_code(g, ii + 1, jj + 1), weights, sr.matrix.entries, tables, kernel), sr


def random_patch(kind, scale, seed):
    """Kernel at `scale` times its default alpha and the float64 weights of
    a patch interpolating uniform random values."""
    k = default_kernel(kind, scale)
    h = np.random.default_rng(seed).uniform(-1, 1, 16)
    return k, np.asarray(PatchMatrix(k).solve(h)[0], float)


def gradient_extended(x, weights, kind, alpha):
    """The gradient of the RBF sum at points x (n,2), evaluated in extended
    precision from the float64 nodes ``_OFFS`` and weights."""
    ld = np.longdouble
    diff = np.asarray(x, ld)[:, None, :] - np.asarray(_OFFS, ld)
    u = ld(alpha) * np.sqrt((diff * diff).sum(axis=-1))
    a2 = ld(alpha) * ld(alpha)
    if kind is KernelKind.GAUSSIAN:
        psi = -2 * a2 * np.exp(-(u * u))
    elif kind is KernelKind.INVERSE_QUADRIC:
        psi = -2 * a2 / (1 + u * u) ** 2
    else:
        psi = -20 * a2 * np.maximum(1 - u, 0) ** 3
    return ((np.asarray(weights, ld) * psi)[..., None] * diff).sum(axis=1)


def kernel_matrix_extended(kind, alpha):
    """The kernel matrix of the float64 nodes ``_OFFS`` in extended precision."""
    ld = np.longdouble
    c = np.asarray(_OFFS, ld)
    diff = c[:, None, :] - c[None, :, :]
    u = ld(alpha) * np.sqrt((diff * diff).sum(axis=-1))
    if kind is KernelKind.GAUSSIAN:
        return np.exp(-(u * u))
    if kind is KernelKind.INVERSE_QUADRIC:
        return 1 / (1 + u * u)
    return np.maximum(1 - u, 0) ** 4 * (4 * u + 1)


# shape parameters from a quarter to 8 times the default
scales = st.floats(0.25, 8.0)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(list(KernelKind)), scale=scales, seed=st.integers(0, 2**32 - 1))
def test_gradient_modulus_bounds_gradient_differences(kind, scale, seed):
    # |grad s(x) - grad s(y)| <= N G^(|x - y|) for computed gradients, up to
    # their rounding eps at each end, on pairs from 1e-9 d apart to across the box
    k, weights = random_patch(kind, scale, seed)
    norm = stationary._native_norm(weights[:, None], PatchMatrix(k).entries, k.alpha)[0]
    eps = stationary._gradient_rounding(weights[:, None], k)[0]
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 3, (200, 2))
    step = DIAG * 10.0 ** rng.uniform(-9, 0.5, 200)
    angle = rng.uniform(0, 2 * math.pi, 200)
    y = np.clip(x + step[:, None] * np.stack([np.cos(angle), np.sin(angle)], -1), 0, 3)
    gx, gy, *_ = _grad_jac_rows(np.vstack([x, y]), weights, k)
    diff = np.hypot(gx[:200] - gx[200:], gy[:200] - gy[200:])
    rho = np.hypot(*(x - y).T)
    assert np.all(diff <= norm * stationary._gradient_modulus(k, rho) + 2 * eps)


@pytest.mark.parametrize("kind", list(KernelKind))
def test_gradient_modulus_is_the_running_maximum_of_the_modulus(kind):
    # G^(r) bounds G(rho) for every rho <= r, beyond the peak r* too, and is
    # not much larger; the peak of G lies where _MODULUS_PEAK puts it
    k = Kernel(kind, 2.0)
    rho = np.linspace(0.0, 3.0 / k.alpha, 30001)
    g2 = 2.0 * (2.0 * k.psi(rho) + k.eta(rho) * rho * rho - 2.0 * k.psi(0.0))
    running = np.sqrt(np.maximum.accumulate(np.maximum(g2, 0.0)))
    bound = stationary._gradient_modulus(k, rho)
    assert np.all(bound >= running)
    np.testing.assert_allclose(bound, running, rtol=1e-9, atol=1e-5 * k.alpha)
    peak = stationary._MODULUS_PEAK[kind] / k.alpha
    assert abs(rho[np.argmax(g2)] - peak) <= rho[1]


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(list(KernelKind)), scale=scales, seed=st.integers(0, 2**32 - 1))
def test_certificate_margins_cover_the_rounding(kind, scale, seed):
    # eps bounds the rounding of computed gradients and their norms
    # anywhere in the patch's box, and N bounds the native-space norm of the
    # RBF sum at the float64 nodes, summed in extended precision
    k, weights = random_patch(kind, scale, seed)
    eps = stationary._gradient_rounding(weights[:, None], k)[0]
    x = np.random.default_rng(seed).uniform(0, 3, (300, 2))
    gx, gy, *_ = _grad_jac_rows(x, weights, k)
    ref = gradient_extended(x, weights, kind, k.alpha)
    assert np.all(np.abs(gx - ref[:, 0]) <= eps)
    assert np.all(np.abs(gy - ref[:, 1]) <= eps)
    assert np.all(np.abs(np.sqrt(gx * gx + gy * gy) - np.hypot(*ref.T)) <= eps)
    norm = stationary._native_norm(weights[:, None], PatchMatrix(k).entries, k.alpha)[0]
    w = np.asarray(weights, np.longdouble)
    assert norm ** 2 >= w @ kernel_matrix_extended(kind, k.alpha) @ w


def test_native_norm_does_not_depend_on_the_block():
    # each patch's bound is the same alone, in blocks of 7 and in the whole grid
    g = sample(TestFunction.F13, 24, 24)
    (_, weights, entries, _, k), _ = certifier_inputs(g, default_kernel(KernelKind.GAUSSIAN))
    whole = stationary._native_norm(weights, entries, k.alpha)
    for step in (1, 7):
        parts = [stationary._native_norm(weights[:, p0:p0 + step], entries, k.alpha)
                 for p0 in range(0, weights.shape[1], step)]
        np.testing.assert_array_equal(np.concatenate(parts), whole)


def native_norm_rows(rows, entries, alpha):
    """``_native_norm`` as it was written for row-major weights (P, 16)."""
    q = (rows * np.einsum("pj,ij->pi", rows, entries)).sum(axis=-1)
    delta = 2.0 ** -51 * stationary._BOX_DIAMETER
    l1 = np.abs(rows).sum(axis=-1)
    margin = l1 * l1 * (stationary._MARGIN + 3.0 * alpha * delta)
    return np.sqrt(np.maximum(q, 0.0) + margin) * (1.0 + stationary._MARGIN)


def gradient_rounding_rows(rows, kernel):
    """``_gradient_rounding`` as it was written for row-major weights (P, 16)."""
    return (stationary._MARGIN * np.abs(rows).sum(axis=-1) * abs(kernel.psi(0.0))
            * stationary._BOX_DIAMETER)


@pytest.mark.parametrize("kind", list(KernelKind))
@pytest.mark.parametrize("npatch", [1, 7, 2049])
def test_certificate_bounds_of_node_major_weights_keep_the_row_major_bits(kind, npatch):
    # N and eps of a block's node-major weights (16, P) are the bits of the
    # formulas on the same weights as C-contiguous rows (P, 16), the block
    # the sweep once gathered, one patch included
    k = default_kernel(kind)
    rng = np.random.default_rng(npatch)
    h = rng.uniform(-1, 1, (npatch, 16)) * 10.0 ** rng.uniform(-3, 3, (npatch, 1))
    matrix = PatchMatrix(k)
    rows = np.ascontiguousarray(matrix.solve(h)[0])
    weights = np.ascontiguousarray(rows.T)
    assert_same_bits([stationary._native_norm(weights, matrix.entries, k.alpha),
                      stationary._gradient_rounding(weights, k)],
                     [native_norm_rows(rows, matrix.entries, k.alpha),
                      gradient_rounding_rows(rows, k)])


def test_certificate_charges_its_rounding_margin(monkeypatch):
    # an unbounded gradient rounding certifies nothing
    g = sample(TestFunction.F2, 20, 20)
    k = default_kernel(KernelKind.GAUSSIAN)
    assert sweep_full(g, k).seed_counts.excluded > 0
    monkeypatch.setattr(stationary, "_gradient_rounding",
                        lambda weights, kernel: np.full(weights.shape[1], np.inf))
    assert sweep_full(g, k).seed_counts.excluded == 0


def test_a_nan_bound_certifies_nothing(monkeypatch):
    # a sub-box is certified only where slack > bound holds, which a NaN
    # bound never does
    g = sample(TestFunction.F2, 20, 20)
    k = default_kernel(KernelKind.GAUSSIAN)
    monkeypatch.setattr(stationary, "_gradient_modulus",
                        lambda kernel, r: np.full(np.shape(r), np.nan))
    sr = sweep_full(g, k)
    assert sr.seed_counts.excluded == 0
    assert sr.seed_counts.launched == 9 * 17 * 17


# SeedCounts of sweeps at 24x24, every field, iterations included; the
# reports cannot show a changed certifier decision, these counts can
PINNED_SEED_COUNTS = {
    ("F1", KernelKind.WENDLAND31, 1.0): (630, 325, 0, 242, 63, 371, 5201),
    ("F1", KernelKind.WENDLAND31, 3.0): (3663, 408, 0, 2934, 321, 34, 37993),
    ("F2", KernelKind.GAUSSIAN, 1.0): (1944, 1884, 0, 60, 0, 225, 9016),
}


@pytest.mark.parametrize("fn, kind, scale", list(PINNED_SEED_COUNTS))
def test_seed_counts_are_pinned(fn, kind, scale):
    sr = sweep_full(sample(TestFunction[fn], 24, 24), default_kernel(kind, scale))
    assert astuple(sr.seed_counts) == PINNED_SEED_COUNTS[fn, kind, scale]


@pytest.mark.parametrize("kind", list(KernelKind))
@pytest.mark.parametrize("fn, scale", [(TestFunction.F2, 1.0), (TestFunction.F13, 1.0),
                                       (TestFunction.F14, 1.0), (TestFunction.F1, 2.0)])
def test_certified_patches_have_no_small_gradient(fn, scale, kind):
    # in every excluded patch the computed |grad s| exceeds tol_g on a 33x33
    # lattice of its domain and where a dense multistart ends in it
    g = sample(fn, 24, 24)
    k = default_kernel(kind, scale)
    args, sr = certifier_inputs(g, k)
    code, weights, *_ = args
    rows = weights.T
    lo, hi = _DOMAINS[code, 0], _DOMAINS[code, 1]
    tol_g = _GRAD_TOL_REL / DIAG
    root_free = np.flatnonzero(stationary._certify(*args))
    assert root_free.size == sr.seed_counts.excluded > 0
    t = np.linspace(0.0, 1.0, 33)
    lattice = np.stack(np.meshgrid(t, t), -1).reshape(-1, 2)
    t = np.arange(1, 11) / 11
    starts = np.stack(np.meshgrid(t, t), -1).reshape(-1, 2)
    for p in np.array_split(root_free, -(-root_free.size // 64)):
        x = lo[p, None] + (hi[p] - lo[p])[:, None] * lattice
        gx, gy, *_ = _grad_jac_rows(x, rows[p, None], k)
        assert np.all(np.sqrt(gx * gx + gy * gy) > tol_g)
        seeds = (lo[p, None] + (hi[p] - lo[p])[:, None] * starts).reshape(-1, 2)
        owner = np.repeat(np.arange(p.size), len(starts))
        idx, pos, _ = stationary._newton_seeds(seeds, owner, weights.take(p, axis=1), k)
        q = p[owner[idx]]
        gx, gy, *_ = _grad_jac_rows(pos, rows[q], k)
        inside = np.all((pos >= lo[q]) & (pos <= hi[q]), axis=-1)
        assert np.all(np.sqrt(gx * gx + gy * gy)[inside] > tol_g)


def certify_reference(code, weights, entries, tables, kernel):
    """``_certify`` as one kernel evaluation (``_grad_jac``) per pending
    sub-box, the way it was first written, with each patch's own bounds;
    weights is (16, P) and tables is not used."""
    lo, hi = _DOMAINS[code, 0], _DOMAINS[code, 1]
    npatch = len(code)
    tol_g = _GRAD_TOL_REL / DIAG
    norm = stationary._native_norm(weights, entries, kernel.alpha)
    eps = stationary._gradient_rounding(weights, kernel)
    modulus = stationary._gradient_modulus
    quarters = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])
    failed = np.zeros(npatch, dtype=bool)
    k = np.repeat(np.arange(npatch), 4)
    cells = np.tile(quarters, (npatch, 1))
    chunk = 9 * stationary._BLOCK_PATCHES
    for level in range(1, stationary._CERTIFY_DEPTH + 1):
        keep = ~failed[k]
        k, cells = k[keep], cells[keep]
        if k.size == 0:
            break
        side = float(2 ** level)
        finest = 2.0 ** (level - stationary._CERTIFY_DEPTH)
        split = []
        for c0 in range(0, k.size, chunk):
            kc, cc = k[c0:c0 + chunk], cells[c0:c0 + chunk]
            blo, bhi = lo[kc], hi[kc]
            a = blo + (bhi - blo) * (cc / side)
            t = (cc + 1) / side
            b = np.where(t == 1.0, bhi, blo + (bhi - blo) * t)
            x0 = (a + b) * 0.5
            half = np.maximum(x0 - a, b - x0)
            r = np.hypot(half[:, 0], half[:, 1]) * (1.0 + stationary._MARGIN)
            gx, gy, *_ = _grad_jac_rows(x0, weights.T[kc], kernel)
            slack = np.sqrt(gx * gx + gy * gy) - eps[kc] - tol_g - eps[kc]
            split.append(np.flatnonzero(~(slack > norm[kc] * modulus(kernel, r))) + c0)
            failed[kc[~(slack > norm[kc] * modulus(kernel, r * finest))]] = True
        split = np.concatenate(split)
        k = np.repeat(k[split], 4)
        cells = (2 * cells[split, None, :] + quarters).reshape(-1, 2)
    return ~failed


REFERENCE_CASES = [
    *((fn, kind, 1.0, None) for fn in ("F1", "F2", "F13") for kind in KernelKind),
    *((grid, kind, 1.0, None) for grid in ("skewed", "f2-4x30", "f2-30x4")
      for kind in KernelKind),
    # one patch on a 4x4 grid: domain code 15, the only one touching all
    # four boundaries
    *(("f2-4x4", kind, 1.0, None) for kind in KernelKind),
    # the finest-level exit ends most patches early
    ("F1", KernelKind.WENDLAND31, 3.0, None),
    # chunks of one sub-box split the sub-boxes of one domain and cell
    ("F2", KernelKind.GAUSSIAN, 1.0, 1),
    # one block of 2,209 patches: code 0 is one product 2,209 patches wide
    ("F2@50", KernelKind.GAUSSIAN, 1.0, 10**6),
]


def reference_grid(grid):
    """The grid a ``REFERENCE_CASES`` entry names."""
    if grid == "skewed":
        return skewed_grid()
    if grid == "f2-4x4":
        return f2_window(4, 4, 1, 1)  # certified root-free with every kernel
    if grid.startswith("f2-"):
        return narrow_grid(*map(int, grid[3:].split("x")))
    if grid == "F2@50":
        return sample(TestFunction.F2, 50, 50)
    return sample(TestFunction[grid], 24, 24)


@pytest.mark.parametrize("grid, kind, scale, block", REFERENCE_CASES)
def test_certify_matches_the_per_sub_box_reference(grid, kind, scale, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(stationary, "_BLOCK_PATCHES", block)
    args, _ = certifier_inputs(reference_grid(grid), default_kernel(kind, scale))
    got = stationary._certify(*args)
    np.testing.assert_array_equal(got, certify_reference(*args))
    # on the small skewed grid every patch holds a root
    assert got.any() == (grid != "skewed")


@pytest.mark.parametrize("grid, kind, scale, block", REFERENCE_CASES)
def test_certify_without_the_screen_decides_alike(grid, kind, scale, block, monkeypatch):
    # an infinite screen margin sends every sub-box down the exact path
    if block is not None:
        monkeypatch.setattr(stationary, "_BLOCK_PATCHES", block)
    args, _ = certifier_inputs(reference_grid(grid), default_kernel(kind, scale))
    want = stationary._certify(*args)
    monkeypatch.setattr(stationary, "_screen_margin", lambda eps: np.full(len(eps), np.inf))
    np.testing.assert_array_equal(stationary._certify(*args), want)


def test_sub_boxes_near_a_bound_take_the_exact_path(monkeypatch):
    # f2 at 20x20 with the Gaussian at 0.7 times its default alpha: level-2
    # sub-boxes whose table slack lies within delta of a bound are evaluated
    # at their centers, and every decision is the reference's
    args, _ = certifier_inputs(sample(TestFunction.F2, 20, 20),
                               default_kernel(KernelKind.GAUSSIAN, 0.7))
    code = args[0]
    levels = set()
    grad_jac = stationary._grad_jac

    def spy(px, py, weights, owner, kernel):
        # a center of a cell of level L lies at lo + (hi - lo) (2 ix + 1) / 2^(L + 1)
        box = _DOMAINS[code.take(owner)]
        t = (px - box[:, 0, 0]) / (box[:, 1, 0] - box[:, 0, 0])
        for level in range(1, stationary._CERTIFY_DEPTH + 1):
            if np.any(t * 2 ** (level + 1) % 2 == 1):
                levels.add(level)
        return grad_jac(px, py, weights, owner, kernel)

    monkeypatch.setattr(stationary, "_grad_jac", spy)
    got = stationary._certify(*args)
    assert 2 in levels
    np.testing.assert_array_equal(got, certify_reference(*args))


def test_non_finite_table_gradients_take_the_exact_path(monkeypatch):
    # the screen trusts no inf or NaN: with a third of the table's
    # gradients replaced by them, every decision is still the reference's
    args, _ = certifier_inputs(sample(TestFunction.F2, 24, 24),
                               default_kernel(KernelKind.GAUSSIAN))
    table_gradients = stationary._table_gradients

    def spoiled(*a):
        gx, gy = table_gradients(*a)
        gx.flat[::3] = np.inf
        gy.flat[1::3] = np.nan
        return gx, gy

    monkeypatch.setattr(stationary, "_table_gradients", spoiled)
    got = stationary._certify(*args)
    assert got.any()
    np.testing.assert_array_equal(got, certify_reference(*args))


def screen_gaps(code, weights, k):
    """|table slack - _grad_jac slack| and delta at every cell of levels 1
    to _DENSE_LEVELS of P patches, code (P,) sorted and weights (16, P):
    lists of (cells, P) and (P,)."""
    tables, _ = stationary._level_tables(k)
    tol_g = _GRAD_TOL_REL / DIAG
    eps = stationary._gradient_rounding(weights, k)
    gaps = []
    for level, table in enumerate(tables, start=1):
        side = 2 ** level
        gx, gy = stationary._table_gradients(code, weights, table)
        # cell iy side + ix of patch q is entry (iy side + ix, q)
        iy, ix = np.divmod(np.arange(side * side), side)
        cells = np.stack([ix, iy], axis=-1)[:, None]
        lo, hi = _DOMAINS[code, 0], _DOMAINS[code, 1]
        x0 = lo + (hi - lo) * ((cells + 0.5) / side)
        want_x, want_y, *_ = _grad_jac_rows(x0, weights.T, k)
        table_slack = np.sqrt(gx * gx + gy * gy) - eps - tol_g - eps
        exact_slack = np.sqrt(want_x * want_x + want_y * want_y) - eps - tol_g - eps
        gaps.append(np.abs(table_slack - exact_slack))
    return gaps, stationary._screen_margin(eps)


@pytest.mark.parametrize("scale", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("kind", list(KernelKind))
def test_table_slack_lies_within_the_screen_margin(kind, scale):
    # every cell of levels 1 to 3 of every patch, on grids that hold all 16
    # domain codes: the slack from the table's products lies within delta
    # of the one from _grad_jac at the cell's center
    assert stationary._DENSE_LEVELS == 3
    grids = [sample(TestFunction.F2, 24, 24), narrow_grid(4, 30), narrow_grid(30, 4),
             f2_window(4, 4, 1, 1)]
    k = default_kernel(kind, scale)
    codes = set()
    for g in grids:
        (code, weights, *_), _ = certifier_inputs(g, k)
        codes.update(code.tolist())
        order = np.argsort(code, kind="stable")
        gaps, delta = screen_gaps(code[order], weights.take(order, axis=1), k)
        for gap in gaps:
            assert np.all(gap <= delta)
    assert codes == set(range(16))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(list(KernelKind)), scale=scales, seed=st.integers(0, 2**32 - 1),
       width=st.integers(1, 40))
def test_table_slack_of_random_patches_lies_within_the_screen_margin(kind, scale, seed,
                                                                      width):
    # patches interpolating random values, at random domain codes, in
    # products of every width up to 40
    k = default_kernel(kind, scale)
    rng = np.random.default_rng(seed)
    h = rng.uniform(-1, 1, (width, 16)) * 10.0 ** rng.uniform(-3, 3, (width, 1))
    weights = np.ascontiguousarray(PatchMatrix(k).solve(h)[0].T)
    code = np.sort(rng.integers(0, 16, width))
    gaps, delta = screen_gaps(code, weights, k)
    for gap in gaps:
        assert np.all(gap <= delta)


@pytest.mark.parametrize("scale", [0.25, 1.0, 3.0])
@pytest.mark.parametrize("kind", list(KernelKind))
def test_modulus_table_keeps_the_bits_of_every_sub_box(kind, scale):
    # every cell of every domain code at levels 1 to _CERTIFY_DEPTH: the
    # table's G^ for the code and level is the modulus at the cell's own
    # half-diagonal, from its corners, and the deepest level's row is the
    # modulus at r 2^(level - depth) of every level's r, the bound the
    # certifier stops a patch with
    k = default_kernel(kind, scale)
    _, ghat = stationary._level_tables(k)
    depth = stationary._CERTIFY_DEPTH
    assert ghat.shape == (depth, 16)
    lo, hi = _DOMAINS[:, 0], _DOMAINS[:, 1]
    for level in range(1, depth + 1):
        side = 2 ** level
        iy, ix = np.divmod(np.arange(side * side), side)
        cells = np.stack([ix, iy], axis=-1)[:, None]
        a = lo + (hi - lo) * (cells / side)
        b = lo + (hi - lo) * ((cells + 1) / side)
        x0 = (a + b) * 0.5
        half = np.maximum(x0 - a, b - x0)
        r = np.hypot(half[..., 0], half[..., 1]) * (1.0 + stationary._MARGIN)  # (cells, 16)
        for row, radius in [(level, r), (depth, r * 2.0 ** (level - depth))]:
            want = stationary._gradient_modulus(k, radius)
            got = np.broadcast_to(ghat[row - 1], want.shape)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", list(KernelKind))
def test_results_do_not_depend_on_the_slices(kind, monkeypatch):
    # _grad_jac evaluates its points in slices of _SLICE: slices of 1 and 7
    # give the bits and the SeedCounts, iterations included, of the default ones
    g = sample(TestFunction.F13, 24, 24)
    k = default_kernel(kind)
    [(engine_args, _)] = captured_engine_runs(monkeypatch, g, kind)
    certifier_args, _ = certifier_inputs(g, k)
    rng = np.random.default_rng(22)
    x = rng.uniform(0, 3, (5000, 2))
    rows = certifier_args[1].T
    weights = rows[rng.integers(0, len(rows), 5000)]

    def run():
        idx, pos, counts = stationary._newton_seeds(*engine_args)
        return ([idx, pos, *_grad_jac_rows(x, weights, k), stationary._certify(*certifier_args)],
                astuple(counts))

    want, want_counts = run()
    assert len(engine_args[1]) > patch._SLICE and want_counts[3] > 0
    for size in (1, 7):
        monkeypatch.setattr(patch, "_SLICE", size)
        got, counts = run()
        assert_same_bits(got, want)
        assert counts == want_counts


@pytest.mark.parametrize("grid", [*(f.name for f in TestFunction), "skewed"])
def test_certification_leaves_the_raw_points_unchanged(grid, monkeypatch):
    # searching every patch, as when nothing is certified, gives the same
    # raw points bit for bit
    g = skewed_grid() if grid == "skewed" else sample(TestFunction[grid], 30, 30)
    kinds = [KernelKind.GAUSSIAN] if grid == "skewed" else list(KernelKind)
    for kind in kinds:
        k = default_kernel(kind)
        sr = sweep_full(g, k)
        # on the small skewed grid every patch holds a root
        assert (sr.seed_counts.excluded > 0) == (grid != "skewed")
        with monkeypatch.context() as m:
            m.setattr(stationary, "_certify", lambda code, *rest: np.zeros(len(code), dtype=bool))
            every = sweep_full(g, k)
        assert every.seed_counts.excluded == 0
        assert_same_raw(sr, every)


# --- reduction ----------------------------------------------------------------

def raw(*positions):
    """The positions (n, 2) and patches (n, 2) of raw points, all in patch (1, 1)."""
    return np.array(positions, float).reshape(-1, 2), np.ones((len(positions), 2), dtype=int)


# the merge radius is the grid's diagonal step: sqrt(2) on a unit grid, and
# 1.5 with dx = 0.9, dy = 1.2
def unit_sweep():
    return patch_sweep()


def sweep_d15():
    sr = patch_sweep(dx=0.9, dy=1.2)
    assert diag_step(sr.grid) == 1.5
    return sr


def test_reduce_merges_close_pair():
    out = reduce_points(*raw((0, 0), (0.5, 0)), unit_sweep())
    assert len(out) == 1
    np.testing.assert_allclose(out[0].position, [0.25, 0.0])
    assert out[0].members_merged == 2


def test_reduce_keeps_distant_points():
    out = reduce_points(*raw((0, 0), (10, 0)), unit_sweep())
    assert len(out) == 2
    np.testing.assert_allclose(out[0].position, [0, 0])
    np.testing.assert_allclose(out[1].position, [10, 0])


def test_reduce_anchor_semantics():
    # (2,0) stays separate: gathering is anchored at the first point only
    out = reduce_points(*raw((0, 0), (1, 0), (2, 0)), sweep_d15())
    assert len(out) == 2
    np.testing.assert_allclose(out[0].position, [0.5, 0.0])
    np.testing.assert_allclose(out[1].position, [2.0, 0.0])
    assert [p.members_merged for p in out] == [2, 1]


def test_reduce_deterministic_and_idempotent():
    sr = sweep_d15()
    pts = raw((0, 0), (1, 0), (2.6, 0), (5, 5))
    once = reduce_points(*pts, sr)
    again = reduce_points(*pts, sr)
    for a, b in zip(once, again):
        np.testing.assert_array_equal(a.position, b.position)
    # all pairwise distances now exceed d: reducing again changes nothing
    as_raw = raw(*[tuple(p.position) for p in once])
    twice = reduce_points(*as_raw, sr)
    assert len(twice) == len(once)
    for a, b in zip(once, twice):
        np.testing.assert_allclose(a.position, b.position)


def test_reduce_evaluates_on_first_members_patch():
    sr = patch_sweep(lambda x, y: 1.0 - 0.1 * (x * x + y * y), origin=(-1.5, -1.5))
    out = reduce_points(*raw((0, 0)), sr)
    assert out[0].value == pytest.approx(1.0, abs=0.05)
    assert out[0].classification is Classification.MAXIMUM


def test_reduce_terminates_on_non_finite_position():
    # a NaN anchor is within d of nothing, itself included; it still leaves
    out = reduce_points(*raw((math.nan, 0.0), (0.0, 0.0)), unit_sweep())
    assert [p.members_merged for p in out] == [1, 1]
    np.testing.assert_array_equal(out[1].position, [0.0, 0.0])
    assert math.isnan(out[0].value)


def test_reduce_of_no_points_is_empty():
    assert reduce_points(*raw(), unit_sweep()) == []


@pytest.mark.parametrize("dx, dy", [(1.0, 1.0), (0.1, 2.0), (3.0, 0.01)])
def test_classification_kinds(dx, dy):
    # quadratic-like fields through the patch center, in units of the
    # spacing, on grids of any aspect
    origin = (-1.5 * dx, -1.5 * dy)
    cases = {
        Classification.MINIMUM: lambda x, y: (x / dx) ** 2 + (y / dy) ** 2,
        Classification.MAXIMUM: lambda x, y: -(x / dx) ** 2 - (y / dy) ** 2,
        Classification.SADDLE: lambda x, y: (x / dx) ** 2 - (y / dy) ** 2,
    }
    for expected, f in cases.items():
        sr = patch_sweep(f, dx=dx, dy=dy, origin=origin)
        assert reduce_points(*raw((0, 0)), sr)[0].classification is expected


def reduce_reference(positions, d):
    """The list-based anchored reduction of the points at positions (n, 2):
    (centroid, members) per cluster."""
    remaining = list(range(len(positions)))
    out = []
    while remaining:
        ap = positions[remaining[0]]
        cluster = [r for r in remaining if np.hypot(*(positions[r] - ap)) <= d]
        remaining = [r for r in remaining if r not in cluster]
        out.append((np.mean([positions[r] for r in cluster], axis=0), len(cluster)))
    return out


@settings(max_examples=60, deadline=None)
@given(coords=st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
                       min_size=0, max_size=60),
       d=st.floats(0.01, 4.0))
# a pair at exactly distance d: hypot(3, 4) == 5
@example(coords=[(0.0, 0.0), (3.0, 4.0), (6.0, 8.0)], d=5.0)
def test_reduce_matches_list_reference(coords, d):
    sr = patch_sweep(dx=d / math.sqrt(2), dy=d / math.sqrt(2))
    pts = raw(*coords)
    got = reduce_points(*pts, sr)
    want = reduce_reference(pts[0], diag_step(sr.grid))
    assert len(got) == len(want)
    for p, (centroid, members) in zip(got, want):
        np.testing.assert_array_equal(p.position, centroid)
        assert p.members_merged == members


def reduce_points_reference(pos, patch, sweep):
    """``reduce_points`` as the per-cluster loop it was first written as: one
    interpolant, value, Jacobian and eigvalsh per cluster."""
    g = sweep.grid
    d = diag_step(g)
    spacing = np.array([g.dx, g.dy])
    remaining = np.arange(len(pos))
    out = []
    while remaining.size:
        i, j = patch[remaining[0]]
        diff = pos[remaining] - pos[remaining[0]]
        near = np.hypot(diff[:, 0], diff[:, 1]) <= d
        near[0] = True
        cluster = remaining[near]
        remaining = remaining[~near]
        centroid = pos[cluster].mean(axis=0)
        interp = sweep.interpolant(i, j)
        xi = (centroid - g.origin) / spacing - [j - 1, i - 1]
        value = float(interp(xi)) * g.field_range
        # the Hessian in the grid's units, times d^2, in units of the field range
        jac = interp.gradient_jacobian(xi) * np.outer(d / spacing, d / spacing)
        lam = np.linalg.eigvalsh(jac)
        if np.any(np.abs(lam) < 1e-9):
            cls = Classification.DEGENERATE
        elif np.all(lam > 0):
            cls = Classification.MINIMUM
        elif np.all(lam < 0):
            cls = Classification.MAXIMUM
        else:
            cls = Classification.SADDLE
        out.append(StationaryPoint(position=centroid, value=value, classification=cls,
                                   members_merged=cluster.size))
    return out


@pytest.mark.parametrize("kind", list(KernelKind))
@pytest.mark.parametrize("grid", ["F11-24", "F13-40", "F14-32", "skewed", "skewed-tiny"])
def test_reduce_matches_the_per_cluster_loop(grid, kind):
    # skewed-tiny: values times 2^-40, so the field range, which scales the
    # values back from the patch frame, is far below 1
    if grid.startswith("skewed"):
        g = skewed_grid()
        if grid == "skewed-tiny":
            g = GridField(nx=g.nx, ny=g.ny, dx=g.dx, dy=g.dy, origin=g.origin,
                          values=g.values * 2.0 ** -40)
    else:
        fn, n = grid.split("-")
        g = sample(TestFunction[fn], int(n), int(n))
    sr = sweep_full(g, default_kernel(kind))
    got = reduce_points(sr.raw, sr.raw_patch, sr)
    want = reduce_points_reference(sr.raw, sr.raw_patch, sr)
    assert len(got) == len(want) > 0
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.position, b.position)
        assert (a.value, a.classification, a.members_merged) == \
            (b.value, b.classification, b.members_merged)
    assert max(p.members_merged for p in got) > 1


def test_classify_by_eigenvalue_signs():
    lam = np.array([[1.0, 2.0], [-2.0, -1.0], [-1.0, 1.0], [1e-10, 1.0]])
    got = classify(lam)
    assert got == [Classification.MINIMUM, Classification.MAXIMUM, Classification.SADDLE,
                   Classification.DEGENERATE]
    # the threshold is 1e-9 in units of the field range, from either side and sign
    below, above = np.nextafter(1e-9, 0.0), 1e-9
    assert classify([[below, 1.0], [1.0, -below]]) == [Classification.DEGENERATE] * 2
    assert classify([[above, 1.0], [-1.0, -above]]) == [Classification.MINIMUM,
                                                        Classification.MAXIMUM]
