"""Patch matrix construction, weight solves, and interpolant derivatives."""

import math

import numpy as np
import pytest

from gridstat import (FactorizationError, Kernel, KernelKind, PatchInterpolant,
                      PatchMatrix, interpolate_patch, kernel_for_grid,
                      patch_offsets)
from gridstat.patch import lu_factor_pp, lu_solve_pp

ALL_KINDS = list(KernelKind)


def default_kernel(kind, dx=1.0, dy=1.0):
    return kernel_for_grid(kind, math.hypot(dx, dy))


# --- LU solver ---------------------------------------------------------------

def test_lu_matches_reference_solver():
    rng = np.random.default_rng(11)
    for n in (3, 8, 16):
        a = rng.normal(size=(n, n))
        b = rng.normal(size=n)
        lu, piv = lu_factor_pp(a)
        np.testing.assert_allclose(lu_solve_pp(lu, piv, b),
                                   np.linalg.solve(a, b), rtol=1e-10)


def test_lu_multiple_rhs():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(6, 6))
    b = rng.normal(size=(6, 4))
    lu, piv = lu_factor_pp(a)
    np.testing.assert_allclose(lu_solve_pp(lu, piv, b),
                               np.linalg.solve(a, b), rtol=1e-10)


def test_lu_singular_raises():
    a = np.ones((4, 4))
    with pytest.raises(FactorizationError):
        lu_factor_pp(a)


def test_lu_preserves_dtype():
    a = np.eye(3, dtype=np.longdouble)
    lu, piv = lu_factor_pp(a)
    assert lu.dtype == np.longdouble
    assert lu_solve_pp(lu, piv, np.ones(3, dtype=np.longdouble)).dtype == np.longdouble


# --- patch matrix ------------------------------------------------------------

def test_patch_offsets_layout():
    offs = patch_offsets(0.5, 0.25)
    assert offs.shape == (16, 2)
    np.testing.assert_allclose(offs[0], [0.0, 0.0])
    np.testing.assert_allclose(offs[1], [0.5, 0.0])    # next column: +dx
    np.testing.assert_allclose(offs[4], [0.0, 0.25])   # next row: +dy
    np.testing.assert_allclose(offs[15], [1.5, 0.75])


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_matrix_entries(kind):
    dx, dy = 0.4, 0.3
    k = default_kernel(kind, dx, dy)
    m = PatchMatrix(k, dx, dy)
    a = m.entries
    np.testing.assert_allclose(np.diag(a), 1.0)
    np.testing.assert_array_equal(a, a.T)
    assert a[0, 1] == pytest.approx(k.phi(dx))
    assert a[0, 4] == pytest.approx(k.phi(dy))
    assert a[0, 15] == pytest.approx(k.phi(3 * math.hypot(dx, dy)))


def test_matrix_invalid_spacing():
    with pytest.raises(ValueError):
        PatchMatrix(Kernel(KernelKind.GAUSSIAN, 1.0), 0.0, 1.0)


def test_factorization_failure_names_kernel():
    # alpha so small the Gaussian matrix rounds to all-ones (rank 1)
    with pytest.raises(FactorizationError, match="gaussian"):
        PatchMatrix(Kernel(KernelKind.GAUSSIAN, 1e-300), 1.0, 1.0)


# --- weight solve ------------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_solve_zero_rhs(kind):
    m = PatchMatrix(default_kernel(kind), 1.0, 1.0)
    np.testing.assert_array_equal(m.solve(np.zeros(16))[0], np.zeros(16))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_solve_residual_bound(kind):
    # the contract, on both block rows of [A 1; 1^T 0] [c; b] = [h; 0]:
    # ||A c + b - h||_inf and |sum(c)| are <= 1e-8 * max(1, ||h||_inf)
    m = PatchMatrix(default_kernel(kind), 1.0, 1.0)
    a = m.entries.astype(np.longdouble)
    rng = np.random.default_rng(13)
    for _ in range(100):
        h = rng.normal(size=16)
        c, b = m.solve(h)
        bound = 1e-8 * max(1.0, np.max(np.abs(h)))
        assert np.max(np.abs(a @ c + b - h.astype(np.longdouble))) <= bound
        assert abs(c.sum()) <= bound


def test_solve_rejects_nonfinite():
    m = PatchMatrix(default_kernel(KernelKind.GAUSSIAN), 1.0, 1.0)
    h = np.zeros(16)
    h[5] = np.inf
    with pytest.raises(ValueError):
        m.solve(h)[0]


def test_solve_batched_equals_single():
    m = PatchMatrix(default_kernel(KernelKind.GAUSSIAN), 1.0, 1.0)
    rng = np.random.default_rng(14)
    h = rng.normal(size=(5, 16))
    batched = m.solve(h)[0]
    for k in range(5):
        np.testing.assert_array_equal(batched[k], m.solve(h[k])[0])


# --- interpolant -------------------------------------------------------------

def make_interp(kind, h, dx=1.0, dy=1.0, origin=(0.0, 0.0)):
    m = PatchMatrix(default_kernel(kind, dx, dy), dx, dy)
    centers = np.asarray(origin) + patch_offsets(dx, dy)
    return interpolate_patch(m, centers, h)


def smooth_field(rng, centers):
    """Samples of a random smooth function; keeps weights moderate so
    finite differences of the interpolant are not swamped by rounding
    (white-noise samples drive Gaussian-kernel weights to ~1e8)."""
    a, b, c, dd, e = rng.normal(size=5)
    w0, w1, p0 = rng.uniform(0.05, 0.25, 3)
    x, y = centers[:, 0], centers[:, 1]
    return (a * x + b * y + 0.05 * (c * x * x + dd * x * y + e * y * y)
            + np.sin(w0 * x + w1 * y + p0))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_interpolation_property(kind):
    rng = np.random.default_rng(15)
    h = rng.normal(size=16)
    p = make_interp(kind, h)
    vals = p(p.centers)
    np.testing.assert_allclose(vals, h, atol=1e-8 * max(1.0, np.max(np.abs(h))))


def test_constant_field_reproduction():
    p = make_interp(KernelKind.GAUSSIAN, np.full(16, 5.0))
    np.testing.assert_allclose(p(p.centers), 5.0, atol=5e-8)
    # the interpolant's constant term reproduces constants off the nodes too
    assert p(np.array([1.5, 1.5])) == pytest.approx(5.0, abs=5e-3)


def test_zero_weights():
    p = PatchInterpolant(centers=patch_offsets(1, 1), weights=np.zeros(16),
                         kernel=Kernel(KernelKind.GAUSSIAN, 0.2))
    x = np.array([1.3, 2.1])
    assert p(x) == 0.0
    np.testing.assert_array_equal(p.gradient(x), [0.0, 0.0])
    np.testing.assert_array_equal(p.gradient_jacobian(x), np.zeros((2, 2)))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gradient_matches_finite_differences(kind):
    rng = np.random.default_rng(16)
    p = make_interp(kind, smooth_field(rng, patch_offsets(1, 1)))
    d = math.sqrt(2)
    h = 1e-6 * d
    for _ in range(20):
        x = rng.uniform(0.5, 2.5, 2)
        gx = (p(x + [h, 0]) - p(x - [h, 0])) / (2 * h)
        gy = (p(x + [0, h]) - p(x - [0, h])) / (2 * h)
        g = p.gradient(x)
        np.testing.assert_allclose(g, [gx, gy],
                                   rtol=1e-5, atol=1e-5 * np.linalg.norm(g))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_jacobian_matches_finite_differences(kind):
    rng = np.random.default_rng(17)
    p = make_interp(kind, smooth_field(rng, patch_offsets(1, 1)))
    d = math.sqrt(2)
    h = 1e-5 * d
    for _ in range(20):
        x = rng.uniform(0.5, 2.5, 2)
        col0 = (p.gradient(x + [h, 0]) - p.gradient(x - [h, 0])) / (2 * h)
        col1 = (p.gradient(x + [0, h]) - p.gradient(x - [0, h])) / (2 * h)
        jac = p.gradient_jacobian(x)
        fd = np.column_stack([col0, col1])
        np.testing.assert_allclose(jac, fd, rtol=1e-4,
                                   atol=1e-4 * np.linalg.norm(jac))


def test_jacobian_symmetric():
    rng = np.random.default_rng(18)
    p = make_interp(KernelKind.INVERSE_QUADRIC, rng.normal(size=16))
    for _ in range(10):
        jac = p.gradient_jacobian(rng.uniform(0, 3, 2))
        assert abs(jac[0, 1] - jac[1, 0]) <= 1e-12 * np.linalg.norm(jac)


def test_symmetric_bump_gradient_vanishes_at_center():
    # field sampled from exp(-|x|^2) on a patch centered at the origin
    dx = dy = 1.0
    centers = patch_offsets(dx, dy) - np.array([1.5, 1.5])
    m = PatchMatrix(default_kernel(KernelKind.GAUSSIAN), dx, dy)
    h = np.exp(-np.sum(centers ** 2, axis=1))
    p = interpolate_patch(m, centers, h)
    assert np.linalg.norm(p.gradient(np.zeros(2))) <= 1e-8 * np.max(np.abs(h))


def test_matrix_reuse_equals_per_patch_factorization():
    # a shared factorization gives the same weights as factorizing per patch
    kind = KernelKind.GAUSSIAN
    shared = PatchMatrix(default_kernel(kind), 1.0, 1.0)
    rng = np.random.default_rng(19)
    for _ in range(10):
        h = rng.normal(size=16)
        fresh = PatchMatrix(default_kernel(kind), 1.0, 1.0)
        w1 = np.asarray(shared.solve(h)[0], float)
        w2 = np.asarray(fresh.solve(h)[0], float)
        np.testing.assert_allclose(w1, w2, atol=1e-12 * max(1.0, np.max(np.abs(w1))))
