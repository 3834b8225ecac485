"""Patch matrix construction, weight solves, and interpolant derivatives."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from gridstat import FactorizationError, Kernel, KernelKind, PatchInterpolant, PatchMatrix
from gridstat.patch import _OFFS

from conftest import NODE_ERROR, default_kernel, solve_interpolant

ALL_KINDS = list(KernelKind)


# --- patch matrix ------------------------------------------------------------

def test_patch_nodes_layout():
    # grid-index units, row-major: node m = 4 * row + col at (col, row)
    assert _OFFS.shape == (16, 2)
    np.testing.assert_array_equal(_OFFS[0], [0.0, 0.0])
    np.testing.assert_array_equal(_OFFS[1], [1.0, 0.0])    # next column
    np.testing.assert_array_equal(_OFFS[4], [0.0, 1.0])    # next row
    np.testing.assert_array_equal(_OFFS[15], [3.0, 3.0])


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_matrix_entries(kind):
    k = default_kernel(kind)
    a = PatchMatrix(k).entries
    np.testing.assert_allclose(np.diag(a), 1.0)
    np.testing.assert_array_equal(a, a.T)
    assert a[0, 1] == a[0, 4] == pytest.approx(k.phi(1.0))
    assert a[0, 2] == pytest.approx(k.phi(2.0))
    assert a[0, 6] == pytest.approx(k.phi(math.sqrt(5.0)))
    assert a[0, 15] == pytest.approx(k.phi(3 * math.sqrt(2.0)))


def test_factorization_failure_names_kernel():
    # alpha so small the Gaussian matrix rounds to all-ones (rank 1)
    with pytest.raises(FactorizationError, match="gaussian"):
        PatchMatrix(Kernel(KernelKind.GAUSSIAN, 1e-300))


# --- weight solve ------------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_solve_zero_rhs(kind):
    m = PatchMatrix(default_kernel(kind))
    np.testing.assert_array_equal(m.solve(np.zeros(16))[0], np.zeros(16))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_solve_residual_bound(kind):
    # the contract on the float64 solution x = [c; b] of S x = [h; 0],
    # S = [A 1; 1^T 0]: its normwise backward error
    # ||S x - [h; 0]||_inf / (||S||_inf ||x||_inf + ||h||_inf), with the
    # residual summed exactly, is at most 2u, u = 2^-53 the unit roundoff
    m = PatchMatrix(default_kernel(kind))
    s = m.system
    exact = [[Fraction(v) for v in row] for row in s.tolist()]
    rng = np.random.default_rng(13)
    for _ in range(100):
        h = rng.normal(size=16)
        c, b = m.solve(h)
        x = np.append(c, b)
        xf = [Fraction(v) for v in x.tolist()]
        residual = max(abs(float(sum((e * v for e, v in zip(row, xf)), Fraction(-t))))
                       for row, t in zip(exact, [*h.tolist(), 0.0]))
        scale = np.max(np.abs(s).sum(axis=1)) * np.max(np.abs(x)) + np.max(np.abs(h))
        assert residual <= np.finfo(float).eps * scale  # 2u


def test_solve_rejects_nonfinite():
    m = PatchMatrix(default_kernel(KernelKind.GAUSSIAN))
    h = np.zeros(16)
    h[5] = np.inf
    with pytest.raises(ValueError):
        m.solve(h)[0]


def test_solve_raises_where_the_weights_overflow():
    # finite samples near 1e305, whose Gaussian weights overflow float64:
    # the numeric failure names the kernel, with no numpy warning
    m = PatchMatrix(default_kernel(KernelKind.GAUSSIAN))
    h = np.random.default_rng(5).uniform(-1.0, 1.0, (4, 16)) * 1e305
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FactorizationError, match=r"^interpolation weights overflow "
                           r"float64 for kernel gaussian with alpha=\S+ per grid-index unit$"):
            m.solve(h)


@pytest.mark.parametrize("shape", [(15,), (17,), (3, 15), (3, 17), (16, 15)])
def test_solve_rejects_a_last_axis_other_than_16(shape):
    m = PatchMatrix(default_kernel(KernelKind.GAUSSIAN))
    with pytest.raises(ValueError, match="last axis of 16"):
        m.solve(np.zeros(shape))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_solve_batched_equals_single(kind):
    # a patch's weights are the same bits alone, as a (16,) vector or a block
    # of one, and at any position in a block of any width
    m = PatchMatrix(default_kernel(kind))
    h = np.random.default_rng(14).normal(size=(2048, 16))
    c, b = m.solve(h)
    for width in (1, 2, 7, 2048):
        for p0 in sorted({0, 1000 - width // 2, 2048 - width}):
            blk = slice(p0, p0 + width)
            cb, bb = m.solve(h[blk])
            np.testing.assert_array_equal(cb, c[blk])
            np.testing.assert_array_equal(bb, b[blk])
    for p in (0, 1000, 2047):
        cp, bp = m.solve(h[p])
        np.testing.assert_array_equal(cp, c[p])
        assert bp == b[p]


# --- interpolant -------------------------------------------------------------

def make_interp(kind, h):
    return solve_interpolant(PatchMatrix(default_kernel(kind)), h)


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
    vals = p(_OFFS)
    np.testing.assert_allclose(vals, h, atol=NODE_ERROR[kind] * max(1.0, np.max(np.abs(h))))


def test_constant_field_reproduction():
    p = make_interp(KernelKind.GAUSSIAN, np.full(16, 5.0))
    np.testing.assert_allclose(p(_OFFS), 5.0, atol=5e-8)
    # the interpolant's constant term reproduces constants off the nodes too
    assert p(np.array([1.5, 1.5])) == pytest.approx(5.0, abs=5e-3)


def test_zero_weights():
    p = PatchInterpolant(weights=np.zeros(16), kernel=Kernel(KernelKind.GAUSSIAN, 0.2))
    x = np.array([1.3, 2.1])
    assert p(x) == 0.0
    np.testing.assert_array_equal(p.gradient(x), [0.0, 0.0])
    np.testing.assert_array_equal(p.gradient_jacobian(x), np.zeros((2, 2)))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_value_does_not_depend_on_the_weights_layout(kind):
    # a row of a column-major weights array is strided; the value at every
    # point is the same, bit for bit, as with a contiguous copy of the row
    rng = np.random.default_rng(20)
    k = default_kernel(kind)
    weights = np.asfortranarray(PatchMatrix(k).solve(rng.normal(size=(5, 16)))[0],
                                dtype=float)
    x = rng.uniform(0, 3, (300, 2))
    for row in weights:
        strided, contiguous = (PatchInterpolant(weights=w, kernel=k, constant=0.25)
                               for w in (row, np.ascontiguousarray(row)))
        assert not row.flags.c_contiguous
        np.testing.assert_array_equal(strided(x), contiguous(x))
        assert [strided(p) for p in x] == [contiguous(p) for p in x]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gradient_matches_finite_differences(kind):
    rng = np.random.default_rng(16)
    p = make_interp(kind, smooth_field(rng, _OFFS))
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
    p = make_interp(kind, smooth_field(rng, _OFFS))
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
    # field sampled from exp(-|x - 1.5|^2): a bump at the patch center
    h = np.exp(-np.sum((_OFFS - 1.5) ** 2, axis=1))
    p = solve_interpolant(PatchMatrix(default_kernel(KernelKind.GAUSSIAN)), h)
    assert np.linalg.norm(p.gradient(np.full(2, 1.5))) <= 1e-8 * np.max(np.abs(h))


def test_matrix_reuse_equals_per_patch_factorization():
    # a shared factorization gives the same weights as factorizing per patch
    kind = KernelKind.GAUSSIAN
    shared = PatchMatrix(default_kernel(kind))
    rng = np.random.default_rng(19)
    for _ in range(10):
        h = rng.normal(size=16)
        fresh = PatchMatrix(default_kernel(kind))
        w1 = np.asarray(shared.solve(h)[0], float)
        w2 = np.asarray(fresh.solve(h)[0], float)
        np.testing.assert_allclose(w1, w2, atol=1e-12 * max(1.0, np.max(np.abs(w1))))
