"""16-point (4x4) RBF interpolation patches.

Each patch interpolant is an RBF sum plus a constant,
``s(x) = sum_m c_m phi(|x - x_m|) + b``, with the weights constrained by
``sum_m c_m = 0`` (Fasshauer, *Meshfree Approximation Methods with MATLAB*,
2007, ch. 6).  Reproducing constants departs from the plain RBF
interpolant: without the constant term the interpolant undulates at the
grid frequency (mid-cell error ~4e-4 relative on a constant field), and
where the true gradient is smaller than that error slope -- the flat tops
of f1 under the Wendland kernel, the neighborhood of f14's origin -- the
undulation has real roots that are not stationary points of the sampled
function.  The constant has zero gradient and Hessian, so only the weight
solve and the interpolant's value see it.

A patch is interpolated in grid-index units: its nodes ``_OFFS`` are the
integer points (col, row) of [0, 3]^2, a constant of this module that
``_offsets``, ``_grad_jac`` (the one routine for gradients and Hessians)
and ``PatchInterpolant`` build on, and the kernel's shape parameter is per
index unit.  The 17x17 saddle-point matrix ``[A 1; 1^T 0]`` then depends
only on the kernel, so it is built once per run and shared by every
patch; at a kernel kind's default shape parameter it is one matrix per
kind.  ``PatchMatrix.solve`` hands a whole block of patches to one
float64 LAPACK ``gesv``, an LU with partial pivoting, which is backward
stable whatever the condition number (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2002, ch. 9): the Gaussian matrix at the default
shape parameter has condition number ~6e9, and on random right-hand sides
the normwise backward error of the weights is at most 0.35u, u = 2^-53
the unit roundoff (``test_solve_residual_bound`` allows 2u).

The per-node terms are laid out node-major: the nodes are the leading
axes and the points the contiguous last one, so every elementwise step
runs over the points in one long inner loop (numpy runs an (N, 16)
layout with an inner loop of 16).  ``_offsets`` gives the offsets of N
points to the 16 nodes as (16, N) arrays; ``PatchMatrix``,
``PatchInterpolant``'s value and the certifier's tables read them, and
``_gradient_sums``, the one 16-term sum, adds whole rows in numpy's
pairwise order, written out.  ``_grad_jac`` instead uses that the nodes
lie on a 4x4 integer grid: a point's offsets take four values per axis,
(4, N) each, ``Kernel.psi_eta_nodes`` evaluates psi and eta from their
squares as (4, 4, N), and every sum over the nodes factors into sums of
4 over a node row or column (``_node_sum``).  It evaluates its points in
slices of ``_SLICE``, so its temporaries fit in a core's L2 cache and the
allocator hands the same memory back slice after slice instead of mapping
it and faulting it in again on every Newton iteration.  It reads the
weights of P patches node-major, (16, P), and each point's patch: a slice
gathers its points' weights into one of those temporaries, so its callers
hold no copy of the weights per point or per Newton seed, and their memory
grows with the patches of a block, not with the points evaluated.
``PatchInterpolant`` lays its points and weights out the same way
(``_node_major``, ``_grad_jac_rows``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import Kernel


class FactorizationError(RuntimeError):
    """The patch interpolation matrix could not be factorized."""


# canonical 4x4 layout in index units: node m = 4*row + col at (col, row)
_OFFS = np.array([(j, i) for i in range(4) for j in range(4)], dtype=float)
#: the diagonal of a grid cell in index units
DIAG = math.sqrt(2.0)
#: the coordinates of the node rows and columns, (4, 1)
_NODES = np.arange(4.0)[:, None]


class PatchMatrix:
    """The shared interpolation matrix of the patch nodes ``_OFFS`` and its
    constant-augmented saddle-point system.

    ``entries`` is the 16x16 kernel matrix A and ``system`` the float64
    matrix ``[A 1; 1^T 0]`` of ``[A 1; 1^T 0] [c; b] = [h; 0]``.
    Construction raises FactorizationError where LAPACK's LU meets an exactly
    zero pivot, and ``solve`` where a weight or the constant overflows float64.
    """

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.entries = kernel.phi(_offsets(*_OFFS.T)[2])
        self.system = np.ones((17, 17))
        self.system[:16, :16] = self.entries
        self.system[16, 16] = 0.0
        try:
            np.linalg.solve(self.system, np.zeros(17))
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(
                f"interpolation matrix is singular for kernel "
                f"{kernel.kind.value} with alpha={kernel.alpha} per grid-index unit: "
                f"{exc}") from exc

    def solve(self, h) -> tuple[np.ndarray, np.ndarray]:
        """Float64 weights c and constant b with A c + b = h and sum(c) = 0.

        h is (..., 16); c has its shape and b is (...).  All right-hand sides
        go to one LAPACK solve with one zero column more: LAPACK solves a
        single column by another route, whose last bits differ, and with two
        or more columns each column's weights do not depend on how many are
        solved at once or where the column stands.
        """
        h = np.asarray(h, dtype=float)
        if h.shape[-1:] != (16,):
            raise ValueError(f"sample values must have a last axis of 16, got shape {h.shape}")
        if not np.all(np.isfinite(h)):
            raise ValueError("sample values must be finite")
        rhs = np.zeros((17, h.size // 16 + 1))
        rhs[:16, :-1] = h.reshape(-1, 16).T
        x = np.linalg.solve(self.system, rhs)[:, :-1]
        if not np.all(np.isfinite(x)):
            raise FactorizationError(
                f"interpolation weights overflow float64 for kernel "
                f"{self.kernel.kind.value} with alpha={self.kernel.alpha} per grid-index unit")
        return x[:16].T.reshape(h.shape), x[16].reshape(h.shape[:-1])


#: points per pass of ``_grad_jac``: each of its (4, 4, _SLICE) temporaries
#: is 256 KB and each (4, _SLICE) one 64 KB, and they stay in a core's L2 cache
_SLICE = 2048


def _offsets(px, py):
    """The offsets of points to the 16 nodes, the terms of the kernel
    matrix, of the interpolant's value and of the certifier's tables.

    px, py (N,) are the coordinates of N points; returns the components
    ox, oy of the offsets x - x_m to the nodes ``_OFFS`` and their lengths
    r, all (16, N): node-major, with the points on the contiguous axis.
    """
    ox = px - _OFFS[:, 0, None]
    oy = py - _OFFS[:, 1, None]
    r = ox * ox
    r += oy * oy
    return ox, oy, np.sqrt(r, out=r)


def _gradient_sums(t, out=None):
    """The sum over the 16 nodes of the terms t (16, ...), shape (...),
    written into out if given: the one 16-term sum, which the
    interpolant's value and the certifier's rounding bound go through.  t
    is overwritten.

    The order is written out, r_j = t_j + t_{j+8}, then
    ((r_0 + r_1) + (r_2 + r_3)) + ((r_4 + r_5) + (r_6 + r_7)), then + 0.0,
    which turns -0.0 into 0.0: numpy's pairwise sum of 16 contiguous
    doubles started from its identity, bit for bit.  Each step is one
    elementwise add over the points, so no sum depends on how many points
    are summed at once.
    """
    np.add(t[:8], t[8:], out=t[:8])
    np.add(t[0:8:2], t[1:8:2], out=t[0:8:2])
    np.add(t[0:8:4], t[2:8:4], out=t[0:8:4])
    out = np.add(t[0], t[4], out=out)
    out += 0.0
    return out


def _node_sum(t, out=None):
    """t[0] + t[1] + t[2] + t[3] of t (4, ...), shape (...), in the order
    (t[0] + t[1]) + (t[2] + t[3]), written into out if given: two
    elementwise adds, so no sum depends on how many points are summed."""
    h = np.add(t[0::2], t[1::2])
    return np.add(h[0], h[1], out=out)


def _grad_jac(px, py, weights, owner, kernel):
    """Gradient and symmetric Jacobian of the gradient field of RBF sums at
    the nodes ``_OFFS``: the one routine every gradient and Hessian of the
    program comes from.

    Point n at (px[n], py[n]), (N,) each, is evaluated against the weights
    weights[:, owner[n]] of its patch, weights (16, P) node-major and
    C-contiguous; returns the arrays gx, gy, jxx, jxy, jyy, (N,) each.

    The nodes lie on the 4x4 integer grid, so a point's offsets take four
    values per axis: ox (4, m) = px - col and oy (4, m) = py - row.
    ``Kernel.psi_eta_nodes`` makes psi and eta (4 rows, 4 cols, m) from
    their squares, and with c psi = psi w and c eta = eta w the sums over
    the 16 nodes factor into sums over a node row or column:
    A_j = sum_i c psi, B_i = sum_j c psi, C_j = sum_i c eta,
    D_i = sum_j c eta, E_j = sum_i c eta oy_i, tr = sum_j A_j, and

        gx = sum_j A_j ox_j            gy = sum_i B_i oy_i
        jxx = sum_j C_j ox_j^2 + tr    jyy = sum_i D_i oy_i^2 + tr
        jxy = sum_j E_j ox_j

    Each sum of 4 is ``_node_sum``.  The points are evaluated in slices of
    _SLICE, and each slice gathers its points' weights with ``take``, so
    the temporaries stay in cache and no (16, N) weights are ever held;
    every step is elementwise, so no result depends on the slice or on N.
    """
    n = len(px)
    out = np.empty((5, n))
    for s0 in range(0, n, _SLICE):
        s = slice(s0, s0 + _SLICE)
        gx, gy, jxx, jxy, jyy = out[:, s]
        ox = px[s] - _NODES
        oy = py[s] - _NODES
        ox2, oy2 = ox * ox, oy * oy
        psi, eta = kernel.psi_eta_nodes(ox2, oy2)
        w = weights.take(owner[s], axis=1).reshape(psi.shape)
        # the weighted terms overwrite psi and eta, and E's products c eta
        # once C and D are summed
        cpsi = np.multiply(psi, w, out=psi)
        ceta = np.multiply(eta, w, out=eta)
        a = _node_sum(cpsi)
        b = _node_sum(cpsi.transpose(1, 0, 2))
        c = _node_sum(ceta)
        d = _node_sum(ceta.transpose(1, 0, 2))
        e = _node_sum(np.multiply(ceta, oy[:, None], out=ceta))
        tr = _node_sum(a)
        _node_sum(np.multiply(a, ox, out=a), out=gx)
        _node_sum(np.multiply(b, oy, out=b), out=gy)
        _node_sum(np.multiply(e, ox, out=e), out=jxy)
        _node_sum(np.multiply(c, ox2, out=c), out=jxx)
        _node_sum(np.multiply(d, oy2, out=d), out=jyy)
        jxx += tr
        jyy += tr
    return tuple(out)


def _node_major(x, weights):
    """Points x (..., 2) and weights (..., 16), broadcast against each
    other, in the layout of ``_grad_jac``: the broadcast shape (...), the
    coordinates px, py (N,), the W rows of weights node-major (16, W) and
    each point's row owner (N,).  A row shared by many points is not
    copied for each of them."""
    x = np.asarray(x, dtype=float)
    weights = np.asarray(weights)
    shape = np.broadcast_shapes(x.shape[:-1], weights.shape[:-1])
    px, py = (np.broadcast_to(x[..., k], shape).reshape(-1) for k in (0, 1))
    rows = np.arange(weights.size // 16).reshape(weights.shape[:-1])
    owner = np.broadcast_to(rows, shape).reshape(-1)
    return shape, px, py, np.ascontiguousarray(weights.reshape(-1, 16).T), owner


def _grad_jac_rows(x, weights, kernel):
    """``_grad_jac`` at points x (..., 2) against weights (..., 16),
    broadcast: gx, gy, jxx, jxy, jyy of the broadcast shape (...)."""
    shape, px, py, w, owner = _node_major(x, np.asarray(weights, dtype=float))
    return [a.reshape(shape) for a in _grad_jac(px, py, w, owner, kernel)]


@dataclass(frozen=True)
class PatchInterpolant:
    """RBF interpolant at the nodes ``_OFFS``, plus its constant term, or a
    stack of them: weights (..., 16) and constant (...) broadcast against
    the points, in the patch frame, they are evaluated at."""

    weights: np.ndarray  # (..., 16)
    kernel: Kernel
    constant: float | np.ndarray = 0.0  # (...)

    def __call__(self, x):
        """Interpolant value; x is (2,) or (..., 2).  Summed by
        ``_gradient_sums``, so the value does not depend on the weights'
        layout."""
        shape, px, py, w, owner = _node_major(x, self.weights)
        _, _, r = _offsets(px, py)
        terms = w.take(owner, axis=1) * self.kernel.phi(r)
        out = _gradient_sums(terms).reshape(shape) + self.constant
        return float(out) if np.ndim(out) == 0 else np.asarray(out, float)

    def gradient(self, x) -> np.ndarray:
        """Gradient sum_m c_m psi(|x - x_m|) (x - x_m); shape (..., 2).  Only
        the finite-difference tests of ``test_patch.py`` and c8 of
        ``test_acceptance.py`` call it; ``perfbench/spans.py`` wraps it."""
        gx, gy, *_ = _grad_jac_rows(x, self.weights, self.kernel)
        return np.stack([gx, gy], axis=-1)

    def gradient_jacobian(self, x) -> np.ndarray:
        """Jacobian of the gradient field (the interpolant's Hessian).

        J = sum_m c_m [ eta(r_m) (x-x_m)(x-x_m)^T + psi(r_m) I ]; symmetric,
        shape (..., 2, 2).
        """
        _, _, jxx, jxy, jyy = _grad_jac_rows(x, self.weights, self.kernel)
        return np.stack([np.stack([jxx, jxy], axis=-1),
                         np.stack([jxy, jyy], axis=-1)], axis=-2)
