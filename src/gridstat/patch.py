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
only on the kernel, so it is built and factorized once per run and reused
for every patch; at a kernel kind's default shape parameter it is one
matrix per kind.  The factorization is an in-house LU with partial
pivoting carried out in extended precision: at the default shape parameters
the Gaussian matrix has condition number ~1e10, and float64 elimination
would leave weight errors visible at the interpolation-property tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import Kernel


class FactorizationError(RuntimeError):
    """The patch interpolation matrix could not be factorized."""


def lu_factor_pp(a: np.ndarray):
    """LU decomposition with partial pivoting, dtype-preserving.

    Returns (lu, piv) in the packed convention: L has unit diagonal and is
    stored below it, U on and above.  Raises FactorizationError on a zero
    pivot column.
    """
    lu = np.array(a, copy=True)
    n = lu.shape[0]
    piv = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if lu[p, k] == 0:
            raise FactorizationError(f"zero pivot in column {k}")
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            piv[[k, p]] = piv[[p, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, piv


def lu_solve_pp(lu: np.ndarray, piv: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for one or many right-hand sides (columns of b)."""
    x = np.array(b[piv], dtype=lu.dtype, copy=True)
    n = lu.shape[0]
    for k in range(1, n):
        x[k] -= lu[k, :k] @ x[:k]
    for k in range(n - 1, -1, -1):
        x[k] -= lu[k, k + 1:] @ x[k + 1:]
        x[k] /= lu[k, k]
    return x


# canonical 4x4 layout in index units: node m = 4*row + col at (col, row)
_OFFS = np.array([(j, i) for i in range(4) for j in range(4)], dtype=float)
#: the diagonal of a grid cell in index units
DIAG = math.sqrt(2.0)


class PatchMatrix:
    """The shared interpolation matrix of the patch nodes ``_OFFS`` and the
    factorization of its constant-augmented saddle-point system.

    ``entries`` is the 16x16 kernel matrix A; the factorized system is
    ``[A 1; 1^T 0] [c; b] = [h; 0]``.
    """

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.entries = kernel.phi(_offsets(_OFFS)[2])
        system = np.zeros((17, 17), dtype=np.longdouble)
        system[:16, :16] = self.entries
        system[:16, 16] = 1
        system[16, :16] = 1
        try:
            self._lu, self._piv = lu_factor_pp(system)
        except FactorizationError as exc:
            raise FactorizationError(
                f"interpolation matrix is singular for kernel "
                f"{kernel.kind.value} with alpha={kernel.alpha} per grid-index unit: "
                f"{exc}") from exc

    def solve(self, h) -> tuple[np.ndarray, np.ndarray]:
        """Weights c and constant b with A c + b = h and sum(c) = 0.

        h is (16,) or (npatch, 16); c has the same shape and b is a scalar
        or (npatch,).  Both are returned in extended precision; cast to
        float64 where speed matters.
        """
        h = np.asarray(h)
        if not np.all(np.isfinite(h)):
            raise ValueError("sample values must be finite")
        rhs = np.zeros((17,) + h.shape[:-1], dtype=np.longdouble)
        rhs[:16] = h.T
        x = lu_solve_pp(self._lu, self._piv, rhs)
        return x[:16].T, x[16]


def _offsets(x):
    """The per-node terms every derivative of an RBF sum is built from.

    x (..., 2); returns the components ox, oy of the offsets x - x_m to the
    nodes ``_OFFS`` and their lengths r, all (..., 16) and contiguous.
    """
    ox = x[..., 0, None] - _OFFS[:, 0]
    oy = x[..., 1, None] - _OFFS[:, 1]
    r = ox * ox
    r += oy * oy
    return ox, oy, np.sqrt(r, out=r)


def _weighted(terms, weights):
    """terms * weights, written over terms where the product has its shape
    and dtype."""
    fits = (np.broadcast_shapes(terms.shape, weights.shape) == terms.shape
            and np.result_type(terms, weights) == terms.dtype)
    return np.multiply(terms, weights, out=terms if fits else None)


def _gradient_sums(cpsi, ox, oy):
    """gx, gy = sum_m cpsi_m (x - x_m) from the weighted terms cpsi = c_m
    psi(r_m) and the offsets' components ox, oy, all (..., 16)."""
    t = cpsi * ox
    gx = t.sum(axis=-1)
    return gx, np.multiply(cpsi, oy, out=t).sum(axis=-1)


def _grad_jac(x, weights, kernel):
    """Gradient and symmetric Jacobian of the gradient field of RBF sums at
    the nodes ``_OFFS``.

    x (..., 2) and weights (..., 16) broadcast; returns the arrays
    gx, gy, jxx, jxy, jyy of shape (...).  Uses only elementwise ops and
    fixed-order row sums, so results do not depend on batch size.  psi and
    eta come from one kernel evaluation; the weighted terms overwrite them,
    and the squared offsets the offsets once the gradient and jxy are
    summed, so the Hessian sums hold no (..., 16) array they do not need.
    """
    ox, oy, r = _offsets(x)
    psi, eta = kernel.psi_eta(r)
    del r
    cpsi = _weighted(psi, weights)
    ceta = _weighted(eta, weights)
    del psi, eta
    gx, gy = _gradient_sums(cpsi, ox, oy)
    tr = cpsi.sum(axis=-1)
    # cpsi has the shape of ceta: its array takes the products of jxy
    t = np.multiply(ceta, ox, out=cpsi)
    jxy = np.multiply(t, oy, out=t).sum(axis=-1)
    del cpsi, t
    # ceta (x - x_m)^2 rounds the square first, then the product
    jxx = _weighted(np.multiply(ox, ox, out=ox), ceta).sum(axis=-1) + tr
    jyy = _weighted(np.multiply(oy, oy, out=oy), ceta).sum(axis=-1) + tr
    return gx, gy, jxx, jxy, jyy


@dataclass(frozen=True)
class PatchInterpolant:
    """RBF interpolant at the nodes ``_OFFS``, plus its constant term, or a
    stack of them: weights (..., 16) and constant (...) broadcast against
    the points, in the patch frame, they are evaluated at."""

    weights: np.ndarray  # (..., 16)
    kernel: Kernel
    constant: float | np.ndarray = 0.0  # (...)

    def __call__(self, x):
        """Interpolant value; x is (2,) or (..., 2).  Summed like
        ``_grad_jac``, so the value does not depend on the weights' layout."""
        _, _, r = _offsets(np.asarray(x, dtype=float))
        out = (np.asarray(self.weights) * self.kernel.phi(r)).sum(axis=-1) + self.constant
        return float(out) if np.ndim(out) == 0 else np.asarray(out, float)

    def gradient(self, x) -> np.ndarray:
        """Gradient sum_m c_m psi(|x - x_m|) (x - x_m); shape (..., 2)."""
        gx, gy, *_ = _grad_jac(np.asarray(x, dtype=float),
                               np.asarray(self.weights, dtype=float), self.kernel)
        return np.stack([gx, gy], axis=-1)

    def gradient_jacobian(self, x) -> np.ndarray:
        """Jacobian of the gradient field (the interpolant's Hessian).

        J = sum_m c_m [ eta(r_m) (x-x_m)(x-x_m)^T + psi(r_m) I ]; symmetric,
        shape (..., 2, 2).
        """
        _, _, jxx, jxy, jyy = _grad_jac(np.asarray(x, dtype=float),
                                        np.asarray(self.weights, dtype=float), self.kernel)
        return np.stack([np.stack([jxx, jxy], axis=-1),
                         np.stack([jxy, jyy], axis=-1)], axis=-2)
