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

The 17x17 saddle-point matrix ``[A 1; 1^T 0]`` depends only on the kernel
and the grid spacing, never on where the patch sits, so it is built and
factorized once per run and reused for every patch.  The factorization is
an in-house LU with partial pivoting carried out in extended precision: at
the default shape parameters the Gaussian matrix has condition number
~1e10, and float64 elimination would leave weight errors visible at the
interpolation-property tolerance.
"""

from __future__ import annotations

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


# canonical 4x4 layout: node m = 4*row + col at (col*dx, row*dy)
_OFFS = np.array([(j, i) for i in range(4) for j in range(4)], dtype=float)


def patch_offsets(dx: float, dy: float) -> np.ndarray:
    """Positions of the 16 canonical patch nodes, row-major, shape (16, 2)."""
    return _OFFS * np.array([dx, dy])


class PatchMatrix:
    """The shared interpolation matrix and the factorization of its
    constant-augmented saddle-point system.

    ``entries`` is the 16x16 kernel matrix A; the factorized system is
    ``[A 1; 1^T 0] [c; b] = [h; 0]``.
    """

    def __init__(self, kernel: Kernel, dx: float, dy: float):
        if not (dx > 0 and dy > 0):
            raise ValueError("grid spacing must be positive")
        self.kernel = kernel
        self.dx = dx
        self.dy = dy
        pts = patch_offsets(dx, dy)
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        self.entries = kernel.phi(dist)
        system = np.zeros((17, 17), dtype=np.longdouble)
        system[:16, :16] = self.entries
        system[:16, 16] = 1
        system[16, :16] = 1
        try:
            self._lu, self._piv = lu_factor_pp(system)
        except FactorizationError as exc:
            raise FactorizationError(
                f"interpolation matrix is singular for kernel "
                f"{kernel.kind.value} with alpha={kernel.alpha}: {exc}") from exc

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


def _grad_jac(x, centers, weights, kernel):
    """Gradient and symmetric Jacobian of the gradient field of RBF sums.

    x (..., 2), centers (..., 16, 2), weights (..., 16); returns the arrays
    gx, gy, jxx, jxy, jyy of shape (...).  Uses only elementwise ops and
    fixed-order row sums, so results do not depend on batch size.
    """
    diff = x[..., None, :] - centers
    r = np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2)
    cpsi = weights * kernel.psi(r)
    ceta = weights * kernel.eta(r)
    gx = (cpsi * diff[..., 0]).sum(axis=-1)
    gy = (cpsi * diff[..., 1]).sum(axis=-1)
    tr = cpsi.sum(axis=-1)
    jxx = (ceta * diff[..., 0] ** 2).sum(axis=-1) + tr
    jxy = (ceta * diff[..., 0] * diff[..., 1]).sum(axis=-1)
    jyy = (ceta * diff[..., 1] ** 2).sum(axis=-1) + tr
    return gx, gy, jxx, jxy, jyy


@dataclass(frozen=True)
class PatchInterpolant:
    """RBF interpolant over one 16-center patch, plus its constant term."""

    centers: np.ndarray  # (16, 2)
    weights: np.ndarray  # (16,)
    kernel: Kernel
    constant: float = 0.0

    def __call__(self, x):
        """Interpolant value; x is (2,) or (..., 2)."""
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x[..., None, :] - np.asarray(self.centers, dtype=float), axis=-1)
        out = self.kernel.phi(r) @ np.asarray(self.weights) + self.constant
        return float(out) if np.ndim(out) == 0 else np.asarray(out, float)

    def _derivatives(self, x):
        return _grad_jac(np.asarray(x, dtype=float),
                         np.asarray(self.centers, dtype=float),
                         np.asarray(self.weights, dtype=float), self.kernel)

    def gradient(self, x) -> np.ndarray:
        """Gradient sum_m c_m psi(|x - x_m|) (x - x_m); shape (..., 2)."""
        gx, gy, *_ = self._derivatives(x)
        return np.stack([gx, gy], axis=-1)

    def gradient_jacobian(self, x) -> np.ndarray:
        """Jacobian of the gradient field (the interpolant's Hessian).

        J = sum_m c_m [ eta(r_m) (x-x_m)(x-x_m)^T + psi(r_m) I ]; symmetric,
        shape (..., 2, 2).
        """
        _, _, jxx, jxy, jyy = self._derivatives(x)
        return np.stack([np.stack([jxx, jxy], axis=-1),
                         np.stack([jxy, jyy], axis=-1)], axis=-2)


def interpolate_patch(m: PatchMatrix, centers: np.ndarray, h) -> PatchInterpolant:
    """Solve for weights and constant and wrap the result as an interpolant."""
    weights, constant = m.solve(h)
    return PatchInterpolant(centers=np.asarray(centers, float), weights=weights,
                            kernel=m.kernel, constant=float(constant))
