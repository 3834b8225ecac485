"""Radial basis functions, their derivatives, and the shape-parameter rule.

Three kernels are supported: Gaussian, inverse quadric and Wendland's
compactly supported C2 function.  Each kernel carries a shape parameter
``alpha`` (units 1/length; the patch interpolants measure length in grid
index units, see ``patch.py``).  The constant ``omega`` is, for each kernel,
``alpha`` times the radius of its non-stationary inflection point; the
default ``alpha`` for a grid with diagonal step ``d`` places that
inflection radius at ``3*d``, the farthest in-patch distance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class KernelKind(Enum):
    GAUSSIAN = "gaussian"
    INVERSE_QUADRIC = "iq"
    WENDLAND31 = "wendland"


#: omega = alpha * (radius of the non-stationary inflection point of phi)
OMEGA = {
    KernelKind.GAUSSIAN: 1.0 / math.sqrt(2.0),
    KernelKind.INVERSE_QUADRIC: 1.0 / math.sqrt(3.0),
    KernelKind.WENDLAND31: 0.25,
}


def shape_parameter(kind: KernelKind, d: float) -> float:
    """Default shape parameter alpha = omega / (3 d) for diagonal step d."""
    if d <= 0:
        raise ValueError(f"diagonal step must be positive, got {d}")
    return OMEGA[kind] / (3.0 * d)


def _radial(method):
    """Evaluate a radial function of ``r`` on a float array of rank >= 1.

    numpy evaluates some operations (integer powers, say) by a different
    route on 0-d inputs than on arrays, and the two can differ by an ulp.
    Every input therefore takes the array route; a scalar input is turned
    back into a float (or a tuple of floats) at the end.
    """
    @functools.wraps(method)
    def evaluate(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise ValueError("radius must be nonnegative")
        out = method(self, np.atleast_1d(r))
        if r.ndim:
            return out
        return tuple(float(o[0]) for o in out) if isinstance(out, tuple) else float(out[0])
    return evaluate


@dataclass(frozen=True)
class Kernel:
    """One RBF with its shape parameter.

    All evaluation methods accept scalars or numpy arrays, return a float
    for a scalar and an array of the same shape otherwise, and are pure;
    instances are immutable and safe to share across threads.
    """

    kind: KernelKind
    alpha: float

    def __post_init__(self):
        # an infinite alpha makes alpha * r = inf * 0 = nan at every center
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        # an overflowing coefficient makes every psi or eta, and every seed, inf or nan
        if not all(map(math.isfinite, self._coefficients())):
            raise ValueError(f"the {self.kind.value} kernel's psi and eta coefficients "
                             f"{self._coefficients()} are not finite at alpha={self.alpha}")

    def _coefficients(self):
        """The constant factors of psi and eta (see ``psi`` and ``eta``):
        -2 a^2 and 4 a^4 (Gaussian), -2 a^2 and 8 a^4 (inverse quadric),
        -20 a^2 and 60 a^3 (Wendland)."""
        a = float(self.alpha)
        a2 = a * a
        if self.kind is KernelKind.GAUSSIAN:
            return -2.0 * a2, 4.0 * (a2 * a2)
        if self.kind is KernelKind.INVERSE_QUADRIC:
            return -2.0 * a2, 8.0 * (a2 * a2)
        return -20.0 * a2, 60.0 * a2 * a

    @_radial
    def phi(self, r):
        """Kernel value phi(r); phi(0) = 1 for every kind.  From the factor
        f = ``_shared(r)``: f (Gaussian), 1/f (inverse quadric) and
        f^4 (4ar + 1) (Wendland)."""
        f = self._shared(r)
        if self.kind is KernelKind.GAUSSIAN:
            return f
        if self.kind is KernelKind.INVERSE_QUADRIC:
            return np.divide(1.0, f, out=f)
        # _shared overwrote its own ar
        return f ** 4 * (4.0 * (self.alpha * r) + 1.0)

    @_radial
    def phi_prime(self, r):
        """d(phi)/dr; every kind carries a factor r, so phi'(0) = 0.  Only
        tests call it, as a finite-difference oracle (``test_kernels.py``,
        and c7 of ``test_acceptance.py``); ``perfbench/spans.py`` wraps it."""
        return self.psi(r) * r

    @_radial
    def phi_second(self, r):
        """d2(phi)/dr2 = psi(r) + eta(r) r^2, by the definition of eta; at
        r = 0 Wendland's eta is taken as 0, and phi''(0) = psi(0).  Only
        ``test_kernels.py``'s finite-difference and inflection-radius tests
        call it; ``perfbench/spans.py`` wraps it by name."""
        psi, eta = self.psi_eta(r)
        # Wendland's eta overflows where r < 60 a^3 / 1.8e308; eta r^2 <= 60 a^3 r
        # is far below an ulp of psi there
        with np.errstate(invalid="ignore"):
            return np.where(np.isinf(eta), psi, psi + eta * (r * r))

    def _shared(self, r):
        """The factor phi, psi and eta of each kind are built from:
          Gaussian         exp(-(ar)^2)
          inverse quadric  1+(ar)^2
          Wendland 3,1     (1-ar)_+
        computed in place in one new array.
        """
        u = self.alpha * r
        if self.kind is KernelKind.GAUSSIAN:
            u *= u
            return np.exp(np.negative(u, out=u), out=u)
        if self.kind is KernelKind.INVERSE_QUADRIC:
            u *= u
            u += 1.0
            return u
        return np.maximum(np.subtract(1.0, u, out=u), 0.0, out=u)

    @_radial
    def psi(self, r):
        """phi'(r)/r, continuously extended to r = 0: the first half of
        ``psi_eta``.

        Each kind reduces to a closed form with no division by r:
          Gaussian         -2 a^2 exp(-(ar)^2)
          inverse quadric  -2 a^2 (1+(ar)^2)^-2
          Wendland 3,1     -20 a^2 (1-ar)_+^3
        """
        return self.psi_eta(r)[0]

    @_radial
    def eta(self, r):
        """(phi''(r) r - phi'(r)) / r^3 = psi'(r)/r, the radial weight of the
        rank-one part of d/dx [psi(|x|) x] = eta(|x|) x x^T + psi(|x|) I: the
        second half of ``psi_eta``.

        Gaussian and inverse quadric have smooth closed forms:
          Gaussian         4 a^4 exp(-(ar)^2)
          inverse quadric  8 a^4 (1+(ar)^2)^-3
        Wendland's eta, 60 a^3 (1-ar)_+^2 / r, behaves like 60 a^3 / r near
        0; since it only ever multiplies the outer product (x-c)(x-c)^T,
        which vanishes quadratically there, the r = 0 value is taken as 0 so
        the Jacobian term stays finite.
        """
        return self.psi_eta(r)[1]

    @_radial
    def psi_eta(self, r):
        """psi(r) and eta(r) (see ``psi`` and ``eta``) from one evaluation of
        their shared factor f = ``_shared(r)``, which eta overwrites."""
        cpsi, ceta = self._coefficients()
        f = self._shared(r)
        if self.kind is KernelKind.GAUSSIAN:
            return cpsi * f, np.multiply(f, ceta, out=f)
        if self.kind is KernelKind.INVERSE_QUADRIC:
            q = f ** 2
            f **= 3
            return np.divide(cpsi, q, out=q), np.divide(ceta, f, out=f)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            eta = np.where(r > 0, ceta * f * f / np.where(r > 0, r, 1.0), 0.0)
        return cpsi * f ** 3, eta

    def psi_eta_nodes(self, ox2, oy2):
        """psi and eta at the offsets of points to the nodes of a 4x4 grid,
        from the squared offsets per axis: ox2 (4, ...) to the node columns
        and oy2 (4, ...) to the node rows.  Returns psi and eta as
        (4 rows, 4 cols, ...), r^2 = ox2[col] + oy2[row].

          Gaussian         exp(-a^2 ox2) exp(-a^2 oy2): 8 exp for 16 nodes
          inverse quadric  q = 1 + a^2 (ox2 + oy2), no square root
          Wendland 3,1     ``psi_eta`` of r = sqrt(ox2 + oy2), eta(0) = 0

        Every step is elementwise, so no value depends on the trailing shape.
        """
        ox2, oy2 = np.asarray(ox2, dtype=float), np.asarray(oy2, dtype=float)
        cpsi, ceta = self._coefficients()
        a2 = float(self.alpha) * float(self.alpha)
        if self.kind is KernelKind.GAUSSIAN:
            ex = np.exp(np.multiply(ox2, -a2))
            ey = np.exp(np.multiply(oy2, -a2))
            return (np.multiply(ey, cpsi)[:, None] * ex,
                    np.multiply(ey, ceta, out=ey)[:, None] * ex)
        if self.kind is KernelKind.INVERSE_QUADRIC:
            qy = np.multiply(oy2, a2)
            qy += 1.0
            p = np.add(qy[:, None], np.multiply(ox2, a2))
            np.divide(1.0, p, out=p)
            psi = np.multiply(p, p)
            eta = np.multiply(psi, p, out=p)
            psi *= cpsi
            eta *= ceta
            return psi, eta
        r = np.add(oy2[:, None], ox2)
        return self.psi_eta(np.sqrt(r, out=r))
