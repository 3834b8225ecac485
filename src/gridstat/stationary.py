"""Piecewise stationary-point sweep and duplicate reduction.

Every 4x4 window of the grid is interpolated with the shared patch matrix,
Newton's method with the analytic Jacobian is multistarted inside the
window's search domain, and the accepted roots are merged across windows by
anchored centroid reduction (merge radius = the grid diagonal d).

One engine, ``_search``, does the per-patch work for any number of patches
at once: it lays the seed lattice in each search domain, runs Newton
clamped to the patch's bounding box, accepts converged roots inside the
domain with a small gradient, and drops duplicates within a patch.  It has
two callers: ``sweep_full`` hands it every active patch of the grid (one
slice per thread), and ``find_patch_stationary`` hands it a single patch.
Both give identical floating-point results because the engine only uses
elementwise operations and fixed-order row sums.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .grid import GridField, diag_step
from .kernels import Kernel
from .patch import PatchInterpolant, PatchMatrix, _grad_jac, patch_offsets

log = logging.getLogger(__name__)

# d is the grid's diagonal step (the patch's own for a lone patch)
_SINGULAR_DET = 1e-14  # |det J| threshold, relative to ||J||_F^2
_STEP_TOL = 1e-10      # Newton has converged once a pre-clamp step is <= this * d
_GRAD_TOL_REL = 1e-8   # accepted roots have |grad| <= this * field range / d
_DEDUP_RADIUS = 1e-3   # roots of one patch within this * d are one root
_FLAT_PATCH = 1e-13    # patches with sample range <= this * field range are skipped


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the per-patch Newton search."""

    seeds_per_axis: int = 3
    max_iterations: int = 30

    def __post_init__(self):
        if self.seeds_per_axis < 2:
            raise ValueError("seeds_per_axis must be at least 2")
        if not self.max_iterations > 0:
            raise ValueError("max_iterations must be positive")


@dataclass(frozen=True)
class SearchDomain:
    """Axis-aligned box in which roots of one patch are accepted."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, float))
        object.__setattr__(self, "hi", np.asarray(self.hi, float))
        if not np.all(self.lo < self.hi):
            raise ValueError("search domain must have lo < hi componentwise")

    def contains(self, x) -> np.ndarray:
        x = np.asarray(x, float)
        return np.all((x >= self.lo) & (x <= self.hi), axis=-1)


@dataclass(frozen=True, eq=False)
class RawStationaryPoint:
    position: np.ndarray  # (2,)
    patch: tuple[int, int]  # (i, j), 1-based
    seed_index: int


class Classification(Enum):
    MINIMUM = "minimum"
    MAXIMUM = "maximum"
    SADDLE = "saddle"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class StationaryPoint:
    position: np.ndarray  # (2,)
    value: float
    classification: Classification
    members_merged: int


def _domain_bounds(g: GridField, i, j) -> tuple[np.ndarray, np.ndarray]:
    """Bounds lo, hi of shape (..., 2) of the search domains of patches
    (i, j), 1-based integers or integer arrays.  Each domain is the central
    cell widened by half a spacing per side, with the widening replaced by
    extension to the grid boundary on sides where the patch touches it."""
    x0, y0 = g.origin
    lo_x = np.where(j == 1, x0, x0 + j * g.dx - g.dx / 2)
    hi_x = np.where(j == g.nx - 3, x0 + (g.nx - 1) * g.dx,
                    x0 + (j + 1) * g.dx + g.dx / 2)
    lo_y = np.where(i == 1, y0, y0 + i * g.dy - g.dy / 2)
    hi_y = np.where(i == g.ny - 3, y0 + (g.ny - 1) * g.dy,
                    y0 + (i + 1) * g.dy + g.dy / 2)
    return np.stack([lo_x, lo_y], axis=-1), np.stack([hi_x, hi_y], axis=-1)


def patch_domain(g: GridField, i: int, j: int) -> SearchDomain:
    """Search domain of patch (i, j), 1-based."""
    if not (1 <= i <= g.ny - 3 and 1 <= j <= g.nx - 3):
        raise IndexError(f"patch ({i},{j}) outside valid range")
    return SearchDomain(*_domain_bounds(g, i, j))


# ---------------------------------------------------------------------------
# Newton engine (vectorized over seeds and patches)
# ---------------------------------------------------------------------------

def _newton_seeds(seeds, centers, weights, kernel, bbox_lo, bbox_hi, cfg, d):
    """Run Newton from every seed; returns (positions, converged mask).

    Iterates are clamped to the patch bounding box [bbox_lo, bbox_hi];
    convergence is a pre-clamp Newton step of norm <= _STEP_TOL * d.
    Seeds hitting a singular Jacobian or the iteration cap are dropped.
    """
    x = np.array(seeds, dtype=float)
    n = x.shape[0]
    alive = np.ones(n, dtype=bool)
    converged = np.zeros(n, dtype=bool)
    step_tol = _STEP_TOL * d
    for _ in range(cfg.max_iterations):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        gx, gy, jxx, jxy, jyy = _grad_jac(x[idx], centers[idx], weights[idx], kernel)
        det = jxx * jyy - jxy * jxy
        frob2 = jxx * jxx + 2.0 * jxy * jxy + jyy * jyy
        ok = np.abs(det) >= _SINGULAR_DET * frob2
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


def _search(lo, hi, centers, weights, patches, kernel, cfg, d, tol_g):
    """Stationary points of P patch interpolants, ordered by (patch, seed).

    lo, hi (P,2) are the search domains, centers (P,16,2) and weights
    (P,16) the interpolants, patches (P,2) their 1-based (i, j).  Seeds form
    an n x n lattice strictly inside each domain, row-major (y outer);
    Newton iterates are clamped to the patch's bounding box.
    """
    ns = cfg.seeds_per_axis
    nseed = ns * ns
    t = np.arange(1, ns + 1) / (ns + 1)
    fx = lo[:, 0, None] + (hi[:, 0] - lo[:, 0])[:, None] * t  # (P, ns)
    fy = lo[:, 1, None] + (hi[:, 1] - lo[:, 1])[:, None] * t
    seeds = np.stack([np.tile(fx, ns), np.repeat(fy, ns, axis=1)], axis=-1)

    pos, conv = _newton_seeds(seeds.reshape(-1, 2),
                              np.repeat(centers, nseed, axis=0),
                              np.repeat(weights, nseed, axis=0), kernel,
                              np.repeat(centers.min(axis=1), nseed, axis=0),
                              np.repeat(centers.max(axis=1), nseed, axis=0), cfg, d)

    # accept converged roots inside their domain with a small gradient
    s = np.flatnonzero(conv)
    owner = s // nseed
    gx, gy, *_ = _grad_jac(pos[s], centers[owner], weights[owner], kernel)
    inside = np.all((pos[s] >= lo[owner]) & (pos[s] <= hi[owner]), axis=-1)
    acc = s[inside & (np.sqrt(gx * gx + gy * gy) <= tol_g)]

    # drop duplicates within each patch, keeping the earliest seed
    min_sep = _DEDUP_RADIUS * d
    out: list[RawStationaryPoint] = []
    keep: list[np.ndarray] = []
    prev = -1
    for seed in acc:
        k, si = divmod(int(seed), nseed)
        if k != prev:
            keep, prev = [], k
        p = pos[seed]
        if all(np.hypot(p[0] - q[0], p[1] - q[1]) > min_sep for q in keep):
            keep.append(p)
            out.append(RawStationaryPoint(
                position=p, patch=(int(patches[k, 0]), int(patches[k, 1])),
                seed_index=si))
    return out


def find_patch_stationary(p: PatchInterpolant, dom: SearchDomain,
                          cfg: SolverConfig = SolverConfig(),
                          field_range: float | None = None,
                          d: float | None = None,
                          patch: tuple[int, int] = (1, 1)) -> list[RawStationaryPoint]:
    """Stationary points of one patch interpolant inside its search domain.

    ``field_range`` and ``d`` default to the patch's own sample range and
    center-diagonal step; ``sweep_full`` uses the global values instead.
    """
    centers = np.asarray(p.centers, float)
    if d is None:
        dx = (centers[:, 0].max() - centers[:, 0].min()) / 3.0
        dy = (centers[:, 1].max() - centers[:, 1].min()) / 3.0
        d = float(np.hypot(dx, dy))
    h = np.asarray(p(centers), float)
    patch_range = float(h.max() - h.min())
    if field_range is None:
        field_range = patch_range
    if field_range <= 0 or patch_range <= _FLAT_PATCH * field_range:
        log.debug("flat patch skipped (sample range %.3g of field range %.3g)",
                  patch_range, field_range)
        return []
    return _search(dom.lo[None], dom.hi[None], centers[None],
                   np.asarray(p.weights, float)[None], np.array([patch]),
                   p.kernel, cfg, d, _GRAD_TOL_REL * field_range / d)


# ---------------------------------------------------------------------------
# Full sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    """Raw points plus the per-patch interpolation data needed downstream."""

    raw: list[RawStationaryPoint]
    matrix: PatchMatrix
    weights: np.ndarray        # (npatch, 16) float64
    constants: np.ndarray      # (npatch,) float64, the interpolants' constant terms
    patch_origins: np.ndarray  # (npatch, 2)
    grid: GridField
    flat_patches: list[tuple[int, int]]

    def interpolant(self, i: int, j: int) -> PatchInterpolant:
        pidx = (i - 1) * (self.grid.nx - 3) + (j - 1)
        centers = self.patch_origins[pidx] + patch_offsets(self.grid.dx, self.grid.dy)
        return PatchInterpolant(centers=centers, weights=self.weights[pidx],
                                kernel=self.matrix.kernel,
                                constant=float(self.constants[pidx]))


def sweep_full(g: GridField, kernel: Kernel, cfg: SolverConfig = SolverConfig(),
               threads: int = 1) -> SweepResult:
    """All raw stationary points of the grid, ordered by (i, j, seed), with
    the per-patch interpolation data."""
    npi, npj = g.ny - 3, g.nx - 3
    npatch = npi * npj
    d = diag_step(g)
    field_range = g.field_range
    tol_g = _GRAD_TOL_REL * field_range / d

    matrix = PatchMatrix(kernel, g.dx, g.dy)
    windows = np.lib.stride_tricks.sliding_window_view(g.grid2d(), (4, 4))
    h = windows.reshape(npi, npj, 16).reshape(npatch, 16)
    weights, constants = (np.asarray(x, dtype=float) for x in matrix.solve(h))

    ii, jj = np.divmod(np.arange(npatch), npj)  # 0-based patch row/col
    origins = np.column_stack([g.origin[0] + jj * g.dx, g.origin[1] + ii * g.dy])
    patches = np.column_stack([ii + 1, jj + 1])
    lo, hi = _domain_bounds(g, patches[:, 0], patches[:, 1])

    patch_range = h.max(axis=1) - h.min(axis=1)
    active = (field_range > 0) & (patch_range > _FLAT_PATCH * field_range)
    flat = [(int(i), int(j)) for i, j in patches[~active]]
    if flat:
        log.debug("%d flat patches skipped", len(flat))

    act = np.flatnonzero(active)
    centers = origins[act][:, None, :] + patch_offsets(g.dx, g.dy)[None, :, :]

    def run(sl: slice):
        pat = act[sl]
        return _search(lo[pat], hi[pat], centers[sl], weights[pat], patches[pat],
                       kernel, cfg, d, tol_g)

    nthreads = max(1, int(threads))
    if nthreads == 1 or act.size == 0:
        raw = run(slice(0, act.size))
    else:
        chunk = -(-act.size // nthreads)
        slices = [slice(s0, min(s0 + chunk, act.size))
                  for s0 in range(0, act.size, chunk)]
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            parts = list(pool.map(run, slices))
        raw = [p for part in parts for p in part]

    return SweepResult(raw=raw, matrix=matrix, weights=weights,
                       constants=constants, patch_origins=origins, grid=g,
                       flat_patches=flat)


# ---------------------------------------------------------------------------
# Reduction of duplicates
# ---------------------------------------------------------------------------

def classify(jac: np.ndarray, scale: float) -> Classification:
    """Classify by Hessian eigenvalue signs; near-zero eigenvalues (below
    1e-9 * scale) make the point degenerate."""
    lam = np.linalg.eigvalsh(np.asarray(jac, float))
    if np.any(np.abs(lam) < 1e-9 * scale):
        return Classification.DEGENERATE
    if np.all(lam > 0):
        return Classification.MINIMUM
    if np.all(lam < 0):
        return Classification.MAXIMUM
    return Classification.SADDLE


def reduce_points(raw: list[RawStationaryPoint], d: float,
                  interpolant_for=None,
                  hessian_scale: float | None = None) -> list[StationaryPoint]:
    """Anchored centroid reduction: repeatedly take the first remaining
    point, merge everything within d of *it* (anchor semantics), and emit
    the centroid.  Value and classification come from the patch interpolant
    of the cluster's first member when ``interpolant_for(i, j)`` is given.
    """
    remaining = list(raw)
    out = []
    while remaining:
        anchor = remaining[0]
        ap = np.asarray(anchor.position, float)
        cluster = [r for r in remaining
                   if np.hypot(*(np.asarray(r.position, float) - ap)) <= d]
        remaining = [r for r in remaining if r not in cluster]
        centroid = np.mean([np.asarray(r.position, float) for r in cluster], axis=0)
        if interpolant_for is not None:
            interp = interpolant_for(*anchor.patch)
            value = float(interp(centroid))
            jac = interp.gradient_jacobian(centroid)
            scale = hessian_scale
            if scale is None:
                scale = max(float(np.abs(np.linalg.eigvalsh(jac)).max()), 1.0)
            cls = classify(jac, scale)
        else:
            value = float("nan")
            cls = Classification.DEGENERATE
        out.append(StationaryPoint(position=centroid, value=value,
                                   classification=cls, members_merged=len(cluster)))
    return out
