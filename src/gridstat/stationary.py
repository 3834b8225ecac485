"""Piecewise stationary-point sweep and duplicate reduction.

Every 4x4 window of the grid is interpolated with the shared patch matrix,
Newton's method with the analytic Jacobian is multistarted inside the
window's search domain, and the accepted roots are merged across windows by
anchored centroid reduction (merge radius = the grid diagonal d).

Each patch carries the code of its search domain (``_domain_code``), a row
of the constant table ``_DOMAINS``.  One engine, ``_search``, does the
per-patch work for any number of patches at once: it gathers each patch's
seed lattice from the constant table ``_SEEDS``, runs Newton
(``_newton_seeds``) clamped to the patch's bounding box, accepts converged
roots inside the domain with a small gradient and drops duplicates within
a patch.  Its one caller, ``sweep_full``, first hands the active patches
of the grid in fixed blocks of ``_BLOCK_PATCHES`` to ``_certify``, which
proves most of them root-free with a native-space bound on the gradient
(no seed in them could be accepted), and then hands the engine the rest,
again in fixed blocks, in order on one thread or through a thread pool on
several.  Every block size and thread count gives identical floating-point
results because the engine only uses elementwise operations and
fixed-order sums, and the certifier's BLAS products, whose bits can
depend on the block, only take the decisions an exact evaluation takes
alike.  Beyond the per-patch arrays it returns (the weights and constants,
17 doubles a patch) and a few per-patch integers, the sweep's working set
is threads x one block: each block gathers its samples from the grid, and
the flat-patch test reads running extrema of the grid (``_window_range``),
so no array of every window's samples is built.  The raw points leave it
as arrays (``SweepResult``), one row each in (i, j, seed) order, and the
reduction reads their positions and patches.

Both work in the patch frame: positions in grid-index units relative to the
patch's first node, so all patches of every grid share the nodes ``_OFFS``
and the box [0, 3]^2, lengths are measured against the index diagonal
``DIAG`` = sqrt(2), and values are in units of the field range R.  The frame
meets physical units at two points only, for positions and values alike:
``sweep_full`` solves for h / R and maps each accepted root xi of the patch
with first node n to the grid as origin + (n + xi) S, S = diag(dx, dy), and
``reduce_points`` maps each centroid back to evaluate and classify it and
multiplies its value by R.  Where the grid lies, its spacing and how its
values are scaled then do not change the search at all; merging stays in
physical units.  Newton's steps, the acceptance test, the certifier's
exact decisions and ``reduce_points`` (through ``PatchInterpolant``) take
every gradient and Hessian from ``_grad_jac``.  The certifier screens its
three coarsest levels with gradients from one BLAS product per domain code
of a table built once per sweep, and takes every decision the screen
cannot, and every one at the deeper levels, from ``_grad_jac`` at the
sub-box's center; it reads its gradient modulus G^, one value per domain
code and level, from a second table built with the first.

The engine and the certifier gather with ``take`` and ``compress``, never
with fancy or boolean indexing, and repeat with an integer division or a
broadcast and a copy instead of ``np.repeat``.  At their shapes
(thousands of points by 16 nodes) ``take`` is about 2.5 times as fast as
fancy indexing and ``compress`` up to 10 times as fast as a boolean mask;
fancy indexing and ``np.repeat`` also do not run in parallel on the pool's
threads, where ``take`` does.  Both read one weight layout, node-major
like ``_grad_jac``'s terms: ``sweep_full`` gathers each block's weights
once into a C-contiguous (16, P) copy, which the certifier, the engine and
the acceptance test read and from which ``_grad_jac`` gathers each
slice's columns.  The engine holds its live seeds as two coordinate
vectors, their patches and a ring (_CYCLE, 2, live), and compresses them
along the seeds only when seeds leave.  The certifier keeps each level's
pending sub-boxes as one bool mask (cells, L) over its live patches in
code order.  At its coarse levels each code's live patches are a range of
columns of their weights, which the code's (cells, 16) rows of the table
multiply into the (cells, P) gradients the mask's tests read whole; the
exact path hands ``_grad_jac`` the centers of the cells it evaluates and
their patches.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, field
from enum import Enum
from itertools import repeat

import numpy as np

from .grid import GridField, diag_step, neighbor_lists
from .kernels import Kernel, KernelKind
from .patch import DIAG, PatchInterpolant, PatchMatrix, _grad_jac, _gradient_sums, _offsets

log = logging.getLogger(__name__)

# lengths in the patch frame are in grid-index units, DIAG = sqrt(2) a cell's diagonal
_SINGULAR_DET = 1e-14  # |det J| threshold, relative to ||J||_F^2
_STEP_TOL = 1e-10      # Newton has converged once a pre-clamp step is <= this * DIAG
_GRAD_TOL_REL = 1e-8   # accepted roots have |grad| <= this * field range / DIAG
_DEDUP_RADIUS = 1e-3   # roots of one patch within this * DIAG are one root
_FLAT_PATCH = 1e-13    # patches with sample range <= this * field range are skipped
_SEEDS_PER_AXIS = 3    # _search lays an n x n lattice of Newton seeds in each search domain
_MAX_ITERATIONS = 30   # Newton's iteration cap
_CYCLE = 8             # a seed that returns to one of its last this many positions is stuck
_BLOCK_PATCHES = 2048  # sweep_full hands _search the active patches in blocks of this many
_CERTIFY_DEPTH = 5     # _certify halves a search domain at most this many times per axis
_DENSE_LEVELS = 3      # _certify screens levels 1 to this with _level_tables' products
_MARGIN = 2.0 ** -40   # relative rounding margin of the certificate's bounds (see _certify)
_BOX_DIAMETER = 3.0 * DIAG  # of the patch box [0, 3]^2
# alpha * r*: the gradient modulus G of each kernel rises up to r* and has
# its global maximum there (see _gradient_modulus)
_MODULUS_PEAK = {KernelKind.GAUSSIAN: math.sqrt(2.0),
                 KernelKind.INVERSE_QUADRIC: math.sqrt(2.0),
                 KernelKind.WENDLAND31: 0.6}


@dataclass(frozen=True)
class SeedCounts:
    """How the Newton seeds of a search ended (see ``_newton_seeds``);
    converged + singular + stuck + capped == launched.  ``excluded`` counts
    the patches certified root-free (see ``_certify``), which launch no
    seeds.  ``iterations`` counts seed evaluations, the Newton work; it is
    not an outcome and is left out of ``==``."""

    launched: int = 0
    converged: int = 0
    singular: int = 0
    stuck: int = 0
    capped: int = 0
    excluded: int = 0
    iterations: int = field(default=0, compare=False)

    def __add__(self, other: SeedCounts) -> SeedCounts:
        return SeedCounts(*(a + b for a, b in zip(astuple(self), astuple(other))))


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


def _domain_code(g: GridField, i, j):
    """The search-domain code ex + 4 ey of patches (i, j), 1-based integers
    or integer arrays.  On each axis bit 0 of e is set where the patch
    touches the grid's first node column (x) or row (y), bit 1 where it
    touches the last."""
    return (j == 1) + 2 * (j == g.nx - 3) + 4 * ((i == 1) + 2 * (i == g.ny - 3))


# the search domains in the patch frame, lo = _DOMAINS[code, 0] and hi =
# _DOMAINS[code, 1]: the central cell [1, 2]^2 widened by half a cell per
# side, with the widening replaced by extension to the grid boundary on
# the sides the patch touches
_E = (np.arange(16)[:, None] >> [0, 2]) & 3  # (ex, ey) of each code
_DOMAINS = np.stack([np.where(_E & 1, 0.0, 0.5), np.where(_E & 2, 3.0, 2.5)], axis=1)


def _seed_lattice(ns):
    """The Newton seeds of every domain code, (16, ns^2, 2): an ns x ns
    lattice strictly inside the domain, row-major (y outer)."""
    t = np.arange(1, ns + 1) / (ns + 1)
    lo, hi = _DOMAINS[:, 0], _DOMAINS[:, 1]
    fx = lo[:, 0, None] + (hi[:, 0] - lo[:, 0])[:, None] * t  # (16, ns)
    fy = lo[:, 1, None] + (hi[:, 1] - lo[:, 1])[:, None] * t
    return np.stack([np.tile(fx, ns), np.repeat(fy, ns, axis=1)], axis=-1)


_SEEDS = _seed_lattice(_SEEDS_PER_AXIS)  # the seeds _search starts from


# ---------------------------------------------------------------------------
# Newton engine (vectorized over seeds and patches)
# ---------------------------------------------------------------------------

def _newton_seeds(seeds, owner, weights, kernel):
    """Run Newton from every seed; returns the indices of the converged
    seeds (ascending), their positions and the ``SeedCounts``.

    Seed s starts at seeds[s] in the patch frame, in patch owner[s] of
    weights (16, P), node-major and C-contiguous, at the shared nodes
    ``_OFFS``, and the iterates are clamped to the box [0, 3]^2.
    It leaves the live set in one of four ways, counted in ``SeedCounts``:

    - converged: a pre-clamp Newton step of norm <= _STEP_TOL * DIAG;
    - singular: |det J| < _SINGULAR_DET * ||J||_F^2 at its position, or
      J is zero or its determinant is not finite;
    - stuck: its clamped update gave back, bit for bit and without
      converging, one of its last _CYCLE positions: an exact orbit of
      period 1 to _CYCLE (period 1 is a fixed point, typically a seed
      pushed against a box edge or corner).  ``_grad_jac`` is
      batch-invariant and the clamped map deterministic, so the seed would
      repeat that orbit up to the cap and never converge;
    - capped: still live after _MAX_ITERATIONS.

    The live seeds' indices, coordinates, patches and rings
    (_CYCLE, 2, live) are compact arrays, in the layout ``_grad_jac``
    takes, that shrink only when seeds leave; the weights are read as
    given, and ``_grad_jac`` gathers from them slice by slice.
    ``counts.iterations`` is the number of seed evaluations.
    """
    seeds = np.asarray(seeds, dtype=float)
    n = seeds.shape[0]
    px, py = seeds[:, 0].copy(), seeds[:, 1].copy()
    own = np.asarray(owner)  # the live seeds' patches
    # rx[s], ry[s] is seed s's root once it has converged
    rx, ry = np.empty(n), np.empty(n)
    converged = np.zeros(n, dtype=bool)
    live = np.arange(n)
    # ring[k % _CYCLE] holds iterate k; unwritten slots are NaN and match nothing
    ring = np.full((_CYCLE, 2, n), np.nan)
    ring[0, 0], ring[0, 1] = px, py
    step_tol = _STEP_TOL * DIAG
    singular = stuck = iterations = 0
    for it in range(_MAX_ITERATIONS):
        if live.size == 0:
            break
        iterations += live.size
        gx, gy, jxx, jxy, jyy = _grad_jac(px, py, weights, own, kernel)
        det = jxx * jyy - jxy * jxy
        frob2 = jxx * jxx + 2.0 * jxy * jxy + jyy * jyy
        # a zero Jacobian passes the relative test (0 >= 0) and would step 0/0
        ok = (frob2 > 0) & np.isfinite(det) & (np.abs(det) >= _SINGULAR_DET * frob2)
        if not ok.all():
            singular += live.size - int(np.count_nonzero(ok))
            live, own, px, py, gx, gy, jxx, jxy, jyy, det = (
                a.compress(ok) for a in (live, own, px, py, gx, gy, jxx, jxy, jyy, det))
            ring = ring.compress(ok, axis=2)
        sx = (jyy * gx - jxy * gy) / det
        sy = (jxx * gy - jxy * gx) / det
        px = np.minimum(np.maximum(px - sx, 0.0), 3.0)
        py = np.minimum(np.maximum(py - sy, 0.0), 3.0)
        done = np.sqrt(sx * sx + sy * sy) <= step_tol
        seen = (ring[:, 0] == px) & (ring[:, 1] == py)
        cyc = ~done & seen.any(axis=0)
        leave = done | cyc
        if leave.any():
            stuck += int(np.count_nonzero(cyc))
            root = live.compress(done)
            rx[root], ry[root] = px.compress(done), py.compress(done)
            converged[root] = True
            stay = ~leave
            live, own, px, py = (a.compress(stay) for a in (live, own, px, py))
            ring = ring.compress(stay, axis=2)
        ring[(it + 1) % _CYCLE, 0], ring[(it + 1) % _CYCLE, 1] = px, py
        # free this iteration's derivatives and steps before _grad_jac
        # allocates the next: the sweep's traced peak falls inside that call
        del gx, gy, jxx, jxy, jyy, det, frob2, sx, sy
    idx = np.flatnonzero(converged)
    counts = SeedCounts(launched=n, converged=idx.size, singular=singular,
                        stuck=stuck, capped=live.size, iterations=iterations)
    return idx, np.column_stack([rx.take(idx), ry.take(idx)]), counts


def _first_distinct(ok, xy, min_sep):
    """Which roots of P patches to keep, shape (P, n) bool.

    Root (p, s) lies at xy[p, s] (P,n,2) and was accepted where ok (P,n).
    It is kept when it was accepted and lies farther than min_sep from
    every kept root (p, t) with t < s, so the earliest seed wins.  The
    greedy test runs slot by slot, for all patches at once.
    """
    kept = np.zeros_like(ok)
    for s in range(ok.shape[1]):
        diff = xy[:, s, None, :] - xy[:, :s, :]
        far = np.hypot(diff[..., 0], diff[..., 1]) > min_sep
        kept[:, s] = ok[:, s] & (far | ~kept[:, :s]).all(axis=1)
    return kept


def _search(code, weights, kernel):
    """Stationary points of P patch interpolants, and the ``SeedCounts`` of
    their Newton runs.

    code (P,) holds the patches' search-domain codes (``_domain_code``) and
    weights (16, P), node-major and C-contiguous, the interpolants at the
    shared nodes ``_OFFS``, in units of the field range.  Each patch starts
    from the seeds ``_SEEDS`` of its code.  The kept roots are returned
    ordered by (patch, seed) as their patches (entries of code), seed slots
    and positions xi in the patch frame.
    """
    seeds = _SEEDS.take(code, axis=0)
    nseed = seeds.shape[1]
    lo, hi = _DOMAINS[:, 0], _DOMAINS[:, 1]
    npatch = len(code)
    owner = np.arange(npatch * nseed) // nseed

    idx, pos, counts = _newton_seeds(seeds.reshape(-1, 2), owner, weights, kernel)

    # accept converged roots inside their domain with a small gradient
    k = owner.take(idx)
    gx, gy, *_ = _grad_jac(pos[:, 0], pos[:, 1], weights, k, kernel)
    kc = code.take(k)
    inside = np.all((pos >= lo.take(kc, axis=0)) & (pos <= hi.take(kc, axis=0)), axis=-1)
    acc = inside & (np.sqrt(gx * gx + gy * gy) <= _GRAD_TOL_REL / DIAG)

    # drop duplicates within each patch, laid out as (patch, seed slot) over
    # the patches with an accepted root
    ok = np.zeros((npatch, nseed), dtype=bool)
    ok.flat[idx.compress(acc)] = True
    rows = np.flatnonzero(ok.any(axis=1))
    xy = np.zeros((npatch * nseed, 2))
    xy[idx] = pos
    xy = xy.reshape(-1, nseed, 2).take(rows, axis=0)
    kept = _first_distinct(ok.take(rows, axis=0), xy, _DEDUP_RADIUS * DIAG)
    r, si = np.nonzero(kept)
    return (rows.take(r), si, xy.reshape(-1, 2).take(r * nseed + si, axis=0)), counts


# ---------------------------------------------------------------------------
# Certified exclusion of root-free patches
# ---------------------------------------------------------------------------

def _gradient_modulus(kernel: Kernel, r):
    """A bound G^(r) >= G(rho) for every 0 <= rho <= r, where G is the
    kernel's native-space modulus of the gradient: for every s in the
    native space, |grad s(x) - grad s(y)| <= ||s||_N G(|x - y|), with

        G(rho)^2 = 2 (Lap Phi(rho) - Lap Phi(0)),  Lap Phi = 2 psi + eta rho^2.

    The derivative of s along an axis at x is the native-space inner
    product of s with a derivative of the kernel, and the squared norms of
    the differences of those functions at x and y, summed over both axes,
    make G^2 (Wendland, *Scattered Data Approximation*, 2005, chs. 10 and
    16).  G rises up to r* = _MODULUS_PEAK / alpha and has its global
    maximum there, so G^(r) = G(min(r, r*)), with margins for the rounding
    of psi, eta and the square root.
    """
    rho = np.minimum(r, _MODULUS_PEAK[kernel.kind] / kernel.alpha)
    lap0 = 2.0 * kernel.psi(0.0)
    g2 = 2.0 * (2.0 * kernel.psi(rho) + kernel.eta(rho) * rho * rho - lap0)
    return np.sqrt(np.maximum(g2, 0.0) + _MARGIN * abs(lap0)) * (1.0 + _MARGIN)


def _native_norm(weights, entries, alpha):
    """Upper bounds N >= ||s||_N of P patch interpolants, shape (P,).

    s is the RBF sum the engine evaluates: the float64 weights w (16, P) at
    the shared nodes ``_OFFS``, the offsets ``entries`` is built from, and
    ||s||_N^2 = w^T A w with A the kernel matrix of those nodes.

    q = w^T entries w is computed in float64 as sum_i w_i (sum_j entries_ij
    w_j): two nested 16-term sums of products.  Each of the
    256 terms w_i entries_ij w_j then carries at most 32 roundings (two
    products, at most 15 additions in each sum, whatever their order), so

        |q - w^T entries w| <= gamma_32 sum_ij |w_i| |entries_ij| |w_j|
                            <= gamma_32 (sum |w|)^2,

    because |entries_ij| <= phi(0) = 1 for every kernel; gamma_32 =
    32u / (1 - 32u), about 3.6e-15 with u = 2^-53 (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, ch. 3).  ``entries`` differs
    from A by the rounding of the kernel values, a few ulps of phi(0), and
    of the distances between the nodes.  The margin (sum |w|)^2 (_MARGIN +
    3 alpha delta) bounds all of it: _MARGIN = 2^-40 is about 250 gamma_32,
    3 alpha bounds |phi'| for every kernel and delta, 2 ulps of the patch's
    diameter, bounds the rounding of a distance (under 1.5 ulps).  A
    relative _MARGIN covers the square root and the rounding of the margin.
    """
    # einsum without optimize calls no BLAS, and over rows of 16 contiguous
    # weights each row's sums run in one fixed order whatever the number of
    # rows, so a patch's bound does not depend on its block.  Hence one
    # row-major copy: over the node-major columns, "jp,ij->ip", numpy sums
    # a block of one patch in another kernel, and N's bits move with P
    rows = np.ascontiguousarray(weights.T)
    q = (rows * np.einsum("pj,ij->pi", rows, entries)).sum(axis=-1)
    delta = 2.0 ** -51 * _BOX_DIAMETER
    l1 = np.abs(rows).sum(axis=-1)
    margin = l1 * l1 * (_MARGIN + 3.0 * alpha * delta)
    return np.sqrt(np.maximum(q, 0.0) + margin) * (1.0 + _MARGIN)


def _gradient_rounding(weights, kernel):
    """eps (P,): a bound on the rounding of a gradient and of its norm
    computed by ``_grad_jac`` anywhere in the box [0, 3]^2 of the nodes
    ``_OFFS``, for weights (16, P).

    The gradient is sum_m c_m psi(r_m) (x - x_m), and each term is at most
    |c_m| |psi(0)| times the box diameter: |psi| peaks at 0 for every
    kernel.  psi's absolute error is a few ulps of |psi(0)| even where its
    argument's relative error is amplified (|t exp(-t)| <= 1/e), and the
    products and the 16-term sums add a few ulps of the terms' sum, so
    _MARGIN (2^13 ulps) times that sum bounds the error.
    """
    return _MARGIN * _gradient_sums(np.abs(weights)) * abs(kernel.psi(0.0)) * _BOX_DIAMETER


def _sub_box_centers(code, cell, level):
    """The centers x0 of sub-boxes as their coordinates x, y (n,).

    Sub-box s is cell cell[s] = iy side + ix, the cell (ix, iy) of the
    side x side split of the search domain code[s], [lo, hi], side = 2^level,
    and x0 = lo + (hi - lo) (ix + 1/2, iy + 1/2) / side is exact: every bound
    and width of a domain is a multiple of 1/2 and every side a power of two.
    """
    side = 2 ** level
    iy, ix = np.divmod(cell, side)
    lo, width = _DOMAINS[:, 0], _DOMAINS[:, 1] - _DOMAINS[:, 0]
    return [lo[:, a].take(code) + width[:, a].take(code) * ((i + 0.5) / side)
            for a, i in enumerate((ix, iy))]


def _level_tables(kernel):
    """The tables ``_certify`` reads, built once per sweep for the
    certifier's pass only: for levels 1 to _DENSE_LEVELS, the rows psi ox
    and psi oy of every cell of the 16 domain codes, the terms of the
    gradient at the cell's center (``_sub_box_centers``) with ox, oy its
    offsets to the nodes, two (16 side^2, 16) matrices per level (1,344
    sub-boxes in all, 344 KB; code c and cell j in row c side^2 + j), and
    G^ (_CERTIFY_DEPTH, 16).  A code's sub-boxes at a level are one exact
    box with half-widths (hi - lo) / 2^(level + 1), so G^[level - 1, c]
    is the modulus at its half-diagonal."""
    tables = []
    for level in range(1, _DENSE_LEVELS + 1):
        ncell = 4 ** level
        key = np.arange(16 * ncell)
        ox, oy, dist = _offsets(*_sub_box_centers(key // ncell, key % ncell, level))
        psi = kernel.psi(dist)
        tables.append((np.ascontiguousarray((psi * ox).T), np.ascontiguousarray((psi * oy).T)))
    levels = np.arange(1, _CERTIFY_DEPTH + 1)[:, None]
    half = (_DOMAINS[:, 1] - _DOMAINS[:, 0]) / 2.0 ** (levels[..., None] + 1)  # (depth, 16, 2)
    r = np.hypot(half[..., 0], half[..., 1]) * (1.0 + _MARGIN)
    return tables, _gradient_modulus(kernel, r)


def _table_gradients(code, weights, table):
    """gx, gy (cells, P) of every cell of a level of P patches, from its
    ``_level_tables`` entry; code (P,) is sorted.

    The patches of one domain code share every sub-box of the level, so
    the gradients of all cells of a code's patches are one matrix product
    per axis: the code's (cells, 16) rows of psi ox or psi oy times the
    patches' columns of the weights (16, P).  BLAS sums the 16 terms in an
    order of its own, which can depend on P, so these gradients only screen
    (``_screen_margin``).
    """
    ax, ay = table
    ncell = len(ax) // 16
    bounds = np.searchsorted(code, np.arange(17))
    gx, gy = np.empty((ncell, len(code))), np.empty((ncell, len(code)))
    for c in np.flatnonzero(bounds[1:] > bounds[:-1]):
        keys, p = slice(c * ncell, (c + 1) * ncell), slice(bounds[c], bounds[c + 1])
        np.matmul(ax[keys], weights[:, p], out=gx[:, p])
        np.matmul(ay[keys], weights[:, p], out=gy[:, p])
    return gx, gy


def _screen_margin(eps):
    """delta (P,): a bound on the difference between the slack
    ``_certify`` computes from a ``_table_gradients`` gradient and the one
    it computes from ``_grad_jac``'s at the same center, given the
    patches' rounding bounds eps (``_gradient_rounding``).

    Both gradients sum the 16 terms c_m psi(r_m) (x0 - x_m), with two
    roundings each, of the same psi and offsets; BLAS in its own order,
    perhaps with fused multiply-adds.  eps counts 2^13 ulps of
    S = sum |c| |psi(0)| (box diameter) against a few dozen that any order
    of the products and sums takes, so both computed norms n lie within
    eps of |grad s(x0)|, and within 2 eps of each other.  The slack
    ((n - eps) - tol_g) - eps rounds three times, each time by at most
    u = 2^-53 of a result below S + 3 eps + tol_g, since n <= S + eps.  So
    the two slacks differ by at most

        2 eps + 6u (S + 3 eps + tol_g) < (2 + 2^-10) eps + 6u tol_g,

    because 6u S is 3 2^-12 eps, S = 2^40 eps up to the rounding of eps.
    delta = (2 + 2^-9) eps + 2^-50 tol_g exceeds it by far more than its
    own rounding.  An infinite or NaN eps gives an infinite or NaN delta,
    which screens nothing.
    """
    return (2.0 + 2.0 ** -9) * eps + 2.0 ** -50 * (_GRAD_TOL_REL / DIAG)


def _certify(code, weights, entries, tables, kernel):
    """Which of P patches are certified root-free, shape (P,) bool.

    A certified patch has a computed |grad s| > tol_g = _GRAD_TOL_REL / DIAG
    everywhere in its search domain, so ``_search`` could accept no root in
    it; code, weights and kernel are those ``_search`` gets, entries is the
    kernel matrix of the nodes and tables the ``_level_tables`` of the
    kernel.  The domain is cut into 2x2 sub-boxes, and a sub-box with
    center x0 and half-diagonal r is certified when

        |g(x0)| - eps > N G^(r) + tol_g + eps,

    with g the gradient ``_grad_jac`` computes, N >= ||s||_N
    (``_native_norm``), G^ the gradient modulus (``_gradient_modulus``) and
    eps the rounding bound of ``_gradient_rounding``: then every x in the
    sub-box has an exact |grad s(x)| > tol_g + eps and a computed one
    > tol_g.  Only a test that holds certifies: a NaN bound or gradient
    fails it.  A sub-box that fails is cut into 2x2 again, down to
    _CERTIFY_DEPTH halvings; a patch is certified when all its sub-boxes
    are.  A sub-box whose center fails the test even with the deepest
    level's bound ends its patch's certification at once: its deepest
    sub-boxes around that center would almost surely fail too, and
    refining costs up to 4^depth evaluations.  Every decision depends on
    its own patch only.

    A sub-box is fixed by its patch's domain code (the patches share their
    nodes) and its cell at the level, and most patches share one of a few
    codes.  A level's pending sub-boxes are a bool mask (side^2, L) over
    the live patches, those with a pending cell, in code order; each failed
    cell is pending 2x2 at the next level.  At levels 1 to _DENSE_LEVELS
    (4, 16 and 64 cells), where most sub-boxes are tested, the gradients of
    every cell of the live patches come from one matrix product per code
    and axis (``_table_gradients``).  A filtered predicate (Shewchuk,
    *Discrete Comput. Geom.* 18, 1997) decides with them: a pending
    sub-box whose finite slack lies farther than delta (``_screen_margin``)
    from both its bounds gets the decision ``_grad_jac``'s slack would
    give, and every other pending sub-box, like every pending one at the
    deeper levels, is evaluated exactly: ``_grad_jac`` at its center
    (``_sub_box_centers``), in chunks of _BLOCK_PATCHES sub-boxes.  Every
    test uses the same N G^, so every decision is the one a per-sub-box
    evaluation gives, whatever the BLAS.
    """
    dense, ghat = tables
    tol_g = _GRAD_TOL_REL / DIAG
    bound = _native_norm(weights, entries, kernel.alpha) * ghat.take(code, axis=1)
    eps = _gradient_rounding(weights, kernel)
    delta = _screen_margin(eps)

    def slack(gx, gy, k, level):
        # |g| - eps - tol_g - eps of sub-boxes of patches k, in place of gx,
        # and their bounds N G^ at this level and the deepest
        e = eps.take(k)
        np.multiply(gx, gx, out=gx)
        gx += np.multiply(gy, gy, out=gy)
        s = np.sqrt(gx, out=gx)
        s -= e
        s -= tol_g
        s -= e
        return s, bound.take([level - 1, -1], axis=0).take(k, axis=1)

    failed = np.zeros(len(code), dtype=bool)
    live = np.argsort(code, kind="stable")
    pending = np.ones((4, live.size), dtype=bool)  # cell iy side + ix of each live patch
    for level in range(1, _CERTIFY_DEPTH + 1):
        if level <= len(dense):
            gx, gy = _table_gradients(code.take(live), weights.take(live, axis=1),
                                      dense[level - 1])
            s, b = slack(gx, gy, live, level)
            d = delta.take(live)
            # NaN and inf slacks, and those within delta of a bound, are not
            # screened; rounding is monotone, so s > fl(b + delta) puts s
            # above b + delta exactly, and s < fl(b - delta) below b - delta
            near = ~(s < np.inf)
            for bb in b:
                near |= ~((s > bb + d) | (s < bb - d))
            split, stop = ~(s > b[0]) & pending, ~(s > b[1]) & pending
            exact = np.flatnonzero(near & pending)
        else:
            split, stop = np.zeros_like(pending), np.zeros_like(pending)
            exact = np.flatnonzero(pending)
        for c0 in range(0, exact.size, _BLOCK_PATCHES):
            pc = exact[c0:c0 + _BLOCK_PATCHES]
            cell, col = np.divmod(pc, live.size)
            k = live.take(col)
            x, y = _sub_box_centers(code.take(k), cell, level)
            gx, gy, *_ = _grad_jac(x, y, weights, k, kernel)
            s, b = slack(gx, gy, k, level)
            split.put(pc, ~(s > b[0]))
            stop.put(pc, ~(s > b[1]))
        # at the deepest level every failed sub-box has failed its patch
        dead = stop.any(axis=0)
        failed.put(live.compress(dead), True)
        keep = split.any(axis=0) & ~dead
        live = live.compress(keep)
        if live.size == 0:
            break
        side = 2 ** level
        split = split.compress(keep, axis=1).reshape(side, 1, side, 1, live.size)
        pending = np.broadcast_to(split, (side, 2, side, 2, live.size)).reshape(-1, live.size)
    return ~failed


# ---------------------------------------------------------------------------
# Full sweep
# ---------------------------------------------------------------------------

def _window_range(v):
    """max - min of the 16 samples of every 4x4 window of the (ny, nx) grid
    v, shape (ny - 3, nx - 3): running maxima and minima over 2, then 4
    rows, then the same over columns.  Both are exact, so the range has the
    bits of the window's own max - min."""
    ext = []
    for f in (np.maximum, np.minimum):
        b = f(v[:-1], v[1:])
        b = f(b[:-2], b[2:])
        b = f(b[:, :-1], b[:, 1:])
        ext.append(f(b[:, :-2], b[:, 2:]))
    return ext[0] - ext[1]


@dataclass
class SweepResult:
    """Raw points as arrays, plus the per-patch interpolation data needed downstream."""

    raw: np.ndarray            # (n, 2) float64, the raw points on the grid
    raw_patch: np.ndarray      # (n, 2) int, their patches (i, j), 1-based
    raw_seed: np.ndarray       # (n,) int, their seed slots
    matrix: PatchMatrix
    weights: np.ndarray        # (npatch, 16) float64, in units of the field range
    constants: np.ndarray      # (npatch,) float64, the interpolants' constant terms, alike
    grid: GridField
    flat_patches: np.ndarray   # (k, 2) int, the patches (i, j) skipped as flat
    seed_counts: SeedCounts    # summed over the patch blocks

    def interpolant(self, i, j) -> PatchInterpolant:
        """The interpolant of patch (i, j), 1-based, in the patch frame (the
        nodes ``_OFFS``, grid-index units, values in units of the field
        range).  Given integer arrays i, j of one shape (R,), one stacked
        interpolant of those R patches: weights (R,16) and constant (R,)."""
        i, j = np.asarray(i), np.asarray(j)
        outside = (i < 1) | (i > self.grid.ny - 3) | (j < 1) | (j > self.grid.nx - 3)
        if outside.any():
            k = np.argmax(outside)
            raise IndexError(f"patch ({i.flat[k]},{j.flat[k]}) outside valid range")
        pidx = (i - 1) * (self.grid.nx - 3) + (j - 1)
        return PatchInterpolant(weights=self.weights[pidx], kernel=self.matrix.kernel,
                                constant=self.constants[pidx])


def sweep_full(g: GridField, kernel: Kernel, *, threads: int = 1) -> SweepResult:
    """All raw stationary points of the grid, ordered by (i, j, seed), with
    the per-patch interpolation data.  The kernel's shape parameter is per
    grid-index unit (``run_pipeline`` converts a physical one); the raw
    points are on the grid, in its physical units.  The weights are solved
    for h over the field range R, |h| / R <= 2^53, so only the matrix can
    overflow them (FactorizationError); a constant field solves nothing.
    threads, the size of the thread pool, is an int >= 1 (ValueError)."""
    if isinstance(threads, bool) or not isinstance(threads, (int, np.integer)) or threads < 1:
        raise ValueError(f"threads must be an int >= 1, got {threads!r}")
    npi, npj = g.ny - 3, g.nx - 3
    npatch = npi * npj
    field_range = g.field_range

    matrix = PatchMatrix(kernel)
    weights, constants = np.zeros((npatch, 16)), np.zeros(npatch)

    patches = np.column_stack(np.divmod(np.arange(npatch), npj)) + 1  # (i, j), 1-based
    code = _domain_code(g, patches[:, 0], patches[:, 1])
    # the offsets of a window's 16 samples in the flat grid, node m = 4 row + col
    nodes = (np.arange(4)[:, None] * g.nx + np.arange(4)).ravel()

    active = _window_range(g.grid2d()).ravel() > _FLAT_PATCH * field_range
    flat = patches.compress(~active, axis=0)

    act = np.flatnonzero(active)
    origin, spacing = np.array(g.origin), np.array([g.dx, g.dy])

    def solve(b0: int):
        blk = slice(b0, b0 + _BLOCK_PATCHES)
        first = (patches[blk, 0] - 1) * g.nx + patches[blk, 1] - 1  # each window's first node
        h = g.values.take(first[:, None] + nodes)
        weights[blk], constants[blk] = matrix.solve(h / field_range)

    def columns(block: np.ndarray):
        # a block's codes and its one node-major copy of the weights, (16, P)
        return code.take(block), np.ascontiguousarray(weights.take(block, axis=0).T)

    def certify(block: np.ndarray, tables):
        return _certify(*columns(block), matrix.entries, tables, kernel)

    def search(block: np.ndarray):
        (k, slot, xi), counts = _search(*columns(block), kernel)
        return block.take(k), slot, xi, counts

    def blocks(idx: np.ndarray):
        return [idx[b0:b0 + _BLOCK_PATCHES] for b0 in range(0, idx.size, _BLOCK_PATCHES)]

    # fixed-size blocks bound the working set and do not depend on the
    # thread count; map keeps them in order, and the weight blocks
    # write disjoint rows.  The patches certified root-free are dropped and
    # the rest cut into blocks again.
    with ThreadPoolExecutor(max_workers=threads) as pool:
        each = map if threads == 1 else pool.map
        if field_range > 0:
            list(each(solve, range(0, npatch, _BLOCK_PATCHES)))
        # the level tables live through this pass only: the search, whose
        # Newton temporaries set the sweep's peak memory, does not hold them
        root_free = np.concatenate([np.zeros(0, dtype=bool), *each(
            certify, blocks(act), repeat(_level_tables(kernel)))])
        parts = list(each(search, blocks(act[~root_free])))
    # a first part without roots counts the certified patches and shapes an empty sweep
    k, slot, xi, counts = zip((np.zeros(0, int), np.zeros(0, int), np.zeros((0, 2)),
                               SeedCounts(excluded=int(np.count_nonzero(root_free)))), *parts)
    ij = patches.take(np.concatenate(k), axis=0)
    # the one map from the patch frame to the grid; (j - 1, i - 1) is the first node
    raw = origin + (ij[:, ::-1] - 1 + np.concatenate(xi)) * spacing
    counts = sum(counts, SeedCounts())
    log.debug("%d flat patches skipped, %d certified root-free; Newton seeds: %d launched, "
              "%d converged, %d singular, %d stuck, %d capped; %d seed evaluations",
              len(flat), counts.excluded, counts.launched, counts.converged,
              counts.singular, counts.stuck, counts.capped, counts.iterations)

    return SweepResult(raw=raw, raw_patch=ij, raw_seed=np.concatenate(slot), matrix=matrix,
                       weights=weights, constants=constants, grid=g, flat_patches=flat,
                       seed_counts=counts)


# ---------------------------------------------------------------------------
# Reduction of duplicates
# ---------------------------------------------------------------------------

_BY_CODE = (Classification.SADDLE, Classification.MINIMUM, Classification.MAXIMUM,
            Classification.DEGENERATE)


def classify(lam: np.ndarray) -> list[Classification]:
    """Classify points by the signs of their Hessian eigenvalues lam (n, 2),
    in units of the field range; a point with an eigenvalue below 1e-9 in
    magnitude is degenerate."""
    lam = np.asarray(lam, float)
    degenerate = (np.abs(lam) < 1e-9).any(axis=1)
    code = np.where(degenerate, 3, np.where((lam > 0).all(axis=1), 1,
                                            np.where((lam < 0).all(axis=1), 2, 0)))
    return [_BY_CODE[c] for c in code.tolist()]


def reduce_points(raw: np.ndarray, patch: np.ndarray,
                  sweep: SweepResult) -> list[StationaryPoint]:
    """Anchored centroid reduction of the raw points raw (n, 2) in the
    patches patch (n, 2), as ``SweepResult`` holds them: repeatedly take the
    first remaining point, merge everything within the grid's diagonal step
    d of *it* (anchor semantics), and emit the centroid.  A point with a
    non-finite coordinate is within d of nothing and leaves alone.

    Value and classification come from the interpolant of each cluster's
    first member's patch, stacked over the anchors' patches, at the
    centroid's position in that patch's frame, xi = S^-1 (x - origin) - n,
    S = diag(dx, dy) and n the patch's first node; the value is that
    interpolant's, in units of the field range, times the range.  The class
    comes from the eigenvalues of D^-1 H_xi D^-1 with D = S / d: the
    physical Hessian S^-1 H_xi S^-1 times d^2, which has the same signs
    (Sylvester's law of inertia) but cannot overflow (``classify``).
    """
    g = sweep.grid
    d = diag_step(g)
    near = neighbor_lists(raw, d)
    taken = [False] * len(raw)
    clusters = []
    for a in range(len(raw)):
        if not taken[a]:
            cluster = [a] + [c for c in near[a] if c > a and not taken[c]]
            for c in cluster:
                taken[c] = True
            clusters.append(cluster)
    if not clusters:
        return []
    centroids = [raw[c].mean(axis=0) for c in clusters]
    anchors = patch.take([c[0] for c in clusters], axis=0)  # (i, j), 1-based
    spacing = np.array([g.dx, g.dy])
    xi = (np.array(centroids) - g.origin) / spacing - (anchors[:, ::-1] - 1)
    interp = sweep.interpolant(anchors[:, 0], anchors[:, 1])
    values = (interp(xi) * g.field_range).tolist()
    dinv = d / spacing
    lam = np.linalg.eigvalsh(interp.gradient_jacobian(xi) * np.outer(dinv, dinv))
    classes = classify(lam)
    return [StationaryPoint(position=p, value=v, classification=k, members_merged=len(c))
            for p, v, k, c in zip(centroids, values, classes, clusters)]
