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
results because both only use elementwise operations and fixed-order
sums; the blocks bound the working set at threads x one block.

Both work in the patch frame: positions in grid-index units relative to
the patch's first node, so all patches of every grid share the nodes
``_OFFS`` and the box [0, 3]^2, lengths are measured against the index
diagonal ``DIAG`` = sqrt(2), and values are in units of the field range.
The frame meets physical units at two points only: ``sweep_full`` maps
each accepted root xi of the patch with first node n to the grid as
origin + (n + xi) S, S = diag(dx, dy), and ``reduce_points`` maps each
centroid back to evaluate and classify it.  Where the grid lies, its
spacing and how its values are scaled then do not change the search at
all; merging stays in physical units.  Newton's steps, the acceptance test
and ``reduce_points`` (through ``PatchInterpolant``) take every gradient
and Hessian from ``_grad_jac``; the certifier sums the same terms with the
same routine, ``_gradient_sums``, per domain code from a table built once
per sweep at its two coarsest levels and gathered per sub-box at the
deeper ones.

The engine and the certifier gather with ``take`` and ``compress``, never
with fancy or boolean indexing, and repeat indices with a broadcast and a
copy instead of ``np.repeat``.  At their shapes (thousands of points by
16 nodes) ``take`` is about 2.5 times as fast as fancy indexing and
``compress`` up to 10 times as fast as a boolean mask; fancy indexing and
``np.repeat`` also do not run in parallel on the pool's threads, where
``take`` does.  Both keep their terms in the node-major layout of
``_grad_jac``, 16 nodes by the points: the engine holds its live seeds as
two coordinate vectors, weights (16, live) and a ring (_CYCLE, 2, live),
and compresses them along the seeds only when seeds leave.  The
certifier keeps each level's pending sub-boxes as one bool mask (cells, L)
over its live patches in code order.  At its coarse levels each code's
live patches are a range of columns of their weights, (16, P), which
broadcast against the code's (16, cells) columns of the table into the
(cells, P) sums the mask's tests read whole; the deeper levels gather the
columns of the distinct sub-boxes of the mask's pending cells.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, field
from enum import Enum

import numpy as np

from .grid import GridField, NeighborIndex, diag_step
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
_DENSE_LEVELS = 2      # _certify evaluates levels 1 to this from _level_tables
_PIECE = 2048          # sub-boxes per product in _tabled: temporaries of 256 KB
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
    weights (P,16) at the shared nodes ``_OFFS``, and the iterates are
    clamped to the box [0, 3]^2.
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

    The live seeds' indices, coordinates, weights (16, live) and rings
    (_CYCLE, 2, live) are compact arrays, in the layout ``_grad_jac``
    takes, that shrink only when seeds leave; ``counts.iterations`` is the
    number of seed evaluations.
    """
    seeds = np.asarray(seeds, dtype=float)
    n = seeds.shape[0]
    px, py = seeds[:, 0].copy(), seeds[:, 1].copy()
    wl = weights.T.take(owner, axis=1)  # the live seeds' weights
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
        gx, gy, jxx, jxy, jyy = _grad_jac(px, py, wl, kernel)
        det = jxx * jyy - jxy * jxy
        frob2 = jxx * jxx + 2.0 * jxy * jxy + jyy * jyy
        # a zero Jacobian passes the relative test (0 >= 0) and would step 0/0
        ok = (frob2 > 0) & np.isfinite(det) & (np.abs(det) >= _SINGULAR_DET * frob2)
        if not ok.all():
            singular += live.size - int(np.count_nonzero(ok))
            live, px, py, gx, gy, jxx, jxy, jyy, det = (
                a.compress(ok) for a in (live, px, py, gx, gy, jxx, jxy, jyy, det))
            wl, ring = wl.compress(ok, axis=1), ring.compress(ok, axis=2)
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
            live, px, py = (a.compress(stay) for a in (live, px, py))
            wl, ring = wl.compress(stay, axis=1), ring.compress(stay, axis=2)
        ring[(it + 1) % _CYCLE, 0], ring[(it + 1) % _CYCLE, 1] = px, py
    idx = np.flatnonzero(converged)
    counts = SeedCounts(launched=n, converged=idx.size, singular=singular,
                        stuck=stuck, capped=live.size, iterations=iterations)
    return idx, np.column_stack([rx.take(idx), ry.take(idx)]), counts


def _repeat_each(a, n):
    """Each entry of the 1-d array a n times in a row: np.repeat(a, n) as a
    broadcast and a copy, which runs in parallel on the pool's threads."""
    return np.broadcast_to(a[:, None], (a.size, n)).reshape(-1)


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
    weights (P,16) the interpolants at the shared nodes ``_OFFS``, in units
    of the field range.  Each patch starts from the seeds ``_SEEDS`` of its
    code.  The kept roots are returned ordered by (patch, seed) as their
    patches (entries of code), seed slots and positions xi in the patch
    frame.
    """
    seeds = _SEEDS.take(code, axis=0)
    nseed = seeds.shape[1]
    lo, hi = _DOMAINS[:, 0], _DOMAINS[:, 1]
    npatch = len(code)
    owner = _repeat_each(np.arange(npatch), nseed)

    idx, pos, counts = _newton_seeds(seeds.reshape(-1, 2), owner, weights, kernel)

    # accept converged roots inside their domain with a small gradient
    k = owner.take(idx)
    gx, gy, *_ = _grad_jac(pos[:, 0], pos[:, 1], weights.T.take(k, axis=1), kernel)
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

    s is the RBF sum the engine evaluates: the float64 weights w (P,16) at
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
    # einsum without optimize calls no BLAS: each row's sums run in one
    # fixed order whatever the number of rows, so a patch's bound does not
    # depend on its block
    q = (weights * np.einsum("pj,ij->pi", weights, entries)).sum(axis=-1)
    delta = 2.0 ** -51 * _BOX_DIAMETER
    l1 = np.abs(weights).sum(axis=-1)
    margin = l1 * l1 * (_MARGIN + 3.0 * alpha * delta)
    return np.sqrt(np.maximum(q, 0.0) + margin) * (1.0 + _MARGIN)


def _gradient_rounding(weights, kernel):
    """eps (P,): a bound on the rounding of a gradient and of its norm
    computed by ``_grad_jac`` anywhere in the box [0, 3]^2 of the nodes
    ``_OFFS``.

    The gradient is sum_m c_m psi(r_m) (x - x_m), and each term is at most
    |c_m| |psi(0)| times the box diameter: |psi| peaks at 0 for every
    kernel.  psi's absolute error is a few ulps of |psi(0)| even where its
    argument's relative error is amplified (|t exp(-t)| <= 1/e), and the
    products and the 16-term sums add a few ulps of the terms' sum, so
    _MARGIN (2^13 ulps) times that sum bounds the error.
    """
    return _MARGIN * np.abs(weights).sum(axis=-1) * abs(kernel.psi(0.0)) * _BOX_DIAMETER


def _sub_box_terms(code, cell, level, kernel):
    """The offsets ox, oy of the centers x0 of sub-boxes to the nodes and
    psi there, all (16, n), and G^ (2, n) at their half-diagonals r and at
    the finest level's.

    Sub-box s is cell cell[s] = iy side + ix, the cell (ix, iy) of the
    side x side split of the search domain code[s], side = 2^level.  Every
    bound and width of a domain is a multiple of 1/2 and every side a power
    of two, so its corners are exact.
    """
    side = 2 ** level
    cells = np.stack(np.divmod(cell, side)[::-1], axis=-1)  # (ix, iy)
    box = _DOMAINS.take(code, axis=0)
    blo, bhi = box[:, 0], box[:, 1]
    a = blo + (bhi - blo) * (cells / side)
    b = blo + (bhi - blo) * ((cells + 1) / side)
    x0 = (a + b) * 0.5
    half = np.maximum(x0 - a, b - x0)
    r = np.hypot(half[:, 0], half[:, 1]) * (1.0 + _MARGIN)
    ox, oy, dist = _offsets(x0[:, 0], x0[:, 1])
    finest = 2.0 ** (level - _CERTIFY_DEPTH)
    return ox, oy, kernel.psi(dist), _gradient_modulus(kernel, np.stack([r, r * finest]))


def _level_tables(kernel):
    """The ``_sub_box_terms`` of every cell of all 16 domain codes at each
    of the levels 1 to _DENSE_LEVELS, built once per sweep (320 sub-boxes):
    the sub-box of code c and cell j is column c side^2 + j, the key
    ``_gathered`` gives it."""
    tables = []
    for level in range(1, _DENSE_LEVELS + 1):
        ncell = 4 ** level
        key = np.arange(16 * ncell)
        tables.append(_sub_box_terms(key // ncell, key % ncell, level, kernel))
    return tables


def _tabled(code, weights, table):
    """gx, gy (cells, P) and G^ (2, cells, P) of every cell of a level of P
    patches, from its ``_level_tables`` entry; code (P,) is sorted.

    The patches of one domain code share every sub-box of the level, so the
    gradients of all cells of a code's patches come from the code's
    (16, cells) columns of the table at once: with their weights w (16, P),
    ``_gradient_sums`` of the (16, cells, P) products w psi ox and w psi oy,
    in pieces of at most _PIECE sub-boxes (or one patch's cells, if there
    are more).  Each code's G^ is its columns of the table.
    """
    ox, oy, psi, modulus = table
    ncell = ox.shape[1] // 16
    w = weights.T[:, None, :]
    bounds = np.searchsorted(code, np.arange(17))
    gx, gy = np.empty((ncell, len(code))), np.empty((ncell, len(code)))
    ghat = np.empty((2, ncell, len(code)))
    step = max(1, _PIECE // ncell)  # patches per piece
    for c in range(16):
        keys = slice(c * ncell, (c + 1) * ncell)
        ox_c, oy_c, psi_c = ox[:, keys, None], oy[:, keys, None], psi[:, keys, None]
        ghat[:, :, bounds[c]:bounds[c + 1]] = modulus[:, keys, None]
        for p0 in range(bounds[c], bounds[c + 1], step):
            p1 = min(p0 + step, bounds[c + 1])
            cpsi = w[:, :, p0:p1] * psi_c
            _gradient_sums(cpsi * ox_c, out=gx[:, p0:p1])
            _gradient_sums(np.multiply(cpsi, oy_c, out=cpsi), out=gy[:, p0:p1])
    return gx, gy, ghat


def _gathered(k, cell, level, code, weights, kernel):
    """gx, gy (n,) and G^ (2, n) of sub-boxes (patch k, cell cell) at a
    level, with one kernel evaluation per distinct (code, cell) key and
    each sub-box's terms gathered from the columns of its key."""
    ncell = 4 ** level
    key, inv = np.unique(code.take(k) * ncell + cell, return_inverse=True)
    ox, oy, psi, modulus = _sub_box_terms(key // ncell, key % ncell, level, kernel)
    cpsi = np.multiply(weights.take(k, axis=0).T, psi.take(inv, axis=1), order="C")
    gx = _gradient_sums(cpsi * ox.take(inv, axis=1))
    gy = _gradient_sums(np.multiply(cpsi, oy.take(inv, axis=1), out=cpsi))
    return gx, gy, modulus.take(inv, axis=1)


def _certify(code, weights, entries, tables, kernel):
    """Which of P patches are certified root-free, shape (P,) bool.

    A certified patch has a computed |grad s| > tol_g = _GRAD_TOL_REL / DIAG
    everywhere in its search domain, so ``_search`` could accept no root in
    it; code, weights and kernel are those ``_search`` gets, entries is the
    kernel matrix of the nodes and tables the ``_level_tables`` of the
    kernel.  The domain is cut into 2x2 sub-boxes, and a sub-box with
    center x0 and half-diagonal r is certified when

        |g(x0)| - eps > N G^(r) + tol_g + eps,

    with g the computed gradient, N >= ||s||_N (``_native_norm``), G^ the
    gradient modulus (``_gradient_modulus``) and eps the rounding bound of
    ``_gradient_rounding``: then every x in the sub-box has an exact
    |grad s(x)| > tol_g + eps and a computed one > tol_g.  Only a test that
    holds certifies: a NaN bound or gradient fails it.  A sub-box that
    fails is cut into 2x2 again, down to _CERTIFY_DEPTH halvings; a patch
    is certified when all its sub-boxes are.  A sub-box whose center fails
    the test even with the finest level's half-diagonal ends its patch's
    certification at once: its finest sub-boxes around that center would
    almost surely fail too, and refining costs up to 4^depth evaluations.
    Every decision depends on its own patch only.

    A sub-box is fixed by its patch's domain code (the patches share their
    nodes) and its cell at the level, and most patches share one of a few
    codes.  A level's pending sub-boxes are a bool mask (side^2, L) over
    the live patches, those with a pending cell, in code order; each failed
    cell is pending 2x2 at the next level.  At levels 1 and 2 (4 and 16
    cells), where most sub-boxes are evaluated, every cell of the live
    patches is tested at once with gradients from the tables (``_tabled``);
    at the deeper levels, where few are left, the pending cells go in
    chunks of 9 * _BLOCK_PATCHES, a block's seed lattice, through one
    kernel evaluation per distinct sub-box (``_gathered``).  Both sum with
    ``_gradient_sums``, as ``_grad_jac`` does for that sub-box, so every
    gradient, and every decision, is the one a per-sub-box evaluation gives.
    """
    tol_g = _GRAD_TOL_REL / DIAG
    norm = _native_norm(weights, entries, kernel.alpha)
    eps = _gradient_rounding(weights, kernel)

    def fails(gx, gy, modulus, k):
        # sub-boxes of patches k that fail with G^ at this level's and the finest's r
        e, n = eps.take(k), norm.take(k)
        slack = np.sqrt(gx * gx + gy * gy) - e - tol_g - e
        return ~(slack > n * modulus[0]), ~(slack > n * modulus[1])

    failed = np.zeros(len(code), dtype=bool)
    live = np.argsort(code, kind="stable")
    pending = np.ones((4, live.size), dtype=bool)  # cell iy side + ix of each live patch
    chunk = 9 * _BLOCK_PATCHES
    for level in range(1, _CERTIFY_DEPTH + 1):
        if level <= len(tables):
            terms = _tabled(code.take(live), weights.take(live, axis=0), tables[level - 1])
            split, stop = (f & pending for f in fails(*terms, live))
        else:
            split, stop = np.zeros_like(pending), np.zeros_like(pending)
            pairs = np.flatnonzero(pending)
            for pc in np.split(pairs, range(chunk, pairs.size, chunk)):
                cell, col = np.divmod(pc, live.size)
                k = live.take(col)
                s, t = fails(*_gathered(k, cell, level, code, weights, kernel), k)
                split.put(pc.compress(s), True)
                stop.put(pc.compress(t), True)
        # at the finest level every failed sub-box has failed its patch
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

@dataclass
class SweepResult:
    """Raw points plus the per-patch interpolation data needed downstream."""

    raw: list[RawStationaryPoint]
    matrix: PatchMatrix
    weights: np.ndarray        # (npatch, 16) float64, in the field's units
    constants: np.ndarray      # (npatch,) float64, the interpolants' constant terms
    grid: GridField
    flat_patches: list[tuple[int, int]]
    seed_counts: SeedCounts    # summed over the patch blocks

    def interpolant(self, i, j) -> PatchInterpolant:
        """The interpolant of patch (i, j), 1-based, in the patch frame: at
        the nodes ``_OFFS``, in grid-index units.  Given integer arrays i, j
        of one shape (R,), one stacked interpolant of those R patches:
        weights (R,16) and constant (R,)."""
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
    points are on the grid, in its physical units."""
    npi, npj = g.ny - 3, g.nx - 3
    npatch = npi * npj
    field_range = g.field_range

    matrix = PatchMatrix(kernel)
    tables = _level_tables(kernel)
    windows = np.lib.stride_tricks.sliding_window_view(g.grid2d(), (4, 4))
    h = windows.reshape(npi, npj, 16).reshape(npatch, 16)
    weights, constants = np.empty((npatch, 16)), np.empty(npatch)

    ii, jj = np.divmod(np.arange(npatch), npj)  # 0-based patch row/col
    patches = np.column_stack([ii + 1, jj + 1])
    code = _domain_code(g, patches[:, 0], patches[:, 1])

    patch_range = h.max(axis=1) - h.min(axis=1)
    active = (field_range > 0) & (patch_range > _FLAT_PATCH * field_range)
    flat = [(int(i), int(j)) for i, j in patches[~active]]
    if flat:
        log.debug("%d flat patches skipped", len(flat))

    act = np.flatnonzero(active)
    origin, spacing = np.array(g.origin), np.array([g.dx, g.dy])

    def solve(b0: int):
        blk = slice(b0, b0 + _BLOCK_PATCHES)
        weights[blk], constants[blk] = matrix.solve(h[blk])

    def certify(block: np.ndarray):
        return _certify(code[block], weights[block] / field_range, matrix.entries, tables,
                        kernel)

    def search(block: np.ndarray):
        (k, slot, xi), counts = _search(code[block], weights[block] / field_range, kernel)
        ij = patches.take(block.take(k), axis=0)
        # the one map from the patch frame to the grid; (j - 1, i - 1) is the first node
        on_grid = origin + (ij[:, ::-1] - 1 + xi) * spacing
        return [RawStationaryPoint(position=x, patch=tuple(p), seed_index=s) for x, p, s
                in zip(on_grid, ij.tolist(), slot.tolist())], counts

    def blocks(idx: np.ndarray):
        return [idx[b0:b0 + _BLOCK_PATCHES] for b0 in range(0, idx.size, _BLOCK_PATCHES)]

    # fixed-size blocks bound the working set (at 240² one whole-grid weight
    # solve made 15 MB of extended-precision temporaries) and do not depend
    # on the thread count; map keeps them in order, and the weight blocks
    # write disjoint rows.  The patches certified root-free are dropped and
    # the rest cut into blocks again.
    nthreads = max(1, int(threads))
    with ThreadPoolExecutor(max_workers=nthreads) as pool:
        each = map if nthreads == 1 else pool.map
        list(each(solve, range(0, npatch, _BLOCK_PATCHES)))
        root_free = np.concatenate([np.zeros(0, dtype=bool), *each(certify, blocks(act))])
        parts = list(each(search, blocks(act[~root_free])))
    raw = [p for part, _ in parts for p in part]
    counts = sum((c for _, c in parts), SeedCounts(excluded=int(np.count_nonzero(root_free))))
    log.debug("%d patches certified root-free; Newton seeds: %d launched, %d converged, "
              "%d singular, %d stuck, %d capped; %d seed evaluations", counts.excluded,
              counts.launched, counts.converged, counts.singular, counts.stuck,
              counts.capped, counts.iterations)

    return SweepResult(raw=raw, matrix=matrix, weights=weights, constants=constants,
                       grid=g, flat_patches=flat, seed_counts=counts)


# ---------------------------------------------------------------------------
# Reduction of duplicates
# ---------------------------------------------------------------------------

_BY_CODE = (Classification.SADDLE, Classification.MINIMUM, Classification.MAXIMUM,
            Classification.DEGENERATE)


def classify(lam: np.ndarray, scale: float) -> list[Classification]:
    """Classify points by the signs of their Hessian eigenvalues lam (n, 2);
    a point with an eigenvalue below 1e-9 * scale in magnitude is
    degenerate."""
    lam = np.asarray(lam, float)
    degenerate = (np.abs(lam) < 1e-9 * scale).any(axis=1)
    code = np.where(degenerate, 3, np.where((lam > 0).all(axis=1), 1,
                                            np.where((lam < 0).all(axis=1), 2, 0)))
    return [_BY_CODE[c] for c in code.tolist()]


def reduce_points(raw: list[RawStationaryPoint], sweep: SweepResult) -> list[StationaryPoint]:
    """Anchored centroid reduction: repeatedly take the first remaining
    point, merge everything within the grid's diagonal step d of *it*
    (anchor semantics), and emit the centroid.  A point with a non-finite
    coordinate is within d of nothing and leaves alone.

    Value and classification come from the interpolant of each cluster's
    first member's patch, stacked over the anchors' patches, at the
    centroid's position in that patch's frame, xi = S^-1 (x - origin) - n,
    S = diag(dx, dy) and n the patch's first node.  The class comes from
    the eigenvalues of D^-1 H_xi D^-1 with D = S / d: the physical Hessian
    S^-1 H_xi S^-1 times d^2, which has the same signs (Sylvester's law of
    inertia) but cannot overflow.  A point with an eigenvalue below 1e-9 *
    the field range in magnitude is degenerate.
    """
    g = sweep.grid
    d = diag_step(g)
    pos = np.array([np.asarray(r.position, float) for r in raw]).reshape(-1, 2)
    index = NeighborIndex(pos, d)
    taken = np.zeros(len(raw), dtype=bool)
    clusters = []
    for a in range(len(raw)):
        if not taken[a]:
            cluster = [a] + [c for c in index.query(*pos[a]) if c > a and not taken[c]]
            taken[cluster] = True
            clusters.append(cluster)
    if not clusters:
        return []
    centroids = [pos[c].mean(axis=0) for c in clusters]
    anchors = np.array([raw[c[0]].patch for c in clusters])  # (i, j), 1-based
    spacing = np.array([g.dx, g.dy])
    xi = (np.array(centroids) - g.origin) / spacing - (anchors[:, ::-1] - 1)
    interp = sweep.interpolant(anchors[:, 0], anchors[:, 1])
    values = interp(xi).tolist()
    dinv = d / spacing
    lam = np.linalg.eigvalsh(interp.gradient_jacobian(xi) * np.outer(dinv, dinv))
    classes = classify(lam, g.field_range)
    return [StationaryPoint(position=p, value=v, classification=k, members_merged=len(c))
            for p, v, k, c in zip(centroids, values, classes, clusters)]
