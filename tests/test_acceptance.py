"""End-to-end acceptance checks for the pipeline.

Criteria 1-6 pin the stationary-point counts and locations on the six
benchmark surfaces; 7-10 the kernel and interpolation contracts; 11-12 the
reduction and clustering semantics; 13 byte-level determinism under
threading.

Criterion 1's Wendland case and criterion 6 need the constant term of the
patch interpolant: a polynomial-free interpolant undulates at the grid
frequency (relative amplitude ~4e-4), and where the true gradient falls
below that error slope (f1's flat bump tops under Wendland, the flat
neighborhood of f14's origin) the undulation has genuine extra roots --
exact, well-conditioned ones that pass every solver contract.

Criterion 6 counts f14's two crossing diagonals as one curve.  A binding is
a connected component of the "within 4d" relation (criterion 12), and the
diagonals meet at the origin, so their stationary points form one
component; criterion 5 likewise counts f13's cut circle as four arcs.
"""

import math

import numpy as np
import pytest

from gridstat import (Kernel, KernelKind, PatchMatrix, RawStationaryPoint,
                      TestFunction, delta_max, diag_step,
                      ground_truth, interpolate_patch, kernel_for_grid,
                      patch_offsets, reduce_points, sample, sweep_full)
from gridstat.bindings import cluster as cluster_points
from gridstat.cli import main as cli_main
from gridstat.stationary import StationaryPoint, Classification

from conftest import F1_FROZEN, binding_members, report_positions

ALL_KINDS = list(KernelKind)


def nearest_dist(points, targets):
    """For each row of ``points``, distance to the nearest row of ``targets``."""
    points = np.asarray(points, float).reshape(-1, 2)
    targets = np.asarray(targets, float).reshape(-1, 2)
    return np.linalg.norm(points[:, None, :] - targets[None, :, :], axis=2).min(axis=1)


def curve_samples(tf, n=2000):
    return np.vstack([c.sample(n) for c in ground_truth(tf).curves])


def interior_mask(pts, domain, margin):
    xmin, xmax, ymin, ymax = domain
    return ((pts[:, 0] > xmin + margin) & (pts[:, 0] < xmax - margin)
            & (pts[:, 1] > ymin + margin) & (pts[:, 1] < ymax - margin))


# --- criteria 1-6: benchmark counts and locations ----------------------------

@pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
def test_c1_f1_counts_all_kernels(kind, pipeline):
    report, g, elapsed = pipeline(TestFunction.F1, kind)
    assert elapsed < 10.0
    assert report["summary"]["isolated"] == 5
    assert report["summary"]["curves"] == 0
    d = diag_step(g)
    assert nearest_dist(report_positions(report), F1_FROZEN).max() <= d


@pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
def test_c2_f2_counts_and_locations(kind, pipeline):
    report, g, _ = pipeline(TestFunction.F2, kind)
    assert report["summary"]["isolated"] == 24
    assert report["summary"]["curves"] == 0
    d = diag_step(g)
    truth = ground_truth(TestFunction.F2).isolated
    assert nearest_dist(report_positions(report), truth).max() <= d


def test_c3_f11(pipeline):
    report, g, _ = pipeline(TestFunction.F11, KernelKind.GAUSSIAN)
    assert report["summary"]["curves"] == 1
    assert report["summary"]["isolated"] == 0
    d = diag_step(g)
    dmax = delta_max(d)
    pts = report_positions(report)
    # members lie on the diagonal x1 = x2 ...
    assert (np.abs(pts[:, 0] - pts[:, 1]) / math.sqrt(2)).max() <= dmax
    # ... and cover it (away from a 2d boundary margin)
    truth = curve_samples(TestFunction.F11)
    inner = interior_mask(truth, TestFunction.F11.domain, 2 * d)
    assert nearest_dist(truth[inner], pts).max() <= dmax


def test_c4_f12(pipeline):
    report, g, _ = pipeline(TestFunction.F12, KernelKind.GAUSSIAN)
    assert report["summary"]["curves"] == 4
    assert report["summary"]["isolated"] == 0
    d = diag_step(g)
    dmax = delta_max(d)
    pts = report_positions(report)
    truth = curve_samples(TestFunction.F12)
    assert nearest_dist(pts, truth).max() <= dmax
    inner = interior_mask(truth, TestFunction.F12.domain, 2 * d)
    assert nearest_dist(truth[inner], pts).max() <= dmax


def test_c5_f13(pipeline):
    report, g, _ = pipeline(TestFunction.F13, KernelKind.GAUSSIAN)
    assert report["summary"]["curves"] == 7
    assert report["summary"]["isolated"] == 1
    d = diag_step(g)
    dmax = delta_max(d)
    pts = report_positions(report)
    iso = [pts[m[0]] for m in binding_members(report, "isolated")]
    assert np.linalg.norm(iso[0]) <= d
    members = [i for m in binding_members(report, "curve") for i in m]
    radii = np.linalg.norm(pts[members], axis=1)
    gaps = np.abs(radii[:, None] - np.array([0.25, 7 / 12, 11 / 12, 1.25]))
    assert gaps.min(axis=1).max() <= dmax


def test_c6_f14(pipeline):
    report, g, _ = pipeline(TestFunction.F14, KernelKind.GAUSSIAN)
    # the two diagonals cross at the origin, so under the connected-component
    # binding rule their stationary set is one binding: the exact set sampled
    # at spacing d clusters to 1 binding (4 once a disc of radius 0.1 around
    # the origin is removed), never to 2
    assert report["summary"]["curves"] == 1
    assert report["summary"]["isolated"] == 0
    d = diag_step(g)
    dmax = delta_max(d)
    pts = report_positions(report)
    off_diag = np.minimum(np.abs(pts[:, 0] - pts[:, 1]),
                          np.abs(pts[:, 0] + pts[:, 1])) / math.sqrt(2)
    assert off_diag.max() <= dmax
    # both diagonals are covered (away from a 2d boundary margin)
    truth = curve_samples(TestFunction.F14)
    inner = interior_mask(truth, TestFunction.F14.domain, 2 * d)
    assert nearest_dist(truth[inner], pts).max() <= dmax


# --- criterion 7: kernel inflection identity ----------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
def test_c7_inflection_radius_by_central_differences(kind):
    rng = np.random.default_rng(71)
    for alpha in rng.uniform(0.5, 1.0, 5):
        k = Kernel(kind, alpha)
        r = k.omega / alpha
        # fourth-order central stencil: a plain two-point difference bottoms
        # out at the float64 noise floor (~4e-10) for the Wendland kernel
        h = 1e-3
        phi2 = (-k.phi_prime(r + 2 * h) + 8 * k.phi_prime(r + h)
                - 8 * k.phi_prime(r - h) + k.phi_prime(r - 2 * h)) / (12 * h)
        assert abs(phi2) <= 1e-10


# --- criterion 8: gradient / Jacobian vs. finite differences -------------------

def random_interp(rng, grids, matrices):
    """Random (patch, interpolant) drawn from real sampled fields."""
    kind = ALL_KINDS[int(rng.integers(len(ALL_KINDS)))]
    gi = int(rng.integers(len(grids)))
    g = grids[gi]
    i = int(rng.integers(0, g.ny - 3))
    j = int(rng.integers(0, g.nx - 3))
    h = g.grid2d()[i:i + 4, j:j + 4].ravel()
    centers = (np.array([g.origin[0] + j * g.dx, g.origin[1] + i * g.dy])
               + patch_offsets(g.dx, g.dy))
    return interpolate_patch(matrices[gi, kind], centers, h), diag_step(g)


def test_c8_gradient_and_jacobian_match_finite_differences():
    rng = np.random.default_rng(81)
    grids = [sample(tf, 120, 120) for tf in (TestFunction.F1, TestFunction.F2)]
    matrices = {(gi, kind): PatchMatrix(
                    kernel_for_grid(kind, diag_step(g)), g.dx, g.dy)
                for gi, g in enumerate(grids) for kind in ALL_KINDS}
    for _ in range(100):
        p, d = random_interp(rng, grids, matrices)
        lo = p.centers.min(axis=0)
        x = lo + rng.uniform(0.3, 2.7, 2) * [p.centers[1, 0] - p.centers[0, 0],
                                             p.centers[4, 1] - p.centers[0, 1]]
        h = 1e-6 * d
        fd_g = np.array([(p(x + [h, 0]) - p(x - [h, 0])) / (2 * h),
                         (p(x + [0, h]) - p(x - [0, h])) / (2 * h)])
        g = p.gradient(x)
        assert np.linalg.norm(fd_g - g) <= 1e-5 * max(np.linalg.norm(g), 1e-9)
        h = 1e-5 * d
        fd_j = np.column_stack([
            (p.gradient(x + [h, 0]) - p.gradient(x - [h, 0])) / (2 * h),
            (p.gradient(x + [0, h]) - p.gradient(x - [0, h])) / (2 * h)])
        jac = p.gradient_jacobian(x)
        assert np.linalg.norm(fd_j - jac) <= 1e-4 * max(np.linalg.norm(jac), 1e-9)


# --- criterion 9: interpolation property ---------------------------------------

def test_c9_interpolation_property_random_patches():
    rng = np.random.default_rng(91)
    matrices = {kind: PatchMatrix(kernel_for_grid(kind, math.sqrt(2)), 1, 1)
                for kind in ALL_KINDS}
    centers = patch_offsets(1, 1)
    for _ in range(1000):
        kind = ALL_KINDS[int(rng.integers(len(ALL_KINDS)))]
        h = rng.normal(size=16)
        p = interpolate_patch(matrices[kind], centers, h)
        err = np.max(np.abs(p(centers) - h))
        assert err <= 1e-8 * np.max(np.abs(h))


# --- criterion 10: matrix constancy across the sweep ---------------------------

def test_c10_single_factorization_equals_per_patch():
    g = sample(TestFunction.F2, 120, 120)
    kernel = kernel_for_grid(KernelKind.GAUSSIAN, diag_step(g))
    sr = sweep_full(g, kernel)
    assert sr.weights.shape == (117 * 117, 16)  # 13,689 patches

    windows = np.lib.stride_tricks.sliding_window_view(g.grid2d(), (4, 4))
    h_all = windows.reshape(-1, 16)
    scale = max(1.0, float(np.max(np.abs(sr.weights))))
    worst = 0.0
    for i in range(len(h_all)):
        fresh = PatchMatrix(kernel, g.dx, g.dy)
        w = np.asarray(fresh.solve(h_all[i])[0], float)
        worst = max(worst, float(np.max(np.abs(w - sr.weights[i]))))
    assert worst <= 1e-12 * scale


# --- criterion 11: reduction semantics ------------------------------------------

def as_raw(*positions):
    return [RawStationaryPoint(position=np.array(p, float), patch=(1, 1),
                               seed_index=i) for i, p in enumerate(positions)]


def test_c11_reduce_hand_traced_cases():
    out = reduce_points(as_raw((0, 0), (0.5, 0)), d=math.sqrt(2))
    assert [(tuple(p.position), p.members_merged) for p in out] == [((0.25, 0.0), 2)]

    out = reduce_points(as_raw((0, 0), (10, 0)), d=math.sqrt(2))
    assert [tuple(p.position) for p in out] == [(0.0, 0.0), (10.0, 0.0)]

    out = reduce_points(as_raw((0, 0), (1, 0), (2, 0)), d=1.5)
    assert [(tuple(p.position), p.members_merged) for p in out] == [
        ((0.5, 0.0), 2), ((2.0, 0.0), 1)]

    # deterministic, and idempotent once pairwise distances exceed d
    again = reduce_points(as_raw((0, 0), (1, 0), (2, 0)), d=1.5)
    assert [tuple(p.position) for p in again] == [(0.5, 0.0), (2.0, 0.0)]
    once = reduce_points(as_raw((0, 0), (1, 0), (2.6, 0)), d=1.5)
    twice = reduce_points(as_raw(*[tuple(p.position) for p in once]), d=1.5)
    assert ([tuple(p.position) for p in twice]
            == [tuple(p.position) for p in once] == [(0.5, 0.0), (2.6, 0.0)])


# --- criterion 12: clustering oracle --------------------------------------------

def test_c12_cluster_equals_brute_force():
    rng = np.random.default_rng(121)
    for _ in range(100):
        n = int(rng.integers(1, 501))
        pos = rng.uniform(-10, 10, (n, 2))
        dmax = float(rng.uniform(0.2, 2.0))
        pts = [StationaryPoint(position=p, value=0.0,
                               classification=Classification.DEGENERATE,
                               members_merged=1) for p in pos]
        got = {b.member_indices for b in cluster_points(pts, dmax)}

        adj = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2) <= dmax
        unseen = set(range(n))
        expect = set()
        while unseen:
            comp = {unseen.pop()}
            frontier = set(comp)
            while frontier:
                nxt = {j for i in frontier for j in np.flatnonzero(adj[i])
                       if j in unseen}
                unseen -= nxt
                comp |= nxt
                frontier = nxt
            expect.add(tuple(sorted(comp)))
        assert got == expect


# --- criterion 13: determinism under parallelism ---------------------------------

@pytest.mark.parametrize("tf", list(TestFunction), ids=[t.value for t in TestFunction])
def test_c13_byte_identical_json_across_threads(tf, tmp_path):
    out1 = tmp_path / "t1.json"
    out4 = tmp_path / "t4.json"
    base = ["find", "--fn", tf.value, "--no-timings"]
    assert cli_main(base + ["--threads", "1", "--json", str(out1)]) == 0
    assert cli_main(base + ["--threads", "4", "--json", str(out4)]) == 0
    assert out1.read_bytes() == out4.read_bytes()
