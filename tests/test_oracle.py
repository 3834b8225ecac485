"""Analytic ground-truth sets: gradients vanish, counts and geometry hold."""

import math

import numpy as np
import pytest

from gridstat import TestFunction, ground_truth
from gridstat.oracle import ground_truth_json

from conftest import F1_FROZEN


@pytest.mark.parametrize("tf", list(TestFunction))
def test_gradient_vanishes_on_ground_truth(tf):
    gt = ground_truth(tf)
    for x, y in gt.isolated:
        assert np.linalg.norm(tf.gradient(x, y)) <= 1e-10
    for c in gt.curves:
        pts = c.sample(1000)
        g = tf.gradient(pts[:, 0], pts[:, 1])
        assert np.linalg.norm(g, axis=1).max() <= 1e-10


@pytest.mark.parametrize("tf", list(TestFunction))
def test_ground_truth_inside_domain(tf):
    xmin, xmax, ymin, ymax = tf.domain
    gt = ground_truth(tf)
    tol = 1e-12
    for x, y in gt.isolated:
        assert xmin - tol <= x <= xmax + tol and ymin - tol <= y <= ymax + tol
    for c in gt.curves:
        pts = c.sample(500)
        assert pts[:, 0].min() >= xmin - tol and pts[:, 0].max() <= xmax + tol
        assert pts[:, 1].min() >= ymin - tol and pts[:, 1].max() <= ymax + tol


def f1_multistart() -> np.ndarray:
    """Multistart Newton on the analytic F1 gradient: 10,000 seeded random
    starts, finite-difference Jacobian, dedup radius 1e-4; the roots in the
    unit square sorted by (x, y)."""
    grad = TestFunction.F1.gradient
    rng = np.random.default_rng(12345)
    x = rng.uniform(0.0, 1.0, (10_000, 2))
    h = 1e-7
    for _ in range(80):
        g = grad(x[:, 0], x[:, 1])
        jxx = (grad(x[:, 0] + h, x[:, 1])[:, 0] - grad(x[:, 0] - h, x[:, 1])[:, 0]) / (2 * h)
        jxy = (grad(x[:, 0], x[:, 1] + h)[:, 0] - grad(x[:, 0], x[:, 1] - h)[:, 0]) / (2 * h)
        jyx = (grad(x[:, 0] + h, x[:, 1])[:, 1] - grad(x[:, 0] - h, x[:, 1])[:, 1]) / (2 * h)
        jyy = (grad(x[:, 0], x[:, 1] + h)[:, 1] - grad(x[:, 0], x[:, 1] - h)[:, 1]) / (2 * h)
        det = jxx * jyy - jxy * jyx
        det = np.where(np.abs(det) < 1e-14, np.nan, det)
        x = x - np.stack([(jyy * g[:, 0] - jxy * g[:, 1]) / det,
                          (-jyx * g[:, 0] + jxx * g[:, 1]) / det], axis=-1)
    x = x[np.isfinite(x).all(axis=1)]
    gnorm = np.linalg.norm(grad(x[:, 0], x[:, 1]), axis=1)
    inside = (x[:, 0] >= 0) & (x[:, 0] <= 1) & (x[:, 1] >= 0) & (x[:, 1] <= 1)
    kept: list[np.ndarray] = []
    for p in x[(gnorm < 1e-10) & inside]:
        if all(np.hypot(*(p - q)) > 1e-4 for q in kept):
            kept.append(p)
    kept.sort(key=lambda p: (p[0], p[1]))
    return np.array(kept)


def test_f1_five_frozen_points():
    # the oracle's constant is what the seeded multistart finds, and only that
    gt = ground_truth(TestFunction.F1)
    assert gt.isolated.shape == (5, 2)
    assert gt.curves == ()
    np.testing.assert_allclose(gt.isolated, F1_FROZEN, atol=1e-9)
    found = f1_multistart()
    assert found.shape == (5, 2)
    np.testing.assert_allclose(found, gt.isolated, rtol=0, atol=1e-12)


def test_f2_twenty_four_points():
    gt = ground_truth(TestFunction.F2)
    assert gt.isolated.shape == (24, 2)
    assert np.all(np.abs(gt.isolated) < 2.0)  # strictly inside
    # contains (pi/6, 0) where f = sin(pi/2) cos(0) = 1
    dist = np.linalg.norm(gt.isolated - [math.pi / 6, 0.0], axis=1)
    assert dist.min() <= 1e-12
    assert TestFunction.F2(math.pi / 6, 0.0) == pytest.approx(1.0)


def test_f11_diagonal():
    gt = ground_truth(TestFunction.F11)
    assert len(gt.curves) == 1 and gt.isolated.size == 0
    mid = gt.curves[0].sample(3)[1]
    np.testing.assert_allclose(mid, [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(
        gt.curves[0].fn(np.array([0.5]))[0], [0.0, 0.0], atol=1e-15)


def test_f12_four_components():
    gt = ground_truth(TestFunction.F12)
    assert len(gt.curves) == 4 and gt.isolated.size == 0
    # each component lies on x1 = pi/2 + k pi - x2^2 for some integer k
    for c in gt.curves:
        pts = c.sample(100)
        k = (pts[:, 0] + pts[:, 1] ** 2 - math.pi / 2) / math.pi
        np.testing.assert_allclose(k, np.round(k), atol=1e-12)


def test_f13_radii():
    gt = ground_truth(TestFunction.F13)
    np.testing.assert_allclose(gt.isolated, [[0.0, 0.0]])
    assert len(gt.curves) == 7
    radii = sorted({round(float(np.linalg.norm(c.sample(5)[0])), 12)
                    for c in gt.curves})
    np.testing.assert_allclose(radii, [0.25, 7 / 12, 11 / 12, 1.25])
    assert np.allclose(np.diff(radii[:3]), 1 / 3)


def test_f14_two_diagonals():
    gt = ground_truth(TestFunction.F14)
    assert len(gt.curves) == 2 and gt.isolated.size == 0
    for c, sign in zip(gt.curves, (1.0, -1.0)):
        pts = c.sample(50)
        np.testing.assert_allclose(pts[:, 1], sign * pts[:, 0], atol=1e-15)


def test_ground_truth_json_export():
    out = ground_truth_json(TestFunction.F13, samples_per_curve=17)
    assert out["function"] == "f13"
    assert out["isolated"] == [[0.0, 0.0]]
    assert len(out["curves"]) == 7
    assert all(len(c) == 17 for c in out["curves"])
