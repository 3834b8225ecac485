"""Neighbor lists and binding (curve vs. isolated) grouping."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridstat import Binding, BindingKind, cluster, delta_max, neighbor_lists, summarize


def points(*positions):
    """The (m, 2) positions that ``cluster`` and ``summarize`` take."""
    return np.array(positions, float).reshape(-1, 2)


def brute_components(positions, dmax):
    """Connected components of the <=dmax graph by O(n^2) union-find."""
    n = len(positions)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if np.hypot(*(positions[i] - positions[j])) <= dmax:
                parent[find(i)] = find(j)
    comps = {}
    for i in range(n):
        comps.setdefault(find(i), []).append(i)
    return {tuple(sorted(v)) for v in comps.values()}


def test_delta_max():
    assert delta_max(math.sqrt(2)) == pytest.approx(4 * math.sqrt(2))
    assert delta_max(0.047535) == pytest.approx(0.19014, abs=1e-5)
    assert delta_max(1.0) == 4.0
    with pytest.raises(ValueError):
        delta_max(0.0)


def test_neighbor_lists():
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [0.0, 1.4]])
    assert neighbor_lists(pos, radius=1.5) == [[0, 1, 3], [0, 1], [2], [0, 3]]
    assert neighbor_lists(np.zeros((0, 2)), radius=1.5) == []
    for radius in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            neighbor_lists(pos, radius)


def test_neighbor_lists_skip_non_finite_points():
    pos = np.array([[0.0, 0.0], [math.nan, 0.0], [1.0, math.inf], [0.5, 0.0]])
    assert neighbor_lists(pos, radius=1.5) == [[0, 3], [], [], [0, 3]]


def test_neighbor_lists_match_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = rng.integers(1, 60)
        pos = rng.uniform(-5, 5, (n, 2))
        radius = rng.uniform(0.1, 3.0)
        expect = [sorted(np.flatnonzero(np.linalg.norm(pos - q, axis=1) <= radius).tolist())
                  for q in pos]
        assert neighbor_lists(pos, radius) == expect


def all_pairs_lists(pos, radius):
    """Neighbor lists by one broadcast over all pairs, p_j - p_i."""
    diff = pos[None, :, :] - pos[:, None, :]
    finite = np.isfinite(pos).all(axis=1)
    near = (np.hypot(diff[..., 0], diff[..., 1]) <= radius) & finite & finite[:, None]
    return [np.flatnonzero(row).tolist() for row in near]


def test_neighbor_lists_miss_no_pair():
    # cells of side 2 radius and a 3x3 block miss no pair within the radius:
    # lattices spaced exactly at the radius put many pairs on the boundary,
    # and nudging a lattice point at 0 by 1e-30 radius makes pairs whose
    # distance rounds to the radius while radius-sized cells would put them
    # two apart; offsets and scales move the cell indices' rounding
    rng = np.random.default_rng(34)
    for t in range(600):
        n = int(rng.integers(1, 50))
        radius = float(rng.uniform(0.05, 3.0))
        offset = (0.0, 1e6, -1e5)[t % 3]
        scale = 2.0 ** (0, 600, -600)[t // 3 % 3]
        if t % 2:
            nudge = rng.choice([0.0, -1e-30, 1e-30], (n, 2))
            pos = offset + radius * (rng.integers(-4, 5, (n, 2)) + nudge)
        else:
            pos = offset + rng.uniform(-5, 5, (n, 2))
        if t % 5 == 0:
            pos[rng.integers(n)] = (math.nan, offset)
        pos, radius = pos * scale, radius * scale
        assert neighbor_lists(pos, radius) == all_pairs_lists(pos, radius)


def test_cluster_chains_collinear_points():
    d = 1.0
    pts = points((0, 0), (3 * d, 0), (6 * d, 0))
    out = cluster(pts, delta_max(d))
    assert len(out) == 1
    assert out[0].kind is BindingKind.CURVE
    assert out[0].member_indices == (0, 1, 2)


def test_cluster_single_point_is_isolated():
    out = cluster(points((1, 1)), 4.0)
    assert out == [Binding(member_indices=(0,), kind=BindingKind.ISOLATED)]


def test_cluster_separated_points_are_isolated():
    d = 1.0
    out = cluster(points((0, 0), (5 * d, 0)), delta_max(d))
    assert [b.kind for b in out] == [BindingKind.ISOLATED, BindingKind.ISOLATED]


def test_cluster_empty():
    assert cluster([], 1.0) == []


def test_cluster_is_a_partition():
    rng = np.random.default_rng(32)
    pts = points(*rng.uniform(-2, 2, (200, 2)))
    out = cluster(pts, 0.3)
    seen = sorted(i for b in out for i in b.member_indices)
    assert seen == list(range(200))
    for b in out:
        assert (b.kind is BindingKind.ISOLATED) == (len(b.member_indices) == 1)
        assert b.member_indices == tuple(sorted(b.member_indices))


def test_cluster_matches_brute_force_components():
    rng = np.random.default_rng(33)
    for _ in range(30):
        n = int(rng.integers(1, 120))
        pos = rng.uniform(-3, 3, (n, 2))
        dmax = float(rng.uniform(0.1, 1.0))
        got = {b.member_indices for b in cluster(points(*pos), dmax)}
        assert got == brute_components(pos, dmax)


@settings(max_examples=30, deadline=None)
@given(coords=st.lists(
    st.tuples(st.floats(-5, 5), st.floats(-5, 5)), min_size=1, max_size=40),
    dmax=st.floats(0.05, 4.0))
# distance rounds to exactly dmax while the two points hash two cells apart
@example(coords=[(0.0, 1.0), (0.0, -2.685149322662486e-29)], dmax=1.0)
def test_cluster_matches_brute_force_property(coords, dmax):
    pos = np.array(coords, float)
    got = {b.member_indices for b in cluster(points(*pos), dmax)}
    assert got == brute_components(pos, dmax)


def lists_scalar_reference(pos, radius):
    """neighbor_lists as a loop over all pairs with scalar np.hypot."""
    finite = [bool(np.isfinite(p).all()) for p in pos]
    return [[j for j, (px, py) in enumerate(pos)
             if finite[i] and finite[j] and np.hypot(px - x, py - y) <= radius]
            for i, (x, y) in enumerate(pos)]


@settings(max_examples=60, deadline=None)
@given(coords=st.lists(
    st.tuples(st.floats(-5, 5), st.floats(-5, 5)), min_size=1, max_size=40),
    radius=st.floats(0.01, 4.0))
# a pair at exactly the radius: hypot(3, 4) == 5
@example(coords=[(0.0, 0.0), (3.0, 4.0), (-3.0, -4.0)], radius=5.0)
def test_neighbor_lists_match_scalar_loop(coords, radius):
    pos = np.array(coords, float)
    assert neighbor_lists(pos, radius) == lists_scalar_reference(pos, radius)


def test_summarize():
    pts = points((0, 0), (1, 0), (2, 0), (9, 9))
    out = summarize(cluster(pts, 1.5), pts)
    assert out["isolated"] == 1
    assert out["curves"] == 1
    detail = out["curve_details"][0]
    assert detail["members"] == 3
    assert (detail["xmin"], detail["xmax"]) == (0.0, 2.0)
    assert summarize([], []) == {"isolated": 0, "curves": 0, "curve_details": []}
