"""Neighbor index and binding (curve vs. isolated) grouping."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridstat import (Binding, BindingKind, Classification, NeighborIndex,
                      StationaryPoint, cluster, delta_max, summarize)


def points(*positions):
    return [StationaryPoint(position=np.array(p, float), value=0.0,
                            classification=Classification.DEGENERATE,
                            members_merged=1)
            for p in positions]


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


def test_neighbor_index_query():
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [0.0, 1.4]])
    idx = NeighborIndex(pos, radius=1.5)
    assert idx.query(0.0, 0.0) == [0, 1, 3]
    assert idx.query(3.0, 0.0) == [2]
    with pytest.raises(ValueError):
        NeighborIndex(pos, radius=0.0)


def test_neighbor_index_skips_non_finite_points():
    pos = np.array([[0.0, 0.0], [math.nan, 0.0], [1.0, math.inf], [0.5, 0.0]])
    idx = NeighborIndex(pos, radius=1.5)
    assert idx.query(0.0, 0.0) == [0, 3]
    assert idx.query(math.nan, 0.0) == []
    assert idx.query(1.0, math.inf) == []


def test_neighbor_index_matches_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = rng.integers(1, 60)
        pos = rng.uniform(-5, 5, (n, 2))
        radius = rng.uniform(0.1, 3.0)
        idx = NeighborIndex(pos, radius)
        q = rng.uniform(-5, 5, 2)
        expect = sorted(np.flatnonzero(
            np.linalg.norm(pos - q, axis=1) <= radius).tolist())
        assert idx.query(*q) == expect


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


def query_scalar_reference(index, x, y):
    """NeighborIndex.query as a per-candidate loop with scalar np.hypot."""
    cx, cy = index._cell(x, y)
    out = []
    for gx in range(cx - 2, cx + 3):
        for gy in range(cy - 2, cy + 3):
            for i in index._cells.get((gx, gy), ()):
                px, py = index.positions[i]
                if np.hypot(px - x, py - y) <= index.radius:
                    out.append(i)
    return sorted(out)


@settings(max_examples=60, deadline=None)
@given(coords=st.lists(
    st.tuples(st.floats(-5, 5), st.floats(-5, 5)), min_size=1, max_size=40),
    radius=st.floats(0.01, 4.0),
    query=st.tuples(st.floats(-6, 6), st.floats(-6, 6)))
# a pair at exactly the radius: hypot(3, 4) == 5
@example(coords=[(0.0, 0.0), (3.0, 4.0), (-3.0, -4.0)], radius=5.0, query=(0.0, 0.0))
def test_query_matches_scalar_loop(coords, radius, query):
    pos = np.array(coords, float)
    index = NeighborIndex(pos, radius)
    for x, y in [query, *pos]:
        assert index.query(x, y) == query_scalar_reference(index, x, y)


def test_summarize():
    pts = points((0, 0), (1, 0), (2, 0), (9, 9))
    out = summarize(cluster(pts, 1.5), pts)
    assert out["isolated"] == 1
    assert out["curves"] == 1
    detail = out["curve_details"][0]
    assert detail["members"] == 3
    assert (detail["xmin"], detail["xmax"]) == (0.0, 2.0)
    assert summarize([], []) == {"isolated": 0, "curves": 0, "curve_details": []}
