"""Analytic ground truth for the built-in test functions.

Each test function's exact stationary set is delivered as isolated points
plus parametric curve samplers, all clipped to the function's domain.  F1
has no closed-form stationary points; its ground truth is a deterministic
multistart Newton run on the analytic gradient, which finds exactly five
points in the unit square; they are kept as the constant ``F1_POINTS``,
and the tests rerun the multistart to check them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import TestFunction


@dataclass(frozen=True)
class ParametricCurve:
    """Closed-form curve t -> (x1(t), x2(t)) over [t0, t1]."""

    fn: Callable[[np.ndarray], np.ndarray]
    t0: float
    t1: float

    def sample(self, n: int) -> np.ndarray:
        """n points along the curve including both ends, shape (n, 2)."""
        pts = self.fn(np.linspace(self.t0, self.t1, n))
        return np.asarray(pts, float).reshape(-1, 2)


@dataclass(frozen=True)
class GroundTruth:
    isolated: np.ndarray  # (k, 2); empty (0, 2) when none
    curves: tuple[ParametricCurve, ...]


def _line(p0, p1) -> ParametricCurve:
    p0 = np.asarray(p0, float)
    p1 = np.asarray(p1, float)
    return ParametricCurve(fn=lambda t: p0 + np.outer(t, p1 - p0), t0=0.0, t1=1.0)


def _circle_arc(radius: float, th0: float, th1: float) -> ParametricCurve:
    return ParametricCurve(
        fn=lambda t: np.column_stack([radius * np.cos(t), radius * np.sin(t)]),
        t0=th0, t1=th1)


def _parabola(k: int, y0: float, y1: float) -> ParametricCurve:
    # stationary curves of sin(x1 + x2^2): x1 = pi/2 + k*pi - x2^2
    c = math.pi / 2 + k * math.pi
    return ParametricCurve(
        fn=lambda t: np.column_stack([c - t ** 2, t]), t0=y0, t1=y1)


#: the five stationary points of F1 in the unit square, sorted by (x, y): a
#: seeded 10,000-start Newton run on the analytic gradient converges to
#: exactly these bits (tests/test_oracle.py reruns it)
F1_POINTS = np.array([
    [0.20599157038050767, 0.20805013834294173],
    [0.45571037931856345, 0.7841906776136751],
    [0.5560369042144191, 0.2773758720247615],
    [0.6160307592684094, 0.8571405567407937],
    [0.7547415545824386, 0.32633819470941006],
])


def _f2_points() -> np.ndarray:
    # sin(3x)cos(3y): cos(3x)=0 & sin(3y)=0, or sin(3x)=0 & cos(3y)=0
    a = [-math.pi / 2, -math.pi / 6, math.pi / 6, math.pi / 2]  # cos(3t)=0, |t|<2
    b = [-math.pi / 3, 0.0, math.pi / 3]                        # sin(3t)=0, |t|<2
    pts = [(x, y) for x in a for y in b] + [(x, y) for x in b for y in a]
    return np.array(sorted(pts))


def ground_truth(tf: TestFunction) -> GroundTruth:
    """Exact stationary set (points and curves) of a test function."""
    none = np.empty((0, 2))
    if tf is TestFunction.F1:
        return GroundTruth(isolated=F1_POINTS, curves=())
    if tf is TestFunction.F2:
        return GroundTruth(isolated=_f2_points(), curves=())
    if tf is TestFunction.F11:
        return GroundTruth(isolated=none, curves=(_line((-1, -1), (1, 1)),))
    if tf is TestFunction.F12:
        t_in = math.sqrt(3 * math.pi / 2 - 3)      # |x2| where x1 = 3 enters
        t_out = math.sqrt(3 - math.pi / 2)         # |x2| where k=-1 leaves x1 = -3
        return GroundTruth(isolated=none, curves=(
            _parabola(-1, -t_out, t_out),
            _parabola(0, -2.0, 2.0),
            _parabola(1, t_in, 2.0),
            _parabola(1, -2.0, -t_in),
        ))
    if tf is TestFunction.F13:
        # radial derivative zero at r = k/3 - 1/12; r = 5/4 leaves the box
        a = math.acos(1.0 / 1.25)
        arcs = tuple(_circle_arc(1.25, a + k * math.pi / 2, math.pi / 2 - a + k * math.pi / 2)
                     for k in range(4))
        circles = tuple(_circle_arc(r, 0.0, 2 * math.pi) for r in (0.25, 7 / 12, 11 / 12))
        return GroundTruth(isolated=np.array([[0.0, 0.0]]), curves=circles + arcs)
    if tf is TestFunction.F14:
        return GroundTruth(isolated=none,
                           curves=(_line((-1, -1), (1, 1)), _line((-1, 1), (1, -1))))
    raise ValueError(f"unknown test function: {tf}")


def ground_truth_json(tf: TestFunction, samples_per_curve: int = 256) -> dict:
    """JSON-friendly export (points plus densely sampled curves)."""
    gt = ground_truth(tf)
    return {
        "function": tf.value,
        "isolated": [[float(x), float(y)] for x, y in gt.isolated],
        "curves": [[[float(x), float(y)] for x, y in c.sample(samples_per_curve)]
                   for c in gt.curves],
    }
