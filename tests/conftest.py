"""Shared fixtures: cached full-size pipeline runs and small helpers.

Full 120x120 pipeline runs take a few seconds each, so they are computed
once per session and shared between the module tests and the acceptance
suite.  Reports are produced without timings so they are deterministic.
"""

import time

import numpy as np
import pytest

from gridstat import (GridField, Kernel, KernelKind, PatchInterpolant, TestFunction,
                      run_pipeline, sample, shape_parameter, sweep_full)
from gridstat.oracle import F1_POINTS as F1_FROZEN  # F1's five stationary points
from gridstat.patch import DIAG


@pytest.fixture(scope="session")
def pipeline():
    """pipeline(fn, kernel) -> (report, grid, elapsed_seconds), cached."""
    cache = {}

    def run(fn: TestFunction, kernel: KernelKind):
        key = (fn, kernel)
        if key not in cache:
            g = sample(fn, 120, 120)
            t0 = time.perf_counter()
            rep = run_pipeline(g, kernel, timings=False)
            cache[key] = (rep, g, time.perf_counter() - t0)
        return cache[key]

    return run


def report_positions(report: dict) -> np.ndarray:
    pts = report["stationary_points"]
    return np.array([[p["x"], p["y"]] for p in pts]).reshape(-1, 2)


def binding_members(report: dict, kind: str) -> list[list[int]]:
    return [b["members"] for b in report["bindings"] if b["kind"] == kind]


def default_kernel(kind: KernelKind, scale: float = 1.0) -> Kernel:
    """The kernel `run_pipeline` gives `sweep_full` by default, its shape
    parameter (per grid-index unit) times `scale`."""
    return Kernel(kind, scale * shape_parameter(kind, DIAG))


#: the largest error at its nodes, relative to the samples' size, that the
#: interpolation tests allow a patch interpolant of float64 weights: the
#: Gaussian weights at the default shape parameter reach ~1e8 times the
#: samples, so the float64 sum of the 16 terms at a node rounds at ~1e-7
NODE_ERROR = {KernelKind.GAUSSIAN: 1e-6, KernelKind.INVERSE_QUADRIC: 1e-8,
              KernelKind.WENDLAND31: 1e-8}


def solve_interpolant(matrix, h) -> PatchInterpolant:
    """The interpolant of samples h at the patch nodes ``_OFFS``."""
    weights, constant = matrix.solve(h)
    return PatchInterpolant(weights=weights, kernel=matrix.kernel, constant=float(constant))


def patch_sweep(f=lambda x, y: x * x + y * y, dx=1.0, dy=1.0, origin=(0.0, 0.0),
                kind=KernelKind.GAUSSIAN):
    """`sweep_full` of a 4x4 grid of f(x, y), one patch (1, 1), at `kind`'s
    default shape parameter."""
    x = origin[0] + dx * np.arange(4.0)
    y = origin[1] + dy * np.arange(4.0)
    xx, yy = np.meshgrid(x, y)
    g = GridField(nx=4, ny=4, dx=dx, dy=dy, origin=origin,
                  values=np.broadcast_to(f(xx, yy), xx.shape).ravel())
    return sweep_full(g, default_kernel(kind))


def every_patch(g):
    """i, j (patches,) of every patch of g, 1-based, in row-major order."""
    i, j = np.divmod(np.arange((g.ny - 3) * (g.nx - 3)), g.nx - 3)
    return i + 1, j + 1


def whole_grid_solve(g, matrix):
    """The weights (patches, 16) and constants (patches,) of every patch of
    g in row-major order, from one ``matrix.solve`` of all its windows over
    the field range."""
    h = np.lib.stride_tricks.sliding_window_view(g.grid2d(), (4, 4)).reshape(-1, 16)
    return tuple(np.asarray(x, dtype=float) for x in matrix.solve(h / g.field_range))
