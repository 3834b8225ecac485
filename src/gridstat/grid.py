"""Regular-grid scalar fields: representation, CSV I/O, built-in samplers,
and the fixed-radius neighbor lists of a set of points, from a grid hash.

A :class:`GridField` stores an ``ny x nx`` grid row-major (row index maps to
y, column index to x).  Six
built-in test functions cover the isolated-point and curve benchmarks used
by the acceptance suite.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum

import numpy as np


@dataclass(frozen=True)
class GridField:
    """Scalar samples on a regular nx-by-ny grid (immutable)."""

    nx: int
    ny: int
    dx: float
    dy: float
    origin: tuple[float, float]
    values: np.ndarray  # shape (ny*nx,), row-major

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ValueError(f"grid must be at least 4x4, got {self.nx}x{self.ny}")
        for name, v in (("dx", self.dx), ("dy", self.dy)):
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"grid spacing {name} must be positive and finite, got {v}")
        for name, v in zip(("x", "y"), self.origin):
            if not math.isfinite(v):
                raise ValueError(f"grid origin {name} must be finite, got {v}")
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.nx * self.ny,):
            raise ValueError(f"expected {self.nx * self.ny} values, got {v.size}")
        for name, o, d, n in (("x", self.origin[0], self.dx, self.nx),
                              ("y", self.origin[1], self.dy, self.ny)):
            with np.errstate(over="ignore", invalid="ignore"):
                nodes = o + d * np.arange(n)
                distinct = np.isfinite(nodes).all() and (np.diff(nodes) > 0).all()
            if not distinct:
                raise ValueError(f"grid nodes along {name} must be finite and strictly "
                                 f"increasing: origin {o}, spacing {d}, {n} nodes")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        # Python floats overflow to inf without numpy's warning
        vmax, vmin = float(v.max()), float(v.min())
        if not math.isfinite(vmax - vmin):
            raise ValueError(f"field range max - min overflows float64: max {vmax!r}, "
                             f"min {vmin!r}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "origin", (float(self.origin[0]), float(self.origin[1])))

    @property
    def field_range(self) -> float:
        return float(self.values.max() - self.values.min())

    def grid2d(self) -> np.ndarray:
        """Values reshaped to (ny, nx)."""
        return self.values.reshape(self.ny, self.nx)


def diag_step(g: GridField) -> float:
    """Diagonal step d = sqrt(dx^2 + dy^2) of the grid cell."""
    return math.hypot(g.dx, g.dy)


def neighbor_lists(positions: np.ndarray, radius: float) -> list[list[int]]:
    """For each of the n points (n, 2), the ascending indices of the points
    within ``radius`` of it, itself included: j is in the list of i when
    hypot(p_j - p_i) <= radius.

    A grid hash (Bentley, Stanat & Williams, "The complexity of finding
    fixed-radius near neighbors", IPL 6(6), 1977) with cells of side
    2 radius: the cell indices of a pair within the radius differ by at most
    about 1/2 plus their rounding, so by at most 1 while the coordinates are
    below 2^50 radii, and each occupied cell's points are tested against the
    3x3 block of cells around it at once.  A point with a non-finite
    coordinate is within the radius of nothing: its list is empty and it is
    in no list.  The lists hold every pair within the radius, O(pairs) in
    all, which for dense inputs can approach n^2.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    pos = np.asarray(positions, float).reshape(-1, 2)
    finite = np.flatnonzero(np.isfinite(pos).all(axis=1))
    cells: dict[tuple[float, float], list[int]] = defaultdict(list)
    keys = np.floor(pos.take(finite, axis=0) / (2 * radius)).tolist()
    for i, key in zip(finite.tolist(), keys):
        cells[tuple(key)].append(i)
    out: list[list[int]] = [[] for _ in range(len(pos))]
    for (cx, cy), own in cells.items():
        # a set of keys, since cx +- 1 rounds to cx where the indices reach 2^53
        block = {(cx + a, cy + b) for a in (-1, 0, 1) for b in (-1, 0, 1)}
        cand = np.array(sorted(j for key in block for j in cells.get(key, ())))
        p, c = pos.take(own, axis=0), pos.take(cand, axis=0)
        near = np.hypot(c[:, 0] - p[:, 0, None], c[:, 1] - p[:, 1, None]) <= radius
        for i, row in zip(own, near):
            out[i] = cand.compress(row).tolist()
    return out


# ---------------------------------------------------------------------------
# Built-in test functions
# ---------------------------------------------------------------------------

def _f1(x, y):
    # Note: the second bump's y-exponent is -(9y+1)/10, linear in y.  Classic
    # Franke variants square this term; here the linear form is intentional.
    return (0.75 * np.exp(-(9 * x - 2) ** 2 / 4 - (9 * y - 2) ** 2 / 4)
            + 0.75 * np.exp(-(9 * x + 1) ** 2 / 49 - (9 * y + 1) / 10)
            + 0.5 * np.exp(-(9 * x - 7) ** 2 / 4 - (9 * y - 3) ** 2 / 4)
            - 0.2 * np.exp(-(9 * x - 4) ** 2 - (9 * y - 7) ** 2))


def _f1_grad(x, y):
    e1 = np.exp(-(9 * x - 2) ** 2 / 4 - (9 * y - 2) ** 2 / 4)
    e2 = np.exp(-(9 * x + 1) ** 2 / 49 - (9 * y + 1) / 10)
    e3 = np.exp(-(9 * x - 7) ** 2 / 4 - (9 * y - 3) ** 2 / 4)
    e4 = np.exp(-(9 * x - 4) ** 2 - (9 * y - 7) ** 2)
    gx = (0.75 * e1 * (-4.5 * (9 * x - 2)) + 0.75 * e2 * (-18 * (9 * x + 1) / 49)
          + 0.5 * e3 * (-4.5 * (9 * x - 7)) - 0.2 * e4 * (-18 * (9 * x - 4)))
    gy = (0.75 * e1 * (-4.5 * (9 * y - 2)) + 0.75 * e2 * (-0.9)
          + 0.5 * e3 * (-4.5 * (9 * y - 3)) - 0.2 * e4 * (-18 * (9 * y - 7)))
    return np.stack(np.broadcast_arrays(gx, gy), axis=-1)


def _f2(x, y):
    return np.sin(3 * x) * np.cos(3 * y)


def _f2_grad(x, y):
    return np.stack(np.broadcast_arrays(3 * np.cos(3 * x) * np.cos(3 * y),
                                        -3 * np.sin(3 * x) * np.sin(3 * y)), axis=-1)


def _f11(x, y):
    return -((x - y) ** 2)


def _f11_grad(x, y):
    return np.stack(np.broadcast_arrays(-2 * (x - y), 2 * (x - y)), axis=-1)


def _f12(x, y):
    return np.sin(x + y ** 2)


def _f12_grad(x, y):
    c = np.cos(x + y ** 2)
    return np.stack(np.broadcast_arrays(c, 2 * y * c), axis=-1)


def _f13(x, y):
    return np.sin(3 * np.pi * (np.sqrt(x ** 2 + y ** 2) + 0.25))


def _f13_grad(x, y):
    r = np.sqrt(x ** 2 + y ** 2)
    c = 3 * np.pi * np.cos(3 * np.pi * (r + 0.25))
    with np.errstate(divide="ignore", invalid="ignore"):
        gx = np.where(r > 0, c * x / np.where(r > 0, r, 1.0), 0.0)
        gy = np.where(r > 0, c * y / np.where(r > 0, r, 1.0), 0.0)
    return np.stack(np.broadcast_arrays(gx, gy), axis=-1)


def _f14(x, y):
    return -2 * (x ** 2 - y ** 2) ** 2 + 1


def _f14_grad(x, y):
    q = x ** 2 - y ** 2
    return np.stack(np.broadcast_arrays(-8 * x * q, 8 * y * q), axis=-1)


class TestFunction(Enum):
    """The six built-in sampling functions with their domains."""

    F1 = "f1"
    F2 = "f2"
    F11 = "f11"
    F12 = "f12"
    F13 = "f13"
    F14 = "f14"

    @property
    def domain(self) -> tuple[float, float, float, float]:
        """(xmin, xmax, ymin, ymax)."""
        return _DOMAINS[self]

    def __call__(self, x, y):
        return _FUNCS[self](np.asarray(x, float), np.asarray(y, float))

    def gradient(self, x, y):
        """Analytic gradient, shape (..., 2).  The program never calls it:
        it is the tests' analytic oracle, which checks the ground truth
        (``oracle.py``) and reruns the multistart that found F1's points."""
        return _GRADS[self](np.asarray(x, float), np.asarray(y, float))


_DOMAINS = {
    TestFunction.F1: (0.0, 1.0, 0.0, 1.0),
    TestFunction.F2: (-2.0, 2.0, -2.0, 2.0),
    TestFunction.F11: (-1.0, 1.0, -1.0, 1.0),
    TestFunction.F12: (-3.0, 3.0, -2.0, 2.0),
    TestFunction.F13: (-1.0, 1.0, -1.0, 1.0),
    TestFunction.F14: (-1.0, 1.0, -1.0, 1.0),
}
_FUNCS = {
    TestFunction.F1: _f1, TestFunction.F2: _f2, TestFunction.F11: _f11,
    TestFunction.F12: _f12, TestFunction.F13: _f13, TestFunction.F14: _f14,
}
_GRADS = {
    TestFunction.F1: _f1_grad, TestFunction.F2: _f2_grad, TestFunction.F11: _f11_grad,
    TestFunction.F12: _f12_grad, TestFunction.F13: _f13_grad, TestFunction.F14: _f14_grad,
}


def sample(tf: TestFunction, nx: int, ny: int) -> GridField:
    """Sample a test function on a uniform grid including both endpoints."""
    if nx < 4 or ny < 4:
        raise ValueError("nx and ny must be at least 4")
    xmin, xmax, ymin, ymax = tf.domain
    dx = (xmax - xmin) / (nx - 1)
    dy = (ymax - ymin) / (ny - 1)
    xs = xmin + dx * np.arange(nx)
    ys = ymin + dy * np.arange(ny)
    X, Y = np.meshgrid(xs, ys)
    return GridField(nx=nx, ny=ny, dx=dx, dy=dy, origin=(xmin, ymin),
                     values=tf(X, Y).ravel())


# ---------------------------------------------------------------------------
# CSV I/O
#
# Line 1: "nx,ny,dx,dy,x0,y0".  Then ny lines of nx comma-separated values,
# row-major.  Floats are written with repr so load(save(g)) is bit-exact.
# ---------------------------------------------------------------------------

class GridFormatError(ValueError):
    """Malformed grid CSV; message carries the offending line number."""


def save_csv(g: GridField, path) -> None:
    rows = g.grid2d()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{g.nx},{g.ny},{float(g.dx)!r},{float(g.dy)!r},"
                 f"{float(g.origin[0])!r},{float(g.origin[1])!r}\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_csv(path) -> GridField:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise GridFormatError("line 1: empty file")
    head = lines[0].split(",")
    if len(head) != 6:
        raise GridFormatError(f"line 1: expected 6 header fields, got {len(head)}")
    try:
        nx, ny = int(head[0]), int(head[1])
        dx, dy, x0, y0 = (float(s) for s in head[2:])
    except ValueError as exc:
        raise GridFormatError(f"line 1: malformed header: {exc}") from None
    if nx < 4 or ny < 4:
        raise GridFormatError(f"line 1: grid must be at least 4x4, got {nx}x{ny}")
    if len(lines) - 1 != ny:
        raise GridFormatError(f"expected {ny} value rows, got {len(lines) - 1} "
                              f"(expected {nx * ny} values)")
    try:
        values = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError:
        values = None
    if values is None or values.shape != (ny, nx):
        # name the first bad line; loadtxt skips blank lines and numbers its own rows
        for r, line in enumerate(lines[1:], start=2):
            if line.count(",") != nx - 1:
                raise GridFormatError(f"line {r}: expected {nx} values, got "
                                      f"{line.count(',') + 1} (grid needs {nx * ny} values)")
            try:
                np.loadtxt([line], delimiter=",", comments=None)
            except ValueError:
                # name the first field loadtxt cannot read; its own message
                # counts the rows of the one line it was handed
                for c, token in enumerate(line.split(","), start=1):
                    try:
                        np.loadtxt([line], delimiter=",", comments=None, usecols=c - 1)
                    except ValueError:
                        raise GridFormatError(f"line {r}: column {c}: cannot read "
                                              f"{token!r} as a number") from None
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise GridFormatError(f"line {int(np.argmin(finite)) + 2}: non-finite value")
    return GridField(nx=nx, ny=ny, dx=dx, dy=dy, origin=(x0, y0), values=values.ravel())
