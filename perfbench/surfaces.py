"""The benchmark's own copy of the built-in surfaces and their exact
stationary sets.

Nothing here imports the program: the formulas and domains are the surface
definitions, the curves are closed forms, and f1's isolated points come from
this module's own multistart Newton on the analytic gradient and Hessian.
Checks that rested on the program's oracle would move with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial as P

DOMAINS = {
    "f1": (0.0, 1.0, 0.0, 1.0),
    "f2": (-2.0, 2.0, -2.0, 2.0),
    "f11": (-1.0, 1.0, -1.0, 1.0),
    "f12": (-3.0, 3.0, -2.0, 2.0),
    "f13": (-1.0, 1.0, -1.0, 1.0),
    "f14": (-1.0, 1.0, -1.0, 1.0),
}

#: (isolated points, curves) a report must show; a binding is a connected
#: component of the stationary set, so f14's crossing diagonals are 1 curve.
EXPECTED_COUNTS = {
    "f1": (5, 0), "f2": (24, 0), "f11": (0, 1),
    "f12": (0, 4), "f13": (1, 7), "f14": (0, 1),
}

# f1 = sum_k A_k exp(-X_k(x) - Y_k(y)), with polynomial exponents
_F1_TERMS = [
    (0.75, P([-2, 9]) ** 2 / 4, P([-2, 9]) ** 2 / 4),
    (0.75, P([1, 9]) ** 2 / 49, P([1, 9]) / 10),
    (0.5, P([-7, 9]) ** 2 / 4, P([-3, 9]) ** 2 / 4),
    (-0.2, P([-4, 9]) ** 2, P([-7, 9]) ** 2),
]


def value(fn: str, x, y):
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if fn == "f1":
        return sum(a * np.exp(-X(x) - Y(y)) for a, X, Y in _F1_TERMS)
    if fn == "f2":
        return np.sin(3 * x) * np.cos(3 * y)
    if fn == "f11":
        return -((x - y) ** 2)
    if fn == "f12":
        return np.sin(x + y ** 2)
    if fn == "f13":
        return np.sin(3 * np.pi * (np.sqrt(x ** 2 + y ** 2) + 0.25))
    if fn == "f14":
        return -2 * (x ** 2 - y ** 2) ** 2 + 1
    raise ValueError(f"unknown surface {fn!r}")


def hessian(fn: str, x, y) -> np.ndarray:
    """Analytic Hessian of f1 or f2, shape (..., 2, 2)."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if fn == "f1":
        hxx = hxy = hyy = 0.0
        for a, X, Y in _F1_TERMS:
            e = a * np.exp(-X(x) - Y(y))
            dx, dy = X.deriv()(x), Y.deriv()(y)
            hxx = hxx + e * (dx * dx - X.deriv(2)(x))
            hxy = hxy + e * dx * dy
            hyy = hyy + e * (dy * dy - Y.deriv(2)(y))
    elif fn == "f2":
        hxx = hyy = -9 * np.sin(3 * x) * np.cos(3 * y)
        hxy = -9 * np.cos(3 * x) * np.sin(3 * y)
    else:
        raise ValueError(f"no Hessian for {fn!r}")
    hxx, hxy, hyy = np.broadcast_arrays(hxx, hxy, hyy)
    return np.stack([np.stack([hxx, hxy], -1), np.stack([hxy, hyy], -1)], -2)


def _f1_gradient(x, y):
    gx = gy = 0.0
    for a, X, Y in _F1_TERMS:
        e = a * np.exp(-X(x) - Y(y))
        gx = gx - e * X.deriv()(x)
        gy = gy - e * Y.deriv()(y)
    return gx, gy


def classify(h: np.ndarray) -> str:
    """Class of a stationary point from the signs of its Hessian."""
    det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
    if det < 0:
        return "saddle"
    return "minimum" if h[0, 0] + h[1, 1] > 0 else "maximum"


# ---------------------------------------------------------------------------
# Curves of stationary points: each gives its distance to points and a
# sampling of itself at a given spacing.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    p0: tuple[float, float]
    p1: tuple[float, float]

    def distance(self, pts: np.ndarray) -> np.ndarray:
        a, b = np.asarray(self.p0), np.asarray(self.p1)
        ab = b - a
        t = np.clip((pts - a) @ ab / (ab @ ab), 0.0, 1.0)
        return np.linalg.norm(pts - (a + t[:, None] * ab), axis=1)

    def sample(self, step: float) -> np.ndarray:
        a, b = np.asarray(self.p0), np.asarray(self.p1)
        n = int(math.ceil(np.linalg.norm(b - a) / step)) + 1
        return a + np.linspace(0.0, 1.0, n)[:, None] * (b - a)


@dataclass(frozen=True)
class CircleInBox:
    """The part of the circle |p| = radius that lies in the box."""

    radius: float
    box: tuple[float, float, float, float]

    def _inside(self, pts):
        xmin, xmax, ymin, ymax = self.box
        eps = 1e-12
        return ((pts[:, 0] >= xmin - eps) & (pts[:, 0] <= xmax + eps)
                & (pts[:, 1] >= ymin - eps) & (pts[:, 1] <= ymax + eps))

    def _ends(self) -> np.ndarray:
        xmin, xmax, ymin, ymax = self.box
        r = self.radius
        ends = [(s, sgn * math.sqrt(r * r - s * s)) for s in (xmin, xmax)
                if abs(s) <= r for sgn in (1, -1)]
        ends += [(sgn * math.sqrt(r * r - s * s), s) for s in (ymin, ymax)
                 if abs(s) <= r for sgn in (1, -1)]
        ends = np.array(ends, float).reshape(-1, 2)
        return ends[self._inside(ends)]

    def distance(self, pts: np.ndarray) -> np.ndarray:
        # the nearest point of the whole circle is the radial projection; when
        # that falls outside the box the nearest point of the clipped circle
        # is an end of one of its arcs
        norm = np.linalg.norm(pts, axis=1)
        proj = pts * (self.radius / np.where(norm > 0, norm, 1.0))[:, None]
        out = np.where(self._inside(proj), np.abs(norm - self.radius), np.inf)
        ends = self._ends()
        if len(ends):
            out = np.minimum(out, np.linalg.norm(
                pts[:, None, :] - ends[None], axis=2).min(axis=1))
        return out

    def sample(self, step: float) -> np.ndarray:
        n = int(math.ceil(2 * math.pi * self.radius / step))
        th = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
        pts = self.radius * np.column_stack([np.cos(th), np.sin(th)])
        return np.concatenate([pts[self._inside(pts)], self._ends()])


@dataclass(frozen=True)
class Parabola:
    """x = c - y^2 for y in [y0, y1]."""

    c: float
    y0: float
    y1: float

    def distance(self, pts: np.ndarray) -> np.ndarray:
        # d/dt |(c - t^2, t) - p|^2 = 0  <=>  t^3 + p t + q = 0
        px, py = pts[:, 0], pts[:, 1]
        p = (1.0 - 2.0 * (self.c - px)) / 2.0
        q = -py / 2.0
        disc = (q / 2) ** 2 + (p / 3) ** 3
        sq = np.sqrt(np.maximum(disc, 0.0))
        one = np.cbrt(-q / 2 + sq) + np.cbrt(-q / 2 - sq)
        m = 2.0 * np.sqrt(np.maximum(-p / 3, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            arg = np.clip(3 * q / (p * m), -1.0, 1.0)
        phi = np.arccos(np.where(disc < 0, arg, 0.0)) / 3
        roots = [one] + [np.where(disc < 0, m * np.cos(phi - 2 * math.pi * k / 3), one)
                         for k in range(3)]
        cands = [np.full_like(px, self.y0), np.full_like(px, self.y1)]
        cands += [np.clip(t, self.y0, self.y1) for t in roots]
        return np.min([np.hypot(self.c - t * t - px, t - py) for t in cands], axis=0)

    def sample(self, step: float) -> np.ndarray:
        # |d(x, y)/dy| <= sqrt(1 + 4 y^2) <= 5 on |y| <= 2
        n = int(math.ceil(5 * (self.y1 - self.y0) / step)) + 1
        t = np.linspace(self.y0, self.y1, n)
        return np.column_stack([self.c - t * t, t])


@dataclass(frozen=True)
class ExactSet:
    isolated: np.ndarray          # (k, 2)
    classes: tuple[str, ...] | None
    curves: tuple

    def distance(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, float).reshape(-1, 2)
        out = np.full(len(pts), np.inf)
        if len(self.isolated):
            out = np.linalg.norm(pts[:, None, :] - self.isolated[None], axis=2).min(axis=1)
        for c in self.curves:
            out = np.minimum(out, c.distance(pts))
        return out


def _f1_points() -> np.ndarray:
    """Multistart Newton on the analytic gradient of f1 in the unit square."""
    t = (np.arange(40) + 0.5) / 40
    x, y = (a.ravel() for a in np.meshgrid(t, t))
    for _ in range(60):
        gx, gy = _f1_gradient(x, y)
        h = hessian("f1", x, y)
        det = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            x, y = (x - (h[:, 1, 1] * gx - h[:, 0, 1] * gy) / det,
                    y - (h[:, 0, 0] * gy - h[:, 0, 1] * gx) / det)
        keep = np.isfinite(x) & np.isfinite(y) & (np.abs(x) < 10) & (np.abs(y) < 10)
        x, y = x[keep], y[keep]
    gx, gy = _f1_gradient(x, y)
    ok = (np.hypot(gx, gy) < 1e-12) & (x >= 0) & (x <= 1) & (y >= 0) & (y <= 1)
    pts: list[np.ndarray] = []
    for p in np.column_stack([x[ok], y[ok]]):
        if all(np.hypot(*(p - q)) > 1e-8 for q in pts):
            pts.append(p)
    return np.array(sorted(pts, key=tuple))


def _f12_curves():
    # sin(x + y^2) is stationary where x + y^2 = pi/2 + k pi
    xmin, xmax, ymin, ymax = DOMAINS["f12"]
    ymax2 = max(ymin * ymin, ymax * ymax)
    curves = []
    for k in range(-3, 4):
        c = math.pi / 2 + k * math.pi
        lo, hi = max(0.0, c - xmax), min(ymax2, c - xmin)
        if lo > hi:
            continue
        if lo == 0.0:
            curves.append(Parabola(c, -math.sqrt(hi), math.sqrt(hi)))
        else:
            curves += [Parabola(c, -math.sqrt(hi), -math.sqrt(lo)),
                       Parabola(c, math.sqrt(lo), math.sqrt(hi))]
    return tuple(curves)


def exact_set(fn: str) -> ExactSet:
    """The exact stationary set of a surface, clipped to its domain."""
    none = np.empty((0, 2))
    if fn == "f1":
        pts = _f1_points()
        return ExactSet(pts, tuple(classify(hessian("f1", *p)) for p in pts), ())
    if fn == "f2":
        zeros_cos = [math.pi / 6 + k * math.pi / 3 for k in range(-2, 2)]  # cos(3t) = 0
        zeros_sin = [k * math.pi / 3 for k in range(-1, 2)]               # sin(3t) = 0
        pts = np.array([(a, b) for a in zeros_cos for b in zeros_sin]
                       + [(b, a) for b in zeros_sin for a in zeros_cos])
        return ExactSet(pts, tuple(classify(hessian("f2", *p)) for p in pts), ())
    if fn == "f11":
        return ExactSet(none, None, (Segment((-1, -1), (1, 1)),))
    if fn == "f12":
        return ExactSet(none, None, _f12_curves())
    if fn == "f13":
        # radial derivative 3 pi cos(3 pi (r + 1/4)) = 0 at r = k/3 - 1/12;
        # the cone apex at the origin is stationary too
        box = DOMAINS["f13"]
        rmax = math.hypot(box[1], box[3])
        radii = [k / 3 - 1 / 12 for k in range(1, 6) if k / 3 - 1 / 12 < rmax]
        return ExactSet(np.zeros((1, 2)), None, tuple(CircleInBox(r, box) for r in radii))
    if fn == "f14":
        return ExactSet(none, None, (Segment((-1, -1), (1, 1)), Segment((-1, 1), (1, -1))))
    raise ValueError(f"unknown surface {fn!r}")


def spacing(fn: str, n: int) -> tuple[float, float]:
    """(dx, dy) of an n x n grid spanning the surface's domain."""
    xmin, xmax, ymin, ymax = DOMAINS[fn]
    return (xmax - xmin) / (n - 1), (ymax - ymin) / (n - 1)


def diagonal(fn: str, n: int) -> float:
    """The grid diagonal d, the unit of every tolerance."""
    return math.hypot(*spacing(fn, n))


def sample(fn: str, n: int) -> np.ndarray:
    """The surface on an n x n grid spanning its domain, shape (n, n), y by row."""
    xmin, _, ymin, _ = DOMAINS[fn]
    dx, dy = spacing(fn, n)
    return value(fn, *np.meshgrid(xmin + dx * np.arange(n), ymin + dy * np.arange(n)))


def write_csv(fn: str, n: int, path) -> np.ndarray:
    """Write sample(fn, n) in the program's CSV format, floats by repr so
    that reading it back is exact, and return the values."""
    v = sample(fn, n)
    dx, dy = spacing(fn, n)
    xmin, _, ymin, _ = DOMAINS[fn]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{n},{n},{dx!r},{dy!r},{xmin!r},{ymin!r}\n")
        for row in v:
            fh.write(",".join(repr(float(a)) for a in row) + "\n")
    return v
