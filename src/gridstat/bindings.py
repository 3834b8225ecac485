"""Grouping of stationary points into bindings (curves vs. isolated points).

Two reduced stationary points on the same underlying curve can end up at
most 4d apart (d = grid diagonal), so bindings are the connected components
of the "within 4d" relation.  Neighbor lookup uses a uniform grid hash with
cell size equal to the query radius; the candidates from the 5x5 cell
block around the query point are distance-checked exactly, with one array
``np.hypot``.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .stationary import StationaryPoint


def delta_max(d: float) -> float:
    """Maximum spacing of consecutive reduced points on one curve: 4d."""
    if d <= 0:
        raise ValueError(f"diagonal step must be positive, got {d}")
    return 4.0 * d


class BindingKind(Enum):
    ISOLATED = "isolated"
    CURVE = "curve"


@dataclass(frozen=True)
class Binding:
    member_indices: tuple[int, ...]
    kind: BindingKind


class NeighborIndex:
    """Fixed-radius neighbor queries over 2-D points via a grid hash."""

    def __init__(self, positions: np.ndarray, radius: float):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.positions = np.asarray(positions, float).reshape(-1, 2)
        self.radius = radius
        self._cells: dict[tuple[int, int], list[int]] = defaultdict(list)
        for idx, (x, y) in enumerate(self.positions):
            self._cells[self._cell(x, y)].append(idx)

    def _cell(self, x: float, y: float) -> tuple[int, int]:
        return (math.floor(x / self.radius), math.floor(y / self.radius))

    def query(self, x: float, y: float) -> list[int]:
        """Indices of all points within ``radius`` of (x, y), ascending.

        A pair whose distance rounds to exactly ``radius`` can hash two cells
        apart (the cell index rounds too), so the block searched around the
        query cell is 5x5 rather than 3x3.
        """
        cx, cy = self._cell(x, y)
        cand = [idx for gx in range(cx - 2, cx + 3) for gy in range(cy - 2, cy + 3)
                for idx in self._cells.get((gx, gy), ())]
        if not cand:
            return []
        cand = np.array(cand)
        p = self.positions[cand]
        return sorted(cand[np.hypot(p[:, 0] - x, p[:, 1] - y) <= self.radius].tolist())


def cluster(points: list[StationaryPoint], dmax: float) -> list[Binding]:
    """Partition points into bindings: breadth-first growth of the
    within-dmax relation, seeds taken in list order."""
    positions = np.array([np.asarray(p.position, float) for p in points]).reshape(-1, 2)
    n = len(points)
    if n == 0:
        return []
    index = NeighborIndex(positions, dmax)
    assigned = np.zeros(n, dtype=bool)
    bindings = []
    for start in range(n):
        if assigned[start]:
            continue
        assigned[start] = True
        members = [start]
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in index.query(*positions[u]):
                if not assigned[w]:
                    assigned[w] = True
                    members.append(w)
                    queue.append(w)
        kind = BindingKind.ISOLATED if len(members) == 1 else BindingKind.CURVE
        bindings.append(Binding(member_indices=tuple(sorted(members)), kind=kind))
    return bindings


def summarize(bindings: list[Binding], points: list[StationaryPoint]) -> dict:
    """Counts plus per-curve member counts and axis-aligned extents."""
    curves = []
    n_isolated = 0
    for b in bindings:
        if b.kind is BindingKind.ISOLATED:
            n_isolated += 1
            continue
        pos = np.array([points[i].position for i in b.member_indices])
        curves.append({
            "members": len(b.member_indices),
            "xmin": float(pos[:, 0].min()), "xmax": float(pos[:, 0].max()),
            "ymin": float(pos[:, 1].min()), "ymax": float(pos[:, 1].max()),
        })
    return {"isolated": n_isolated, "curves": len(curves), "curve_details": curves}
