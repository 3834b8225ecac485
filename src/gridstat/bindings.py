"""Grouping of stationary points into bindings (curves vs. isolated points).

Two reduced stationary points on the same underlying curve can end up at
most 4d apart (d = grid diagonal), so bindings are the connected components
of the "within 4d" relation among the reduced points' positions, an (m, 2)
array whose rows the bindings name.  Each point's neighbors come from
``grid.neighbor_lists``, as in the duplicate reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .grid import neighbor_lists


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


def cluster(positions: np.ndarray, dmax: float) -> list[Binding]:
    """Partition the points at positions (m, 2) into bindings: breadth-first
    growth of the within-dmax relation, seeds taken in row order.  The
    neighbor lists hold every pair within dmax, O(pairs) for dense inputs."""
    n = len(positions)
    if n == 0:
        return []
    near = neighbor_lists(positions, dmax)
    assigned = [False] * n
    bindings = []
    for start in range(n):
        if assigned[start]:
            continue
        assigned[start] = True
        members = [start]
        for u in members:  # the list grows as the search reaches new points
            for w in near[u]:
                if not assigned[w]:
                    assigned[w] = True
                    members.append(w)
        kind = BindingKind.ISOLATED if len(members) == 1 else BindingKind.CURVE
        bindings.append(Binding(member_indices=tuple(sorted(members)), kind=kind))
    return bindings


def summarize(bindings: list[Binding], positions: np.ndarray) -> dict:
    """Counts plus per-curve member counts and axis-aligned extents of the
    points at positions (m, 2)."""
    curves = []
    n_isolated = 0
    for b in bindings:
        if b.kind is BindingKind.ISOLATED:
            n_isolated += 1
            continue
        pos = positions.take(b.member_indices, axis=0)
        curves.append({
            "members": len(b.member_indices),
            "xmin": float(pos[:, 0].min()), "xmax": float(pos[:, 0].max()),
            "ymin": float(pos[:, 1].min()), "ymax": float(pos[:, 1].max()),
        })
    return {"isolated": n_isolated, "curves": len(curves), "curve_details": curves}
