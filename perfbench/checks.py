"""Checks of one `find` report and one `plot` SVG against the exact
stationary set of the surface they were made from.

Each check returns a list of problems; an empty list means the output is
correct.  Tolerances are in units of the grid diagonal d: reported points
within delta_max = 4d of the exact set, exact isolated points within d of
a reported point, exact curves covered to within delta_max away from a 2d
margin at the boundary.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np

from surfaces import DOMAINS, EXPECTED_COUNTS, ExactSet

_SVG = "{http://www.w3.org/2000/svg}"


def report_points(report: dict) -> np.ndarray:
    return np.array([(p["x"], p["y"]) for p in report["stationary_points"]],
                    float).reshape(-1, 2)


def _nearest(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row of a: distance to, and index of, the nearest row of b."""
    dist = np.empty(len(a))
    idx = np.empty(len(a), dtype=int)
    for s in range(0, len(a), 512):
        dd = np.linalg.norm(a[s:s + 512, None, :] - b[None], axis=2)
        idx[s:s + 512] = dd.argmin(axis=1)
        dist[s:s + 512] = dd[np.arange(len(dd)), idx[s:s + 512]]
    return dist, idx


def check_report(report: dict, fn: str, exact: ExactSet, d: float) -> list[str]:
    problems = []
    kinds = [b["kind"] for b in report["bindings"]]
    counts = (kinds.count("isolated"), kinds.count("curve"))
    summary = report["summary"]
    if (summary["isolated"], summary["curves"]) != counts:
        problems.append(f"summary {summary['isolated']}/{summary['curves']} "
                        f"disagrees with the bindings {counts[0]}/{counts[1]}")
    if counts != EXPECTED_COUNTS[fn]:
        problems.append(f"{counts[0]} isolated/{counts[1]} curves, expected "
                        f"{EXPECTED_COUNTS[fn][0]}/{EXPECTED_COUNTS[fn][1]}")

    pts = report_points(report)
    if len(pts) == 0:
        return problems + ["no stationary points reported"]
    dmax = 4.0 * d
    off = exact.distance(pts)
    if np.any(off > dmax):
        problems.append(f"{int(np.sum(off > dmax))} reported points farther than "
                        f"delta_max from the exact set (worst {off.max() / d:.2f} d)")

    if len(exact.isolated):
        dist, idx = _nearest(exact.isolated, pts)
        if np.any(dist > d):
            problems.append(f"{int(np.sum(dist > d))} exact isolated points have no "
                            f"reported point within d (worst {dist.max() / d:.2f} d)")
        if exact.classes is not None:
            got = [report["stationary_points"][i]["class"] for i in idx]
            wrong = sum(g != e for g, e in zip(got, exact.classes))
            if wrong:
                problems.append(f"{wrong} isolated points classified against the "
                                f"signs of the analytic Hessian")

    if exact.curves:
        xmin, xmax, ymin, ymax = DOMAINS[fn]
        samples = np.concatenate([c.sample(d / 2) for c in exact.curves])
        margin = np.minimum.reduce([samples[:, 0] - xmin, xmax - samples[:, 0],
                                    samples[:, 1] - ymin, ymax - samples[:, 1]])
        samples = samples[margin >= 2 * d]
        dist, _ = _nearest(samples, pts)
        if np.any(dist > dmax):
            problems.append(f"{int(np.sum(dist > dmax))} exact curve samples have no "
                            f"reported point within delta_max")
    return problems


def contour_segments(values: np.ndarray, levels: int = 10) -> int:
    """Marching-squares segment count over the plot's contour levels: per
    cell, half the number of its edges whose ends lie on opposite sides of
    the level."""
    vmin, vmax = float(values.min()), float(values.max())
    if not vmax > vmin:
        return 0
    total = 0
    for lv in np.linspace(vmin, vmax, levels + 2)[1:-1]:
        a = values > lv
        bl, br, tr, tl = a[:-1, :-1], a[:-1, 1:], a[1:, 1:], a[1:, :-1]
        total += int((bl != br).sum() + (br != tr).sum() + (tr != tl).sum() + (tl != bl).sum()) // 2
    return total


def check_svg(text: str, report: dict, values: np.ndarray) -> list[str]:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    groups = {g.get("id"): g for g in root.iter(f"{_SVG}g")}
    if "contours" not in groups or "detected" not in groups:
        return [f"SVG lacks a contours or detected layer (has {sorted(groups)})"]
    problems = []
    segs = len(groups["contours"].findall(f"{_SVG}polyline"))
    want = contour_segments(values)
    if segs != want:
        problems.append(f"{segs} contour segments, expected {want}")
    kinds = [b["kind"] for b in report["bindings"]]
    circles = len(groups["detected"].findall(f"{_SVG}circle"))
    lines = len(groups["detected"].findall(f"{_SVG}polyline"))
    if (circles, lines) != (kinds.count("isolated"), kinds.count("curve")):
        problems.append(f"detected layer has {circles} circles/{lines} polylines for "
                        f"{kinds.count('isolated')} isolated/{kinds.count('curve')} "
                        f"curve bindings")
    return problems
