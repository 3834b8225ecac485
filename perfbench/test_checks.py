"""The benchmark's checks must reject wrong outputs.

Each test builds a correct report from the exact stationary set (points
sampled at spacing d, bindings as connected components within 4d), checks
that it passes, then corrupts it and expects a rejection.

Run from the root of the repository:
  PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import surfaces  # noqa: E402


def exact_report(fn, n):
    """A report in the program's format whose points lie on the exact set."""
    d = surfaces.diagonal(fn, n)
    exact = surfaces.exact_set(fn)
    classes = list(exact.classes or ["degenerate"] * len(exact.isolated))
    pts = [tuple(p) for p in exact.isolated]
    for c in exact.curves:
        samples = c.sample(d)
        pts += [tuple(p) for p in samples]
        classes += ["degenerate"] * len(samples)
    pos = np.array(pts)
    near = np.linalg.norm(pos[:, None] - pos[None], axis=2) <= 4 * d
    unseen, bindings = set(range(len(pos))), []
    while unseen:
        todo, members = [min(unseen)], set()
        while todo:
            i = todo.pop()
            if i in members:
                continue
            members.add(i)
            todo += [int(j) for j in np.flatnonzero(near[i]) if j not in members]
        unseen -= members
        bindings.append({"kind": "curve" if len(members) > 1 else "isolated",
                         "members": sorted(members)})
    return with_summary({"stationary_points": [
        {"x": x, "y": y, "value": 0.0, "class": k, "merged": 1}
        for (x, y), k in zip(pts, classes)], "bindings": bindings}), d


def with_summary(report):
    """Recompute the summary counts from the bindings."""
    kinds = [b["kind"] for b in report["bindings"]]
    report["summary"] = {"isolated": kinds.count("isolated"),
                         "curves": kinds.count("curve")}
    return report


def test_exact_reports_pass():
    for fn in surfaces.DOMAINS:
        report, d = exact_report(fn, 120)
        assert checks.check_report(report, fn, surfaces.exact_set(fn), d) == [], fn


def test_point_moved_by_2d_is_rejected():
    report, d = exact_report("f2", 120)
    report["stationary_points"][0]["x"] += 2 * d
    problems = checks.check_report(report, "f2", surfaces.exact_set("f2"), d)
    assert any("no reported point within d" in p for p in problems)


def test_dropped_curve_is_rejected():
    report, d = exact_report("f13", 120)
    dropped = next(b for b in report["bindings"] if b["kind"] == "curve")
    report["bindings"].remove(dropped)
    keep = [i for i in range(len(report["stationary_points"]))
            if i not in set(dropped["members"])]
    index = {old: new for new, old in enumerate(keep)}
    report["stationary_points"] = [report["stationary_points"][i] for i in keep]
    for b in report["bindings"]:
        b["members"] = [index[i] for i in b["members"]]
    problems = checks.check_report(with_summary(report), "f13", surfaces.exact_set("f13"), d)
    assert any("expected 1/7" in p for p in problems)
    assert any("curve samples" in p for p in problems)


def test_extra_isolated_point_is_rejected():
    report, d = exact_report("f2", 120)
    report["stationary_points"].append(
        {"x": 0.3, "y": 0.3, "value": 0.0, "class": "saddle", "merged": 1})
    report["bindings"].append({"kind": "isolated",
                               "members": [len(report["stationary_points"]) - 1]})
    problems = checks.check_report(with_summary(report), "f2", surfaces.exact_set("f2"), d)
    assert any("expected 24/0" in p for p in problems)
    assert any("delta_max" in p for p in problems)


def test_misclassified_point_is_rejected():
    report, d = exact_report("f1", 120)
    report["stationary_points"][0]["class"] = "saddle"
    assert checks.check_report(report, "f1", surfaces.exact_set("f1"), d)


@pytest.fixture(scope="module")
def rendered():
    from gridstat.grid import GridField
    from gridstat.plotting import render_svg
    fn, n = "f2", 40
    values = surfaces.sample(fn, n)
    dx, dy = surfaces.spacing(fn, n)
    g = GridField(nx=n, ny=n, dx=dx, dy=dy, origin=surfaces.DOMAINS[fn][::2],
                  values=values.ravel())
    report, _ = exact_report(fn, n)
    return render_svg(g, report=report), report, values


def test_svg_passes(rendered):
    svg, report, values = rendered
    assert checks.check_svg(svg, report, values) == []


def test_svg_missing_one_segment_is_rejected(rendered):
    svg, report, values = rendered
    lines = svg.split("\n")
    first = lines.index('<g id="contours">') + 1
    assert lines[first].startswith("<polyline")
    cut = "\n".join(lines[:first] + lines[first + 1:])
    problems = checks.check_svg(cut, report, values)
    assert any("contour segments" in p for p in problems)


def test_svg_that_does_not_parse_is_rejected(rendered):
    svg, report, values = rendered
    assert checks.check_svg(svg[:-20], report, values)
