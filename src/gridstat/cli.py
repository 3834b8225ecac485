"""Command-line front end: sample fields, find stationary points, plot.

Subcommands:
  sample  write a test-function grid as CSV
  find    run the full pipeline and emit a JSON report
  plot    render a report over its field as an SVG contour map

Exit codes: 0 success, 2 usage/input error, 3 numeric failure.  A path
that cannot be read or written (a missing file, a directory) is an input
error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from contextlib import nullcontext

import numpy as np

from . import bindings as bindings_mod
from .grid import GridField, GridFormatError, TestFunction, diag_step, load_csv, sample, save_csv
from .kernels import Kernel, KernelKind, shape_parameter
from .oracle import ground_truth_json
from .patch import DIAG, FactorizationError
from .plotting import render_svg
from .stationary import reduce_points, sweep_full

_FN_IDS = [tf.value for tf in TestFunction]
_KERNELS = {k.value: k for k in KernelKind}


class InputError(ValueError):
    pass


def run_pipeline(g: GridField, kind: KernelKind, alpha: float | None = None,
                 threads: int = 1, input_desc: dict | None = None,
                 timings: bool = True) -> dict:
    """Sweep -> reduce -> cluster -> summarize; returns the JSON report.

    alpha is the physical shape parameter (1/length).  The sweep takes it
    per grid-index unit, in which a cell's diagonal d is DIAG = sqrt(2):
    alpha d / DIAG, which is alpha dx on a square grid.  By default it gets
    the default for that diagonal, one value per kernel kind on every grid.
    """
    d = diag_step(g)
    alpha_default = shape_parameter(kind, d)
    if alpha is None:
        kernel = Kernel(kind, shape_parameter(kind, DIAG))
    elif not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    else:
        try:
            kernel = Kernel(kind, alpha * d / DIAG)
        except ValueError as exc:
            raise ValueError(f"alpha={alpha} is out of range ({exc} per grid-index "
                             "unit)") from None
    dmax = bindings_mod.delta_max(d)

    t0 = time.perf_counter()
    sr = sweep_full(g, kernel, threads=threads)
    t1 = time.perf_counter()
    points = reduce_points(sr.raw, sr)
    t2 = time.perf_counter()
    binds = bindings_mod.cluster(points, dmax)
    summary = bindings_mod.summarize(binds, points)
    t3 = time.perf_counter()

    report = {
        "input": input_desc or {},
        "kernel": kind.value,
        "alpha": alpha_default if alpha is None else alpha,
        "alpha_default": alpha_default,
        "d": d,
        "delta_max": dmax,
        "stationary_points": [
            {"x": float(p.position[0]), "y": float(p.position[1]),
             "value": p.value, "class": p.classification.value,
             "merged": p.members_merged}
            for p in points
        ],
        "bindings": [
            {"kind": b.kind.value, "members": list(b.member_indices)}
            for b in binds
        ],
        "summary": summary,
        "timings_ms": ({"sweep": (t1 - t0) * 1e3, "reduce": (t2 - t1) * 1e3,
                        "cluster": (t3 - t2) * 1e3} if timings else {}),
    }
    return report


def _input_desc(g: GridField, source: str) -> dict:
    return {"source": source, "nx": g.nx, "ny": g.ny, "dx": g.dx, "dy": g.dy,
            "origin": list(g.origin)}


def _parse_fn(name: str) -> TestFunction:
    try:
        return TestFunction(name.lower())
    except ValueError:
        raise InputError(f"unknown function {name!r}; valid ids: {', '.join(_FN_IDS)}")


def _load_field(args) -> tuple[GridField, str]:
    if args.infile and args.fn:
        raise InputError("--fn and --in exclude each other; pass one")
    if args.infile:
        return load_csv(args.infile), args.infile
    if args.fn:
        tf = _parse_fn(args.fn)
        return sample(tf, args.nx, args.ny), f"function {tf.value}"
    raise InputError("one of --fn or --in is required")


def cmd_sample(args) -> int:
    save_csv(sample(_parse_fn(args.fn), args.nx, args.ny), args.out)
    return 0


def _write_json(obj, path: str | None) -> None:
    """obj as indented JSON text, to the file at path or else to stdout."""
    with open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout) as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")


def _check_output(path: str | None) -> None:
    """Reject, before any work and creating nothing, an output path that is
    a directory or lies under a directory that does not exist."""
    if path and os.path.isdir(path):
        raise InputError(f"{path} is a directory")
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise InputError(f"{os.path.dirname(path)} is not a directory")


def cmd_find(args) -> int:
    _check_output(args.json)
    g, source = _load_field(args)
    kind = _KERNELS[args.kernel]
    if args.threads < 0:
        raise InputError(f"--threads must be 0 (all cores) or positive, got {args.threads}")
    threads = args.threads if args.threads else (os.cpu_count() or 1)
    report = run_pipeline(g, kind, alpha=args.alpha, threads=threads,
                          input_desc=_input_desc(g, source),
                          timings=not args.no_timings)
    _write_json(report, args.json)
    return 0


_GEOMETRY = ("nx", "ny", "dx", "dy", "origin")
_BINDING_KINDS = [k.value for k in bindings_mod.BindingKind]


def cmd_plot(args) -> int:
    if args.levels < 1:
        raise InputError(f"--levels must be positive, got {args.levels}")
    _check_output(args.out)
    with open(args.report, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    # the report must hold what is read of it: the geometry of a non-empty
    # input, and each point and binding member that render_svg overlays
    inp = report.get("input", {}) if isinstance(report, dict) else None
    if not isinstance(inp, dict) or inp and not (
            all(k in inp for k in _GEOMETRY) and all(type(inp[k]) is int for k in ("nx", "ny"))):
        raise InputError("report must be a JSON object whose input, if any, has "
                         "integer nx and ny, dx, dy and origin")
    pts, binds = report.get("stationary_points", []), report.get("bindings", [])
    points_ok = isinstance(pts, list) and all(
        isinstance(p, dict) and all(isinstance(p.get(c), (int, float)) for c in "xy") for p in pts)
    bindings_ok = isinstance(binds, list) and all(
        isinstance(b, dict) and b.get("kind") in _BINDING_KINDS
        and isinstance(b.get("members"), list) and b["members"]
        and all(type(i) is int and 0 <= i < len(pts) for i in b["members"]) for b in binds)
    if not (points_ok and bindings_ok):
        raise InputError("report points need a numeric x and y, and bindings a kind and "
                         "members that index the points")
    src = str(inp.get("source", ""))
    fn = _parse_fn(src.removeprefix("function ")) if src.startswith("function ") else None
    if not args.infile and fn is None:
        raise InputError("no field: pass --in or use a report made from --fn")
    g = load_csv(args.infile) if args.infile else sample(fn, inp["nx"], inp["ny"])
    field = _input_desc(g, "")
    if inp and any(inp[k] != field[k] for k in _GEOMETRY):
        geometry = "{nx}x{ny} grid with dx={dx!r}, dy={dy!r}, origin={origin!r}"
        raise InputError(f"report is for a {geometry.format(**inp)}; "
                         f"field is a {geometry.format(**field)}")
    gt = ground_truth_json(fn) if fn is not None else None
    svg = render_svg(g, report=report, ground_truth=gt, levels=args.levels)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return 0


def cmd_truth(args) -> int:
    _write_json(ground_truth_json(_parse_fn(args.fn)), args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gridstat",
        description="Stationary points of gridded scalar fields via piecewise "
                    "RBF interpolation, with curve/isolated-point grouping.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_fn(p, required=False):
        p.add_argument("--fn", choices=_FN_IDS, required=required,
                       help="built-in test function")
        p.add_argument("--nx", type=int, default=120)
        p.add_argument("--ny", type=int, default=120)

    ps = sub.add_parser("sample", help="sample a test function to CSV")
    add_fn(ps, required=True)
    ps.add_argument("-o", "--out", required=True, help="output CSV path")
    ps.set_defaults(handler=cmd_sample)

    pf = sub.add_parser("find", help="find stationary points and bindings")
    add_fn(pf)
    pf.add_argument("--in", dest="infile", help="input grid CSV")
    pf.add_argument("--kernel", choices=sorted(_KERNELS), default="gaussian")
    pf.add_argument("--alpha", type=float, default=None,
                    help="shape parameter in 1/length, overriding the default; the "
                    "patches use alpha*d/sqrt(2) per grid-index unit (d the cell "
                    "diagonal), which is alpha*dx on a square grid")
    pf.add_argument("--threads", type=int, default=0, help="0 = all cores")
    pf.add_argument("--json", default=None, help="report path (default stdout)")
    pf.add_argument("--no-timings", action="store_true",
                    help="omit wall-clock timings for byte-reproducible output")
    pf.set_defaults(handler=cmd_find)

    pp = sub.add_parser("plot", help="render a report as an SVG contour map")
    pp.add_argument("--report", required=True, help="JSON report from 'find'")
    pp.add_argument("--in", dest="infile", help="grid CSV (optional when the "
                    "report was made from --fn)")
    pp.add_argument("-o", "--out", required=True, help="output SVG path")
    pp.add_argument("--levels", type=int, default=10)
    pp.set_defaults(handler=cmd_plot)

    pt = sub.add_parser("truth", help="export analytic ground truth as JSON")
    pt.add_argument("--fn", choices=_FN_IDS, required=True)
    pt.add_argument("--json", default=None, help="output path (default stdout)")
    pt.set_defaults(handler=cmd_truth)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.handler(args)
    except (InputError, GridFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FactorizationError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
