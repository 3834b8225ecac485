"""Command-line front end: sample fields, find stationary points, plot.

Subcommands:
  sample  write a test-function grid as CSV
  find    run the full pipeline and emit a JSON report
  plot    render a report over its field as an SVG contour map

Exit codes: 0 success, 2 usage/input error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

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
    index_alpha = shape_parameter(kind, DIAG) if alpha is None else alpha * d / DIAG
    kernel = Kernel(kind, index_alpha)
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
    if getattr(args, "infile", None):
        return load_csv(args.infile), args.infile
    if getattr(args, "fn", None):
        tf = _parse_fn(args.fn)
        return sample(tf, args.nx, args.ny), f"function {tf.value}"
    raise InputError("one of --fn or --in is required")


def cmd_sample(args) -> int:
    tf = _parse_fn(args.fn)
    g = sample(tf, args.nx, args.ny)
    save_csv(g, args.out)
    return 0


def cmd_find(args) -> int:
    g, source = _load_field(args)
    kind = _KERNELS[args.kernel]
    if args.threads < 0:
        raise InputError(f"--threads must be 0 (all cores) or positive, got {args.threads}")
    threads = args.threads if args.threads else (os.cpu_count() or 1)
    report = run_pipeline(g, kind, alpha=args.alpha, threads=threads,
                          input_desc=_input_desc(g, source),
                          timings=not args.no_timings)
    text = json.dumps(report, indent=2) + "\n"
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_plot(args) -> int:
    if args.levels < 1:
        raise InputError(f"--levels must be positive, got {args.levels}")
    with open(args.report, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    g = load_csv(args.infile) if args.infile else None
    if g is None:
        src = report.get("input", {}).get("source", "")
        if not src.startswith("function "):
            raise InputError("no field: pass --in or use a report made from --fn")
        g = sample(_parse_fn(src.split()[1]),
                   report["input"]["nx"], report["input"]["ny"])
    inp = report.get("input", {})
    if inp and (inp.get("nx") != g.nx or inp.get("ny") != g.ny):
        raise InputError(
            f"report is for a {inp.get('nx')}x{inp.get('ny')} grid, "
            f"field is {g.nx}x{g.ny}")
    gt = None
    src = inp.get("source", "")
    if src.startswith("function "):
        gt = ground_truth_json(_parse_fn(src.split()[1]))
    svg = render_svg(g, report=report, ground_truth=gt, levels=args.levels)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return 0


def cmd_truth(args) -> int:
    tf = _parse_fn(args.fn)
    text = json.dumps(ground_truth_json(tf), indent=2) + "\n"
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
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
    except (InputError, GridFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FactorizationError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
