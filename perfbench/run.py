"""Benchmark of gridstat as a user runs it: `find` on CSV grids, then `plot`.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload points-120 --seed 1 --seconds 10 --trace 0

The benchmark writes its input grids to CSV, times `import gridstat` in
fresh interpreters, then runs whole passes of the workload's calls in one
fresh worker process (worker.py) and checks every report and SVG against
the exact stationary sets of surfaces.py.  The last line of standard output
is one JSON object: end-to-end metrics with --trace 0, per-layer metrics
from a traced pass with --trace 1.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import spans
import surfaces

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: name -> (grid side, --threads, [(surface, kernel)])
WORKLOADS = {
    "points-120": (120, 1, [("f1", "gaussian"), ("f1", "iq"), ("f1", "wendland"),
                            ("f2", "gaussian")]),
    "curves-120": (120, 1, [("f11", "gaussian"), ("f12", "gaussian"),
                            ("f13", "gaussian"), ("f14", "gaussian")]),
    "large-240": (240, 2, [("f13", "gaussian")]),
}
END_TO_END = {"setup_s": "s", "find_s": "s", "plot_s": "s", "peak_rss_mb": "MB",
              "location_error_d": "d"}
SETUP_REPEATS = 5
#: plots of each report per pass, spread over the pass (see worker.py)
PLOT_REPEATS = 4
DEADLINE_S = 170


def measure_setup(env) -> float:
    """Median time from starting a fresh interpreter until `import gridstat`
    returns, read on the system-wide monotonic clock in both processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-c", "import gridstat, time; print(time.monotonic())"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(times)


def check_pass(p, calls, n, values, exact) -> tuple[list[str], float]:
    """Check every output of one pass.  Returns one entry per operation, an
    empty string when it is correct and its problems otherwise, and the RMS
    distance of all reported points to the exact sets, in units of d."""
    ops, sq_dist, npts = [], 0.0, 0
    for i, c in enumerate(calls):
        fn, base = c["fn"], os.path.join(p["dir"], c["name"])
        d = surfaces.diagonal(fn, n)
        report, problems = None, []
        if p["find_rc"][i] != 0:
            problems = [f"exit code {p['find_rc'][i]}"]
        else:
            try:
                with open(base + ".json", encoding="utf-8") as fh:
                    report = json.load(fh)
                problems = checks.check_report(report, fn, exact[fn], d)
                dist = exact[fn].distance(checks.report_points(report)) / d
            except (OSError, ValueError, KeyError, TypeError) as exc:
                report, problems = None, [f"unreadable report: {exc!r}"]
            else:
                sq_dist += float(np.sum(dist ** 2))
                npts += len(dist)
        ops.append(f"find {c['name']}: " + "; ".join(problems) if problems else "")
        for r, rc in enumerate(p["plot_rc"][i]):
            if rc != 0:
                problems = [f"exit code {rc}"]
            elif report is None:
                problems = ["no report to check the plot against"]
            else:
                try:
                    with open(f"{base}.{r}.svg", encoding="utf-8") as fh:
                        problems = checks.check_svg(fh.read(), report, values[fn])
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    problems = [f"unreadable SVG: {exc!r}"]
            ops.append(f"plot {c['name']}: " + "; ".join(problems) if problems else "")
    # with no points at all every find has failed, and the 0 reads as nothing
    return ops, (math.sqrt(sq_dist / npts) if npts else 0.0)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1,
                    help="orders the calls of a pass (default 1)")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="run whole passes until this much time is spent")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "gridstat", "__init__.py")):
        print(f"no gridstat package under {SRC}", file=sys.stderr)
        return 2
    n, threads, pairs = WORKLOADS[args.workload]
    out = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)

    values, exact = {}, {}
    for fn in sorted({fn for fn, _ in pairs}):
        values[fn] = surfaces.write_csv(fn, n, os.path.join(out, f"{fn}.csv"))
        exact[fn] = surfaces.exact_set(fn)
    calls = [{"name": f"{fn}-{kernel}", "fn": fn, "kernel": kernel, "threads": threads,
              "csv": os.path.join(out, f"{fn}.csv")} for fn, kernel in pairs]
    random.Random(args.seed).shuffle(calls)

    env = dict(os.environ, PYTHONPATH=SRC)
    setup_s = None if args.trace else measure_setup(env)

    plan = os.path.join(out, "plan.json")
    with open(plan, "w", encoding="utf-8") as fh:
        json.dump({"calls": calls, "out": out, "src": SRC, "seconds": args.seconds,
                   "plot_repeats": PLOT_REPEATS, "trace": args.trace}, fh)
    remaining = DEADLINE_S - (time.monotonic() - started)
    try:
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), plan],
                       env=env, cwd=ROOT, timeout=remaining, check=True,
                       stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        print(f"worker did not finish within {DEADLINE_S} s", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        print(f"worker failed with exit code {exc.returncode}", file=sys.stderr)
        return 1
    with open(os.path.join(out, "worker.json"), encoding="utf-8") as fh:
        result = json.load(fh)

    attempted = failed = 0
    for p in result["passes"]:
        problems, p["location_error_d"] = check_pass(p, calls, n, values, exact)
        attempted += len(problems)
        failed += sum(1 for op in problems if op)
        for op in problems:
            if op:
                print(op, file=sys.stderr)

    # A pass's find_s is the sum of its find calls.  Its plot_s is the sum
    # over reports of the slowest of each report's plots: pure-Python
    # plotting runs up to 2x slower while the shared machine is busy, in
    # spells of seconds to minutes, and the slowest of 4 spread-out plots
    # reads that busy speed in nearly every run, where a median reads the
    # mix of spells, which moved by a third between two sets of ten runs.
    find_s = statistics.median(sum(p["find_s"]) for p in result["passes"])
    plot_s = statistics.median(sum(max(t) for t in p["plot_s"]) for p in result["passes"])

    if args.trace:
        with open(os.path.join(out, "spans.json"), encoding="utf-8") as fh:
            traced = json.load(fh)
        layer = spans.layer_metrics(traced["spans"], len(result["passes"]),
                                    traced["sweep_peaks_mb"])
        layer["trace.find_s"] = find_s
        layer["trace.plot_s"] = plot_s
        metrics = {k: {"value": layer[k], "unit": u} for k, (u, _) in spans.METRICS.items()}
    else:
        value = {"setup_s": setup_s, "find_s": find_s, "plot_s": plot_s,
                 "peak_rss_mb": result["peak_rss_mb"],
                 "location_error_d": statistics.median(
                     p["location_error_d"] for p in result["passes"])}
        metrics = {k: {"value": value[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
