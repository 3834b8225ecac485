"""Interleaved A/B timing of whole `gridstat find` and `gridstat plot` passes
of two source trees in one process.

Copies each tree's `gridstat` package into a temporary directory under a
package name of its own (`gridstat_parent`, `gridstat_change`), writes the
workload's grids with `perfbench/surfaces.write_csv`, and runs whole passes
of the workload's `find` calls (`--no-timings`, the workload's
`--threads`, which only trees older than the one-thread sweep read, the
calls in perfbench's order) through each copy's `cli.main`.  After a
pass's find calls it plots every report 4 times, in 4 rounds of one plot
per report, as perfbench's worker does; a pass's plot time is, as
perfbench's `plot_s`, the sum over reports of the slowest of its 4 plots.
Each side first runs one untimed pass, then one more under tracemalloc;
then round r runs the two sides in ABBA order (parent first in even
rounds, change first in odd ones), so a slow or fast spell of the machine
does not always fall on one side.  It prints, per side, the median and
best time of a pass's find calls, the median CPU time of the process over
them (above the wall time when BLAS runs threads), the median plot time,
the traced pass's tracemalloc peaks in MB (2^20 bytes), the largest over
one find call and the largest over one plot call, each above what was
traced when the call started (both trees run in one process, so its peak
RSS cannot tell them apart, nor its page faults), the number of rounds
the change won on each, and whether the SVGs and the reports of every
pass of both trees are byte-identical.

Usage (from the root of a checkout):
  python3 scripts/ab_find.py --parent ../parent/src --change src \\
      --workload points-120 --rounds 16

Exits 1 if a call fails or a report or SVG differs between the trees.
Reads perfbench/ (the workloads, the plot count and the surfaces) and changes
nothing there.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
SIDES = ("parent", "change")


def load_copy(src: str, name: str, into: str):
    """The `cli` module of a copy of src/gridstat imported as package `name`."""
    package = os.path.join(src, "gridstat")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"no gridstat package under {src}")
    shutil.copytree(package, os.path.join(into, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli")


def run_pass(cli, calls: list[dict], out: str, repeats: int) -> dict:
    """Wall and CPU seconds of one pass's find calls, the plot time of
    their reports (the sum over reports of the slowest of each one's
    `repeats` plots), and, when tracemalloc is tracing, the largest peak of
    one find call and of one plot call in MB above what was traced when the
    call started (0 when it is not tracing)."""
    os.makedirs(out)
    peak = {"find": 0.0, "plot": 0.0}

    def traced(kind, argv):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        rc = cli.main(argv)
        peak[kind] = max(peak[kind], (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20)
        return rc

    wall0, cpu0 = time.perf_counter(), time.process_time()
    for c in calls:
        path = os.path.join(out, c["name"] + ".json")
        rc = traced("find", ["find", "--in", c["csv"], "--kernel", c["kernel"],
                             "--threads", str(c["threads"]), "--no-timings", "--json", path])
        if rc != 0:
            raise SystemExit(f"find {c['name']} exited {rc} in {out}")
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    plot_s = {c["name"]: [] for c in calls}
    for r in range(repeats):
        for c in calls:
            svg = os.path.join(out, f"{c['name']}.{r}.svg")
            t0 = time.perf_counter()
            rc = traced("plot", ["plot", "--report", os.path.join(out, c["name"] + ".json"),
                                 "--in", c["csv"], "-o", svg])
            plot_s[c["name"]].append(time.perf_counter() - t0)
            if rc != 0:
                raise SystemExit(f"plot {c['name']} exited {rc} in {out}")
    return {"find_s": wall, "cpu_s": cpu, "plot_s": sum(max(t) for t in plot_s.values()),
            "peak_mb": peak}


def digests(calls: list[dict], out: str, repeats: int) -> dict[str, bytes]:
    """SHA-256 of each report and SVG a pass wrote, by file name."""
    names = ([c["name"] + ".json" for c in calls]
             + [f"{c['name']}.{r}.svg" for c in calls for r in range(repeats)])
    found = {}
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            found[name] = hashlib.sha256(fh.read()).digest()
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="directory holding the parent's gridstat")
    ap.add_argument("--change", required=True, help="directory holding the change's gridstat")
    ap.add_argument("--workload", required=True, help="a workload of perfbench/run.py")
    ap.add_argument("--rounds", type=int, default=16, help="timed rounds (default 16)")
    args = ap.parse_args(argv)

    sys.path.insert(0, PERFBENCH)
    import surfaces
    from run import PLOT_REPEATS, WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    n, threads, pairs = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix="ab_find_") as tmp:
        sys.path.insert(0, tmp)
        cli = {side: load_copy(os.path.abspath(src), f"gridstat_{side}", tmp)
               for side, src in zip(SIDES, (args.parent, args.change))}
        for fn in sorted({fn for fn, _ in pairs}):
            surfaces.write_csv(fn, n, os.path.join(tmp, f"{fn}.csv"))
        calls = [{"name": f"{fn}-{kernel}", "kernel": kernel, "threads": threads,
                  "csv": os.path.join(tmp, f"{fn}.csv")} for fn, kernel in pairs]
        random.Random(1).shuffle(calls)  # perfbench's order at its default --seed

        timed = {side: [] for side in SIDES}
        peak = {}
        want = None
        identical = {"reports": True, "svgs": True}
        # round -2 is the untimed warm-up and round -1 the untimed traced pass
        for r in range(-2, args.rounds):
            order = SIDES if r % 2 == 0 else SIDES[::-1]
            for side in order:
                if r == -1:
                    tracemalloc.start()
                out = os.path.join(tmp, f"{side}-{r + 2}")
                got = run_pass(cli[side], calls, out, PLOT_REPEATS)
                if r == -1:
                    peak[side] = got["peak_mb"]
                    tracemalloc.stop()
                found = digests(calls, out, PLOT_REPEATS)
                shutil.rmtree(out)
                want = want or found
                for name, digest in found.items():
                    kind = "svgs" if name.endswith(".svg") else "reports"
                    identical[kind] = identical[kind] and digest == want[name]
                if r >= 0:
                    timed[side].append(got)

    def median_ms(side, key):
        return 1e3 * statistics.median(p[key] for p in timed[side])

    def won(key):
        return sum(c[key] < p[key] for p, c in zip(timed["parent"], timed["change"]))

    print(f"{args.workload}: {args.rounds} rounds of {len(calls)} find calls, ABBA order")
    for side in SIDES:
        print(f"{side:7s} median {median_ms(side, 'find_s'):8.1f} ms  "
              f"best {1e3 * min(p['find_s'] for p in timed[side]):8.1f} ms  "
              f"cpu median {median_ms(side, 'cpu_s'):8.1f} ms  "
              f"plot median {median_ms(side, 'plot_s'):7.1f} ms  "
              f"traced peak find {peak[side]['find']:6.2f} MB "
              f"plot {peak[side]['plot']:6.2f} MB")
    print(f"change won {won('find_s')} of {args.rounds} rounds, "
          f"{won('plot_s')} on plot time")
    print(f"SVGs byte-identical: {'yes' if identical['svgs'] else 'NO'}")
    print(f"reports byte-identical: {'yes' if identical['reports'] else 'NO'}")
    return 0 if all(identical.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
