"""Interleaved A/B timing of whole `gridstat find` passes of two source trees
in one process.

Copies each tree's `gridstat` package into a temporary directory under a
package name of its own (`gridstat_parent`, `gridstat_change`), writes the
workload's grids with `perfbench/surfaces.write_csv`, and runs whole passes
of the workload's `find` calls (`--no-timings`, the workload's
`--threads`, which only trees older than the one-thread sweep read, the
calls in perfbench's order) through each copy's `cli.main`.
Each side first runs one untimed pass, then one more under tracemalloc;
then round r runs the two sides in ABBA order (parent first in even
rounds, change first in odd ones), so a slow or fast spell of the machine
does not always fall on one side.  It prints, per side, the median and
best pass time, the median CPU time of the process over a pass (above the
wall time when BLAS runs threads) and the traced pass's
tracemalloc peak in MB (2^20 bytes; both trees run in one process, so its
peak RSS cannot tell them apart), the number of rounds the change won, and
whether the reports of every pass of both trees are byte-identical.

Usage (from the root of a checkout):
  python3 scripts/ab_find.py --parent ../parent/src --change src \\
      --workload points-120 --rounds 16

Exits 1 if a `find` call fails or a report differs between the trees.
Reads perfbench/ (the workloads and surfaces) and changes nothing there.
"""

from __future__ import annotations

import argparse
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


def run_pass(cli, calls: list[dict], out: str) -> tuple[float, float, dict[str, bytes]]:
    """Wall and CPU seconds of one pass of the find calls, and their reports."""
    os.makedirs(out)
    reports = {}
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for c in calls:
        path = os.path.join(out, c["name"] + ".json")
        rc = cli.main(["find", "--in", c["csv"], "--kernel", c["kernel"],
                       "--threads", str(c["threads"]), "--no-timings", "--json", path])
        if rc != 0:
            raise SystemExit(f"find {c['name']} exited {rc} in {out}")
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    for c in calls:
        with open(os.path.join(out, c["name"] + ".json"), "rb") as fh:
            reports[c["name"]] = fh.read()
    return wall, cpu, reports


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="directory holding the parent's gridstat")
    ap.add_argument("--change", required=True, help="directory holding the change's gridstat")
    ap.add_argument("--workload", required=True, help="a workload of perfbench/run.py")
    ap.add_argument("--rounds", type=int, default=16, help="timed rounds (default 16)")
    args = ap.parse_args(argv)

    sys.path.insert(0, PERFBENCH)
    import surfaces
    from run import WORKLOADS

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

        wall = {side: [] for side in SIDES}
        cpu = {side: [] for side in SIDES}
        peak = {}
        want = None
        identical = True
        # round -2 is the untimed warm-up and round -1 the untimed traced pass
        for r in range(-2, args.rounds):
            order = SIDES if r % 2 == 0 else SIDES[::-1]
            for side in order:
                if r == -1:
                    tracemalloc.start()
                w, c, reports = run_pass(cli[side], calls,
                                         os.path.join(tmp, f"{side}-{r + 2}"))
                if r == -1:
                    peak[side] = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                want = want or reports
                identical = identical and reports == want
                if r >= 0:
                    wall[side].append(w)
                    cpu[side].append(c)

    print(f"{args.workload}: {args.rounds} rounds of {len(calls)} find calls, ABBA order")
    for side in SIDES:
        print(f"{side:7s} median {1e3 * statistics.median(wall[side]):8.1f} ms  "
              f"best {1e3 * min(wall[side]):8.1f} ms  "
              f"cpu median {1e3 * statistics.median(cpu[side]):8.1f} ms  "
              f"traced peak {peak[side]:6.1f} MB")
    won = sum(c < p for p, c in zip(wall["parent"], wall["change"]))
    print(f"change won {won} of {args.rounds} rounds")
    print(f"reports byte-identical: {'yes' if identical else 'NO'}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
