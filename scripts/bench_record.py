"""Record a parent-against-change benchmark comparison in BENCH_<n>.json.

Runs `perfbench/run.py` in two checkouts, a parent and a change, for a
number of pairs per workload.  The side that runs first alternates from pair
to pair, so a slow or fast spell of the machine does not always fall on the
same side; pair k uses --seed SEED+k on both sides.  The file holds the raw
JSON line of every run, both git revisions, Python, numpy and CPU, and per
workload and metric the median and quartiles of each side, the ratio of the
medians and the number of pairs the change won.

Usage (from the root of a checkout):
  python3 scripts/bench_record.py --parent ../parent --change . \\
      --pairs 10 --seed 601 --out BENCH_6.json
  python3 scripts/bench_record.py --parent ../parent --change . \\
      --workload points-120 --pairs 3 --out /tmp/bench.json

Each run lasts the change's BENCHMARK.json `run_seconds`, untraced, and a
metric is better lower unless that file says otherwise.  A pair is won when
the change's value is strictly better than the parent's.
Uses the standard library and numpy only (numpy only to record its version).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

def quartiles(values: list[float]) -> dict[str, float]:
    """Median and first and third quartiles (inclusive method, the one that
    gives min and max as the 0th and 4th quartiles)."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Number of pairs in which the change is strictly better."""
    if better == "higher":
        return sum(c > p for p, c in zip(parent, change))
    return sum(c < p for p, c in zip(parent, change))


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Statistics of one metric over paired runs.  ``clear_gain`` is whether
    the medians differ in the better direction by more than the distance
    between the parent's quartiles."""
    p, c = quartiles(parent), quartiles(change)
    gain = p["median"] - c["median"] if better != "higher" else c["median"] - p["median"]
    return {"better": better, "pairs": len(parent), "parent": p, "change": c,
            "ratio": c["median"] / p["median"] if p["median"] else None,
            "wins": wins(parent, change, better),
            "clear_gain": gain > p["q3"] - p["q1"]}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per-metric statistics over the pairs in which both runs gave a result."""
    done = [pr for pr in pairs if pr["parent"] and pr["change"]]
    names = sorted({m for pr in done for side in ("parent", "change")
                    for m in pr[side]["metrics"]})
    out = {}
    for m in names:
        both = [pr for pr in done
                if m in pr["parent"]["metrics"] and m in pr["change"]["metrics"]]
        if both:
            out[m] = compare([pr["parent"]["metrics"][m]["value"] for pr in both],
                             [pr["change"]["metrics"][m]["value"] for pr in both],
                             better.get(m, "lower"))
    return out


def revision(checkout: str) -> dict:
    def git(*args):
        r = subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True)
        return r.stdout.strip() if r.returncode == 0 else None

    return {"commit": git("rev-parse", "HEAD"),
            "src_tree": git("rev-parse", "HEAD:src"),
            "dirty": bool(git("status", "--porcelain", "--", "src", "perfbench"))}


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        if names:
            cpu = names[0]
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__, "cpu": cpu,
            "cores": os.cpu_count(), "platform": platform.platform()}


def run_once(checkout: str, cmd: list[str]) -> dict | None:
    """The last stdout line of one benchmark run as JSON, or None if it failed."""
    r = subprocess.run([sys.executable, *cmd], cwd=checkout, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        print(f"run failed in {checkout} (exit {r.returncode}): {r.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default all in BENCHMARK.json)")
    ap.add_argument("--pairs", type=int, default=10, help="pairs per workload (default 10)")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair (default 1)")
    args = ap.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = str(bench["run_seconds"])
    sides = {"parent": args.parent, "change": args.change}
    record = {"parent": revision(args.parent), "change": revision(args.change),
              "environment": environment(), "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "command": ["perfbench/run.py", "--workload", "W", "--seed", "S",
                          "--seconds", seconds, "--trace", "0"],
              "workloads": {}}
    failed = 0
    for w in args.workload or [w["name"] for w in bench["workloads"]]:
        pairs = []
        for k in range(args.pairs):
            seed = args.seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            cmd = ["perfbench/run.py", "--workload", w, "--seed", str(seed),
                   "--seconds", seconds, "--trace", "0"]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], cmd)
                failed += pair[side] is None or not pair[side]["correct"]
            pairs.append(pair)
            print(f"{w} pair {k + 1}/{args.pairs} done", file=sys.stderr)
        record["workloads"][w] = {"pairs": pairs, "metrics": summarize(pairs, better)}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for w, res in record["workloads"].items():
        for m, s in res["metrics"].items():
            print(f"{w:11s} {m:17s} {s['parent']['median']:10.4g} -> "
                  f"{s['change']['median']:10.4g}  wins {s['wins']}/{s['pairs']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
