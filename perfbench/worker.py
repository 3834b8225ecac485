"""One fresh process per run: whole passes of `gridstat find` then
`gridstat plot` calls through `gridstat.cli.main`, as a user runs them.

Usage: python3 worker.py PLAN.json

The plan names the calls, the output directory and the run length.  A pass
runs the find calls in order, and after each one a round of plot calls:
one more plot of every report so far that has had fewer than plot_repeats.
Rounds go on after the last find until every report has them all, so the
plots of one report are spread over the pass instead of falling in one
slow or fast spell of the machine.  Every call is timed on its own; passes
repeat until the run length is spent, at least one.  The worker writes the
call times, return codes and peak RSS to <out>/worker.json and, when
tracing, the spans to <out>/spans.json.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    out = plan["out"]

    import gridstat
    from gridstat import cli
    if not os.path.abspath(gridstat.__file__).startswith(plan["src"] + os.sep):
        print(f"gridstat imported from {gridstat.__file__}, not {plan['src']}",
              file=sys.stderr)
        return 3

    tracer = None
    if plan["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    def call(argv):
        try:
            return cli.main(argv)
        except Exception:  # an operation that fails; the run goes on
            traceback.print_exc()
            return -1

    def run_pass(pdir):
        os.makedirs(pdir)
        calls = plan["calls"]
        find_s, find_rc = [], []
        plot_s, plot_rc = [[] for _ in calls], [[] for _ in calls]

        def plot_round():
            # one more plot of every report so far that has had fewer than
            # plot_repeats
            for i, c in enumerate(calls[:len(find_s)]):
                if len(plot_s[i]) < plan["plot_repeats"]:
                    t0 = time.perf_counter()
                    plot_rc[i].append(call([
                        "plot", "--report", os.path.join(pdir, c["name"] + ".json"),
                        "--in", c["csv"],
                        "-o", os.path.join(pdir, f"{c['name']}.{len(plot_s[i])}.svg")]))
                    plot_s[i].append(time.perf_counter() - t0)

        for c in calls:
            t0 = time.perf_counter()
            find_rc.append(call(["find", "--in", c["csv"], "--kernel", c["kernel"],
                                 "--threads", str(c["threads"]), "--no-timings",
                                 "--json", os.path.join(pdir, c["name"] + ".json")]))
            find_s.append(time.perf_counter() - t0)
            plot_round()
        while any(len(t) < plan["plot_repeats"] for t in plot_s):
            plot_round()
        return {"dir": pdir, "find_s": find_s, "plot_s": plot_s,
                "find_rc": find_rc, "plot_rc": plot_rc}

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < plan["seconds"]:
        passes.append(run_pass(os.path.join(out, f"pass{len(passes)}")))

    result = {"passes": passes,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        # one more, untimed find call for the sweep's tracemalloc peak, which
        # depends on the grid size that all calls of a workload share; its
        # spans are dropped
        kept = len(tracer.spans)
        tracer.measure_memory = True
        c = min(plan["calls"], key=lambda c: c["name"])
        call(["find", "--in", c["csv"], "--kernel", c["kernel"],
              "--threads", str(c["threads"]), "--no-timings",
              "--json", os.path.join(out, "memory.json")])
        del tracer.spans[kept:]
        with open(os.path.join(out, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "sweep_peaks_mb": tracer.sweep_peaks_mb}, fh)
    with open(os.path.join(out, "worker.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
