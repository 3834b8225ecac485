"""Spans around the program's layers, and the per-layer metrics made from them.

`install` replaces each traced function at the name its caller looks it up
by (a module global of `gridstat.cli`, `gridstat.bindings` or
`gridstat.plotting`, or a method on its class) with a wrapper that records
one span per call: an id, a name, start and end times, the id of the
enclosing span, the thread, and counts read from the call's arguments and
return value.  Spans are kept in memory and written out when the run ends.

A span opened on a pool thread with no open span of its own takes the
innermost open span of the main thread as its parent, so the kernel calls
of both sweep threads nest under `sweep_full`.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
import tracemalloc

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, t0, t1, parent, thread, counts)
        self._open: dict[int, list[int]] = {}
        self._ids = itertools.count(1)
        self._main = threading.main_thread().ident
        #: when set, each sweep_full call runs under tracemalloc and appends
        #: its peak in MB to sweep_peaks_mb; the worker sets it only in an
        #: untimed pass, because tracemalloc slows the sweep by half again
        self.measure_memory = False
        self.sweep_peaks_mb: list[float] = []

    def wrap(self, name, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._open.setdefault(tid, [])
            outer = stack or self._open.get(self._main) or [None]
            sid, parent = next(self._ids), outer[-1]
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            self.spans.append((sid, name, t0, t1, parent, tid,
                               counts(args, kwargs, out) if counts else None))
            return out
        return traced


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every layer in `tracer`."""
    from gridstat import bindings, cli, plotting
    from gridstat.kernels import Kernel
    from gridstat.patch import PatchInterpolant, PatchMatrix

    cli.load_csv = tracer.wrap("grid.load_csv", cli.load_csv,
                               lambda a, k, g: {"nodes": g.nx * g.ny})
    for m in ("phi", "phi_prime", "phi_second", "psi", "eta"):
        setattr(Kernel, m, tracer.wrap(f"kernels.{m}", getattr(Kernel, m),
                                       lambda a, k, out: {"radii": int(np.size(a[1]))}))
    PatchMatrix.__init__ = tracer.wrap("patch.factorize", PatchMatrix.__init__)
    PatchMatrix.solve = tracer.wrap(
        "patch.solve", PatchMatrix.solve,
        lambda a, k, out: {"rhs": int(np.prod(np.shape(a[1])[:-1]))})
    for m in ("__call__", "gradient", "gradient_jacobian"):
        setattr(PatchInterpolant, m,
                tracer.wrap(f"patch.interp.{m}", getattr(PatchInterpolant, m)))

    sweep_full = cli.sweep_full

    def sweep(*args, **kwargs):
        if not tracer.measure_memory:
            return sweep_full(*args, **kwargs)
        tracemalloc.start()
        try:
            out = sweep_full(*args, **kwargs)
            tracer.sweep_peaks_mb.append(tracemalloc.get_traced_memory()[1] / 2 ** 20)
        finally:
            tracemalloc.stop()
        return out

    def sweep_counts(a, k, sr):
        cfg = a[2] if len(a) > 2 else k.get("cfg")
        ns = cfg.seeds_per_axis if cfg is not None else 3
        active = (sr.grid.nx - 3) * (sr.grid.ny - 3) - len(sr.flat_patches)
        return {"raw": len(sr.raw), "active": active, "seeds": active * ns * ns}

    cli.sweep_full = tracer.wrap("stationary.sweep", sweep, sweep_counts)
    cli.reduce_points = tracer.wrap(
        "stationary.reduce", cli.reduce_points,
        lambda a, k, out: {"raw": len(a[0]), "reduced": len(out)})
    bindings.cluster = tracer.wrap("bindings.cluster", bindings.cluster,
                                   lambda a, k, out: {"bindings": len(out)})
    bindings.summarize = tracer.wrap("bindings.summarize", bindings.summarize)
    cli.cmd_find = tracer.wrap(
        "cli.find", cli.cmd_find,
        lambda a, k, rc: {"report_bytes": os.path.getsize(a[0].json)})
    cli.render_svg = tracer.wrap(
        "plotting.render", cli.render_svg,
        lambda a, k, svg: {"svg_bytes": len(svg.encode("utf-8"))})
    plotting.marching_squares = tracer.wrap(
        "plotting.contour", plotting.marching_squares,
        lambda a, k, segs: {"segments": len(segs)})


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

#: per-layer metric -> (unit, better); counts of work done are better lower,
#: the share of seeds that yield a point higher
METRICS = {
    "trace.find_s": ("s", "lower"), "trace.plot_s": ("s", "lower"),
    "grid.load_s": ("s", "lower"), "grid.nodes": ("count", "lower"),
    "kernels.eval_s": ("s", "lower"), "kernels.radii": ("count", "lower"),
    "kernels.calls": ("count", "lower"),
    "patch.factorize_s": ("s", "lower"), "patch.solve_s": ("s", "lower"),
    "patch.rhs": ("count", "lower"), "patch.interp_s": ("s", "lower"),
    "patch.interp_calls": ("count", "lower"),
    "stationary.sweep_s": ("s", "lower"), "stationary.sweep_self_s": ("s", "lower"),
    "stationary.sweep_peak_mb": ("MB", "lower"),
    "stationary.active_patches": ("count", "lower"), "stationary.seeds": ("count", "lower"),
    "stationary.raw_points": ("count", "lower"),
    "stationary.raw_per_seed": ("ratio", "higher"),
    "stationary.reduce_s": ("s", "lower"), "stationary.reduce_self_s": ("s", "lower"),
    "stationary.reduced_points": ("count", "lower"),
    "stationary.raw_per_reduced": ("ratio", "lower"),
    "bindings.cluster_s": ("s", "lower"), "bindings.summarize_s": ("s", "lower"),
    "bindings.count": ("count", "lower"),
    "cli.find_self_s": ("s", "lower"), "cli.report_bytes": ("bytes", "lower"),
    "plotting.render_s": ("s", "lower"), "plotting.contour_s": ("s", "lower"),
    "plotting.segments": ("count", "lower"), "plotting.svg_bytes": ("bytes", "lower"),
}

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, end = 0.0, -np.inf
    for s, e in sorted(intervals):
        if e > end:
            total += e - max(s, end)
            end = e
    return total


def layer_metrics(spans: list, passes: int, sweep_peaks_mb: list[float]) -> dict[str, float]:
    """Per-pass layer metrics.  A group's time counts only its outermost
    spans (a kernel method calling another is one evaluation); self time is
    a span minus the union of its direct children, which also merges the
    overlapping children of the two sweep threads."""
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s[4], []).append(s)

    def group(name):
        # the methods of Kernel make one group, those of PatchInterpolant another
        if name.startswith(("kernels.", "patch.interp.")):
            return name.rsplit(".", 1)[0]
        return name

    def outer(prefix):
        return [s for s in spans if group(s[1]) == prefix
                and (s[4] not in by_id or group(by_id[s[4]][1]) != prefix)]

    def secs(prefix):
        return sum(s[3] - s[2] for s in outer(prefix))

    def self_secs(prefix):
        return sum(s[3] - s[2] - _covered((c[2], c[3]) for c in children.get(s[0], ()))
                   for s in outer(prefix))

    def count(prefix, key):
        return sum(s[6][key] for s in outer(prefix))

    seeds, raw = count("stationary.sweep", "seeds"), count("stationary.sweep", "raw")
    reduced = count("stationary.reduce", "reduced")
    m = {
        "grid.load_s": secs("grid.load_csv"),
        "grid.nodes": count("grid.load_csv", "nodes"),
        "kernels.eval_s": secs("kernels"),
        "kernels.radii": count("kernels", "radii"),
        "kernels.calls": len(outer("kernels")),
        "patch.factorize_s": secs("patch.factorize"),
        "patch.solve_s": secs("patch.solve"),
        "patch.rhs": count("patch.solve", "rhs"),
        "patch.interp_s": secs("patch.interp"),
        "patch.interp_calls": len(outer("patch.interp")),
        "stationary.sweep_s": secs("stationary.sweep"),
        "stationary.sweep_self_s": self_secs("stationary.sweep"),
        "stationary.active_patches": count("stationary.sweep", "active"),
        "stationary.seeds": seeds,
        "stationary.raw_points": raw,
        "stationary.reduce_s": secs("stationary.reduce"),
        "stationary.reduce_self_s": self_secs("stationary.reduce"),
        "stationary.reduced_points": reduced,
        "bindings.cluster_s": secs("bindings.cluster"),
        "bindings.summarize_s": secs("bindings.summarize"),
        "bindings.count": count("bindings.cluster", "bindings"),
        "cli.find_self_s": self_secs("cli.find"),
        "cli.report_bytes": count("cli.find", "report_bytes"),
        "plotting.render_s": secs("plotting.render"),
        "plotting.contour_s": secs("plotting.contour"),
        "plotting.segments": count("plotting.contour", "segments"),
        "plotting.svg_bytes": count("plotting.render", "svg_bytes"),
    }
    m = {k: v / passes for k, v in m.items()}
    # ratios and peaks are not per-pass sums
    m["stationary.raw_per_seed"] = raw / seeds if seeds else 0.0
    m["stationary.raw_per_reduced"] = (count("stationary.reduce", "raw") / reduced
                                       if reduced else 0.0)
    m["stationary.sweep_peak_mb"] = max(sweep_peaks_mb, default=0.0)
    return m
