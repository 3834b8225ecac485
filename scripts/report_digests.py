"""SHA-256 digests of `gridstat find --no-timings` reports and their plots.

Runs `find` on every built-in function with every kernel at 120x120; on
f13 at 240x240 with every kernel; on f13 on non-square grids: 120x60 and
240x120 with every kernel and 200x40 with the Gaussian and inverse
quadric kernels; on f2 on a stretched 200x40 grid with the Gaussian
kernel; and on f1 with the Wendland kernel at four times its default shape
parameter (31 reports).  It renders each report with `plot`, digests the
sweep under each report twice, its raw points (``raw_digest``) and its
seed counts (``seeds_digest``), and prints one line per report, per SVG,
per digest of the sweep and per report's counts: the digest and the case
(`<case>` for the report, `<case>.svg` for its plot, `<case>.raw` and
`<case>.seeds` for its sweep, `<case>.counts` for ``report_counts`` of its
report in place of a digest).  A change that must leave the reports,
plots and Newton work unchanged is checked by writing the digests before
it and comparing after it; one that moves the Newton work but not its
outcome differs in the `.seeds` lines only; one that may move the bits of
the weights reads the `.counts` lines: the bits moved, the counts held.

Usage (from the root of a checkout):
  python3 scripts/report_digests.py > digests.txt
  python3 scripts/report_digests.py --compare digests.txt
  python3 scripts/report_digests.py --compare digests.txt --counts
  python3 scripts/report_digests.py --src ../other-checkout/src > other.txt

With --compare FILE the script exits 1 if any digest differs from FILE or
any case is missing from either side, and its last line counts the
mismatched lines of each kind (``suffix_counts``), as in `124 of 155
digests match; mismatched: report 0, .svg 0, .raw 0, .seeds 31,
.counts 0`.  With --counts as well it compares the `.counts` lines only
(``count_mismatches``): it exits 1 if a case is missing or its isolated
or curve count differs, and prints without failing a points count that
moved, as rounding alone moves the points of a curve.  Uses the standard
library and numpy only; the 31 cases take about 6 s on a 2-vCPU Xeon
guest.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
FUNCTIONS = ("f1", "f2", "f11", "f12", "f13", "f14")
#: the kinds of digest line: a report (no suffix), then the suffixed ones
SUFFIXES = ("report", ".svg", ".raw", ".seeds", ".counts")
KERNELS = ("gaussian", "iq", "wendland")


def cases() -> list[tuple[str, list[str]]]:
    """(name, `find` arguments) of every report."""
    def case(fn, kernel, nx, ny, alpha=None):
        size = str(nx) if nx == ny else f"{nx}x{ny}"
        name = f"{fn}-{kernel}-{size}" + (f"-alpha{alpha}" if alpha else "")
        argv = ["--fn", fn, "--kernel", kernel, "--nx", str(nx), "--ny", str(ny)]
        return name, argv + (["--alpha", alpha] if alpha else [])

    out = [case(fn, k, 120, 120) for fn in FUNCTIONS for k in KERNELS]
    out.extend(case("f13", k, 240, 240) for k in KERNELS)
    # non-square grids, where a kernel isotropic in physical units gave
    # Gaussian and inverse quadric counts of f13 other than 1/7
    out.extend(case("f13", k, 120, 60) for k in KERNELS)
    out.extend(case("f13", k, 240, 120) for k in KERNELS)
    out.extend(case("f13", k, 200, 40) for k in ("gaussian", "iq"))
    # a stretched grid, dy about 5 dx
    out.append(case("f2", "gaussian", 200, 40))
    # four times the default alpha of Wendland at 120x120 (7.0121)
    out.append(case("f1", "wendland", 120, 120, alpha="28.05"))
    return out


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def report_counts(path: str) -> str:
    """`isolated/curves/points` of the report at path: its summary's
    isolated point and curve counts and its number of stationary points."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    summary = report["summary"]
    return f"{summary['isolated']}/{summary['curves']}/{len(report['stationary_points'])}"


def raw_digest(sr) -> str:
    """sha256 of every raw point of a `SweepResult` in order: its row of
    `raw` as bytes, then repr(((i, j), seed)) of its patch and seed slot as
    Python ints.  This is the outcome of the Newton search before the
    reduction, which the report does not show."""
    h = hashlib.sha256()
    for x, (i, j), seed in zip(sr.raw, sr.raw_patch.tolist(), sr.raw_seed.tolist()):
        h.update(x.tobytes())
        h.update(repr(((i, j), seed)).encode())
    return h.hexdigest()


def seeds_digest(sr) -> str:
    """sha256 of a `SweepResult`'s seed counts, `iterations` included: how
    the Newton seeds ended and how many evaluations they took."""
    return hashlib.sha256(repr(dataclasses.astuple(sr.seed_counts)).encode()).hexdigest()


def digests(src: str) -> dict[str, str]:
    """case name -> sha256 of its report, case name + ".svg" -> sha256 of
    its plot, case name + ".raw" -> ``raw_digest`` and case name + ".seeds"
    -> ``seeds_digest`` of its sweep, and case name + ".counts" ->
    ``report_counts`` of its report, from the package under `src`."""
    sys.path.insert(0, src)
    from gridstat import cli

    sweeps = []
    run_sweep = cli.sweep_full

    def sweep_full(*args, **kwargs):
        sr = run_sweep(*args, **kwargs)
        sweeps.append((raw_digest(sr), seeds_digest(sr)))
        return sr

    out = {}
    cli.sweep_full = sweep_full
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "report.json")
            svg = os.path.join(tmp, "plot.svg")
            for name, find_argv in cases():
                sweeps.clear()
                for cmd, argv in (("find", [*find_argv, "--no-timings", "--json", path]),
                                  ("plot", ["--report", path, "-o", svg])):
                    rc = cli.main([cmd, *argv])
                    if rc != 0:
                        raise SystemExit(f"{cmd} exited {rc} on {name}")
                if len(sweeps) != 1:
                    raise SystemExit(f"{len(sweeps)} sweeps on {name}, expected 1")
                out[name] = sha256(path)
                out[name + ".svg"] = sha256(svg)
                out[name + ".raw"], out[name + ".seeds"] = sweeps[0]
                out[name + ".counts"] = report_counts(path)
    finally:
        cli.sweep_full = run_sweep
    return out


def suffix_counts(names) -> dict[str, int]:
    """How many of the digest line names are of each kind in SUFFIXES:
    reports, plots, raw points, seed counts and report counts."""
    out = dict.fromkeys(SUFFIXES, 0)
    for name in names:
        out[next((s for s in SUFFIXES[1:] if name.endswith(s)), "report")] += 1
    return out


def read_digests(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return {name: digest for digest, name in (line.split() for line in fh if line.strip())}


def count_mismatches(want: dict[str, str], got: dict[str, str]) -> tuple[list[str], list[str]]:
    """The `.counts` lines of two digest sets compared: messages for the
    cases that fail, missing from either side or with another isolated or
    curve count, and for those whose points alone moved, which do not."""
    failed, moved = [], []
    for name in sorted(n for n in want.keys() | got.keys() if n.endswith(".counts")):
        a, b = want.get(name), got.get(name)
        if a == b:
            continue
        if a is None or b is None:
            failed.append(f"MISMATCH {name}: expected {a or 'no entry'}, got {b or 'no entry'}")
            continue
        (ai, ac, ap), (bi, bc, bp) = a.split("/"), b.split("/")
        if (ai, ac) != (bi, bc):
            failed.append(f"MISMATCH {name}: expected {a}, got {b}")
        else:
            moved.append(f"MOVED {name}: points {ap} -> {bp}, isolated {ai} and curves {ac} held")
    return failed, moved


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(os.path.dirname(HERE), "src"),
                    help="directory holding the gridstat package (default: this checkout's src)")
    ap.add_argument("--compare", metavar="FILE",
                    help="compare with digests written earlier; exit 1 on any mismatch")
    ap.add_argument("--counts", action="store_true",
                    help="with --compare, compare the .counts lines only: exit 1 when an "
                         "isolated or curve count differs")
    args = ap.parse_args(argv)
    if args.counts and not args.compare:
        ap.error("--counts needs --compare")

    got = digests(os.path.abspath(args.src))
    if not args.compare:
        sys.stdout.write("".join(f"{digest}  {name}\n" for name, digest in got.items()))
        return 0

    want = read_digests(args.compare)
    if args.counts:
        failed, moved = count_mismatches(want, got)
        for line in failed + moved:
            print(line, file=sys.stderr)
        total = sum(n.endswith(".counts") for n in want.keys() | got.keys())
        print(f"{total - len(failed)} of {total} counts hold their isolated and curve counts; "
              f"{len(moved)} moved only their points", file=sys.stderr)
        return 1 if failed else 0
    names = want.keys() | got.keys()
    bad = sorted(name for name in names if want.get(name) != got.get(name))
    for name in bad:
        print(f"MISMATCH {name}: expected {want.get(name, 'no entry')}, "
              f"got {got.get(name, 'no entry')}", file=sys.stderr)
    kinds = ", ".join(f"{k} {n}" for k, n in suffix_counts(bad).items())
    print(f"{len(names) - len(bad)} of {len(names)} digests match; mismatched: {kinds}",
          file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
