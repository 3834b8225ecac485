"""Command-line interface: subcommands, exit codes, and report schema."""

import json
import math
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import pytest

from gridstat import KernelKind, TestFunction, cli, load_csv, run_pipeline, sample
from gridstat.cli import main


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(argv):
    return main([str(a) for a in argv])


def test_sample_writes_expected_header(tmp_path):
    out = tmp_path / "f2.csv"
    assert run(["sample", "--fn", "f2", "--nx", "120", "--ny", "120",
                "-o", out]) == 0
    head = out.read_text().splitlines()[0].split(",")
    assert head[0] == "120" and head[1] == "120"
    assert float(head[2]) == pytest.approx(0.033613, abs=1e-6)
    assert float(head[3]) == pytest.approx(4 / 119)
    assert (float(head[4]), float(head[5])) == (-2.0, -2.0)
    g = load_csv(out)
    assert (g.nx, g.ny) == (120, 120)


def test_sample_minimal_grid(tmp_path):
    out = tmp_path / "f11.csv"
    assert run(["sample", "--fn", "f11", "--nx", "4", "--ny", "4", "-o", out]) == 0
    assert load_csv(out).values.shape == (16,)


def test_unknown_function_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["sample", "--fn", "bogus", "-o", "x.csv"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    for fid in ("f1", "f2", "f11", "f12", "f13", "f14"):
        assert fid in err


def test_find_from_function_and_csv_agree(tmp_path):
    csv = tmp_path / "f2.csv"
    rep_fn = tmp_path / "a.json"
    rep_csv = tmp_path / "b.json"
    assert run(["sample", "--fn", "f2", "--nx", "20", "--ny", "20", "-o", csv]) == 0
    assert run(["find", "--fn", "f2", "--nx", "20", "--ny", "20",
                "--threads", "1", "--no-timings", "--json", rep_fn]) == 0
    assert run(["find", "--in", csv, "--threads", "1", "--no-timings",
                "--json", rep_csv]) == 0
    a = json.loads(rep_fn.read_text())
    b = json.loads(rep_csv.read_text())
    a.pop("input")
    b.pop("input")
    assert a == b


def test_find_report_schema(tmp_path):
    rep = tmp_path / "r.json"
    assert run(["find", "--fn", "f2", "--nx", "20", "--ny", "20",
                "--threads", "1", "--json", rep]) == 0
    report = json.loads(rep.read_text())
    assert report["kernel"] == "gaussian"
    assert report["alpha"] == report["alpha_default"]
    assert report["delta_max"] == pytest.approx(4 * report["d"])
    assert set(report["timings_ms"]) == {"sweep", "reduce", "cluster"}
    for p in report["stationary_points"]:
        assert set(p) == {"x", "y", "value", "class", "merged"}
    n_iso = sum(b["kind"] == "isolated" for b in report["bindings"])
    assert n_iso == report["summary"]["isolated"]
    members = sorted(i for b in report["bindings"] for i in b["members"])
    assert members == list(range(len(report["stationary_points"])))


def test_find_alpha_override_recorded(tmp_path):
    rep = tmp_path / "r.json"
    assert run(["find", "--fn", "f11", "--nx", "12", "--ny", "12",
                "--alpha", "0.9", "--threads", "1", "--json", rep]) == 0
    report = json.loads(rep.read_text())
    assert report["alpha"] == 0.9
    assert report["alpha_default"] != 0.9


def test_find_kernel_choices(tmp_path):
    for kernel in ("gaussian", "iq", "wendland"):
        rep = tmp_path / f"{kernel}.json"
        assert run(["find", "--fn", "f11", "--nx", "12", "--ny", "12",
                    "--kernel", kernel, "--threads", "1", "--json", rep]) == 0
        assert json.loads(rep.read_text())["kernel"] == kernel


def test_find_huge_header_with_short_rows_exits_2(tmp_path, capsys):
    # the rows are checked against the header before the grid is allocated
    csv = tmp_path / "g.csv"
    csv.write_text("1000000000000,4,0.1,0.1,0,0\n" + "1,2,3,4\n" * 4)
    assert run(["find", "--in", csv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: expected 1000000000000 values, got 4")
    assert err.count("\n") == 1


def test_find_missing_input_exits_2(tmp_path, capsys):
    assert run(["find", "--in", tmp_path / "nope.csv"]) == 2
    assert run(["find"]) == 2  # neither --fn nor --in
    bad = tmp_path / "bad.csv"
    bad.write_text("4,4\n")
    assert run(["find", "--in", bad]) == 2


@pytest.mark.parametrize("argv", [
    ["sample", "--fn", "f2", "--nx", "8", "--ny", "8", "-o", "{dir}"],
    ["find", "--in", "{dir}"],
    ["find", "--fn", "f2", "--nx", "8", "--ny", "8", "--threads", "1", "--json", "{dir}"],
    ["plot", "--report", "{dir}", "-o", "{dir}/out.svg"],
], ids=["sample-out", "find-in", "find-json", "plot-report"])
def test_directory_path_exits_2(argv, tmp_path, capsys):
    # a directory where a file is read or written is an input error: one
    # error line, no traceback
    assert run([a.format(dir=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def _must_not_run(*args, **kwargs):
    raise AssertionError("ran before the arguments were checked")


@pytest.mark.parametrize("argv", [
    ["find", "--fn", "f2", "--nx", "8", "--ny", "8", "--json", "{dir}"],
    ["find", "--fn", "f2", "--nx", "8", "--ny", "8", "--json", "{dir}/missing/r.json"],
    ["plot", "--report", "{report}", "-o", "{dir}"],
    ["plot", "--report", "{report}", "-o", "{dir}/missing/out.svg"],
    ["truth", "--fn", "f1", "--json", "{dir}"],
    ["truth", "--fn", "f1", "--json", "{dir}/missing/t.json"],
    ["sample", "--fn", "f2", "--nx", "8", "--ny", "8", "-o", "{dir}"],
    ["sample", "--fn", "f2", "--nx", "8", "--ny", "8", "-o", "{dir}/missing/g.csv"],
], ids=["find-json-dir", "find-json-missing-parent", "plot-out-dir", "plot-out-missing-parent",
        "truth-json-dir", "truth-json-missing-parent", "sample-out-dir",
        "sample-out-missing-parent"])
def test_unwritable_output_exits_2_before_the_work(argv, tmp_path, monkeypatch, capsys):
    # a directory or a path under a missing directory is rejected before
    # the sweep, the rendering, the oracle or the sampling runs, and nothing
    # is created
    report = tmp_path / "made" / "r.json"
    report.parent.mkdir()
    assert run(["find", "--fn", "f2", "--nx", "8", "--ny", "8", "--threads", "1",
                "--json", report]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "sweep_full", _must_not_run)
    monkeypatch.setattr(cli, "render_svg", _must_not_run)
    monkeypatch.setattr(cli, "ground_truth_json", _must_not_run)
    monkeypatch.setattr(cli, "sample", _must_not_run)
    out = tmp_path / "out"
    out.mkdir()
    assert run([a.format(dir=out, report=report) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert os.listdir(out) == []


@pytest.mark.parametrize("argv", [
    ["plot", "--report", "{report}", "-o", "{dir}/out.svg", "--levels", 10 ** 15],
    ["find", "--fn", "f2", "--nx", 10 ** 16, "--ny", 4, "--json", "{dir}/r.json"],
    ["sample", "--fn", "f2", "--nx", 4, "--ny", 10 ** 16, "-o", "{dir}/g.csv"],
], ids=["plot-levels", "find-nx", "sample-ny"])
def test_size_too_large_to_allocate_exits_2(argv, tmp_path, capsys):
    # each first allocation is at least 1 PiB (np.linspace of the levels,
    # np.arange of the nodes), which numpy refuses before touching memory
    report = tmp_path / "made" / "r.json"
    report.parent.mkdir()
    assert run(["find", "--fn", "f2", "--nx", "8", "--ny", "8", "--threads", "1",
                "--json", report]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    out.mkdir()
    assert run([str(a).format(dir=out, report=report) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
    assert os.listdir(out) == []


def test_failed_find_leaves_an_existing_report_unchanged(tmp_path, capsys):
    rep = tmp_path / "r.json"
    rep.write_text("old report\n")
    # alpha tiny enough that the interpolation matrix rounds to all-ones
    assert run(["find", "--fn", "f2", "--nx", "6", "--ny", "6",
                "--alpha", "1e-300", "--json", rep]) == 3
    assert rep.read_text() == "old report\n"


def test_find_function_and_csv_together_exits_2(tmp_path, capsys):
    csv = tmp_path / "f2.csv"
    rep = tmp_path / "r.json"
    assert run(["sample", "--fn", "f2", "--nx", "8", "--ny", "8", "-o", csv]) == 0
    assert run(["find", "--fn", "f13", "--in", csv, "--json", rep]) == 2
    assert "error: --fn and --in exclude each other" in capsys.readouterr().err
    assert not rep.exists()


# a bad --threads or --alpha is rejected before the field is sampled or read
FIELD_SOURCES = [["--fn", "f2", "--nx", "20", "--ny", "20"], ["--in", "g.csv"]]


@pytest.fixture
def no_field(monkeypatch):
    monkeypatch.setattr(cli, "sample", _must_not_run)
    monkeypatch.setattr(cli, "load_csv", _must_not_run)


@pytest.mark.parametrize("source", FIELD_SOURCES, ids=["fn", "in"])
def test_find_negative_threads_exits_2(source, no_field, tmp_path, capsys):
    rep = tmp_path / "r.json"
    assert run(["find", *source, "--threads", "-3", "--json", rep]) == 2
    assert capsys.readouterr().err == "error: --threads must be 0 or positive, got -3\n"
    assert not rep.exists()


@pytest.mark.parametrize("source", FIELD_SOURCES, ids=["fn", "in"])
def test_find_infinite_alpha_exits_2(source, no_field, tmp_path, capsys):
    rep = tmp_path / "r.json"
    assert run(["find", *source, "--alpha", "inf", "--json", rep]) == 2
    assert capsys.readouterr().err == "error: alpha must be positive and finite, got inf\n"
    assert not rep.exists()


@pytest.mark.parametrize("alpha", ["-1", "0", "nan"])
@pytest.mark.parametrize("source", FIELD_SOURCES, ids=["fn", "in"])
def test_find_negative_alpha_reports_the_value_passed(source, alpha, no_field, tmp_path,
                                                      capsys):
    rep = tmp_path / "r.json"
    assert run(["find", *source, f"--alpha={alpha}", "--json", rep]) == 2
    assert capsys.readouterr().err == (f"error: alpha must be positive and finite, "
                                       f"got {float(alpha)}\n")
    assert not rep.exists()


def test_run_pipeline_rejects_a_bad_alpha():
    # library callers pass no command line: run_pipeline checks alpha itself
    with pytest.raises(ValueError, match="alpha must be positive and finite, got 0.0"):
        run_pipeline(sample(TestFunction.F2, 8, 8), KernelKind.GAUSSIAN, alpha=0.0)


@pytest.mark.parametrize("alpha", ["1e80", "1e300"])
def test_find_overflowing_alpha_exits_2(alpha, tmp_path, capsys):
    # alpha^4 overflows in the Gaussian's eta: every seed would be singular
    rep = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["find", "--fn", "f2", "--nx", "20", "--ny", "20",
                    "--alpha", alpha, "--json", rep]) == 2
    assert capsys.readouterr().err.startswith(f"error: alpha={float(alpha)} is out of range")
    assert not rep.exists()


def write_scaled_f2(path, e):
    """f2 sampled at 60x60 times 10^e, as a grid CSV written without
    GridField, which rejects a field whose range overflows."""
    g = sample(TestFunction.F2, 60, 60)
    rows = (g.grid2d() * 10.0 ** e).tolist()
    head = [g.nx, g.ny, g.dx, g.dy, *g.origin]
    path.write_text("\n".join(",".join(map(repr, row)) for row in [head, *rows]) + "\n")


@pytest.mark.parametrize("e, kernel, want", [
    (304, "gaussian", 24),
    # the weights are solved in units of the field range, so they stay
    # finite as long as the range does
    (306, "gaussian", 24),
    (307, "gaussian", 24),
    (307, "iq", 24),
    (307, "wendland", 24),
    (308, "gaussian", "error: field range max - min overflows float64"),
], ids=["1e304-gaussian", "1e306-gaussian", "1e307-gaussian", "1e307-iq", "1e307-wendland",
        "1e308-gaussian"])
def test_find_rejects_a_field_too_large_for_float64(e, kernel, want, tmp_path, capsys):
    # a field whose range does not fit in float64 exits 2 with one error
    # line and no numpy warning, rather than reporting too few points; want
    # is the isolated point count or the error's start
    csv, rep = tmp_path / "g.csv", tmp_path / "r.json"
    write_scaled_f2(csv, e)
    code = run(["find", "--in", csv, "--kernel", kernel, "--threads", "1", "--json", rep])
    err = capsys.readouterr().err
    if isinstance(want, str):
        assert code == 2
        assert err.startswith(want) and err.count("\n") == 1
        assert not rep.exists()
    else:
        assert code == 0 and err == ""
        assert json.loads(rep.read_text())["summary"] == {
            "isolated": want, "curves": 0, "curve_details": []}


def test_plot_rejects_a_field_whose_range_overflows(tmp_path, capsys):
    csv, rep, svg = tmp_path / "g.csv", tmp_path / "r.json", tmp_path / "out.svg"
    write_scaled_f2(csv, 308)
    assert run(["find", "--fn", "f2", "--nx", "60", "--ny", "60", "--threads", "1",
                "--json", rep]) == 0
    assert run(["plot", "--report", rep, "--in", csv, "-o", svg]) == 2
    assert capsys.readouterr().err.startswith("error: field range max - min overflows")
    assert not svg.exists()


def test_plot_of_a_grid_with_subnormal_extent(tmp_path, capsys):
    # 600 px over an extent of 5e-310 is a scale above the largest double
    csv, rep, svg = tmp_path / "g.csv", tmp_path / "r.json", tmp_path / "out.svg"
    values = sample(TestFunction.F13, 6, 6).grid2d()
    csv.write_text("6,6,1e-310,1e-310,0.0,0.0\n"
                   + "".join(",".join(map(repr, row)) + "\n" for row in values.tolist()))
    assert run(["find", "--in", csv, "--json", rep]) == 0
    assert run(["plot", "--report", rep, "--in", csv, "-o", svg]) == 0
    assert capsys.readouterr().err == ""
    root = ET.fromstring(svg.read_text())
    assert (root.get("width"), root.get("height")) == ("640", "640")
    assert [el.get("id") for el in root] == ["contours", "detected", "ground-truth"]
    assert len(list(root[0])) > 0


@pytest.mark.parametrize("header", ["6,6,0.1,0.1,inf,0.0", "6,6,0.1,0.1,1e400,0.0",
                                    "6,6,inf,0.1,0.0,0.0"])
def test_find_non_finite_geometry_exits_2(header, tmp_path, capsys):
    csv = tmp_path / "g.csv"
    csv.write_text(header + "\n" + "\n".join([",".join(["1.0"] * 6)] * 6) + "\n")
    rep = tmp_path / "r.json"
    assert run(["find", "--in", csv, "--json", rep]) == 2
    assert capsys.readouterr().err.startswith("error: grid ")
    assert not rep.exists()


@pytest.mark.parametrize("header", ["40,40,1e307,1e307,-2.0,-2.0", "40,40,1e-303,1e-303,1e6,1e6"],
                         ids=["nodes-overflow", "nodes-round-to-one"])
def test_find_grid_without_distinct_finite_nodes_exits_2(header, tmp_path, capsys):
    # f2's 40x40 samples under a spacing whose last node overflows, or so
    # small that every node rounds to the origin
    csv = tmp_path / "g.csv"
    assert run(["sample", "--fn", "f2", "--nx", "40", "--ny", "40", "-o", csv]) == 0
    lines = csv.read_text().splitlines()
    csv.write_text("\n".join([header, *lines[1:]]) + "\n")
    rep = tmp_path / "r.json"
    assert run(["find", "--in", csv, "--json", rep]) == 2
    assert capsys.readouterr().err.startswith("error: grid nodes along x must be finite "
                                              "and strictly increasing")
    assert not rep.exists()


def test_find_factorization_failure_exits_3(capsys):
    # alpha tiny enough that the interpolation matrix rounds to all-ones
    assert run(["find", "--fn", "f2", "--nx", "6", "--ny", "6",
                "--alpha", "1e-300"]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_plot_from_report(tmp_path):
    rep = tmp_path / "r.json"
    svg = tmp_path / "out.svg"
    assert run(["find", "--fn", "f2", "--nx", "20", "--ny", "20",
                "--threads", "1", "--json", rep]) == 0
    assert run(["plot", "--report", rep, "-o", svg]) == 0
    root = ET.fromstring(svg.read_text())
    groups = [el.get("id") for el in root if el.tag.endswith("g")]
    assert groups == ["contours", "detected", "ground-truth"]


def test_plot_writes_what_render_svg_returns_in_slices(tmp_path, monkeypatch):
    # the benchmark's span wraps cli.render_svg and counts the bytes of the
    # string it returns, so plot calls it through that name, once; the file
    # is written a slice at a time, here 7 characters, the last one partial
    rep = tmp_path / "r.json"
    out = tmp_path / "out.svg"
    assert run(["find", "--fn", "f13", "--nx", "12", "--ny", "12", "--json", rep]) == 0
    render_svg, returned = cli.render_svg, []

    def recorder(*args, **kwargs):
        returned.append(render_svg(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(cli, "render_svg", recorder)
    monkeypatch.setattr(cli, "_SLICE", 7)
    assert run(["plot", "--report", rep, "-o", out]) == 0
    assert len(returned) == 1 and len(returned[0]) % 7
    assert out.read_bytes() == returned[0].encode("utf-8")


def test_plot_dimension_mismatch_exits_2(tmp_path):
    rep = tmp_path / "r.json"
    csv = tmp_path / "other.csv"
    assert run(["find", "--fn", "f2", "--nx", "20", "--ny", "20",
                "--threads", "1", "--json", rep]) == 0
    assert run(["sample", "--fn", "f2", "--nx", "12", "--ny", "12", "-o", csv]) == 0
    assert run(["plot", "--report", rep, "--in", csv, "-o", tmp_path / "x.svg"]) == 2


def test_plot_field_from_another_grid_exits_2(tmp_path, capsys):
    # f2 and f13 at 20x20 have the same shape, but f2 lies on [-2, 2]^2 and
    # f13 on [-1, 1]^2; the report's own field, read back from CSV, plots
    rep, svg = tmp_path / "r.json", tmp_path / "out.svg"
    f2, f13 = tmp_path / "f2.csv", tmp_path / "f13.csv"
    for fn, csv in (("f2", f2), ("f13", f13)):
        assert run(["sample", "--fn", fn, "--nx", "20", "--ny", "20", "-o", csv]) == 0
    assert run(["find", "--in", f2, "--threads", "1", "--json", rep]) == 0
    assert run(["plot", "--report", rep, "--in", f13, "-o", svg]) == 2
    assert capsys.readouterr().err.startswith("error: report is for a 20x20 grid with dx=")
    assert not svg.exists()
    assert run(["plot", "--report", rep, "--in", f2, "-o", svg]) == 0


def without_y(report):
    points = [{k: v for k, v in p.items() if k != "y"} for p in report["stationary_points"]]
    return {**report, "stationary_points": points}


def with_last_point(coord, value):
    """A malform that sets the last point's coordinate; json writes and
    reads NaN, Infinity and -Infinity, and integers of any size."""
    def malform(report):
        points = report["stationary_points"]
        return {**report, "stationary_points": points[:-1] + [{**points[-1], coord: value}]}
    return malform


def member_past_the_points(report):
    extra = {"kind": "isolated", "members": [len(report["stationary_points"])]}
    return {**report, "bindings": report["bindings"] + [extra]}


@pytest.mark.parametrize("malform", [
    lambda r: {"input": {"source": "function "}},
    lambda r: {**r, "input": {**r["input"], "source": "function "}},
    lambda r: {"input": {"source": "function f2"}},
    lambda r: [r],
    without_y,
    with_last_point("x", math.nan),
    with_last_point("y", math.inf),
    with_last_point("x", -math.inf),
    with_last_point("y", True),
    with_last_point("x", 10 ** 400),
    member_past_the_points,
], ids=["empty-function-id", "empty-function-id-full-input", "input-without-nx", "json-list",
        "point-without-y", "point-x-nan", "point-y-infinity", "point-x-minus-infinity",
        "point-y-bool", "point-x-int-beyond-float", "member-past-the-points"])
def test_plot_malformed_report_exits_2(malform, tmp_path, capsys):
    rep, svg = tmp_path / "r.json", tmp_path / "out.svg"
    assert run(["find", "--fn", "f2", "--nx", "12", "--ny", "12", "--threads", "1",
                "--json", rep]) == 0
    report = json.loads(rep.read_text())
    assert report["stationary_points"]
    rep.write_text(json.dumps(malform(report)))
    capsys.readouterr()
    assert run(["plot", "--report", rep, "-o", svg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not svg.exists()


def test_plot_deeply_nested_report_exits_2(tmp_path, capsys):
    # json's decoder recurses once per bracket, past the interpreter's limit
    rep, svg = tmp_path / "r.json", tmp_path / "out.svg"
    rep.write_text("[" * 100_000 + "]" * 100_000)
    assert run(["plot", "--report", rep, "-o", svg]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {rep} nests too deeply to be a report\n"
    assert not svg.exists()


@pytest.mark.parametrize("levels", [0, -1, -2, -5])
def test_plot_non_positive_levels_exits_2(levels, tmp_path, capsys):
    rep = tmp_path / "r.json"
    svg = tmp_path / "out.svg"
    assert run(["find", "--fn", "f2", "--nx", "6", "--ny", "6",
                "--threads", "1", "--json", rep]) == 0
    assert run(["plot", "--report", rep, "-o", svg, "--levels", levels]) == 2
    assert capsys.readouterr().err == f"error: --levels must be positive, got {levels}\n"
    assert not svg.exists()


def test_truth_export(tmp_path, capsys):
    assert run(["truth", "--fn", "f2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["isolated"]) == 24
    assert out["curves"] == []


@pytest.mark.parametrize("module", ["gridstat.cli", "gridstat"])
def test_run_as_module_without_warnings(module, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", module, "truth", "--fn", "f1"],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["function"] == "f1"
