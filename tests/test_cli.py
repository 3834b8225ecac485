"""Command-line interface: subcommands, exit codes, and report schema."""

import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from gridstat import TestFunction, load_csv
from gridstat.cli import main


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


def test_find_missing_input_exits_2(tmp_path, capsys):
    assert run(["find", "--in", tmp_path / "nope.csv"]) == 2
    assert run(["find"]) == 2  # neither --fn nor --in
    bad = tmp_path / "bad.csv"
    bad.write_text("4,4\n")
    assert run(["find", "--in", bad]) == 2


def test_find_negative_threads_exits_2(tmp_path, capsys):
    rep = tmp_path / "r.json"
    assert run(["find", "--fn", "f2", "--nx", "6", "--ny", "6",
                "--threads", "-3", "--json", rep]) == 2
    assert "error:" in capsys.readouterr().err
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


def test_plot_dimension_mismatch_exits_2(tmp_path):
    rep = tmp_path / "r.json"
    csv = tmp_path / "other.csv"
    assert run(["find", "--fn", "f2", "--nx", "20", "--ny", "20",
                "--threads", "1", "--json", rep]) == 0
    assert run(["sample", "--fn", "f2", "--nx", "12", "--ny", "12", "-o", csv]) == 0
    assert run(["plot", "--report", rep, "--in", csv, "-o", tmp_path / "x.svg"]) == 2


def test_truth_export(tmp_path, capsys):
    assert run(["truth", "--fn", "f2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["isolated"]) == 24
    assert out["curves"] == []
