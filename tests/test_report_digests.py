"""The sweep digests, counts and comparisons of scripts/report_digests.py."""

import dataclasses
import importlib.util
import json
import os

import numpy as np
from conftest import default_kernel

from gridstat import KernelKind, TestFunction, sample, sweep_full

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "report_digests.py")
_spec = importlib.util.spec_from_file_location("report_digests", _PATH)
report_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_digests)


def test_report_counts_reads_the_summary_and_the_points(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"summary": {"isolated": 2, "curves": 1, "curve_details": []},
                                "stationary_points": [{"x": 0.0}] * 5}))
    assert report_digests.report_counts(str(path)) == "2/1/5"


def test_sweep_digest_covers_iterations_and_every_raw_point():
    # the raw points and the seed counts each move their own digest only
    sr = sweep_full(sample(TestFunction.F2, 12, 12), default_kernel(KernelKind.GAUSSIAN))

    def both(s):
        return report_digests.raw_digest(s), report_digests.seeds_digest(s)

    raw, seeds = both(sr)
    assert len(sr.raw) and (raw, seeds) == both(dataclasses.replace(sr))
    counts = sr.seed_counts

    def with_first_row(name, value):
        a = getattr(sr, name).copy()
        a[0] = value
        return dataclasses.replace(sr, **{name: a})

    more = dataclasses.replace(counts, iterations=counts.iterations + 1)
    got = both(dataclasses.replace(sr, seed_counts=more))
    assert got[0] == raw and got[1] != seeds
    moved = [
        dataclasses.replace(sr, raw=sr.raw[:-1], raw_patch=sr.raw_patch[:-1],
                            raw_seed=sr.raw_seed[:-1]),
        with_first_row("raw", np.nextafter(sr.raw[0], np.inf)),
        with_first_row("raw_patch", (0, 0)),
        with_first_row("raw_seed", 99),
    ]
    for c in moved:
        got = both(c)
        assert got[0] != raw and got[1] == seeds


def test_counts_fail_on_isolated_or_curves_and_note_moved_points():
    want = {"a.counts": "1/7/739", "b.counts": "24/0/24", "c.counts": "0/1/96",
            "d.counts": "1/7/740", "e.counts": "2/0/2", "a": "x"}
    got = {"a.counts": "1/7/740", "b.counts": "24/0/24", "c.counts": "1/1/97",
           "d.counts": "1/6/740", "f.counts": "3/0/3", "a": "y"}
    failed, moved = report_digests.count_mismatches(want, got)
    # the report digest of a differs, but only .counts lines are read
    assert [line.split(":")[0] for line in failed] == [
        "MISMATCH c.counts", "MISMATCH d.counts", "MISMATCH e.counts",
        "MISMATCH f.counts"]
    assert moved == ["MOVED a.counts: points 739 -> 740, isolated 1 and curves 7 held"]


def test_suffix_counts_name_each_kind_of_line():
    names = ["f2-gaussian-120", "f2-gaussian-120.svg", "f2-gaussian-120.seeds",
             "f1-wendland-120-alpha28.05", "f1-wendland-120-alpha28.05.seeds",
             "f13-iq-240.raw", "f13-iq-240.counts"]
    assert report_digests.suffix_counts(names) == {
        "report": 2, ".svg": 1, ".raw": 1, ".seeds": 2, ".counts": 1}
    assert report_digests.suffix_counts([]) == dict.fromkeys(report_digests.SUFFIXES, 0)


def test_compare_counts_the_mismatches_of_each_kind(tmp_path, monkeypatch, capsys):
    # the digests of a run replaced by a fixed set: two .seeds lines and a
    # report differ, and one plot is missing from the new run
    want = {"a": "1", "a.svg": "2", "a.raw": "3", "a.seeds": "4",
            "a.counts": "1/0/1", "b": "5", "b.svg": "6", "b.seeds": "7"}
    got = {**want, "a.seeds": "x", "b.seeds": "y", "b": "z"}
    del got["b.svg"]
    path = tmp_path / "digests.txt"
    path.write_text("".join(f"{d}  {name}\n" for name, d in want.items()))
    monkeypatch.setattr(report_digests, "digests", lambda src: got)
    assert report_digests.main(["--compare", str(path)]) == 1
    last = capsys.readouterr().err.splitlines()[-1]
    # a line missing from one side counts as a mismatch, not in the matches
    assert last == ("4 of 8 digests match; mismatched: report 1, .svg 1, .raw 0, "
                    ".seeds 2, .counts 0")
    monkeypatch.setattr(report_digests, "digests", lambda src: want)
    assert report_digests.main(["--compare", str(path)]) == 0
    assert capsys.readouterr().err.splitlines()[-1].startswith("8 of 8 digests match;")
