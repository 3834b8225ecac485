"""The thread-count check and the sweep digests of scripts/report_digests.py."""

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


def test_matching_thread_counts_pass():
    got = {"f2-gaussian-120-t1": "a", "f2-gaussian-120-t1.svg": "b",
           "f2-gaussian-120-t2": "a", "f2-gaussian-120-t2.svg": "b"}
    assert report_digests.thread_mismatches(got) == []


def test_mismatching_report_or_plot_is_named():
    got = {"f2-gaussian-120-t1": "a", "f2-gaussian-120-t1.svg": "b",
           "f2-gaussian-120-t2": "a", "f2-gaussian-120-t2.svg": "c",
           "f13-iq-120-t1": "d", "f13-iq-120-t1.svg": "e",
           "f13-iq-120-t2": "x", "f13-iq-120-t2.svg": "e"}
    assert report_digests.thread_mismatches(got) == ["f13-iq-120-t1", "f2-gaussian-120-t1.svg"]


def test_case_without_a_two_thread_run_is_not_compared():
    got = {"f2-gaussian-200x40-t1": "a", "f2-gaussian-200x40-t1.svg": "b",
           "f13-gaussian-240-t2": "c", "f13-gaussian-240-t2.svg": "d"}
    assert report_digests.thread_mismatches(got) == []


def test_every_suffix_of_a_thread_pair_is_compared():
    # the sweep digests too, and names with a dot before the thread tag
    got = {"f2-gaussian-120-t1.raw": "a", "f2-gaussian-120-t2.raw": "a",
           "f2-gaussian-120-t1.seeds": "a", "f2-gaussian-120-t2.seeds": "b",
           "f1-wendland-120-alpha28.05-t1": "c", "f1-wendland-120-alpha28.05-t2": "d",
           "f1-wendland-120-alpha28.05-t1.svg": "e", "f1-wendland-120-alpha28.05-t2.svg": "e"}
    assert report_digests.thread_mismatches(got) == ["f1-wendland-120-alpha28.05-t1",
                                                     "f2-gaussian-120-t1.seeds"]


def test_report_counts_reads_the_summary_and_the_points(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"summary": {"isolated": 2, "curves": 1, "curve_details": []},
                                "stationary_points": [{"x": 0.0}] * 5}))
    assert report_digests.report_counts(str(path)) == "2/1/5"
    # a thread pair whose counts differ is named like any other digest
    got = {"f13-iq-120-t1.counts": "0/1/96", "f13-iq-120-t2.counts": "0/1/95"}
    assert report_digests.thread_mismatches(got) == ["f13-iq-120-t1.counts"]


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
    want = {"a-t1.counts": "1/7/739", "b-t1.counts": "24/0/24", "c-t1.counts": "0/1/96",
            "d-t1.counts": "1/7/740", "e-t1.counts": "2/0/2", "a-t1": "x"}
    got = {"a-t1.counts": "1/7/740", "b-t1.counts": "24/0/24", "c-t1.counts": "1/1/97",
           "d-t1.counts": "1/6/740", "f-t1.counts": "3/0/3", "a-t1": "y"}
    failed, moved = report_digests.count_mismatches(want, got)
    # the report digest of a-t1 differs, but only .counts lines are read
    assert [line.split(":")[0] for line in failed] == [
        "MISMATCH c-t1.counts", "MISMATCH d-t1.counts", "MISMATCH e-t1.counts",
        "MISMATCH f-t1.counts"]
    assert moved == ["MOVED a-t1.counts: points 739 -> 740, isolated 1 and curves 7 held"]


def test_suffix_counts_name_each_kind_of_line():
    names = ["f2-gaussian-120-t1", "f2-gaussian-120-t1.svg", "f2-gaussian-120-t2.seeds",
             "f1-wendland-120-alpha28.05-t1", "f1-wendland-120-alpha28.05-t1.seeds",
             "f13-iq-240-t2.raw", "f13-iq-240-t2.counts"]
    assert report_digests.suffix_counts(names) == {
        "report": 2, ".svg": 1, ".raw": 1, ".seeds": 2, ".counts": 1}
    assert report_digests.suffix_counts([]) == dict.fromkeys(report_digests.SUFFIXES, 0)


def test_compare_counts_the_mismatches_of_each_kind(tmp_path, monkeypatch, capsys):
    # the digests of a run replaced by a fixed set: two .seeds lines and a
    # report differ, and one plot is missing from the new run
    want = {"a-t1": "1", "a-t1.svg": "2", "a-t1.raw": "3", "a-t1.seeds": "4",
            "a-t1.counts": "1/0/1", "b-t1": "5", "b-t1.svg": "6", "b-t1.seeds": "7"}
    got = {**want, "a-t1.seeds": "x", "b-t1.seeds": "y", "b-t1": "z"}
    del got["b-t1.svg"]
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
