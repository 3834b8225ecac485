"""The thread-count check of scripts/report_digests.py."""

import importlib.util
import os

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
