"""Statistics of scripts/bench_record.py."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_record.py")
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def test_quartiles_inclusive():
    assert bench_record.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {
        "q1": 2.0, "median": 3.0, "q3": 4.0}
    assert bench_record.quartiles([1.0, 2.0, 3.0, 4.0]) == {
        "q1": 1.75, "median": 2.5, "q3": 3.25}
    assert bench_record.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


def test_wins_count_strictly_better_pairs_in_either_direction():
    parent, change = [5.0, 5.0, 5.0, 5.0], [4.0, 5.0, 6.0, 3.0]
    assert bench_record.wins(parent, change, "lower") == 2
    assert bench_record.wins(parent, change, "higher") == 1


def test_compare_gain_against_parent_spread():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]  # quartiles 11 and 13
    s = bench_record.compare(parent, [9.5, 10.5, 9.0, 10.0, 11.0], "lower")
    assert s["wins"] == 5
    assert s["ratio"] == pytest.approx(10.0 / 12.0)
    assert s["clear_gain"] is False  # 12 -> 10 is a gain of 2, not more than 2
    s = bench_record.compare(parent, [9.0, 9.5, 9.9, 10.0, 8.0], "lower")
    assert s["clear_gain"] is True
    s = bench_record.compare(parent, [20.0] * 5, "higher")
    assert s["wins"] == 5 and s["clear_gain"] is True


def test_summarize_skips_failed_runs_and_missing_metrics():
    def run(**metrics):
        return {"correct": True, "metrics": {k: {"value": v} for k, v in metrics.items()}}

    pairs = [{"parent": run(find_s=2.0, rss=10.0), "change": run(find_s=1.0)},
             {"parent": run(find_s=3.0, rss=10.0), "change": run(find_s=1.5, rss=9.0)},
             {"parent": None, "change": run(find_s=0.1, rss=1.0)}]
    out = bench_record.summarize(pairs, {"find_s": "lower"})
    assert out["find_s"]["pairs"] == 2
    assert out["find_s"]["parent"]["median"] == 2.5
    assert out["find_s"]["change"]["median"] == 1.25
    assert out["rss"]["pairs"] == 1 and out["rss"]["wins"] == 1
