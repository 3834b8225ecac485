"""scripts/ab_find.py run on this tree against itself."""

import os
import subprocess
import sys

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
_SCRIPT = os.path.join(_ROOT, "scripts", "ab_find.py")
_SRC = os.path.join(_ROOT, "src")


def test_one_round_against_itself_gives_identical_reports():
    r = subprocess.run([sys.executable, _SCRIPT, "--parent", _SRC, "--change", _SRC,
                        "--workload", "points-120", "--rounds", "1"],
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0] == "points-120: 1 rounds of 4 find calls, ABBA order"
    assert [ln.split()[0] for ln in lines[1:3]] == ["parent", "change"]
    assert lines[-2:] == ["SVGs byte-identical: yes", "reports byte-identical: yes"]
    # each side's plot time: the sum over the 4 reports of the slowest of
    # each one's 4 plots
    for ln in lines[1:3]:
        value, unit = ln.split("plot median")[1].split()[:2]
        assert unit == "ms" and float(value) > 0
    # each side's largest tracemalloc peak over one find call and over one
    # plot call of its traced pass, in MB; one tree run twice gives about
    # the same peaks
    peaks = {"find": [], "plot": []}
    for ln in lines[1:3]:
        words = ln.split("traced peak")[1].split()
        assert words[0::3] == ["find", "plot"] and words[2::3] == ["MB", "MB"]
        peaks["find"].append(float(words[1]))
        peaks["plot"].append(float(words[4]))
    for kind in peaks.values():
        assert 0 < min(kind) and max(kind) <= 1.1 * min(kind)
