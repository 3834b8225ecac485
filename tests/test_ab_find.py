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
    assert lines[-1] == "reports byte-identical: yes"
    # each side's tracemalloc peak over its traced pass, in MB; one tree
    # run twice gives about the same peak
    peaks = []
    for ln in lines[1:3]:
        value, unit = ln.split("traced peak")[1].split()
        assert unit == "MB"
        peaks.append(float(value))
    assert 0 < min(peaks) and max(peaks) <= 1.1 * min(peaks)
