"""The benchmark's tracer still finds every layer of a `find` run.

`perfbench/spans.py` wraps functions and methods at the names their callers
look them up by; renaming or bypassing one of them silently drops its spans.
`install` patches classes globally, so the run happens in a subprocess.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import spans
from gridstat import cli
tracer = spans.Tracer()
spans.install(tracer)
rc = cli.main(["find", "--fn", "f2", "--nx", "12", "--ny", "12", "--threads", "1",
               "--no-timings", "--json", {report!r}])
print(json.dumps({{"rc": rc, "spans": sorted({{s[1] for s in tracer.spans}})}}))
"""


def test_tracer_records_every_layer(tmp_path):
    script = SCRIPT.format(src=os.path.join(ROOT, "src"),
                           perfbench=os.path.join(ROOT, "perfbench"),
                           report=str(tmp_path / "r.json"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["rc"] == 0
    expected = {"stationary.sweep", "stationary.reduce", "kernels.psi",
                "kernels.eta", "patch.solve", "patch.interp.gradient_jacobian",
                "bindings.cluster"}
    assert expected <= set(out["spans"])
