"""One traced benchmark run, end to end, ends in the result line it promises.

``tests/test_trace_targets.py`` checks that the tracer can patch its
targets; this runs ``perfbench/run.py`` itself, once, on every workload
with no timed passes, and reads the last line of its standard output: a
JSON object that is correct and holds every per-layer metric that
``BENCHMARK.json`` lists, for every workload.  The run keeps its files in
its own temporary directory and removes it.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli-cold", "cli-newton", "lib-certify")


def test_traced_run_ends_in_every_per_layer_metric():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "1", "--seconds", "0",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    missing = [f"{w}.{name}" for w in WORKLOADS for name in names
               if f"{w}.{name}" not in result["metrics"]]
    assert not missing, missing
