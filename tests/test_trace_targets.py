"""The benchmark's tracer still finds every function its per-layer metrics time.

``perfbench/layers.layer_metrics`` leaves out a metric whose traced
functions the library no longer defines, so a renamed or removed target
would shorten a traced run's result line without failing it.  The check
runs in a subprocess because ``Tracer.install`` patches the modules for
good.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHECK = """
import json, sys
sys.path.insert(0, "perfbench")
import geodesicnets.cli
from layers import _NEEDS
from tracer import Tracer

tracer = Tracer()
tracer.install()
needs = dict(_NEEDS, **{"stencils.fd_weights.calls": ("stencils.fd_weights",)})
names = [m["name"] for m in json.load(open("BENCHMARK.json"))["per_layer"]]
print(json.dumps({m: sorted(set(needs[m]) - tracer.installed) for m in names if m in needs}))
"""


def test_every_per_layer_metric_has_its_traced_functions():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", CHECK], cwd=ROOT, env=env, capture_output=True,
                         text=True, check=True)
    missing = json.loads(out.stdout)
    # the benchmark lists 33 per-layer metrics; import.s, specfile.results_bytes
    # and trace.overhead_frac need no traced function
    assert len(missing) == 30
    assert not any(missing.values()), {m: need for m, need in missing.items() if need}
