"""Steadiness check of the benchmark itself.

Run from the repository root:

    python3 -m pytest perfbench/check_steadiness.py -q

Each workload runs twice at one seed, untraced and traced.  Every
end-to-end metric must agree within its bound from BENCHMARK.json, and
every count and byte metric must repeat exactly.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SEED = 7


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_agree_within_bounds(workload):
    first, second = _run(workload, 0), _run(workload, 0)
    # the pass count follows the host's speed; the share of failures does not
    assert first["failed"] * second["attempted"] == second["failed"] * first["attempted"]
    for metric in BENCHMARK["end_to_end"]:
        a = first["metrics"][metric["name"]]["value"]
        b = second["metrics"][metric["name"]]["value"]
        assert abs(a - b) <= metric["bound"] * min(a, b), (metric["name"], a, b)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_counts_repeat_exactly(workload):
    first, second = _run(workload, 1), _run(workload, 1)
    exact = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] in ("count", "B")]
    assert exact
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name
