"""The CLI's results documents on the built-in cases, against recorded files.

``tests/data/golden/`` holds the ``check``, ``jacobi``, ``solve`` and
``chart-roundtrip`` documents of the four built-in cases at N = 32, with
their timestamp dropped, and ``runs.json`` the exit code and the warnings
of every run.  A refactor leaves every document byte-identical.  A change that
moves a number regenerates the files with

    PYTHONPATH=src python tests/test_golden_cli.py

and says in CHANGES.md which numbers moved and why.
"""

import json
import warnings
from pathlib import Path

import pytest

from geodesicnets import cli, specfile

GOLDEN = Path(__file__).parent / "data" / "golden"
CASES = ("honeycomb-torus", "sphere-theta", "sphere-equator", "flat-loop")
COMMANDS = ("check", "jacobi", "solve", "chart-roundtrip")
N_SAMPLES = 32


def run_command(tmp_dir: Path, case: str, command: str):
    """({exit code, warning messages}, document text without its timestamp)
    of one CLI run on the generated spec of a built-in case."""
    spec = tmp_dir / f"{case}.json"
    if not spec.exists():
        specfile.write_spec(specfile.spec_from_case(case, n_samples=N_SAMPLES), str(spec))
    out = tmp_dir / f"{case}.{command}.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([command, "--spec", str(spec), "--out", str(out)])
    doc = json.loads(out.read_text(encoding="utf-8"))
    del doc["timestamp"]
    run = {"exit_code": code, "warnings": [str(w.message) for w in caught]}
    return run, json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("case", CASES)
def test_cli_document_matches_the_recorded_one(case, command, tmp_path):
    run, text = run_command(tmp_path, case, command)
    runs = json.loads((GOLDEN / "runs.json").read_text(encoding="utf-8"))
    assert run == runs[f"{case}.{command}"]
    assert text == (GOLDEN / f"{case}.{command}.json").read_text(encoding="utf-8")


def regenerate():
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            for command in COMMANDS:
                runs[f"{case}.{command}"], text = run_command(Path(tmp), case, command)
                (GOLDEN / f"{case}.{command}.json").write_text(text, encoding="utf-8")
    (GOLDEN / "runs.json").write_text(json.dumps(runs, indent=2, sort_keys=True) + "\n",
                                      encoding="utf-8")


if __name__ == "__main__":
    regenerate()
