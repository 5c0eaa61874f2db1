"""The CLI's results documents on the built-in cases, against recorded files.

``tests/data/golden/`` holds the ``check``, ``jacobi``, ``solve`` and
``chart-roundtrip`` documents of the four built-in cases at N = 32, with
their timestamp dropped, and ``runs.json`` the exit code and the warnings
of every run.  The bump paths have their own battery, with its exit codes
and warnings in ``runs-bumps.json``: ``perturb`` on the cases where it
ends (sphere-theta at N = 32 exits 3 with no document) and ``continue``
on the honeycomb torus along ``CONTINUE_METRIC``.  A refactor leaves every
document byte-identical.  A change that moves a number regenerates the
files with

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
# The conformal bump family ``continue`` follows on the honeycomb torus.
CONTINUE_METRIC = {
    "bumps": [{"center": [0.5, 0.05], "radius": 0.2, "amplitude": 0.4}],
    "amplitude_schedule": [0.0, 0.25, 0.5, 0.75, 1.0],
}
# runs file -> the (case, command) runs it records
BATTERIES = {
    "runs.json": [(case, command) for case in CASES for command in COMMANDS],
    "runs-bumps.json": [("honeycomb-torus", "perturb"), ("sphere-equator", "perturb"),
                        ("flat-loop", "perturb"), ("honeycomb-torus", "continue")],
}


def run_command(tmp_dir: Path, case: str, command: str):
    """({exit code, warning messages}, document text without its timestamp)
    of one CLI run on the generated spec of a built-in case, with
    ``CONTINUE_METRIC`` for ``continue``."""
    spec = tmp_dir / f"{case}.json"
    if not spec.exists():
        specfile.write_document(specfile.spec_from_case(case, n_samples=N_SAMPLES), str(spec))
    if command == "continue":
        doc = json.loads(spec.read_text(encoding="utf-8"))
        doc["metric"].update(CONTINUE_METRIC)
        spec = tmp_dir / f"{case}.continue-spec.json"
        specfile.write_document(doc, str(spec))
    out = tmp_dir / f"{case}.{command}.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([command, "--spec", str(spec), "--out", str(out)])
    doc = json.loads(out.read_text(encoding="utf-8"))
    del doc["timestamp"]
    run = {"exit_code": code, "warnings": [str(w.message) for w in caught]}
    return run, json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _matches_the_recording(runs_file, case, command, tmp_path):
    run, text = run_command(tmp_path, case, command)
    runs = json.loads((GOLDEN / runs_file).read_text(encoding="utf-8"))
    assert run == runs[f"{case}.{command}"]
    assert text == (GOLDEN / f"{case}.{command}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("case,command", BATTERIES["runs.json"])
def test_cli_document_matches_the_recorded_one(case, command, tmp_path):
    _matches_the_recording("runs.json", case, command, tmp_path)


@pytest.mark.parametrize("case,command", BATTERIES["runs-bumps.json"])
def test_bump_document_matches_the_recorded_one(case, command, tmp_path):
    _matches_the_recording("runs-bumps.json", case, command, tmp_path)


def regenerate():
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for runs_file, battery in BATTERIES.items():
            runs = {}
            for case, command in battery:
                runs[f"{case}.{command}"], text = run_command(Path(tmp), case, command)
                (GOLDEN / f"{case}.{command}.json").write_text(text, encoding="utf-8")
            (GOLDEN / runs_file).write_text(json.dumps(runs, indent=2, sort_keys=True) + "\n",
                                            encoding="utf-8")


if __name__ == "__main__":
    regenerate()
