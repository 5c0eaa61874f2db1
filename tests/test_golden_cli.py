"""The CLI's results documents on the built-in cases, against recorded files.

``tests/data/golden/`` holds the ``check``, ``jacobi``, ``solve`` and
``chart-roundtrip`` documents of the four built-in cases at N = 32, with
their timestamp dropped, the ``jacobi --csv`` file of each case (the
samples and the first reconstructed kernel field, 17 digits), and
``runs.json`` the exit code and the warnings of every run.  The bump paths have their own battery, with its exit codes
and warnings in ``runs-bumps.json``: ``perturb`` on the four cases and
``continue`` on the honeycomb torus along ``CONTINUE_METRIC``.  A run
that writes no document (``perturb`` on sphere-theta exits 3) records
its stderr instead.  ``demos/`` holds the stdout of every demo script
(``test_demos.py``).  The honeycomb-torus
documents are also judged by the benchmark's own rules (``check_cli`` and
``KNOWN_DEFECTS`` of ``perfbench/run.py``), and so are the operations of
its cli-newton workload, run in-process on inputs built as
``perfbench/inputs.py`` builds them.  A refactor leaves every
document byte-identical.  A change that moves a number regenerates the
files with

    PYTHONPATH=src python tests/test_golden_cli.py

and says in CHANGES.md which numbers moved and why.  The printed text
(acceptance lines and demo stdout) keeps each recorded line that still
agrees with its new one by ``text_agrees``.
"""

import contextlib
import functools
import importlib.util
import io
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import text_agrees

from geodesicnets import cli, solver, specfile

GOLDEN = Path(__file__).parent / "data" / "golden"
BENCHMARK_DIR = Path(__file__).parent.parent / "perfbench"
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
                        ("flat-loop", "perturb"), ("sphere-theta", "perturb"),
                        ("honeycomb-torus", "continue")],
}


def run_command(tmp_dir: Path, case: str, command: str):
    """({exit code, warning messages}, document text without its timestamp,
    CSV text of a ``jacobi`` run or None) of one CLI run on the generated
    spec of a built-in case, with ``CONTINUE_METRIC`` for ``continue``; a
    run that writes no document gives ({exit code, warning messages,
    stderr}, None, None)."""
    spec = tmp_dir / f"{case}.json"
    if not spec.exists():
        specfile.write_document(specfile.spec_from_case(case, n_samples=N_SAMPLES), str(spec))
    if command == "continue":
        doc = json.loads(spec.read_text(encoding="utf-8"))
        doc["metric"].update(CONTINUE_METRIC)
        spec = tmp_dir / f"{case}.continue-spec.json"
        specfile.write_document(doc, str(spec))
    out = tmp_dir / f"{case}.{command}.json"
    csv = tmp_dir / f"{case}.{command}.csv"
    argv = [command, "--spec", str(spec), "--out", str(out)]
    if command == "jacobi":
        argv += ["--csv", str(csv)]
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("always")
        code = cli.main(argv)
    run = {"exit_code": code, "warnings": [str(w.message) for w in caught]}
    if not out.exists():
        run["stderr"] = err.getvalue()
        return run, None, None
    doc = json.loads(out.read_text(encoding="utf-8"))
    del doc["timestamp"]
    csv_text = csv.read_text(encoding="utf-8") if csv.exists() else None
    return run, json.dumps(doc, indent=2, sort_keys=True) + "\n", csv_text


def _matches_the_recording(runs_file, case, command, tmp_path):
    run, text, csv_text = run_command(tmp_path, case, command)
    runs = json.loads((GOLDEN / runs_file).read_text(encoding="utf-8"))
    assert run == runs[f"{case}.{command}"]
    for recorded, suffix in ((text, "json"), (csv_text, "csv")):
        golden = GOLDEN / f"{case}.{command}.{suffix}"
        if recorded is None:
            assert not golden.exists()
        else:
            assert recorded == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("case,command", BATTERIES["runs.json"])
def test_cli_document_matches_the_recorded_one(case, command, tmp_path):
    _matches_the_recording("runs.json", case, command, tmp_path)


@pytest.mark.parametrize("case,command", BATTERIES["runs-bumps.json"])
def test_bump_document_matches_the_recorded_one(case, command, tmp_path):
    _matches_the_recording("runs-bumps.json", case, command, tmp_path)


def _load_by_path(name: str):
    """A module of the benchmark runner's directory, loaded by path."""
    path = BENCHMARK_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up as they are made
    spec.loader.exec_module(module)
    return module


def _benchmark_rules():
    """``check_cli`` and ``KNOWN_DEFECTS`` of the benchmark runner."""
    module = _load_by_path("run")
    return module.check_cli, module.KNOWN_DEFECTS


@pytest.mark.parametrize("command", ["check", "jacobi", "chart-roundtrip", "perturb", "continue"])
def test_recorded_document_meets_the_benchmark_rule(command):
    """The benchmark judges these honeycomb-torus documents by the same rules:
    each passes its rule or fails with the reason the benchmark expects, and
    its run exits 0 (a nonzero exit would count as an unexpected failure)."""
    check_cli, known_defects = _benchmark_rules()
    label = f"{command}:honeycomb-torus"
    doc = json.loads((GOLDEN / f"honeycomb-torus.{command}.json").read_text(encoding="utf-8"))
    reason = check_cli(label, doc["report"])
    assert reason is None or (label in known_defects
                              and reason.startswith(known_defects[label][0])), reason
    runs = {}
    for runs_file in BATTERIES:
        runs.update(json.loads((GOLDEN / runs_file).read_text(encoding="utf-8")))
    assert runs[f"honeycomb-torus.{command}"]["exit_code"] == 0


@functools.cache
def _cli_newton_inputs() -> dict:
    """The input documents of the benchmark's cli-newton workload, label ->
    document, built in the runner's order: generated specs at N = 32,
    perturbations drawn from ``SHAPE_SEED``, then isometric copies (half
    turns on the sphere) drawn from benchmark seed 1."""
    inputs = _load_by_path("inputs")
    base = {case: json.loads(json.dumps(specfile.spec_from_case(case, n_samples=32)))
            for case in ("honeycomb-torus", "flat-loop", "sphere-theta")}
    shape = np.random.default_rng(inputs.SHAPE_SEED)
    specs = {f"solve:{case}": inputs.perturbed(base[case], shape)
             for case in ("honeycomb-torus", "flat-loop", "sphere-theta")}
    specs["perturb:honeycomb-torus"] = base["honeycomb-torus"]
    specs["continue:honeycomb-torus"] = inputs.with_continue_bump(
        inputs.perturbed(base["honeycomb-torus"], shape))
    rng = np.random.default_rng(1)
    return {label: inputs.isometric(doc, rng, half_turns=True) for label, doc in specs.items()}


@pytest.mark.parametrize("label", ["solve:honeycomb-torus", "solve:flat-loop", "solve:sphere-theta",
                                   "perturb:honeycomb-torus", "continue:honeycomb-torus"])
def test_cli_newton_operation_meets_the_benchmark_rule(label, tmp_path, capsys):
    """Each cli-newton operation, run in-process on the benchmark's input,
    passes the benchmark's rule or fails with the reason ``KNOWN_DEFECTS``
    expects; the reason is formed as the runner forms it."""
    check_cli, known_defects = _benchmark_rules()
    command = label.split(":")[0]
    spec, out = tmp_path / "input.json", tmp_path / "result.json"
    spec.write_text(json.dumps(_cli_newton_inputs()[label]), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main([command, "--spec", str(spec), "--out", str(out)])
    if code != 0:
        err = capsys.readouterr().err.strip()
        reason = f"exit {code}: {err.splitlines()[-1] if err else ''}"
    else:
        reason = check_cli(label, json.loads(out.read_text(encoding="utf-8"))["report"])
    assert reason is None or (label in known_defects
                              and reason.startswith(known_defects[label][0])), reason


@pytest.mark.parametrize("seed", range(8))
def test_translated_honeycomb_loses_its_kernel_one_dimension_per_bump(seed):
    """The benchmark's perturb rule reads the kernel history [2, 1, 0] on
    translated honeycomb tori.  Rounding rotates the basis of the
    2-dimensional kernel, so which edge the first bump lands on varies with
    the translation; the history does not."""
    inputs = _load_by_path("inputs")
    doc = json.loads(json.dumps(specfile.spec_from_case("honeycomb-torus", n_samples=N_SAMPLES)))
    spec = specfile.parse_spec(inputs.translated(doc, np.random.default_rng(seed)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        history = solver.break_degeneracy(spec.chart(), spec.net)[3]
    assert [h["kernel_dimension"] for h in history] == [2, 1, 0]


def test_stalled_sphere_theta_solve_ends_at_its_first_failed_line_search(monkeypatch):
    """On the cli-newton sphere-theta input, at the CLI's gradient tolerance,
    the Newton steps stop reducing the gradient once the round sphere's soft
    modes hold it; the solve ends at the first line search that fails on a
    fresh Newton matrix, not after a run of damped retries."""
    spec = specfile.parse_spec(_cli_newton_inputs()["solve:sphere-theta"])
    calls = []
    real_line_search = solver._line_search

    def counted(*args):
        calls.append(1)
        return real_line_search(*args)

    monkeypatch.setattr(solver, "_line_search", counted)
    with pytest.raises(solver.MaxIterationsError, match="line search stalled") as info:
        solver.solve_stationary(spec.chart(), spec.net, tolerance=1e-9)
    assert info.value.result.iterations <= 6
    assert len(calls) <= 8


def _write_keeping_what_agrees(path: Path, text: str) -> None:
    """Write printed text, keeping each recorded line that still agrees with
    its new one by ``text_agrees``, so a number that moves only within its
    pinned rule (criterion 3's gap moves with the BLAS thread count) keeps
    its recording."""
    if path.exists():
        old = path.read_text(encoding="utf-8").splitlines(keepends=True)
        new = text.splitlines(keepends=True)
        if len(old) == len(new):
            text = "".join(o if text_agrees(n, o) else n for n, o in zip(new, old))
    path.write_text(text, encoding="utf-8")


def regenerate():
    import os
    import subprocess
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for runs_file, battery in BATTERIES.items():
            runs = {}
            for case, command in battery:
                runs[f"{case}.{command}"], text, csv_text = run_command(Path(tmp), case, command)
                for recorded, suffix in ((text, "json"), (csv_text, "csv")):
                    if recorded is not None:
                        (GOLDEN / f"{case}.{command}.{suffix}").write_text(recorded,
                                                                           encoding="utf-8")
            (GOLDEN / runs_file).write_text(json.dumps(runs, indent=2, sort_keys=True) + "\n",
                                            encoding="utf-8")
    # the acceptance verdict lines, as the acceptance suite prints them; a
    # line is printed before it is compared with the old recording
    suite = Path(__file__).parent / "test_acceptance.py"
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
                          str(suite)], capture_output=True, text=True, cwd=suite.parent.parent,
                         env=dict(os.environ, PYTHONPATH=str(suite.parent.parent / "src")))
    lines = sorted(line.removeprefix("[acceptance] ") for line in out.stdout.splitlines()
                   if line.startswith("[acceptance] "))
    assert len(lines) == 8, out.stdout[-2000:]
    _write_keeping_what_agrees(GOLDEN / "acceptance.txt", "\n".join(lines) + "\n")
    from test_demos import DEMOS, RECORDED, demo_stdout

    RECORDED.mkdir(exist_ok=True)
    for demo in DEMOS:
        _write_keeping_what_agrees(RECORDED / f"{demo.stem}.txt", demo_stdout(demo))


if __name__ == "__main__":
    regenerate()
