"""Every demo script, and the README's library tour, runs to completion in a
fresh interpreter; each demo prints its recorded output.

``tests/data/golden/demos/`` holds each demo's stdout, compared by
``text_agrees`` of conftest (words and integers exactly, other numbers to
their last recorded digit).  ``PYTHONPATH=src python tests/test_golden_cli.py``
regenerates it with the other golden files.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from conftest import text_agrees

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RECORDED = ROOT / "tests" / "data" / "golden" / "demos"


def demo_stdout(demo: pathlib.Path) -> str:
    """The stdout of a demo script run in a fresh interpreter, which must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    return out.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    got = demo_stdout(demo)
    want = (RECORDED / f"{demo.stem}.txt").read_text(encoding="utf-8")
    assert text_agrees(got, want), got


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", tour], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
