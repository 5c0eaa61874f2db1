"""Every module-level constant of the package is read somewhere.

A constant is a module-level UPPER_CASE name bound by an assignment in
``src/geodesicnets``.  The package, the tests, the demos and the benchmark
runner are parsed with ``ast``; each constant must be loaded by name, or as
an attribute, in at least one of them.  A tuning knob whose code was
deleted fails here instead of surviving as dead code.
"""

import ast
import functools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "geodesicnets"
READERS = sorted(
    list(PACKAGE.glob("*.py"))
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "demos").glob("*.py"))
    + list((ROOT / "perfbench").glob("*.py"))
)
UPPER_CASE = re.compile(r"[A-Z][A-Z0-9_]*")


def _constants(tree):
    """Names of the module-level UPPER_CASE assignments."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and UPPER_CASE.fullmatch(target.id):
                yield target.id


@functools.cache
def _read_names() -> frozenset[str]:
    read = set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return frozenset(read)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_package_constant_is_read(path):
    read = _read_names()
    unread = [name for name in _constants(ast.parse(path.read_text(encoding="utf-8")))
              if name not in read]
    assert not unread, f"{path.name} defines constants nothing reads: {', '.join(unread)}"
