"""Every function, class and method of the package is named outside its
own definition.

The package, the demos and the benchmark runner are parsed with ``ast``.
A definition in ``src/geodesicnets`` counts as used when its name is read
somewhere else in them: as a name, an attribute, an imported name, or a
word of a string that is neither a docstring nor an entry of ``__all__``
(the benchmark's tracer patches functions by name).  Names read only in
the definition's own body, such as a recursive call, do not count, and
neither do the tests: a helper that only the tests call belongs in the
tests.  Dunder methods are exempt.
"""

import ast
import functools
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "geodesicnets"
READERS = sorted(
    list(PACKAGE.glob("*.py"))
    + list((ROOT / "demos").glob("*.py"))
    + list((ROOT / "perfbench").glob("*.py"))
)
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _skipped_strings(tree) -> set[int]:
    """ids of the docstring and ``__all__`` string nodes of a module."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module,) + DEFINITIONS) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                skipped.add(id(first.value))
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            skipped.update(id(sub) for sub in ast.walk(node.value))
    return skipped


def _names(node, skipped: set[int]) -> Counter:
    """How often each name is read within node."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.asname or sub.name] += 1
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and id(sub) not in skipped):
            names.update(WORD.findall(sub.value))
    return names


@functools.cache
def _parsed(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skipped = _skipped_strings(tree)
    return tree, skipped, _names(tree, skipped)


@functools.cache
def _all_names() -> Counter:
    total = Counter()
    for path in READERS:
        total.update(_parsed(path)[2])
    return total


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_package_definition_is_named_outside_it(path):
    tree, skipped, _ = _parsed(path)
    total = _all_names()
    unused = [
        f"{node.name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, DEFINITIONS)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and total[node.name] <= _names(node, skipped)[node.name]
    ]
    assert not unused, f"{path.name} defines names only the tests use: {', '.join(unused)}"
