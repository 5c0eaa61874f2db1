"""Every function, class and method of the package is named outside its
own definition.

The package, the demos and the benchmark runner are parsed with ``ast``.
A function or class in ``src/geodesicnets`` counts as used when its name
is read somewhere else in them: as a name, an attribute, an imported name,
or a word of a string that is neither a docstring nor an entry of
``__all__``.  A method or property counts as used only when its name is
read as an attribute, or is a word of a string in the benchmark's tracer,
which patches methods by name: a local variable or a command-line word of
the same spelling does not use it.  Names read only in the definition's
own body, such as a recursive call, do not count, and neither do the
tests: a helper that only the tests call belongs in the tests.  Dunder
methods are exempt.
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
TRACER = ROOT / "perfbench" / "tracer.py"
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


def _names(node, skipped: set[int], attributes_only: bool = False) -> Counter:
    """How often each name is read within node; only as an attribute when
    ``attributes_only``."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names[sub.attr] += 1
        elif attributes_only:
            continue
        elif isinstance(sub, ast.Name):
            names[sub.id] += 1
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
    return tree, skipped, _names(tree, skipped), _names(tree, skipped, attributes_only=True)


@functools.cache
def _all_names(attributes_only: bool) -> Counter:
    """Name reads over the readers; for methods, attribute reads plus the
    words of the tracer's strings."""
    total = Counter()
    for path in READERS:
        total.update(_parsed(path)[3 if attributes_only else 2])
    if attributes_only:
        tree, skipped, _, _ = _parsed(TRACER)
        total.update(word for sub in ast.walk(tree)
                     if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                     and id(sub) not in skipped for word in WORD.findall(sub.value))
    return total


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_package_definition_is_named_outside_it(path):
    tree, skipped, _, _ = _parsed(path)
    methods = {id(sub) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for sub in node.body if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))}
    unused = [
        f"{node.name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, DEFINITIONS)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and _all_names(id(node) in methods)[node.name]
        <= _names(node, skipped, id(node) in methods)[node.name]
    ]
    assert not unused, f"{path.name} defines names only the tests use: {', '.join(unused)}"
