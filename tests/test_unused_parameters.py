"""Every settable value of the package is set by some caller, and left to
its default by some other.

A settable value is a parameter with a default, or a field with a default
of an ``*Options`` class, in ``src/geodesicnets``.  The package, the demos
and the benchmark runner are parsed with ``ast``; each settable value must
be set, by position or by keyword, at some call in them, and left to its
default at another.  Calls are matched to definitions by name: ``f(...)``
and ``x.f(...)`` call every function or method named f, and ``C(...)``
calls the ``__init__`` of class C, or, for an ``*Options`` class, sets its
fields in declaration order.  A method's first parameter is bound by the
call and is not counted.  A value that only the tests set is listed in
``ONLY_TESTS_SET`` with the tests that need it; a default that no caller
overrides belongs in a module constant instead, and a default that every
caller overrides serves only the tests: the parameter should be required.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "geodesicnets"
CALLERS = sorted(
    list(PACKAGE.glob("*.py"))
    + list((ROOT / "demos").glob("*.py"))
    + list((ROOT / "perfbench").glob("*.py"))
)

# The most settable values the package may define: the count when this
# ratchet was last lowered.  A change may lower it, never raise it.
MAX_SETTABLE = 27

ONLY_TESTS_SET = {
    "cases.make_case(multiplicity)":
        "test_net, test_jacobi, test_invariance and the acceptance suite build multiple loops",
    "net.reparametrize_constant_speed(n_samples)":
        "test_net, test_jacobi and the acceptance suite resample nets at N = 128",
}


def _settable(path: Path):
    """(label, callable name, positional index or None, keyword) of every
    settable value a module defines."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    classes = {id(f): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    for node in ast.walk(tree):
        owner = classes.get(id(node))
        if isinstance(node, ast.ClassDef) and node.name.endswith("Options"):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
            for k, f in enumerate(fields):
                if f.value is not None:
                    yield f"{path.stem}.{node.name}.{f.target.id}", node.name, k, f.target.id
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args
            bound = owner is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
            name = owner.name if node.name == "__init__" else node.name
            where = f"{owner.name}.{node.name}" if owner is not None else node.name
            for k, arg in enumerate(args):
                if k >= len(args) - len(node.args.defaults):
                    yield f"{path.stem}.{where}({arg.arg})", name, k - bound, arg.arg
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    yield f"{path.stem}.{where}({arg.arg})", name, None, arg.arg


@functools.cache
def _calls() -> dict[str, list[tuple[int, frozenset]]]:
    """Per callee name, (positional argument count, keywords) of every call."""
    out = {}
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                out.setdefault(name, []).append(
                    (len(node.args), frozenset(k.arg for k in node.keywords)))
    return out


def _settings() -> dict[str, list[bool]]:
    """Per settable value, whether each call that may reach it sets it."""
    calls = _calls()
    return {
        label: [(pos is not None and n_pos > pos) or keyword in keywords
                for n_pos, keywords in calls.get(name, ())]
        for path in sorted(PACKAGE.glob("*.py"))
        for label, name, pos, keyword in _settable(path)
    }


def _unset() -> list[str]:
    return sorted(label for label, sets in _settings().items() if not any(sets))


def test_every_settable_value_is_set_by_a_caller():
    unset = [label for label in _unset() if label not in ONLY_TESTS_SET]
    assert not unset, f"settable values no caller sets: {', '.join(unset)}"


def test_every_default_is_left_to_a_caller():
    always_set = sorted(label for label, sets in _settings().items() if all(sets))
    assert not always_set, f"defaults every caller overrides: {', '.join(always_set)}"


def test_only_tests_set_lists_no_value_a_caller_sets():
    stale = sorted(set(ONLY_TESTS_SET) - set(_unset()))
    assert not stale, f"listed but set by a caller, or gone: {', '.join(stale)}"


def test_settable_values_do_not_grow():
    labels = [label for path in sorted(PACKAGE.glob("*.py")) for label, *_ in _settable(path)]
    assert len(labels) <= MAX_SETTABLE, f"{len(labels)} settable values, at most {MAX_SETTABLE}"
