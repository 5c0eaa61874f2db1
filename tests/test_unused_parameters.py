"""Every settable value of the package is set by some caller.

A settable value is a parameter with a default, or a field with a default
of an ``*Options`` class, in ``src/geodesicnets``.  The package, the demos
and the benchmark runner are parsed with ``ast``; each settable value must
be set, by position or by keyword, at some call in them.  Calls are matched
to definitions by name: ``f(...)`` and ``x.f(...)`` call every function or
method named f, and ``C(...)`` calls the ``__init__`` of class C, or, for an
``*Options`` class, sets its fields in declaration order.  A method's first
parameter is bound by the call and is not counted.  A value that only the
tests set is listed in ``ONLY_TESTS_SET`` with the tests that need it; a
default that no caller overrides belongs in a module constant instead.
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
MAX_SETTABLE = 59

ONLY_TESTS_SET = {
    "cases.make_case(multiplicity)":
        "test_net, test_jacobi, test_invariance and the acceptance suite build multiple loops",
    "jacobi.approximate_embeddedness(threshold)":
        "test_jacobi's boundary test sets it just below and above the net's own gap",
    "net.reparametrize_constant_speed(n_samples)":
        "test_net, test_jacobi and the acceptance suite resample nets at N = 128",
    "solver.continue_family(opts)":
        "test_solver's bisection tests cap the iterations so that a step stalls",
    "variation.hessian_form(check_stationary)":
        "test_variation and the acceptance suite pair fields on nets with no gate",
    "solver.SolveOptions.max_iterations":
        "test_solver's option, edge-length and bisection tests",
    "solver.SolveOptions.hessian_refresh":
        "test_solver and the acceptance suite check the quadratic tail on a fresh matrix",
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


def _unset() -> list[str]:
    calls = _calls()
    return sorted(
        label
        for path in sorted(PACKAGE.glob("*.py"))
        for label, name, pos, keyword in _settable(path)
        if not any((pos is not None and n_pos > pos) or keyword in keywords
                   for n_pos, keywords in calls.get(name, ()))
    )


def test_every_settable_value_is_set_by_a_caller():
    unset = [label for label in _unset() if label not in ONLY_TESTS_SET]
    assert not unset, f"settable values no caller sets: {', '.join(unset)}"


def test_only_tests_set_lists_no_value_a_caller_sets():
    stale = sorted(set(ONLY_TESTS_SET) - set(_unset()))
    assert not stale, f"listed but set by a caller, or gone: {', '.join(stale)}"


def test_settable_values_do_not_grow():
    labels = [label for path in sorted(PACKAGE.glob("*.py")) for label, *_ in _settable(path)]
    assert len(labels) <= MAX_SETTABLE, f"{len(labels)} settable values, at most {MAX_SETTABLE}"
