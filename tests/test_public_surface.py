"""Every public function and method of the package has a caller in the
package.

A public module-level function of ``src/plinth/<module>.py`` must be
named somewhere in ``src/plinth`` other than its own ``def`` and the
re-exports of ``__init__.py``, or be a span that a per-layer metric of
BENCHMARK.json reads.  A public method of a package class must be read
by name somewhere in ``src/plinth`` outside its own ``def``; a sibling
method's read counts (``Permutation.order`` reads ``cycles``).  A
function only the tests call belongs in the tests, as an oracle.  No
signature of ``plinth.perm`` takes an order claim: a bound is the
package's own knowledge (``PermGroup._bounded``).

The checks match names only, so any read of the same name counts:
``report.add`` is a use of ``Field``'s ``add`` as much as ``F.add``.
"""

import ast
import inspect
import json
from collections import Counter
from pathlib import Path

import pytest

from plinth import perm

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "plinth"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _benchmark_functions():
    """Function names of the ``<layer>.<function>`` spans BENCHMARK.json reads."""
    out = set()
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) == 3:
            out.add(parts[1])
    return out


_TREES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES
}


def _public_functions():
    out = []
    for module, tree in _TREES.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                out.append(f"{module}.{node.name}")
    return out


def _name_reads(*roots):
    """How often each name is read or imported under the given nodes."""
    reads = Counter()
    for root in roots:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                reads[node.id] += 1
            elif isinstance(node, ast.Attribute):
                reads[node.attr] += 1
            elif isinstance(node, ast.alias):
                reads[node.name] += 1
    return reads


def _public_methods():
    """``module.Class.method`` and its ``def`` node, for each public
    method (a name without a leading underscore) of each class."""
    out = {}
    for module, tree in _TREES.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    out[f"{module}.{cls.name}.{node.name}"] = node
    return out


# every name read or imported in the package, ``__init__`` aside
_READS = _name_reads(*_TREES.values())
_USED = set(_READS)
_METHODS = _public_methods()
# a constructor of a standard group, kept beside symmetric and alternating
_UNCALLED_METHODS = {"perm.PermGroup.cyclic"}
_BENCHMARKED = _benchmark_functions()


def test_public_functions_are_found():
    assert "perm.point_stabilizer" in _public_functions()
    assert "is_connected" in _BENCHMARKED


@pytest.mark.parametrize("function", _public_functions())
def test_public_function_has_a_package_caller(function):
    name = function.split(".")[1]
    assert name in _USED or name in _BENCHMARKED, (
        f"{function} is called by no package code; move it into the tests"
    )


def test_benchmark_is_the_only_reason_left():
    # a benchmarked function without a package caller is kept for the
    # benchmark alone; name each one here so a new one is a decision.
    # cyclic_class_action is also the tests' oracle for the pair action
    public = {f.split(".")[1] for f in _public_functions()}
    assert (public & _BENCHMARKED) - _USED == {"is_connected", "cyclic_class_action"}


def test_public_methods_are_found():
    assert "perm.PermGroup.order" in _METHODS
    assert "algebra.Field.primitive_element" in _METHODS
    assert _UNCALLED_METHODS <= set(_METHODS)


@pytest.mark.parametrize("method", sorted(set(_METHODS) - _UNCALLED_METHODS))
def test_public_method_has_a_package_reader(method):
    name = method.rsplit(".", 1)[1]
    assert _READS[name] > _name_reads(_METHODS[method])[name], (
        f"{method} is read by no package code; move it into the tests"
    )


def test_uncalled_methods_are_still_uncalled():
    # an exception that gains a reader leaves the list
    for method in _UNCALLED_METHODS:
        name = method.rsplit(".", 1)[1]
        assert _READS[name] == _name_reads(_METHODS[method])[name], method


def _value_error_sites():
    """``module.function`` of each ``raise ValueError`` in the package."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    sites.append(".".join(scope))
            visit(child, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), [path.stem])
    return sorted(sites)


def test_untyped_errors_are_listed():
    # every other error is a PlinthError subclass; a new ValueError
    # joins this list only as a decision
    assert _value_error_sites() == ["perm.PermGroup.__init__"]


def _signatures(module):
    """(qualified name, signature) of each function and method defined
    in ``module``."""
    out = []
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((name, inspect.signature(obj)))
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                func = getattr(member, "__func__", member)
                if inspect.isfunction(func):
                    out.append((f"{name}.{attr}", inspect.signature(func)))
    return out


def test_perm_signatures_take_no_order_claim():
    # an order bound is the package's own knowledge (PermGroup._bounded),
    # never a caller's claim
    sigs = _signatures(perm)
    assert any(name == "PermGroup.__init__" for name, _ in sigs)
    bad = [
        name
        for name, sig in sigs
        if {"claimed_order", "upper_bound"} & set(sig.parameters)
    ]
    assert bad == []
