"""Static hygiene of the package source: no unused import, no pass-through export and no unreferenced private name."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "imbalance_bench"
TREES = {path.relative_to(SRC).as_posix(): ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))}


def _loaded(tree: ast.AST) -> set[str]:
    """Names the code reads: loaded variables and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {element.value for element in node.value.elts}
    return set()


def _imported(tree: ast.Module) -> set[str]:
    """Names bound by import statements, except __future__ features."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _defined_private(tree: ast.Module) -> set[str]:
    """Module-level names that start with one underscore and are not dunders."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if name.startswith("_") and not name.endswith("__")}


@pytest.mark.parametrize("module", TREES)
def test_every_import_is_used_or_exported(module):
    tree = TREES[module]
    unused = _imported(tree) - _loaded(tree) - _exported(tree)
    assert not unused, f"{module} imports {sorted(unused)} without using or exporting them"


@pytest.mark.parametrize("module", [name for name in TREES if not name.endswith("__init__.py")])
def test_only_packages_reexport_imported_names(module):
    # a module exports what it imports only when it uses it too; re-exporting is the package __init__'s job
    tree = TREES[module]
    passed_through = (_imported(tree) & _exported(tree)) - _loaded(tree)
    assert not passed_through, f"{module} exports {sorted(passed_through)}, which it imports but does not use"


def test_every_private_module_name_is_referenced():
    referenced = set().union(*(_loaded(tree) for tree in TREES.values()))
    dead = {
        f"{module}:{name}" for module, tree in TREES.items() for name in _defined_private(tree) - referenced
    }
    assert not dead, f"private names that nothing in the package reads: {sorted(dead)}"
