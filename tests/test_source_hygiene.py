"""Source hygiene of the package, read with ``ast`` alone: no module keeps
an import it does not use, and no private top-level function or class
outlives its last use (a helper orphaned when its one caller goes)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ttpsolve"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TREES = {p: ast.parse(p.read_text(), filename=str(p)) for p in SRC.glob("*.py")}


def _used_names(tree):
    """Every name a module reads, and every attribute it takes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imported_names(tree):
    """``(bound name, line)`` of each top-level import."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    tree = TREES[path]
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_helper_is_referenced(path):
    """Referenced means read as a name or an attribute, or imported by name,
    anywhere in the package."""
    referenced = set()
    for tree in TREES.values():
        referenced |= _used_names(tree)
        referenced |= {alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) for alias in node.names}
    orphans = [f"{node.name} (line {node.lineno})" for node in TREES[path].body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")
               and node.name not in referenced]
    assert not orphans, f"{path.name} defines but never uses: {', '.join(orphans)}"
