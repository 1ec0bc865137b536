"""Source hygiene of the package, read with ``ast`` alone: no module keeps
an import it does not use, no private top-level function or class
outlives its last use (a helper orphaned when its one caller goes), and a
dataclass's ``__post_init__`` sets only its derived fields."""

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


def _declared_init_false(stmt):
    """Whether the class-body statement ``stmt`` declares a field through
    ``field(..., init=False, ...)``."""
    value = stmt.value if isinstance(stmt, ast.AnnAssign) else None
    return (isinstance(value, ast.Call)
            and getattr(value.func, "id", getattr(value.func, "attr", None)) == "field"
            and any(kw.arg == "init" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False for kw in value.keywords))


def test_post_init_sets_only_init_false_fields():
    """Each field that a ``__post_init__`` sets through ``object.__setattr__``
    is declared ``field(init=False)``, so neither the constructor nor
    ``dataclasses.replace`` takes a value that ``__post_init__`` overwrites
    or that disagrees with the fields it is derived from."""
    found, problems = [], []
    for path, tree in sorted(TREES.items()):
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            derived = {stmt.target.id for stmt in cls.body if _declared_init_false(stmt)}
            for fn in cls.body:
                if not (isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"):
                    continue
                for call in ast.walk(fn):
                    if not (isinstance(call, ast.Call) and ast.unparse(call.func) ==
                            "object.__setattr__"):
                        continue
                    name = call.args[1]
                    found.append(f"{cls.name}.{ast.unparse(name)}")
                    if not (isinstance(name, ast.Constant) and name.value in derived):
                        problems.append(f"{path.name}: {cls.name} sets {ast.unparse(name)} "
                                        f"(line {call.lineno})")
    assert "Instance.'nu'" in found
    assert not problems, f"set by __post_init__ but not init=False: {', '.join(problems)}"
