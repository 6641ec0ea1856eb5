"""Dead code the AST shows: every typed error in `dscfw.errors` is raised
by the package or is the base class of one that is, and no module under
`src/dscfw` (its `__init__.py`, which re-exports, aside) imports a name it
never reads."""

import ast
import inspect
from pathlib import Path

import dscfw
from dscfw import errors


def _raised_names() -> set[str]:
    """Names raised anywhere in the package: `raise Name(...)` and
    `raise Name`."""
    names = set()
    for path in Path(dscfw.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_class_is_raised_or_a_base():
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if cls.__module__ == errors.__name__]
    bases = {base for cls in classes for base in cls.__mro__[1:]}
    raised = _raised_names()
    dead = sorted(cls.__name__ for cls in classes
                  if cls.__name__ not in raised and cls not in bases)
    assert dead == []


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads (`from __future__` aside)."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    modules = sorted(Path(dscfw.__file__).parent.glob("*.py"))
    unused = [entry for path in modules if path.name != "__init__.py"
              for entry in _unused_imports(path)]
    assert unused == []
