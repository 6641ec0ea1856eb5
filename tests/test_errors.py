"""Every typed error in `dscfw.errors` is raised by the package or is the
base class of one that is: a class nothing raises is dead code."""

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
