"""The package root exports what it promises, and keeps no dead private code."""

import ast
import re
from pathlib import Path

import erp_lab


def test_all_names_resolve():
    for name in erp_lab.__all__:
        assert hasattr(erp_lab, name), name


def test_all_is_sorted_and_unique():
    assert list(erp_lab.__all__) == sorted(set(erp_lab.__all__))


def test_version_string():
    major, minor, patch = erp_lab.__version__.split(".")
    assert all(part.isdigit() for part in (major, minor, patch))


def test_every_private_module_function_and_class_is_used():
    """A module-level ``_name`` function, class or constant (``_NAME = ...``
    or ``_NAME: T = ...``) is named somewhere in the package beyond its own
    statement (decorators included)."""
    sources = {path: path.read_text(encoding="utf-8")
               for path in sorted(Path(erp_lab.__file__).parent.glob("*.py"))}
    unused = []
    for path, text in sources.items():
        lines = text.splitlines(keepends=True)
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            decorators = getattr(node, "decorator_list", [])
            start = min([node.lineno, *(d.lineno for d in decorators)]) - 1
            elsewhere = [other if other_path != path else
                         "".join(lines[:start] + lines[node.end_lineno:])
                         for other_path, other in sources.items()]
            unused += [f"{path.name}::{name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and not any(re.search(rf"\b{name}\b", other) for other in elsewhere)]
    assert unused == []
