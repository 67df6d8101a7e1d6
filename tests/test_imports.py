"""No module under ``src/`` imports a name it never uses, or defines a
private helper it never uses.

A static check with the standard library's ``ast``: every name an
``import`` or ``from ... import`` statement binds must be read somewhere in
the module, annotations included.  ``__init__.py`` files, which import to
re-export, and ``from __future__`` imports are skipped.  Likewise every
module-level function or class whose name starts with one underscore must
be read somewhere in the module that defines it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(path for path in SRC.rglob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names the source imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def orphan_helpers(source: str) -> list[str]:
    """The module-level private functions and classes (a leading underscore,
    not a dunder) that the source defines and never reads, sorted."""
    tree = ast.parse(source)
    defined = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(defined - read)


def test_there_are_modules_to_check():
    assert len(MODULES) >= 5


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "line, name",
    [("import itertools", "itertools"),
     ("from itertools import starmap", "starmap"),
     ("import os.path", "os"),
     ("from fractions import Fraction as F", "F")],
)
def test_negative_control_injected_unused_import_is_caught(line, name):
    source = (SRC / "nodalmoduli" / "feasibility.py").read_text(encoding="utf-8")
    source = source.replace("from __future__ import annotations\n",
                            f"from __future__ import annotations\n{line}\n", 1)
    assert unused_imports(source) == [name]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_private_helper_is_used(path):
    assert orphan_helpers(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "definition, name",
    [("def _helper():\n    return 0\n", "_helper"),
     ("class _Helper:\n    pass\n", "_Helper")],
)
def test_negative_control_injected_unused_helper_is_caught(definition, name):
    source = (SRC / "nodalmoduli" / "cli.py").read_text(encoding="utf-8")
    assert orphan_helpers(source + "\n\n" + definition) == [name]
