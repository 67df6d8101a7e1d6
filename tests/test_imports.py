"""No module under ``src/`` imports a name it never uses.

A static check with the standard library's ``ast``: every name an
``import`` or ``from ... import`` statement binds must be read somewhere in
the module, annotations included.  ``__init__.py`` files, which import to
re-export, and ``from __future__`` imports are skipped.
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
